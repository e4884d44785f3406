"""Exception hierarchy shared by all pipeline stages."""

import numpy as np


class XmladError(Exception):
    """Base class for all data-level errors raised by this package."""


# schema
class MalformedSchema(XmladError):
    pass


# extract
class MalformedXml(XmladError):
    pass


class EmptyCorpus(XmladError):
    pass


# flatten
class SchemaMismatch(XmladError):
    pass


# models
class TooFewRows(XmladError):
    pass


class NonFiniteData(XmladError):
    pass


def check_finite(X) -> None:
    # a NaN cell would otherwise pass as normal: min(1.0, nan) is 1.0
    finite = np.isfinite(X)
    if not finite.all():
        row, column = np.argwhere(~np.atleast_2d(finite))[0]
        raise NonFiniteData(f"non-finite cell at row {row}, column {column}")


class DimensionMismatch(XmladError):
    pass


# eval
class SingleClass(XmladError):
    pass


class LengthMismatch(XmladError):
    pass


class DegenerateMatrix(XmladError):
    pass


class MissingParams(XmladError):
    pass


# persistence
class VersionMismatch(XmladError):
    pass


class CorruptFile(XmladError):
    pass
