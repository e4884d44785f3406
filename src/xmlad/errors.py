"""Exception hierarchy shared by all pipeline stages."""


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
