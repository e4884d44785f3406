"""Feature extraction: XML corpus -> complex feature matrix.

One row per transaction, one complex feature per schema descriptor, one
measurement vector per element occurrence.  Parse failures are flagged and
kept; they never silently disappear.
"""

import math
import re
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from datetime import date, datetime, time, timezone
from functools import partial
from typing import NamedTuple

from . import persist
from .errors import EmptyCorpus, MalformedXml
from .schema import (BOOLEAN_ENUM_VALUES, AbstractType, ElementDescriptor,
                     SchemaVector)


class MeasurementVector(NamedTuple):
    """Scalar measurements for a single element occurrence.

    Layouts by abstract type: Numerical [value], Date [epoch seconds],
    Enumeration [index], String [word_count, char_length].  String
    occurrences also retain the raw text, which feeds TF-IDF only.
    """
    values: tuple
    raw_text: str = None
    failed: bool = False


@dataclass
class ExtractedRow:
    # one complex feature per descriptor, schema order: the measurement
    # vectors of that element's occurrences
    features: list[list[MeasurementVector]]
    unknown_elements: int = 0


@dataclass
class FeatureMatrix:
    schema_hash: str
    rows: list[list[list[MeasurementVector]]]  # ExtractedRow.features
    row_ids: list
    unknown_counts: list
    diagnostics: list[tuple] = field(default_factory=list)  # (row_id, message)

    def save(self, path):
        persist.write(path, "fm", self)

    @classmethod
    def load(cls, path):
        return persist.read(path, "fm", partial(persist.decode, cls))


_G_YEAR_MONTH = re.compile(r"(\d{4})(-\d{2})?([+-]\d{2}:\d{2})?")


def _parse_epoch_seconds(text: str) -> float:
    t = text.strip()
    if t.endswith("Z"):
        t = t[:-1] + "+00:00"
    g = _G_YEAR_MONTH.fullmatch(t)
    if g:  # xs:gYear or xs:gYearMonth: its first instant
        year, month, zone = g.groups()
        t = f"{year}{month or '-01'}-01T00:00{zone or ''}"
    # a second's fraction to 6 digits: Python 3.10 reads only 3 or 6, and
    # 3.11 cuts longer ones to 6
    t = re.sub(r"(?<=:\d\d)\.(\d+)",
               lambda f: "." + f[1][:6].ljust(6, "0"), t, count=1)
    try:
        dt = datetime.fromisoformat(t)
    except ValueError:
        try:
            d = date.fromisoformat(t)
            dt = datetime(d.year, d.month, d.day)
        except ValueError:
            tm = time.fromisoformat(t)
            dt = datetime(1970, 1, 1, tm.hour, tm.minute, tm.second,
                          tm.microsecond, tzinfo=tm.tzinfo)
    if dt.tzinfo is None:
        dt = dt.replace(tzinfo=timezone.utc)
    return dt.timestamp()


def measure_occurrence(text_value: str, descriptor: ElementDescriptor) -> MeasurementVector:
    """Measure one occurrence per the descriptor's abstract type.

    Unparseable values come back flagged with an empty measurement tuple
    instead of raising; the flatten stage turns flags into a parse-failure
    count feature.  A number is ASCII without `_`: the other texts float()
    reads with a finite value are those xs:decimal and xs:double admit.
    xs:boolean's `1` and `0` are its literals `true` and `false`.
    """
    text = text_value if text_value is not None else ""
    at = descriptor.abstract_type
    if at is AbstractType.STRING:
        return MeasurementVector((float(len(text.split())), float(len(text))),
                                 raw_text=text)
    t = text.strip()
    try:
        if at is AbstractType.NUMERICAL:
            value = float(t) if t.isascii() and "_" not in t else math.nan
        elif at is AbstractType.DATE:
            value = _parse_epoch_seconds(text)
        else:
            if descriptor.enum_values == BOOLEAN_ENUM_VALUES:
                t = {"0": "false", "1": "true"}.get(t, t)
            value = float(descriptor.enum_values.index(t))
    except ValueError:
        value = math.nan
    if not math.isfinite(value):  # unparseable, or NaN, inf or 1e400
        return MeasurementVector((), failed=True)
    return MeasurementVector((value,))


def _local(tag: str) -> str:
    return tag.split("}")[-1]


def own_text(elem) -> str:
    """Direct character data of an element: its text plus child tails.

    For a leaf this is just the text; for mixed content the interleaved
    runs are concatenated.
    """
    parts = [elem.text or ""]
    parts.extend(child.tail or "" for child in elem)
    return "".join(parts)


def extract_row(xml_text: str, schema: SchemaVector) -> ExtractedRow:
    """Extract one transaction row; occurrences collected in document order."""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise MalformedXml(f"unparseable XML: {exc}")
    index = {d.path: i for i, d in enumerate(schema.descriptors)}
    features = [[] for _ in schema.descriptors]
    unknown = 0

    def walk(elem, prefix):
        nonlocal unknown
        path = f"{prefix}/{_local(elem.tag)}" if prefix else _local(elem.tag)
        children = list(elem)
        idx = index.get(path)
        if idx is not None:
            mv = measure_occurrence(own_text(elem), schema.descriptors[idx])
            features[idx].append(mv)
        elif not children:
            unknown += 1
        for name, value in elem.attrib.items():
            apath = f"{path}/@{_local(name)}"
            aidx = index.get(apath)
            if aidx is not None:
                mv = measure_occurrence(value, schema.descriptors[aidx])
                features[aidx].append(mv)
        for child in children:
            walk(child, path)

    walk(root, "")
    return ExtractedRow(features=features, unknown_elements=unknown)


def build_feature_matrix(corpus, schema: SchemaVector, row_ids=None) -> FeatureMatrix:
    """Extract every document of the corpus into a FeatureMatrix.

    Malformed documents are skipped and listed in diagnostics; if nothing
    survives, EmptyCorpus is raised.
    """
    corpus = list(corpus)
    if not corpus:
        raise EmptyCorpus("no documents supplied")
    if row_ids is None:
        row_ids = [str(i) for i in range(len(corpus))]
    rows, kept_ids, unknown_counts, diagnostics = [], [], [], []
    for rid, text in zip(row_ids, corpus):
        try:
            extracted = extract_row(text, schema)
        except MalformedXml as exc:
            diagnostics.append((rid, str(exc)))
            continue
        rows.append(extracted.features)
        kept_ids.append(rid)
        unknown_counts.append(extracted.unknown_elements)
    if not rows:
        raise EmptyCorpus("all documents were malformed")
    return FeatureMatrix(schema_hash=schema.source_hash, rows=rows,
                         row_ids=kept_ids, unknown_counts=unknown_counts,
                         diagnostics=diagnostics)
