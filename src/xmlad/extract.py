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
_FRACTION = re.compile(r"(?<=:\d\d)\.(\d+)")
_FAILED = MeasurementVector((), failed=True)


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
    if "." in t:
        t = _FRACTION.sub(lambda f: "." + f[1][:6].ljust(6, "0"), t, count=1)
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


def _number(text: str) -> float:
    t = text.strip()
    return float(t) if t.isascii() and "_" not in t else math.nan


def _measurer(descriptor: ElementDescriptor):
    """The function that measures an occurrence's text per the
    descriptor's abstract type; an enumeration looks its literal up."""
    at = descriptor.abstract_type
    if at is AbstractType.STRING:
        return lambda text: MeasurementVector(
            (float(len(text.split())), float(len(text))), raw_text=text)
    if at is AbstractType.ENUMERATION:
        literals = {}
        for i, value in enumerate(descriptor.enum_values):
            literals.setdefault(value, MeasurementVector((float(i),)))
        if descriptor.enum_values == BOOLEAN_ENUM_VALUES:
            literals["0"], literals["1"] = literals["false"], literals["true"]
        return lambda text: literals.get(text.strip(), _FAILED)
    parse = _number if at is AbstractType.NUMERICAL else _parse_epoch_seconds

    def measure(text: str) -> MeasurementVector:
        try:
            value = parse(text)
        except ValueError:
            return _FAILED
        # unparseable, or NaN, inf or 1e400
        return MeasurementVector((value,)) if math.isfinite(value) else _FAILED
    return measure


def measure_occurrence(text_value: str, descriptor: ElementDescriptor) -> MeasurementVector:
    """Measure one occurrence per the descriptor's abstract type.

    Unparseable values come back flagged with an empty measurement tuple
    instead of raising; the flatten stage turns flags into a parse-failure
    count feature.  A number is ASCII without `_`: the other texts float()
    reads with a finite value are those xs:decimal and xs:double admit.
    xs:boolean's `1` and `0` are its literals `true` and `false`.
    """
    return _measurer(descriptor)(text_value if text_value is not None else "")


# MeasurementVector.values per abstract type but Enumeration (its literal's
# index), named as flatten's column suffixes
SLOTS = {AbstractType.NUMERICAL: ("",), AbstractType.DATE: ("",),
         AbstractType.STRING: ("_words", "_chars")}


class IngestPlan:
    """How `extract_row` walks a schema's documents, `synth` emits them and
    `flatten_row` lays out their rows.  In the trie `root`, a node maps a
    child element's local name or an attribute's `@name` to its node, and
    None to (index, measure) of its path's descriptor, the last if repeated.
    `layout` holds each one's literal count (None if no enumeration), slot
    count and is-String."""

    def __init__(self, descriptors):
        self.root = {}
        self.layout = []
        for i, desc in enumerate(descriptors):
            node = self.root
            for name in desc.path.split("/"):
                node = node.setdefault(name, {})
            node[None] = (i, _measurer(desc))
            at = desc.abstract_type
            self.layout.append((
                len(desc.enum_values) if at is AbstractType.ENUMERATION
                else None, len(SLOTS.get(at, ())), at is AbstractType.STRING))


def local_name(tag: str) -> str:
    return tag.rpartition("}")[2]


def own_text(elem) -> str:
    """Direct character data of an element: its text plus child tails,
    the interleaved runs of mixed content concatenated."""
    return (elem.text or "") + "".join([child.tail or "" for child in elem])


def extract_row(xml_text: str, schema: SchemaVector) -> ExtractedRow:
    """Extract one transaction row; occurrences collected in document order.
    An element off the schema's paths adds its subtree's leaves to the
    unknown count, and so does an empty container of the schema."""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise MalformedXml(f"unparseable XML: {exc}")
    features = [[] for _ in schema.descriptors]
    unknown = 0
    stack = [(root, schema.ingest_plan.root)]
    while stack:
        elem, parent = stack.pop()
        node = parent.get(local_name(elem.tag))
        if node is None:
            unknown += sum(1 for e in elem.iter() if not len(e))
            continue
        children = len(elem)
        hit = node.get(None)
        if hit is not None:
            text = own_text(elem) if children else elem.text or ""
            features[hit[0]].append(hit[1](text))
        elif not children:
            unknown += 1
        for name, value in elem.items():
            hit = node.get("@" + local_name(name), {}).get(None)
            if hit is not None:
                features[hit[0]].append(hit[1](value))
        if children:  # popped in document order
            stack.extend([(child, node) for child in reversed(elem)])
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
