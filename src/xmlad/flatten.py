"""Lossy flattening of the complex feature matrix into a rectangular dataset.

Per-descriptor aggregates (min/max/count, per-enum-value sums, word and
character length extremes) plus a parse-failure count and k global TF-IDF
text features.  Missing elements contribute zeros, so every cell is finite.
"""

import csv
import math
import string
from collections import Counter
from dataclasses import dataclass
from functools import cached_property, partial
from itertools import chain

import numpy as np

from . import persist
from .errors import CorruptFile, SchemaMismatch
from .extract import SLOTS, FeatureMatrix
from .schema import AbstractType, SchemaVector

DEFAULT_TFIDF_K = 10
LABELS = ("normal", "anomalous")

_STRIP_CHARS = string.punctuation


def tokenize(text: str):
    """Lowercased whitespace tokens with punctuation trimmed from the ends."""
    return [tok for raw in text.lower().split()
            if (tok := raw.strip(_STRIP_CHARS))]


def smoothed_idf(corpus_size: int, doc_frequency: int) -> float:
    return math.log((1 + corpus_size) / (1 + doc_frequency)) + 1.0


@dataclass(frozen=True)
class TfIdfDictionary:
    terms: tuple
    doc_frequency: tuple
    corpus_size: int
    k: int

    def __post_init__(self):
        if len(self.terms) != len(self.doc_frequency):
            raise ValueError(f"{len(self.terms)} terms but "
                             f"{len(self.doc_frequency)} document frequencies")

    @cached_property
    def _frequency(self) -> dict:
        # term -> document frequency; a repeated term keeps its first, as
        # tuple.index would
        return dict(zip(reversed(self.terms), reversed(self.doc_frequency)))

    def idf(self, term: str) -> float:
        return smoothed_idf(self.corpus_size, self._frequency.get(term, 0))

    def save(self, path):
        persist.write(path, "dict", self)

    @classmethod
    def load(cls, path):
        return persist.read(path, "dict", partial(persist.decode, cls))


@dataclass
class FlatDataset:
    column_names: tuple
    rows: np.ndarray  # m x p, float64
    column_meta: tuple = ()  # read by nothing; perfbench still passes it
    labels: tuple = None  # optional per-row "normal"/"anomalous"

    def to_csv(self, path) -> None:
        header = list(self.column_names)
        rows = ([repr(float(v)) for v in row] for row in self.rows)
        if self.labels is not None:
            header.append("label")
            rows = (cells + [label] for cells, label in zip(rows, self.labels))
        persist.write_rows(path, chain([header], rows))

    @classmethod
    def from_csv(cls, path) -> "FlatDataset":
        """Read a dataset; an empty, ragged or non-numeric one is corrupt,
        and so is a label other than "normal" or "anomalous"."""
        with persist.open_text(path) as fh:
            reader = csv.reader(fh)
            header = next(reader, None)
            if not header:
                raise CorruptFile(f"{path}: no header row")
            has_label = header[-1] == "label"
            names = tuple(header[:-1] if has_label else header)
            rows, labels = [], []
            for cells in reader:
                if len(cells) != len(header):
                    raise CorruptFile(f"{path}: line {reader.line_num} "
                                      f"has {len(cells)} cells")
                if has_label:
                    if cells[-1] not in LABELS:
                        raise CorruptFile(
                            f"{path}: line {reader.line_num} has label "
                            f"{cells[-1]!r}, not one of {LABELS}")
                    labels.append(cells[-1])
                    cells = cells[:-1]
                rows.append([float(c) for c in cells])
        data = (np.array(rows, dtype=float) if rows
                else np.empty((0, len(names))))
        return cls(column_names=names, rows=data,
                   labels=tuple(labels) if has_label else None)


def _token_counts(texts) -> Counter:
    """Token counts of a row's String texts, None skipped.  Tokenizing them
    joined by spaces gives each one's tokens: split() breaks at a space, and
    lower()'s one contextual rule (final sigma) stops there as at an end."""
    return Counter(tokenize(" ".join(filter(None, texts))))


def _check_schema(matrix: FeatureMatrix, schema: SchemaVector) -> None:
    # a matrix extracted under another schema would fill the wrong columns
    if matrix.schema_hash != schema.source_hash:
        raise SchemaMismatch(
            f"feature matrix was extracted under schema "
            f"{matrix.schema_hash[:12]}..., not {schema.source_hash[:12]}...")


def build_dictionary(matrix: FeatureMatrix, schema: SchemaVector,
                     k: int = DEFAULT_TFIDF_K) -> TfIdfDictionary:
    """Select the top-k terms by summed TF-IDF over the training corpus."""
    _check_schema(matrix, schema)
    m = len(matrix.rows)
    df = Counter()
    total_tf = Counter()
    layout = schema.ingest_plan.layout
    for row in matrix.rows:
        counts = _token_counts(mv.raw_text for cf, (_, _, string)
                               in zip(row, layout) if string for mv in cf)
        df.update(counts.keys())
        total_tf.update(counts)
    scored = sorted(
        ((term, total_tf[term] * smoothed_idf(m, df[term])) for term in df),
        key=lambda kv: (-kv[1], kv[0]))
    selected = scored[:k]
    return TfIdfDictionary(
        terms=tuple(t for t, _ in selected),
        doc_frequency=tuple(df[t] for t, _ in selected),
        corpus_size=m, k=k)


def tfidf(term: str, row_tokens: Counter, dictionary: TfIdfDictionary) -> float:
    """Raw term count in the row times the dictionary's smoothed idf."""
    tf = row_tokens.get(term, 0)
    if tf == 0:
        return 0.0
    return tf * dictionary.idf(term)


def _aggregates(desc):
    """An element's column kinds: a slot s (`extract.SLOTS`) gives a min<s>
    and a max<s> column over the valid occurrences, then the element gets
    a count column; an enumeration instead gets one sum[v] column per
    literal v."""
    if desc.abstract_type is AbstractType.ENUMERATION:
        return [f"sum[{value}]" for value in desc.enum_values]
    return [f"{bound}{slot}" for slot in SLOTS[desc.abstract_type]
            for bound in ("min", "max")] + ["count"]


def column_plan(schema: SchemaVector, dictionary: TfIdfDictionary):
    """Deterministic column naming for a (schema, dictionary) pair."""
    names = [f"{desc.path}#{kind}" for desc in schema.descriptors
             for kind in _aggregates(desc)]
    names += ["parse_failures#count"] + [f"tfidf#{t}" for t in dictionary.terms]
    return tuple(names)


def expected_width(schema: SchemaVector, k_selected: int) -> int:
    return 1 + k_selected + sum(len(_aggregates(desc))
                                for desc in schema.descriptors)


def flatten_row(row, schema: SchemaVector, dictionary: TfIdfDictionary):
    """Flatten one transaction row into a numeric vector (schema order)."""
    layout = schema.ingest_plan.layout
    if len(row) != len(layout):
        raise SchemaMismatch(
            f"row has {len(row)} complex features, schema defines "
            f"{len(layout)}")
    out = []
    failures = 0
    texts = []
    for cf, (literals, slots, string) in zip(row, layout):
        valid = [mv.values for mv in cf if not mv.failed]
        failures += len(cf) - len(valid)
        if literals is not None:
            counts = [0.0] * literals
            for values in valid:
                counts[int(values[0])] += 1.0
            out.extend(counts)
            continue
        if len(valid) == 1:  # most elements occur once: min = max
            (values,) = valid
            for i in range(slots):
                out.extend((values[i], values[i]))
        else:
            for i in range(slots):
                slot = [values[i] for values in valid]
                out.extend((min(slot), max(slot)) if slot else (0.0, 0.0))
        out.append(float(len(cf)))
        if string:
            texts += [mv.raw_text for mv in cf]
    out.append(float(failures))
    counts = _token_counts(texts)
    out += [tfidf(term, counts, dictionary) for term in dictionary.terms]
    return out


def flatten_matrix(matrix: FeatureMatrix, schema: SchemaVector,
                   dictionary: TfIdfDictionary, labels=None) -> FlatDataset:
    _check_schema(matrix, schema)
    names = column_plan(schema, dictionary)
    rows = []
    for rid, row in zip(matrix.row_ids, matrix.rows):
        try:
            rows.append(flatten_row(row, schema, dictionary))
        except SchemaMismatch as exc:
            raise SchemaMismatch(f"row {rid}: {exc}")
    data = np.array(rows, dtype=float) if rows else np.empty((0, len(names)))
    return FlatDataset(column_names=names, rows=data,
                       labels=tuple(labels) if labels is not None else None)
