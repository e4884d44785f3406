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
from functools import partial

import numpy as np

from . import persist
from .errors import CorruptFile, SchemaMismatch
from .extract import FeatureMatrix
from .schema import AbstractType, SchemaVector

DEFAULT_TFIDF_K = 10

_STRIP_CHARS = string.punctuation


def tokenize(text: str):
    """Lowercased whitespace tokens with punctuation trimmed from the ends."""
    tokens = []
    for raw in text.lower().split():
        tok = raw.strip(_STRIP_CHARS)
        if tok:
            tokens.append(tok)
    return tokens


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

    def idf(self, term: str) -> float:
        try:
            df = self.doc_frequency[self.terms.index(term)]
        except ValueError:
            df = 0
        return smoothed_idf(self.corpus_size, df)

    def save(self, path):
        persist.write(path, "dict", persist.encode(self))

    @classmethod
    def load(cls, path):
        return persist.read(path, "dict", partial(persist.decode, cls))


@dataclass
class FlatDataset:
    column_names: tuple
    rows: np.ndarray  # m x p, float64
    column_meta: tuple  # per column (descriptor path or "", aggregate kind)
    labels: tuple = None  # optional per-row "normal"/"anomalous"
    row_ids: tuple = None

    @property
    def width(self) -> int:
        return len(self.column_names)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            header = list(self.column_names)
            if self.labels is not None:
                header.append("label")
            writer.writerow(header)
            for i, row in enumerate(self.rows):
                cells = [repr(float(v)) for v in row]
                if self.labels is not None:
                    cells.append(self.labels[i])
                writer.writerow(cells)

    @classmethod
    def from_csv(cls, path) -> "FlatDataset":
        """Read a dataset; an empty, ragged or non-numeric one is corrupt."""
        try:
            with open(path, "r", encoding="utf-8", newline="") as fh:
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
                        labels.append(cells[-1])
                        cells = cells[:-1]
                    rows.append([float(c) for c in cells])
        except ValueError as exc:  # a non-numeric cell or undecodable bytes
            raise CorruptFile(f"{path}: {exc}") from None
        data = (np.array(rows, dtype=float) if rows
                else np.empty((0, len(names))))
        return cls(column_names=names, rows=data,
                   column_meta=tuple(_meta_from_name(n) for n in names),
                   labels=tuple(labels) if has_label else None)


def _meta_from_name(name: str):
    path, _, kind = name.partition("#")
    if path in ("parse_failures", "tfidf"):
        return ("", f"{path}:{kind}" if path == "tfidf" else path)
    return (path, kind)


def _row_tokens(row, schema: SchemaVector) -> Counter:
    counts = Counter()
    for cf, desc in zip(row, schema.descriptors):
        if desc.abstract_type is not AbstractType.STRING:
            continue
        for mv in cf.occurrences:
            if mv.raw_text:
                counts.update(tokenize(mv.raw_text))
    return counts


def build_dictionary(matrix: FeatureMatrix, schema: SchemaVector,
                     k: int = DEFAULT_TFIDF_K) -> TfIdfDictionary:
    """Select the top-k terms by summed TF-IDF over the training corpus."""
    m = len(matrix.rows)
    df = Counter()
    total_tf = Counter()
    for row in matrix.rows:
        counts = _row_tokens(row, schema)
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


# the aggregate columns per abstract type; an enumeration instead gets one
# sum[v] column per literal v
_AGGREGATES = {
    AbstractType.NUMERICAL: ("min", "max", "count"),
    AbstractType.DATE: ("min", "max", "count"),
    AbstractType.STRING: ("min_words", "max_words", "min_chars", "max_chars",
                          "count"),
}


def _aggregates(desc):
    if desc.abstract_type is AbstractType.ENUMERATION:
        return [f"sum[{value}]" for value in desc.enum_values]
    return _AGGREGATES[desc.abstract_type]


def column_plan(schema: SchemaVector, dictionary: TfIdfDictionary):
    """Deterministic column naming for a (schema, dictionary) pair."""
    meta = [(desc.path, kind) for desc in schema.descriptors
            for kind in _aggregates(desc)]
    terms = dictionary.terms
    names = [f"{path}#{kind}" for path, kind in meta]
    names += ["parse_failures#count"] + [f"tfidf#{t}" for t in terms]
    meta += [("", "parse_failures")] + [("", f"tfidf:{t}") for t in terms]
    return tuple(names), tuple(meta)


def expected_width(schema: SchemaVector, k_selected: int) -> int:
    return 1 + k_selected + sum(len(_aggregates(desc))
                                for desc in schema.descriptors)


def flatten_row(row, schema: SchemaVector, dictionary: TfIdfDictionary):
    """Flatten one transaction row into a numeric vector (schema order)."""
    if len(row) != len(schema.descriptors):
        raise SchemaMismatch(
            f"row has {len(row)} complex features, schema defines "
            f"{len(schema.descriptors)}")
    out = []
    failures = 0
    for cf, desc in zip(row, schema.descriptors):
        valid = [mv for mv in cf.occurrences if not mv.failed]
        failures += sum(1 for mv in cf.occurrences if mv.failed)
        at = desc.abstract_type
        if at in (AbstractType.NUMERICAL, AbstractType.DATE):
            vals = [mv.values[0] for mv in valid]
            if vals:
                out.extend((min(vals), max(vals), float(len(cf.occurrences))))
            else:
                out.extend((0.0, 0.0, float(len(cf.occurrences))))
        elif at is AbstractType.ENUMERATION:
            counts = [0.0] * len(desc.enum_values)
            for mv in valid:
                counts[int(mv.values[0])] += 1.0
            out.extend(counts)
        else:
            words = [mv.values[0] for mv in valid]
            chars = [mv.values[1] for mv in valid]
            if valid:
                out.extend((min(words), max(words), min(chars), max(chars),
                            float(len(cf.occurrences))))
            else:
                out.extend((0.0, 0.0, 0.0, 0.0, float(len(cf.occurrences))))
    out.append(float(failures))
    tokens = _row_tokens(row, schema)
    for term in dictionary.terms:
        out.append(tfidf(term, tokens, dictionary))
    return out


def flatten_matrix(matrix: FeatureMatrix, schema: SchemaVector,
                   dictionary: TfIdfDictionary, labels=None) -> FlatDataset:
    names, meta = column_plan(schema, dictionary)
    rows = []
    for rid, row in zip(matrix.row_ids, matrix.rows):
        try:
            rows.append(flatten_row(row, schema, dictionary))
        except SchemaMismatch as exc:
            raise SchemaMismatch(f"row {rid}: {exc}")
    data = np.array(rows, dtype=float) if rows else np.empty((0, len(names)))
    return FlatDataset(column_names=names, rows=data, column_meta=meta,
                       labels=tuple(labels) if labels is not None else None,
                       row_ids=tuple(matrix.row_ids))
