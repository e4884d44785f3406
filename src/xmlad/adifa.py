"""Multi-univariate anomaly detector built from per-attribute Gaussian KDEs.

Each attribute gets a kernel density model whose bandwidth is the population
standard deviation of its training column.  Per-attribute likelihoods are
combined through an entropy-weighted mean (arithmetic, geometric or
harmonic); the distribution of the resulting training scores is itself
modeled with a univariate KDE, whose value at a test score drives the
normal/anomalous decision and is also what gets calibrated into [0, 1].

Every kernel density (per-attribute, leave-one-out and meta) comes from one
routine, `_kernel_sums`, which sums each column's kernels over its distinct
training values, weighted by their counts, in fixed-size blocks: memory is
O(block), not O(m^2), and `train`, `score_batch` and `classify` share its
arithmetic bit for bit.  A leave-one-out sum counts the row's own value
once less, so it is exact even for an isolated training point.
"""

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, TooFewRows, check_finite
from .persist import Vector

PSI_TAGS = ("am", "gm", "hm")

_DISTINCT_BIN_LIMIT = 32
_SIGMA_FLOOR_SCALE = 1e-9
_HM_TERM_FLOOR = 1e-300
_BLOCK_CELLS = 1 << 14  # kernel cells per block: 128 KB of float64


def _sigma_floor(sigma: float, mean: float) -> float:
    return max(sigma, _SIGMA_FLOOR_SCALE * max(1.0, abs(mean)))


def attribute_entropy(column, counts=None) -> float:
    """Shannon entropy (bits) of a column's empirical distribution.

    Columns with few distinct values are binned on those values, whose
    counts the caller may pass; wider columns use equal-width Sturges
    binning.
    """
    vals = np.asarray(column, dtype=float)
    m = len(vals)
    if counts is None:
        counts = np.unique(vals, return_counts=True)[1]
    if len(counts) > _DISTINCT_BIN_LIMIT:
        n_bins = math.ceil(1 + math.log2(m))
        counts, _ = np.histogram(vals, bins=n_bins)
        counts = counts[counts > 0]
    p = counts / m
    return float(-(p * np.log2(p)).sum())


def compute_weights(entropies) -> list:
    """Entropy-based attribute weights: low entropy earns high weight."""
    h = [float(v) for v in entropies]
    n = len(h)
    if n == 1:
        return [1.0]
    total = sum(h)
    if total <= 0.0:
        return [1.0] * n
    return [1.0 - v / total for v in h]


@dataclass
class AttributeModel:
    values: Vector  # sorted training column
    sigma: float
    tau: float
    norm: float
    weight: float
    entropy: float


class _Group(NamedTuple):
    """Whole columns whose distinct values `_kernel_sums` reads together."""

    cols: slice
    s0: int  # where the group starts in the table's values
    lens: np.ndarray  # distinct values per column
    starts: np.ndarray  # where each column starts in the group
    values: np.ndarray  # each column's distinct values, in order
    neg: np.ndarray  # -tau of each value's column
    counts: np.ndarray | None  # of each value; None where all are 1
    rows: int  # point rows per block


class _KernelTable:
    """Sorted columns as `_kernel_sums` reads them: each column's distinct
    values laid end to end, with their counts and the column's -tau, in
    fixed groups of whole columns holding at most _BLOCK_CELLS distinct
    values (or one column that alone holds more)."""

    def __init__(self, columns, taus):
        # where each run of equal values starts in its sorted column
        firsts = [np.flatnonzero(np.concatenate(([True], c[1:] != c[:-1])))
                  for c in columns]
        lens = np.array([len(f) for f in firsts])
        self.offsets = np.concatenate([[0], np.cumsum(lens)])
        values = np.concatenate([c[f] for c, f in zip(columns, firsts)])
        counts = np.concatenate([np.diff(f, append=len(c))
                                 for c, f in zip(columns, firsts)])
        neg = np.repeat(-np.asarray(taus, dtype=float), lens)
        self.groups, c0 = [], 0
        for c in range(1, len(lens) + 1):
            s0, s1 = self.offsets[c0], self.offsets[c]
            if c < len(lens) and self.offsets[c + 1] - s0 <= _BLOCK_CELLS:
                continue  # column c still fits in this group
            group_counts = counts[s0:s1].astype(float)
            self.groups.append(_Group(
                slice(c0, c), s0, lens[c0:c], self.offsets[c0:c] - s0,
                values[s0:s1], neg[s0:s1],
                None if (group_counts == 1.0).all() else group_counts,
                max(1, _BLOCK_CELLS // (s1 - s0))))
            c0 = c


@dataclass
class AdifaModel:
    """A trained model.  Its kernel tables, which `_score` reads, are built
    once at construction and loading; they are not fields, so they are not
    persisted.  Nothing in the package changes a model after it is built,
    so they never go stale."""

    attributes: list[AttributeModel]
    psi: str  # one of PSI_TAGS
    training_scores: Vector
    meta_sigma: float
    meta_tau: float
    meta_norm: float
    calibration_max: float
    threshold: float
    column_names: tuple

    def __post_init__(self):
        shape = self.training_scores.shape
        if ({am.values.shape for am in self.attributes} != {shape}
                or not self.training_scores.size):
            raise ValueError("attribute values and training scores must be"
                             " non-empty columns of one length")
        self._norms, self._weights = np.array(
            [(am.norm, am.weight) for am in self.attributes]).T
        self._kernels = _KernelTable([am.values for am in self.attributes],
                                     [am.tau for am in self.attributes])
        self._meta = _KernelTable([np.sort(self.training_scores)],
                                  [self.meta_tau])

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)


@dataclass
class DetectionResult:
    score: float
    likelihood: float
    label: str
    per_attribute: tuple  # (column_name, d_j) sorted ascending by d_j


def _fit_kernel(values: np.ndarray):
    sigma = _sigma_floor(float(values.std()), float(values.mean()))
    tau = 1.0 / (2.0 * sigma * sigma)
    norm = 1.0 / math.sqrt(2.0 * math.pi * sigma * sigma)
    return sigma, tau, norm


def _kernel_sums(table: _KernelTable, points, own=None) -> np.ndarray:
    """Gaussian kernel sums: out[i, j] = sum over the distinct values v of
    column j of count(v) exp(-tau_j (points[i, j] - v)^2), for points (t, n).
    With `own` (t, n), indices into the table's values, the value own[i, j]
    counts once less: the leave-one-out sum, with no exp(0) to cancel.

    A block is several point rows of one column group, each point repeated
    over its column's distinct values.  Memory is O(block) beyond the
    output, and each sum runs over its column's values in order, whatever
    the number of rows.
    """
    out = np.empty(points.shape)
    work = np.empty(max(min(g.rows, len(points)) * len(g.values)
                        for g in table.groups))
    for g in table.groups:
        for lo in range(0, len(points), g.rows):
            block = slice(lo, lo + g.rows)
            diff = np.repeat(points[block, g.cols], g.lens, axis=1)
            diff -= g.values
            # (-tau d) d, as in the per-centre formula, in the one buffer
            k = np.multiply(g.neg, diff,
                            out=work[:diff.size].reshape(diff.shape))
            k *= diff
            np.exp(k, out=k)
            if g.counts is not None:
                k *= g.counts
            if own is not None:  # exp(0) = 1 at the row's own value
                at = own[block, g.cols] - g.s0
                k[np.arange(len(k))[:, None], at] = (
                    0.0 if g.counts is None else g.counts[at] - 1.0)
            np.add.reduceat(k, g.starts, axis=1, out=out[block, g.cols])
    return out


def attribute_likelihood(model: AttributeModel, x: float) -> float:
    """Average Gaussian kernel mass the training column places at x."""
    table = _KernelTable([model.values], [model.tau])
    return float(model.norm * (_kernel_sums(
        table, np.array([[x]], dtype=float))[0, 0] / len(model.values)))


def _aggregate(weighted: np.ndarray, psi: str) -> np.ndarray:
    """Apply the mean tagged by psi along the last axis.

    Any zero term collapses the geometric and harmonic means to zero
    (limit convention); the geometric mean otherwise runs in log space.
    """
    if psi == "am":
        return weighted.mean(axis=-1)
    has_zero = (weighted <= 0.0).any(axis=-1)
    if psi == "gm":
        # exact down to subnormal terms; a zero term's -inf is masked below
        with np.errstate(divide="ignore"):
            out = np.exp(np.log(weighted).mean(axis=-1))
    elif psi == "hm":
        with np.errstate(divide="ignore"):
            out = weighted.shape[-1] / (1.0 / np.maximum(
                weighted, _HM_TERM_FLOOR)).sum(axis=-1)
    else:
        raise ValueError(f"unknown aggregation tag {psi!r}")
    return np.where(has_zero, 0.0, out)


def train(dataset, psi: str = "gm", threshold: float = 0.5) -> AdifaModel:
    """Fit the full model: attribute KDEs, entropy weights, leave-one-out
    training scores, and the meta KDE over those scores."""
    if psi not in PSI_TAGS:
        raise ValueError(f"psi must be one of {PSI_TAGS}")
    X = np.asarray(dataset.rows, dtype=float)
    m, n = X.shape
    if m < 2:
        raise TooFewRows(f"need at least 2 rows, got {m}")
    check_finite(X)

    sigmas, taus, norms = np.array([_fit_kernel(c) for c in X.T]).T
    # each cell's index among its column's distinct values, and their counts
    distinct = [np.unique(c, return_inverse=True, return_counts=True)[1:]
                for c in X.T]
    entropies = [attribute_entropy(c, counts)
                 for c, (_, counts) in zip(X.T, distinct)]
    weights = np.array(compute_weights(entropies))

    columns = [np.sort(c) for c in X.T]
    kernels = _KernelTable(columns, taus)
    own = kernels.offsets[:-1] + np.column_stack([i for i, _ in distinct])
    loo = norms * _kernel_sums(kernels, X, own) / (m - 1)
    scores = _aggregate(weights * loo, psi)

    meta_sigma, meta_tau, meta_norm = _fit_kernel(scores)
    own = np.unique(scores, return_inverse=True)[1]
    loo_meta = meta_norm * _kernel_sums(
        _KernelTable([np.sort(scores)], [meta_tau]), scores[:, None],
        own[:, None])[:, 0] / (m - 1)

    attributes = [
        AttributeModel(values=columns[j], sigma=float(sigmas[j]),
                       tau=float(taus[j]), norm=float(norms[j]),
                       weight=float(weights[j]), entropy=float(entropies[j]))
        for j in range(n)
    ]
    return AdifaModel(attributes=attributes, psi=psi, training_scores=scores,
                      meta_sigma=float(meta_sigma), meta_tau=float(meta_tau),
                      meta_norm=float(meta_norm),
                      calibration_max=float(loo_meta.max()),
                      threshold=float(threshold),
                      column_names=tuple(dataset.column_names))


def _score(model: AdifaModel, X: np.ndarray):
    """Per-attribute likelihoods (t, n), scores, likelihoods and meta
    densities of the rows of X."""
    if X.ndim != 2 or X.shape[1] != model.n_attributes:
        raise DimensionMismatch(
            f"expected shape (*, {model.n_attributes}), got {X.shape}")
    check_finite(X)
    m = len(model.training_scores)
    d = model._norms * (_kernel_sums(model._kernels, X) / m)
    scores = _aggregate(model._weights * d, model.psi)
    densities = model.meta_norm * (_kernel_sums(
        model._meta, scores[:, None])[:, 0] / m)
    likelihoods = np.minimum(1.0, densities / model.calibration_max)
    return d, scores, likelihoods, densities


def classify(model: AdifaModel, x) -> DetectionResult:
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n_attributes,):
        raise DimensionMismatch(
            f"expected {model.n_attributes} values, got {x.shape}")
    d, scores, likelihoods, _ = _score(model, x[None, :])
    likelihood = float(likelihoods[0])
    label = "anomalous" if likelihood < model.threshold else "normal"
    per_attribute = tuple((model.column_names[j], float(d[0, j]))
                          for j in np.argsort(d[0], kind="stable"))
    return DetectionResult(score=float(scores[0]), likelihood=likelihood,
                           label=label, per_attribute=per_attribute)


def localize(result: DetectionResult, top_k: int):
    """First top_k columns of the ascending per-attribute likelihood list."""
    return list(result.per_attribute[:max(0, top_k)])


def score_batch(model: AdifaModel, X):
    """Vectorized scores/likelihoods/densities for a matrix of instances."""
    _, scores, likelihoods, densities = _score(
        model, np.asarray(X, dtype=float))
    return scores, likelihoods, densities
