"""Multi-univariate anomaly detector built from per-attribute Gaussian KDEs.

Each attribute gets a kernel density model whose bandwidth is the population
standard deviation of its training column.  Per-attribute likelihoods are
combined through an entropy-weighted mean (arithmetic, geometric or
harmonic); the distribution of the resulting training scores is itself
modeled with a univariate KDE, whose value at a test score drives the
normal/anomalous decision and is also what gets calibrated into [0, 1].

Every kernel density (per-attribute, leave-one-out and meta) comes from one
routine, `_kernel_sums`, which walks the kernel cells in fixed-size blocks:
memory is O(block), not O(m^2), and `train`, `score_batch` and `classify`
share its arithmetic bit for bit.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, TooFewRows, check_finite

PSI_TAGS = ("am", "gm", "hm")

_DISTINCT_BIN_LIMIT = 32
_SIGMA_FLOOR_SCALE = 1e-9
_HM_TERM_FLOOR = 1e-300
_BLOCK_CELLS = 1 << 14  # kernel cells per block: 128 KB of float64


def _sigma_floor(sigma: float, mean: float) -> float:
    return max(sigma, _SIGMA_FLOOR_SCALE * max(1.0, abs(mean)))


def attribute_entropy(column) -> float:
    """Shannon entropy (bits) of a column's empirical distribution.

    Columns with few distinct values are binned on those values; wider
    columns use equal-width Sturges binning.
    """
    vals = np.asarray(column, dtype=float)
    m = len(vals)
    uniq, counts = np.unique(vals, return_counts=True)
    if len(uniq) > _DISTINCT_BIN_LIMIT:
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
    values: np.ndarray  # sorted training column
    sigma: float
    tau: float
    norm: float
    weight: float
    entropy: float


@dataclass
class AdifaModel:
    """A trained model.  Its kernel arrays, which `_score` reads, are
    stacked once at construction and loading; they are not fields, so they
    are not persisted.  Nothing in the package changes a model after it is
    built, so they never go stale."""

    attributes: list[AttributeModel]
    psi: str  # one of PSI_TAGS
    training_scores: np.ndarray
    meta_sigma: float
    meta_tau: float
    meta_norm: float
    calibration_max: float
    threshold: float
    column_names: tuple

    def __post_init__(self):
        self._centers = np.stack([am.values for am in self.attributes])
        self._taus, self._norms, self._weights = np.array(
            [(am.tau, am.norm, am.weight) for am in self.attributes]).T

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


def _kernel_sums(centers, taus, points) -> np.ndarray:
    """Gaussian kernel sums: out[i, j] = sum_k exp(-taus[j] (points[i, j] -
    centers[j, k])^2) for centers (n, u), taus (n,) and points (t, n).

    The (t, n, u) kernel cells go in blocks of about _BLOCK_CELLS: several
    point rows at a time, or one row in groups of columns.  Memory is O(block)
    beyond the output, and each sum runs over its centre row in order.
    """
    centers = np.ascontiguousarray(centers)  # row reads, not strided ones
    neg = -np.asarray(taus, dtype=float)[:, None]
    out = np.empty(points.shape)
    n, u = centers.shape
    rows = max(1, _BLOCK_CELLS // (n * u))
    cols = min(n, max(1, _BLOCK_CELLS // u))
    for lo in range(0, len(points), rows):
        for c in range(0, n, cols):
            # C order whatever the inputs' layout, so that exp and the sum
            # take the same contiguous path for every caller
            diff = np.subtract(points[lo:lo + rows, c:c + cols, None],
                               centers[c:c + cols], order="C")
            k = neg[c:c + cols] * diff
            k *= diff
            np.exp(k, out=k)
            k.sum(axis=-1, out=out[lo:lo + rows, c:c + cols])
    return out


def attribute_likelihood(model: AttributeModel, x: float) -> float:
    """Average Gaussian kernel mass the training column places at x."""
    return float(model.norm * (_kernel_sums(
        model.values[None, :], [model.tau], np.array([[x]], dtype=float))[0, 0]
        / len(model.values)))


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
    entropies = [attribute_entropy(c) for c in X.T]
    weights = np.array(compute_weights(entropies))

    # leave-one-out: every point is also a centre, whose kernel adds exp(0)
    loo = norms * (_kernel_sums(X.T, taus, X) - 1.0) / (m - 1)
    scores = _aggregate(weights * loo, psi)

    meta_sigma, meta_tau, meta_norm = _fit_kernel(scores)
    loo_meta = meta_norm * (_kernel_sums(
        scores[None, :], [meta_tau], scores[:, None])[:, 0] - 1.0) / (m - 1)

    attributes = [
        AttributeModel(values=np.sort(X[:, j]), sigma=float(sigmas[j]),
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
    centers = model._centers
    d = model._norms * (_kernel_sums(centers, model._taus, X)
                        / centers.shape[1])
    scores = _aggregate(model._weights * d, model.psi)
    s = model.training_scores
    densities = model.meta_norm * (_kernel_sums(
        s[None, :], [model.meta_tau], scores[:, None])[:, 0] / len(s))
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
