"""Multi-univariate anomaly detector built from per-attribute Gaussian KDEs.

Each attribute gets a kernel density model whose bandwidth is the population
standard deviation of its training column.  Per-attribute likelihoods are
combined through an entropy-weighted mean (arithmetic, geometric or
harmonic); the distribution of the resulting training scores is itself
modeled with a univariate KDE, whose value at a test score drives the
normal/anomalous decision and is also what gets calibrated into [0, 1].
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFiniteData, TooFewRows

PSI_TAGS = ("am", "gm", "hm")

_DISTINCT_BIN_LIMIT = 32
_SIGMA_FLOOR_SCALE = 1e-9
_GM_TERM_FLOOR = 1e-300


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
    attributes: list[AttributeModel]
    psi: str  # one of PSI_TAGS
    training_scores: np.ndarray
    meta_sigma: float
    meta_tau: float
    meta_norm: float
    calibration_max: float
    threshold: float
    column_names: tuple

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


def attribute_likelihood(model: AttributeModel, x: float) -> float:
    """Average Gaussian kernel mass the training column places at x."""
    diffs = model.values - x
    return float(model.norm * np.exp(-model.tau * diffs * diffs).mean())


def _aggregate(weighted: np.ndarray, psi: str) -> np.ndarray:
    """Apply the mean tagged by psi along the last axis.

    Any zero term collapses the geometric and harmonic means to zero
    (limit convention); the geometric mean otherwise runs in log space.
    """
    if psi == "am":
        return weighted.mean(axis=-1)
    has_zero = (weighted <= 0.0).any(axis=-1)
    if psi == "gm":
        logs = np.log(np.maximum(weighted, _GM_TERM_FLOOR))
        out = np.exp(logs.mean(axis=-1))
    elif psi == "hm":
        with np.errstate(divide="ignore"):
            out = weighted.shape[-1] / (1.0 / np.maximum(
                weighted, _GM_TERM_FLOOR)).sum(axis=-1)
    else:
        raise ValueError(f"unknown aggregation tag {psi!r}")
    return np.where(has_zero, 0.0, out)


def _check_finite(X: np.ndarray) -> None:
    # min(1.0, nan) is 1.0: a NaN cell would otherwise pass as normal
    if not np.isfinite(X).all():
        raise NonFiniteData("input contains non-finite cells")


def instance_score(model: AdifaModel, x) -> float:
    """Weighted per-attribute likelihoods folded by the model's mean."""
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n_attributes,):
        raise DimensionMismatch(
            f"expected {model.n_attributes} values, got {x.shape}")
    d = np.array([attribute_likelihood(am, xi)
                  for am, xi in zip(model.attributes, x)])
    weights = np.array([am.weight for am in model.attributes])
    return float(_aggregate(weights * d, model.psi))


def _loo_density_columns(X: np.ndarray, taus, norms) -> np.ndarray:
    """Per-attribute KDE at each training value, that value's kernel left out."""
    m, n = X.shape
    out = np.empty((m, n))
    for j in range(n):
        col = X[:, j]
        diff = col[:, None] - col[None, :]
        k = np.exp(-taus[j] * diff * diff)
        out[:, j] = norms[j] * (k.sum(axis=1) - 1.0) / (m - 1)
    return out


def train(dataset, psi: str = "gm", threshold: float = 0.5) -> AdifaModel:
    """Fit the full model: attribute KDEs, entropy weights, leave-one-out
    training scores, and the meta KDE over those scores."""
    if psi not in PSI_TAGS:
        raise ValueError(f"psi must be one of {PSI_TAGS}")
    X = np.asarray(dataset.rows, dtype=float)
    m, n = X.shape
    if m < 2:
        raise TooFewRows(f"need at least 2 rows, got {m}")
    _check_finite(X)

    sigmas = np.empty(n)
    taus = np.empty(n)
    norms = np.empty(n)
    entropies = np.empty(n)
    for j in range(n):
        sigmas[j], taus[j], norms[j] = _fit_kernel(X[:, j])
        entropies[j] = attribute_entropy(X[:, j])
    weights = np.array(compute_weights(entropies))

    loo = _loo_density_columns(X, taus, norms)
    scores = _aggregate(weights[None, :] * loo, psi)

    meta_sigma, meta_tau, meta_norm = _fit_kernel(scores)
    diff = scores[:, None] - scores[None, :]
    k = np.exp(-meta_tau * diff * diff)
    loo_meta = meta_norm * (k.sum(axis=1) - 1.0) / (m - 1)
    calibration_max = float(loo_meta.max())

    attributes = [
        AttributeModel(values=np.sort(X[:, j]), sigma=float(sigmas[j]),
                       tau=float(taus[j]), norm=float(norms[j]),
                       weight=float(weights[j]), entropy=float(entropies[j]))
        for j in range(n)
    ]
    return AdifaModel(attributes=attributes, psi=psi,
                      training_scores=scores,
                      meta_sigma=float(meta_sigma), meta_tau=float(meta_tau),
                      meta_norm=float(meta_norm),
                      calibration_max=calibration_max,
                      threshold=float(threshold),
                      column_names=tuple(dataset.column_names))


def meta_density(model: AdifaModel, score) -> float:
    s = model.training_scores - score
    return float(model.meta_norm * np.exp(-model.meta_tau * s * s).mean())


def classify(model: AdifaModel, x) -> DetectionResult:
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n_attributes,):
        raise DimensionMismatch(
            f"expected {model.n_attributes} values, got {x.shape}")
    _check_finite(x)
    d = np.array([attribute_likelihood(am, xi)
                  for am, xi in zip(model.attributes, x)])
    weights = np.array([am.weight for am in model.attributes])
    score = float(_aggregate(weights * d, model.psi))
    density = meta_density(model, score)
    likelihood = min(1.0, density / model.calibration_max)
    label = "anomalous" if likelihood < model.threshold else "normal"
    order = sorted(range(len(d)), key=lambda j: (d[j], j))
    per_attribute = tuple((model.column_names[j], float(d[j])) for j in order)
    return DetectionResult(score=score, likelihood=likelihood, label=label,
                           per_attribute=per_attribute)


def localize(result: DetectionResult, top_k: int):
    """First top_k columns of the ascending per-attribute likelihood list."""
    return list(result.per_attribute[:max(0, top_k)])


def score_batch(model: AdifaModel, X):
    """Vectorized scores/likelihoods/densities for a matrix of instances."""
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != model.n_attributes:
        raise DimensionMismatch(
            f"expected shape (*, {model.n_attributes}), got {X.shape}")
    _check_finite(X)
    t = X.shape[0]
    d = np.empty((t, model.n_attributes))
    for j, am in enumerate(model.attributes):
        diff = X[:, j][:, None] - am.values[None, :]
        d[:, j] = am.norm * np.exp(-am.tau * diff * diff).mean(axis=1)
    weights = np.array([am.weight for am in model.attributes])
    scores = _aggregate(weights[None, :] * d, model.psi)
    sdiff = scores[:, None] - model.training_scores[None, :]
    densities = model.meta_norm * np.exp(
        -model.meta_tau * sdiff * sdiff).mean(axis=1)
    likelihoods = np.minimum(1.0, densities / model.calibration_max)
    return scores, likelihoods, densities
