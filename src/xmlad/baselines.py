"""One-class baselines: peer group analysis, global density estimation, and
a one-class adaptation of the local outlier factor.

All three rank rows by Euclidean distances in the flattened feature space,
z-scored per column on the training rows, and share the train/scores shape
the evaluation harness expects; each model's label rule lives in the
`model_io` table.  They share one preparation too: `_fit_space` puts the
training rows in model space and `_distances` maps query rows into it, and
both raise NonFiniteData on a non-finite cell.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, TooFewRows, check_finite
from .persist import Matrix, Vector

_EPS = 1e-9


def _fit_space(dataset):
    """Training rows in model space, with their z-score parameters."""
    X = np.asarray(dataset.rows, dtype=float)
    check_finite(X)
    mu = X.mean(axis=0)
    sd = np.maximum(X.std(axis=0), _EPS)
    return (X - mu) / sd, mu, sd


def _pairwise_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    aa = (A * A).sum(axis=1)[:, None]
    bb = (B * B).sum(axis=1)[None, :]
    sq = np.maximum(aa + bb - 2.0 * (A @ B.T), 0.0)
    return np.sqrt(sq)


def _distances(model, X) -> np.ndarray:
    """Distances of query rows, in model space, to the training points."""
    X = np.asarray(X, dtype=float)
    width = model.training_points.shape[1]
    if X.ndim != 2 or X.shape[1] != width:
        raise DimensionMismatch(f"expected shape (*, {width}), got {X.shape}")
    check_finite(X)
    X = (X - model.mu) / model.sd
    return _pairwise_distances(X, model.training_points)


def _self_distances(X: np.ndarray) -> np.ndarray:
    """Training distances with each point's distance to itself set to inf."""
    D = _pairwise_distances(X, X)
    np.fill_diagonal(D, np.inf)
    return D


def _kth_smallest(D: np.ndarray, k: int) -> np.ndarray:
    return np.partition(D, k - 1, axis=1)[:, k - 1]


def _nearest(D: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k smallest distances, ties by index:
    the first k of a stable argsort.  A partition selects them and only
    they are sorted; a row whose k-th distance ties its (k+1)-th, where
    the partition's choice among the tied is arbitrary, is sorted whole."""
    if k >= D.shape[1]:
        return np.argsort(D, axis=1, kind="stable")[:, :k]
    part = np.argpartition(D, (k - 1, k), axis=1)
    near = np.sort(part[:, :k], axis=1)
    order = np.argsort(np.take_along_axis(D, near, axis=1), axis=1,
                       kind="stable")
    near = np.take_along_axis(near, order, axis=1)
    edge = np.take_along_axis(D, part[:, k - 1:k + 1], axis=1)
    tied = np.flatnonzero(edge[:, 0] == edge[:, 1])
    near[tied] = np.argsort(D[tied], axis=1, kind="stable")[:, :k]
    return near


# ---------------------------------------------------------------------------
# Peer group analysis
# ---------------------------------------------------------------------------

@dataclass
class PgaModel:
    training_points: Matrix
    nn_distances: Vector
    alpha: float
    k: int
    cutoff: float
    mu: Vector
    sd: Vector


def pga_train(dataset, alpha: float = 0.1, k: int = 1) -> PgaModel:
    if k < 1 or not 0.0 <= alpha <= 1.0:
        raise ValueError(f"need k >= 1 and alpha in [0, 1], got {k}, {alpha}")
    m = len(dataset.rows)
    if m < 2 or k >= m:
        raise TooFewRows(f"need more than {k} rows, got {m}")
    X, mu, sd = _fit_space(dataset)
    nn = _kth_smallest(_self_distances(X), k)
    # nearest-rank (1 - alpha) quantile of the training nn distances
    idx = max(0, math.ceil((1.0 - alpha) * m) - 1)
    cutoff = float(np.sort(nn)[idx])
    return PgaModel(training_points=X, nn_distances=nn, alpha=alpha, k=k,
                    cutoff=cutoff, mu=mu, sd=sd)


def pga_scores(model: PgaModel, X) -> np.ndarray:
    """k-th nearest-neighbor distance per instance; larger = more anomalous."""
    return _kth_smallest(_distances(model, X), model.k)


# ---------------------------------------------------------------------------
# Global density estimation
# ---------------------------------------------------------------------------

@dataclass
class GdeModel:
    training_points: Matrix
    radius: float
    mean_neighbors: float
    std_neighbors: float
    sign_mode: str  # "corrected" or "literal"
    mu: Vector
    sd: Vector


def gde_train(dataset, sign_mode: str = "corrected") -> GdeModel:
    if sign_mode not in ("corrected", "literal"):
        raise ValueError(f"unknown sign mode {sign_mode!r}")
    m = len(dataset.rows)
    if m < 2:
        raise TooFewRows(f"need at least 2 rows, got {m}")
    X, mu, sd = _fit_space(dataset)
    D = _self_distances(X)  # self excluded from training counts
    radius = max(2.0 * float(_kth_smallest(D, 1).mean()), _EPS)
    counts = (D <= radius).sum(axis=1).astype(float)
    mean_n = float(counts.mean())
    std_n = float(counts.std()) or 1.0  # equal counts: a spread of one
    return GdeModel(training_points=X, radius=radius, mean_neighbors=mean_n,
                    std_neighbors=std_n, sign_mode=sign_mode, mu=mu, sd=sd)


def gde_scores(model: GdeModel, X) -> np.ndarray:
    """Exponential neighbor-count score; larger = more normal in corrected
    mode, the opposite in literal mode.  It may be inf."""
    counts = (_distances(model, X) <= model.radius).sum(axis=1).astype(float)
    z = (counts - model.mean_neighbors) / model.std_neighbors
    # a count some 710 spreads from the mean overflows exp: the score is inf
    with np.errstate(over="ignore"):
        return np.exp(z if model.sign_mode == "corrected" else -z)


# ---------------------------------------------------------------------------
# One-class local outlier factor
# ---------------------------------------------------------------------------

@dataclass
class LofModel:
    training_points: Matrix
    min_pts: int
    k_distances: Vector
    lrd: Vector
    training_lof: Vector
    lof_max: float
    mu: Vector
    sd: Vector


def lof_train(dataset, min_pts: int = 10) -> LofModel:
    if min_pts < 1:
        raise ValueError(f"need min_pts >= 1, got {min_pts}")
    m = len(dataset.rows)
    if m <= min_pts:
        raise TooFewRows(f"need more than min_pts={min_pts} rows, got {m}")
    X, mu, sd = _fit_space(dataset)
    D = _self_distances(X)
    neighbors = _nearest(D, min_pts)
    kdist = np.take_along_axis(D, neighbors[:, -1:], axis=1)[:, 0]
    reach = np.maximum(kdist[neighbors],
                       np.take_along_axis(D, neighbors, axis=1))
    lrd = 1.0 / np.maximum(reach.mean(axis=1), _EPS)
    lof = lrd[neighbors].mean(axis=1) / lrd
    return LofModel(training_points=X, min_pts=min_pts, k_distances=kdist,
                    lrd=lrd, training_lof=lof, lof_max=float(lof.max()),
                    mu=mu, sd=sd)


def lof_scores(model: LofModel, X) -> np.ndarray:
    """Local outlier factor per instance; larger = more anomalous."""
    D = _distances(model, X)
    neighbors = _nearest(D, model.min_pts)
    dists = np.take_along_axis(D, neighbors, axis=1)
    reach = np.maximum(model.k_distances[neighbors], dists)
    lrd_x = 1.0 / np.maximum(reach.mean(axis=1), _EPS)
    return model.lrd[neighbors].mean(axis=1) / lrd_x
