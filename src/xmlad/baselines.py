"""One-class baselines: peer group analysis, global density estimation, and
a one-class adaptation of the local outlier factor.

All three rank rows by Euclidean distances in the flattened feature space,
z-scored per column on the training rows, and share the train/scores shape
the evaluation harness expects; each model's label rule lives in the
`model_io` table.  They share one preparation too, split so that one
training set serves all three: `fit_space` puts the training rows in model
space with their distances to each other, each `*_fit` fits a model from
that space, `query_distances` maps query rows into it, and each `*_rank`
scores from those distances.  `*_train` and `*_scores` compose the steps.
Both distance steps raise NonFiniteData on a non-finite cell and return
read-only matrices, so a step that writes into a shared matrix raises.
"""

import math
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, TooFewRows, check_finite
from .persist import Matrix, Vector

_EPS = 1e-9


@dataclass(frozen=True)
class Space:
    """Training rows in model space, with their z-score parameters and their
    read-only distances to each other, each row's distance to itself inf."""
    training_points: Matrix
    mu: Vector
    sd: Vector
    distances: Matrix


def fit_space(dataset) -> Space:
    X = np.asarray(dataset.rows, dtype=float)
    if len(X) < 2:  # every baseline needs a neighbour per training row
        raise TooFewRows(f"need at least 2 rows, got {len(X)}")
    check_finite(X)
    mu = X.mean(axis=0)
    sd = np.maximum(X.std(axis=0), _EPS)
    X = (X - mu) / sd
    D = _pairwise_distances(X, X)
    np.fill_diagonal(D, np.inf)
    D.flags.writeable = False
    return Space(training_points=X, mu=mu, sd=sd, distances=D)


def _pairwise_distances(A: np.ndarray, B: np.ndarray) -> np.ndarray:
    """sqrt(max(|a|^2 + |b|^2 - 2 a.b, 0)), in that order of operations,
    in place: the result and one product matrix are the only m x n arrays."""
    aa = (A * A).sum(axis=1)[:, None]
    bb = (B * B).sum(axis=1)[None, :]
    D = aa + bb
    G = A @ B.T
    G *= 2.0
    D -= G
    np.maximum(D, 0.0, out=D)
    return np.sqrt(D, out=D)


def query_distances(model, X) -> np.ndarray:
    """Read-only distances of query rows, in model space, to the training
    points of a model or a `Space`."""
    X = np.asarray(X, dtype=float)
    width = model.training_points.shape[1]
    if X.ndim != 2 or X.shape[1] != width:
        raise DimensionMismatch(f"expected shape (*, {width}), got {X.shape}")
    check_finite(X)
    X = (X - model.mu) / model.sd
    D = _pairwise_distances(X, model.training_points)
    D.flags.writeable = False
    return D


def _kth_smallest(D: np.ndarray, k: int) -> np.ndarray:
    if k == 1:  # the minimum, without partitioning a copy of D
        return D.min(axis=1)
    return np.partition(D, k - 1, axis=1)[:, k - 1]


def _nearest(D: np.ndarray, k: int) -> np.ndarray:
    """Column indices of each row's k smallest distances, ties by index:
    the first k of a stable argsort.  One partition at k selects them and
    only they are sorted; a row whose k-th distance (their last) ties the
    (k+1)-th, where the partition's choice is arbitrary, is sorted whole."""
    if k >= D.shape[1]:
        return np.argsort(D, axis=1, kind="stable")[:, :k]
    part = np.argpartition(D, k, axis=1)
    near = np.sort(part[:, :k], axis=1)
    dists = np.take_along_axis(D, near, axis=1)
    order = np.argsort(dists, axis=1, kind="stable")
    near = np.take_along_axis(near, order, axis=1)
    kth = np.take_along_axis(dists, order[:, -1:], axis=1)[:, 0]
    tied = np.flatnonzero(kth == D[np.arange(len(D)), part[:, k]])
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


def pga_fit(space: Space, alpha: float = 0.1, k: int = 1) -> PgaModel:
    if k < 1 or not 0.0 <= alpha <= 1.0:
        raise ValueError(f"need k >= 1 and alpha in [0, 1], got {k}, {alpha}")
    m = len(space.training_points)
    if m < 2 or k >= m:
        raise TooFewRows(f"need more than {k} rows, got {m}")
    nn = _kth_smallest(space.distances, k)
    # nearest-rank (1 - alpha) quantile of the training nn distances
    idx = max(0, math.ceil((1.0 - alpha) * m) - 1)
    cutoff = float(np.sort(nn)[idx])
    return PgaModel(training_points=space.training_points, nn_distances=nn,
                    alpha=alpha, k=k, cutoff=cutoff, mu=space.mu, sd=space.sd)


def pga_rank(model: PgaModel, D: np.ndarray) -> np.ndarray:
    """k-th nearest-neighbor distance per instance; larger = more anomalous."""
    return _kth_smallest(D, model.k)


def pga_train(dataset, alpha: float = 0.1, k: int = 1) -> PgaModel:
    return pga_fit(fit_space(dataset), alpha=alpha, k=k)


def pga_scores(model: PgaModel, X) -> np.ndarray:
    return pga_rank(model, query_distances(model, X))


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


def gde_fit(space: Space, sign_mode: str = "corrected") -> GdeModel:
    if sign_mode not in ("corrected", "literal"):
        raise ValueError(f"unknown sign mode {sign_mode!r}")
    m = len(space.training_points)
    if m < 2:
        raise TooFewRows(f"need at least 2 rows, got {m}")
    D = space.distances  # self excluded from training counts
    radius = max(2.0 * float(_kth_smallest(D, 1).mean()), _EPS)
    counts = (D <= radius).sum(axis=1).astype(float)
    mean_n = float(counts.mean())
    std_n = float(counts.std()) or 1.0  # equal counts: a spread of one
    return GdeModel(training_points=space.training_points, radius=radius,
                    mean_neighbors=mean_n, std_neighbors=std_n,
                    sign_mode=sign_mode, mu=space.mu, sd=space.sd)


def gde_rank(model: GdeModel, D: np.ndarray) -> np.ndarray:
    """Exponential neighbor-count score; larger = more normal in corrected
    mode, the opposite in literal mode.  It may be inf."""
    counts = (D <= model.radius).sum(axis=1).astype(float)
    z = (counts - model.mean_neighbors) / model.std_neighbors
    # a count some 710 spreads from the mean overflows exp: the score is inf
    with np.errstate(over="ignore"):
        return np.exp(z if model.sign_mode == "corrected" else -z)


def gde_train(dataset, sign_mode: str = "corrected") -> GdeModel:
    return gde_fit(fit_space(dataset), sign_mode=sign_mode)


def gde_scores(model: GdeModel, X) -> np.ndarray:
    return gde_rank(model, query_distances(model, X))


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


def lof_fit(space: Space, min_pts: int = 10) -> LofModel:
    if min_pts < 1:
        raise ValueError(f"need min_pts >= 1, got {min_pts}")
    m = len(space.training_points)
    if m <= min_pts:
        raise TooFewRows(f"need more than min_pts={min_pts} rows, got {m}")
    D = space.distances
    neighbors = _nearest(D, min_pts)
    kdist = np.take_along_axis(D, neighbors[:, -1:], axis=1)[:, 0]
    reach = np.maximum(kdist[neighbors],
                       np.take_along_axis(D, neighbors, axis=1))
    lrd = 1.0 / np.maximum(reach.mean(axis=1), _EPS)
    lof = lrd[neighbors].mean(axis=1) / lrd
    return LofModel(training_points=space.training_points, min_pts=min_pts,
                    k_distances=kdist, lrd=lrd, training_lof=lof,
                    lof_max=float(lof.max()), mu=space.mu, sd=space.sd)


def lof_rank(model: LofModel, D: np.ndarray) -> np.ndarray:
    """Local outlier factor per instance; larger = more anomalous."""
    neighbors = _nearest(D, model.min_pts)
    dists = np.take_along_axis(D, neighbors, axis=1)
    reach = np.maximum(model.k_distances[neighbors], dists)
    lrd_x = 1.0 / np.maximum(reach.mean(axis=1), _EPS)
    return model.lrd[neighbors].mean(axis=1) / lrd_x


def lof_train(dataset, min_pts: int = 10) -> LofModel:
    return lof_fit(fit_space(dataset), min_pts=min_pts)


def lof_scores(model: LofModel, X) -> np.ndarray:
    return lof_rank(model, query_distances(model, X))
