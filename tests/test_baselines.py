import math
import random
import numpy as np
import pytest

from conftest import make_dataset, score_and_label
from xmlad import baselines
from xmlad.baselines import (gde_scores, gde_train, lof_scores, lof_train,
                             pga_scores, pga_train)
from xmlad.errors import TooFewRows
from xmlad.model_io import ALGORITHMS


def _column(values):
    return make_dataset([[v] for v in values])


# -- PGA -------------------------------------------------------------------

def test_pga_hand_example():
    # z-scores of {0, 1, 2} have spread 1: distances scale by 1 / sd
    sd = math.sqrt(2.0 / 3.0)
    model = pga_train(_column([0.0, 1.0, 2.0]), alpha=0.1)
    assert model.nn_distances == pytest.approx([1.0 / sd] * 3, rel=1e-12)
    assert model.cutoff == pytest.approx(1.0 / sd, rel=1e-12)
    score, label = score_and_label("pga", model, [5.0])
    assert score == pytest.approx(3.0 / sd, rel=1e-12)
    assert label == "anomalous"


def test_pga_training_point_is_normal():
    model = pga_train(_column([0.0, 1.0, 2.0]), alpha=0.1)
    score, label = score_and_label("pga", model, [1.0])
    assert score == 0.0
    assert label == "normal"


def test_pga_alpha_one_cutoff_is_min():
    model = pga_train(_column([0.0, 1.0, 2.0, 10.0]), alpha=1.0)
    assert model.cutoff == float(np.min(model.nn_distances))


def test_pga_cutoff_attained():
    rng = random.Random("pga")
    values = [rng.uniform(0, 100) for _ in range(37)]
    model = pga_train(_column(values), alpha=0.1)
    assert model.cutoff in model.nn_distances
    # nearest-rank convention: index ceil(0.9 * m) - 1 of the sorted distances
    assert model.cutoff == float(
        np.sort(model.nn_distances)[math.ceil(0.9 * 37) - 1])


def test_pga_too_few_rows():
    with pytest.raises(TooFewRows):
        pga_train(_column([1.0]))
    with pytest.raises(TooFewRows):
        pga_train(_column([1.0, 2.0]), k=2)


@pytest.mark.parametrize("opts", [{"k": 0}, {"alpha": -0.1}, {"alpha": 1.5}])
def test_pga_rejects_out_of_range_options(opts):
    with pytest.raises(ValueError):
        pga_train(_column([1.0, 2.0, 3.0]), **opts)


# -- GDE -------------------------------------------------------------------

def test_gde_hand_example():
    # the radius is 5.5 / sd in z-space; the neighbor counts do not change
    sd = math.sqrt(15.6875)
    model = gde_train(_column([0.0, 1.0, 2.0, 10.0]))
    assert model.radius == pytest.approx(5.5 / sd, rel=1e-12)
    assert model.mean_neighbors == 1.5
    assert model.std_neighbors == pytest.approx(math.sqrt(0.75))
    score, label = score_and_label("gde", model, [20.0])
    assert score == pytest.approx(math.exp(-1.5 / math.sqrt(0.75)), rel=1e-12)
    assert score == pytest.approx(0.177, abs=1e-3)
    assert label == "anomalous"


def test_gde_hand_example_dense_point():
    model = gde_train(_column([0.0, 1.0, 2.0, 10.0]))
    score, label = score_and_label("gde", model, [1.0])
    assert score == pytest.approx(5.66, abs=1e-2)
    assert label == "normal"


def test_gde_literal_mode_flips_sign():
    corrected = gde_train(_column([0.0, 1.0, 2.0, 10.0]))
    literal = gde_train(_column([0.0, 1.0, 2.0, 10.0]), sign_mode="literal")
    x = np.array([[1.0]])
    assert gde_scores(literal, x)[0] == pytest.approx(
        1.0 / gde_scores(corrected, x)[0], rel=1e-12)


def test_gde_degenerate_training():
    model = gde_train(_column([3.0, 3.0, 3.0]))
    assert model.radius == 1e-9
    _, label = score_and_label("gde", model, [100.0])
    assert label == "anomalous"


def test_gde_equal_neighbor_counts_spread_one():
    # every training row has the same neighbor count: the spread is one
    # neighbor, so scores stay finite and a training point is normal
    model = gde_train(_column([3.0, 3.0, 3.0]))
    assert model.std_neighbors == 1.0
    score, label = score_and_label("gde", model, [3.0])
    assert score == pytest.approx(math.e, rel=1e-12)
    assert label == "normal"
    _, label = score_and_label("gde", model, [100.0])
    assert label == "anomalous"


def test_gde_score_overflow_is_inf():
    # in z-space rows 0 and 1 lie 40.3 apart, beyond the radius of 34.9,
    # and at most 29.5 from the other rows, which lie 17.4 apart (column 1
    # is repeated six times so that it weighs that much); so 148 rows have
    # 149 neighbors and two have 148, and the spread is about 0.115
    # neighbors.  A query with no neighbors lies ~1,300 spreads below the
    # mean and its literal-mode score exp(-z) overflows
    X = np.eye(150)
    X[0] = -2.0 * X[1]
    X = np.hstack([X, np.repeat(X[:, 1:2], 5, axis=1)])
    model = gde_train(make_dataset(X), sign_mode="literal")
    assert model.std_neighbors == pytest.approx(0.115, abs=1e-3)
    query = np.zeros((1, X.shape[1]))
    query[0, 5] = 100.0
    assert gde_scores(model, query)[0] == math.inf


def test_gde_rejects_unknown_mode():
    with pytest.raises(ValueError):
        gde_train(_column([0.0, 1.0]), sign_mode="other")


# -- LOF -------------------------------------------------------------------

def _brute_lof(X, min_pts, queries):
    """Naive LOF oracle with explicit loops (training-set reference)."""
    X = [np.asarray(p, dtype=float) for p in X]
    m = len(X)

    def dist(a, b):
        return float(np.linalg.norm(a - b))

    def neighbors_of(p, exclude=None):
        order = sorted((i for i in range(m) if i != exclude),
                       key=lambda i: (dist(p, X[i]), i))
        return order[:min_pts]

    kdist = [dist(X[i], X[neighbors_of(X[i], exclude=i)[-1]])
             for i in range(m)]

    def lrd_of(p, exclude=None):
        neigh = neighbors_of(p, exclude=exclude)
        reach = [max(kdist[j], dist(p, X[j])) for j in neigh]
        return 1.0 / max(sum(reach) / len(reach), 1e-9)

    lrd = [lrd_of(X[i], exclude=i) for i in range(m)]
    out = []
    for q in queries:
        q = np.asarray(q, dtype=float)
        neigh = neighbors_of(q)
        reach = [max(kdist[j], dist(q, X[j])) for j in neigh]
        lrd_q = 1.0 / max(sum(reach) / len(reach), 1e-9)
        out.append(sum(lrd[j] for j in neigh) / len(neigh) / lrd_q)
    return out


def test_lof_uniform_grid_interior_points():
    grid = [[float(i)] for i in range(10)]
    model = lof_train(make_dataset(grid), min_pts=2)
    interior = np.array(grid[2:8])
    scores = lof_scores(model, interior)
    assert np.all(np.abs(scores - 1.0) < 0.35)
    # a grid point's left and right neighbors tie for its second nearest,
    # and on the z-scored grid rounding breaks the tie: so the oracle reads
    # the same z-scored points
    points = model.training_points
    ref = _brute_lof(points, 2, points[2:8])
    assert scores == pytest.approx(ref, rel=1e-9)


def test_lof_far_point_is_anomalous():
    grid = [[float(i)] for i in range(10)]
    model = lof_train(make_dataset(grid), min_pts=2)
    score, label = score_and_label("lof", model, [100.0])
    assert score > model.lof_max
    assert label == "anomalous"
    assert score == pytest.approx(_brute_lof(grid, 2, [[100.0]])[0], rel=1e-9)


def test_lof_training_point_in_cluster_is_normal():
    rng = random.Random("lof-cluster")
    cluster = [[rng.gauss(0, 1), rng.gauss(0, 1)] for _ in range(30)]
    model = lof_train(make_dataset(cluster), min_pts=5)
    _, label = score_and_label("lof", model, cluster[0])
    assert label == "normal"


@pytest.mark.parametrize("kind", ["duplicate-rows", "integer-distances"])
def test_nearest_matches_stable_argsort_on_ties(kind):
    rng = np.random.default_rng(0)
    for _ in range(40):
        m = int(rng.integers(2, 60))
        if kind == "duplicate-rows":
            points = rng.integers(0, 3, (m, 2)).astype(float)
            D = baselines._pairwise_distances(points, points)
            np.fill_diagonal(D, np.inf)
        else:
            D = rng.integers(0, 4, (int(rng.integers(1, 30)), m)).astype(float)
        for k in range(1, m + 1):
            assert np.array_equal(
                baselines._nearest(D, k),
                np.argsort(D, axis=1, kind="stable")[:, :k])


def test_lof_needs_enough_rows():
    with pytest.raises(TooFewRows):
        lof_train(_column([1.0, 2.0, 3.0]), min_pts=5)


def test_lof_rejects_min_pts_below_one():
    with pytest.raises(ValueError):
        lof_train(_column([1.0, 2.0, 3.0]), min_pts=0)


# -- z-scoring -------------------------------------------------------------

@pytest.mark.parametrize("tag,opts", [
    ("pga", {"alpha": 0.2}),
    ("gde", {}),
    ("gde-literal", {}),
    ("lof", {"min_pts": 5}),
], ids=["pga", "gde", "gde-literal", "lof"])
def test_scores_invariant_to_affine_columns(tag, opts):
    # z-scoring undoes any a * x + b per column (a > 0) on the training
    # and query rows alike
    rng = np.random.default_rng(5)
    spread = np.array([1.0, 1000.0, 0.01])
    rows = rng.normal(size=(40, 3)) * spread
    queries = rng.normal(size=(15, 3)) * spread * 2.0
    a = 10.0 ** rng.uniform(-2.0, 3.0, 3)
    b = rng.uniform(-100.0, 100.0, 3)
    algo = ALGORITHMS[tag]
    results = []
    for f in (lambda x: x, lambda x: a * x + b):
        model = algo.train(make_dataset(f(rows)), **opts)
        scores = algo.scores(model, f(queries))
        results.append((scores, algo.anomalous(model, scores).tolist()))
    (plain, plain_flags), (moved, moved_flags) = results
    assert moved == pytest.approx(plain, rel=1e-9)
    assert moved_flags == plain_flags
    assert 0 < sum(plain_flags) < len(plain_flags)


def test_pga_nn_distances_on_epoch_second_columns():
    # columns near 1.6e9 cancel in |a|^2 + |b|^2 - 2ab unless z-scored
    rng = np.random.default_rng(9)
    rows = np.column_stack([1.6e9 + rng.uniform(0.0, 3.2e7, (50, 2)),
                            rng.normal(size=(50, 3))])
    model = pga_train(make_dataset(rows))
    P = model.training_points
    direct = np.sqrt(((P[:, None, :] - P[None, :, :]) ** 2).sum(axis=-1))
    np.fill_diagonal(direct, np.inf)
    assert model.nn_distances == pytest.approx(direct.min(axis=1),
                                               rel=1e-12)


# -- shared distance steps -------------------------------------------------

def test_pairwise_distances_in_place_match_formula():
    # the in-place steps are the operations of the one-line formula, in its
    # order; duplicate rows make |a|^2 + |b|^2 - 2ab round below zero, where
    # the clamp must give the same zero
    rng = np.random.default_rng(13)
    A = rng.normal(size=(60, 7)) * rng.uniform(0.1, 100.0, 7)
    A[30:] = A[:30]
    B = np.vstack([A[::3], rng.normal(size=(20, 7))])
    clamped = 0
    for P, Q in ((A, A), (A, B), (B, A)):
        aa = (P * P).sum(axis=1)[:, None]
        bb = (Q * Q).sum(axis=1)[None, :]
        raw = aa + bb - 2.0 * (P @ Q.T)
        clamped += int((raw < 0.0).sum())
        D = baselines._pairwise_distances(P, Q)
        assert np.array_equal(D, np.sqrt(np.maximum(raw, 0.0)))
        assert np.array_equal(baselines._kth_smallest(D, 1),
                              np.partition(D, 0, axis=1)[:, 0])
    assert clamped > 0


@pytest.mark.parametrize("tag", ["pga", "gde", "lof"])
def test_no_rows_too_few_before_any_statistic(tag):
    # the column means of no rows would warn (an error in this suite)
    with pytest.raises(TooFewRows):
        ALGORITHMS[tag].train(make_dataset(np.empty((0, 3))))


def test_shared_distance_matrices_are_read_only():
    rng = np.random.default_rng(17)
    space = baselines.fit_space(make_dataset(rng.normal(size=(20, 3))))
    D = baselines.query_distances(space, rng.normal(size=(5, 3)))
    for matrix in (space.distances, D):
        with pytest.raises(ValueError):
            matrix[0, 0] = 0.0
        with pytest.raises(ValueError):
            np.fill_diagonal(matrix, 0.0)


@pytest.mark.parametrize("tag,opts", [
    ("pga", {"alpha": 0.2, "k": 2}),
    ("gde", {}),
    ("gde-literal", {}),
    ("lof", {"min_pts": 5}),
], ids=["pga", "gde", "gde-literal", "lof"])
def test_train_and_scores_compose_the_steps(tag, opts):
    # one space and one query matrix serve every baseline, with the models
    # and scores of the per-algorithm train and scores calls
    rng = np.random.default_rng(19)
    data = make_dataset(rng.normal(size=(40, 4)))
    queries = rng.normal(size=(15, 4))
    space = baselines.fit_space(data)
    D = baselines.query_distances(space, queries)
    algo = ALGORITHMS[tag]
    for other in ("pga", "gde", "gde-literal", "lof"):
        ALGORITHMS[other].rank(ALGORITHMS[other].fit(space), D)
    model = algo.fit(space, **opts)
    alone = algo.train(data, **opts)
    for field in vars(alone):
        assert np.array_equal(getattr(model, field), getattr(alone, field))
    assert np.array_equal(algo.rank(model, D), algo.scores(alone, queries))
