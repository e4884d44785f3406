import math
import random
from dataclasses import replace
from functools import partial

import numpy as np
import pytest

from conftest import make_dataset, score_and_label
from xmlad import baselines, persist
from xmlad.baselines import (gde_scores, gde_train, lof_scores, lof_train,
                             pga_scores, pga_train)
from xmlad.errors import TooFewRows


def _column(values):
    return make_dataset([[v] for v in values])


# -- PGA -------------------------------------------------------------------

def test_pga_hand_example():
    model = pga_train(_column([0.0, 1.0, 2.0]), alpha=0.1)
    assert list(model.nn_distances) == [1.0, 1.0, 1.0]
    assert model.cutoff == 1.0
    score, label = score_and_label("pga", model, [5.0])
    assert score == 3.0
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
    model = gde_train(_column([0.0, 1.0, 2.0, 10.0]))
    assert model.radius == 5.5
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
    # 148 rows have 149 neighbors and two have 148, so the spread is about
    # 0.115 neighbors; a query with no neighbors lies ~1,300 spreads below
    # the mean and its literal-mode score exp(-z) overflows
    X = np.eye(150)
    X[0] = -2.0 * X[1]
    model = gde_train(make_dataset(X), sign_mode="literal")
    assert model.std_neighbors == pytest.approx(0.115, abs=1e-3)
    query = np.zeros((1, 150))
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
    ref = _brute_lof(grid, 2, grid[2:8])
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
            D = baselines._self_distances(points)
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


# -- standardization -------------------------------------------------------

@pytest.mark.parametrize("train,scores", [
    (partial(pga_train, alpha=0.2), pga_scores),
    (gde_train, gde_scores),
    (partial(lof_train, min_pts=5), lof_scores),
], ids=["pga", "gde", "lof"])
def test_standardize_equivalent_to_prescaled_input(train, scores):
    rng = random.Random("std")
    rows = [[rng.gauss(0, 1), rng.gauss(0, 1000)] for _ in range(25)]
    ds = make_dataset(rows)
    scaled = train(ds, standardize=True)
    assert scaled.mu is not None and scaled.sd is not None
    Z = (ds.rows - scaled.mu) / scaled.sd
    plain = train(make_dataset(Z))
    # every fitted field (cutoff, radius, lrd, ...) is the same
    assert persist.dumps("m", plain) == persist.dumps(
        "m", replace(scaled, mu=None, sd=None))
    x = np.array([[5.0, 0.0], [0.5, 800.0], [-0.3, -150.0]])
    assert scores(scaled, x) == pytest.approx(
        scores(plain, (x - scaled.mu) / scaled.sd), rel=1e-12)
