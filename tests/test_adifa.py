import math
import random

import numpy as np
import pytest

import oracle
from conftest import make_dataset
from xmlad import adifa
from xmlad.adifa import (AttributeModel, attribute_entropy,
                         attribute_likelihood, classify, compute_weights,
                         instance_score, localize, meta_density, score_batch,
                         train)
from xmlad.errors import DimensionMismatch, NonFiniteData, TooFewRows


def _attr_model(values, weight=1.0):
    values = np.sort(np.asarray(values, dtype=float))
    sigma, tau, norm = adifa._fit_kernel(values)
    return AttributeModel(values=values, sigma=sigma, tau=tau, norm=norm,
                          weight=weight, entropy=0.0)


# -- entropy ---------------------------------------------------------------

def test_entropy_constant_column():
    assert attribute_entropy([7, 7, 7, 7]) == 0.0


def test_entropy_fair_coin():
    assert attribute_entropy([0, 0, 1, 1]) == pytest.approx(1.0)


def test_entropy_three_outcomes():
    assert attribute_entropy([0, 0, 1, 2]) == pytest.approx(1.5)


def test_entropy_sturges_binning_matches_oracle():
    rng = random.Random("entropy-bins")
    for _ in range(10):
        col = [rng.gauss(0, 5) for _ in range(200)]  # > 32 distinct values
        assert attribute_entropy(col) == pytest.approx(
            oracle.entropy_bits(col), abs=1e-12)


# -- weights ---------------------------------------------------------------

def test_weights_symmetric_pair():
    assert compute_weights([1.0, 1.0]) == [0.5, 0.5]


def test_weights_zero_entropy_wins():
    assert compute_weights([0.0, 2.0]) == [1.0, 0.0]


def test_weights_degenerate_all_zero():
    assert compute_weights([0.0, 0.0, 0.0]) == [1.0, 1.0, 1.0]


def test_weights_single_attribute():
    assert compute_weights([3.7]) == [1.0]


# -- per-attribute kernel --------------------------------------------------

def test_attribute_likelihood_hand_value():
    # A = {0, 2}: population sigma 1; at x=1 both kernels give e^-0.5/sqrt(2pi)
    model = _attr_model([0.0, 2.0])
    assert model.sigma == 1.0
    expected = math.exp(-0.5) / math.sqrt(2 * math.pi)
    assert attribute_likelihood(model, 1.0) == pytest.approx(expected,
                                                             abs=1e-12)
    assert attribute_likelihood(model, 1.0) == pytest.approx(0.24197,
                                                             abs=1e-5)


def test_attribute_likelihood_symmetry_and_tails():
    model = _attr_model([0.0, 2.0])
    for t in (0.1, 0.5, 1.7, 3.0):
        assert attribute_likelihood(model, 1 + t) == pytest.approx(
            attribute_likelihood(model, 1 - t), rel=1e-12)
    assert attribute_likelihood(model, 1e6) < 1e-300


# -- aggregation -----------------------------------------------------------

def test_aggregate_arithmetic():
    assert adifa._aggregate(np.array([0.2, 0.4]), "am") == pytest.approx(0.3)


def test_aggregate_geometric():
    assert adifa._aggregate(np.array([0.25, 1.0]), "gm") == pytest.approx(0.5)


def test_aggregate_zero_collapses_gm_hm():
    terms = np.array([0.0, 0.5, 0.9])
    assert adifa._aggregate(terms, "gm") == 0.0
    assert adifa._aggregate(terms, "hm") == 0.0
    assert adifa._aggregate(terms, "am") > 0.0


# -- training --------------------------------------------------------------

def test_identical_rows_identical_scores():
    ds = make_dataset([[1.0, 5.0]] * 6)
    model = train(ds, psi="gm")
    assert np.all(model.training_scores == model.training_scores[0])


@pytest.mark.parametrize("psi", adifa.PSI_TAGS)
def test_toy_training_matches_oracle(psi):
    X = [[0.0, 1.0], [1.0, 3.0], [2.0, 2.0]]
    model = train(make_dataset(X), psi=psi)
    ref = oracle.fit(X, psi)
    assert model.training_scores == pytest.approx(ref["training_scores"],
                                                  rel=1e-12)
    assert model.calibration_max == pytest.approx(ref["calibration_max"],
                                                  rel=1e-12)
    x = [0.5, 2.5]
    assert instance_score(model, x) == pytest.approx(oracle.score(ref, x),
                                                     rel=1e-12)


def test_train_input_validation():
    with pytest.raises(TooFewRows):
        train(make_dataset([[1.0, 2.0]]))
    with pytest.raises(NonFiniteData):
        train(make_dataset([[1.0, np.nan], [2.0, 3.0]]))
    with pytest.raises(ValueError):
        train(make_dataset([[1.0], [2.0]]), psi="median")


# -- classification --------------------------------------------------------

def _blob_dataset(rng, m=100, n=3):
    return make_dataset([[rng.gauss(j * 10, 1.0) for j in range(n)]
                         for _ in range(m)])


def test_duplicated_row_is_normal():
    rng = random.Random("dup-row")
    rows = [[1.0, 2.0]] * 90 + [[rng.gauss(1, 0.5), rng.gauss(2, 0.5)]
                                for _ in range(10)]
    model = train(make_dataset(rows), psi="gm")
    result = classify(model, [1.0, 2.0])
    assert result.likelihood > 0.9
    assert result.label == "normal"


def test_extreme_outlier_is_anomalous():
    rng = random.Random("outlier")
    ds = _blob_dataset(rng)
    model = train(ds, psi="gm")
    result = classify(model, [1e6, 1e6, 1e6])
    assert result.score == 0.0
    assert result.likelihood < 0.5
    assert result.label == "anomalous"


def test_likelihood_in_unit_interval():
    rng = random.Random("unit")
    ds = _blob_dataset(rng, m=40)
    model = train(ds, psi="am")
    for _ in range(50):
        x = [rng.uniform(-50, 100) for _ in range(3)]
        result = classify(model, x)
        assert 0.0 <= result.likelihood <= 1.0


def test_classify_dimension_check():
    model = train(make_dataset([[1.0, 2.0], [2.0, 3.0], [0.0, 1.0]]))
    with pytest.raises(DimensionMismatch):
        classify(model, [1.0])


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_scoring_rejects_non_finite(bad):
    model = train(make_dataset([[1.0, 2.0], [2.0, 3.0], [0.0, 1.0]]))
    with pytest.raises(NonFiniteData):
        classify(model, [1.0, bad])
    with pytest.raises(NonFiniteData):
        score_batch(model, [[1.0, 2.0], [bad, 2.0]])


# -- localization ----------------------------------------------------------

def test_injected_column_ranks_first():
    rng = random.Random("localize")
    rows = [[rng.gauss(0, 1), rng.gauss(50, 2), rng.gauss(-20, 1)]
            for _ in range(80)]
    model = train(make_dataset(rows, ("a", "b", "c")), psi="gm")
    x = [rows[0][0], 500.0, rows[0][2]]  # poison column b only
    result = classify(model, x)
    assert result.per_attribute[0][0] == "b"
    assert localize(result, 1)[0][0] == "b"


def test_localize_is_total():
    model = train(make_dataset([[0.0, 1.0], [1.0, 0.0], [0.5, 0.5]],
                               ("a", "b")))
    result = classify(model, [0.5, 0.5])
    assert len(localize(result, 1)) == 1
    assert len(localize(result, 5)) == 2  # clamped to n
    assert localize(result, 0) == []


def test_localization_ties_broken_by_column_order():
    ds = make_dataset([[0.0, 0.0], [1.0, 1.0], [2.0, 2.0]], ("a", "b"))
    model = train(ds)
    result = classify(model, [1.0, 1.0])
    assert [name for name, _ in result.per_attribute] == ["a", "b"]


# -- batch scoring ---------------------------------------------------------

def test_score_batch_matches_classify():
    rng = random.Random("batch")
    ds = _blob_dataset(rng, m=30)
    model = train(ds, psi="hm")
    X = np.array([[rng.uniform(-5, 30) for _ in range(3)] for _ in range(9)])
    scores, likelihoods, densities = score_batch(model, X)
    for i in range(len(X)):
        result = classify(model, X[i])
        assert scores[i] == pytest.approx(result.score, rel=1e-12, abs=1e-300)
        assert likelihoods[i] == pytest.approx(result.likelihood, rel=1e-12,
                                               abs=1e-300)
        assert densities[i] == pytest.approx(
            meta_density(model, result.score), rel=1e-12, abs=1e-300)
