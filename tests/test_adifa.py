import math
import random
import tracemalloc

import numpy as np
import pytest

import oracle
from conftest import make_dataset
from xmlad import adifa
from xmlad.adifa import (AttributeModel, attribute_entropy,
                         attribute_likelihood, classify, compute_weights,
                         localize, score_batch, train)
from xmlad.errors import DimensionMismatch, NonFiniteData, TooFewRows
from xmlad.model_io import load_model, save_model


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


def _column_fit_kernel(column):
    """The per-column formula in Python floats, the reference for the
    vectorised `_fit_kernel`."""
    sigma = float(column.std())
    sigma = max(sigma, adifa._SIGMA_FLOOR_SCALE
                * max(1.0, abs(float(column.mean()))))
    tau = 1.0 / (2.0 * sigma * sigma)
    norm = 1.0 / math.sqrt(2.0 * math.pi * sigma * sigma)
    return sigma, tau, norm


@pytest.mark.parametrize("m", [1, 2, 500])
def test_fit_kernel_rows_match_per_column_formula(m):
    rng = np.random.default_rng(m)
    X = np.column_stack([
        rng.normal(3.0, 2.0, m), rng.normal(-40.0, 1e-4, m),
        np.full(m, 7.0),  # constant: the floor
        1e9 + rng.normal(0.0, 1e-3, m),  # |mean| 1e9: the floor is 1
        -1e9 + rng.normal(0.0, 10.0, m),
        rng.integers(0, 3, m).astype(float)])
    sigmas, taus, norms = adifa._fit_kernel(np.ascontiguousarray(X.T))
    for j, column in enumerate(X.T):  # strided, as the columns of X
        assert (sigmas[j], taus[j], norms[j]) == _column_fit_kernel(column)
        assert adifa._fit_kernel(column) == _column_fit_kernel(column)
    # the floor holds the constant and the 1e9 columns
    assert sigmas[2] == adifa._SIGMA_FLOOR_SCALE * 7.0
    assert sigmas[3] > 0.99 > X[:, 3].std()
    if m > 1:  # train fits every column as the formula does
        model = train(make_dataset(X))
        assert [(am.sigma, am.tau, am.norm) for am in model.attributes] == [
            _column_fit_kernel(column) for column in X.T]
        # one column: X.T is C-contiguous, and train leaves X as it was
        one = np.ascontiguousarray(X[:, :1])
        train(make_dataset(one))
        assert np.array_equal(one, X[:, :1])


# -- aggregation -----------------------------------------------------------

def test_aggregate_arithmetic():
    assert adifa._aggregate(np.array([0.2, 0.4]), "am") == pytest.approx(0.3)


def test_aggregate_geometric():
    assert adifa._aggregate(np.array([0.25, 1.0]), "gm") == pytest.approx(0.5)
    # a positive subnormal term is taken as it is, not lifted to a floor
    terms = [1e-318, 0.5, 2.0]
    exact = math.exp(sum(math.log(t) for t in terms) / len(terms))
    assert adifa._aggregate(np.array(terms), "gm") == pytest.approx(
        exact, rel=1e-10, abs=0.0)


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
    assert score_batch(model, [x])[0][0] == pytest.approx(oracle.score(ref, x),
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
    with pytest.raises(NonFiniteData, match="cell at row 0, column 1$"):
        classify(model, [1.0, bad])
    with pytest.raises(NonFiniteData, match="cell at row 1, column 0$"):
        score_batch(model, [[1.0, 2.0], [bad, 2.0], [bad, bad]])


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
        assert scores[i] == result.score
        assert likelihoods[i] == result.likelihood
        assert densities[i] == score_batch(model, X[i:i + 1])[2][0]


# -- blocked kernel sums ---------------------------------------------------

def _heavy_duplicate_rows(m):
    """Continuous columns, one of at most 32 distinct values, one constant."""
    rng = np.random.default_rng(3000)
    cols = [rng.normal(5.0 * j, 1.0 + j, m) for j in range(5)]
    cols.append(rng.integers(0, 32, m).astype(float))
    cols.append(np.full(m, 7.0))
    return np.column_stack(cols)


def _direct_kernel_sums(centers, taus, points, leave_out=False):
    """The per-centre formula: one m x m kernel matrix per column, summed
    over every centre, or over every centre but row i's own with
    leave_out (points are then the rows the centres came from)."""
    out = np.empty(points.shape)
    for j in range(points.shape[1]):
        diff = points[:, j][:, None] - centers[j][None, :]
        with np.errstate(over="ignore"):  # at +-1.7e308, exp(-inf) = 0
            k = np.exp(-taus[j] * diff * diff)
        if leave_out:
            np.fill_diagonal(k, 0.0)
        out[:, j] = k.sum(axis=1)
    return out


def _table_and_own(X):
    """X's kernel table, and each row's own index into its values."""
    taus = [adifa._fit_kernel(c)[1] for c in X.T]
    table = adifa._KernelTable([np.sort(c) for c in X.T], taus)
    own = table.offsets[:-1] + np.column_stack(
        [np.unique(c, return_inverse=True)[1] for c in X.T])
    return table, own, taus


def _far_points(X, taus):
    """Rows 0.5 h to 50 h beyond each column's range, h = 1/sqrt(tau); X's
    first row with each constant (sigma-floored) column 1.0 out, some 1e8 h;
    and two rows at +-1.7e308, where tau (x - v)^2 overflows.  Up to 10 h
    the nearest kernel's exponent is at most 100, and exp turns an
    exponent's last-bit rounding into a relative error of |exponent| ulps;
    from 50 h on every kernel underflows to 0."""
    h = 1.0 / np.sqrt(taus)
    steps = np.array([0.5, 2.0, 5.0, 10.0, 50.0])[:, None]
    lone = X[:1] + (X.min(axis=0) == X.max(axis=0))
    edge = np.array([[1.7e308], [-1.7e308]]).repeat(X.shape[1], axis=1)
    return np.concatenate([X.max(axis=0) + steps * h,
                           X.min(axis=0) - steps * h, lone, edge])


def test_kernel_sums_match_per_centre_formula():
    X = _heavy_duplicate_rows(3000)
    table, own, taus = _table_and_own(X)
    # one entry per distinct value: 5 x 3000 continuous, <= 32 and 1
    assert table.offsets[-1] == sum(len(np.unique(c)) for c in X.T) < X.size
    # leave-one-out layout: every training row against its own column
    assert np.allclose(adifa._kernel_sums(table, X, own),
                       _direct_kernel_sums(X.T, taus, X, leave_out=True),
                       rtol=1e-13, atol=0.0)
    # leave-one-out on an all-distinct narrow column, every count 1
    x = X[:60, :1]
    narrow, own_x, tau_x = _table_and_own(x)
    assert narrow.expansion is None and (narrow.narrow[0].counts == 1).all()
    assert np.allclose(adifa._kernel_sums(narrow, x, own_x, expand=True),
                       _direct_kernel_sums(x.T, tau_x, x, leave_out=True),
                       rtol=1e-13, atol=0.0)
    # scoring layout: new rows, some far out, against the training columns
    points = np.concatenate([_heavy_duplicate_rows(3000)[::-1][:700] + 0.25,
                             _far_points(X, taus)])
    direct = _direct_kernel_sums(X.T, taus, points)
    # every kernel is 0 at 50 h out, on the constant column 1.0 out and at
    # +-1.7e308; atol=0 below holds those sums to an exact 0
    assert (direct[-4] == 0.0).all() and direct[-3, -1] == 0.0
    assert (direct[-2:] == 0.0).all() and (direct[-3, :-1] > 0.0).all()
    assert np.allclose(adifa._kernel_sums(table, points), direct,
                       rtol=1e-13, atol=0.0)
    # the meta KDE layout: one column of m values
    s = X[:, :1]
    meta = adifa._KernelTable([np.sort(s[:, 0])], taus[:1])
    assert np.allclose(adifa._kernel_sums(meta, s),
                       _direct_kernel_sums(s.T, taus[:1], s),
                       rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("block", [1000, 7000, 40000])
def test_kernel_sums_do_not_depend_on_block_size(monkeypatch, block):
    X = _heavy_duplicate_rows(3000)
    table, own, taus = _table_and_own(X)
    points = np.concatenate([X[:500] + 0.25, _far_points(X, taus)])
    loo, sums = adifa._kernel_sums(table, X, own), adifa._kernel_sums(
        table, points)
    monkeypatch.setattr(adifa, "_BLOCK_CELLS", block)
    table, own, _ = _table_and_own(X)
    assert np.array_equal(adifa._kernel_sums(table, X, own), loo)
    assert np.array_equal(adifa._kernel_sums(table, points), sums)


@pytest.mark.parametrize("m", [50, 60])
def test_isolated_point_leave_one_out_matches_oracle(m):
    # the lone 1.0's own kernel is most of its full sum, so S - 1 cancels
    X = [[0.0]] * (m - 1) + [[1.0]]
    model = train(make_dataset(X), psi="gm")
    ref = oracle.fit(X, "gm")
    assert model.training_scores[-1] == pytest.approx(
        ref["training_scores"][-1], rel=1e-10, abs=0.0)
    assert model.training_scores == pytest.approx(ref["training_scores"],
                                                  rel=1e-10, abs=0.0)


def test_train_memory_below_one_kernel_matrix():
    ds = make_dataset(_heavy_duplicate_rows(3000))
    tracemalloc.start()
    try:
        train(ds, psi="gm")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3000 * 3000 * 8


# -- Hermite-expanded kernel sums ------------------------------------------

def _expansion_rows(m):
    """`_heavy_duplicate_rows` with an isolated point: the last row's first
    value lies 12 sigma above the others, so its leave-one-out sum is a
    small remainder of exp(0) = 1."""
    X = _heavy_duplicate_rows(m)
    X[-1, 0] = X[:-1, 0].max() + 12.0 * X[:-1, 0].std()
    return X


def _expansion_points(X, taus):
    """New rows near the data, `_far_points`, and two rows at +-1e300."""
    near = _heavy_duplicate_rows(3000)[::-1][:700] + 0.25
    huge = np.full((2, X.shape[1]), 1e300) * np.array([[1.0], [-1.0]])
    return np.concatenate([near, _far_points(X, taus), huge])


def _assert_expanded_matches_exact(table, points, own=None):
    exact = adifa._kernel_sums(table, points, own)
    fast = adifa._kernel_sums(table, points, own, expand=True)
    assert np.allclose(fast, exact, rtol=1e-10, atol=0.0)
    assert (fast[exact == 0.0] == 0.0).all()  # every exact 0 stays 0
    e = table.expansion
    sums, kept = adifa._hermite_sums(e, points[:, e.cols], own is not None)
    assert not kept[np.isnan(sums)].any()  # no overflowed (NaN) cell is kept
    return kept


def test_expanded_kernel_sums_match_exact():
    X = _expansion_rows(3000)
    table, own, taus = _table_and_own(X)
    # the five continuous columns are expanded, the other two are not
    assert list(table.expansion.cols) == [0, 1, 2, 3, 4]
    # leave-one-out layout: the expansion keeps all but the isolated point
    kept = _assert_expanded_matches_exact(table, X, own)
    assert not kept[-1, 0] and kept.mean() > 0.99
    # scoring layout: targets near, far out, at +-1.7e308 and at +-1e300
    points = _expansion_points(X, taus)
    kept = _assert_expanded_matches_exact(table, points)
    assert kept[:700].mean() > 0.95 and not kept[-4:].any()
    # +-1.7e308 overflows t in every box: NaN sums, left to the exact path
    assert np.isnan(adifa._hermite_sums(
        table.expansion, points[-4:-2, :5], False)[0]).all()
    # the meta KDE layout, one column of m values, with and without own
    s = X[:, 1:2]
    meta = adifa._KernelTable([np.sort(s[:, 0])], taus[1:2])
    own = np.unique(s[:, 0], return_inverse=True)[1][:, None]
    assert _assert_expanded_matches_exact(meta, s, own).all()
    assert _assert_expanded_matches_exact(meta, points[:, 1:2])[:700].all()


@pytest.mark.parametrize("block", [1000, 7000, 40000])
def test_expanded_sums_do_not_depend_on_block_size(monkeypatch, block):
    X = _expansion_rows(3000)
    table, own, taus = _table_and_own(X)
    points = _expansion_points(X, taus)
    loo = adifa._kernel_sums(table, X, own, expand=True)
    sums = adifa._kernel_sums(table, points, expand=True)
    monkeypatch.setattr(adifa, "_BLOCK_CELLS", block)
    table, own, _ = _table_and_own(X)
    assert np.array_equal(adifa._kernel_sums(table, X, own, expand=True), loo)
    assert np.array_equal(adifa._kernel_sums(table, points, expand=True), sums)


def test_score_batch_matches_classify_on_expanded_model():
    X = _expansion_rows(600)
    model = train(make_dataset(X), psi="gm")
    assert model._kernels.expansion is not None
    table_taus = [am.tau for am in model.attributes]
    points = _expansion_points(X, table_taus)
    points = np.concatenate([points[:700:7], points[700:]])  # every far row
    scores, likelihoods, _ = score_batch(model, points)
    assert (scores[-4:] == 0.0).all()  # +-1.7e308 and +-1e300: every d is 0
    batch = adifa.classify_batch(model, points)
    for i, x in enumerate(points):
        result = classify(model, x)
        assert result == batch[i]
        assert (result.score, result.likelihood) == (scores[i],
                                                     likelihoods[i])


def test_train_builds_each_kernel_table_once(tmp_path, monkeypatch):
    # train hands the model the attribute and meta tables it built; a
    # loaded model builds its own, and scores as the trained one does
    built = []
    init = adifa._KernelTable.__init__

    def counted(self, columns, taus):
        built.append(len(columns))
        init(self, columns, taus)
    monkeypatch.setattr(adifa._KernelTable, "__init__", counted)
    X = _expansion_rows(600)
    model = train(make_dataset(X), psi="gm")
    assert built == [X.shape[1], 1]
    save_model(model, tmp_path / "m.xadmodel")
    _, loaded = load_model(tmp_path / "m.xadmodel")
    assert built == [X.shape[1], 1] * 2
    points = _expansion_points(X, [am.tau for am in model.attributes])[::7]
    for a, b in zip(score_batch(model, points), score_batch(loaded, points)):
        assert np.array_equal(a, b)
