import dataclasses
import math
import random

import numpy as np
import pytest
from scipy import stats

import oracle
from conftest import make_dataset
from xmlad import evaluate, model_io
from xmlad.errors import (DegenerateMatrix, LengthMismatch, NonFiniteData,
                          SingleClass, TooFewRows)
from xmlad.evaluate import (auc, cv_5x2, cv_5x2_many, friedman_bonferroni,
                            learning_curve, paired_t_test, roc_curve)


def _labeled_blobs(rng, m_normal=120, m_anom=30, shift=1e6):
    rows = [[rng.gauss(0, 1), rng.gauss(5, 1)] for _ in range(m_normal)]
    rows += [[rng.gauss(shift, 1), rng.gauss(5, 1)] for _ in range(m_anom)]
    labels = ["normal"] * m_normal + ["anomalous"] * m_anom
    order = list(range(len(rows)))
    rng.shuffle(order)
    return make_dataset([rows[i] for i in order],
                        labels=[labels[i] for i in order])


# -- AUC / ROC -------------------------------------------------------------

def test_auc_perfect_separation():
    assert auc([1, 2, 9, 10], ["normal", "normal", "anomalous",
                               "anomalous"]) == 1.0


def test_auc_all_ties():
    assert auc([3, 3, 3, 3], ["normal", "anomalous", "normal",
                              "anomalous"]) == 0.5


def test_auc_hand_example():
    assert auc([1, 2, 3, 4], ["normal", "anomalous", "normal",
                              "anomalous"]) == 0.75


def test_auc_requires_both_classes():
    with pytest.raises(SingleClass):
        auc([1, 2], ["normal", "normal"])


def test_roc_two_points():
    curve = roc_curve([0.0, 1.0], ["normal", "anomalous"])
    assert curve.points == [(0.0, 0.0), (0.0, 1.0), (1.0, 1.0)]
    assert curve.auc == 1.0


def test_roc_reversed_polarity():
    rng = random.Random("roc")
    scores = [rng.uniform(0, 1) for _ in range(40)]
    labels = [rng.choice(["normal", "anomalous"]) for _ in range(38)]
    labels += ["normal", "anomalous"]  # both classes guaranteed
    fwd = roc_curve(scores, labels)
    rev = roc_curve([-s for s in scores], labels)
    assert rev.auc == pytest.approx(1.0 - fwd.auc, abs=1e-12)


def test_roc_area_matches_auc():
    # the curve's area is the pair-counted AUC bit for bit, also with ties
    # at +-inf
    rng = random.Random("roc-auc")
    values = [0.0, 1.0, 2.0, 3.0, math.inf, -math.inf]
    for _ in range(40):
        m = rng.randrange(7, 60)
        scores = [rng.choice(values) for _ in range(m)]
        labels = ["normal", "anomalous"] + [
            rng.choice(["normal", "anomalous"]) for _ in range(m - 2)]
        rng.shuffle(labels)
        assert (roc_curve(scores, labels).auc == auc(scores, labels)
                == oracle.auc_pair_counting(scores, labels))


def test_auc_counts_only_the_two_classes():
    # a row labelled neither normal nor anomalous is in neither class
    labels = ["normal", "anomalous", "norml"]
    assert auc([3, 2, 1], labels) == 0.0
    assert roc_curve([3, 2, 1], labels).points == [
        (0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (1.0, 1.0)]


# -- 5x2 CV ----------------------------------------------------------------

def test_cv_is_deterministic():
    rng = random.Random("cv")
    ds = _labeled_blobs(rng)
    r1 = cv_5x2(ds, "pga", seed=3)
    r2 = cv_5x2(ds, "pga", seed=3)
    assert r1.fold_aucs == r2.fold_aucs
    assert len(r1.fold_aucs) == 10


def test_cv_separated_anomalies_near_perfect():
    rng = random.Random("cv-sep")
    ds = _labeled_blobs(rng, shift=1e6)
    result = cv_5x2(ds, "adifa-gm", seed=1)
    assert result.mean_auc > 0.99


def test_cv_requires_labels():
    ds = make_dataset([[1.0], [2.0]])
    with pytest.raises(SingleClass):
        cv_5x2(ds, "pga")


_CV_TAGS = ["adifa-gm", "pga", "gde", "gde-literal", "lof"]


def _overlapping_blobs(seed, m_normal=120, m_anom=40):
    """Anomalies 1.5 spreads off in three of four columns, which differ in
    scale: no algorithm separates the classes perfectly."""
    rng = np.random.default_rng(seed)
    rows = np.vstack([rng.normal(size=(m_normal, 4)),
                      rng.normal(size=(m_anom, 4)) + [1.5, 1.5, 1.5, 0.0]])
    rows *= [1.0, 10.0, 1e3, 1e9]
    labels = ["normal"] * m_normal + ["anomalous"] * m_anom
    order = rng.permutation(len(rows))
    return make_dataset(rows[order], labels=[labels[i] for i in order])


def _cv_one_model_at_a_time(ds, tag, seed, **opts):
    """Fold AUCs from each fold's own `train_algorithm` and `anomaly_scores`
    calls: the split of `cv_5x2`, with nothing shared between algorithms."""
    labels = np.asarray(ds.labels)
    m = len(labels)
    aucs = []
    for rep in range(5):
        perm = np.random.default_rng([seed, rep]).permutation(m)
        a, b = perm[:m // 2], perm[m // 2:]
        for train_idx, test_idx in ((a, b), (b, a)):
            normal = train_idx[labels[train_idx] == "normal"]
            model = evaluate.train_algorithm(
                tag, make_dataset(ds.rows[normal]), **opts)
            scores = evaluate.anomaly_scores(tag, model, ds.rows[test_idx])
            aucs.append(auc(scores, labels[test_idx]))
    return tuple(aucs)


def test_cv_many_matches_each_tag_alone():
    ds = _overlapping_blobs(23)
    together = cv_5x2_many(ds, _CV_TAGS, seed=6, min_pts=7)
    assert len(together) == len(_CV_TAGS)
    for tag, result in zip(_CV_TAGS, together):
        alone = cv_5x2(ds, tag, seed=6, min_pts=7)
        assert result.fold_aucs == alone.fold_aucs
        assert result.roc.points == alone.roc.points
        assert result.mean_auc == alone.mean_auc
        assert result.fold_aucs == _cv_one_model_at_a_time(ds, tag, 6,
                                                           min_pts=7)
        assert len(set(result.fold_aucs)) > 1  # not all folds perfect


def test_cv_many_keeps_duplicate_tags_apart():
    ds = _overlapping_blobs(29)
    pga = cv_5x2(ds, "pga", seed=2)
    gm = cv_5x2(ds, "adifa-gm", seed=2)
    for tags, expected in ((["pga", "pga"], [pga, pga]),
                           (["adifa-gm", "pga", "adifa-gm"], [gm, pga, gm])):
        results = cv_5x2_many(ds, tags, seed=2)
        assert [len(r.fold_aucs) for r in results] == [10] * len(tags)
        assert [r.fold_aucs for r in results] == [
            e.fold_aucs for e in expected]
        assert [r.roc.points for r in results] == [
            e.roc.points for e in expected]
    assert cv_5x2_many(ds, [], seed=2) == ()


def test_cv_names_a_non_finite_cell_by_its_dataset_row():
    # not by its row in a fold's training subset or test rows
    ds = _overlapping_blobs(37)
    ds.rows[17, 2] = np.nan
    with pytest.raises(NonFiniteData, match="cell at row 17, column 2$"):
        cv_5x2_many(ds, ["lof", "adifa-gm"], seed=1)


def test_cv_step_writing_a_shared_matrix_raises(monkeypatch):
    # a fit step that wrote into the fold's distances would change the
    # scores of every baseline after it; the shared matrix refuses the write
    pga = model_io.ALGORITHMS["pga"]

    def careless_fit(space, **opts):
        np.fill_diagonal(space.distances, 0.0)
        return pga.fit(space, **opts)

    monkeypatch.setitem(model_io.ALGORITHMS, "careless",
                        dataclasses.replace(pga, fit=careless_fit))
    ds = _overlapping_blobs(31)
    with pytest.raises(ValueError, match="read-only"):
        cv_5x2_many(ds, ["pga", "careless", "lof"], seed=1)


# -- paired t-test ---------------------------------------------------------

def test_t_test_degenerate_conventions():
    assert paired_t_test([1.0, 1.0, 1.0], [1.0, 1.0, 1.0]) == 1.0
    assert paired_t_test([2.0, 3.0, 4.0], [1.0, 2.0, 3.0]) == 0.0
    assert paired_t_test([1.0, 2.0, 3.0], [2.0, 3.0, 4.0]) == 1.0


def test_t_test_hand_case_matches_quadrature_oracle():
    a = (0.9, 0.8, 0.85)
    b = (0.7, 0.6, 0.65)
    d = np.array(a) - np.array(b)
    t = d.mean() / (d.std(ddof=1) / np.sqrt(3))
    assert paired_t_test(a, b) == pytest.approx(
        oracle.t_sf_quadrature(t, 2), abs=1e-6)


def test_t_test_validation():
    with pytest.raises(LengthMismatch):
        paired_t_test([1.0, 2.0], [1.0])
    with pytest.raises(LengthMismatch):
        paired_t_test([1.0], [2.0])


# -- Friedman / Bonferroni-Dunn --------------------------------------------

def test_friedman_all_equal():
    M = np.full((12, 4), 0.8)
    report = friedman_bonferroni(M)
    assert report.friedman_p == 1.0
    assert all(c == "equal" for row in report.pairwise for c in row)


def test_friedman_total_dominance():
    # 30 datasets, 7 classifiers, column 0 always best, column 6 always worst
    rng = random.Random("friedman")
    M = np.array([[0.99 - 0.02 * j + rng.uniform(0, 0.001) for j in range(7)]
                  for _ in range(30)])
    report = friedman_bonferroni(M)
    assert report.friedman_p < 0.05
    assert report.mean_ranks[0] == 1.0
    assert report.mean_ranks[6] == 7.0
    z = stats.norm.ppf(1.0 - 0.05 / 12)
    cd = z * np.sqrt(7 * 8 / (6.0 * 30))
    assert report.critical_difference == pytest.approx(cd, rel=1e-12)
    assert report.pairwise[0][6] == "worse"  # the worst against the best
    assert report.pairwise[6][0] == "better"  # the best outranks the worst


def test_friedman_antisymmetry():
    rng = random.Random("anti")
    M = np.array([[rng.uniform(0.5, 1.0) for _ in range(4)]
                  for _ in range(15)])
    report = friedman_bonferroni(M)
    flip = {"better": "worse", "worse": "better", "equal": "equal"}
    for i in range(4):
        for j in range(4):
            assert report.pairwise[i][j] == flip[report.pairwise[j][i]]


def test_friedman_validation():
    with pytest.raises(DegenerateMatrix):
        friedman_bonferroni([[0.5, 0.6]])
    with pytest.raises(NonFiniteData, match="row 1, column 0$"):
        friedman_bonferroni([[0.5, 0.6], [np.nan, 0.7]])


def _stats_significance(M):
    """friedman_bonferroni's numbers computed through scipy.stats."""
    n, k = M.shape
    ranks = np.vstack([stats.rankdata(-row, method="average") for row in M])
    mean_ranks = ranks.mean(axis=0)
    chi2 = (12.0 * n / (k * (k + 1))
            * (float((mean_ranks ** 2).sum()) - k * (k + 1) ** 2 / 4.0))
    if chi2 <= 0.0:
        p = 1.0
    elif n * (k - 1) - chi2 <= 0.0:
        p = 0.0
    else:
        f_stat = (n - 1) * chi2 / (n * (k - 1) - chi2)
        p = float(stats.f.sf(f_stat, k - 1, (k - 1) * (n - 1)))
    z = stats.norm.ppf(1.0 - 0.05 / (2.0 * (k - 1)))
    return (p, tuple(float(r) for r in mean_ranks),
            float(z * np.sqrt(k * (k + 1) / (6.0 * n))))


def test_significance_matches_scipy_stats():
    # the special functions scipy.stats calls, and exact average ranks
    rng = np.random.default_rng(23)
    for trial in range(700):
        k = 2 + trial % 7
        M = rng.random((rng.integers(2, 15), k)).round(trial % 3)
        M[rng.random(len(M)) < 0.2] = 0.5  # rows of one value
        report = friedman_bonferroni(M)
        assert (report.friedman_p, report.mean_ranks,
                report.critical_difference) == _stats_significance(M)
        a, b = rng.random((2, rng.integers(2, 11))).round(trial % 3 + 1)
        d = a - b
        if d.std(ddof=1) > 0.0:
            t = d.mean() / (d.std(ddof=1) / np.sqrt(len(d)))
            assert paired_t_test(a, b) == float(stats.t.sf(t, len(d) - 1))


# -- learning curve --------------------------------------------------------

def test_learning_curve_nested_sizes():
    rng = random.Random("lc")
    ds = _labeled_blobs(rng, m_normal=200, m_anom=40)
    points = learning_curve(ds, "adifa-gm", seed=2)
    assert len(points) == 10
    sizes = [size for size, _ in points]
    assert sizes == sorted(sizes)
    assert sizes[-1] == 100  # half of all 200 normal rows
    for _, value in points:
        assert 0.0 <= value <= 1.0


def test_learning_curve_smallest_dataset():
    # D_1 holds ceil(31 / 10) = 4 normal rows, and trains on 2 of them
    rng = random.Random("lc3")
    ds = _labeled_blobs(rng, m_normal=31, m_anom=5)
    assert learning_curve(ds, "adifa-gm")[0][0] == 2
    with pytest.raises(TooFewRows, match="at least 31 normal rows"):
        learning_curve(_labeled_blobs(rng, m_normal=30, m_anom=5), "adifa-gm")


def test_learning_curve_deterministic():
    rng = random.Random("lc2")
    ds = _labeled_blobs(rng, m_normal=60, m_anom=10)
    assert learning_curve(ds, "pga", seed=4) == learning_curve(ds, "pga",
                                                               seed=4)
