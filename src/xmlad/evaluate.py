"""Evaluation harness: ROC/AUC, 5x2 cross-validation, paired t-test,
adjusted Friedman + Bonferroni-Dunn ranking, and learning curves.

Each algorithm's score polarity lives in the model_io table; the harness
hands AUC a unified orientation where larger scores mean more anomalous.
Cross-validation builds each fold once for every algorithm: the baselines
fit from one shared `baselines.Space` and rank from one shared matrix of
query distances per fold.
"""

from dataclasses import dataclass

import numpy as np
from scipy import special

from . import baselines
from .errors import (DegenerateMatrix, LengthMismatch, SingleClass,
                     TooFewRows, check_finite)
from .flatten import FlatDataset
from .model_io import algorithm


def train_algorithm(tag: str, dataset: FlatDataset, **opts):
    return algorithm(tag).train(dataset, **opts)


def _oriented(algo, native) -> np.ndarray:
    return -native if algo.larger_is_normal else native


def anomaly_scores(tag: str, model, X) -> np.ndarray:
    """Scores oriented so that larger means more anomalous."""
    algo = algorithm(tag)
    return _oriented(algo, algo.scores(model, X))


# ---------------------------------------------------------------------------
# ROC / AUC
# ---------------------------------------------------------------------------

@dataclass
class RocCurve:
    points: list  # (fpr, tpr) from (0,0) to (1,1)
    auc: float


def _ranked(scores, labels):
    """The one sort behind `auc` and `roc_curve`.

    Scores go highest first with equal scores (equal infinities too) in one
    group.  Returns the cumulative anomalous and normal counts after each
    group, each led by a 0, so that their last entries are the class sizes.
    Only "anomalous" and "normal" rows count; any other label is in neither.
    """
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    if scores.shape != labels.shape or scores.ndim != 1:
        raise LengthMismatch("scores and labels must be 1-D of equal length")
    order = np.argsort(-scores, kind="stable")
    pos = labels[order] == "anomalous"
    neg = labels[order] == "normal"
    if not pos.any() or not neg.any():
        raise SingleClass("both classes must be present")
    s = scores[order]
    ends = np.append(np.flatnonzero(s[1:] != s[:-1]), len(s) - 1)
    return (np.append(0, np.cumsum(pos)[ends]),
            np.append(0, np.cumsum(neg)[ends]))


def _area(tp, fp) -> float:
    # twice the Mann-Whitney count U: a group's normal rows pair with the
    # tp[g-1] anomalous rows above the group and the tp[g] - tp[g-1] tied
    # in it, which count one half.  2U is an exact integer, divided once.
    twice = int((np.diff(fp) * (tp[1:] + tp[:-1])).sum())
    return twice / (2 * int(tp[-1]) * int(fp[-1]))


def auc(scores, labels) -> float:
    """Share of (anomalous, normal) pairs that the anomalous row outscores,
    ties counting one half: the exact Mann-Whitney area."""
    return _area(*_ranked(scores, labels))


def roc_curve(scores, labels) -> RocCurve:
    """Threshold sweep over distinct score values, highest first; its area
    is `auc` of the same scores, bit for bit."""
    tp, fp = _ranked(scores, labels)
    points = list(zip((fp / fp[-1]).tolist(), (tp / tp[-1]).tolist()))
    return RocCurve(points=points, auc=_area(tp, fp))


# ---------------------------------------------------------------------------
# 5x2 cross-validation
# ---------------------------------------------------------------------------

@dataclass
class CvResult:
    fold_aucs: tuple  # 10 values: 5 repetitions x 2 folds
    mean_auc: float
    roc: RocCurve  # of fold 0: repetition 0, trained on its first half


def _subset(dataset: FlatDataset, idx) -> FlatDataset:
    return FlatDataset(
        column_names=dataset.column_names,
        rows=dataset.rows[idx],
        labels=tuple(dataset.labels[i] for i in idx)
        if dataset.labels is not None else None)


def _folds(labels: np.ndarray, seed: int):
    """The ten (training rows, test rows) of the 5x2 splits: five seeded
    50/50 splits with swapped roles, training rows stripped to the normal
    ones (one-class contract)."""
    m = len(labels)
    for rep in range(5):
        rng = np.random.default_rng([seed, rep])
        perm = rng.permutation(m)
        half = m // 2
        a, b = perm[:half], perm[half:]
        for train_idx, test_idx in ((a, b), (b, a)):
            normal_idx = train_idx[labels[train_idx] == "normal"]
            if len(normal_idx) < 2:
                raise TooFewRows("not enough normal rows in a training fold")
            yield normal_idx, test_idx


def cv_5x2_many(dataset: FlatDataset, tags, seed: int = 0,
                **opts) -> tuple:
    """`cv_5x2` of each tag, one CvResult per listed tag in listed order.

    Each fold's split and training subset are built once for all tags, and
    the baselines among them share one `baselines.Space` of the training
    rows and one matrix of test-to-training distances, which are read-only.
    """
    tags = list(tags)
    if not tags:
        return ()
    if dataset.labels is None:
        raise SingleClass("dataset must carry labels")
    labels = np.asarray(dataset.labels)
    if not (labels == "anomalous").any() or not (labels == "normal").any():
        raise SingleClass("both classes must be present")
    # checked whole, so that an error names the cell by its dataset row
    check_finite(dataset.rows)
    algos = [algorithm(tag) for tag in tags]
    fold_aucs = [[] for _ in tags]
    rocs = [None] * len(tags)
    for normal_idx, test_idx in _folds(labels, seed):
        train = _subset(dataset, normal_idx)
        X, y = dataset.rows[test_idx], labels[test_idx]
        space = query = None  # built for the fold's first baseline
        for i, algo in enumerate(algos):
            if algo.fit is None:
                native = algo.scores(algo.train(train, **opts), X)
            else:
                if space is None:
                    space = baselines.fit_space(train)
                    query = baselines.query_distances(space, X)
                native = algo.rank(algo.fit(space, **opts), query)
            scores = _oriented(algo, native)
            # fold 0 keeps its curve, whose area is its AUC
            if rocs[i] is None:
                rocs[i] = roc_curve(scores, y)
                fold_aucs[i].append(rocs[i].auc)
            else:
                fold_aucs[i].append(auc(scores, y))
    return tuple(CvResult(fold_aucs=tuple(a), mean_auc=float(np.mean(a)),
                          roc=roc)
                 for a, roc in zip(fold_aucs, rocs))


def cv_5x2(dataset: FlatDataset, tag: str, seed: int = 0, **opts) -> CvResult:
    """Five seeded 50/50 splits with swapped roles; training folds are
    stripped to normal rows before fitting (one-class contract).  The ROC
    curve kept is that of the first fold, whose AUC is fold_aucs[0]."""
    return cv_5x2_many(dataset, [tag], seed, **opts)[0]


# ---------------------------------------------------------------------------
# Significance tests
# ---------------------------------------------------------------------------

def paired_t_test(a, b) -> float:
    """One-tailed p-value for mean(a) > mean(b) on paired samples."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.shape != b.shape or a.ndim != 1 or len(a) < 2:
        raise LengthMismatch("a and b must be 1-D of equal length >= 2")
    d = a - b
    sd = d.std(ddof=1)
    if sd == 0.0:
        return 1.0 if d.mean() <= 0.0 else 0.0
    t = d.mean() / (sd / np.sqrt(len(d)))
    return float(special.stdtr(len(d) - 1, -t))  # Student's t upper tail


@dataclass
class SignificanceReport:
    friedman_p: float
    mean_ranks: tuple
    critical_difference: float
    pairwise: tuple  # k x k of "better" | "worse" | "equal"


SIGNIFICANCE = 0.05  # of the Friedman test and of each pairwise comparison


def friedman_bonferroni(auc_matrix) -> SignificanceReport:
    """Average-rank Friedman test in its F-distribution form, followed by
    Bonferroni-corrected rank comparisons between every pair of columns.

    A "better" in cell (i, j) means classifier j significantly outranks
    classifier i.
    """
    M = np.asarray(auc_matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] < 2 or M.shape[1] < 2:
        raise DegenerateMatrix("need at least 2 datasets and 2 classifiers")
    check_finite(M)  # a NaN has no rank
    n_data, k = M.shape
    # each row's average ranks, largest first: the cells above a cell, and
    # the middle of the cells it ties with, itself included; exact halves
    above = (M[:, None, :] > M[:, :, None]).sum(axis=2)
    ties = (M[:, None, :] == M[:, :, None]).sum(axis=2)
    mean_ranks = (above + (ties + 1) / 2).mean(axis=0)

    chi2 = (12.0 * n_data / (k * (k + 1))
            * (float((mean_ranks ** 2).sum()) - k * (k + 1) ** 2 / 4.0))
    denom = n_data * (k - 1) - chi2
    if chi2 <= 0.0:
        friedman_p = 1.0
    elif denom <= 0.0:
        friedman_p = 0.0
    else:
        f_stat = (n_data - 1) * chi2 / denom
        # the F distribution's upper tail
        friedman_p = float(special.fdtrc(k - 1, (k - 1) * (n_data - 1),
                                         f_stat))

    z = special.ndtri(1.0 - SIGNIFICANCE / (2.0 * (k - 1)))  # normal quantile
    cd = float(z * np.sqrt(k * (k + 1) / (6.0 * n_data)))
    rejected = friedman_p < SIGNIFICANCE

    def outcome(rank_i, rank_j):
        # how classifier j compares against classifier i
        if not rejected or abs(rank_i - rank_j) < cd:
            return "equal"
        return "better" if rank_j < rank_i else "worse"

    pairwise = tuple(tuple(outcome(mean_ranks[i], mean_ranks[j])
                           for j in range(k)) for i in range(k))
    return SignificanceReport(friedman_p=friedman_p,
                              mean_ranks=tuple(float(r) for r in mean_ranks),
                              critical_difference=cd, pairwise=pairwise)


# ---------------------------------------------------------------------------
# Learning curves
# ---------------------------------------------------------------------------

def learning_curve(dataset: FlatDataset, tag: str, seed: int = 0, **opts):
    """Nested normal-row subsets D_1 ⊂ ... ⊂ D_10; each point trains on
    half of D_i's normal rows and tests on the other half plus every
    anomalous row.  Returns 10 (train_size, auc) points."""
    if dataset.labels is None:
        raise SingleClass("dataset must carry labels")
    labels = np.asarray(dataset.labels)
    normal_idx = np.flatnonzero(labels == "normal")
    anomalous_idx = np.flatnonzero(labels == "anomalous")
    if len(anomalous_idx) == 0:
        raise SingleClass("no anomalous rows")
    if len(normal_idx) < 31:  # D_1, a tenth of them, trains on 2 rows
        raise TooFewRows("need at least 31 normal rows")
    rng = np.random.default_rng([seed, 0])
    shuffled = rng.permutation(normal_idx)
    groups = np.array_split(shuffled, 10)
    points = []
    nested = np.array([], dtype=int)
    for i, group in enumerate(groups):
        nested = np.concatenate([nested, group])
        half_rng = np.random.default_rng([seed, 1, i])
        order = half_rng.permutation(nested)
        half = len(order) // 2
        train_idx, test_normal = order[:half], order[half:]
        test_idx = np.concatenate([test_normal, anomalous_idx])
        model = train_algorithm(tag, _subset(dataset, train_idx), **opts)
        scores = anomaly_scores(tag, model, dataset.rows[test_idx])
        points.append((len(train_idx), auc(scores, labels[test_idx])))
    return points
