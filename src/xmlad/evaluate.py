"""Evaluation harness: ROC/AUC, 5x2 cross-validation, paired t-test,
adjusted Friedman + Bonferroni-Dunn ranking, and learning curves.

Each algorithm's score polarity lives in the model_io table; the harness
hands AUC a unified orientation where larger scores mean more anomalous.
"""

from dataclasses import dataclass

import numpy as np
from scipy import stats

from .errors import (DegenerateMatrix, LengthMismatch, SingleClass,
                     TooFewRows)
from .flatten import FlatDataset
from .model_io import ALGORITHMS, algorithm

ALGORITHM_TAGS = tuple(ALGORITHMS)


def train_algorithm(tag: str, dataset: FlatDataset, **opts):
    return algorithm(tag).train(dataset, **opts)


def anomaly_scores(tag: str, model, X) -> np.ndarray:
    """Scores oriented so that larger means more anomalous."""
    algo = algorithm(tag)
    native = algo.scores(model, X)
    return -native if algo.larger_is_normal else native


# ---------------------------------------------------------------------------
# ROC / AUC
# ---------------------------------------------------------------------------

@dataclass
class RocCurve:
    points: list  # (fpr, tpr) from (0,0) to (1,1)
    auc: float


def _validate_labels(scores, labels):
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = labels == "anomalous"
    neg = labels == "normal"
    if not pos.any() or not neg.any():
        raise SingleClass("both classes must be present")
    return scores, pos, neg


def auc(scores, labels) -> float:
    """Rank-statistic AUC; anomalous is positive, ties count one half."""
    scores, pos, neg = _validate_labels(scores, labels)
    ranks = stats.rankdata(scores, method="average")
    n_pos = int(pos.sum())
    n_neg = int(neg.sum())
    return float((ranks[pos].sum() - n_pos * (n_pos + 1) / 2.0)
                 / (n_pos * n_neg))


def roc_curve(scores, labels) -> RocCurve:
    """Threshold sweep over distinct score values, highest first."""
    scores, pos, neg = _validate_labels(scores, labels)
    n_pos = float(pos.sum())
    n_neg = float(neg.sum())
    order = np.argsort(-scores, kind="stable")
    sorted_scores = scores[order]
    sorted_pos = pos[order].astype(float)
    points = [(0.0, 0.0)]
    tp = fp = 0.0
    i = 0
    m = len(scores)
    while i < m:
        j = i
        while j < m and sorted_scores[j] == sorted_scores[i]:
            j += 1
        tp += sorted_pos[i:j].sum()
        fp += (j - i) - sorted_pos[i:j].sum()
        points.append((float(fp / n_neg), float(tp / n_pos)))
        i = j
    fprs = np.array([p[0] for p in points])
    tprs = np.array([p[1] for p in points])
    area = float(np.trapezoid(tprs, fprs))
    return RocCurve(points=points, auc=area)


# ---------------------------------------------------------------------------
# 5x2 cross-validation
# ---------------------------------------------------------------------------

@dataclass
class CvResult:
    fold_aucs: tuple  # 10 values: 5 repetitions x 2 folds
    mean_auc: float
    seed: int
    roc: RocCurve  # of fold 0: repetition 0, trained on its first half


def _subset(dataset: FlatDataset, idx) -> FlatDataset:
    return FlatDataset(
        column_names=dataset.column_names,
        rows=dataset.rows[idx],
        column_meta=dataset.column_meta,
        labels=tuple(dataset.labels[i] for i in idx)
        if dataset.labels is not None else None)


def cv_5x2(dataset: FlatDataset, tag: str, seed: int = 0, **opts) -> CvResult:
    """Five seeded 50/50 splits with swapped roles; training folds are
    stripped to normal rows before fitting (one-class contract).  The ROC
    curve kept is that of the first fold, whose AUC is fold_aucs[0]."""
    if dataset.labels is None:
        raise SingleClass("dataset must carry labels")
    labels = np.asarray(dataset.labels)
    if not (labels == "anomalous").any() or not (labels == "normal").any():
        raise SingleClass("both classes must be present")
    m = dataset.rows.shape[0]
    fold_aucs = []
    for rep in range(5):
        rng = np.random.default_rng([seed, rep])
        perm = rng.permutation(m)
        half = m // 2
        a, b = perm[:half], perm[half:]
        for train_idx, test_idx in ((a, b), (b, a)):
            normal_idx = train_idx[labels[train_idx] == "normal"]
            if len(normal_idx) < 2:
                raise TooFewRows("not enough normal rows in a training fold")
            assert (labels[normal_idx] == "normal").all()
            model = train_algorithm(tag, _subset(dataset, normal_idx), **opts)
            scores = anomaly_scores(tag, model, dataset.rows[test_idx])
            fold_aucs.append(auc(scores, labels[test_idx]))
            if len(fold_aucs) == 1:
                roc = roc_curve(scores, labels[test_idx])
    return CvResult(fold_aucs=tuple(fold_aucs),
                    mean_auc=float(np.mean(fold_aucs)), seed=seed, roc=roc)


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
    return float(stats.t.sf(t, len(d) - 1))


@dataclass
class SignificanceReport:
    friedman_p: float
    mean_ranks: tuple
    critical_difference: float
    post_hoc: tuple  # vs reference: "better" | "worse" | "equal"
    pairwise: tuple  # k x k of "better" | "worse" | "equal"


def friedman_bonferroni(auc_matrix, reference: int = 0,
                        alpha: float = 0.05) -> SignificanceReport:
    """Average-rank Friedman test in its F-distribution form, followed by
    Bonferroni-corrected rank comparisons against the reference column.

    A "better" in cell (i, j) means classifier j significantly outranks
    classifier i.
    """
    M = np.asarray(auc_matrix, dtype=float)
    if M.ndim != 2 or M.shape[0] < 2 or M.shape[1] < 2:
        raise DegenerateMatrix("need at least 2 datasets and 2 classifiers")
    n_data, k = M.shape
    ranks = np.vstack([stats.rankdata(-row, method="average") for row in M])
    mean_ranks = ranks.mean(axis=0)

    chi2 = (12.0 * n_data / (k * (k + 1))
            * (float((mean_ranks ** 2).sum()) - k * (k + 1) ** 2 / 4.0))
    denom = n_data * (k - 1) - chi2
    if chi2 <= 0.0:
        friedman_p = 1.0
    elif denom <= 0.0:
        friedman_p = 0.0
    else:
        f_stat = (n_data - 1) * chi2 / denom
        friedman_p = float(stats.f.sf(f_stat, k - 1, (k - 1) * (n_data - 1)))

    z = stats.norm.ppf(1.0 - alpha / (2.0 * (k - 1)))
    cd = float(z * np.sqrt(k * (k + 1) / (6.0 * n_data)))
    rejected = friedman_p < alpha

    def outcome(rank_i, rank_j):
        # how classifier j compares against classifier i
        if not rejected or abs(rank_i - rank_j) < cd:
            return "equal"
        return "better" if rank_j < rank_i else "worse"

    post_hoc = tuple(outcome(mean_ranks[reference], mean_ranks[j])
                     for j in range(k))
    pairwise = tuple(tuple(outcome(mean_ranks[i], mean_ranks[j])
                           for j in range(k)) for i in range(k))
    return SignificanceReport(friedman_p=friedman_p,
                              mean_ranks=tuple(float(r) for r in mean_ranks),
                              critical_difference=cd, post_hoc=post_hoc,
                              pairwise=pairwise)


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
    if len(normal_idx) < 20:
        raise TooFewRows("need at least 20 normal rows")
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
