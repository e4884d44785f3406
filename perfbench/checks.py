"""Output checks made apart from the program.

Nothing here imports xmlad.  Model files are read as the documented
container (header line, digest line, JSON body) and every density is
recomputed from its definition, so a fault in the program's kernels, its
persistence or its AUC shows as a mismatch instead of being copied.  Each
check returns a list of problems; an empty list means the output passed.
"""

import csv
import json
import math

import numpy as np

# The ROADMAP's oracle tolerance for every fast path.
REL_TOL = 1e-10
SAMPLE = 8  # rows or documents recomputed per run
# xmlad floors each term of its geometric and harmonic means at this value,
# so where a positive term lies below it xmlad's score is not the exact mean
# (CHANGES.md has the FOUND line).  Such rows are left out of comparisons.
TERM_FLOOR = 1e-300
DISTINCT_BIN_LIMIT = 32
SIGMA_FLOOR_SCALE = 1e-9


def read_container(path):
    """(kind, body) of an xmlad container file, read without xmlad."""
    with open(path, "r", encoding="utf-8") as fh:
        header, _, body = fh.read().split("\n", 2)
    return header.split(" ")[0][len("xmlad-"):], json.loads(body)


def read_matrix(path):
    """The float matrix of a flattened CSV, without its label column."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        width = len(header) - (header[-1] == "label")
        return np.array([[float(c) for c in r[:width]] for r in reader],
                        dtype=float)


def close(a, b, rel=REL_TOL):
    return a == b or abs(a - b) <= rel * max(abs(a), abs(b))


def aggregate(terms, psi):
    """The weighted mean the detector folds per-attribute terms with, or
    None where xmlad's term floor makes its score differ from it."""
    terms = np.asarray(terms, dtype=float)
    if psi == "am":
        return float(terms.mean())
    if (terms <= 0.0).any():
        return 0.0
    if (terms < TERM_FLOOR).any():
        return None
    if psi == "gm":
        return math.exp(float(np.log(terms).mean()))
    return len(terms) / float((1.0 / terms).sum())


def entropy_bits(column):
    m = len(column)
    _, counts = np.unique(column, return_counts=True)
    if len(counts) > DISTINCT_BIN_LIMIT:
        counts, _ = np.histogram(column, bins=math.ceil(1 + math.log2(m)))
        counts = counts[counts > 0]
    p = counts / m
    return float(-(p * np.log2(p)).sum())


def kernel(column):
    """(tau, norm) of a column's Gaussian kernel: population sigma with a
    relative floor as bandwidth."""
    mean = float(column.mean())
    sigma = math.sqrt(float(((column - mean) ** 2).mean()))
    sigma = max(sigma, SIGMA_FLOOR_SCALE * max(1.0, abs(mean)))
    return 1.0 / (2.0 * sigma * sigma), 1.0 / math.sqrt(2.0 * math.pi
                                                        * sigma * sigma)


def loo_training_scores(X, rows, psi):
    """Yield (row, leave-one-out training score) for the given rows of
    training matrix X; the score is None as in `aggregate`."""
    m, n = X.shape
    entropies = [entropy_bits(X[:, j]) for j in range(n)]
    total = sum(entropies)
    weights = [1.0 - h / total for h in entropies] if total > 0 else [1.0] * n
    kernels = [kernel(X[:, j]) for j in range(n)]
    for i in rows:
        terms = []
        for j, (tau, norm) in enumerate(kernels):
            others = np.delete(X[:, j], i)
            d = norm * float(np.exp(-tau * (others - X[i, j]) ** 2).sum()) \
                / (m - 1)
            terms.append(weights[j] * d)
        yield i, aggregate(terms, psi)


def model_score(body, x):
    """(score, likelihood) of row x under an ADIFA model body, or None as in
    `aggregate`."""
    terms = []
    for attr, xj in zip(body["attributes"], x):
        values = np.asarray(attr["values"], dtype=float)
        d = attr["norm"] * float(np.exp(-attr["tau"] * (values - xj) ** 2)
                                 .mean())
        terms.append(attr["weight"] * d)
    score = aggregate(terms, body["psi"])
    if score is None:
        return None
    ts = np.asarray(body["training_scores"], dtype=float)
    density = body["meta_norm"] * float(
        np.exp(-body["meta_tau"] * (ts - score) ** 2).mean())
    return score, min(1.0, density / body["calibration_max"])


def pair_count_auc(scores, labels):
    """AUC by counting anomalous-normal pairs; ties count one half."""
    scores = np.asarray(scores, dtype=float)
    labels = np.asarray(labels)
    pos = scores[labels == "anomalous"]
    neg = scores[labels == "normal"]
    wins = ((pos[:, None] > neg[None, :]).sum()
            + 0.5 * (pos[:, None] == neg[None, :]).sum())
    return float(wins) / (len(pos) * len(neg))


def check_fit_model(kind, body, X, width, rows, want=SAMPLE):
    """A trained ADIFA model against the training CSV it came from; the LOO
    scores of the first `want` comparable rows of `rows` are recomputed."""
    if kind != "adifa":
        return [f"model kind is {kind!r}, not 'adifa'"]
    n = len(body["attributes"])
    problems = []
    if n != width or X.shape[1] != width:
        problems.append(f"model has {n} attributes and the CSV "
                        f"{X.shape[1]} columns; expected {width}")
        return problems
    weight_sum = sum(a["weight"] for a in body["attributes"])
    if abs(weight_sum - (n - 1)) > 1e-9 * n:
        problems.append(f"weights sum to {weight_sum!r}, not n-1 = {n - 1}")
    stored = body["training_scores"]
    if len(stored) != X.shape[0]:
        problems.append(f"{len(stored)} training scores for "
                        f"{X.shape[0]} rows")
        return problems
    checked = 0
    for i, score in loo_training_scores(X, rows, body["psi"]):
        if score is None:
            continue
        if not close(stored[i], score):
            problems.append(f"row {i}: LOO training score {stored[i]!r}, "
                            f"recomputed {score!r}")
        checked += 1
        if checked == want:
            break
    if not checked:
        problems.append("no row had a comparable LOO training score")
    return problems


def check_detections(body, samples, want=SAMPLE):
    """Per-document results: (flattened row, score, likelihood, label,
    localized names) against a recomputation from the model body, for the
    first `want` comparable documents of `samples`."""
    problems = []
    checked = 0
    for doc, (x, score, likelihood, label, names) in samples.items():
        if checked == want:
            break
        ref = model_score(body, x)
        if ref is None:
            continue
        checked += 1
        ref_score, ref_lik = ref
        if not (close(score, ref_score) and close(likelihood, ref_lik)):
            problems.append(f"document {doc}: score/likelihood "
                            f"{score!r}/{likelihood!r}, recomputed "
                            f"{ref_score!r}/{ref_lik!r}")
        expected = "anomalous" if ref_lik < body["threshold"] else "normal"
        if label != expected:
            problems.append(f"document {doc}: label {label!r} at "
                            f"likelihood {ref_lik!r}")
    if not checked:
        problems.append("no document had a comparable score")
    return problems


def check_localized(names_by_doc, top_k):
    return [f"document {doc}: localize gave {names!r}"
            for doc, names in names_by_doc.items()
            if len(names) != top_k or len(set(names)) != top_k]


def check_floor(name, value, floor):
    if not value > floor:
        return [f"{name} {value!r} is not above its floor {floor}"]
    return []


def read_folds(path):
    """{algorithm: (fold AUCs, mean)} from an evaluate report's folds.csv."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    out = {}
    for row in rows[1:]:
        if len(row) == 12:
            out[row[0]] = ([float(v) for v in row[1:11]], float(row[11]))
    return out


def check_report(report_dir, tags, recomputed):
    """An evaluate report directory.

    recomputed maps (tag, fold index) to a pair-counting AUC of that fold's
    test scores.
    """
    problems = []
    folds = read_folds(report_dir / "folds.csv")
    for tag in tags:
        if tag not in folds:
            problems.append(f"folds.csv has no complete row for {tag}")
            continue
        aucs, mean = folds[tag]
        if not all(0.0 <= a <= 1.0 for a in aucs):
            problems.append(f"{tag}: fold AUC outside [0, 1]: {aucs!r}")
        if not close(mean, float(np.mean(aucs)), 1e-12):
            problems.append(f"{tag}: mean {mean!r} is not the mean of "
                            f"its folds {float(np.mean(aucs))!r}")
    for (tag, fold), value in recomputed.items():
        if tag in folds and not close(folds[tag][0][fold], value, 1e-12):
            problems.append(f"{tag} fold {fold}: AUC {folds[tag][0][fold]!r}"
                            f", pair counting gives {value!r}")
    for tag in tags:
        problems += check_roc(report_dir / f"roc_{tag}.csv")
    problems += check_friedman(report_dir / "significance.txt")
    return problems


def roc_number(cell):
    """A ROC cell as a float.  The CLI writes repr() of numpy scalars, which
    numpy 2 renders as ``np.float64(0.25)``; both spellings are read."""
    if cell.startswith("np.float64(") and cell.endswith(")"):
        cell = cell[len("np.float64("):-1]
    return float(cell)


def check_roc(path):
    try:
        with open(path, "r", encoding="utf-8", newline="") as fh:
            points = [(roc_number(a), roc_number(b))
                      for a, b in list(csv.reader(fh))[1:]]
    except (OSError, ValueError) as exc:
        return [f"{path.name}: unreadable ({exc})"]
    if len(points) < 2 or points[0] != (0.0, 0.0) or points[-1] != (1.0, 1.0):
        return [f"{path.name}: does not run from (0,0) to (1,1)"]
    for (f0, t0), (f1, t1) in zip(points, points[1:]):
        if f1 < f0 or t1 < t0:
            return [f"{path.name}: not monotone at ({f0}, {t0})"]
    return []


def check_friedman(path):
    try:
        text = path.read_text(encoding="utf-8")
        p = float(text.split("friedman_p ", 1)[1].split()[0])
    except (OSError, IndexError, ValueError):
        return [f"{path.name}: no friedman_p line"]
    if not 0.0 <= p <= 1.0:
        return [f"{path.name}: friedman_p {p!r} outside [0, 1]"]
    return []
