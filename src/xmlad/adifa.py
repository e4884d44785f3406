"""Multi-univariate anomaly detector built from per-attribute Gaussian KDEs.

Each attribute gets a kernel density model whose bandwidth is the population
standard deviation of its training column.  Per-attribute likelihoods are
combined through an entropy-weighted mean (arithmetic, geometric or
harmonic); the distribution of the resulting training scores is itself
modeled with a univariate KDE, whose value at a test score drives the
normal/anomalous decision and is also what gets calibrated into [0, 1].

Every kernel density (per-attribute, leave-one-out and meta) comes from
`_kernel_sums`, which sums each column's kernels over its distinct training
values, weighted by their counts, in fixed-size blocks: memory is O(block),
not O(m^2), and `train`, `score_batch` and `classify` share its arithmetic
bit for bit.  It has two paths.  The exact path sums every kernel; a
leave-one-out sum there counts the row's own value once less, so it is
exact even for an isolated training point.  A wide column, one with more
distinct values than its Hermite expansion has coefficients, is summed
instead from the expansions of its values in boxes one sigma wide (the 1-D
fast Gauss transform of Greengard & Strain, 1991), at a cost per target of
boxes x terms rather than of distinct values.  With each expanded sum comes
a per-target bound on what the expansion leaves out; a cell keeps the
expanded sum only where that bound is below 1e-13 of it, and every other
cell (far targets, isolated leave-one-out points, sums that underflow) is
recomputed on the exact path.  The attribute sums of `train`, `score_batch`
and `classify` take the expansion, and so does the meta KDE's leave-one-out
pass over the m training scores in `train`.  Scoring's meta KDE stays
exact: it is one column, and for the one row of `classify` the expansion's
fixed cost per call is more than the exact sum.
"""

import math
from dataclasses import InitVar, dataclass
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, TooFewRows, check_finite
from .persist import Vector

PSI_TAGS = ("am", "gm", "hm")

_DISTINCT_BIN_LIMIT = 32
_SIGMA_FLOOR_SCALE = 1e-9
_HM_TERM_FLOOR = 1e-300
_BLOCK_CELLS = 1 << 14  # kernel cells per block: 128 KB of float64
# The wide columns' Hermite expansions
_BOX_SIGMAS = 1.0  # box width, in sigma of the column
_TAIL_TARGET = 1e-15  # eps_p the number of terms is chosen for
_CRAMER_K = 1.0865  # |H_n(t)| e^(-t^2/2) <= K 2^(n/2) sqrt(n!)
_KEEP = 1e-13  # largest bound, relative to the sum, that a cell keeps
_TINY = np.finfo(float).tiny  # least normal float


def attribute_entropy(column, counts=None) -> float:
    """Shannon entropy (bits) of a column's empirical distribution.

    Columns with few distinct values are binned on those values, whose
    counts the caller may pass; wider columns use equal-width Sturges
    binning.
    """
    vals = np.asarray(column, dtype=float)
    m = len(vals)
    if counts is None:
        counts = np.unique(vals, return_counts=True)[1]
    if len(counts) > _DISTINCT_BIN_LIMIT:
        n_bins = math.ceil(1 + math.log2(m))
        counts, _ = np.histogram(vals, bins=n_bins)
        counts = counts[counts > 0]
    p = counts / m
    return float(-(p * np.log2(p)).sum())


def compute_weights(entropies) -> list:
    """Entropy-based attribute weights: low entropy earns high weight."""
    h = [float(v) for v in entropies]
    n = len(h)
    if n == 1:
        return [1.0]
    total = sum(h)
    if total <= 0.0:
        return [1.0] * n
    return [1.0 - v / total for v in h]


@dataclass
class AttributeModel:
    values: Vector  # sorted training column
    sigma: float
    tau: float
    norm: float
    weight: float
    entropy: float


class _Group(NamedTuple):
    """Whole columns whose distinct values `_kernel_sums` reads together."""

    cols: np.ndarray  # the table's columns in this group
    base: np.ndarray  # per column: its start in the table's values less
    # its start in the group's
    lens: np.ndarray  # distinct values per column
    starts: np.ndarray  # where each column starts in the group
    values: np.ndarray  # each column's distinct values, in order
    neg: np.ndarray  # -tau of each value's column
    counts: np.ndarray  # of each value
    rows: int  # point rows per block


class _Expansion(NamedTuple):
    """The wide columns' boxes, laid end to end, each with its Hermite
    expansion: with A_n = sum over the box's values v of count(v) s^n / n!,
    s = (v - c) / h', the box's kernel sum at t = (x - c) / h' is
    e^(-t^2) sum_n A_n H_n(t), a polynomial in t times e^(-t^2)."""

    cols: np.ndarray  # the wide columns of the table
    lens: np.ndarray  # boxes per wide column
    starts: np.ndarray  # where each wide column's boxes start
    centres: np.ndarray  # of each box: the midpoint of its least and
    # greatest value
    scales: np.ndarray  # sqrt(tau) of each box's column, 1 / h'
    coeffs: np.ndarray  # (_TERMS, boxes): sum_n A_n H_n(t) in powers of t
    bound: np.ndarray  # K eps_p W of each box, W its total count
    rows: int  # point rows per block


def _tail(p: int) -> float:
    """eps_p, a bound on the sum over n >= p of q^n / sqrt(n!), where
    q = sqrt(2) r and r is a box's half-width in units of h' = 1/sqrt(tau):
    boxes _BOX_SIGMAS sigma wide have q = _BOX_SIGMAS / 2."""
    q = _BOX_SIGMAS / 2.0
    return q ** p / math.sqrt(math.factorial(p)) / (1.0 - q / math.sqrt(p + 1))


_TERMS = next(p for p in range(1, 64) if _tail(p) <= _TAIL_TARGET)


def _hermite_coefficients(p: int) -> np.ndarray:
    """(p, p): row n holds the coefficients of H_n(t) / n! in t^0 ...
    t^(p-1), from H_(n+1) = 2t H_n - 2n H_(n-1) in integers."""
    rows = [[1] + [0] * (p - 1), [0, 2] + [0] * (p - 2)]
    for n in range(1, p - 1):
        rows.append([2 * a - 2 * n * b
                     for a, b in zip([0] + rows[n][:-1], rows[n - 1])])
    return np.array([[c / math.factorial(n) for c in row]
                     for n, row in enumerate(rows[:p])])


_HERMITE = _hermite_coefficients(_TERMS)


def _pack(cols, lens, offsets, values, counts, neg):
    """Groups of whole columns, in the order of `cols`, each holding at most
    _BLOCK_CELLS distinct values or one column that alone holds more."""
    groups, c0, size = [], 0, 0
    for c, j in enumerate(cols):
        if c > c0 and size + lens[j] > _BLOCK_CELLS:
            groups.append(cols[c0:c])
            c0, size = c, 0
        size += lens[j]
    if len(cols):
        groups.append(cols[c0:])
    out = []
    for g in groups:
        starts = np.concatenate([[0], np.cumsum(lens[g])[:-1]])
        base = offsets[g] - starts
        if g[-1] - g[0] == len(g) - 1:  # adjacent in the table: views
            at = slice(offsets[g[0]], offsets[g[-1] + 1])
        else:
            at = np.repeat(base, lens[g]) + np.arange(lens[g].sum())
        out.append(_Group(
            g, base, lens[g], starts, values[at], neg[at], counts[at],
            max(1, _BLOCK_CELLS // lens[g].sum())))
    return out


class _KernelTable:
    """Sorted columns as `_kernel_sums` reads them: each column's distinct
    values laid end to end, with their counts and the column's -tau, in
    groups of whole columns holding at most _BLOCK_CELLS distinct values
    (or one column that alone holds more).

    Each column's values are also cut into boxes _BOX_SIGMAS sigma wide,
    from its least value.  A wide column, one with more distinct values
    than its expansion has coefficients (boxes x _TERMS), gets a group of
    its own in `wide`, for its exact sums, and the Hermite moments of its
    boxes (`expansion`); `narrow` groups the other columns."""

    def __init__(self, columns, taus):
        taus = np.asarray(taus, dtype=float)
        # where each run of equal values starts in its sorted column
        firsts = [np.flatnonzero(np.concatenate(([True], c[1:] != c[:-1])))
                  for c in columns]
        lens = np.array([len(f) for f in firsts])
        values = np.concatenate([c[f] for c, f in zip(columns, firsts)])
        counts = np.concatenate([np.diff(f, append=len(c))
                                 for c, f in zip(columns, firsts)]
                                ).astype(float)
        col = np.repeat(np.arange(len(columns)), lens)
        self.offsets = np.concatenate([[0], np.cumsum(lens)])
        neg = np.repeat(-taus, lens)
        box = values - values[self.offsets[:-1]][col]
        box *= (np.sqrt(2.0 * taus) / _BOX_SIGMAS)[col]
        np.floor(box, out=box)
        new = np.empty(len(box), dtype=bool)
        np.not_equal(box[1:], box[:-1], out=new[1:])
        new[self.offsets[:-1]] = True
        first = np.flatnonzero(new)
        del box, new  # per-value temporaries set the peak of a model load
        boxes = np.bincount(col[first], minlength=len(lens))
        wide = lens > boxes * _TERMS

        def pack(cols):
            return _pack(cols, lens, self.offsets, values, counts, neg)
        self.narrow = pack(np.flatnonzero(~wide))
        self.wide = [pack(np.array([j]))[0] for j in np.flatnonzero(wide)]
        self.expansion = None
        if not wide.any():
            return
        # the wide columns' values, and where each of their boxes starts
        on = wide[col]
        first = (np.cumsum(on) - 1)[first[on[first]]]
        s, term = values[on], counts[on]
        del on, col
        sizes = np.diff(first, append=len(s))
        centres = (s[first] + s[first + sizes - 1]) / 2.0
        scales = np.sqrt(taus)[np.flatnonzero(wide)].repeat(boxes[wide])
        s -= centres.repeat(sizes)
        s *= scales.repeat(sizes)
        moments = []
        for n in range(_TERMS):  # sums of count s^n
            if n:
                term *= s
            moments.append(np.add.reduceat(term, first))
        self.expansion = _Expansion(
            np.flatnonzero(wide), boxes[wide],
            np.concatenate([[0], np.cumsum(boxes[wide])[:-1]]), centres,
            scales, sum(h[:, None] * a for h, a in zip(_HERMITE, moments)),
            _CRAMER_K * _tail(_TERMS) * moments[0],
            max(1, _BLOCK_CELLS // len(first)))


@dataclass
class AdifaModel:
    """A trained model.  Its kernel tables, which `_score` reads, come from
    `train` (`tables`) or are built once at loading; they are not fields,
    so they are not persisted.  Nothing in the package changes a model
    after it is built, so they never go stale."""

    attributes: list[AttributeModel]
    psi: str  # one of PSI_TAGS
    training_scores: Vector
    meta_sigma: float
    meta_tau: float
    meta_norm: float
    calibration_max: float
    threshold: float
    column_names: tuple
    tables: InitVar[tuple | None] = None  # (attribute, meta) _KernelTables

    def __post_init__(self, tables):
        shape = self.training_scores.shape
        if ({am.values.shape for am in self.attributes} != {shape}
                or not self.training_scores.size):
            raise ValueError("attribute values and training scores must be"
                             " non-empty columns of one length")
        self._norms, self._weights = np.array(
            [(am.norm, am.weight) for am in self.attributes]).T
        self._names = np.array(self.column_names, dtype=object)
        self._kernels, self._meta = tables or (
            _KernelTable([am.values for am in self.attributes],
                         [am.tau for am in self.attributes]),
            _KernelTable([np.sort(self.training_scores)], [self.meta_tau]))

    @property
    def n_attributes(self) -> int:
        return len(self.attributes)


@dataclass
class DetectionResult:
    score: float
    likelihood: float
    label: str
    per_attribute: tuple  # (column_name, d_j) sorted ascending by d_j


def _fit_kernel(values: np.ndarray):
    """Each column's sigma, tau and norm, along the last axis of values."""
    sigma = np.maximum(values.std(axis=-1), _SIGMA_FLOOR_SCALE * np.maximum(
        1.0, np.abs(values.mean(axis=-1))))
    tau = 1.0 / (2.0 * sigma * sigma)
    norm = 1.0 / np.sqrt(2.0 * np.pi * sigma * sigma)
    return sigma, tau, norm


def _group_sums(g: _Group, points, own=None) -> np.ndarray:
    """One group's kernel sums, for points (t, columns of g) and, with
    `own`, the row's own indices into the table's values (t, columns of g).

    A block is several point rows, each point repeated over its column's
    distinct values.  Memory is O(block) beyond the output, and each sum
    runs over its column's values in order, whatever the number of rows.
    Points and values are finite, and tau > 0 bounds the values (sigma^2 is
    finite, sigma >= 1e-9 |mean|), so d is finite and only (-tau d) d can
    overflow, to -inf: a far point's kernels are exp's exact 0.
    """
    out = np.empty(points.shape)
    work = np.empty(min(g.rows, len(points)) * len(g.values))
    for lo in range(0, len(points), g.rows):
        block = slice(lo, lo + g.rows)
        diff = np.repeat(points[block], g.lens, axis=1)
        diff -= g.values
        # (-tau d) d, as in the per-centre formula, in the one buffer
        k = work[:diff.size].reshape(diff.shape)
        with np.errstate(over="ignore"):
            np.multiply(g.neg, diff, out=k)
            k *= diff
        np.exp(k, out=k)
        k *= g.counts
        if own is not None:  # exp(0) = 1 at the row's own value
            at = own[block] - g.base
            k[np.arange(len(k))[:, None], at] = g.counts[at] - 1.0
        np.add.reduceat(k, g.starts, axis=1, out=out[block])
    return out


def _fill(out, g: _Group, points, own, rows=None):
    """Write g's exact sums into out, for every row or the given rows."""
    at = (slice(None), g.cols) if rows is None else np.ix_(rows, g.cols)
    out[at] = _group_sums(g, points[at], None if own is None else own[at])


def _hermite_sums(e: _Expansion, points, loo: bool):
    """The wide columns' kernel sums from their box expansions, and which
    cells keep them, for points (t, wide columns).

    S = sum over boxes B of sum over n < _TERMS of A_n^B h_n(t_B), with
    t_B = (x - c_B) / h' and h_n(t) = H_n(t) e^(-t^2) the Hermite functions
    (Greengard & Strain 1991), by Horner's rule on each box's polynomial.
    By Cramer's inequality, |H_n(t)| e^(-t^2/2) <= K 2^(n/2) sqrt(n!), so
    the terms left out sum to at most E = K eps_p sum_B W_B e^(-t_B^2/2).
    Horner's rounding error is at most about 2 _TERMS ulps of
    sum_B W_B e^(-t_B^2 + 2 r |t_B| + r^2), r the boxes' half-width in h',
    which is below 10 E.  With `loo` the row's own value counts once less:
    its kernel is exp(0) = 1, so S is S - 1.  A cell keeps S where S - E > 0,
    S is a normal float and E <= _KEEP (S - E), so within about 1e-12 of the
    exact sum; any other cell is left to the exact sum.  Far out, t or the
    polynomial overflows to +-inf where e^(-t^2/2) is 0, and inf 0 makes S
    NaN (points are finite and tau > 0, so nothing else is non-finite); no
    cell keeps a NaN, so the exact sum refills it.
    """
    sums, bound = np.empty(points.shape), np.empty(points.shape)
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, len(points), e.rows):
            block = slice(lo, lo + e.rows)
            t = np.repeat(points[block], e.lens, axis=1)
            t -= e.centres
            t *= e.scales
            g = np.square(t)
            g *= -0.5
            np.exp(g, out=g)  # e^(-t^2/2)
            np.add.reduceat(g * e.bound, e.starts, axis=1, out=bound[block])
            poly = np.empty_like(t)
            poly[:] = e.coeffs[-1]
            for c in e.coeffs[-2::-1]:
                poly *= t
                poly += c
            poly *= g
            poly *= g
            np.add.reduceat(poly, e.starts, axis=1, out=sums[block])
    if loo:
        sums -= 1.0
    excess = sums - bound
    kept = (excess > 0.0) & (sums >= _TINY) & (bound <= _KEEP * excess)
    return sums, kept


def _kernel_sums(table: _KernelTable, points, own=None,
                 expand=False) -> np.ndarray:
    """Gaussian kernel sums: out[i, j] = sum over the distinct values v of
    column j of count(v) exp(-tau_j (points[i, j] - v)^2), for points (t, n).
    With `own` (t, n), the indices of the points in the table's values,
    each point's own value counts once less: the leave-one-out sum, with no
    exp(0) to cancel.

    Every sum is exact, by `_group_sums`.  With `expand`, a wide column's
    cells come from `_hermite_sums` wherever its bound keeps them, and from
    the same exact sums elsewhere.
    """
    out = np.empty(points.shape)
    e = table.expansion if expand else None
    for g in table.narrow + table.wide if e is None else table.narrow:
        _fill(out, g, points, own)
    if e is not None:
        sums, kept = _hermite_sums(e, points[:, e.cols], own is not None)
        out[:, e.cols] = sums
        for i in np.flatnonzero(~kept.all(axis=0)):
            _fill(out, table.wide[i], points, own,
                  np.flatnonzero(~kept[:, i]))
    return out


def attribute_likelihood(model: AttributeModel, x: float) -> float:
    """Average Gaussian kernel mass the training column places at x."""
    table = _KernelTable([model.values], [model.tau])
    return float(model.norm * (_kernel_sums(
        table, np.array([[x]], dtype=float))[0, 0] / len(model.values)))


def _aggregate(weighted: np.ndarray, psi: str) -> np.ndarray:
    """Apply the mean tagged by psi along the last axis.

    Any zero term collapses the geometric and harmonic means to zero
    (limit convention); the geometric mean otherwise runs in log space.
    """
    if psi == "am":
        return weighted.mean(axis=-1)
    has_zero = (weighted <= 0.0).any(axis=-1)
    if psi == "gm":
        # exact down to subnormal terms; a zero term's -inf is masked below
        with np.errstate(divide="ignore"):
            out = np.exp(np.log(weighted).mean(axis=-1))
    elif psi == "hm":
        with np.errstate(divide="ignore"):
            out = weighted.shape[-1] / (1.0 / np.maximum(
                weighted, _HM_TERM_FLOOR)).sum(axis=-1)
    else:
        raise ValueError(f"unknown aggregation tag {psi!r}")
    return np.where(has_zero, 0.0, out)


def train(dataset, psi: str = "gm", threshold: float = 0.5) -> AdifaModel:
    """Fit the full model: attribute KDEs, entropy weights, leave-one-out
    training scores, and the meta KDE over those scores."""
    if psi not in PSI_TAGS:
        raise ValueError(f"psi must be one of {PSI_TAGS}")
    X = np.asarray(dataset.rows, dtype=float)
    m, n = X.shape
    if m < 2:
        raise TooFewRows(f"need at least 2 rows, got {m}")
    check_finite(X)

    columns = X.T.copy()  # C order: each row reduces as a 1-D column
    sigmas, taus, norms = _fit_kernel(columns)
    # each cell's index among its column's distinct values, and their counts
    distinct = [np.unique(c, return_inverse=True, return_counts=True)[1:]
                for c in columns]
    entropies = [attribute_entropy(c, counts)
                 for c, (_, counts) in zip(columns, distinct)]
    weights = np.array(compute_weights(entropies))

    columns.sort(axis=1)
    kernels = _KernelTable(columns, taus)
    own = kernels.offsets[:-1] + np.column_stack([i for i, _ in distinct])
    loo = norms * _kernel_sums(kernels, X, own, expand=True) / (m - 1)
    scores = _aggregate(weights * loo, psi)

    meta_sigma, meta_tau, meta_norm = _fit_kernel(scores)
    own = np.unique(scores, return_inverse=True)[1]
    meta = _KernelTable([np.sort(scores)], [meta_tau])
    loo_meta = meta_norm * _kernel_sums(
        meta, scores[:, None], own[:, None], expand=True)[:, 0] / (m - 1)

    attributes = [
        AttributeModel(values=columns[j], sigma=float(sigmas[j]),
                       tau=float(taus[j]), norm=float(norms[j]),
                       weight=float(weights[j]), entropy=float(entropies[j]))
        for j in range(n)
    ]
    return AdifaModel(attributes=attributes, psi=psi, training_scores=scores,
                      meta_sigma=float(meta_sigma), meta_tau=float(meta_tau),
                      meta_norm=float(meta_norm),
                      calibration_max=float(loo_meta.max()),
                      threshold=float(threshold),
                      column_names=tuple(dataset.column_names),
                      tables=(kernels, meta))


def _score(model: AdifaModel, X: np.ndarray):
    """Per-attribute likelihoods (t, n), scores, likelihoods and meta
    densities of the rows of X."""
    if X.ndim != 2 or X.shape[1] != model.n_attributes:
        raise DimensionMismatch(
            f"expected shape (*, {model.n_attributes}), got {X.shape}")
    check_finite(X)
    m = len(model.training_scores)
    d = model._norms * (_kernel_sums(model._kernels, X, expand=True) / m)
    scores = _aggregate(model._weights * d, model.psi)
    densities = model.meta_norm * (_kernel_sums(
        model._meta, scores[:, None])[:, 0] / m)
    likelihoods = np.minimum(1.0, densities / model.calibration_max)
    return d, scores, likelihoods, densities


def classify(model: AdifaModel, x) -> DetectionResult:
    x = np.asarray(x, dtype=float)
    if x.shape != (model.n_attributes,):
        raise DimensionMismatch(
            f"expected {model.n_attributes} values, got {x.shape}")
    return classify_batch(model, x[None, :])[0]


def classify_batch(model: AdifaModel, X) -> list:
    """`classify` of every row of X, from one `_score` call."""
    d, scores, likelihoods, _ = _score(model, np.asarray(X, dtype=float))
    order = np.argsort(d, axis=1, kind="stable")
    names = model._names[order].tolist()
    values = np.take_along_axis(d, order, axis=1).tolist()
    return [DetectionResult(
        score=s, likelihood=lik,
        label="anomalous" if lik < model.threshold else "normal",
        per_attribute=tuple(zip(row_names, row_values)))
        for s, lik, row_names, row_values in zip(
            scores.tolist(), likelihoods.tolist(), names, values)]


def localize(result: DetectionResult, top_k: int):
    """First top_k columns of the ascending per-attribute likelihood list."""
    return list(result.per_attribute[:max(0, top_k)])


def score_batch(model: AdifaModel, X):
    """Vectorized scores/likelihoods/densities for a matrix of instances."""
    _, scores, likelihoods, densities = _score(
        model, np.asarray(X, dtype=float))
    return scores, likelihoods, densities
