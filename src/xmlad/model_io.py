"""The algorithm table and model persistence.

`ALGORITHMS` maps each algorithm tag to everything the rest of the package
needs to know about it: the container kind it is saved under, its model
dataclass, how to train it, its native scores and their polarity, and (for
the baselines) the rule that labels those scores.  Adding an algorithm is
one entry.

Each model kind gets its own container header (xmlad-adifa, xmlad-pga, ...)
whose body holds one key per dataclass field (`persist.encode`/`decode`).
All floats survive serialization exactly, and kernel sums iterate stored
values in stored order, so a loaded model reproduces classification outputs
bit for bit.
"""

from dataclasses import dataclass
from functools import partial
from typing import Callable, Optional

from . import adifa, baselines, persist
from .adifa import AdifaModel
from .baselines import GdeModel, LofModel, PgaModel
from .errors import CorruptFile, VersionMismatch


@dataclass(frozen=True)
class Algorithm:
    kind: str  # container kind, and what load_model reports
    model: type  # model dataclass
    train: Callable  # (dataset, **opts) -> model; unused opts are ignored
    scores: Callable  # (model, X) -> native scores
    larger_is_normal: bool  # native scores grow with normality
    # (model, native scores) -> boolean array, True where anomalous
    anomalous: Optional[Callable] = None


def _pick(opts: dict, *names) -> dict:
    return {name: opts[name] for name in names if name in opts}


# The calls go through the module attributes at call time, so a wrapper
# installed on, say, baselines.pga_scores also sees the calls made here.
def _adifa(psi: str) -> Algorithm:
    return Algorithm(
        "adifa", AdifaModel,
        lambda ds, **o: adifa.train(ds, psi=psi, **_pick(o, "threshold")),
        lambda m, X: adifa.score_batch(m, X)[2], True)


def _gde(sign_mode: str) -> Algorithm:
    return Algorithm(
        "gde", GdeModel,
        lambda ds, **o: baselines.gde_train(ds, sign_mode=sign_mode,
                                            **_pick(o, "standardize")),
        lambda m, X: baselines.gde_scores(m, X), True,
        lambda m, s: ~(s > 0.5))


ALGORITHMS = {
    **{f"adifa-{psi}": _adifa(psi) for psi in adifa.PSI_TAGS},
    "pga": Algorithm(
        "pga", PgaModel,
        lambda ds, **o: baselines.pga_train(
            ds, **_pick(o, "alpha", "k", "standardize")),
        lambda m, X: baselines.pga_scores(m, X), False,
        lambda m, s: s >= m.cutoff),
    "gde": _gde("corrected"),
    "gde-literal": _gde("literal"),
    "lof": Algorithm(
        "lof", LofModel,
        lambda ds, **o: baselines.lof_train(
            ds, **_pick(o, "min_pts", "standardize")),
        lambda m, X: baselines.lof_scores(m, X), False,
        lambda m, s: s >= m.lof_max),
}


def algorithm(tag: str) -> Algorithm:
    try:
        return ALGORITHMS[tag]
    except KeyError:
        raise ValueError(f"unknown algorithm tag {tag!r}") from None


def save_model(model, path) -> None:
    kinds = {a.model: a.kind for a in ALGORITHMS.values()}
    if type(model) not in kinds:
        raise TypeError(f"unsupported model type {type(model).__name__}")
    persist.write(path, kinds[type(model)], persist.encode(model))


def load_model(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    header = text.split("\n", 1)[0]
    for a in ALGORITHMS.values():
        if header.startswith(f"xmlad-{a.kind} v"):
            return a.kind, persist.loads(a.kind, text,
                                         partial(persist.decode, a.model))
    if header.startswith("xmlad-"):
        raise VersionMismatch(f"unknown model header {header!r}")
    raise CorruptFile("not an xmlad model file")
