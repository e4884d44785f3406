"""In-memory span tracing of xmlad's public functions, from outside the package.

A `Tracer` rebinds each traced function in every loaded ``xmlad`` module
that holds it (``cli`` imports functions by name, so patching the defining
module alone would miss those calls), records one span per call and puts
everything back on `uninstall`.  Spans stay in memory until the run ends.
"""

import statistics
import sys
import time
import tracemalloc
from contextlib import contextmanager


def _cli_name(args, kwargs):
    argv = list(args[0])
    while argv and argv[0].startswith("-"):
        argv = argv[2:] if argv[0] == "--seed" else argv[1:]
    return "cli." + (argv[0] if argv else "?")


def _cv_name(args, kwargs):
    return "evaluate.cv_5x2." + (args[1] if len(args) > 1 else kwargs["tag"])


def _dumps_counts(args, kwargs, result):
    return {"kind": args[0], "bytes": len(result.encode("utf-8"))}


def _loads_counts(args, kwargs, result):
    return {"kind": args[0], "bytes": len(args[1].encode("utf-8"))}


def _train_counts(args, kwargs, result):
    m, n = result.training_scores.shape[0], result.n_attributes
    # one m x m kernel matrix per attribute plus one for the meta KDE
    return {"kernel_evals": (n + 1) * m * m}


# (module, attribute, span name or None for "<module>.<attribute>",
#  counts(args, kwargs, result) or None, record tracemalloc peak)
LAYERS = (
    ("xmlad.cli", "run", _cli_name, None, False),
    ("xmlad.schema", "parse_xsd", None, None, False),
    ("xmlad.extract", "build_feature_matrix", None, None, False),
    ("xmlad.extract", "extract_row", None, None, False),
    ("xmlad.persist", "dumps", None, _dumps_counts, False),
    ("xmlad.persist", "loads", None, _loads_counts, False),
    ("xmlad.flatten", "build_dictionary", None, None, False),
    ("xmlad.flatten", "flatten_matrix", None, None, False),
    ("xmlad.flatten", "flatten_row", None, None, False),
    ("xmlad.flatten", "FlatDataset.to_csv", None, None, False),
    ("xmlad.flatten", "FlatDataset.from_csv", None, None, False),
    ("xmlad.adifa", "train", None, _train_counts, True),
    ("xmlad.adifa", "classify", None, None, False),
    ("xmlad.adifa", "localize", None, None, False),
    ("xmlad.adifa", "score_batch", None, None, True),
    ("xmlad.model_io", "save_model", None, None, False),
    ("xmlad.model_io", "load_model", None, None, False),
    ("xmlad.baselines", "pga_train", None, None, False),
    ("xmlad.baselines", "pga_scores", None, None, False),
    ("xmlad.baselines", "gde_train", None, None, False),
    ("xmlad.baselines", "gde_scores", None, None, False),
    ("xmlad.baselines", "lof_train", None, None, False),
    ("xmlad.baselines", "lof_scores", None, None, False),
    ("xmlad.evaluate", "cv_5x2", _cv_name, None, False),
    ("xmlad.evaluate", "roc_curve", None, None, False),
)


class Span:
    __slots__ = ("name", "start", "end", "parent", "root", "counts")

    def __init__(self, name, start, parent, root):
        self.name = name
        self.start = start
        self.end = None
        self.parent = parent
        self.root = root
        self.counts = None

    @property
    def duration(self):
        return self.end - self.start


class Tracer:
    def __init__(self):
        self.spans = []
        self._stack = []
        self._undo = []

    @contextmanager
    def span(self, name):
        parent = self._stack[-1] if self._stack else None
        index = len(self.spans)
        root = self.spans[parent].root if parent is not None else index
        record = Span(name, time.perf_counter(), parent, root)
        self.spans.append(record)
        self._stack.append(index)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    def _wrap(self, fn, name, counts, alloc):
        tracer = self

        def traced(*args, **kwargs):
            label = name(args, kwargs) if callable(name) else name
            with tracer.span(label) as record:
                start_alloc = alloc and not tracemalloc.is_tracing()
                if start_alloc:
                    tracemalloc.start()
                try:
                    result = fn(*args, **kwargs)
                finally:
                    if start_alloc:
                        peak = tracemalloc.get_traced_memory()[1]
                        tracemalloc.stop()
                        record.counts = {"peak_alloc_bytes": peak}
                if counts is not None:
                    record.counts = {**(record.counts or {}),
                                     **counts(args, kwargs, result)}
                return result

        return traced

    def install(self):
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "xmlad" or n.startswith("xmlad."))]
        for module_name, attr, name, counts, alloc in LAYERS:
            module = sys.modules[module_name]
            short = module_name.split(".")[-1]
            label = name or f"{short}.{attr.split('.')[-1]}"
            if "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = cls.__dict__[method]
                bound = getattr(cls, method)
                wrapped = self._wrap(bound, label, counts, alloc)
                setattr(cls, method, staticmethod(wrapped)
                        if isinstance(raw, classmethod) else wrapped)
                self._undo.append((cls, method, raw))
                continue
            original = getattr(module, attr)
            wrapped = self._wrap(original, label, counts, alloc)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapped)
                        self._undo.append((mod, key, original))

    def uninstall(self):
        for owner, key, value in reversed(self._undo):
            setattr(owner, key, value)
        self._undo.clear()


def layer_metrics(spans):
    """Per-span-name figures used by the per-layer metrics.

    For each name: ``per_root_s``, the median over the root spans (rounds,
    documents or set-up) that call it of the time spent in it; ``call_us``,
    the median of single calls in microseconds; and the counts recorded at
    that boundary.
    """
    per_root, calls, counts = {}, {}, {}
    for s in spans:
        if s.parent is None:
            continue
        per_root.setdefault(s.name, {}).setdefault(s.root, 0.0)
        per_root[s.name][s.root] += s.duration
        calls.setdefault(s.name, []).append(s.duration)
        if s.counts:
            counts.setdefault(s.name, []).append(s.counts)
    out = {}
    for name, by_root in per_root.items():
        out[name] = {"per_root_s": statistics.median(by_root.values()),
                     "call_us": statistics.median(calls[name]) * 1e6,
                     "counts": counts.get(name, [])}
    return out


def self_time_shares(spans):
    """Each layer's self time as a share of the root spans' total time.

    A layer is the module part of a span name (``cli``, ``extract``, ...);
    the roots' own self time is the benchmark loop itself (``bench``).
    """
    child_time = [0.0] * len(spans)
    for s in spans:
        if s.parent is not None:
            child_time[s.parent] += s.duration
    total = sum(s.duration for s in spans if s.parent is None)
    shares = {}
    for i, s in enumerate(spans):
        layer = "bench" if s.parent is None else s.name.split(".")[0]
        shares[layer] = shares.get(layer, 0.0) + s.duration - child_time[i]
    return {k: v / total for k, v in sorted(shares.items())} if total else {}
