"""The three workloads: what a round does, what it counts, how it is checked.

A workload is driven only through xmlad's public functions.  Rounds are
whole units of the same operations, so the share of failed operations is
the same in every run whatever its seed or length:

- fit: one round is the CLI pipeline a user runs to train a detector
  (schema-parse, extract, flatten, train); an operation is one cli.run call.
- detect: one round is a block of BLOCK documents screened one at a time by
  a single caller (closed loop); an operation is one document.
- evaluate: one round is one ``xmlad evaluate`` call over four algorithms;
  an operation is one algorithm's 5x2 cross-validation.
"""

import contextlib
import json
import time

import numpy as np

import checks
from inputs import BLOCK, EVAL_CORPORA
from xmlad import adifa, cli, evaluate, extract, flatten, model_io
from xmlad.errors import XmladError
from xmlad.schema import SchemaVector

AUC_FLOOR = {"fit": 0.90, "detect": 0.90, "evaluate": 0.95}
TOP_K = 3
GAUGE_SHARE = 0.15  # reference-kernel time per unit of round time
GAUGE_MIN_S = 0.02
EVAL_TAGS = ("adifa-gm", "pga", "gde", "lof")


def no_span(name):
    return contextlib.nullcontext()


class Workload:
    docs_per_round = 0
    min_rounds = 1

    def __init__(self, work, seed):
        self.work = work
        self.seed = seed
        self.attempted = 0
        self.failed = 0
        self.unexpected = []  # failures other than the known NaN evasion
        self.latencies = []

    def ready(self):
        """What the workload loads before it can serve; nothing by default."""

    def timed(self, gauge, seconds=0.0, rounds=None, span=no_span):
        """Run exactly `rounds` whole rounds, or else at least min_rounds and
        then up to the round boundary nearest to `seconds`; return the
        seconds each round took.  The gauge samples the machine's speed
        before the first round and after each one, for GAUGE_SHARE of the
        round's time; that time is not counted."""
        done = 0
        took = []
        gauge.sample(GAUGE_MIN_S)
        start = last = time.perf_counter()
        while True:
            now = time.perf_counter()
            if rounds is not None:
                if done == rounds:
                    break
            elif done >= self.min_rounds and now + (now - last) / 2 - start >= seconds:
                break  # one more round would end further from `seconds`
            last = now
            self.round(done, span)
            took.append(time.perf_counter() - now)
            done += 1
            gauge.sample(max(GAUGE_MIN_S, GAUGE_SHARE * took[-1]))
        return took


class Fit(Workload):
    def __init__(self, work, seed, size):
        super().__init__(work, seed)
        self.docs_per_round = size["fit"]
        w = str(work)
        self.steps = [
            ["schema-parse", f"{w}/schema.xsd", "-o", f"{w}/s.xadschema"],
            ["extract", f"{w}/corpus", "--schema", f"{w}/s.xadschema",
             "-o", f"{w}/fm.xadfm"],
            ["flatten", f"{w}/fm.xadfm", "--schema", f"{w}/s.xadschema",
             "-o", f"{w}/train.csv", "--dict-out", f"{w}/d.xaddict"],
            ["train", "--dataset", f"{w}/train.csv", "--psi", "gm",
             "-o", f"{w}/model.xadmodel"],
        ]

    def round(self, i, span):
        start = time.perf_counter()
        with span("round"):
            for argv in self.steps:
                self.attempted += 1
                rc = cli.run(argv)
                if rc != 0:
                    self.failed += 1
                    self.unexpected.append(f"round {i}: {argv[0]} exit {rc}")
        self.latencies.append(time.perf_counter() - start)

    def check(self):
        w = self.work
        kind, body = checks.read_container(w / "model.xadmodel")
        X = checks.read_matrix(w / "train.csv")
        schema = SchemaVector.load(w / "s.xadschema")
        dictionary = flatten.TfIdfDictionary.load(w / "d.xaddict")
        width = flatten.expected_width(schema, len(dictionary.terms))
        rows = np.random.default_rng([self.seed, 1]).permutation(X.shape[0])
        problems = checks.check_fit_model(kind, body, X, width,
                                          [int(r) for r in rows])
        # the trained model also has to detect: score a labelled held-out set
        held = json.loads((w / "heldout.json").read_text(encoding="utf-8"))
        _, model = model_io.load_model(w / "model.xadmodel")
        fm = extract.build_feature_matrix(held["docs"], schema)
        data = flatten.flatten_matrix(fm, schema, dictionary)
        _, likelihoods, _ = adifa.score_batch(model, data.rows)
        auc = checks.pair_count_auc(1.0 - likelihoods, held["labels"])
        problems += checks.check_floor("fit auc", auc, AUC_FLOOR["fit"])
        return problems, auc


class Detect(Workload):
    docs_per_round = BLOCK

    def __init__(self, work, seed, size):
        super().__init__(work, seed)
        stream = json.loads((work / "stream.json").read_text(encoding="utf-8"))
        self.docs, self.labels, self.nan = (stream["docs"], stream["labels"],
                                            stream["nan"])
        self.min_rounds = len(self.docs) // BLOCK  # one pass over the stream
        self.first = {}  # document index -> (x, score, likelihood, label, names)
        self.mismatched = 0

    def ready(self):
        self.schema = SchemaVector.load(self.work / "schema.xadschema")
        self.dictionary = flatten.TfIdfDictionary.load(
            self.work / "dict.xaddict")
        _, self.model = model_io.load_model(self.work / "model.xadmodel")

    def round(self, i, span):
        n = len(self.docs)
        for k in range(i * BLOCK, (i + 1) * BLOCK):
            doc = k % n
            self.attempted += 1
            start = time.perf_counter()
            try:
                with span("doc"):
                    row = extract.extract_row(self.docs[doc], self.schema)
                    x = flatten.flatten_row(row.features, self.schema,
                                            self.dictionary)
                    result = adifa.classify(self.model, x)
                    names = [c for c, _ in adifa.localize(result, TOP_K)]
            except XmladError as exc:
                self.latencies.append(time.perf_counter() - start)
                if not self.nan[doc]:  # refusing a NaN document is a success
                    self.failed += 1
                    self.unexpected.append(f"document {doc}: {exc}")
                continue
            self.latencies.append(time.perf_counter() - start)
            if self.nan[doc] and result.label == "normal":
                self.failed += 1  # the NaN evasion: let through as normal
            outcome = (x, result.score, result.likelihood, result.label, names)
            if doc not in self.first:
                self.first[doc] = outcome
            elif repr(outcome[1:]) != repr(self.first[doc][1:]):
                self.mismatched += 1

    def check(self):
        problems = []
        if self.mismatched:
            problems.append(f"{self.mismatched} repeated documents got a "
                            "different result")
        _, body = checks.read_container(self.work / "model.xadmodel")
        plain = [d for d in sorted(self.first) if not self.nan[d]]
        order = np.random.default_rng([self.seed, 2]).permutation(len(plain))
        problems += checks.check_detections(
            body, {plain[p]: self.first[plain[p]] for p in order})
        problems += checks.check_localized(
            {d: o[4] for d, o in self.first.items()}, TOP_K)
        auc = checks.pair_count_auc([1.0 - self.first[d][2] for d in plain],
                                    [self.labels[d] for d in plain])
        problems += checks.check_floor("detect auc", auc, AUC_FLOOR["detect"])
        return problems, auc


class Evaluate(Workload):
    def __init__(self, work, seed, size):
        super().__init__(work, seed)
        self.docs_per_round = size["evaluate"]
        # every corpus runs at least once; one round is about 6-13 s here
        self.min_rounds = EVAL_CORPORA
        self.datasets = [work / f"data{k}.csv" for k in range(EVAL_CORPORA)]
        self.reports = [work / f"report{k}" for k in range(EVAL_CORPORA)]
        self.folds_text = [None] * EVAL_CORPORA

    def round(self, i, span):
        k = i % EVAL_CORPORA
        argv = ["--seed", str(self.seed), "evaluate",
                "--dataset", str(self.datasets[k]),
                "--algos", ",".join(EVAL_TAGS), "--standardize",
                "--report", str(self.reports[k])]
        start = time.perf_counter()
        with span("round"):
            rc = cli.run(argv)
        self.latencies.append(time.perf_counter() - start)
        self.attempted += len(EVAL_TAGS)
        if rc != 0:
            self.failed += len(EVAL_TAGS)
            self.unexpected.append(f"round {i}: evaluate exit {rc}")
            return
        text = (self.reports[k] / "folds.csv").read_text(encoding="utf-8")
        if self.folds_text[k] not in (None, text):
            self.unexpected.append(f"round {i}: folds.csv of corpus {k} "
                                   "differs from its first round")
        self.folds_text[k] = text

    def recompute_folds(self, k):
        """Pair-counting AUC of one seeded fold per algorithm on corpus k,
        rebuilt with the split evaluate.cv_5x2 documents: 5 seeded halvings,
        roles swapped, training halves stripped to normal rows."""
        data = flatten.FlatDataset.from_csv(self.datasets[k])
        labels = np.asarray(data.labels)
        m = len(labels)
        rng = np.random.default_rng([self.seed, 3])
        out = {}
        for tag in EVAL_TAGS:
            fold = int(rng.integers(10))
            perm = np.random.default_rng([self.seed, fold // 2]).permutation(m)
            halves = (perm[:m // 2], perm[m // 2:])
            train_idx, test_idx = halves[fold % 2], halves[1 - fold % 2]
            normal = train_idx[labels[train_idx] == "normal"]
            subset = flatten.FlatDataset(column_names=data.column_names,
                                         rows=data.rows[normal],
                                         column_meta=data.column_meta)
            model = evaluate.train_algorithm(tag, subset, min_pts=10,
                                             standardize=True)
            scores = evaluate.anomaly_scores(tag, model, data.rows[test_idx])
            out[(tag, fold)] = checks.pair_count_auc(scores, labels[test_idx])
        return out

    def check(self):
        """Every report is checked; the folds of one seeded corpus are also
        recomputed.  `auc` is the adifa-gm mean AUC averaged over corpora."""
        pick = int(np.random.default_rng([self.seed, 4]).integers(EVAL_CORPORA))
        problems, aucs = [], []
        for k, report in enumerate(self.reports):
            recomputed = self.recompute_folds(k) if k == pick else {}
            problems += [f"corpus {k}: {p}" for p in
                         checks.check_report(report, EVAL_TAGS, recomputed)]
            folds = checks.read_folds(report / "folds.csv")
            auc = folds["adifa-gm"][1] if "adifa-gm" in folds else 0.0
            problems += checks.check_floor(
                f"evaluate corpus {k} adifa-gm mean auc", auc,
                AUC_FLOOR["evaluate"])
            aucs.append(auc)
        return problems, float(np.mean(aucs))


WORKLOADS = {"fit": Fit, "detect": Detect, "evaluate": Evaluate}
