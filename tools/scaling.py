"""Scaling record of ingest, of ADIFA's `train` and `score_batch`, and of a
four-algorithm `xmlad evaluate`, as a BENCH_<n>.json.

    PYTHONPATH=<checkout>/src python3 tools/scaling.py --label TEXT \
        --out BENCH_<n>.json [--sizes 1000 4000 16000] [--runs FILE ...]

Times `adifa.train` (psi gm, in s) and `adifa.score_batch` (in ms per row,
over 500 held-out documents) on the demo corpus of
`synth.generate_normal_corpus(seed=11)` at each size.  Ingest is timed
through the CLI too: `extract` of that corpus from a directory of .xml
files and `flatten` of its feature matrix, building the dictionary; and
per document, `extract_row` + `flatten_row` of 1,000 held-out documents
(seed 12) against that schema and dictionary, in µs.  Detection is timed
per document on the same 1,000, in µs and best of 3 at every size: the
loop a detector runs, `extract_row`, `flatten_row`, `classify` against the
size's gm model and `localize` of the top 3.  At each size it also
times `cli.run(["--seed", "1", "evaluate", "--algos",
"adifa-gm,pga,gde,lof", ...])` on that corpus with half of its documents
injected by `inject.make_anomalous_corpus` (anomaly index 0.05, every
attack class, seed 13) and flattened with their labels; it goes through the
CLI, so the same script times any checkout's `evaluate`.  A control of 121
all-distinct normal columns at m = 2,000, where no value repeats, times
`train`, `score_batch` of 1,000 rows and `classify`.  Times are the best
of 3 runs, or of 1 above m = 4,000.  Each `--runs` file holds the result
line of one `perfbench/run.py` run; the record keeps every value and the
median and quartiles of each end-to-end metric.  The program measured is
whichever `xmlad` PYTHONPATH names, so one copy of this script measures
any checkout.
"""

import argparse
import json
import os
import platform
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import scipy

from xmlad import adifa, cli, extract, flatten, inject, synth
# imported before any timing, so that no timed run loads scipy.special
from xmlad import evaluate  # noqa: F401
from xmlad.schema import SchemaVector, parse_xsd

CORPUS_SEED = 11
HELDOUT_SEED = 12
HELDOUT = 500
INGEST_DOCS = 1000
CONTROL_M = 2000
INJECT_SEED = 13
EVAL_ALGOS = "adifa-gm,pga,gde,lof"


def best_of(repeats, call):
    """The shortest of `repeats` timed calls, in s, and the last result."""
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = call()
        times.append(time.perf_counter() - start)
    return min(times), result


def demo_data(m):
    """m flattened normal documents and HELDOUT more, one dictionary."""
    schema = parse_xsd(synth.demo_schema_xsd())
    params = synth.demo_params(schema, seed=0)
    fm = extract.build_feature_matrix(
        synth.generate_normal_corpus(schema, params, m, seed=CORPUS_SEED),
        schema)
    dictionary = flatten.build_dictionary(fm, schema)
    held = extract.build_feature_matrix(
        synth.generate_normal_corpus(schema, params, HELDOUT,
                                     seed=HELDOUT_SEED), schema)
    return (flatten.flatten_matrix(fm, schema, dictionary),
            flatten.flatten_matrix(held, schema, dictionary).rows)


def labelled_csv(m, path):
    """The m documents of `demo_data`, half of them injected, flattened
    with their labels into the CSV at path."""
    schema = parse_xsd(synth.demo_schema_xsd())
    params = synth.demo_params(schema, seed=0)
    docs, labels, _ = inject.make_anomalous_corpus(
        synth.generate_normal_corpus(schema, params, m, seed=CORPUS_SEED),
        schema, inject.InjectionSpec(anomaly_index=0.05, seed=INJECT_SEED),
        fraction_anomalous=0.5)
    fm = extract.build_feature_matrix(docs, schema)
    flatten.flatten_matrix(fm, schema, flatten.build_dictionary(fm, schema),
                           labels=list(labels)).to_csv(path)


def ingest(m, repeats, work, model):
    """Best times of CLI `extract` and `flatten` on the m documents of
    `demo_data`, of one document's `extract_row` + `flatten_row`, and of
    its detection against model."""
    schema = parse_xsd(synth.demo_schema_xsd())
    params = synth.demo_params(schema, seed=0)
    work.mkdir()
    (work / "corpus").mkdir()
    for i, doc in enumerate(synth.generate_normal_corpus(
            schema, params, m, seed=CORPUS_SEED)):
        (work / "corpus" / f"{i:06d}.xml").write_text(doc, encoding="utf-8")
    schema.save(work / "s.xadschema")
    s, fm, d = (str(work / name)
                for name in ("s.xadschema", "fm.xadfm", "d.xaddict"))
    runs = {"extract": ["extract", str(work / "corpus"), "--schema", s,
                        "-o", fm],
            "flatten": ["flatten", fm, "--schema", s, "--dict-out", d,
                        "-o", str(work / "data.csv")]}
    out = {}
    for name, argv in runs.items():
        out[f"{name}_s"], rc = best_of(repeats, lambda: cli.run(argv))
        if rc != 0:
            raise SystemExit(f"{name} at m = {m} exited {rc}")
    # loaded from their files, as a detector loads them
    loaded, dictionary = SchemaVector.load(s), flatten.TfIdfDictionary.load(d)
    held = synth.generate_normal_corpus(schema, params, INGEST_DOCS,
                                        seed=HELDOUT_SEED)
    per_doc_s, _ = best_of(repeats, lambda: [flatten.flatten_row(
        extract.extract_row(doc, loaded).features, loaded, dictionary)
        for doc in held])
    out["ingest_us_per_doc"] = 1e6 * per_doc_s / len(held)
    detect_s, _ = best_of(3, lambda: [adifa.localize(adifa.classify(
        model, flatten.flatten_row(extract.extract_row(doc, loaded).features,
                                   loaded, dictionary)), 3) for doc in held])
    out["detect_us_per_doc"] = 1e6 * detect_s / len(held)
    return out


def evaluate_s(m, repeats, work):
    """Best time of `xmlad --seed 1 evaluate` on the labelled corpus."""
    labelled_csv(m, work / "labelled.csv")
    argv = ["--seed", "1", "evaluate", "--algos", EVAL_ALGOS,
            "--dataset", str(work / "labelled.csv"),
            "--report", str(work / "report")]
    seconds, rc = best_of(repeats, lambda: cli.run(argv))
    if rc != 0:
        raise SystemExit(f"evaluate at m = {m} exited {rc}")
    return seconds


def demo_sizes(sizes):
    out = []
    with tempfile.TemporaryDirectory() as work:
        for m in sizes:
            data, held = demo_data(m)
            repeats = 3 if m <= 4000 else 1
            train_s, model = best_of(repeats,
                                     lambda: adifa.train(data, psi="gm"))
            score_s, _ = best_of(repeats,
                                 lambda: adifa.score_batch(model, held))
            out.append({"m": m, "columns": data.rows.shape[1],
                        "distinct_values": int(sum(len(np.unique(c))
                                                   for c in data.rows.T)),
                        "repeats": repeats, "train_s": train_s,
                        "score_batch_ms_per_row": 1e3 * score_s / len(held),
                        **ingest(m, repeats, Path(work) / f"ingest{m}",
                                 model),
                        "evaluate_algos": EVAL_ALGOS,
                        "evaluate_s": evaluate_s(m, repeats, Path(work))})
            print(json.dumps(out[-1]), file=sys.stderr)
    return out


def control():
    rng = np.random.default_rng(CORPUS_SEED)
    scale = np.arange(1, 122)
    rows = rng.normal(size=(CONTROL_M, 121)) * scale
    names = tuple(f"c{j}" for j in range(121))
    data = flatten.FlatDataset(column_names=names, rows=rows)
    points = rng.normal(size=(1000, 121)) * scale
    train_s, model = best_of(3, lambda: adifa.train(data, psi="gm"))
    score_s, _ = best_of(3, lambda: adifa.score_batch(model, points))
    classify_s, _ = best_of(3, lambda: [adifa.classify(model, x)
                                        for x in points[:200]])
    return {"m": CONTROL_M, "columns": 121, "repeats": 3, "train_s": train_s,
            "score_batch_s_1000_rows": score_s,
            "classify_us": 1e6 * classify_s / 200}


def runs_summary(paths):
    """Every end-to-end value of the runs, with median and quartiles."""
    results = [json.loads(open(p, encoding="utf-8").read().splitlines()[-1])
               for p in paths]
    summary = {"files": [os.path.basename(p) for p in paths],
               "metrics": {}}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        q1, median, q3 = np.percentile(values, [25, 50, 75])
        summary["metrics"][name] = {"values": values, "median": median,
                                    "q1": q1, "q3": q3}
    return summary


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--label", required=True,
                        help="what is measured, say a commit")
    parser.add_argument("--out", required=True)
    parser.add_argument("--sizes", type=int, nargs="+",
                        default=[1000, 4000, 16000])
    parser.add_argument("--runs", nargs="*", default=[],
                        help="perfbench/run.py result lines, one a file")
    args = parser.parse_args(argv)
    record = {
        "label": args.label,
        "command": " ".join([
            "PYTHONPATH=<checkout>/src python3 tools/scaling.py --label",
            json.dumps(args.label),
            "--out", os.path.basename(args.out),
            "--sizes", *map(str, args.sizes),
            *(["--runs", *map(os.path.basename, args.runs)]
              if args.runs else [])]),
        "machine": {"nproc": len(os.sched_getaffinity(0)),
                    "python": platform.python_version(),
                    "numpy": np.__version__, "scipy": scipy.__version__},
        "demo_corpus": demo_sizes(args.sizes),
        "all_distinct_control": control(),
    }
    if args.runs:
        record["benchmark_runs"] = runs_summary(args.runs)
    with open(args.out, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=1)
        fh.write("\n")


if __name__ == "__main__":
    main(sys.argv[1:])
