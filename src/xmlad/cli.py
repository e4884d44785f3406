"""Command-line entry point wiring the pipeline stages together.

Exit codes: 0 success, 1 usage error, 2 data error.  Diagnostics go to
stderr; data goes to files or stdout only.
"""

import argparse
import csv
import json
import os
import signal
import sys
from collections import Counter
from pathlib import Path

from . import adifa, model_io, persist, synth
from .errors import CorruptFile, SchemaMismatch, XmladError
from .extract import FeatureMatrix, build_feature_matrix
from .flatten import (DEFAULT_TFIDF_K, LABELS, FlatDataset,
                      TfIdfDictionary, build_dictionary, flatten_matrix)
from .inject import ALL_CLASSES, AttackClass, InjectionSpec, \
    make_anomalous_corpus
from .schema import SchemaVector, parse_xsd


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(f"{self.prog}: {message}\n{self.format_usage()}")


def _load_corpus(source: str):
    """A directory of .xml files or a newline-delimited manifest, whose
    documents' names are their row ids, so no two may share one."""
    p = Path(source)
    if p.is_dir():
        files = sorted(p.glob("*.xml"))
    else:
        files = [Path(line) for line in persist.read_text(p).splitlines()
                 if line.strip()]
    ids = [f.name for f in files]
    for f in files:  # labels.csv cannot hold a name's surrogates
        if f.name.encode("utf-8", "replace").decode() != f.name:
            shown = os.fsencode(f).decode("utf-8", "backslashreplace")
            raise CorruptFile(f"{shown}: the file name is not UTF-8")
    repeated = [name for name, n in Counter(ids).items() if n > 1]
    if repeated:
        raise CorruptFile(f"{source}: two documents are named {repeated[0]!r}")
    return [persist.read_text(f) for f in files], ids


def _write_corpus(directory: str, documents, ids):
    names = [i if i.endswith(".xml") else f"{i}.xml" for i in ids]
    repeated = [name for name, n in Counter(names).items() if n > 1]
    if repeated:
        raise CorruptFile(f"two documents would be written to {repeated[0]}")
    out = Path(directory)
    out.mkdir(parents=True, exist_ok=True)
    for name, doc in zip(names, documents):
        with persist.create_text(out / name) as fh:
            fh.write(doc)


def _bounded(cast, ok, text):
    """An argparse type: `cast` the value, then accept it only if `ok`."""
    def parse(arg):
        value = cast(arg)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{arg} is not {text}")
        return value
    parse.__name__ = cast.__name__  # argparse names it in a cast error
    return parse


_AT_LEAST_0 = _bounded(int, lambda v: v >= 0, "an integer >= 0")
_AT_LEAST_1 = _bounded(int, lambda v: v >= 1, "an integer >= 1")
_PROPORTION = _bounded(float, lambda v: 0.0 <= v <= 1.0, "in [0, 1]")
_POSITIVE_PROPORTION = _bounded(float, lambda v: 0.0 < v <= 1.0, "in (0, 1]")


def build_parser() -> _Parser:
    parser = _Parser(prog="xmlad",
                     description="XML anomaly detection pipeline")
    parser.add_argument("--seed", type=int, default=0,
                        help="seed for every randomized stage")
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("schema-parse", help="parse an XSD into a .xadschema")
    p.add_argument("xsd", help="XSD file path, or - for stdin")
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("extract", help="extract a corpus into a .xadfm")
    p.add_argument("corpus", help="directory of .xml files or a manifest")
    p.add_argument("--schema", required=True)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("flatten", help="flatten a .xadfm into a CSV dataset")
    p.add_argument("matrix", help=".xadfm file")
    p.add_argument("--schema", required=True)
    p.add_argument("-o", "--output", required=True)
    p.add_argument("--dict-out", help="also write the TF-IDF dictionary here")
    p.add_argument("--dict", dest="dict_in",
                   help="reuse a training dictionary instead of building one")
    p.add_argument("--tfidf-k", type=_AT_LEAST_0, default=DEFAULT_TFIDF_K)
    p.add_argument("--labels", help="CSV of row_id,label to attach")

    p = sub.add_parser("train", help="train a detector on a CSV dataset")
    p.add_argument("--dataset", required=True)
    p.add_argument("--algo", default="adifa", choices=sorted(
        {a.kind for a in model_io.ALGORITHMS.values()}))
    p.add_argument("--psi", default="gm", choices=list(adifa.PSI_TAGS))
    p.add_argument("--threshold", type=_PROPORTION, default=0.5)
    p.add_argument("--pga-alpha", type=_PROPORTION, default=0.1)
    p.add_argument("--pga-k", type=_AT_LEAST_1, default=1)
    p.add_argument("--gde-sign-mode", default="corrected",
                   choices=["corrected", "literal"])
    p.add_argument("--lof-min-pts", type=_AT_LEAST_1, default=10)
    p.add_argument("-o", "--output", required=True)

    p = sub.add_parser("score", help="score a dataset with a trained model")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--localize", type=_AT_LEAST_0, default=0, metavar="N",
                   help="append the top-N localization columns per row")
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("localize", help="rank per-attribute likelihoods")
    p.add_argument("--model", required=True)
    p.add_argument("--dataset", required=True)
    p.add_argument("--top", type=_AT_LEAST_1, default=3)
    p.add_argument("-o", "--output", default="-")

    p = sub.add_parser("inject", help="inject attacks into a corpus")
    p.add_argument("--schema", required=True)
    p.add_argument("--in", dest="input", required=True)
    p.add_argument("--out", dest="output", required=True)
    p.add_argument("--anomaly-index", type=_POSITIVE_PROPORTION, required=True)
    p.add_argument("--fraction", type=_POSITIVE_PROPORTION, default=1.0,
                   help="fraction of documents to inject")
    p.add_argument("--classes",
                   help="comma list from: valuepoisoning,xss,cdata,xpath,leak")
    p.add_argument("--payload-corpus")
    p.add_argument("--truth-out", help="write the .xadtruth records here")

    p = sub.add_parser("gen-corpus", help="generate a synthetic normal corpus")
    p.add_argument("--schema", required=True)
    p.add_argument("--params",
                   help="JSON file of generative params (default: demo)")
    p.add_argument("-n", "--count", type=_AT_LEAST_0, required=True)
    p.add_argument("--out", dest="output", required=True)

    p = sub.add_parser("evaluate", help="run 5x2 CV over several algorithms")
    p.add_argument("--dataset", required=True, help="labeled CSV")
    p.add_argument("--algos", default="adifa-gm,pga,gde,lof")
    p.add_argument("--report", required=True, help="report directory")
    p.add_argument("--lof-min-pts", type=_AT_LEAST_1, default=10)
    # baselines always z-score; kept, unread, for perfbench's evaluate argv
    p.add_argument("--standardize", action="store_true",
                   help=argparse.SUPPRESS)

    p = sub.add_parser("learning-curve", help="nested-subset learning curve")
    p.add_argument("--dataset", required=True, help="labeled CSV")
    p.add_argument("--algo", default="adifa-gm")
    p.add_argument("-o", "--output", default="-")
    return parser


_CLASS_ALIASES = {
    "valuepoisoning": AttackClass.VALUE_POISONING,
    "xss": AttackClass.XSS,
    "cdata": AttackClass.CDATA_INJECTION,
    "xpath": AttackClass.XPATH_INJECTION,
    "leak": AttackClass.DATA_LEAKAGE,
}


def _parse_classes(arg):
    if not arg:
        return ALL_CLASSES
    classes = []
    for name in arg.split(","):
        key = name.strip().lower()
        if key not in _CLASS_ALIASES:
            raise UsageError(f"unknown attack class {name!r}")
        classes.append(_CLASS_ALIASES[key])
    return tuple(classes)


def _warn(message: str) -> None:
    print(f"WARNING xmlad: {message}", file=sys.stderr)


def _cmd_schema_parse(args) -> None:
    schema = parse_xsd(persist.read_text(args.xsd, stdin=True))
    for path, message in schema.issues:
        _warn(f"schema issue at {path}: {message}")
    schema.save(args.output)


def _cmd_extract(args) -> None:
    schema = SchemaVector.load(args.schema)
    corpus, ids = _load_corpus(args.corpus)
    matrix = build_feature_matrix(corpus, schema, row_ids=ids)
    for rid, message in matrix.diagnostics:
        _warn(f"skipped {rid}: {message}")
    matrix.save(args.output)


def _cmd_flatten(args) -> None:
    schema = SchemaVector.load(args.schema)
    matrix = FeatureMatrix.load(args.matrix)
    if args.dict_in:
        dictionary = TfIdfDictionary.load(args.dict_in)
    else:
        dictionary = build_dictionary(matrix, schema, k=args.tfidf_k)
    labels = None
    if args.labels:
        by_id = {}
        with persist.open_text(args.labels) as fh:
            for row in csv.reader(fh):
                if len(row) < 2 or row[0] == "row_id":
                    continue
                if by_id.setdefault(row[0], row[1]) != row[1]:
                    raise CorruptFile(f"{args.labels}: row {row[0]!r} has "
                                      f"two labels, {by_id[row[0]]!r} and "
                                      f"{row[1]!r}")
        missing = [rid for rid in matrix.row_ids if rid not in by_id]
        if missing:
            raise CorruptFile(f"{args.labels}: no label for row "
                              f"{missing[0]!r} ({len(missing)} missing)")
        labels = [by_id[rid] for rid in matrix.row_ids]
        for rid, label in zip(matrix.row_ids, labels):
            if label not in LABELS:
                raise CorruptFile(f"{args.labels}: row {rid!r} has label "
                                  f"{label!r}, not one of {LABELS}")
    dataset = flatten_matrix(matrix, schema, dictionary, labels=labels)
    dataset.to_csv(args.output)
    if args.dict_out:
        dictionary.save(args.dict_out)


def _cmd_train(args) -> None:
    dataset = FlatDataset.from_csv(args.dataset)
    tag = {"adifa": f"adifa-{args.psi}",
           "gde": "gde-literal" if args.gde_sign_mode == "literal" else "gde",
           }.get(args.algo, args.algo)
    model = model_io.ALGORITHMS[tag].train(
        dataset, threshold=args.threshold, alpha=args.pga_alpha,
        k=args.pga_k, min_pts=args.lof_min_pts)
    model_io.save_model(model, args.output)


def _check_columns(model, dataset, path) -> None:
    """A model scores only a dataset of its own width, and an adifa model
    only one in its own columns; a baseline keeps no column names."""
    names = getattr(model, "column_names", None)
    width = model.training_points.shape[1] if names is None else len(names)
    if len(dataset.column_names) != width:
        raise SchemaMismatch(f"{path}: {len(dataset.column_names)} columns, "
                             f"but the model has {width}")
    for i, (own, given) in enumerate(zip(names or (), dataset.column_names)):
        if own != given:
            raise SchemaMismatch(f"{path}: column {i} is {given!r}, but the "
                                 f"model's is {own!r}")


def _cmd_score(args) -> None:
    kind, model = model_io.load_model(args.model)
    if args.localize and kind != "adifa":
        raise UsageError("--localize requires an adifa model")
    dataset = FlatDataset.from_csv(args.dataset)
    _check_columns(model, dataset, args.dataset)
    header = ["row", "score", "likelihood", "label"]
    for i in range(args.localize):
        header += [f"localized_{i + 1}", f"localized_{i + 1}_d"]
    rows = [header]
    if kind == "adifa":
        for i, result in enumerate(adifa.classify_batch(model, dataset.rows)):
            cells = [str(i), repr(result.score), repr(result.likelihood),
                     result.label]
            for name, d in adifa.localize(result, args.localize):
                cells += [name, repr(d)]
            rows.append(cells)
    else:
        algo = next(a for a in model_io.ALGORITHMS.values() if a.kind == kind)
        scores = algo.scores(model, dataset.rows)
        flags = algo.anomalous(model, scores)
        for i, (s, bad) in enumerate(zip(scores, flags)):
            rows.append([str(i), repr(float(s)), "",
                         "anomalous" if bad else "normal"])
    persist.write_rows(args.output, rows, stdout=True)


def _cmd_localize(args) -> None:
    kind, model = model_io.load_model(args.model)
    if kind != "adifa":
        raise UsageError("localize requires an adifa model")
    dataset = FlatDataset.from_csv(args.dataset)
    _check_columns(model, dataset, args.dataset)
    rows = [["row", "rank", "column", "likelihood"]]
    for i, result in enumerate(adifa.classify_batch(model, dataset.rows)):
        for rank, (name, d) in enumerate(
                adifa.localize(result, args.top), start=1):
            rows.append([str(i), str(rank), name, repr(d)])
    persist.write_rows(args.output, rows, stdout=True)


def _cmd_inject(args) -> None:
    schema = SchemaVector.load(args.schema)
    corpus, ids = _load_corpus(args.input)
    spec = InjectionSpec(anomaly_index=args.anomaly_index,
                         classes=_parse_classes(args.classes),
                         seed=args.seed, payload_corpus=args.payload_corpus)
    documents, labels, records = make_anomalous_corpus(
        corpus, schema, spec, fraction_anomalous=args.fraction, row_ids=ids)
    _write_corpus(args.output, documents, ids)
    persist.write_rows(Path(args.output) / "labels.csv",
                       [["row_id", "label"], *zip(ids, labels)])
    if args.truth_out:
        persist.write(args.truth_out, "truth", {"records": records})


def _cmd_gen_corpus(args) -> None:
    schema = SchemaVector.load(args.schema)
    if args.params:
        with persist.open_text(args.params) as fh:
            obj = json.load(fh)
        params = synth.params_from_obj(schema, obj)
    else:
        params = synth.demo_params(schema, seed=args.seed)
    docs = synth.generate_normal_corpus(schema, params, args.count,
                                        seed=args.seed)
    width = len(str(max(args.count - 1, 0)))
    ids = [f"doc{str(i).zfill(width)}" for i in range(args.count)]
    _write_corpus(args.output, docs, ids)


def _check_tag(tag: str) -> None:
    if tag not in model_io.ALGORITHMS:
        raise UsageError(f"unknown algorithm tag {tag!r}")


def _cmd_evaluate(args) -> None:
    from . import evaluate
    tags = [t.strip() for t in args.algos.split(",") if t.strip()]
    for tag in tags:
        _check_tag(tag)
    dataset = FlatDataset.from_csv(args.dataset)
    report_dir = Path(args.report)
    report_dir.mkdir(parents=True, exist_ok=True)
    results = evaluate.cv_5x2_many(dataset, tags, seed=args.seed,
                                   min_pts=args.lof_min_pts)
    header = ["algorithm"] + [f"fold_{i}" for i in range(10)] + ["mean"]
    persist.write_rows(report_dir / "folds.csv", [header] + [
        [tag] + [repr(a) for a in result.fold_aucs] + [repr(result.mean_auc)]
        for tag, result in zip(tags, results)])
    if len(tags) >= 2:
        matrix = [[r.fold_aucs[i] for r in results] for i in range(10)]
        report = evaluate.friedman_bonferroni(matrix)
        sym = {"better": "+", "worse": "-", "equal": "="}
        lines = [f"friedman_p {report.friedman_p!r}",
                 f"critical_difference {report.critical_difference!r}",
                 "ranks " + " ".join(
                     f"{t}={r!r}" for t, r in zip(tags, report.mean_ranks)),
                 "", "pairwise (cell: column vs row)", "\t" + "\t".join(tags)]
        for i, tag in enumerate(tags):
            lines.append(tag + "\t"
                         + "\t".join(sym[c] for c in report.pairwise[i]))
        with persist.create_text(report_dir / "significance.txt") as fh:
            fh.write("\n".join(lines) + "\n")
    for tag, result in zip(tags, results):
        persist.write_rows(report_dir / f"roc_{tag}.csv", [["fpr", "tpr"]]
                           + [list(map(repr, p)) for p in result.roc.points])


def _cmd_learning_curve(args) -> None:
    from . import evaluate
    _check_tag(args.algo)
    dataset = FlatDataset.from_csv(args.dataset)
    points = evaluate.learning_curve(dataset, args.algo, seed=args.seed)
    persist.write_rows(args.output, [["train_size", "auc"]] + [
        [str(size), repr(value)] for size, value in points], stdout=True)


_COMMANDS = {
    "schema-parse": _cmd_schema_parse,
    "extract": _cmd_extract,
    "flatten": _cmd_flatten,
    "train": _cmd_train,
    "score": _cmd_score,
    "localize": _cmd_localize,
    "inject": _cmd_inject,
    "gen-corpus": _cmd_gen_corpus,
    "evaluate": _cmd_evaluate,
    "learning-curve": _cmd_learning_curve,
}


def run(argv) -> int:
    try:
        args = build_parser().parse_args(argv)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    try:
        _COMMANDS[args.subcommand](args)
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return 1
    except (XmladError, OSError) as exc:  # OSError: a missing file, say
        print(f"xmlad: {exc}", file=sys.stderr)
        return 2
    return 0


def main() -> None:
    # a reader that closes stdout's pipe ends xmlad as it ends cat
    if hasattr(signal, "SIGPIPE"):
        signal.signal(signal.SIGPIPE, signal.SIG_DFL)
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
