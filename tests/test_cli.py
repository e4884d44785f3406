import csv
import io
import json
import os
import signal
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from conftest import PAYMENT_XSD, container, make_dataset
import xmlad
from xmlad import persist
from xmlad.cli import run
from xmlad.extract import FeatureMatrix
from xmlad.flatten import FlatDataset
from xmlad.model_io import ALGORITHMS, load_model
from xmlad.synth import demo_schema_xsd


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "schema.xsd").write_text(demo_schema_xsd(3, 3, 1, 1),
                                         encoding="utf-8")
    return tmp_path


def test_import_loads_no_scipy():
    # scipy takes most of a second to import and only `evaluate` needs it
    code = ("import sys, xmlad, xmlad.cli; print(sorted(m for m in "
            "sys.modules if m.startswith('scipy')))")
    env = {**os.environ, "PYTHONPATH": str(Path(xmlad.__file__).parents[1])}
    out = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "[]"


def _pipeline(ws: Path, seed=0, count=40):
    """schema-parse -> gen-corpus -> inject -> extract -> flatten."""
    schema = ws / "s.xadschema"
    assert run(["schema-parse", str(ws / "schema.xsd"),
                "-o", str(schema)]) == 0
    corpus = ws / "normal"
    assert run(["--seed", str(seed), "gen-corpus", "--schema", str(schema),
                "-n", str(count), "--out", str(corpus)]) == 0
    injected = ws / "injected"
    assert run(["--seed", str(seed), "inject", "--schema", str(schema),
                "--in", str(corpus), "--out", str(injected),
                "--anomaly-index", "0.2", "--fraction", "0.5",
                "--truth-out", str(ws / "truth.xadtruth")]) == 0
    fm = ws / "fm.xadfm"
    assert run(["extract", str(injected), "--schema", str(schema),
                "-o", str(fm)]) == 0
    dataset = ws / "d.csv"
    assert run(["flatten", str(fm), "--schema", str(schema),
                "-o", str(dataset), "--dict-out", str(ws / "d.xaddict"),
                "--labels", str(injected / "labels.csv")]) == 0
    return schema, dataset


def test_pipeline_files_produced(workspace):
    schema, dataset = _pipeline(workspace)
    assert schema.exists()
    assert (workspace / "truth.xadtruth").exists()
    ds = FlatDataset.from_csv(dataset)
    assert ds.rows.shape[0] == 40
    assert set(ds.labels) == {"normal", "anomalous"}


def test_train_score_localize(workspace):
    _, dataset = _pipeline(workspace)
    model = workspace / "m.xadmodel"
    assert run(["train", "--dataset", str(dataset), "--psi", "gm",
                "-o", str(model)]) == 0
    scores = workspace / "scores.csv"
    assert run(["score", "--model", str(model), "--dataset", str(dataset),
                "--localize", "2", "-o", str(scores)]) == 0
    with open(scores, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 40
    assert set(r["label"] for r in rows) <= {"normal", "anomalous"}
    assert all(r["localized_1"] for r in rows)
    localized = workspace / "loc.csv"
    assert run(["localize", "--model", str(model), "--dataset", str(dataset),
                "--top", "3", "-o", str(localized)]) == 0
    with open(localized, newline="") as fh:
        loc_rows = list(csv.reader(fh))
    assert loc_rows[0] == ["row", "rank", "column", "likelihood"]
    assert len(loc_rows) == 1 + 40 * 3


def _per_row_csvs(model, X, top):
    """`score --localize top` and `localize --top top` as looping
    `classify` over the rows writes them."""
    score = [["row", "score", "likelihood", "label"]
             + [f"localized_{i + 1}{s}" for i in range(top)
                for s in ("", "_d")]]
    loc = [["row", "rank", "column", "likelihood"]]
    for i, x in enumerate(X):
        result = xmlad.classify(model, x)
        pairs = xmlad.localize(result, top)
        score.append([str(i), repr(result.score), repr(result.likelihood),
                      result.label] + [c for n, d in pairs
                                       for c in (n, repr(d))])
        loc += [[str(i), str(r), n, repr(d)]
                for r, (n, d) in enumerate(pairs, start=1)]
    texts = []
    for rows in (score, loc):
        out = io.StringIO()
        csv.writer(out, lineterminator="\n").writerows(rows)
        texts.append(out.getvalue())
    return texts


def test_score_and_localize_match_per_row_classify(tmp_path):
    rng = np.random.default_rng(5)
    X = np.column_stack([rng.normal(0.0, 1.0, 400), rng.normal(9.0, 3.0, 400),
                         rng.integers(0, 4, 400).astype(float)])
    names = ("a", "b", "c")
    make_dataset(X, names).to_csv(tmp_path / "train.csv")
    test_rows = np.concatenate([X[::4] + 0.1, [[40.0, 9.0, 1.0],
                                               [0.0, -1e300, 2.0]]])
    make_dataset(test_rows, names).to_csv(tmp_path / "test.csv")
    model_path = tmp_path / "m.xadmodel"
    assert run(["train", "--dataset", str(tmp_path / "train.csv"),
                "-o", str(model_path)]) == 0
    _, model = load_model(model_path)
    assert list(model._kernels.expansion.cols) == [0, 1]
    data = FlatDataset.from_csv(tmp_path / "test.csv")
    argv = ["--model", str(model_path),
            "--dataset", str(tmp_path / "test.csv")]
    assert run(["score", *argv, "--localize", "2",
                "-o", str(tmp_path / "s.csv")]) == 0
    assert run(["localize", *argv, "--top", "2",
                "-o", str(tmp_path / "l.csv")]) == 0
    assert [(tmp_path / f).read_text(encoding="utf-8")
            for f in ("s.csv", "l.csv")] == _per_row_csvs(model, data.rows, 2)


def test_baseline_training(workspace):
    _, dataset = _pipeline(workspace)
    model = workspace / "pga.xadmodel"
    assert run(["train", "--dataset", str(dataset), "--algo", "pga",
                "-o", str(model)]) == 0
    out = workspace / "pga_scores.csv"
    assert run(["score", "--model", str(model), "--dataset", str(dataset),
                "-o", str(out)]) == 0
    assert out.exists()


_BASELINE_OPTIONS = {"pga": ["--pga-k", "2"],
                     "gde": ["--gde-sign-mode", "literal"],
                     "lof": ["--lof-min-pts", "5"]}


@pytest.mark.parametrize("options", [False, True], ids=["plain", "options"])
@pytest.mark.parametrize("algo", ["pga", "gde", "lof"])
def test_baseline_score_writes_batch_scores(workspace, algo, options):
    # one-row and batch distance arithmetic can round differently; score
    # must write the batch, with the default options and with others
    _, dataset = _pipeline(workspace)
    model = workspace / "m.xadmodel"
    assert run(["train", "--dataset", str(dataset), "--algo", algo,
                "-o", str(model)]
               + (_BASELINE_OPTIONS[algo] if options else [])) == 0
    out = workspace / "out.csv"
    assert run(["score", "--model", str(model), "--dataset", str(dataset),
                "-o", str(out)]) == 0
    _, loaded = load_model(model)
    entry = ALGORITHMS[algo]
    scores = entry.scores(loaded, FlatDataset.from_csv(dataset).rows)
    flags = entry.anomalous(loaded, scores)
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [float(r["score"]) for r in rows] == scores.tolist()
    assert [r["label"] for r in rows] == [
        "anomalous" if f else "normal" for f in flags]


def test_evaluate_reports(workspace):
    _, dataset = _pipeline(workspace, count=60)
    report = workspace / "report"
    assert run(["--seed", "2", "evaluate", "--dataset", str(dataset),
                "--algos", "adifa-gm,pga,gde", "--report", str(report)]) == 0
    assert (report / "folds.csv").exists()
    assert (report / "significance.txt").exists()
    for tag in ("adifa-gm", "pga", "gde"):
        assert (report / f"roc_{tag}.csv").exists()
    with open(report / "folds.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 4  # header + 3 algorithms
    assert len(rows[1]) == 12  # tag + 10 folds + mean
    fold_0 = {row[0]: float(row[1]) for row in rows[1:]}
    for tag in ("adifa-gm", "pga", "gde"):
        with open(report / f"roc_{tag}.csv", newline="") as fh:
            roc = list(csv.reader(fh))
        assert roc[0] == ["fpr", "tpr"]
        points = np.array([[float(c) for c in row] for row in roc[1:]])
        assert ((0.0 <= points) & (points <= 1.0)).all()
        # the curve is fold 0's: its area is that fold's AUC
        area = float(np.trapezoid(points[:, 1], points[:, 0]))
        assert area == pytest.approx(fold_0[tag], abs=1e-12)


def test_evaluate_duplicate_tags(workspace):
    # one folds.csv line per listed tag, in listed order, each the same as
    # the tag's line when it is listed once
    _, dataset = _pipeline(workspace, count=60)

    def folds(algos):
        report = workspace / algos.replace(",", "_")
        assert run(["--seed", "3", "evaluate", "--dataset", str(dataset),
                    "--algos", algos, "--report", str(report)]) == 0
        return (report / "folds.csv").read_text(encoding="utf-8").splitlines()

    header, gm, pga = folds("adifa-gm,pga")
    assert folds("pga,pga") == [header, pga, pga]
    assert folds("adifa-gm,pga,adifa-gm") == [header, gm, pga, gm]


def test_learning_curve_command(workspace):
    _, dataset = _pipeline(workspace, count=100)
    out = workspace / "curve.csv"
    assert run(["learning-curve", "--dataset", str(dataset),
                "--algo", "pga", "-o", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["train_size", "auc"]
    assert len(rows) == 11
    # z-scored, the epoch-second Stamp columns do not drown the others
    assert float(rows[-1][1]) > 0.9


def test_unknown_subcommand_exit_1(capsys):
    assert run(["frobnicate"]) == 1


def _schema_parse(ws, xsd_text):
    (ws / "bad.xsd").write_text(xsd_text, encoding="utf-8")
    return ["schema-parse", str(ws / "bad.xsd"), "-o", str(ws / "o.xadschema")]


def _train_on(ws, csv_text):
    (ws / "bad.csv").write_text(csv_text, encoding="utf-8")
    return ["train", "--dataset", str(ws / "bad.csv"), "-o", str(ws / "m")]


def _labels_missing_row(ws):
    _pipeline(ws, count=10)
    with open(ws / "injected" / "labels.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    (ws / "short.csv").write_text(
        "\n".join(",".join(r) for r in rows[:-1]) + "\n", encoding="utf-8")
    return ["flatten", str(ws / "fm.xadfm"), "--schema",
            str(ws / "s.xadschema"), "-o", str(ws / "o.csv"),
            "--labels", str(ws / "short.csv")]


def _labels_unknown(ws):
    """A labels file whose first anomalous row is labelled `norml`."""
    _pipeline(ws, count=10)
    text = (ws / "injected" / "labels.csv").read_text(encoding="utf-8")
    assert ",anomalous\n" in text
    (ws / "typo.csv").write_text(text.replace(",anomalous\n", ",norml\n", 1),
                                 encoding="utf-8")
    return ["flatten", str(ws / "fm.xadfm"), "--schema",
            str(ws / "s.xadschema"), "-o", str(ws / "o.csv"),
            "--labels", str(ws / "typo.csv")]


def _labels_twice(ws):
    """A labels file that lists its first row id again, with the other
    label."""
    _pipeline(ws, count=10)
    text = (ws / "injected" / "labels.csv").read_text(encoding="utf-8")
    rid, label = text.splitlines()[1].split(",")
    other = "normal" if label == "anomalous" else "anomalous"
    (ws / "twice.csv").write_text(text + f"{rid},{other}\n", encoding="utf-8")
    return ["flatten", str(ws / "fm.xadfm"), "--schema",
            str(ws / "s.xadschema"), "-o", str(ws / "o.csv"),
            "--labels", str(ws / "twice.csv")]


def _inject_repeated_name(ws):
    """A manifest of a/doc0.xml, b/doc0.xml and a/doc1.xml: two documents
    that `inject` would write to one file and label under one row id."""
    _pipeline(ws, count=10)
    lines = []
    for i, rel in enumerate(["a/doc0.xml", "b/doc0.xml", "a/doc1.xml"]):
        (ws / rel).parent.mkdir(exist_ok=True)
        (ws / rel).write_bytes((ws / "normal" / f"doc{i}.xml").read_bytes())
        lines.append(str(ws / rel))
    (ws / "manifest.txt").write_text("\n".join(lines) + "\n",
                                     encoding="utf-8")
    return ["inject", "--schema", str(ws / "s.xadschema"),
            "--in", str(ws / "manifest.txt"), "--out", str(ws / "x"),
            "--anomaly-index", "0.2", "--fraction", "0.5"]


def _inject_colliding_names(ws):
    """A manifest of m/a and m/a.xml: two row ids that `inject` would
    write to one a.xml."""
    _pipeline(ws, count=10)
    (ws / "m").mkdir()
    for i, name in enumerate(["a", "a.xml"]):
        (ws / "m" / name).write_bytes(
            (ws / "normal" / f"doc{i}.xml").read_bytes())
    (ws / "manifest.txt").write_text(f"{ws}/m/a\n{ws}/m/a.xml\n",
                                     encoding="utf-8")
    return ["inject", "--schema", str(ws / "s.xadschema"),
            "--in", str(ws / "manifest.txt"), "--out", str(ws / "x"),
            "--anomaly-index", "0.2"]


# longer than the csv module's field size limit of 131,072 characters
_LONG_FIELD = '"' + "x" * 200_000 + '"'


def _labels_long_field(ws):
    _pipeline(ws, count=10)
    text = (ws / "injected" / "labels.csv").read_text(encoding="utf-8")
    (ws / "long.csv").write_text(text + f"{_LONG_FIELD},normal\n",
                                 encoding="utf-8")
    return ["flatten", str(ws / "fm.xadfm"), "--schema",
            str(ws / "s.xadschema"), "-o", str(ws / "o.csv"),
            "--labels", str(ws / "long.csv")]


def _with_nan(dataset: Path, out: Path) -> Path:
    """A copy of a flattened dataset with its fourth row's first cell nan."""
    with open(dataset, newline="") as fh:
        rows = list(csv.reader(fh))
    rows[3][0] = "nan"
    with open(out, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return out


def _train_pga_on_nan(ws):
    _, dataset = _pipeline(ws, count=10)
    return ["train", "--dataset", str(_with_nan(dataset, ws / "nan.csv")),
            "--algo", "pga", "-o", str(ws / "m")]


def _score_pga_on_narrow_rows(ws):
    _, dataset = _pipeline(ws, count=10)
    assert run(["train", "--dataset", str(dataset), "--algo", "pga",
                "-o", str(ws / "pga.xadmodel")]) == 0
    (ws / "narrow.csv").write_text("a,b,c,d,e\n" + "1,2,3,4,5\n" * 3,
                                   encoding="utf-8")
    return ["score", "--model", str(ws / "pga.xadmodel"),
            "--dataset", str(ws / "narrow.csv"), "-o", str(ws / "o.csv")]


def _without_key(ws, name, kind, key):
    """A digest-valid copy of artifact `name` whose body lacks `key`."""
    body = persist.read(ws / name, kind)
    del body[key]
    (ws / f"bad-{name}").write_text(persist.dumps(kind, body),
                                    encoding="utf-8")
    return str(ws / f"bad-{name}")


def _dict_without_k(ws):
    _pipeline(ws, count=10)
    return ["flatten", str(ws / "fm.xadfm"), "--schema",
            str(ws / "s.xadschema"), "-o", str(ws / "o.csv"),
            "--dict", _without_key(ws, "d.xaddict", "dict", "k")]


def _dict_short_frequencies(ws):
    """A digest-valid dictionary with one document frequency fewer than
    it has terms."""
    _pipeline(ws, count=10)
    body = persist.read(ws / "d.xaddict", "dict")
    body["doc_frequency"] = body["doc_frequency"][:-1]
    (ws / "short.xaddict").write_text(persist.dumps("dict", body),
                                      encoding="utf-8")
    return ["flatten", str(ws / "fm.xadfm"), "--schema",
            str(ws / "s.xadschema"), "-o", str(ws / "o.csv"),
            "--dict", str(ws / "short.xaddict")]


def _schema_without_issues(ws):
    _pipeline(ws, count=10)
    return ["extract", str(ws / "normal"), "--schema",
            _without_key(ws, "s.xadschema", "schema", "issues"),
            "-o", str(ws / "o.xadfm")]


def _fm_occurrence(ws, change):
    """A digest-valid feature matrix whose first [values, raw_text,
    failed] occurrence `o` is replaced by `change(o)`."""
    _pipeline(ws, count=10)
    body = persist.read(ws / "fm.xadfm", "fm")
    occurrences = body["rows"][0][0]
    occurrences[0] = change(occurrences[0])
    (ws / "bad.xadfm").write_text(persist.dumps("fm", body),
                                  encoding="utf-8")
    return ["flatten", str(ws / "bad.xadfm"), "--schema",
            str(ws / "s.xadschema"), "-o", str(ws / "o.csv")]


def _evaluate_unknown_label(ws):
    """A labelled dataset with some rows relabelled `norml`."""
    _, dataset = _pipeline(ws, count=20)
    with open(dataset, newline="") as fh:
        rows = list(csv.reader(fh))
    for row in rows[1:6]:
        row[-1] = "norml"
    with open(ws / "relabelled.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return ["evaluate", "--dataset", str(ws / "relabelled.csv"),
            "--algos", "adifa-gm,pga", "--report", str(ws / "r")]


def _flatten_other_schema(ws):
    """A feature matrix flattened with a schema other than its own, one of
    the same number of elements."""
    _pipeline(ws, count=10)
    (ws / "other.xsd").write_text(demo_schema_xsd(4, 2, 1, 1),
                                  encoding="utf-8")
    assert run(["schema-parse", str(ws / "other.xsd"),
                "-o", str(ws / "other.xadschema")]) == 0
    return ["flatten", str(ws / "fm.xadfm"), "--schema",
            str(ws / "other.xadschema"), "-o", str(ws / "o.csv")]


def _gen_corpus_params(ws, text):
    _pipeline(ws, count=10)
    (ws / "params.json").write_text(text, encoding="utf-8")
    return ["gen-corpus", "--schema", str(ws / "s.xadschema"), "--params",
            str(ws / "params.json"), "-n", "3", "--out", str(ws / "gen")]


def _hand_dumps(kind, body):
    """The container `persist.dumps` writes, written by hand, so that it
    may hold a NaN, which `dumps` refuses."""
    return container(kind, json.dumps(body, sort_keys=True,
                                      separators=(",", ":")))


def _edited_model(ws, algo, edit, dumps=persist.dumps):
    """Scoring with a digest-valid `algo` model whose body `edit` changed."""
    _, dataset = _pipeline(ws, count=20)  # more rows than lof's min_pts
    assert run(["train", "--dataset", str(dataset), "--algo", algo,
                "-o", str(ws / "m.xadmodel")]) == 0
    body = persist.read(ws / "m.xadmodel", algo)
    edit(body)
    (ws / "bad.xadmodel").write_text(dumps(algo, body), encoding="utf-8")
    return ["score", "--model", str(ws / "bad.xadmodel"),
            "--dataset", str(dataset), "-o", str(ws / "o.csv")]


def _extract_nan_amount(ws):
    """A corpus whose first document's Amount0 holds NaN."""
    _pipeline(ws, count=10)
    (ws / "nan").mkdir()
    for doc in sorted((ws / "normal").glob("*.xml")):
        (ws / "nan" / doc.name).write_bytes(doc.read_bytes())
    first = min((ws / "nan").glob("*.xml"))
    text = first.read_text(encoding="utf-8")
    start = text.index("<Amount0>") + len("<Amount0>")
    first.write_text(text[:start] + "NaN" + text[text.index("</Amount0>"):],
                     encoding="utf-8")
    return ["extract", str(ws / "nan"), "--schema", str(ws / "s.xadschema"),
            "-o", str(ws / "o.xadfm")]


def _nan_value(body):
    body["attributes"][0]["values"][5] = float("nan")


def _column(values):
    """A vector's JSON list as an m x 1 matrix."""
    return [[v] for v in values]


def _inject_deep_document(ws):
    """A corpus whose one well-formed document is 3,000 elements deep."""
    assert run(["schema-parse", str(ws / "schema.xsd"),
                "-o", str(ws / "s.xadschema")]) == 0
    (ws / "deep").mkdir()
    (ws / "deep" / "deep.xml").write_text(
        "<Transaction>" + "<X>" * 3000 + "</X>" * 3000 + "</Transaction>",
        encoding="utf-8")
    return ["inject", "--schema", str(ws / "s.xadschema"),
            "--in", str(ws / "deep"), "--out", str(ws / "x"),
            "--anomaly-index", "0.2"]


def _deep_xsd(depth):
    """A valid XSD of `depth` nested anonymous complex types."""
    level = '<xsd:element name="E"><xsd:complexType><xsd:sequence>'
    return ('<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">'
            + level * depth + '<xsd:element name="Leaf" type="xsd:string"/>'
            + "</xsd:sequence></xsd:complexType></xsd:element>" * depth
            + "</xsd:schema>")


def _to_latin_1(path: Path, old="Transaction", new="Transacción") -> None:
    """Rewrite a text file in Latin-1 with `old` spelt `new`, so that it
    is no longer UTF-8."""
    text = path.read_text(encoding="utf-8")
    assert old in text
    path.write_bytes(text.replace(old, new).encode("latin-1"))


def _extract_latin_1(ws, name):
    """`extract` of the corpus, after `name` was rewritten in Latin-1."""
    _pipeline(ws, count=10)
    _to_latin_1(ws / name)
    return ["extract", str(ws / "normal"), "--schema",
            str(ws / "s.xadschema"), "-o", str(ws / "o.xadfm")]


def _xsd_latin_1(ws):
    _to_latin_1(ws / "schema.xsd")
    return ["schema-parse", str(ws / "schema.xsd"),
            "-o", str(ws / "o.xadschema")]


def _xsd_latin_1_stdin(ws):
    _to_latin_1(ws / "schema.xsd")
    (ws / "stdin").write_bytes((ws / "schema.xsd").read_bytes())
    return ["schema-parse", "-", "-o", str(ws / "o.xadschema")]


def _own_dictionary(ws):
    """A gm model and a dataset of other documents flattened with their own
    dictionary: as wide as the model's, with other tfidf# terms."""
    _pipeline(ws, count=20)
    assert run(["train", "--dataset", str(ws / "d.csv"),
                "-o", str(ws / "m.xadmodel")]) == 0
    assert run(["--seed", "1", "gen-corpus", "--schema",
                str(ws / "s.xadschema"), "-n", "20",
                "--out", str(ws / "other")]) == 0
    assert run(["extract", str(ws / "other"), "--schema",
                str(ws / "s.xadschema"), "-o", str(ws / "other.xadfm")]) == 0
    assert run(["flatten", str(ws / "other.xadfm"), "--schema",
                str(ws / "s.xadschema"), "-o", str(ws / "other.csv")]) == 0
    return ["score", "--model", str(ws / "m.xadmodel"),
            "--dataset", str(ws / "other.csv"), "-o", str(ws / "o.csv")]


def _reversed_columns(ws):
    """A gm model and its training dataset with the columns reversed."""
    _pipeline(ws, count=20)
    assert run(["train", "--dataset", str(ws / "d.csv"),
                "-o", str(ws / "m.xadmodel")]) == 0
    with open(ws / "d.csv", newline="") as fh:
        rows = [row[-2::-1] + row[-1:] for row in csv.reader(fh)]
    with open(ws / "reversed.csv", "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return ["localize", "--model", str(ws / "m.xadmodel"),
            "--dataset", str(ws / "reversed.csv"), "-o", str(ws / "o.csv")]


def _run(argv, ws):
    """`run(argv)`, with the workspace's file `stdin`, if a case wrote one,
    as standard input, opened as the interpreter opens its own on POSIX
    under the C locale."""
    if not (ws / "stdin").exists():
        return run(argv)
    with open(ws / "stdin", encoding="utf-8", errors="surrogateescape",
              newline="\n") as fh, mock.patch.object(sys, "stdin", fh):
        return run(argv)


def _flatten_latin_1_labels(ws):
    _pipeline(ws, count=10)
    _to_latin_1(ws / "injected" / "labels.csv", "normal", "nórmal")
    return ["flatten", str(ws / "fm.xadfm"), "--schema",
            str(ws / "s.xadschema"), "-o", str(ws / "o.csv"),
            "--labels", str(ws / "injected" / "labels.csv")]


def _inject_latin_1_payloads(ws):
    _pipeline(ws, count=10)
    (ws / "payload.txt").write_bytes("Transacción aprobada.".encode("latin-1"))
    return ["inject", "--schema", str(ws / "s.xadschema"),
            "--in", str(ws / "normal"), "--out", str(ws / "x"),
            "--anomaly-index", "0.2", "--classes", "leak",
            "--payload-corpus", str(ws / "payload.txt")]


def _non_utf_8_name(ws, command):
    """`extract` or `inject` of the corpus, after its doc0.xml was renamed
    doc\\xf3.xml, a name that is not UTF-8."""
    _pipeline(ws, count=10)
    corpus = os.fsencode(ws / "normal")
    os.rename(corpus + b"/doc0.xml", corpus + b"/doc\xf3.xml")
    if command == "extract":
        return ["extract", str(ws / "normal"), "--schema",
                str(ws / "s.xadschema"), "-o", str(ws / "o.xadfm")]
    return ["inject", "--schema", str(ws / "s.xadschema"),
            "--in", str(ws / "normal"), "--out", str(ws / "x"),
            "--anomaly-index", "0.2"]


def _score_latin_1_model(ws):
    _, dataset = _pipeline(ws, count=10)
    assert run(["train", "--dataset", str(dataset),
                "-o", str(ws / "m.xadmodel")]) == 0
    _to_latin_1(ws / "m.xadmodel")
    return ["score", "--model", str(ws / "m.xadmodel"),
            "--dataset", str(dataset), "-o", str(ws / "o.csv")]


_DATA_ERRORS = {
    "unparseable-xsd": lambda ws: _schema_parse(ws, "<broken"),
    "occurs-not-int": lambda ws: _schema_parse(ws, PAYMENT_XSD.replace(
        'type="xsd:double"', 'type="xsd:double" maxOccurs="lots"')),
    "non-numeric-csv": lambda ws: _train_on(ws, "a,b\n1.0,2.0\n3.0,x\n"),
    "empty-csv": lambda ws: _train_on(ws, ""),
    "ragged-csv": lambda ws: _train_on(ws, "a,b\n1.0,2.0\n3.0\n"),
    "missing-dataset": lambda ws: ["train", "--dataset", str(ws / "no.csv"),
                                   "-o", str(ws / "m")],
    "missing-model": lambda ws: ["score", "--model", str(ws / "no.xadmodel"),
                                 "--dataset", str(ws / "no.csv")],
    "labels-missing-row": _labels_missing_row,
    "train-pga-nan": _train_pga_on_nan,
    "dict-without-k": _dict_without_k,
    "schema-without-issues": _schema_without_issues,
    "score-pga-narrow-rows": _score_pga_on_narrow_rows,
    "dict-short-frequencies": _dict_short_frequencies,
    "fm-short-occurrence": lambda ws: _fm_occurrence(ws, lambda o: o[:2]),
    "fm-long-occurrence": lambda ws: _fm_occurrence(
        ws, lambda o: o + [None]),
    "fm-null-values": lambda ws: _fm_occurrence(
        ws, lambda o: [None, *o[1:]]),
    "evaluate-unknown-label": _evaluate_unknown_label,
    "flatten-other-schema": _flatten_other_schema,
    "params-missing-key": lambda ws: _gen_corpus_params(  # no "std"
        ws, '{"Transaction/Amounts/Amount0": {"kind": "numeric", "mean": 1}}'),
    "params-not-json": lambda ws: _gen_corpus_params(ws, "mean: 1.0"),
    "flatten-unknown-label": _labels_unknown,
    "flatten-label-twice": _labels_twice,
    "inject-repeated-name": _inject_repeated_name,
    "inject-colliding-names": _inject_colliding_names,
    "train-long-field": lambda ws: _train_on(ws, f"a,b\n1.0,{_LONG_FIELD}\n"),
    "flatten-labels-long-field": _labels_long_field,
    "model-null-array": lambda ws: _edited_model(
        ws, "pga", lambda b: b.update(training_points=None)),
    "model-rank2-lrd": lambda ws: _edited_model(
        ws, "lof", lambda b: b.update(lrd=_column(b["lrd"]))),
    "model-rank2-nn": lambda ws: _edited_model(
        ws, "pga", lambda b: b.update(nn_distances=_column(b["nn_distances"]))),
    "model-ragged-values": lambda ws: _edited_model(
        ws, "adifa", lambda b: b["attributes"][0].update(
            values=b["attributes"][0]["values"][:-1])),
    "model-rank2-values": lambda ws: _edited_model(
        ws, "adifa", lambda b: b["attributes"][0].update(
            values=_column(b["attributes"][0]["values"]))),
    "model-nan-value": lambda ws: _edited_model(ws, "adifa", _nan_value,
                                                _hand_dumps),
    # a model of the former raw-distance pga: z-scores are required now
    "model-raw-pga": lambda ws: _edited_model(
        ws, "pga", lambda b: b.update(mu=None, sd=None), _hand_dumps),
    "inject-deep-document": _inject_deep_document,
    "deep-xsd": lambda ws: _schema_parse(ws, _deep_xsd(1200)),
    "extract-latin-1-document": lambda ws: _extract_latin_1(
        ws, "normal/doc0.xml"),
    "extract-latin-1-schema": lambda ws: _extract_latin_1(ws, "s.xadschema"),
    "schema-parse-latin-1-xsd": _xsd_latin_1,
    "score-latin-1-model": _score_latin_1_model,
    "schema-parse-latin-1-stdin": _xsd_latin_1_stdin,
    "flatten-latin-1-labels": _flatten_latin_1_labels,
    "inject-latin-1-payload-corpus": _inject_latin_1_payloads,
    "extract-non-utf-8-name": lambda ws: _non_utf_8_name(ws, "extract"),
    "inject-non-utf-8-name": lambda ws: _non_utf_8_name(ws, "inject"),
    "score-own-dictionary": _own_dictionary,
    "localize-reversed-columns": _reversed_columns,
}


@pytest.mark.parametrize("case", list(_DATA_ERRORS))
def test_data_error_exit_2(workspace, capsys, case):
    argv = _DATA_ERRORS[case](workspace)
    capsys.readouterr()
    assert _run(argv, workspace) == 2
    err = capsys.readouterr().err
    assert err.startswith("xmlad:") and "Traceback" not in err
    for flag in ("-o", "--out"):  # a data error leaves no output file
        if flag in argv:
            assert not Path(argv[argv.index(flag) + 1]).exists()


def test_latin_1_document_named(workspace, capsys):
    argv = _extract_latin_1(workspace, "normal/doc0.xml")
    capsys.readouterr()
    assert run(argv) == 2
    assert "doc0.xml: 'utf-8' codec can't decode" in capsys.readouterr().err


@pytest.mark.parametrize("case, name", [
    ("extract-latin-1-schema", "s.xadschema"),
    ("score-latin-1-model", "m.xadmodel"),
    ("schema-parse-latin-1-xsd", "schema.xsd"),
    ("flatten-latin-1-labels", "injected/labels.csv"),
    ("inject-latin-1-payload-corpus", "payload.txt"),
    ("schema-parse-latin-1-stdin", "-")])
def test_latin_1_file_named(workspace, capsys, case, name):
    argv = _DATA_ERRORS[case](workspace)
    capsys.readouterr()
    assert _run(argv, workspace) == 2
    source = name if name == "-" else workspace / name
    assert (f"xmlad: {source}: 'utf-8' codec can't decode"
            in capsys.readouterr().err)


@pytest.mark.parametrize("command", ["extract", "inject"])
def test_non_utf_8_name_named(workspace, capsys, command):
    argv = _non_utf_8_name(workspace, command)
    capsys.readouterr()
    assert run(argv) == 2
    assert (f"xmlad: {workspace}/normal/doc\\xf3.xml: the file name is not "
            "UTF-8" in capsys.readouterr().err)


def test_extract_flags_nan_amount(workspace):
    # NaN is no number to measure: a parse failure of its document's row
    argv = _extract_nan_amount(workspace)
    assert run(argv) == 0
    dataset = workspace / "nan.csv"
    assert run(["flatten", str(workspace / "o.xadfm"), "--schema",
                str(workspace / "s.xadschema"), "-o", str(dataset)]) == 0
    ds = FlatDataset.from_csv(dataset)
    failures = ds.rows[:, ds.column_names.index("parse_failures#count")]
    assert failures.tolist() == [1.0] + [0.0] * 9


def test_extract_deeply_nested_document(tmp_path):
    (tmp_path / "s.xsd").write_text(PAYMENT_XSD, encoding="utf-8")
    schema = tmp_path / "s.xadschema"
    assert run(["schema-parse", str(tmp_path / "s.xsd"),
                "-o", str(schema)]) == 0
    (tmp_path / "corpus").mkdir()
    (tmp_path / "corpus" / "deep.xml").write_text(
        "<Payment>" + "<X>" * 3000 + "</X>" * 3000 + "</Payment>",
        encoding="utf-8")
    fm = tmp_path / "fm.xadfm"
    assert run(["extract", str(tmp_path / "corpus"), "--schema", str(schema),
                "-o", str(fm)]) == 0
    assert FeatureMatrix.load(fm).unknown_counts == [1]


@pytest.mark.parametrize("algo", ["adifa", "pga", "gde", "lof"])
def test_score_non_finite_exit_2(workspace, capsys, algo):
    _, dataset = _pipeline(workspace)
    model = workspace / "m.xadmodel"
    assert run(["train", "--dataset", str(dataset), "--algo", algo,
                "-o", str(model)]) == 0
    bad = _with_nan(dataset, workspace / "nan.csv")
    assert run(["score", "--model", str(model), "--dataset", str(bad),
                "-o", str(workspace / "out.csv")]) == 2
    # the fourth CSV line is data row 2, as the `row` column of `score` counts
    assert "non-finite cell at row 2, column 0" in capsys.readouterr().err
    assert not (workspace / "out.csv").exists()


@pytest.mark.parametrize("argv,message", [
    (["schema-parse", "--bogus"], "usage"),
    (["inject", "--schema", "{ws}/s.xadschema", "--in", "{ws}/normal",
      "--out", "{ws}/x", "--anomaly-index", "0.1", "--classes", "nonsense"],
     "unknown attack class"),
    (["evaluate", "--dataset", "{ws}/d.csv", "--algos", "pga,bogus",
      "--report", "{ws}/r"], "unknown algorithm tag"),
    (["learning-curve", "--dataset", "{ws}/d.csv", "--algo", "bogus"],
     "unknown algorithm tag"),
    (["train", "--dataset", "{ws}/d.csv", "--algo", "pga", "--pga-k", "0",
      "-o", "{ws}/m"], "--pga-k: 0 is not an integer >= 1"),
    (["train", "--dataset", "{ws}/d.csv", "--algo", "pga", "--pga-alpha",
      "1.5", "-o", "{ws}/m"], "--pga-alpha: 1.5 is not in [0, 1]"),
    (["train", "--dataset", "{ws}/d.csv", "--algo", "lof", "--lof-min-pts",
      "0", "-o", "{ws}/m"], "--lof-min-pts: 0 is not an integer >= 1"),
    (["evaluate", "--dataset", "{ws}/d.csv", "--lof-min-pts", "0",
      "--report", "{ws}/r"], "--lof-min-pts: 0 is not an integer >= 1"),
    (["inject", "--schema", "{ws}/s.xadschema", "--in", "{ws}/normal",
      "--out", "{ws}/x", "--anomaly-index", "2"],
     "--anomaly-index: 2 is not in (0, 1]"),
    (["inject", "--schema", "{ws}/s.xadschema", "--in", "{ws}/normal",
      "--out", "{ws}/x", "--anomaly-index", "0.1", "--fraction", "0"],
     "--fraction: 0 is not in (0, 1]"),
    (["flatten", "{ws}/fm.xadfm", "--schema", "{ws}/s.xadschema",
      "-o", "{ws}/o.csv", "--tfidf-k", "-1"],
     "--tfidf-k: -1 is not an integer >= 0"),
    (["train", "--dataset", "{ws}/d.csv", "--threshold", "nan",
      "-o", "{ws}/m"], "--threshold: nan is not in [0, 1]"),
    (["train", "--dataset", "{ws}/d.csv", "--threshold", "7",
      "-o", "{ws}/m"], "--threshold: 7 is not in [0, 1]"),
    (["gen-corpus", "--schema", "{ws}/s.xadschema", "-n", "-5",
      "--out", "{ws}/gen"], "-n/--count: -5 is not an integer >= 0"),
    (["localize", "--model", "{ws}/m", "--dataset", "{ws}/d.csv",
      "--top", "-2"], "--top: -2 is not an integer >= 1"),
    (["score", "--model", "{ws}/m", "--dataset", "{ws}/d.csv",
      "--localize", "-1"], "--localize: -1 is not an integer >= 0"),
], ids=["unknown-flag", "unknown-attack-class", "unknown-evaluate-algo",
        "unknown-learning-curve-algo", "train-pga-k-0",
        "train-pga-alpha-1.5", "train-lof-min-pts-0", "evaluate-lof-min-pts-0",
        "inject-anomaly-index-2", "inject-fraction-0",
        "flatten-tfidf-k-negative", "train-threshold-nan",
        "train-threshold-7", "gen-corpus-n-negative", "localize-top-negative",
        "score-localize-negative"])
def test_usage_error_exit_1(workspace, capsys, argv, message):
    _pipeline(workspace, count=10)
    assert run([a.replace("{ws}", str(workspace)) for a in argv]) == 1
    assert message in capsys.readouterr().err


def test_schema_parse_from_path(tmp_path):
    xsd = tmp_path / "p.xsd"
    xsd.write_text(PAYMENT_XSD, encoding="utf-8")
    out = tmp_path / "p.xadschema"
    assert run(["schema-parse", str(xsd), "-o", str(out)]) == 0
    assert out.read_text().startswith("xmlad-schema v1\n")


def test_warnings_reach_current_stderr(tmp_path, capsys, monkeypatch):
    """Each in-process run prints its warnings to the stderr of that run,
    and no environment variable sets a level that could fail the run."""
    monkeypatch.setenv("XMLAD_LOG", "bogus")
    xsd = tmp_path / "any.xsd"
    xsd.write_text(PAYMENT_XSD.replace(
        '<xsd:element name="Name" type="xsd:string"/>', "<xsd:any/>"),
        encoding="utf-8")
    for _ in range(2):
        assert run(["schema-parse", str(xsd),
                    "-o", str(tmp_path / "s.xadschema")]) == 0
        assert capsys.readouterr().err == ("WARNING xmlad: schema issue at "
                                           "Payment: xsd:any is not "
                                           "supported\n")


def test_schema_parse_stdin_reads_as_path(tmp_path):
    """A CRLF XSD piped to a real standard input gives the bytes of the
    .xadschema that reading it from its path gives."""
    xsd = tmp_path / "p.xsd"
    xsd.write_bytes(PAYMENT_XSD.replace("\n", "\r\n").encode("utf-8"))
    assert run(["schema-parse", str(xsd), "-o", str(tmp_path / "a")]) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(xmlad.__file__).parents[1])}
    with open(xsd, "rb") as fh:
        subprocess.run([sys.executable, "-m", "xmlad.cli", "schema-parse",
                        "-", "-o", str(tmp_path / "b")],
                       stdin=fh, env=env, check=True)
    assert (tmp_path / "a").read_bytes() == (tmp_path / "b").read_bytes()


@pytest.mark.parametrize("encoding", ["ascii", "latin-1", "utf-8"])
def test_stdout_bytes_match_file(tmp_path, encoding):
    """`-o -` writes the bytes `-o FILE` writes, whatever the encoding of
    stdout, with a column name that is not ASCII."""
    rng = np.random.default_rng(7)
    make_dataset(rng.normal(size=(60, 3)), ("Doc/Größe#max", "b", "c"),
                 ["normal"] * 45 + ["anomalous"] * 15).to_csv(
        tmp_path / "d.csv")
    dataset, model = str(tmp_path / "d.csv"), str(tmp_path / "m")
    assert run(["train", "--dataset", dataset, "-o", model]) == 0
    env = {**os.environ, "PYTHONIOENCODING": encoding,
           "PYTHONPATH": str(Path(xmlad.__file__).parents[1])}
    for argv in (["score", "--model", model, "--dataset", dataset,
                  "--localize", "3"],
                 ["localize", "--model", model, "--dataset", dataset],
                 ["learning-curve", "--dataset", dataset]):
        assert run([*argv, "-o", str(tmp_path / "out.csv")]) == 0
        piped = subprocess.run([sys.executable, "-m", "xmlad.cli", *argv,
                                "-o", "-"], env=env, check=True,
                               capture_output=True).stdout
        assert piped == (tmp_path / "out.csv").read_bytes()


@pytest.mark.skipif(not hasattr(signal, "SIGPIPE"), reason="no SIGPIPE")
def test_closed_stdout_pipe_ends_silently(tmp_path):
    """A reader that closes the pipe after one line ends `xmlad score` as
    it ends `cat`: by SIGPIPE, with nothing on stderr."""
    rng = np.random.default_rng(5)
    make_dataset(rng.normal(size=(2000, 3))).to_csv(tmp_path / "d.csv")
    dataset, model = str(tmp_path / "d.csv"), str(tmp_path / "m")
    assert run(["train", "--dataset", dataset, "-o", model]) == 0
    env = {**os.environ, "PYTHONPATH": str(Path(xmlad.__file__).parents[1])}
    with subprocess.Popen([sys.executable, "-m", "xmlad.cli", "score",
                           "--model", model, "--dataset", dataset,
                           "--localize", "3", "-o", "-"], env=env,
                          stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        assert proc.stdout.readline().startswith(b"row,score,")
        proc.stdout.close()  # the table is over 64 KB: more than a pipe holds
        assert proc.stderr.read() == b""
    assert proc.returncode == -signal.SIGPIPE
