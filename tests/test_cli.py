import csv
from pathlib import Path

import numpy as np
import pytest

from conftest import PAYMENT_XSD
from xmlad import persist
from xmlad.cli import run
from xmlad.flatten import FlatDataset
from xmlad.model_io import ALGORITHMS, load_model
from xmlad.synth import demo_schema_xsd


@pytest.fixture()
def workspace(tmp_path):
    (tmp_path / "schema.xsd").write_text(demo_schema_xsd(3, 3, 1, 1),
                                         encoding="utf-8")
    return tmp_path


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


def test_baseline_training(workspace):
    _, dataset = _pipeline(workspace)
    model = workspace / "pga.xadmodel"
    assert run(["train", "--dataset", str(dataset), "--algo", "pga",
                "-o", str(model)]) == 0
    out = workspace / "pga_scores.csv"
    assert run(["score", "--model", str(model), "--dataset", str(dataset),
                "-o", str(out)]) == 0
    assert out.exists()


@pytest.mark.parametrize("standardize", [False, True],
                         ids=["plain", "standardize"])
@pytest.mark.parametrize("algo", ["pga", "gde", "lof"])
def test_baseline_score_writes_batch_scores(workspace, algo, standardize):
    # the demo schema's epoch-second Stamp columns make one-row and batch
    # distance arithmetic round differently; score must write the batch
    _, dataset = _pipeline(workspace)
    model = workspace / "m.xadmodel"
    assert run(["train", "--dataset", str(dataset), "--algo", algo,
                "-o", str(model)]
               + (["--standardize"] if standardize else [])) == 0
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


def test_learning_curve_command(workspace):
    _, dataset = _pipeline(workspace, count=100)
    out = workspace / "curve.csv"
    assert run(["learning-curve", "--dataset", str(dataset),
                "--algo", "pga", "-o", str(out)]) == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["train_size", "auc"]
    assert len(rows) == 11


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
}


@pytest.mark.parametrize("case", list(_DATA_ERRORS))
def test_data_error_exit_2(workspace, capsys, case):
    argv = _DATA_ERRORS[case](workspace)
    capsys.readouterr()
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("xmlad:") and "Traceback" not in err


@pytest.mark.parametrize("algo", ["adifa", "pga", "gde", "lof"])
def test_score_non_finite_exit_2(workspace, capsys, algo):
    _, dataset = _pipeline(workspace)
    model = workspace / "m.xadmodel"
    assert run(["train", "--dataset", str(dataset), "--algo", algo,
                "-o", str(model)]) == 0
    bad = _with_nan(dataset, workspace / "nan.csv")
    assert run(["score", "--model", str(model), "--dataset", str(bad),
                "-o", str(workspace / "out.csv")]) == 2
    assert "non-finite" in capsys.readouterr().err
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
], ids=["unknown-flag", "unknown-attack-class", "unknown-evaluate-algo",
        "unknown-learning-curve-algo"])
def test_usage_error_exit_1(workspace, capsys, argv, message):
    _pipeline(workspace, count=10)
    assert run([a.replace("{ws}", str(workspace)) for a in argv]) == 1
    assert message in capsys.readouterr().err


def test_schema_parse_stdin_like_path(tmp_path):
    xsd = tmp_path / "p.xsd"
    xsd.write_text(PAYMENT_XSD, encoding="utf-8")
    out = tmp_path / "p.xadschema"
    assert run(["schema-parse", str(xsd), "-o", str(out)]) == 0
    assert out.read_text().startswith("xmlad-schema v1\n")
