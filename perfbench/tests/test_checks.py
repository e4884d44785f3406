"""Each benchmark check passes a real output and rejects a corrupted one.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(BENCH), str(BENCH.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import speed  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from xmlad import adifa, cli, evaluate, extract, flatten, model_io  # noqa: E402

TAGS = workloads.EVAL_TAGS


@pytest.fixture(scope="module")
def trained(tmp_path_factory):
    work = tmp_path_factory.mktemp("fit")
    _, schema = inputs.demo_schema()
    data, dictionary = inputs.flat(inputs.normal_docs(schema, 80, 0), schema)
    data.to_csv(work / "train.csv")
    model = adifa.train(data, psi="gm")
    model_io.save_model(model, work / "model.xadmodel")
    kind, body = checks.read_container(work / "model.xadmodel")
    X = checks.read_matrix(work / "train.csv")
    width = flatten.expected_width(schema, len(dictionary.terms))
    return {"schema": schema, "dictionary": dictionary, "model": model,
            "kind": kind, "body": body, "X": X, "width": width}


def fit_problems(t, body):
    return checks.check_fit_model(t["kind"], body, t["X"], t["width"],
                                  [0, 5, 9])


def test_fit_check_passes_the_trained_model(trained):
    assert fit_problems(trained, trained["body"]) == []


def test_fit_check_rejects_a_perturbed_training_score(trained):
    body = json.loads(json.dumps(trained["body"]))
    body["training_scores"][5] *= 1.0 + 1e-8
    problems = fit_problems(trained, body)
    assert len(problems) == 1 and problems[0].startswith("row 5:")


def test_fit_check_rejects_weights_off_their_sum(trained):
    body = json.loads(json.dumps(trained["body"]))
    body["attributes"][3]["weight"] += 1e-6
    assert any("weights sum" in p for p in fit_problems(trained, body))


def test_fit_check_rejects_a_missing_attribute(trained):
    body = json.loads(json.dumps(trained["body"]))
    body["attributes"].pop()
    assert any("attributes" in p for p in fit_problems(trained, body))


def detections(t, n=5):
    _, schema = inputs.demo_schema()
    docs, _ = inputs.labelled_docs(schema, n * 2, 9, 0)
    out = {}
    for i, doc in enumerate(docs[:n]):
        row = extract.extract_row(doc, t["schema"])
        x = flatten.flatten_row(row.features, t["schema"], t["dictionary"])
        r = adifa.classify(t["model"], x)
        out[i] = (x, r.score, r.likelihood, r.label,
                  [c for c, _ in adifa.localize(r, 3)])
    return out


def test_detection_check_passes_program_results(trained):
    samples = detections(trained)
    assert checks.check_detections(trained["body"], samples) == []
    assert checks.check_localized({d: s[4] for d, s in samples.items()},
                                  3) == []


@pytest.mark.parametrize("field, change", [
    (1, lambda v: v * (1.0 + 1e-9)),          # score
    (2, lambda v: v * (1.0 - 1e-9) if v else 1e-12),  # likelihood
    (3, lambda v: "normal" if v == "anomalous" else "anomalous"),  # label
])
def test_detection_check_rejects_a_perturbed_result(trained, field, change):
    samples = detections(trained, n=1)
    doc = list(samples[0])
    doc[field] = change(doc[field])
    assert checks.check_detections(trained["body"], {0: tuple(doc)}) != []


def test_localized_check_rejects_repeated_or_missing_names():
    assert checks.check_localized({0: ["a", "a", "b"]}, 3) != []
    assert checks.check_localized({0: ["a", "b"]}, 3) != []
    assert checks.check_localized({0: ["a", "b", "c"]}, 3) == []


def test_pair_count_auc_agrees_with_the_rank_auc():
    rng = np.random.default_rng(4)
    scores = rng.integers(0, 6, size=60).astype(float)  # many ties
    labels = np.where(rng.random(60) < 0.4, "anomalous", "normal")
    assert checks.pair_count_auc(scores, labels) == pytest.approx(
        evaluate.auc(scores, labels), rel=1e-12)
    assert checks.check_floor("auc", 0.9, 0.95) != []
    assert checks.check_floor("auc", 0.99, 0.95) == []


@pytest.fixture(scope="module")
def report(tmp_path_factory):
    work = tmp_path_factory.mktemp("evaluate")
    _, schema = inputs.demo_schema()
    for k in range(inputs.EVAL_CORPORA):
        docs, labels = inputs.labelled_docs(schema, 120, 3 + k, 7)
        data, _ = inputs.flat(docs, schema, labels=labels)
        data.to_csv(work / f"data{k}.csv")
    w = workloads.Evaluate(work, 7, {"evaluate": 120})
    w.timed(speed.Gauge(), rounds=inputs.EVAL_CORPORA)
    assert w.failed == 0
    return w


def copy_report(w, tmp_path):
    out = tmp_path / "report"
    out.mkdir()
    for f in w.reports[0].iterdir():
        (out / f.name).write_bytes(f.read_bytes())
    return out


def test_report_check_passes_and_recomputes_every_sampled_fold(report):
    recomputed = report.recompute_folds(0)
    assert len(recomputed) == len(TAGS)
    assert checks.check_report(report.reports[0], TAGS, recomputed) == []


def test_report_check_rejects_a_truncated_folds_csv(report, tmp_path):
    out = copy_report(report, tmp_path)
    text = (out / "folds.csv").read_text(encoding="utf-8")
    (out / "folds.csv").write_text(text[:len(text) * 2 // 3],
                                   encoding="utf-8")
    assert any("no complete row" in p
               for p in checks.check_report(out, TAGS, {}))


def test_report_check_rejects_a_fold_that_pair_counting_disowns(report,
                                                                tmp_path):
    out = copy_report(report, tmp_path)
    recomputed = report.recompute_folds(0)
    tag, fold = next(iter(recomputed))
    lines = (out / "folds.csv").read_text(encoding="utf-8").splitlines()
    for i, line in enumerate(lines):
        cells = line.split(",")
        if cells[0] == tag:
            aucs = [float(v) for v in cells[1:11]]
            aucs[fold] = max(0.0, aucs[fold] - 0.01)
            # keep the mean consistent so only the recomputation can object
            cells = [tag] + [repr(a) for a in aucs] + [repr(float(np.mean(aucs)))]
            lines[i] = ",".join(cells)
    (out / "folds.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    problems = checks.check_report(out, TAGS, recomputed)
    assert problems and all("pair counting" in p for p in problems)


def test_report_check_rejects_a_mean_that_is_not_the_mean(report, tmp_path):
    out = copy_report(report, tmp_path)
    lines = (out / "folds.csv").read_text(encoding="utf-8").splitlines()
    cells = lines[1].split(",")
    cells[-1] = repr(float(cells[-1]) * 0.9)
    lines[1] = ",".join(cells)
    (out / "folds.csv").write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert any("is not the mean" in p for p in checks.check_report(out, TAGS,
                                                                   {}))


def test_report_check_rejects_a_broken_roc_curve(report, tmp_path):
    out = copy_report(report, tmp_path)
    path = out / f"roc_{TAGS[0]}.csv"
    lines = path.read_text(encoding="utf-8").splitlines()
    lines.insert(2, "0.9,0.9")  # a step back along both axes
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert any("not monotone" in p for p in checks.check_report(out, TAGS, {}))
    path.write_text("\n".join(lines[:-1]) + "\n", encoding="utf-8")
    assert any("(1,1)" in p for p in checks.check_report(out, TAGS, {}))


def test_report_check_rejects_a_friedman_p_out_of_range(report, tmp_path):
    out = copy_report(report, tmp_path)
    path = out / "significance.txt"
    text = path.read_text(encoding="utf-8").splitlines()
    text[0] = "friedman_p 1.5"
    path.write_text("\n".join(text) + "\n", encoding="utf-8")
    assert any("friedman_p" in p for p in checks.check_report(out, TAGS, {}))


def test_tracer_sees_calls_made_through_names_cli_imported(tmp_path):
    _, schema = inputs.demo_schema()
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i, doc in enumerate(inputs.normal_docs(schema, 5, 0)):
        (corpus / f"d{i}.xml").write_text(doc, encoding="utf-8")
    schema.save(tmp_path / "s.xadschema")
    original = cli.build_feature_matrix
    tracer = tracing.Tracer()
    tracer.install()
    try:
        with tracer.span("round"):
            assert cli.run(["extract", str(corpus), "--schema",
                            str(tmp_path / "s.xadschema"),
                            "-o", str(tmp_path / "fm.xadfm")]) == 0
    finally:
        tracer.uninstall()
    assert cli.build_feature_matrix is original
    names = [s.name for s in tracer.spans]
    assert names.count("extract.extract_row") == 5
    assert {"cli.extract", "extract.build_feature_matrix", "persist.dumps",
            "persist.loads"} <= set(names)
    shares = tracing.self_time_shares(tracer.spans)
    assert sum(shares.values()) == pytest.approx(1.0)


def test_means_with_a_term_below_the_floor_are_left_out():
    assert checks.aggregate([1.0, 2e-318], "gm") is None
    assert checks.aggregate([1.0, 0.0], "gm") == 0.0
    assert checks.aggregate([4.0, 1.0], "gm") == pytest.approx(2.0)
