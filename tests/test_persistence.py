import errno
import os
import random
import stat
from functools import partial

import numpy as np
import pytest

from conftest import PAYMENT_XSD, container, make_dataset, score_and_label
from xmlad import adifa, persist
from xmlad.baselines import gde_train, lof_train, pga_train
from xmlad.cli import run
from xmlad.errors import CorruptFile, NonFiniteData, VersionMismatch
from xmlad.extract import (FeatureMatrix, MeasurementVector,
                           build_feature_matrix, extract_row)
from xmlad.flatten import TfIdfDictionary, build_dictionary, flatten_row
from xmlad.inject import InjectionRecord
from xmlad.model_io import load_model, save_model
from xmlad.schema import (AbstractType, ElementDescriptor, SchemaVector,
                          parse_xsd)


def test_container_round_trip():
    body = {"name": "x", "values": [1.5, 2 ** -45, 1e300]}
    text = persist.dumps("demo", body)
    assert persist.loads("demo", text) == body
    # canonical serialization: dumping twice is identical
    assert persist.dumps("demo", body) == text


def test_container_truncated_is_corrupt():
    text = persist.dumps("demo", {"a": 1})
    with pytest.raises(CorruptFile):
        persist.loads("demo", text[:20])


def test_container_tampered_body_is_corrupt():
    text = persist.dumps("demo", {"a": 1})
    with pytest.raises(CorruptFile):
        persist.loads("demo", text.replace('{"a":1}', '{"a":2}'))


def test_container_future_version_rejected():
    text = persist.dumps("demo", {"a": 1}).replace("v1", "v2", 1)
    with pytest.raises(VersionMismatch):
        persist.loads("demo", text)


def test_container_wrong_kind_rejected():
    text = persist.dumps("demo", {"a": 1})
    with pytest.raises(VersionMismatch):
        persist.loads("other", text)


def _disk_full(monkeypatch):
    """Opened files take ten characters and then fail."""
    def opener(*args, **kwargs):
        fh = open(*args, **kwargs)
        write = fh.write

        def short_write(text):
            write(text[:10])
            raise OSError(errno.ENOSPC, "No space left on device")
        fh.write = short_write
        return fh
    monkeypatch.setattr(persist, "open", opener, raising=False)


def _replace_fails(monkeypatch):
    def fail(src, dst):
        raise OSError(errno.EXDEV, "Invalid cross-device link")
    monkeypatch.setattr(persist.os, "replace", fail)


def _artifact(path, value):
    persist.write(path, "demo", {"a": [2.0, value]})


def _to_csv(path, value):
    make_dataset([[2.0, value]]).to_csv(path)


@pytest.mark.parametrize("write,value,fault,error", [
    (_artifact, float("nan"), None, NonFiniteData),
    (_artifact, float("inf"), None, NonFiniteData),
    (_artifact, 2.0, _disk_full, OSError),
    (_artifact, 2.0, _replace_fails, OSError),
    (_to_csv, 2.0, _disk_full, OSError),
    (_to_csv, 2.0, _replace_fails, OSError),
], ids=["nan", "inf", "write-oserror", "replace-oserror",
        "to_csv-write-oserror", "to_csv-replace-oserror"])
def test_failed_write_leaves_existing_file(tmp_path, monkeypatch, write,
                                           value, fault, error):
    path = tmp_path / "a"
    path.write_bytes(b"before\n")
    if fault:
        fault(monkeypatch)
    with pytest.raises(error):
        write(path, value)
    assert path.read_bytes() == b"before\n"
    assert list(tmp_path.iterdir()) == [path]  # no temporary file is left


def _cli_inputs(ws):
    """A labelled 40-row dataset, a pga model trained on it and a schema."""
    rng = np.random.default_rng(3)
    make_dataset(rng.normal(size=(40, 3)),
                 labels=["normal", "anomalous"] * 20).to_csv(ws / "d.csv")
    assert run(["train", "--dataset", str(ws / "d.csv"), "--algo", "pga",
                "-o", str(ws / "m")]) == 0
    parse_xsd(PAYMENT_XSD).save(ws / "s")


# an output file of each CLI writer, and the command that writes it first
CLI_OUTPUTS = {
    "score": ("scores.csv", lambda ws, out: [
        "score", "--model", str(ws / "m"), "--dataset", str(ws / "d.csv"),
        "-o", str(out / "scores.csv")]),
    "evaluate": ("folds.csv", lambda ws, out: [
        "evaluate", "--dataset", str(ws / "d.csv"), "--algos", "pga",
        "--report", str(out)]),
    "corpus": ("doc0.xml", lambda ws, out: [
        "gen-corpus", "--schema", str(ws / "s"), "-n", "2",
        "--out", str(out)]),
}


@pytest.mark.parametrize("fault", [_disk_full, _replace_fails],
                         ids=["write-oserror", "replace-oserror"])
@pytest.mark.parametrize("command", list(CLI_OUTPUTS))
def test_failed_cli_write_leaves_existing_file(tmp_path, monkeypatch,
                                               capsys, command, fault):
    _cli_inputs(tmp_path)
    name, argv = CLI_OUTPUTS[command]
    out = tmp_path / "out"
    out.mkdir()
    (out / name).write_bytes(b"before\n")
    fault(monkeypatch)
    assert run(argv(tmp_path, out)) == 2
    assert "xmlad: [Errno" in capsys.readouterr().err
    assert (out / name).read_bytes() == b"before\n"
    assert list(out.iterdir()) == [out / name]  # no temporary file is left


@pytest.mark.parametrize("command", ["score", "train"])
def test_missing_directory_named(tmp_path, capsys, command):
    """An output whose directory is missing is named as it was given, not
    by the temporary written beside it."""
    _cli_inputs(tmp_path)
    out = str(tmp_path / "nodir" / "x")
    argv = {"score": ["score", "--model", str(tmp_path / "m")],
            "train": ["train"]}[command]
    capsys.readouterr()
    assert run([*argv, "--dataset", str(tmp_path / "d.csv"), "-o", out]) == 2
    assert (capsys.readouterr().err
            == f"xmlad: [Errno 2] No such file or directory: {out!r}\n")


@pytest.mark.parametrize("write", [_artifact, _to_csv],
                         ids=["artifact", "to_csv"])
def test_write_to_fifo_keeps_it(tmp_path, write):
    fifo = tmp_path / "f"
    os.mkfifo(fifo)
    write(tmp_path / "a", 1.0)
    # a reader opened first, so that opening the FIFO to write won't block
    fd = os.open(fifo, os.O_RDONLY | os.O_NONBLOCK)
    try:
        write(fifo, 1.0)  # fewer bytes than the pipe holds
        received = os.read(fd, 1 << 16)
    finally:
        os.close(fd)
    assert received == (tmp_path / "a").read_bytes()
    assert stat.S_ISFIFO(os.stat(fifo).st_mode)
    assert sorted(tmp_path.iterdir()) == [tmp_path / "a", fifo]


def test_write_through_symlink_keeps_it(tmp_path):
    (tmp_path / "a").write_bytes(b"before\n")
    (tmp_path / "link").symlink_to("a")
    persist.write(tmp_path / "link", "demo", {"a": 1.0})
    assert (tmp_path / "link").is_symlink()
    assert (tmp_path / "a").read_text() == persist.dumps("demo", {"a": 1.0})
    assert sorted(tmp_path.iterdir()) == [tmp_path / "a", tmp_path / "link"]


def test_write_gives_the_mode_of_a_plain_open(tmp_path):
    """A new file gets the mode a plain open gives it, and a replaced file
    keeps its own, as a plain open would keep it."""
    persist.write(tmp_path / "a", "demo", {"a": 1.0})
    with open(tmp_path / "b", "w"):
        pass
    assert ((tmp_path / "a").stat().st_mode
            == (tmp_path / "b").stat().st_mode)
    for write in (_artifact, _to_csv):
        private = tmp_path / "private"
        private.write_bytes(b"before\n")
        private.chmod(0o600)
        write(private, 1.0)
        assert stat.S_IMODE(private.stat().st_mode) == 0o600


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_container_non_finite_token_is_corrupt(token):
    # digest-valid, but a token that `dumps` never writes
    with pytest.raises(CorruptFile, match=token):
        persist.loads("demo", container("demo", f'{{"a":[1.0,{token}]}}'))


# the body keys per model kind: the v1 format other readers parse
BODY_KEYS = {
    "adifa": {"attributes", "psi", "training_scores", "meta_sigma",
              "meta_tau", "meta_norm", "calibration_max", "threshold",
              "column_names"},
    "pga": {"training_points", "nn_distances", "alpha", "k", "cutoff", "mu",
            "sd"},
    "gde": {"training_points", "radius", "mean_neighbors", "std_neighbors",
            "sign_mode", "mu", "sd"},
    "lof": {"training_points", "min_pts", "k_distances", "lrd",
            "training_lof", "lof_max", "mu", "sd"},
}
ATTRIBUTE_KEYS = {"values", "sigma", "tau", "norm", "weight", "entropy"}


def _random_dataset(rng, m=40, n=4):
    return make_dataset([[rng.gauss(10 * j, 2.0) for j in range(n)]
                         for _ in range(m)])


def test_adifa_model_round_trip_bit_identical(tmp_path):
    rng = random.Random("io-adifa")
    ds = _random_dataset(rng)
    model = adifa.train(ds, psi="gm")
    path = tmp_path / "m.xadmodel"
    save_model(model, path)
    kind, loaded = load_model(path)
    assert kind == "adifa"
    for _ in range(20):
        x = [rng.uniform(-10, 50) for _ in range(4)]
        a = adifa.classify(model, x)
        b = adifa.classify(loaded, x)
        assert a == b  # bit-for-bit identical results
    # saving the loaded model reproduces the file byte for byte
    path2 = tmp_path / "m2.xadmodel"
    save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()
    body = persist.read(path, "adifa")
    assert set(body) == BODY_KEYS["adifa"]
    assert all(set(a) == ATTRIBUTE_KEYS for a in body["attributes"])


@pytest.mark.parametrize("trainer,kind", [
    pytest.param(pga_train, "pga", id="pga"),
    pytest.param(gde_train, "gde", id="gde"),
    pytest.param(lof_train, "lof", id="lof"),
    pytest.param(partial(gde_train, sign_mode="literal"), "gde",
                 id="gde-literal"),
])
def test_baseline_model_round_trips(tmp_path, trainer, kind):
    rng = random.Random(f"io-{kind}")
    ds = _random_dataset(rng, m=30)
    model = trainer(ds)
    path = tmp_path / f"{kind}.xadmodel"
    save_model(model, path)
    loaded_kind, loaded = load_model(path)
    assert loaded_kind == kind
    for _ in range(10):
        x = [rng.uniform(-10, 50) for _ in range(4)]
        assert (score_and_label(kind, model, x)
                == score_and_label(kind, loaded, x))
    path2 = tmp_path / f"{kind}2.xadmodel"
    save_model(loaded, path2)
    assert path.read_bytes() == path2.read_bytes()
    assert set(persist.read(path, kind)) == BODY_KEYS[kind]


def _save_truth(records, path):
    persist.write(path, "truth", {"records": records})


def _load_truth(path):
    return persist.read(path, "truth", lambda body: persist.decode(
        list[InjectionRecord], body["records"]))


# the v1 body of each non-model kind written through the dataclass codec
ARTIFACTS = {
    "schema": (SchemaVector((
        ElementDescriptor("Order/@id", "@id", AbstractType.NUMERICAL),
        ElementDescriptor("Order/Paid", "Paid", AbstractType.ENUMERATION,
                          ("false", "true"), 0, 1),
        ElementDescriptor("Order/Item", "Item", AbstractType.STRING, (),
                          1, None)),
        "ab12", (("Order", "xsd:any is not supported"),)),
        SchemaVector.save, SchemaVector.load,
        '{"descriptors":[{"abstract_type":"Numerical","enum_values":[],'
        '"name":"@id","occurs_max":1,"occurs_min":1,"path":"Order/@id"},'
        '{"abstract_type":"Enumeration","enum_values":["false","true"],'
        '"name":"Paid","occurs_max":1,"occurs_min":0,"path":"Order/Paid"},'
        '{"abstract_type":"String","enum_values":[],"name":"Item",'
        '"occurs_max":null,"occurs_min":1,"path":"Order/Item"}],'
        '"issues":[["Order","xsd:any is not supported"]],'
        '"source_hash":"ab12"}'),
    "fm": (FeatureMatrix("ab12", [
        [[MeasurementVector((3.0,))], [MeasurementVector((), failed=True)],
         [MeasurementVector((2.0, 9.0), "Jane Roe")]],
        [[], [MeasurementVector((1.0,)), MeasurementVector((0.0,))], []]],
        ["r0", "r2"], [0, 1], [("r1", "unparseable XML")]),
        FeatureMatrix.save, FeatureMatrix.load,
        '{"diagnostics":[["r1","unparseable XML"]],"row_ids":["r0","r2"],'
        '"rows":[[[[[3.0],null,false]],[[[],null,true]],'
        '[[[2.0,9.0],"Jane Roe",false]]],[[],[[[1.0],null,false],'
        '[[0.0],null,false]],[]]],"schema_hash":"ab12",'
        '"unknown_counts":[0,1]}'),
    "dict": (TfIdfDictionary(("wire", "urgent"), (3, 1), 4, 2),
             TfIdfDictionary.save, TfIdfDictionary.load,
             '{"corpus_size":4,"doc_frequency":[3,1],"k":2,'
             '"terms":["wire","urgent"]}'),
    "truth": ([InjectionRecord("d0", [("Xss", "P/Name", "0123456789ab")],
                               "anomalous", False, 1),
               InjectionRecord("d1", [], "normal")], _save_truth, _load_truth,
              '{"records":[{"document_id":"d0","injections":'
              '[["Xss","P/Name","0123456789ab"]],"label":"anomalous",'
              '"requested":1,"shortfall":false},{"document_id":"d1",'
              '"injections":[],"label":"normal","requested":0,'
              '"shortfall":false}]}'),
}


@pytest.mark.parametrize("kind", list(ARTIFACTS))
def test_artifact_body_pinned_and_round_trips(tmp_path, kind):
    value, save, load, body = ARTIFACTS[kind]
    path = tmp_path / "a"
    save(value, path)
    assert path.read_text().splitlines()[2] == body
    loaded = load(path)
    assert loaded == value
    save(loaded, tmp_path / "b")
    assert (tmp_path / "b").read_bytes() == path.read_bytes()


def test_ingest_plans_are_not_state(tmp_path):
    # the plans extract and flatten cache on a schema and a dictionary are
    # neither saved nor compared
    docs = [f"<Payment><PaymentAmount>{i}</PaymentAmount><PyValue>A"
            f"</PyValue><Name>pay {i} now</Name></Payment>" for i in range(4)]
    schema = parse_xsd(PAYMENT_XSD)
    schema.save(tmp_path / "s")
    build_dictionary(build_feature_matrix(docs, schema),
                     schema).save(tmp_path / "d")
    used, fresh = (SchemaVector.load(tmp_path / "s") for _ in range(2))
    used_dict, fresh_dict = (TfIdfDictionary.load(tmp_path / "d")
                             for _ in range(2))
    x = flatten_row(extract_row(docs[0], used).features, used, used_dict)
    assert "ingest_plan" in vars(used) and "_frequency" in vars(used_dict)
    assert used == fresh and used_dict == fresh_dict
    used.save(tmp_path / "s2")
    used_dict.save(tmp_path / "d2")
    assert (tmp_path / "s2").read_bytes() == (tmp_path / "s").read_bytes()
    assert (tmp_path / "d2").read_bytes() == (tmp_path / "d").read_bytes()
    assert flatten_row(extract_row(docs[0], fresh).features, fresh,
                       fresh_dict) == x


def _first(key, value):
    return lambda body: body["attributes"][0].update({key: value})


@pytest.mark.parametrize("edit", [
    lambda body: body.update(psi="xx"),
    _first("sigma", 0.0), _first("tau", -1.0), _first("norm", 0.0),
    _first("weight", -0.5),
    lambda body: body.update(meta_sigma=-1.0),
    lambda body: body.update(meta_tau=0.0),
    lambda body: body.update(meta_norm=0.0),
    lambda body: body.update(calibration_max=0.0),
    lambda body: body["attributes"][1]["values"].reverse(),
], ids=["psi", "sigma", "tau", "norm", "weight", "meta_sigma", "meta_tau",
        "meta_norm", "calibration_max", "values"])
def test_adifa_model_invariants_checked_at_load(tmp_path, edit):
    model = adifa.train(_random_dataset(random.Random("invariants")))
    body = persist.loads("adifa", persist.dumps("adifa", model))
    path = tmp_path / "m.xadmodel"
    path.write_text(persist.dumps("adifa", body))
    load_model(path)  # the unedited body loads
    edit(body)
    path.write_text(persist.dumps("adifa", body))
    with pytest.raises(CorruptFile):
        load_model(path)


def test_adifa_model_zero_weight_loads(tmp_path):
    # the column of the greatest entropy gets weight 0 from compute_weights
    body = persist.loads("adifa", persist.dumps("adifa", adifa.train(
        _random_dataset(random.Random("zero-weight")))))
    body["attributes"][0]["weight"] = 0.0
    path = tmp_path / "m.xadmodel"
    path.write_text(persist.dumps("adifa", body))
    assert load_model(path)[1].attributes[0].weight == 0.0


@pytest.mark.parametrize("threshold", [0.0, 1.0])
def test_adifa_model_threshold_bounds_load(tmp_path, threshold):
    # train --threshold admits both ends of [0, 1]
    model = adifa.train(_random_dataset(random.Random("threshold")),
                        threshold=threshold)
    save_model(model, tmp_path / "m.xadmodel")
    assert load_model(tmp_path / "m.xadmodel")[1].threshold == threshold


def test_load_model_rejects_garbage(tmp_path):
    path = tmp_path / "bad.xadmodel"
    path.write_text("not a model\n")
    with pytest.raises(CorruptFile):
        load_model(path)
    path.write_text("xmlad-adifa v99\nsha256:0\n{}\n")
    with pytest.raises(VersionMismatch):
        load_model(path)
    path.write_text(persist.dumps("pga", {"k": 1}))
    with pytest.raises(CorruptFile):
        load_model(path)


def test_truncated_model_file(tmp_path):
    rng = random.Random("trunc")
    model = pga_train(_random_dataset(rng, m=10))
    path = tmp_path / "m.xadmodel"
    save_model(model, path)
    text = path.read_text()
    path.write_text(text[: len(text) // 2])
    with pytest.raises(CorruptFile):
        load_model(path)


def test_save_model_rejects_unknown_type(tmp_path):
    with pytest.raises(TypeError):
        save_model(object(), tmp_path / "x.xadmodel")
