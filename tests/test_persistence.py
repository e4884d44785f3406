import random
from functools import partial

import numpy as np
import pytest

from conftest import make_dataset, score_and_label
from xmlad import adifa, persist
from xmlad.baselines import gde_train, lof_train, pga_train
from xmlad.errors import CorruptFile, VersionMismatch
from xmlad.flatten import TfIdfDictionary
from xmlad.inject import InjectionRecord, records_from_text, records_to_text
from xmlad.model_io import load_model, save_model


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
    pytest.param(partial(pga_train, standardize=True), "pga",
                 id="pga-standardize"),
    pytest.param(partial(gde_train, sign_mode="literal", standardize=True),
                 "gde", id="gde-literal-standardize"),
    pytest.param(partial(lof_train, standardize=True), "lof",
                 id="lof-standardize"),
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
    path.write_text(records_to_text(records), encoding="utf-8")


# the v1 body of each non-model kind written through the dataclass codec
ARTIFACTS = {
    "dict": (TfIdfDictionary(("wire", "urgent"), (3, 1), 4, 2),
             TfIdfDictionary.save, TfIdfDictionary.load,
             '{"corpus_size":4,"doc_frequency":[3,1],"k":2,'
             '"terms":["wire","urgent"]}'),
    "truth": ([InjectionRecord("d0", [("Xss", "P/Name", "0123456789ab")],
                               "anomalous", False, 1),
               InjectionRecord("d1", [], "normal")], _save_truth,
              lambda path: records_from_text(path.read_text("utf-8")),
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
