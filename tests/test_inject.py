import random
import xml.etree.ElementTree as ET

import pytest

from xmlad import persist
from xmlad.inject import (ALL_CLASSES, AttackClass, InjectionRecord,
                          InjectionSpec, inject_document,
                          make_anomalous_corpus)
from xmlad.payloads import load_leakage_sentences
from xmlad.schema import parse_xsd
from xmlad.synth import demo_params, demo_schema_xsd, generate_normal_corpus


@pytest.fixture(scope="module")
def small_schema():
    return parse_xsd(demo_schema_xsd(4, 4, 1, 1))


@pytest.fixture(scope="module")
def small_corpus(small_schema):
    params = demo_params(small_schema, seed=1)
    return generate_normal_corpus(small_schema, params, 20, seed=1)


def test_injection_count_ceiling(small_schema, small_corpus):
    # 10 simple-content elements, index 0.25 -> ceil(2.5) = 3 injections
    spec = InjectionSpec(anomaly_index=0.25, seed=0)
    _, record = inject_document(small_corpus[0], small_schema, spec,
                                random.Random("t"))
    assert record.requested == 3
    assert len(record.injections) == 3
    assert not record.shortfall


def test_restricted_classes_and_shortfall(small_schema):
    # no Numerical elements in the document -> ValuePoisoning cannot land
    doc = "<Transaction><Details><Note0>plain text</Note0></Details></Transaction>"
    spec = InjectionSpec(anomaly_index=1.0, seed=0,
                         classes=(AttackClass.VALUE_POISONING,))
    mutated, record = inject_document(doc, small_schema, spec,
                                      random.Random("t"))
    assert record.injections == []
    assert record.shortfall
    assert ET.canonicalize(mutated) == ET.canonicalize(doc)


def test_injection_is_deterministic(small_schema, small_corpus):
    spec = InjectionSpec(anomaly_index=0.3, seed=7)
    out1 = inject_document(small_corpus[3], small_schema, spec,
                           random.Random("key"), document_id="3")
    out2 = inject_document(small_corpus[3], small_schema, spec,
                           random.Random("key"), document_id="3")
    assert out1[0] == out2[0]
    assert out1[1] == out2[1]


def test_every_class_produces_wellformed_xml(small_schema, small_corpus):
    for cls in ALL_CLASSES:
        spec = InjectionSpec(anomaly_index=0.2, seed=1, classes=(cls,))
        for i, doc in enumerate(small_corpus[:5]):
            mutated, record = inject_document(
                doc, small_schema, spec, random.Random(f"{cls.value}:{i}"))
            ET.fromstring(mutated)  # stays parseable
            for injected_cls, _, _ in record.injections:
                assert injected_cls == cls.value


def test_cdata_injection_emits_literal_cdata(small_schema, small_corpus):
    spec = InjectionSpec(anomaly_index=0.2, seed=1,
                         classes=(AttackClass.CDATA_INJECTION,))
    hits = 0
    for i, doc in enumerate(small_corpus):
        mutated, record = inject_document(doc, small_schema, spec,
                                          random.Random(f"cd:{i}"))
        if record.injections:
            hits += 1
            assert "<![CDATA[" in mutated and "]]>" in mutated
    assert hits > 0


def test_value_poisoning_changes_number(small_schema, small_corpus):
    spec = InjectionSpec(anomaly_index=0.1, seed=1,
                         classes=(AttackClass.VALUE_POISONING,))
    mutated, record = inject_document(small_corpus[0], small_schema, spec,
                                      random.Random("vp"))
    (cls, path, _), = record.injections
    assert cls == "ValuePoisoning"
    original = ET.fromstring(small_corpus[0])
    poisoned = ET.fromstring(mutated)
    rel = path.split("/", 1)[1]
    before = float(original.find(rel).text)
    after = float(poisoned.find(rel).text)
    assert before != after
    assert abs(after) <= 10.0 * max(1.0, abs(before))


def test_corpus_fraction_and_labels(small_schema, small_corpus):
    spec = InjectionSpec(anomaly_index=0.2, seed=5)
    docs, labels, records = make_anomalous_corpus(small_corpus, small_schema,
                                                  spec, 0.5)
    assert len(docs) == len(small_corpus)
    assert labels.count("anomalous") == 10
    assert [r.label for r in records] == list(labels)


def test_corpus_fraction_one_labels_everything(small_schema, small_corpus):
    spec = InjectionSpec(anomaly_index=0.1, seed=5)
    _, labels, _ = make_anomalous_corpus(small_corpus, small_schema, spec, 1.0)
    assert all(label == "anomalous" for label in labels)


def test_corpus_document_without_injection_stays_normal():
    # a lone string element gives ValuePoisoning nothing to land on
    schema = parse_xsd('<xsd:schema xmlns:xsd="http://www.w3.org/2001/'
                       'XMLSchema"><xsd:element name="Note" '
                       'type="xsd:string"/></xsd:schema>')
    corpus = ["<Note>plain text</Note>"] * 4
    spec = InjectionSpec(anomaly_index=1.0, seed=0,
                         classes=(AttackClass.VALUE_POISONING,))
    docs, labels, records = make_anomalous_corpus(corpus, schema, spec, 1.0)
    assert docs == corpus
    assert labels == ["normal"] * 4
    assert all(r.shortfall and not r.injections for r in records)


def test_corpus_injection_deterministic(small_schema, small_corpus):
    spec = InjectionSpec(anomaly_index=0.2, seed=9)
    a = make_anomalous_corpus(small_corpus, small_schema, spec, 0.4)
    b = make_anomalous_corpus(small_corpus, small_schema, spec, 0.4)
    assert a[0] == b[0]
    assert a[1] == b[1]
    assert a[2] == b[2]


def test_spec_validation():
    with pytest.raises(ValueError):
        InjectionSpec(anomaly_index=0.0)
    with pytest.raises(ValueError):
        InjectionSpec(anomaly_index=1.5)
    with pytest.raises(ValueError):
        InjectionSpec(anomaly_index=0.5, classes=())


def test_leakage_sentences_available():
    sentences = load_leakage_sentences()
    assert len(sentences) >= 20
    assert all(s.strip() for s in sentences)


def test_records_round_trip():
    records = [InjectionRecord("0", [("Xss", "A/B", "abc123")], "anomalous",
                               False, 1),
               InjectionRecord("1", [], "normal")]
    text = persist.dumps("truth", {"records": records})
    assert persist.loads("truth", text, lambda body: persist.decode(
        list[InjectionRecord], body["records"])) == records
