import hashlib

import numpy as np
import pytest

from xmlad import persist
from xmlad.errors import MissingParams
from xmlad.extract import build_feature_matrix
from xmlad.flatten import build_dictionary, flatten_matrix
from xmlad.inject import InjectionSpec, make_anomalous_corpus
from xmlad.schema import AbstractType, parse_xsd
from xmlad.synth import (NumericParams, demo_params, demo_schema_xsd,
                         generate_normal_corpus, params_from_obj)


@pytest.fixture(scope="module")
def demo30():
    schema = parse_xsd(demo_schema_xsd())
    return schema, demo_params(schema, seed=0)


def test_demo_schema_element_mix(demo30):
    schema, _ = demo30
    by_type = {}
    for desc in schema.descriptors:
        by_type.setdefault(desc.abstract_type, []).append(desc)
    assert len(schema.descriptors) == 30
    assert len(by_type[AbstractType.NUMERICAL]) == 10
    assert len(by_type[AbstractType.STRING]) == 10
    assert len(by_type[AbstractType.ENUMERATION]) == 5
    assert len(by_type[AbstractType.DATE]) == 5


def test_zero_documents(demo30):
    schema, params = demo30
    assert generate_normal_corpus(schema, params, 0) == []


def test_generation_is_seeded(demo30):
    schema, params = demo30
    a = generate_normal_corpus(schema, params, 5, seed=3)
    b = generate_normal_corpus(schema, params, 5, seed=3)
    c = generate_normal_corpus(schema, params, 5, seed=4)
    assert a == b
    assert a != c


def test_generated_documents_match_schema(demo30):
    schema, params = demo30
    docs = generate_normal_corpus(schema, params, 10, seed=2)
    fm = build_feature_matrix(docs, schema)
    assert fm.unknown_counts == [0] * 10
    for row in fm.rows:
        for cf in row:
            assert len(cf) == 1
            assert not cf[0].failed


def test_missing_params_raise(demo30):
    schema, params = demo30
    partial = dict(params)
    partial.pop(schema.descriptors[0].path)
    with pytest.raises(MissingParams):
        generate_normal_corpus(schema, partial, 1)


def test_column_means_approach_generative_means(demo30):
    schema, params = demo30
    docs = generate_normal_corpus(schema, params, 1000, seed=6)
    fm = build_feature_matrix(docs, schema)
    dic = build_dictionary(fm, schema, k=0)
    ds = flatten_matrix(fm, schema, dic)
    for desc in schema.descriptors:
        p = params[desc.path]
        if not isinstance(p, NumericParams):
            continue
        col = ds.rows[:, ds.column_names.index(f"{desc.path}#min")]
        se = p.std / np.sqrt(len(docs))
        assert abs(col.mean() - p.mean) <= 3 * se


def test_params_from_obj_round_trip(demo30):
    schema, _ = demo30
    obj = {
        "Transaction/Amounts/Amount0": {"kind": "numeric", "mean": 5.0,
                                        "std": 1.0},
        "Transaction/Details/Note0": {"kind": "string",
                                      "vocabulary": ["a", "b"]},
    }
    params = params_from_obj(schema, obj)
    assert params["Transaction/Amounts/Amount0"].mean == 5.0
    assert params["Transaction/Details/Note0"].mean_words == 4.0
    with pytest.raises(MissingParams):
        params_from_obj(schema, {"x": {"kind": "mystery"}})


# attributes on the root, on a container and on a simpleContent element;
# the root's are the schema's last descriptors, yet written first
ATTRIBUTE_XSD = """<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="Order">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="Lines">
          <xsd:complexType>
            <xsd:sequence>
              <xsd:element name="Price">
                <xsd:complexType>
                  <xsd:simpleContent>
                    <xsd:extension base="xsd:decimal">
                      <xsd:attribute name="currency">
                        <xsd:simpleType>
                          <xsd:restriction base="xsd:string">
                            <xsd:enumeration value="EUR"/>
                            <xsd:enumeration value="USD"/>
                          </xsd:restriction>
                        </xsd:simpleType>
                      </xsd:attribute>
                    </xsd:extension>
                  </xsd:simpleContent>
                </xsd:complexType>
              </xsd:element>
              <xsd:element name="Note" type="xsd:string"/>
              <xsd:element name="Placed" type="xsd:dateTime"/>
            </xsd:sequence>
            <xsd:attribute name="count" type="xsd:int"/>
          </xsd:complexType>
        </xsd:element>
        <xsd:element name="Memo" type="xsd:string"/>
      </xsd:sequence>
      <xsd:attribute name="id" type="xsd:int" use="required"/>
      <xsd:attribute name="channel" type="xsd:string"/>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>
"""


@pytest.mark.parametrize("xsd, digest", [
    (demo_schema_xsd(),
     "d1150cfdf3012e0545cd07fe5fb3da1c52f09f3f006114cd08e465fcb0180875"),
    (ATTRIBUTE_XSD,
     "b1d2aa2bf481e6cf1a32be0ec6a17948128712fec5c7c3ca3cf5292e028f9f58"),
], ids=["demo", "attributes"])
def test_seeded_corpus_bytes_are_pinned(xsd, digest):
    # sha256 of a seeded run's normal documents, injected documents and
    # truth records: a changed byte or a reordered rng draw shows here
    schema = parse_xsd(xsd)
    docs = generate_normal_corpus(schema, demo_params(schema, seed=3), 20,
                                  seed=3)
    mixed, _, records = make_anomalous_corpus(
        docs, schema, InjectionSpec(anomaly_index=0.3, seed=3), 0.5)
    text = ("\n".join(docs + mixed) + "\n"
            + persist.dumps("truth", {"records": records}))
    assert hashlib.sha256(text.encode("utf-8")).hexdigest() == digest
