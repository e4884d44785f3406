import hashlib

import numpy as np
import pytest

from xmlad.flatten import FlatDataset
from xmlad.model_io import ALGORITHMS
from xmlad.schema import parse_xsd


def make_dataset(rows, column_names=None, labels=None):
    rows = np.asarray(rows, dtype=float)
    if column_names is None:
        column_names = tuple(f"c{j}" for j in range(rows.shape[1]))
    return FlatDataset(column_names=tuple(column_names), rows=rows,
                       column_meta=tuple(("", n) for n in column_names),
                       labels=tuple(labels) if labels is not None else None)


def container(kind, payload):
    """A digest-valid v1 artifact around the JSON text `payload`, written by
    hand so that it may hold what `persist.dumps` never writes."""
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return f"xmlad-{kind} v1\nsha256:{digest}\n{payload}\n"


def score_and_label(tag, model, x):
    """One row's native score and label, through the algorithm table's
    batch scores and label rule."""
    algo = ALGORITHMS[tag]
    scores = algo.scores(model, np.asarray([x], dtype=float))
    label = "anomalous" if algo.anomalous(model, scores)[0] else "normal"
    return float(scores[0]), label


PAYMENT_XSD = """<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="Payment">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="PaymentAmount" type="xsd:double"/>
        <xsd:element name="PyValue">
          <xsd:simpleType>
            <xsd:restriction base="xsd:string">
              <xsd:enumeration value="A"/>
              <xsd:enumeration value="B"/>
              <xsd:enumeration value="C"/>
            </xsd:restriction>
          </xsd:simpleType>
        </xsd:element>
        <xsd:element name="Name" type="xsd:string"/>
      </xsd:sequence>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>
"""


@pytest.fixture(scope="session")
def payment_schema():
    return parse_xsd(PAYMENT_XSD)
