import math
from collections import Counter

import numpy as np
import pytest

from xmlad import flatten
from xmlad.errors import SchemaMismatch
from xmlad.extract import build_feature_matrix
from xmlad.flatten import (FlatDataset, TfIdfDictionary, build_dictionary,
                           column_plan, expected_width, flatten_matrix,
                           flatten_row, smoothed_idf, tfidf, tokenize)
from xmlad.schema import parse_xsd


def _matrix(docs, schema):
    return build_feature_matrix(docs, schema)


def _doc(amount="1", py="A", name="one two"):
    return (f"<Payment><PaymentAmount>{amount}</PaymentAmount>"
            f"<PyValue>{py}</PyValue><Name>{name}</Name></Payment>")


def test_boolean_digits_count_as_literals():
    # xs:boolean's lexical space is true, false, 1 and 0
    schema = parse_xsd("""<?xml version="1.0"?>
    <xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
      <xsd:element name="T"><xsd:complexType><xsd:sequence>
        <xsd:element name="Flag" type="xsd:boolean" maxOccurs="unbounded"/>
      </xsd:sequence></xsd:complexType></xsd:element>
    </xsd:schema>""")
    doc = "<T><Flag>1</Flag><Flag> true </Flag><Flag>0</Flag></T>"
    fm = _matrix([doc, "<T><Flag>1</Flag><Flag>yes</Flag></T>"], schema)
    dic = build_dictionary(fm, schema, k=0)
    names = column_plan(schema, dic)
    rows = [dict(zip(names, flatten_row(r, schema, dic))) for r in fm.rows]
    assert rows == [
        {"T/Flag#sum[false]": 1.0, "T/Flag#sum[true]": 2.0,
         "parse_failures#count": 0.0},
        {"T/Flag#sum[false]": 0.0, "T/Flag#sum[true]": 1.0,
         "parse_failures#count": 1.0}]


def test_idf_of_a_repeated_term_is_its_first():
    dic = TfIdfDictionary(terms=("a", "b", "a"), doc_frequency=(1, 2, 3),
                          corpus_size=4, k=3)
    assert dic.idf("a") == smoothed_idf(4, 1)
    assert dic.idf("zzz") == smoothed_idf(4, 0)


def test_tokenize():
    assert tokenize("Hello, world!  HELLO") == ["hello", "world", "hello"]
    assert tokenize("...") == []


def test_row_tokens_are_each_texts_tokens():
    # flatten tokenizes a row's String texts joined by spaces; that gives
    # what tokenizing each text alone gives, final sigmas included
    texts = ["ΟΔΟΣ", "Σa", None, "", "x.Σ", "ΣΣ. Σ!", "aΣ\u0301", "-Σ"]
    each = Counter(tok for text in texts if text for tok in tokenize(text))
    assert flatten._token_counts(texts) == each
    assert each["οδος"] == 1  # a final sigma at the end of its text


def test_smoothed_idf_identities():
    assert smoothed_idf(5, 5) == 1.0
    assert smoothed_idf(4, 1) == pytest.approx(math.log(5 / 2) + 1.0)


def test_tfidf_values(payment_schema):
    fm = _matrix([_doc(name="alpha alpha"), _doc(name="beta"),
                  _doc(name="gamma"), _doc(name="delta")], payment_schema)
    dic = build_dictionary(fm, payment_schema, k=10)
    # m=4, df=1, tf=2
    from collections import Counter
    row = Counter({"alpha": 2})
    assert tfidf("alpha", row, dic) == pytest.approx(
        2 * (math.log(5 / 2) + 1), abs=1e-4)
    assert tfidf("alpha", row, dic) == pytest.approx(3.8326, abs=1e-4)
    assert tfidf("absent", Counter(), dic) == 0.0


def test_dictionary_top_k_by_summed_tfidf(payment_schema):
    fm = _matrix([_doc(name="a b"), _doc(name="a c"), _doc(name="a d")],
                 payment_schema)
    dic = build_dictionary(fm, payment_schema, k=1)
    # summed tf-idf: "a" = 3*(ln(4/4)+1) = 3.0; b/c/d = ln(4/2)+1 each
    assert dic.terms == ("a",)
    dic4 = build_dictionary(fm, payment_schema, k=4)
    assert dic4.terms == ("a", "b", "c", "d")  # ties broken lexicographically


def test_dictionary_empty_and_clamped(payment_schema):
    fm = _matrix([_doc(name="")], payment_schema)
    assert build_dictionary(fm, payment_schema, k=5).terms == ()
    fm2 = _matrix([_doc(name="only")], payment_schema)
    assert build_dictionary(fm2, payment_schema, k=99).terms == ("only",)


def test_expected_width(payment_schema):
    # numeric 3 + enum 3 + string 5 + failure 1 + k
    assert expected_width(payment_schema, 2) == 3 + 3 + 5 + 1 + 2
    names = column_plan(
        payment_schema,
        TfIdfDictionary(("x", "y"), (1, 1), 1, 2))
    assert len(names) == expected_width(payment_schema, 2)
    assert names[0] == "Payment/PaymentAmount#min"
    assert "Payment/PyValue#sum[B]" in names
    assert names[-1] == "tfidf#y"


def test_flatten_aggregates(payment_schema):
    doc = ("<Payment><PaymentAmount>3</PaymentAmount>"
           "<PaymentAmount>1</PaymentAmount>"
           "<PyValue>B</PyValue><PyValue>B</PyValue><PyValue>A</PyValue>"
           "<Name>one</Name><Name>two three four</Name></Payment>")
    fm = _matrix([doc], payment_schema)
    dic = build_dictionary(fm, payment_schema, k=0)
    row = flatten_row(fm.rows[0], payment_schema, dic)
    names = column_plan(payment_schema, dic)
    cells = dict(zip(names, row))
    assert cells["Payment/PaymentAmount#min"] == 1.0
    assert cells["Payment/PaymentAmount#max"] == 3.0
    assert cells["Payment/PaymentAmount#count"] == 2.0
    assert cells["Payment/PyValue#sum[A]"] == 1.0
    assert cells["Payment/PyValue#sum[B]"] == 2.0
    assert cells["Payment/PyValue#sum[C]"] == 0.0
    assert cells["Payment/Name#min_words"] == 1.0
    assert cells["Payment/Name#max_words"] == 3.0
    assert cells["Payment/Name#min_chars"] == 3.0
    assert cells["Payment/Name#max_chars"] == 14.0
    assert cells["Payment/Name#count"] == 2.0
    assert cells["parse_failures#count"] == 0.0


def test_absent_descriptor_columns_zero(payment_schema):
    fm = _matrix(["<Payment/>"], payment_schema)
    dic = build_dictionary(fm, payment_schema, k=0)
    row = flatten_row(fm.rows[0], payment_schema, dic)
    assert row == [0.0] * len(row)


def test_parse_failures_counted_and_excluded(payment_schema):
    doc = ("<Payment><PaymentAmount>oops</PaymentAmount>"
           "<PaymentAmount>2</PaymentAmount></Payment>")
    fm = _matrix([doc], payment_schema)
    dic = build_dictionary(fm, payment_schema, k=0)
    names = column_plan(payment_schema, dic)
    cells = dict(zip(names, flatten_row(fm.rows[0], payment_schema, dic)))
    assert cells["Payment/PaymentAmount#min"] == 2.0
    assert cells["Payment/PaymentAmount#max"] == 2.0
    assert cells["Payment/PaymentAmount#count"] == 2.0  # flagged still counts
    assert cells["parse_failures#count"] == 1.0


ORDER_XSD = """<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="Order">
    <xsd:complexType>
      <xsd:sequence>
        <xsd:element name="Placed" type="xsd:dateTime" maxOccurs="unbounded"/>
        <xsd:element name="Total" type="xsd:double" maxOccurs="unbounded"/>
      </xsd:sequence>
    </xsd:complexType>
  </xsd:element>
</xsd:schema>"""


def _order_cells(doc):
    schema = parse_xsd(ORDER_XSD)
    fm = _matrix([doc], schema)
    dic = build_dictionary(fm, schema, k=0)
    names = column_plan(schema, dic)
    return dict(zip(names, flatten_row(fm.rows[0], schema, dic)))


def test_date_slots_in_epoch_seconds():
    cells = _order_cells(
        "<Order><Placed>1970-01-02T00:00:00Z</Placed>"
        "<Placed>1970-01-01T01:00:00+01:00</Placed>"
        "<Placed>1970-01-03</Placed><Total>4</Total></Order>")
    assert cells["Order/Placed#min"] == 0.0
    assert cells["Order/Placed#max"] == 2 * 86400.0
    assert cells["Order/Placed#count"] == 3.0
    assert cells["parse_failures#count"] == 0.0


def test_all_failed_element_zero_slots_still_counted():
    cells = _order_cells("<Order><Placed>soon</Placed>"
                         "<Total>x</Total><Total>y</Total></Order>")
    for path, count in (("Order/Placed", 1.0), ("Order/Total", 2.0)):
        assert cells[f"{path}#min"] == 0.0
        assert cells[f"{path}#max"] == 0.0
        assert cells[f"{path}#count"] == count
    assert cells["parse_failures#count"] == 3.0


def test_row_width_uniform_and_permutation(payment_schema):
    docs = [_doc(amount="5"), "<Payment/>", _doc(name="three word note")]
    fm = _matrix(docs, payment_schema)
    dic = build_dictionary(fm, payment_schema, k=3)
    ds = flatten_matrix(fm, payment_schema, dic)
    assert ds.rows.shape == (3, expected_width(payment_schema, 3))
    fm_rev = _matrix(list(reversed(docs)), payment_schema)
    ds_rev = flatten_matrix(fm_rev, payment_schema, dic)
    assert np.array_equal(ds.rows[::-1], ds_rev.rows)


def test_schema_mismatch_raises(payment_schema):
    fm = _matrix([_doc()], payment_schema)
    dic = build_dictionary(fm, payment_schema, k=0)
    with pytest.raises(SchemaMismatch):
        flatten_row(fm.rows[0][:2], payment_schema, dic)


def test_csv_round_trip(tmp_path, payment_schema):
    fm = _matrix([_doc(), _doc(amount="2.25", name="note text")],
                 payment_schema)
    dic = build_dictionary(fm, payment_schema, k=2)
    ds = flatten_matrix(fm, payment_schema, dic, labels=["normal",
                                                         "anomalous"])
    path = tmp_path / "d.csv"
    ds.to_csv(path)
    loaded = FlatDataset.from_csv(path)
    assert loaded.column_names == ds.column_names
    assert np.array_equal(loaded.rows, ds.rows)  # repr floats are exact
    assert loaded.labels == ("normal", "anomalous")


def test_dictionary_round_trip(tmp_path, payment_schema):
    fm = _matrix([_doc(name="alpha beta"), _doc(name="alpha")],
                 payment_schema)
    dic = build_dictionary(fm, payment_schema, k=2)
    path = tmp_path / "d.xaddict"
    dic.save(path)
    assert TfIdfDictionary.load(path) == dic
