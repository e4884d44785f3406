import pytest

from xmlad.errors import EmptyCorpus, MalformedXml
from xmlad.extract import (ExtractedRow, FeatureMatrix, MeasurementVector,
                           build_feature_matrix, extract_row,
                           measure_occurrence)
from xmlad.schema import AbstractType, ElementDescriptor, parse_xsd

NUM = ElementDescriptor("X/N", "N", AbstractType.NUMERICAL)
ENUM = ElementDescriptor("X/E", "E", AbstractType.ENUMERATION,
                         enum_values=("A", "B", "C"))
STR = ElementDescriptor("X/S", "S", AbstractType.STRING)
DATE = ElementDescriptor("X/D", "D", AbstractType.DATE)


def test_measure_numerical():
    mv = measure_occurrence("12.5", NUM)
    assert mv.values == (12.5,)
    assert not mv.failed


def test_measure_string_words_and_chars():
    mv = measure_occurrence("hello brave world", STR)
    assert mv.values == (3.0, 17.0)
    assert mv.raw_text == "hello brave world"


def test_measure_enumeration_index():
    mv = measure_occurrence("B", ENUM)
    assert mv.values == (1.0,)
    # a repeated literal measures as its first, as tuple.index gives it
    twice = ElementDescriptor("X/T", "T", AbstractType.ENUMERATION,
                              enum_values=("A", "B", "A"))
    assert measure_occurrence("A", twice).values == (0.0,)


def test_measure_date_epoch():
    mv = measure_occurrence("1970-01-02T00:00:00Z", DATE)
    assert mv.values == (86400.0,)
    assert measure_occurrence("1970-01-02", DATE).values == (86400.0,)
    # xs:gYear and xs:gYearMonth measure their first instant
    for text, seconds in [("2024", 1704067200.0), ("2024-05", 1714521600.0),
                          ("1999", 915148800.0), ("1999-12", 944006400.0),
                          ("1999Z", 915148800.0),
                          ("1999-12+02:00", 944006400.0 - 7200.0),
                          ("1999-12-05:00", 944006400.0 + 18000.0)]:
        assert measure_occurrence(text, DATE).values == (seconds,)
    assert measure_occurrence("1999-13", DATE).failed
    # any number of fractional-second digits, cut to microseconds
    for text, seconds in [("2024-01-05T10:00:00.5Z", 1704448800.5),
                          ("2024-01-05T10:00:00.25Z", 1704448800.25),
                          ("2024-01-05T10:00:00.123456789Z", 1704448800.123456),
                          ("10:00:00.5", 36000.5), ("10:00:00.25", 36000.25),
                          ("10:00:00.123456789", 36000.123456)]:
        assert measure_occurrence(text, DATE).values == (seconds,)


def test_unparseable_values_flagged_not_dropped():
    # a non-finite number is no value to measure either, nor is a text
    # outside the XSD lexical space that float() reads
    for text, desc in [("not-a-number", NUM), ("D", ENUM),
                       ("yesterday", DATE), ("NaN", NUM), ("-INF", NUM),
                       ("Infinity", NUM), ("1e400", NUM), ("1_000", NUM),
                       ("\uff11\uff12\uff13", NUM)]:
        mv = measure_occurrence(text, desc)
        assert mv.failed
        assert mv.values == ()


def test_payment_row(payment_schema):
    doc = ("<Payment><PaymentAmount>100</PaymentAmount>"
           "<PyValue>B</PyValue><Name>John Doe</Name></Payment>")
    row = extract_row(doc, payment_schema)
    values = [[list(mv.values) for mv in cf] for cf in row.features]
    assert values == [[[100.0]], [[1.0]], [[2.0, 8.0]]]
    assert row.unknown_elements == 0


def test_repeated_occurrences_collected_in_order(payment_schema):
    doc = ("<Payment><PaymentAmount>1</PaymentAmount>"
           "<Name>a</Name><Name>b b</Name></Payment>")
    row = extract_row(doc, payment_schema)
    name_cf = row.features[2]
    assert [mv.raw_text for mv in name_cf] == ["a", "b b"]


def test_document_without_schema_elements(payment_schema):
    row = extract_row("<Payment/>", payment_schema)
    assert all(cf == [] for cf in row.features)


def test_unknown_elements_tallied(payment_schema):
    doc = ("<Payment><PaymentAmount>1</PaymentAmount>"
           "<Mystery>x</Mystery><Other>y</Other></Payment>")
    row = extract_row(doc, payment_schema)
    assert row.unknown_elements == 2


def test_mixed_content_concatenates_text(payment_schema):
    doc = ("<Payment><Name>one <b/>two</Name></Payment>")
    row = extract_row(doc, payment_schema)
    mv = row.features[2][0]
    assert mv.raw_text == "one two"
    assert mv.values == (2.0, 7.0)


def test_deeply_nested_document_is_one_unknown_leaf(payment_schema):
    doc = "<Payment>" + "<X>" * 3000 + "</X>" * 3000 + "</Payment>"
    row = extract_row(doc, payment_schema)
    assert row == ExtractedRow(features=[[], [], []], unknown_elements=1)


# Doc/Qty is a decimal with an xs:boolean attribute, Doc/Box a container
# with a child and an attribute, and Doc/@unit an attribute of the root
DOC_XSD = """<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
  <xsd:element name="Doc"><xsd:complexType>
    <xsd:sequence>
      <xsd:element name="Qty" maxOccurs="unbounded"><xsd:complexType>
        <xsd:simpleContent><xsd:extension base="xsd:decimal">
          <xsd:attribute name="ok" type="xsd:boolean"/>
        </xsd:extension></xsd:simpleContent>
      </xsd:complexType></xsd:element>
      <xsd:element name="Box" minOccurs="0"><xsd:complexType>
        <xsd:sequence>
          <xsd:element name="Tag" type="xsd:string" minOccurs="0"/>
        </xsd:sequence>
        <xsd:attribute name="id" type="xsd:int"/>
      </xsd:complexType></xsd:element>
    </xsd:sequence>
    <xsd:attribute name="unit" type="xsd:string"/>
  </xsd:complexType></xsd:element>
</xsd:schema>
"""


@pytest.fixture(scope="module")
def doc_schema():
    schema = parse_xsd(DOC_XSD)
    assert schema.paths() == ["Doc/Qty", "Doc/Qty/@ok", "Doc/Box/Tag",
                              "Doc/Box/@id", "Doc/@unit"]
    return schema


def _mv(*values, text=None):
    return MeasurementVector(tuple(map(float, values)), raw_text=text)


def test_attributes_and_repeats_in_document_order(doc_schema):
    # xs:boolean's 1 and 0 are its literals, attributes the schema lacks
    # are dropped, and the empty Box container is one unknown leaf
    doc = ('<Doc unit="kg" x="1"><Qty ok="1">2</Qty><Qty ok="0" y="z">3.5'
           '</Qty><Box id="7"/><Qty ok="true">4</Qty></Doc>')
    assert extract_row(doc, doc_schema) == ExtractedRow(
        features=[[_mv(2), _mv(3.5), _mv(4)], [_mv(1), _mv(0), _mv(1)], [],
                  [_mv(7)], [_mv(1, 2, text="kg")]],
        unknown_elements=1)


def test_unknown_subtree_counts_each_leaf(doc_schema):
    doc = ("<Doc><Extra><A>1</A><B><C/><D>x</D></B></Extra><Qty>1</Qty>"
           "<Box><Tag>t</Tag><Odd/></Box></Doc>")
    assert extract_row(doc, doc_schema) == ExtractedRow(
        features=[[_mv(1)], [], [_mv(1, 1, text="t")], [], []],
        unknown_elements=4)
    nothing = [[], [], [], [], []]
    assert extract_row("<Doc/>", doc_schema) == ExtractedRow(nothing, 1)
    assert extract_row("<Other><Qty>1</Qty></Other>",
                       doc_schema) == ExtractedRow(nothing, 1)


@pytest.mark.parametrize("doc", [
    '<Doc xmlns="urn:x" unit="m"><Qty ok="1">5</Qty></Doc>',
    '<p:Doc xmlns:p="urn:x" p:unit="m"><p:Qty p:ok="1">5</p:Qty></p:Doc>'])
def test_namespaced_names_match_by_local_name(doc_schema, doc):
    assert extract_row(doc, doc_schema) == ExtractedRow(
        features=[[_mv(5)], [_mv(1)], [], [], [_mv(1, 1, text="m")]],
        unknown_elements=0)


def test_malformed_document_raises(payment_schema):
    with pytest.raises(MalformedXml):
        extract_row("<Payment>", payment_schema)


def test_matrix_single_document(payment_schema):
    fm = build_feature_matrix(["<Payment/>"], payment_schema)
    assert len(fm.rows) == 1


def test_matrix_skips_malformed_with_diagnostic(payment_schema):
    corpus = ["<Payment/>", "<Payment", "<Payment/>"]
    fm = build_feature_matrix(corpus, payment_schema)
    assert len(fm.rows) == 2
    assert len(fm.diagnostics) == 1
    assert fm.diagnostics[0][0] == "1"


def test_empty_corpus_raises(payment_schema):
    with pytest.raises(EmptyCorpus):
        build_feature_matrix([], payment_schema)
    with pytest.raises(EmptyCorpus):
        build_feature_matrix(["<bad", "<also bad"], payment_schema)


def test_matrix_round_trip(tmp_path, payment_schema):
    doc = ("<Payment><PaymentAmount>7.5</PaymentAmount>"
           "<PyValue>C</PyValue><Name>Jane Roe</Name></Payment>")
    fm = build_feature_matrix([doc, "<Payment/>"], payment_schema)
    path = tmp_path / "m.xadfm"
    fm.save(path)
    loaded = FeatureMatrix.load(path)
    loaded.save(tmp_path / "m2.xadfm")
    assert (tmp_path / "m2.xadfm").read_bytes() == path.read_bytes()
    assert loaded.rows[0][0][0].values == (7.5,)
