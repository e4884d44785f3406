import pytest

from xmlad.errors import EmptyCorpus, MalformedXml
from xmlad.extract import (FeatureMatrix, build_feature_matrix, extract_row,
                           measure_occurrence)
from xmlad.schema import AbstractType, ElementDescriptor

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
