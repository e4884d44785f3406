import pytest

from xmlad.errors import MalformedSchema
from xmlad.schema import (AbstractType, SchemaVector, map_xsd_type, parse_xsd)

EMPTY_XSD = """<?xml version="1.0"?>
<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema"/>
"""


def test_empty_schema_gives_empty_vector():
    schema = parse_xsd(EMPTY_XSD)
    assert schema.descriptors == ()


def test_single_date_element():
    xsd = """<?xml version="1.0"?>
    <xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
      <xsd:element name="When" type="xsd:date"/>
    </xsd:schema>
    """
    schema = parse_xsd(xsd)
    assert len(schema.descriptors) == 1
    desc = schema.descriptors[0]
    assert desc.path == "When"
    assert desc.abstract_type is AbstractType.DATE


@pytest.mark.parametrize("name,expected", [
    ("xsd:double", AbstractType.NUMERICAL),
    ("xsd:float", AbstractType.NUMERICAL),
    ("xsd:decimal", AbstractType.NUMERICAL),
    ("xsd:int", AbstractType.NUMERICAL),
    ("xsd:integer", AbstractType.NUMERICAL),
    ("xsd:long", AbstractType.NUMERICAL),
    ("xsd:short", AbstractType.NUMERICAL),
    ("xsd:byte", AbstractType.NUMERICAL),
    ("xsd:unsignedInt", AbstractType.NUMERICAL),
    ("xsd:unsignedLong", AbstractType.NUMERICAL),
    ("xsd:nonNegativeInteger", AbstractType.NUMERICAL),
    ("xsd:positiveInteger", AbstractType.NUMERICAL),
    ("xsd:date", AbstractType.DATE),
    ("xsd:dateTime", AbstractType.DATE),
    ("xsd:time", AbstractType.DATE),
    ("xsd:gYear", AbstractType.DATE),
    ("xsd:gYearMonth", AbstractType.DATE),
    ("xsd:boolean", AbstractType.ENUMERATION),
    ("xsd:string", AbstractType.STRING),
    ("xsd:anyURI", AbstractType.STRING),
    ("xsd:token", AbstractType.STRING),
    ("someUnknownType", AbstractType.STRING),
])
def test_map_xsd_type(name, expected):
    assert map_xsd_type(name) is expected


def test_payment_schema_descriptors(payment_schema):
    paths = payment_schema.paths()
    assert paths == ["Payment/PaymentAmount", "Payment/PyValue",
                     "Payment/Name"]
    types = [d.abstract_type for d in payment_schema.descriptors]
    assert types == [AbstractType.NUMERICAL, AbstractType.ENUMERATION,
                     AbstractType.STRING]
    assert payment_schema.descriptors[1].enum_values == ("A", "B", "C")


def test_boolean_gets_two_literals():
    xsd = """<?xml version="1.0"?>
    <xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
      <xsd:element name="Flag" type="xsd:boolean"/>
    </xsd:schema>
    """
    desc = parse_xsd(xsd).descriptors[0]
    assert desc.abstract_type is AbstractType.ENUMERATION
    assert desc.enum_values == ("false", "true")


def test_named_types_and_refs():
    xsd = """<?xml version="1.0"?>
    <xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
      <xsd:simpleType name="Grade">
        <xsd:restriction base="xsd:string">
          <xsd:enumeration value="low"/>
          <xsd:enumeration value="high"/>
        </xsd:restriction>
      </xsd:simpleType>
      <xsd:complexType name="ItemType">
        <xsd:sequence>
          <xsd:element name="Price" type="xsd:decimal"/>
          <xsd:element name="Quality" type="Grade"/>
        </xsd:sequence>
      </xsd:complexType>
      <xsd:element name="Item" type="ItemType"/>
      <xsd:element name="Order">
        <xsd:complexType>
          <xsd:sequence>
            <xsd:element ref="Item"/>
          </xsd:sequence>
        </xsd:complexType>
      </xsd:element>
    </xsd:schema>
    """
    schema = parse_xsd(xsd)
    paths = schema.paths()
    assert "Item/Price" in paths
    assert "Item/Quality" in paths
    assert "Order/Item/Price" in paths
    quality = next(d for d in schema.descriptors if d.path == "Item/Quality")
    assert quality.enum_values == ("low", "high")


def test_attributes_become_descriptors():
    xsd = """<?xml version="1.0"?>
    <xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
      <xsd:element name="Tx">
        <xsd:complexType>
          <xsd:sequence>
            <xsd:element name="Amount" type="xsd:double"/>
          </xsd:sequence>
          <xsd:attribute name="currency" type="xsd:string" use="required"/>
        </xsd:complexType>
      </xsd:element>
    </xsd:schema>
    """
    schema = parse_xsd(xsd)
    assert "Tx/@currency" in schema.paths()


def test_unsupported_constructs_become_issues():
    xsd = """<?xml version="1.0"?>
    <xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
      <xsd:element name="Doc">
        <xsd:complexType>
          <xsd:sequence>
            <xsd:element name="Known" type="xsd:string"/>
            <xsd:any/>
          </xsd:sequence>
        </xsd:complexType>
      </xsd:element>
    </xsd:schema>
    """
    schema = parse_xsd(xsd)
    assert schema.paths() == ["Doc/Known"]
    assert any("xsd:any" in msg for _, msg in schema.issues)


def test_occurs_bounds():
    xsd = """<?xml version="1.0"?>
    <xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">
      <xsd:element name="List">
        <xsd:complexType>
          <xsd:sequence>
            <xsd:element name="Entry" type="xsd:string"
                         minOccurs="0" maxOccurs="unbounded"/>
          </xsd:sequence>
        </xsd:complexType>
      </xsd:element>
    </xsd:schema>
    """
    desc = parse_xsd(xsd).descriptors[0]
    assert (desc.occurs_min, desc.occurs_max) == (0, None)


def test_malformed_xsd_raises():
    with pytest.raises(MalformedSchema):
        parse_xsd("<xsd:schema")
    with pytest.raises(MalformedSchema):
        parse_xsd("<notaschema/>")


def test_schema_round_trip(tmp_path, payment_schema):
    path = tmp_path / "payment.xadschema"
    payment_schema.save(path)
    loaded = SchemaVector.load(path)
    assert loaded == payment_schema
    # saving the loaded copy is byte-identical
    path2 = tmp_path / "again.xadschema"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def _derived_xsd(content):
    return f"""<?xml version="1.0"?>
    <xs:schema xmlns:xs="http://www.w3.org/2001/XMLSchema">
      <xs:complexType name="Base">
        <xs:sequence>
          <xs:element name="Id" type="xs:int"/>
          <xs:element name="When" type="xs:date"/>
        </xs:sequence>
      </xs:complexType>
      <xs:element name="Doc">
        <xs:complexType>{content}</xs:complexType>
      </xs:element>
    </xs:schema>
    """


@pytest.mark.parametrize("derivation", [
    '<xs:extension base="xs:decimal"/>',
    '<xs:extension base="xs:decimal">'
    '<xs:attribute name="unit" type="xs:string"/></xs:extension>',
    '<xs:restriction base="xs:decimal"/>',
], ids=["childless-extension", "extension", "restriction"])
def test_simple_content_derivations(derivation):
    schema = parse_xsd(_derived_xsd(
        f"<xs:simpleContent>{derivation}</xs:simpleContent>"))
    assert schema.issues == ()
    assert schema.descriptors[0].path == "Doc"
    assert schema.descriptors[0].abstract_type is AbstractType.NUMERICAL
    expected = ["Doc", "Doc/@unit"] if "unit" in derivation else ["Doc"]
    assert schema.paths() == expected


@pytest.mark.parametrize("derivation,extra", [
    ('<xs:extension base="Base"/>', []),
    ('<xs:extension base="Base"><xs:sequence>'
     '<xs:element name="Note" type="xs:string"/></xs:sequence>'
     '</xs:extension>', ["Doc/Note"]),
    ('<xs:restriction base="Base"/>', []),
], ids=["childless-extension", "extension", "restriction"])
def test_complex_content_derivations(derivation, extra):
    schema = parse_xsd(_derived_xsd(
        f"<xs:complexContent>{derivation}</xs:complexContent>"))
    assert schema.issues == ()
    assert schema.paths() == ["Doc/Id", "Doc/When"] + extra
