"""Seeded synthetic XML corpus generation from a schema plus per-element
generative parameters.  Used by the evaluation harness and the acceptance
suite; real production corpora are not distributable, so tests run on
corpora built here."""

import random
from dataclasses import dataclass
from datetime import datetime, timezone
from xml.etree import ElementTree as ET

from .errors import MissingParams
from .schema import AbstractType, SchemaVector


@dataclass
class NumericParams:
    mean: float
    std: float


@dataclass
class DateParams:
    start_epoch: float
    end_epoch: float


@dataclass
class EnumParams:
    weights: list  # aligned with the descriptor's enum_values


@dataclass
class StringParams:
    vocabulary: list
    mean_words: float = 4.0
    std_words: float = 1.0


def _sample_value(desc, params, rng: random.Random) -> str:
    at = desc.abstract_type
    if at is AbstractType.NUMERICAL:
        return repr(rng.gauss(params.mean, params.std))
    if at is AbstractType.DATE:
        ts = rng.uniform(params.start_epoch, params.end_epoch)
        dt = datetime.fromtimestamp(round(ts), tz=timezone.utc)
        return dt.isoformat()
    if at is AbstractType.ENUMERATION:
        return rng.choices(desc.enum_values, weights=params.weights, k=1)[0]
    n_words = max(1, round(rng.gauss(params.mean_words, params.std_words)))
    return " ".join(rng.choice(params.vocabulary) for _ in range(n_words))


def generate_normal_corpus(schema: SchemaVector, params: dict, m: int,
                           seed: int = 0):
    """Generate m seeded well-formed documents matching the schema layout.

    params maps every descriptor path to its generative parameter object.
    """
    for desc in schema.descriptors:
        if desc.path not in params:
            raise MissingParams(f"no generative params for {desc.path!r}")
    if m == 0:
        return []
    roots = schema.ingest_plan.root
    if len(roots) != 1:
        raise MissingParams(
            f"schema must have exactly one document root, found {len(roots)}")

    def draw(node, rng):
        desc = schema.descriptors[node[None][0]]
        return _sample_value(desc, params[desc.path], rng)

    def emit(name, node, rng):
        # a trie node's `@name` attributes, then its own text, then its
        # child elements: this order fixes the rng draws, so every byte
        elem = ET.Element(name)
        for key, child in node.items():
            if key is not None and key.startswith("@"):
                elem.set(key[1:], draw(child, rng))
        if None in node:
            elem.text = draw(node, rng)
        for key, child in node.items():
            if key is not None and not key.startswith("@"):
                elem.append(emit(key, child, rng))
        return elem

    [(name, root_node)] = roots.items()
    docs = []
    for i in range(m):
        rng = random.Random(f"xmlad-synth:{seed}:{i}")
        docs.append(ET.tostring(emit(name, root_node, rng),
                                encoding="unicode"))
    return docs


# ---------------------------------------------------------------------------
# Ready-made demo schema + parameters for tests and the CLI quickstart
# ---------------------------------------------------------------------------

def demo_schema_xsd(n_numeric: int = 10, n_string: int = 10,
                    n_enum: int = 5, n_date: int = 5) -> str:
    """A mixed-type schema with one nesting level, n elements total."""
    lines = [
        '<?xml version="1.0"?>',
        '<xsd:schema xmlns:xsd="http://www.w3.org/2001/XMLSchema">',
        '  <xsd:element name="Transaction">',
        '    <xsd:complexType>',
        '      <xsd:sequence>',
        '        <xsd:element name="Amounts">',
        '          <xsd:complexType>',
        '            <xsd:sequence>',
    ]
    for i in range(n_numeric):
        lines.append(f'              <xsd:element name="Amount{i}" '
                     'type="xsd:double"/>')
    lines += [
        '            </xsd:sequence>',
        '          </xsd:complexType>',
        '        </xsd:element>',
        '        <xsd:element name="Details">',
        '          <xsd:complexType>',
        '            <xsd:sequence>',
    ]
    for i in range(n_string):
        lines.append(f'              <xsd:element name="Note{i}" '
                     'type="xsd:string"/>')
    for i in range(n_enum):
        lines += [
            f'              <xsd:element name="Status{i}">',
            '                <xsd:simpleType>',
            '                  <xsd:restriction base="xsd:string">',
            '                    <xsd:enumeration value="open"/>',
            '                    <xsd:enumeration value="pending"/>',
            '                    <xsd:enumeration value="closed"/>',
            '                  </xsd:restriction>',
            '                </xsd:simpleType>',
            '              </xsd:element>',
        ]
    for i in range(n_date):
        lines.append(f'              <xsd:element name="Stamp{i}" '
                     'type="xsd:dateTime"/>')
    lines += [
        '            </xsd:sequence>',
        '          </xsd:complexType>',
        '        </xsd:element>',
        '      </xsd:sequence>',
        '    </xsd:complexType>',
        '  </xsd:element>',
        '</xsd:schema>',
    ]
    return "\n".join(lines) + "\n"


_DEMO_VOCAB = [
    "invoice", "payment", "approved", "pending", "customer", "order",
    "shipment", "account", "balance", "credit", "renewal", "quarterly",
    "standard", "priority", "archived", "reviewed", "confirmed", "partial",
    "transfer", "settled",
]


def demo_params(schema: SchemaVector, seed: int = 0) -> dict:
    """Per-descriptor generative params with varied scales."""
    rng = random.Random(f"xmlad-demo-params:{seed}")
    params = {}
    for desc in schema.descriptors:
        at = desc.abstract_type
        if at is AbstractType.NUMERICAL:
            params[desc.path] = NumericParams(mean=rng.uniform(10.0, 500.0),
                                              std=rng.uniform(1.0, 25.0))
        elif at is AbstractType.DATE:
            start = 1.6e9 + rng.uniform(0, 1e7)
            params[desc.path] = DateParams(start_epoch=start,
                                           end_epoch=start + 90 * 86400.0)
        elif at is AbstractType.ENUMERATION:
            w = [rng.uniform(0.5, 5.0) for _ in desc.enum_values]
            params[desc.path] = EnumParams(weights=w)
        else:
            params[desc.path] = StringParams(
                vocabulary=_DEMO_VOCAB,
                mean_words=rng.uniform(3.0, 6.0),
                std_words=0.6)
    return params


def params_from_obj(schema: SchemaVector, obj: dict) -> dict:
    """Decode a JSON-style {path: {kind, ...}} mapping into param objects."""
    decoders = {
        "numeric": lambda o: NumericParams(o["mean"], o["std"]),
        "date": lambda o: DateParams(o["start_epoch"], o["end_epoch"]),
        "enum": lambda o: EnumParams(o["weights"]),
        "string": lambda o: StringParams(o["vocabulary"],
                                         o.get("mean_words", 4.0),
                                         o.get("std_words", 1.0)),
    }
    params = {}
    try:
        for path, spec in obj.items():
            kind = spec["kind"]
            if kind not in decoders:
                raise MissingParams(
                    f"unknown param kind {kind!r} for {path!r}")
            params[path] = decoders[kind](spec)
    except (AttributeError, KeyError, TypeError) as exc:
        # a missing key, or a value that is not a {key: value} object
        raise MissingParams(f"malformed params: {exc!r}") from None
    return params
