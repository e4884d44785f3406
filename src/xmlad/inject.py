"""Anomaly injection: embed real attack payloads into normal XML documents.

Five attack classes, each restricted to the element kinds where the schema
allows it.  Everything is driven by a seeded Mersenne Twister generator
(Python's random.Random, seeded from a string key) so corpora replay exactly
across runs and platforms.
"""

import hashlib
import math
import random
import urllib.parse
import xml.etree.ElementTree as ET
from dataclasses import dataclass
from enum import Enum

from .errors import EmptyCorpus, MalformedXml
from .extract import local_name
from .payloads import (CDATA_PAYLOADS, XPATH_PAYLOADS, XSS_PAYLOADS,
                       load_leakage_sentences)
from .schema import AbstractType, SchemaVector


class AttackClass(str, Enum):
    VALUE_POISONING = "ValuePoisoning"
    XSS = "Xss"
    CDATA_INJECTION = "CdataInjection"
    XPATH_INJECTION = "XpathInjection"
    DATA_LEAKAGE = "DataLeakage"


ALL_CLASSES = tuple(AttackClass)


@dataclass
class InjectionSpec:
    anomaly_index: float  # injections per simple-content element, in (0, 1]
    classes: tuple = ALL_CLASSES
    seed: int = 0
    payload_corpus: str = None  # path to a plain-text corpus; bundled default

    def __post_init__(self):
        if not 0.0 < self.anomaly_index <= 1.0:
            raise ValueError("anomaly_index must be in (0, 1]")
        self.classes = tuple(AttackClass(c) for c in self.classes)
        if not self.classes:
            raise ValueError("at least one attack class is required")


@dataclass
class InjectionRecord:
    document_id: str
    injections: list[tuple]  # (attack class, path, original value digest)
    label: str
    shortfall: bool = False
    requested: int = 0


def _digest(text: str) -> str:
    return hashlib.sha256((text or "").encode("utf-8")).hexdigest()[:12]


def _walk_targets(root, schema: SchemaVector):
    """Collect injectable targets in document order: typed leaf elements
    and sibling gaps."""
    types = {d.path: d.abstract_type for d in schema.descriptors}
    numeric, textual, gaps = [], [], []
    simple_count = 0
    stack = [(root, "")]
    while stack:
        elem, prefix = stack.pop()
        name = local_name(elem.tag)
        path = f"{prefix}/{name}" if prefix else name
        children = list(elem)
        if not children:
            simple_count += 1
            at = types.get(path)
            if at is AbstractType.NUMERICAL:
                numeric.append((path, elem))
            elif at is AbstractType.STRING:
                textual.append((path, elem))
        if len(children) >= 2:
            # host element; the concrete sibling gap is drawn at injection time
            gaps.append((path, elem))
        stack.extend([(child, path) for child in reversed(children)])
    return simple_count, numeric, textual, gaps


_CDATA_TOKEN = "xmlad-cdata-slot-{n}"


def inject_document(xml_text: str, schema: SchemaVector, spec: InjectionSpec,
                    rng: random.Random, document_id: str = "0",
                    sentences=None):
    """Inject ceil(anomaly_index * simple element count) attacks into one
    document.  Returns the mutated text and its ground-truth record."""
    try:
        root = ET.fromstring(xml_text)
    except ET.ParseError as exc:
        raise MalformedXml(f"unparseable XML: {exc}")
    if sentences is None:
        sentences = load_leakage_sentences(spec.payload_corpus)

    simple_count, numeric, textual, gaps = _walk_targets(root, schema)
    requested = math.ceil(spec.anomaly_index * simple_count)
    injections = []
    cdata_slots = []  # (token, payload)

    for _ in range(requested):
        pairs = []
        if AttackClass.VALUE_POISONING in spec.classes:
            pairs.extend((AttackClass.VALUE_POISONING, t) for t in numeric)
        for cls in (AttackClass.XSS, AttackClass.XPATH_INJECTION,
                    AttackClass.DATA_LEAKAGE):
            if cls in spec.classes:
                pairs.extend((cls, t) for t in textual)
        if AttackClass.CDATA_INJECTION in spec.classes:
            pairs.extend((AttackClass.CDATA_INJECTION, t) for t in gaps)
        if not pairs:
            break
        cls, target = pairs[rng.randrange(len(pairs))]

        if cls is AttackClass.VALUE_POISONING:
            path, elem = target
            original = elem.text or ""
            try:
                magnitude = max(1.0, abs(float(original.strip())))
            except ValueError:
                magnitude = 1.0
            elem.text = repr(rng.uniform(-10.0 * magnitude, 10.0 * magnitude))
            numeric.remove(target)
            injections.append((cls.value, path, _digest(original)))
        elif cls is AttackClass.CDATA_INJECTION:
            path, parent = target
            idx = rng.randrange(len(list(parent)) - 1)
            token = _CDATA_TOKEN.format(n=len(cdata_slots))
            payload = CDATA_PAYLOADS[rng.randrange(len(CDATA_PAYLOADS))]
            child = list(parent)[idx]
            child.tail = token + (child.tail or "")
            cdata_slots.append((token, payload))
            gaps.remove(target)
            injections.append((cls.value, f"{path}#cdata[{idx}]",
                               _digest("")))
        else:
            path, elem = target
            original = elem.text or ""
            if cls is AttackClass.DATA_LEAKAGE:
                start = rng.randrange(len(sentences))
                count = rng.randint(1, 5)
                payload = " ".join(sentences[start:start + count])
            else:
                table = (XSS_PAYLOADS if cls is AttackClass.XSS
                         else XPATH_PAYLOADS)
                payload = table[rng.randrange(len(table))]
                if rng.random() < 0.5:
                    payload = urllib.parse.quote(payload)
            elem.text = payload
            textual.remove(target)
            injections.append((cls.value, path, _digest(original)))

    try:
        out = ET.tostring(root, encoding="unicode")
    except RecursionError:  # the serializer recurses once per level
        raise MalformedXml(f"document {document_id!r} is nested too deeply "
                           "to serialize") from None
    for token, payload in cdata_slots:
        out = out.replace(token, payload, 1)
    record = InjectionRecord(document_id=document_id, injections=injections,
                             label="anomalous" if injections else "normal",
                             shortfall=len(injections) < requested,
                             requested=requested)
    return out, record


def make_anomalous_corpus(corpus, schema: SchemaVector, spec: InjectionSpec,
                          fraction_anomalous: float, row_ids=None):
    """Inject into a seeded, uniformly chosen fraction of the corpus.

    Returns (documents, labels, records): documents in original order with
    the selected ones replaced by their injected versions.
    """
    corpus = list(corpus)
    if not corpus:
        raise EmptyCorpus("no documents supplied")
    if not 0.0 < fraction_anomalous <= 1.0:
        raise ValueError("fraction_anomalous must be in (0, 1]")
    if row_ids is None:
        row_ids = [str(i) for i in range(len(corpus))]
    sentences = load_leakage_sentences(spec.payload_corpus)
    master = random.Random(f"xmlad-inject:{spec.seed}")
    n_target = int(fraction_anomalous * len(corpus))
    chosen = set(master.sample(range(len(corpus)), n_target))
    documents, labels, records = [], [], []
    for i, (rid, text) in enumerate(zip(row_ids, corpus)):
        if i in chosen:
            rng = random.Random(f"xmlad-inject:{spec.seed}:{rid}")
            mutated, record = inject_document(text, schema, spec, rng,
                                              document_id=rid,
                                              sentences=sentences)
            documents.append(mutated)
            labels.append(record.label)
            records.append(record)
        else:
            documents.append(text)
            labels.append("normal")
            records.append(InjectionRecord(document_id=rid, injections=[],
                                           label="normal"))
    return documents, labels, records
