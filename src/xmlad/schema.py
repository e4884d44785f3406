"""XSD parsing into an ordered vector of abstract element descriptors.

The parser reduces the XSD type zoo to four abstract types (Numerical,
Enumeration, String, Date) and emits one descriptor per element that carries
simple content, in depth-first declaration order.  Container elements
contribute path context only.
"""

import hashlib
import xml.etree.ElementTree as ET
from dataclasses import dataclass, field
from enum import Enum
from functools import cached_property, partial

from . import persist
from .errors import MalformedSchema

XS_NS = "http://www.w3.org/2001/XMLSchema"


def _xs(tag: str) -> str:
    return f"{{{XS_NS}}}{tag}"


class AbstractType(str, Enum):
    NUMERICAL = "Numerical"
    ENUMERATION = "Enumeration"
    STRING = "String"
    DATE = "Date"


_NUMERIC_NAMES = {
    "double", "float", "decimal", "int", "integer", "long", "short", "byte",
    "nonNegativeInteger", "positiveInteger", "negativeInteger",
    "nonPositiveInteger",
}
_DATE_NAMES = {"date", "dateTime", "time"}


def map_xsd_type(xsd_type_name: str) -> AbstractType:
    """Total mapping of XSD built-in simple type names to abstract types.

    String is the catch-all, so unknown names never error.  Boolean maps to
    Enumeration; the two permitted literals are attached by the parser.
    """
    local = xsd_type_name.split(":")[-1].split("}")[-1]
    if local in _NUMERIC_NAMES or local.startswith("unsigned"):
        return AbstractType.NUMERICAL
    if local in _DATE_NAMES or local.startswith("gYear"):
        return AbstractType.DATE
    if local == "boolean":
        return AbstractType.ENUMERATION
    return AbstractType.STRING


BOOLEAN_ENUM_VALUES = ("false", "true")


@dataclass(frozen=True)
class ElementDescriptor:
    path: str
    name: str
    abstract_type: AbstractType
    enum_values: tuple = ()
    occurs_min: int = 1
    occurs_max: int | None = 1  # None means unbounded


@dataclass(frozen=True)
class SchemaVector:
    descriptors: tuple[ElementDescriptor, ...] = ()
    source_hash: str = ""
    # (path, message) pairs for unsupported constructs
    issues: tuple[tuple, ...] = ()

    def paths(self):
        return [d.path for d in self.descriptors]

    @cached_property
    def ingest_plan(self):
        """The `extract.IngestPlan` of these descriptors, built on first
        use: no field, so neither saved nor compared."""
        from .extract import IngestPlan  # extract imports this module
        return IngestPlan(self.descriptors)

    def save(self, path) -> None:
        persist.write(path, "schema", self)

    @classmethod
    def load(cls, path) -> "SchemaVector":
        return persist.read(path, "schema", partial(persist.decode, cls))


@dataclass
class _Parser:
    descriptors: list = field(default_factory=list)
    issues: list = field(default_factory=list)
    seen_paths: set = field(default_factory=set)
    global_elements: dict = field(default_factory=dict)
    named_simple: dict = field(default_factory=dict)
    named_complex: dict = field(default_factory=dict)

    def issue(self, path: str, message: str) -> None:
        self.issues.append((path, message))

    def add(self, desc: ElementDescriptor) -> None:
        if desc.path in self.seen_paths:
            self.issue(desc.path, "duplicate element path; later declaration ignored")
            return
        self.seen_paths.add(desc.path)
        self.descriptors.append(desc)

    # -- simple types -----------------------------------------------------

    def simple_type_info(self, node, path, type_stack):
        """Resolve an xs:simpleType node to (AbstractType, enum_values)."""
        restriction = node.find(_xs("restriction"))
        if restriction is not None:
            facets = restriction.findall(_xs("enumeration"))
            if facets:
                values, seen = [], set()
                for f in facets:
                    v = f.get("value", "")
                    if v not in seen:
                        seen.add(v)
                        values.append(v)
                return AbstractType.ENUMERATION, tuple(values)
            base = restriction.get("base", "string")
            return self.resolve_simple_name(base, path, type_stack)
        if node.find(_xs("list")) is not None or node.find(_xs("union")) is not None:
            self.issue(path, "xsd list/union treated as String")
            return AbstractType.STRING, ()
        return AbstractType.STRING, ()

    def resolve_simple_name(self, name, path, type_stack):
        local = name.split(":")[-1]
        if local in self.named_simple:
            if local in type_stack:
                self.issue(path, f"recursive simple type {local!r}")
                return AbstractType.STRING, ()
            return self.simple_type_info(self.named_simple[local], path,
                                         type_stack | {local})
        at = map_xsd_type(name)
        if at is AbstractType.ENUMERATION:
            return at, BOOLEAN_ENUM_VALUES
        return at, ()

    # -- elements ---------------------------------------------------------

    def visit_element(self, decl, prefix, type_stack):
        if decl.get("ref"):
            ref = decl.get("ref").split(":")[-1]
            target = self.global_elements.get(ref)
            if target is None:
                self.issue(prefix or "/", f"unresolvable element ref {ref!r}")
                return
            merged = dict(target.attrib)
            # occurs bounds live on the referencing particle
            for k in ("minOccurs", "maxOccurs"):
                if decl.get(k) is not None:
                    merged[k] = decl.get(k)
            clone = ET.Element(target.tag, merged)
            clone.extend(list(target))
            decl = clone
        name = decl.get("name")
        if not name:
            self.issue(prefix or "/", "element declaration without a name")
            return
        path = f"{prefix}/{name}" if prefix else name
        if decl.get("substitutionGroup"):
            self.issue(path, "substitution groups are not supported")
        bounds = _occurs_bounds(decl)

        type_name = decl.get("type")
        inline_simple = decl.find(_xs("simpleType"))
        inline_complex = decl.find(_xs("complexType"))

        if type_name is not None:
            local = type_name.split(":")[-1]
            if local in self.named_complex:
                if local in type_stack:
                    self.issue(path, f"recursive complex type {local!r}")
                    return
                self.visit_complex(self.named_complex[local], path, name,
                                   bounds, type_stack | {local})
                return
            at, values = self.resolve_simple_name(type_name, path, type_stack)
            self.add(ElementDescriptor(path, name, at, values, *bounds))
        elif inline_simple is not None:
            at, values = self.simple_type_info(inline_simple, path, type_stack)
            self.add(ElementDescriptor(path, name, at, values, *bounds))
        elif inline_complex is not None:
            self.visit_complex(inline_complex, path, name, bounds, type_stack)
        else:
            # untyped element (xs:anyType); content treated as text
            self.add(ElementDescriptor(path, name, AbstractType.STRING, (),
                                       *bounds))

    def visit_complex(self, ct, path, name, bounds, type_stack):
        simple_content = ct.find(_xs("simpleContent"))
        if simple_content is not None:
            deriv = _derivation(simple_content)
            if deriv is not None:
                at, values = self.resolve_simple_name(
                    deriv.get("base", "string"), path, type_stack)
                self.add(ElementDescriptor(path, name, at, values, *bounds))
                self.visit_attributes(deriv, path, type_stack)
            else:
                self.issue(path, "empty simpleContent")
            return

        complex_content = ct.find(_xs("complexContent"))
        if complex_content is not None:
            deriv = _derivation(complex_content)
            if deriv is not None:
                base = deriv.get("base", "").split(":")[-1]
                if base in self.named_complex and base not in type_stack:
                    self.visit_complex(self.named_complex[base], path, name,
                                       bounds, type_stack | {base})
                elif base:
                    self.issue(path, f"unresolvable complexContent base {base!r}")
                self.visit_particles(deriv, path, type_stack)
                self.visit_attributes(deriv, path, type_stack)
            return

        self.visit_particles(ct, path, type_stack)
        self.visit_attributes(ct, path, type_stack)

    def visit_particles(self, parent, path, type_stack):
        for child in parent:
            tag = child.tag
            if tag in (_xs("sequence"), _xs("choice"), _xs("all")):
                self.visit_particles(child, path, type_stack)
            elif tag == _xs("element"):
                self.visit_element(child, path, type_stack)
            elif tag == _xs("any"):
                self.issue(path, "xsd:any is not supported")
            elif tag == _xs("group"):
                self.issue(path, "xsd:group is not supported")

    def visit_attributes(self, parent, path, type_stack):
        for attr in parent.findall(_xs("attribute")):
            aname = attr.get("name")
            if not aname:
                continue
            apath = f"{path}/@{aname}"
            inline = attr.find(_xs("simpleType"))
            if inline is not None:
                at, values = self.simple_type_info(inline, apath, type_stack)
            else:
                at, values = self.resolve_simple_name(
                    attr.get("type", "string"), apath, type_stack)
            required = attr.get("use") == "required"
            self.add(ElementDescriptor(apath, f"@{aname}", at, values,
                                       1 if required else 0, 1))
        if parent.find(_xs("anyAttribute")) is not None:
            self.issue(path, "xsd:anyAttribute is not supported")


def _derivation(content):
    """content's xs:extension, else its xs:restriction, else None.  A
    childless element is falsy, so each is tested against None."""
    deriv = content.find(_xs("extension"))
    return deriv if deriv is not None else content.find(_xs("restriction"))


def _occurs_bounds(decl):
    lo_raw = decl.get("minOccurs", "1")
    hi_raw = decl.get("maxOccurs", "1")
    try:
        return (int(lo_raw), None if hi_raw == "unbounded" else int(hi_raw))
    except ValueError:
        raise MalformedSchema(f"element {decl.get('name')!r} has occurs "
                              f"bounds {lo_raw!r}..{hi_raw!r}") from None


def parse_xsd(xsd_text: str) -> SchemaVector:
    """Parse an XSD document into a SchemaVector.

    Unsupported constructs are recorded on the result's issue list and the
    parse continues; only unparseable XML, non-integer occurs bounds and
    nesting too deep to visit raise.
    """
    try:
        root = ET.fromstring(xsd_text)
    except ET.ParseError as exc:
        raise MalformedSchema(f"unparseable XSD: {exc}")
    parser = _Parser()
    if root.tag != _xs("schema"):
        raise MalformedSchema(f"root element is {root.tag!r}, not xsd:schema")
    for child in root:
        name = child.get("name")
        if child.tag == _xs("simpleType") and name:
            parser.named_simple[name] = child
        elif child.tag == _xs("complexType") and name:
            parser.named_complex[name] = child
        elif child.tag == _xs("element") and name:
            parser.global_elements[name] = child
    try:
        for child in root:
            if child.tag == _xs("element"):
                parser.visit_element(child, "", frozenset())
    except RecursionError:  # the visitors recurse a few frames per level
        raise MalformedSchema("XSD nested too deeply to parse") from None
    digest = hashlib.sha256(xsd_text.encode("utf-8")).hexdigest()
    return SchemaVector(descriptors=tuple(parser.descriptors),
                        source_hash=digest,
                        issues=tuple(parser.issues))
