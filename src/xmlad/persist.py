"""Versioned, digest-checked structured-text containers.

Every artifact the pipeline writes (.xadschema, .xadfm, .xaddict, .xadmodel,
.xadtruth) is a three-part text file:

    xmlad-<kind> v1
    sha256:<hex digest of the body>
    <canonical JSON body>

The JSON body is serialized with sorted keys and no optional whitespace, so
identical in-memory objects always produce byte-identical files.  Floats go
through Python's repr, which round-trips exactly.

`encode` and `decode` map a dataclass to its body and back, one key per
field, driven by the field annotations.  A loader passes its builder to
`loads`/`read`, so a digest-valid body that lacks a key or holds the wrong
shape is reported as `CorruptFile` in one place.
"""

import hashlib
import json
from dataclasses import fields, is_dataclass
from typing import get_args, get_origin

import numpy as np

from .errors import CorruptFile, VersionMismatch

FORMAT_VERSION = 1


def dumps(kind: str, body) -> str:
    payload = json.dumps(body, sort_keys=True, separators=(",", ":"),
                         allow_nan=False)
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return f"xmlad-{kind} v{FORMAT_VERSION}\nsha256:{digest}\n{payload}\n"


def loads(kind: str, text: str, build=None):
    lines = text.split("\n", 2)
    if len(lines) < 3:
        raise CorruptFile("truncated container")
    header, digest_line, payload = lines
    if not header.startswith(f"xmlad-{kind} v"):
        raise VersionMismatch(f"expected an xmlad-{kind} header, got {header!r}")
    try:
        version = int(header.rsplit("v", 1)[1])
    except ValueError:
        raise VersionMismatch(f"unreadable version in header {header!r}")
    if version != FORMAT_VERSION:
        raise VersionMismatch(f"unsupported {kind} version {version}")
    payload = payload.rstrip("\n")
    if not digest_line.startswith("sha256:"):
        raise CorruptFile("missing digest line")
    expected = digest_line[len("sha256:"):]
    actual = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    if actual != expected:
        raise CorruptFile("content digest mismatch")
    try:
        body = json.loads(payload)
    except json.JSONDecodeError as exc:
        raise CorruptFile(f"unreadable body: {exc}")
    if build is None:
        return body
    try:
        return build(body)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptFile(f"unreadable {kind} body: {exc!r}") from None


def write(path, kind: str, body) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(dumps(kind, body))


def read(path, kind: str, build=None):
    with open(path, "r", encoding="utf-8") as fh:
        return loads(kind, fh.read(), build)


def encode(value):
    """JSON data for a dataclass tree: ndarray and tuple become lists."""
    if is_dataclass(value):
        return {f.name: encode(getattr(value, f.name)) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    if isinstance(value, (list, tuple)):
        return [encode(v) for v in value]
    return value


def decode(cls, body: dict):
    """The inverse of `encode` for dataclass `cls`, read from its
    annotations: ndarray (float), tuple, list[T] and nested dataclasses."""
    return cls(**{f.name: _decode_field(f.type, body[f.name])
                  for f in fields(cls)})


def _decode_field(kind, value):
    if value is None:
        return None
    if is_dataclass(kind):
        return decode(kind, value)
    if kind is np.ndarray:
        return np.array(value, dtype=float)
    if kind is tuple:
        return tuple(value)
    if get_origin(kind) is list:
        (item,) = get_args(kind)
        return [_decode_field(item, v) for v in value]
    return value
