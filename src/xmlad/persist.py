"""Every file xmlad reads or writes, and its versioned artifact format.

`open_text` reads a file, or stdin, as strict UTF-8 with universal
newlines.  `create_text` writes a file, or stdout, as UTF-8 with "\n" line
ends, and replaces a regular file whole or not at all.  Every artifact
(.xadschema, .xadfm, .xaddict, .xadmodel, .xadtruth) is a three-part text:

    xmlad-<kind> v1
    sha256:<hex digest of the body>
    <canonical JSON body>

The JSON body is serialized with sorted keys and no optional whitespace, so
identical in-memory objects always produce byte-identical files.  Floats go
through Python's repr, which round-trips exactly.  A NaN or infinity has
no JSON number: `dumps` raises `NonFiniteData` for one, and `loads` reports
the `NaN`/`Infinity` tokens as `CorruptFile`.

The field annotations of a dataclass are its file format: `dumps` writes
a dataclass as an object with one key per field, and `decode` reads it back
from those annotations.  Tuples and NamedTuples are stored as lists, str
enums as their values, arrays as (nested) lists and an unset `T | None`
field as null.  An array field annotated `Vector` or `Matrix` must hold
nested lists of that rank.  A loader passes its builder to `loads`/`read`,
so a digest-valid body that lacks a key or holds the wrong shape is
reported as `CorruptFile` in one place.
"""

import csv
import hashlib
import json
import os
import sys
from contextlib import contextmanager
from dataclasses import fields, is_dataclass
from enum import Enum
from functools import cache
from types import UnionType
from typing import Annotated, Union, get_args, get_origin

import numpy as np

from .errors import CorruptFile, NonFiniteData, VersionMismatch

FORMAT_VERSION = 1

# float arrays of a fixed rank, as dataclass field annotations
Vector = Annotated[np.ndarray, 1]
Matrix = Annotated[np.ndarray, 2]


def _plain(value):
    """JSON data for the values the encoder cannot write itself."""
    if is_dataclass(value):
        return {f.name: getattr(value, f.name) for f in fields(value)}
    if isinstance(value, np.ndarray):
        return value.tolist()
    raise TypeError(f"cannot serialize {type(value).__name__}")


def dumps(kind: str, body) -> str:
    try:
        payload = json.dumps(body, sort_keys=True, separators=(",", ":"),
                             allow_nan=False, default=_plain)
    except ValueError as exc:  # NaN or infinity: JSON has no token for it
        raise NonFiniteData(f"cannot write {kind}: {exc}") from None
    digest = hashlib.sha256(payload.encode("utf-8")).hexdigest()
    return f"xmlad-{kind} v{FORMAT_VERSION}\nsha256:{digest}\n{payload}\n"


def _no_constant(token):
    raise CorruptFile(f"unreadable body: {token} is not a finite number")


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
        body = json.loads(payload, parse_constant=_no_constant)
    except json.JSONDecodeError as exc:
        raise CorruptFile(f"unreadable body: {exc}")
    if build is None:
        return body
    try:
        return build(body)
    except (KeyError, TypeError, ValueError) as exc:
        raise CorruptFile(f"unreadable {kind} body: {exc!r}") from None


@contextmanager
def create_text(path, stdout=False):
    """A file, or stdout for `-` if `stdout` is set, written as UTF-8 with
    "\n" line ends.  A new or regular file is replaced whole or not at all,
    by a temporary beside it that is renamed onto it when the block ends;
    any other file, such as a FIFO, is written in place."""
    tmp = None
    if stdout and path == "-":
        sys.stdout.flush()  # what was printed goes out first
        path = sys.stdout.fileno()
    elif not os.path.exists(path) or os.path.isfile(path):
        path = os.path.realpath(path)  # a symlink stays; its file is replaced
        tmp = f"{path}.{os.urandom(4).hex()}.tmp"
    fh = open(tmp or path, "x" if tmp else "w", encoding="utf-8", newline="\n",
              closefd=not isinstance(path, int))  # "x": the mode of "w"
    try:
        with fh:
            yield fh
        if tmp:
            os.replace(tmp, path)
    except BaseException:
        if tmp:
            os.remove(tmp)
        raise


def write(path, kind: str, body) -> None:
    text = dumps(kind, body)
    with create_text(path) as fh:
        fh.write(text)


def write_rows(path, rows, stdout=False) -> None:
    with create_text(path, stdout) as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


@contextmanager
def open_text(path, stdin=False):
    """A file, or stdin for `-` if `stdin` is set, as strict UTF-8 with
    universal newlines; a bad value in the block is CorruptFile naming it."""
    use_stdin = stdin and path == "-"
    try:
        with open(sys.stdin.fileno() if use_stdin else path, encoding="utf-8",
                  closefd=not use_stdin) as fh:
            yield fh
    except (ValueError, csv.Error) as exc:  # undecodable, unparsed, too long
        raise CorruptFile(f"{path}: {exc}") from None


def read_text(path, stdin=False) -> str:
    with open_text(path, stdin) as fh:
        return fh.read()


def read(path, kind: str, build=None):
    return loads(kind, read_text(path), build)


def decode(cls, body):
    """A `cls` value rebuilt from the JSON data `dumps` wrote for it."""
    return _decoder(cls)(body)


def _array(body, ndim: int) -> np.ndarray:
    if not isinstance(body, list):  # np.array(None) would be a 0-d nan
        raise TypeError(f"an array must be a list, not {type(body).__name__}")
    array = np.array(body, dtype=float)
    if array.ndim != ndim:
        raise ValueError(f"expected a {ndim}-d array, got shape {array.shape}")
    return array


@cache
def _decoder(kind):
    """The function that rebuilds a value of annotation `kind`: a
    dataclass, NamedTuple, str enum, Vector or Matrix (a float ndarray of
    that rank), tuple, tuple[T, ...], list[T] or T | None; anything else
    is taken as it is.  Only T | None admits null, so a null in place
    of a list or an object is corrupt."""
    origin = get_origin(kind)
    if is_dataclass(kind):
        items = [(f.name, _decoder(f.type)) for f in fields(kind)]
        return lambda body: kind(**{k: dec(body[k]) for k, dec in items})
    if origin in (UnionType, Union):  # T | None
        dec = _decoder(get_args(kind)[0])
        return lambda body: None if body is None else dec(body)
    if origin is Annotated:  # Vector or Matrix
        ndim = get_args(kind)[1]
        return lambda body: _array(body, ndim)
    if origin in (tuple, list):
        item = _decoder(get_args(kind)[0])
        return lambda body: origin(map(item, body))
    if kind is tuple or isinstance(kind, type) and issubclass(kind, Enum):
        return kind
    if isinstance(kind, type) and issubclass(kind, tuple):  # a NamedTuple
        decs = [_decoder(kind.__annotations__[f]) for f in kind._fields]
        return lambda b: kind(*[d(v) for d, v in zip(decs, b, strict=True)])
    return lambda body: body
