"""Deterministic JSON output and atomic file writes.

Floats are rendered with 17 significant digits, so equal values give
identical bytes: a fixed seed writes the same file on every run with the
same numpy and BLAS kernel.  Another BLAS kernel may move the last bits of
some residuals (the multipole ones); the verdicts hold across kernels.
Non-finite floats, which standard JSON cannot carry, are emitted as the
strings "inf", "-inf", "nan".  Writes go through a temporary file in the
target directory followed by an atomic replace.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import tempfile


class LongInteger:
    """A JSON integer literal of more digits than ``int()`` converts, kept so that the check
    of the key that holds it reports it: no check takes it for a number."""

    def __init__(self, literal: str):
        self.digits = len(literal.lstrip("-"))

    def __repr__(self) -> str:
        return f"integer of {self.digits} digits"


def parse_int(literal: str):
    """A JSON integer literal as an ``int``, or a :class:`LongInteger` past ``int()``'s limit."""
    try:
        return int(literal)
    except ValueError:
        return LongInteger(literal)


def load(fh):
    """The JSON document of the text file ``fh``, its integers read by :func:`parse_int`."""
    return json.load(fh, parse_int=parse_int)


def _emit(obj, indent: int, level: int) -> str:
    pad = " " * (indent * level)
    inner = " " * (indent * (level + 1))
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isnan(obj):
            return '"nan"'
        if math.isinf(obj):
            return '"inf"' if obj > 0 else '"-inf"'
        return format(obj, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj, ensure_ascii=True)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [inner + _emit(v, indent, level + 1) for v in obj]
        return "[\n" + ",\n".join(items) + "\n" + pad + "]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k), ensure_ascii=True)}: {_emit(v, indent, level + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + pad + "}"
    # numpy scalars and arrays reduce to the cases above
    if hasattr(obj, "tolist"):
        return _emit(obj.tolist(), indent, level)
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def dumps(obj, indent: int = 2) -> str:
    return _emit(obj, indent, 0) + "\n"


@contextlib.contextmanager
def atomic_open(path: str):
    """Text file at a temporary name beside ``path``, written verbatim (no
    newline translation); it replaces ``path`` with the mode a newly
    created file gets under the umask when the block completes, and is
    removed when the block raises."""
    directory = os.path.dirname(os.path.abspath(path))
    umask = os.umask(0)
    os.umask(umask)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".kyano-", suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="") as fh:
            yield fh
            os.fchmod(fh.fileno(), 0o666 & ~umask)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_atomic(path: str, text: str) -> None:
    with atomic_open(path) as fh:
        fh.write(text)
