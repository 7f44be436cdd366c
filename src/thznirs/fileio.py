"""File output, CSV input and JSON rules shared across the toolkit."""

from __future__ import annotations

import csv
import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import BinaryIO, Callable, Iterable

import numpy as np

from .errors import ValidationError


def atomic_write(path, data: str | bytes | Callable[[BinaryIO], object]) -> None:
    """Replace ``path`` with ``data`` in one rename.

    ``data`` is text (written as UTF-8), bytes, or a function that writes the
    content to the open binary file, which spares a large array an in-memory
    copy.  The temp file gets a unique name in the target's directory, so
    concurrent writers never share one, and ``open`` creates it with the
    usual 0o666-less-umask mode.  If the write fails the temp file is removed
    and the target is left as it was.  A target that exists and, after
    following symlinks, is not a regular file (a device, a pipe) is written
    in place, never replaced.
    """
    path = Path(path)
    if isinstance(data, str):
        try:
            data = data.encode("utf-8")
        except UnicodeEncodeError as exc:  # e.g. an undecodable byte in a command-line name
            raise ValidationError(f"{path}: {exc}") from None
    write = data if callable(data) else lambda fh: fh.write(data)
    if path.exists() and not path.is_file():
        with open(path, "wb") as fh:
            write(fh)
        return
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            write(fh)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_csv(path, header: str, rows: Iterable[Iterable]) -> None:
    """The one CSV writer: ``header``, then each row's values joined by commas,
    a float (numpy's too) to 6 significant digits and anything else by ``str``;
    LF line ends, written by ``atomic_write``."""
    lines = [header]
    for row in rows:
        lines.append(",".join(format(v, ".6g") if isinstance(v, (float, np.floating)) else str(v)
                              for v in row))
    atomic_write(path, "\n".join(lines) + "\n")


@contextmanager
def open_csv(path):
    """``path`` open as UTF-8 text for ``csv``; a decode or ``csv`` fault names the file."""
    with open(path, "r", encoding="utf-8", newline="") as fh:
        try:
            yield fh
        except (UnicodeDecodeError, csv.Error) as exc:
            raise ValidationError(f"{path}: {exc}") from None


def parse_rows(path, rows, parse) -> list:
    """``parse(k, row)`` of each data row ``k`` of ``path``; a bad row names the file and row."""
    out = []
    try:
        for row in rows:
            out.append(parse(len(out), row))
    except (TypeError, ValueError) as exc:  # a short DictReader row reads as None
        raise ValidationError(f"{path}: data row {len(out) + 1}: {exc}") from None
    return out


@contextmanager
def json_errors(source):
    """Re-raise any fault met while reading ``source``'s JSON as ValidationError naming it.

    A ValidationError gains the ``source`` prefix once, so nested readers of
    the same file name it a single time.
    """
    prefix = f"{source}: "
    try:
        yield
    except ValidationError as exc:
        if not str(exc).startswith(prefix):
            exc.args = (prefix + str(exc),)
        raise
    except Exception as exc:  # json_read has named any missing key before it is read
        raise ValidationError(prefix + str(exc)) from exc


def json_parse(text: str):
    """The value JSON ``text`` holds; text that ``json`` cannot parse raises ValidationError."""
    import json  # here, not at the top: fit reads and writes only CSV, so it never loads json
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValidationError(f"invalid JSON ({exc})") from None
    except ValueError:  # an integer longer than int() converts; its message advises code changes
        raise ValidationError("invalid JSON (an integer of more than "
                              f"{sys.get_int_max_str_digits()} digits)") from None


NUMBER = "number"  # a JSON int or float that float64 holds: RFC 8259 has no NaN, true is no number
ANY = "any"  # any value; the dataclass that takes it checks it
_JSON_TYPES = {dict: "object", list: "array", str: "string", int: "integer", bool: "boolean"}


def json_read(value, kind, path: str = ""):
    """``value`` if it has ``kind`` all the way down; a fault names the key ``path``.

    A kind is an exact JSON type (``true`` and ``5.7`` are no ``int``), ``NUMBER``,
    ``ANY``, ``[kind]`` for an array of that kind, or a ``{key: kind}`` table: a key
    ending in ``?`` is optional and a key the table lacks is rejected.  Missing keys
    are reported before any value's kind.
    """
    if isinstance(kind, dict):
        json_read(value, dict, path)
        keys = {k.rstrip("?"): k for k in kind}
        where = path or "top level"
        unknown = set(value) - set(keys)
        if unknown:
            raise ValidationError(f"unknown key(s) {sorted(unknown)} in {where}")
        for key, spelt in keys.items():
            if key not in value and key == spelt:
                raise ValidationError(f"missing required key '{key}' in {where}")
        for key, item in value.items():
            json_read(item, kind[keys[key]], f"{path}.{key}" if path else key)
    elif isinstance(kind, list):
        json_read(value, list, path)
        for i, item in enumerate(value):
            json_read(item, kind[0], f"{path}[{i}]")
    elif kind is NUMBER:
        if type(value) not in (int, float):
            raise ValidationError(f"{path} must be a JSON number, got {type(value).__name__}")
        if not abs(value) <= sys.float_info.max:  # nan, inf, or an int no float holds
            shown = value if type(value) is float else f"an integer of {len(str(abs(value)))} digits"
            raise ValidationError(f"{path} must be a finite JSON number, got {shown}")
    elif kind is not ANY and type(value) is not kind:
        raise ValidationError(
            f"{path} must be a JSON {_JSON_TYPES[kind]}, got {type(value).__name__}")
    return value


def write_json(path, value) -> None:
    """The one JSON writer: 2-space indents, sorted keys, a final newline, written atomically."""
    import json
    atomic_write(path, json.dumps(value, indent=2, sort_keys=True) + "\n")
