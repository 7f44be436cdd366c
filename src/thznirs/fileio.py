"""File output and CSV input rules shared across the toolkit."""

from __future__ import annotations

import csv
import os
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
