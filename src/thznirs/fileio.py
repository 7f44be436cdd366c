"""Atomic file output shared by every writer in the toolkit."""

from __future__ import annotations

import os
from pathlib import Path
from typing import BinaryIO, Callable


def atomic_write(path, data: str | bytes | Callable[[BinaryIO], object]) -> None:
    """Replace ``path`` with ``data`` in one rename.

    ``data`` is text (written as UTF-8), bytes, or a function that writes the
    content to the open binary file, which spares a large array an in-memory
    copy.  The temp file gets a unique name in the target's directory, so
    concurrent writers never share one, and ``open`` creates it with the
    usual 0o666-less-umask mode.  If the write fails the temp file is removed
    and the target is left as it was.
    """
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.urandom(8).hex()}.tmp")
    fh = open(tmp, "xb")
    try:
        with fh:
            if callable(data):
                data(fh)
            else:
                fh.write(data.encode("utf-8") if isinstance(data, str) else data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise
