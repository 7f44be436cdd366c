import ast
import os
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from thznirs import fileio
from thznirs.fileio import atomic_write, write_csv


def test_atomic_write_text_bytes_and_writer(tmp_path):
    atomic_write(tmp_path / "a.txt", "ä,1\n")
    atomic_write(tmp_path / "b.bin", b"\x00\x93NUMPY")
    atomic_write(tmp_path / "c.npy", lambda fh: np.save(fh, np.arange(3.0)))
    assert (tmp_path / "a.txt").read_bytes() == "ä,1\n".encode("utf-8")
    assert (tmp_path / "b.bin").read_bytes() == b"\x00\x93NUMPY"
    assert np.array_equal(np.load(tmp_path / "c.npy"), np.arange(3.0))
    assert sorted(p.name for p in tmp_path.iterdir()) == ["a.txt", "b.bin", "c.npy"]


def test_atomic_write_keeps_the_usual_permission_bits(tmp_path):
    (tmp_path / "plain").write_text("x")
    atomic_write(tmp_path / "atomic", "x")
    assert (tmp_path / "atomic").stat().st_mode == (tmp_path / "plain").stat().st_mode


def test_failed_atomic_write_removes_its_temp_file(tmp_path, monkeypatch):
    target = tmp_path / "out.csv"
    target.write_text("old\n")

    def refuse(src, dst):
        raise OSError("rename refused")

    monkeypatch.setattr(fileio.os, "replace", refuse)
    with pytest.raises(OSError, match="rename refused"):
        atomic_write(target, "new\n")
    assert [p.name for p in tmp_path.iterdir()] == ["out.csv"]
    assert target.read_text() == "old\n"


def test_failing_writer_leaves_target_and_no_temp_file(tmp_path):
    target = tmp_path / "sweeps.npy"
    target.write_bytes(b"old")

    def fail_midway(fh):
        fh.write(b"partial")
        raise OSError("disk full")

    with pytest.raises(OSError, match="disk full"):
        atomic_write(target, fail_midway)
    assert [p.name for p in tmp_path.iterdir()] == ["sweeps.npy"]
    assert target.read_bytes() == b"old"


def test_concurrent_writers_of_one_target_do_not_collide(tmp_path):
    target = tmp_path / "manifest.json"
    payloads = [f"writer {k}\n" * 50 for k in range(8)]
    errors = []

    def write_many(text):
        try:
            for _ in range(25):
                atomic_write(target, text)
        except OSError as exc:
            errors.append(exc)

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=write_many, args=(t,)) for t in payloads]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    assert target.read_text() in payloads
    assert os.listdir(tmp_path) == ["manifest.json"]


def test_write_csv_gives_floats_6_significant_digits_and_the_rest_str(tmp_path):
    out = tmp_path / "t.csv"
    write_csv(out, "x,y", [(0.1 + 0.2, np.float64(2 / 3)), (5.0, -0.0), (1234567.0, 1000000),
                           ("a b", repr(0.1 + 0.2))])
    assert out.read_bytes() == (
        b"x,y\n0.3,0.666667\n5,-0\n1.23457e+06,1000000\na b,0.30000000000000004\n")


def _file_writes(tree: ast.AST) -> list[int]:
    """Lines that open a file for writing or call ``write_text``/``write_bytes``."""
    lines = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if name in ("write_text", "write_bytes"):
            lines.append(node.lineno)
        elif name == "open":
            mode = node.args[1] if len(node.args) > 1 else next(
                (kw.value for kw in node.keywords if kw.arg == "mode"), None)
            if isinstance(mode, ast.Constant) and set(str(mode.value)) & set("wax+"):
                lines.append(node.lineno)
    return lines


def test_only_fileio_writes_files():
    package = Path(fileio.__file__).parent
    writers = {
        path.name: lines
        for path in sorted(package.glob("*.py"))
        if path.name != "fileio.py"
        and (lines := _file_writes(ast.parse(path.read_text(encoding="utf-8"))))
    }
    assert writers == {}
    assert _file_writes(ast.parse(Path(fileio.__file__).read_text(encoding="utf-8")))
