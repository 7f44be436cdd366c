"""Package layout rules: no orphan module; JSON, .npy files, the noise sentinel and the
choice of the NIRS panel each handled in one module only; no float64
overflow caught after the fact; and one power path for the fit's u^b."""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "thznirs"


def _imported_modules(path: Path) -> set[str]:
    """The package modules ``path`` imports anywhere in its code, by file stem."""
    found = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            targets = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):  # "from . import x" has no module
            base = ".".join(filter(None, ["thznirs" if node.level else "", node.module]))
            targets = [base] + [f"{base}.{alias.name}" for alias in node.names]
        else:
            continue
        found.update(t.split(".")[1] for t in targets if t.startswith("thznirs."))
    return found


def test_every_module_is_imported_by_another_module():
    modules = {path.stem: path for path in PACKAGE.glob("*.py")}
    imported = {
        name for stem, path in modules.items() for name in _imported_modules(path) if name != stem
    }
    orphans = sorted(modules.keys() - imported - {"__init__", "__main__"})
    assert orphans == []


def test_only_fileio_parses_or_writes_json():
    calls = {
        f"{path.name}:{node.lineno}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and isinstance(node.func.value, ast.Name) and node.func.value.id == "json"
        and node.func.attr in ("dumps", "loads", "dump", "load")
    }
    assert sorted(c for c in calls if not c.startswith("fileio.py:")) == []


def test_only_synthchan_saves_or_loads_npy():
    """The bundle layout lives in ``synthchan``: no other module reads or writes an array file."""
    names = {"np.save", "np.load", "np.lib.format.read_array"}
    uses = {
        f"{path.name}:{node.lineno}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and ast.unparse(node) in names
    }
    assert sorted(u for u in uses if not u.startswith("synthchan.py:")) == []


def test_only_pdap_names_the_noise_sentinel():
    """Every other module tells signal from noise through ``Pdap.signal_mask()``."""
    uses = {
        f"{path.name}:{node.lineno}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if (isinstance(node, ast.Name) and node.id == "SENTINEL_DB")
        or (isinstance(node, ast.Attribute) and node.attr == "SENTINEL_DB")
        or (isinstance(node, ast.alias) and node.name == "SENTINEL_DB")
    }
    assert sorted(u for u in uses if not u.startswith("pdap.py:")) == []


def test_only_scene_takes_a_panel_out_of_the_scene():
    """Every other module gets the reflector through ``scene.nirs_panel``, the one-panel rule."""
    uses = {
        f"{path.name}:{node.lineno}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
        and node.value.attr == "nirs_panels"
    }
    assert sorted(u for u in uses if not u.startswith("scene.py:")) == []


def test_no_module_catches_a_floating_point_error():
    """Overflow is a rule on the input (``reflfit._window``), checked before the
    search; a FloatingPointError that gets past a rule is an internal fault."""
    catches = {
        f"{path.name}:{node.lineno}"
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.ExceptHandler) and node.type is not None
        and any(getattr(n, "id", getattr(n, "attr", None)) == "FloatingPointError"
                for n in ast.walk(node.type))
    }
    assert sorted(catches) == []


def test_only_reflfit_power_raises_to_a_fitted_exponent():
    """Each u^b of the fit goes through ``reflfit._power``, one path through
    numpy's pow; ``eval_refl_model``, which generates the samples, keeps its
    own ``**``.  A literal exponent such as ``(b2 - b1) ** 2`` is no u^b."""
    homes = {"np.power": {"_power"}, "**": {"_power", "eval_refl_model"}}
    tree = ast.parse((PACKAGE / "reflfit.py").read_text(encoding="utf-8"))
    owner = {node: func.name for func in tree.body if isinstance(func, ast.FunctionDef)
             for node in ast.walk(func)}
    uses = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and node.attr == "power"
                and getattr(node.value, "id", None) == "np"):
            kind = "np.power"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.Pow):
            exponent = node.right if isinstance(node, ast.BinOp) else node.value
            if isinstance(exponent, ast.Constant):
                continue
            kind = "**"
        else:
            continue
        if owner.get(node) not in homes[kind]:
            uses.add(f"reflfit.py:{node.lineno}: {kind} in {owner.get(node)}")
    assert sorted(uses) == []
