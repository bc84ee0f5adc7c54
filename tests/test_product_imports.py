"""Every ``src/repro`` module is imported by the product.

A static scan, nothing is executed: starting from what a user or CI
runs -- ``repro.cli``, ``benchmarks/paper_tables.py``,
``benchmarks/e2e/*.py`` and ``examples/*.py`` -- follow every ``import``
statement (module level or inside a function) through ``src/repro``.
A module that no chain reaches is code only its own unit tests load;
delete it, or wire it into a product path.
"""

import ast
import glob
import os
from typing import Dict, Set

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")

#: run as ``python -m repro``; it only calls ``repro.cli``
NOT_IMPORTED = {"repro.__main__"}


def _modules() -> Dict[str, str]:
    """Dotted name -> path of every module under ``src/repro``."""
    found = {}
    for path in glob.glob(os.path.join(SRC, "repro", "**", "*.py"), recursive=True):
        parts = os.path.relpath(path, SRC)[:-len(".py")].split(os.sep)
        if parts[-1] == "__init__":
            parts.pop()
        found[".".join(parts)] = path
    return found


def _imports(path: str, name: str, modules: Dict[str, str]) -> Set[str]:
    """The ``repro`` modules that ``path`` (module ``name``) imports,
    with the packages each import runs on the way."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), path)
    package = name if path.endswith("__init__.py") else name.rpartition(".")[0]
    targets = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            targets.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")[:len(package.split(".")) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            targets.add(base)
            targets.update(f"{base}.{alias.name}" for alias in node.names)
    found = set()
    for target in targets:
        parts = target.split(".")
        for end in range(1, len(parts) + 1):
            prefix = ".".join(parts[:end])
            if prefix in modules:
                found.add(prefix)
    return found


def _reached(modules: Dict[str, str]) -> Set[str]:
    entries = [os.path.join(ROOT, "benchmarks", "paper_tables.py")]
    entries += sorted(glob.glob(os.path.join(ROOT, "benchmarks", "e2e", "*.py")))
    entries += sorted(glob.glob(os.path.join(ROOT, "examples", "*.py")))
    pending = {"repro.cli"}
    for entry in entries:
        pending |= _imports(entry, "__main__", modules)
    reached: Set[str] = set()
    while pending:
        name = pending.pop()
        if name not in reached:
            reached.add(name)
            pending |= _imports(modules[name], name, modules) - reached
    return reached


def test_every_module_is_imported_by_the_product():
    modules = _modules()
    unreached = set(modules) - _reached(modules) - NOT_IMPORTED
    assert not unreached, f"no product entry point imports {sorted(unreached)}"


def test_the_scan_sees_relative_and_lazy_imports(tmp_path):
    source = tmp_path / "probe.py"
    source.write_text(
        "def f():\n    from .sim import kernel\n    import repro.net.latency\n"
    )
    assert _imports(str(source), "repro.probe", _modules()) == {
        "repro", "repro.sim", "repro.sim.kernel", "repro.net", "repro.net.latency",
    }
