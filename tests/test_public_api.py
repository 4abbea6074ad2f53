"""The package's public surface: every exported name resolves, in sorted
order, and the modules keep their layering."""

import ast
from pathlib import Path

import qembound
from qembound import oqho


def test_every_exported_name_resolves():
    missing = [name for name in qembound.__all__ if not hasattr(qembound, name)]
    assert missing == []


def test_exported_names_are_sorted_and_unique():
    assert qembound.__all__ == sorted(set(qembound.__all__))


def test_oqho_imports_nothing_from_qem():
    # oqho holds dynamics and propagation only; the bounds on its states are qem's.
    modules = []
    for node in ast.walk(ast.parse(Path(oqho.__file__).read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            modules += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            modules += [f"{node.module or ''}.{alias.name}" for alias in node.names]
    assert [m for m in modules if "qem" in m.split(".")] == []
