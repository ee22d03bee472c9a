"""Checks on the source text itself, read with `ast`; nothing is imported.

A module that binds a top-level ``def`` or ``class`` name twice keeps only
the second binding, so a test or an oracle written first is silently
replaced by the later one.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*ROOT.glob("src/tritave/*.py"), *ROOT.glob("tests/*.py")])


def rebound(source: str) -> list[str]:
    """The top-level ``def`` and ``class`` names bound more than once, with their lines."""
    first, twice = {}, []
    for node in ast.parse(source).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if node.name in first:
                twice.append(f"{node.name} at lines {first[node.name]} and {node.lineno}")
            first.setdefault(node.name, node.lineno)
    return twice


def test_the_check_finds_a_name_bound_twice():
    source = "def f():\n    pass\n\n\nclass C:\n    pass\n\n\nasync def f():\n    pass\n"
    assert rebound(source) == ["f at lines 1 and 9"]
    assert rebound("def f():\n    def f():\n        pass\n") == []     # nested: not top level


def test_each_module_binds_a_top_level_def_or_class_name_once():
    assert len(MODULES) > 20
    found = [f"{path.relative_to(ROOT)}: {name}" for path in MODULES
             for name in rebound(path.read_text(encoding="utf-8"))]
    assert found == []
