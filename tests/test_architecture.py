"""Import boundaries: a cross-check may not share code with what it checks."""

from __future__ import annotations

import ast
from pathlib import Path

import oracles
from tempowl import iso


def imported_modules(path: str) -> set[str]:
    """Every module a source file imports, plus ``module.name`` for each name
    it imports from one, so ``from tempowl import rwl`` counts as
    ``tempowl.rwl``."""
    tree = ast.parse(Path(path).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported.add(node.module)
            imported.update(f"{node.module}.{alias.name}" for alias in node.names)
    return imported


def test_oracles_share_no_code_with_the_engine():
    # the oracles hold the encoders, the kernel and the verdicts to account
    banned = {"tempowl.kgraph", "tempowl.rwl", "tempowl.distinguish"}
    imported = imported_modules(oracles.__file__)
    assert not imported & banned, imported & banned


def test_isomorphism_search_builds_no_knowledge_graph():
    imported = imported_modules(iso.__file__)
    assert not {m for m in imported if m.startswith("tempowl.kgraph")}, imported
