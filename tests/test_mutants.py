"""The mutant table of scripts/mutants.py stays applicable to the tree."""

from __future__ import annotations

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location(
    "mutants", ROOT / "scripts" / "mutants.py")
mutants = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(mutants)


def test_each_old_text_occurs_exactly_once():
    assert mutants.table_problems() == []


def test_each_entry_runs_existing_tests():
    for m in mutants.MUTANTS:
        assert m.old != m.new and m.tests, m.name
        for node in m.tests:
            path, *names = node.split("::")
            text = (ROOT / path).read_text()
            assert all(name in text for name in names), (m.name, node)
