"""EXPERIMENTS.md's tables are what the simulator prints now.

Each table function runs its experiment and asserts its paper claims;
its block in EXPERIMENTS.md must then equal the rendered rows.  A
failure names the table: rerun ``python benchmarks/paper_tables.py``
and review the diff.
"""

import functools

import pytest

import paper_tables
from paper_tables import DOC, TABLES


@functools.lru_cache(maxsize=None)
def rendered(name: str) -> str:
    return paper_tables.render(*TABLES[name]())


@pytest.mark.parametrize("name", list(TABLES))
def test_table_is_current(name):
    problem = paper_tables.stale(DOC, name, rendered(name))
    assert problem is None, problem


def test_every_block_is_a_table():
    assert list(paper_tables.blocks(DOC.read_text(encoding="utf-8"))) == list(TABLES)


def _copy_with(tmp_path, old, new):
    text = DOC.read_text(encoding="utf-8")
    assert text.count(old) == 1
    copy = tmp_path / "EXPERIMENTS.md"
    copy.write_text(text.replace(old, new), encoding="utf-8")
    return copy


def test_an_edited_cell_is_stale(tmp_path):
    block = rendered("E8b")
    row = block.splitlines()[-1]
    cells = row.split(" | ")
    cells[1] = str(int(cells[1]) + 1)
    copy = _copy_with(tmp_path, row, " | ".join(cells))
    problem = paper_tables.stale(copy, "E8b", block)
    assert problem is not None and problem.startswith("table E8b ")


def test_a_missing_block_is_stale(tmp_path):
    block = rendered("E8b")
    copy = _copy_with(tmp_path, f"<!-- table E8b -->\n{block}<!-- /table -->", block)
    problem = paper_tables.stale(copy, "E8b", block)
    assert problem is not None and problem.startswith("table E8b:")
