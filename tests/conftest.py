import pathlib
import sys
from typing import NamedTuple

import pytest
from hypothesis import strategies as st

from tabverify.corpus import Label, make_document, write_corpus

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
# The tests run the fixture pipeline of scripts/run_fixture_pipeline.py.
sys.path.insert(0, str(FIXTURES.parent.parent / "scripts"))


def make_table(rows, table_id="t", header_rows=1, statements=(), doc_id="d",
               caption="", legend=""):
    """Build a TableDocument from a list of rows of cell texts and the
    fields of its statements (``make_statement``)."""
    return make_document(doc_id, table_id, caption, legend, rows, header_rows,
                         statements)


class StatementFields(NamedTuple):
    """A statement as ``make_document`` takes it, each gold version any
    collection of ``(row, col)`` cells.  It reads like a ``Statement`` for
    the stages that take one and read only its id and text."""
    stmt_id: str
    text: str
    gold_label: Label | None
    versions: list | None


def make_statement(stmt_id, text, label=None, evidence=None):
    """The fields of a statement whose gold versions are ``evidence``:
    ``make_table`` builds its ``Statement``, each version as its mask."""
    return StatementFields(stmt_id, text, label, evidence)


def mask_of(cells, n_cols):
    """The Task B mask of a set of ``(row, col)`` cells of a grid ``n_cols``
    wide: bit ``row * n_cols + col`` per cell.  With ``cells_of`` it is the
    tests' one conversion between masks and the set-based oracles."""
    return sum(1 << (r * n_cols + c) for r, c in set(cells))


def cells_of(mask, n_cols):
    """The set of ``(row, col)`` cells whose bits ``mask`` holds."""
    return {divmod(i, n_cols) for i in range(mask.bit_length()) if mask >> i & 1}


def corpus_bytes(docs, path):
    """The bytes ``write_corpus`` writes for ``docs`` at ``path``."""
    write_corpus(docs, path)
    return path.read_bytes()


@pytest.fixture
def fixtures_dir():
    return FIXTURES


words = st.text(alphabet="abcdefghij", min_size=1, max_size=6)
cell_texts = st.lists(words, min_size=0, max_size=3).map(" ".join)
labels = st.sampled_from(list(Label))


@st.composite
def documents(draw, max_rows=6, max_cols=5, max_statements=4):
    n_rows = draw(st.integers(0, max_rows))
    n_cols = draw(st.integers(1, max_cols)) if n_rows else 0
    rows = [[draw(cell_texts) for _ in range(n_cols)] for _ in range(n_rows)]
    header_rows = draw(st.integers(0, min(2, n_rows)))
    n_stmts = draw(st.integers(0, max_statements))
    statements = []
    for i in range(n_stmts):
        evidence = None
        if n_rows and draw(st.booleans()):
            n_versions = draw(st.integers(1, 2))
            evidence = []
            for _ in range(n_versions):
                cells = draw(st.sets(
                    st.tuples(st.integers(0, n_rows - 1), st.integers(0, n_cols - 1)),
                    min_size=1, max_size=4))
                evidence.append(cells)
        statements.append(make_statement(
            f"s{i}", draw(st.text(alphabet="abcdefghij ", min_size=1, max_size=20).filter(str.strip)),
            draw(st.one_of(st.none(), labels)), evidence))
    tid = draw(st.text(alphabet="tbl0123456789", min_size=1, max_size=8))
    return make_table(rows, table_id=tid, header_rows=header_rows,
                      statements=statements, caption=draw(cell_texts),
                      legend=draw(cell_texts))
