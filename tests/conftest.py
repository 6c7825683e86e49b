import pathlib
import sys

import pytest
from hypothesis import strategies as st

from tabverify.corpus import Label, Statement, make_document, write_corpus

FIXTURES = pathlib.Path(__file__).parent / "fixtures"
# The tests run the fixture pipeline of scripts/run_fixture_pipeline.py.
sys.path.insert(0, str(FIXTURES.parent.parent / "scripts"))


def make_table(rows, table_id="t", header_rows=1, statements=(), doc_id="d",
               caption="", legend=""):
    """Build a TableDocument from a list of rows of cell texts."""
    return make_document(doc_id, table_id, caption, legend, rows, header_rows,
                         statements)


def make_statement(stmt_id, text, label=None, evidence=None):
    versions = None
    if evidence is not None:
        versions = tuple(frozenset(v) for v in evidence)
    return Statement(stmt_id, text, label, versions)


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
