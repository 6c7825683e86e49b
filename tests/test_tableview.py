"""A TableView shared by every statement of a table gives the results that
a fresh view per call gives."""

from hypothesis import given, strategies as st

from tabverify import augment, classify, evidence, snapshot
from tabverify import textnorm as tn
from tabverify.corpus import Label
from conftest import documents, make_statement

# Keys drawn from the strategies' alphabet, so expansions actually fire.
ABBREVS = tn.make_abbrev_table([("ab", "cd ef"), ("c", "bag"), ("ji", "jig")])
abbrev_tables = st.sampled_from([None, ABBREVS])


@given(documents(max_rows=8, max_statements=5), abbrev_tables, st.integers(1, 4),
       st.sampled_from([Label.ENTAILED, Label.REFUTED]))
def test_shared_view_matches_fresh_calls(doc, abbrevs, r_rows, label):
    # statements echoing a row's text share its unigrams and bigrams
    echoes = [make_statement(f"row{r}", " ".join(row) + " x")
              for r, row in enumerate(doc.grid)]
    view = tn.TableView(doc, abbrevs)
    for stmt in list(doc.statements) + echoes:
        # both n-gram settings go through the same view, interleaved
        for n_values in [(1,), (1, 2)]:
            rows = snapshot.select_snapshot(view, stmt, r_rows, n_values)
            assert rows == snapshot.select_snapshot(tn.TableView(doc, abbrevs), stmt,
                                                    r_rows, n_values)
            assert (classify.lexical_baseline(stmt, view, rows, n_values)
                    == classify.lexical_baseline(stmt, tn.TableView(doc, abbrevs), rows,
                                                 n_values))
        assert (evidence.find_evidence(stmt, view, label)
                == evidence.find_evidence(stmt, tn.TableView(doc, abbrevs), label))


@given(documents(), abbrev_tables)
def test_table_unigram_bag_is_union_of_normalized_tokens(doc, abbrevs):
    tokens = []
    for row in doc.grid:
        for cell in row:
            tokens.extend(tn.normalize(cell, abbrevs))
    tokens.extend(tn.normalize(doc.caption, abbrevs))
    assert augment._table_unigram_bag(doc, abbrevs) == set(tokens)
