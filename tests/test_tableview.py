"""A TableView shared by every statement of a table gives the results that
fresh per-statement calls on the bare table give."""

import pytest
from hypothesis import given, strategies as st

from tabverify import augment, classify, evidence, snapshot
from tabverify import textnorm as tn
from tabverify.corpus import Label
from conftest import documents, make_statement, make_table

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
            snap = snapshot.select_snapshot(view, stmt, r_rows, n_values)
            assert snap == snapshot.select_snapshot(doc, stmt, r_rows, n_values, abbrevs)
            assert (classify.lexical_baseline(stmt, view, snap, n_values=n_values)
                    == classify.lexical_baseline(stmt, doc, snap, abbrevs, n_values))
        assert (evidence.find_evidence(stmt, view, label)
                == evidence.find_evidence(stmt, doc, label, abbrevs))


@given(documents(), abbrev_tables)
def test_table_unigram_bag_is_union_of_normalized_tokens(doc, abbrevs):
    tokens = []
    for row in doc.grid:
        for cell in row:
            tokens.extend(tn.normalize(cell, abbrevs))
    tokens.extend(tn.normalize(doc.caption, abbrevs))
    assert augment._table_unigram_bag(doc, abbrevs) == set(tokens)


def test_view_keeps_its_own_abbrevs():
    view = tn.TableView(make_table([["h"], ["a"]]), ABBREVS)
    assert tn.TableView.of(view) is view
    with pytest.raises(ValueError, match="own abbreviations"):
        tn.TableView.of(view, ABBREVS)
