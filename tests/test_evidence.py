import itertools
import random
import tracemalloc

import pytest
from hypothesis import given, settings, strategies as st

from tabverify import evidence as ev
from tabverify import textnorm as tn
from tabverify.corpus import Label
from conftest import cells_of, make_statement, make_table, mask_of


def brute_force(statement, table, abbrevs=None, by_rule=False):
    """Cell-by-cell re-derivation of the four rules, written directly from
    their definitions (quadratic scans, no shared code paths); returns the
    set of relevant cells, or with ``by_rule`` the set each rule fires on."""
    bag = set(tn.normalize(statement.text, abbrevs))
    n_rows, n_cols = table.n_rows, table.n_cols
    header = min(table.header_rows, n_rows)

    def cell_has(r, c, word):
        return word in tn.normalize(table.grid[r][c], abbrevs)

    fired = {"1": set(), "2": set(), "3": set(), "4": set()}
    for r in range(n_rows):
        for c in range(n_cols):
            for word in bag:
                # rule 1: word in some header cell of this column, body cell
                if r >= header and any(cell_has(hr, c, word) for hr in range(header)):
                    fired["1"].add((r, c))
                # rule 2: word in this row's first-column body cell
                if r >= header and n_cols and cell_has(r, 0, word):
                    fired["2"].add((r, c))
                # rule 3: word in a header cell of column c and in (r, 0)
                if (r >= header and n_cols
                        and any(cell_has(hr, c, word) for hr in range(header))
                        and cell_has(r, 0, word)):
                    fired["3"].add((r, c))
                # rule 4: word in this cell
                if cell_has(r, c, word):
                    fired["4"].add((r, c))
    return fired if by_rule else set().union(*fired.values())


def naive_rle(cells, n_rows, n_cols):
    """Row-major runs of the cell set ``cells``, alternating from an
    irrelevant run (empty when cell (0, 0) is relevant)."""
    flat = [(r, c) in cells for r in range(n_rows) for c in range(n_cols)]
    return [0] * (not flat or flat[0]) + [len(list(g)) for _, g in itertools.groupby(flat)]


def by_cell(fired, n_cols):
    """``find_evidence``'s ``{rule id: mask}`` as a set-based oracle reads it:
    each relevant ``(row, col)`` -> the ids of the rules holding it, in
    rule-id order."""
    rules = {}
    for rule, mask in fired.items():
        for cell in cells_of(mask, n_cols):
            rules[cell] = rules.get(cell, ()) + (rule,)
    return rules


def fire(stmt, table, label, abbrevs=None):
    """``find_evidence`` on a fresh view of ``table``, read through ``by_cell``."""
    return by_cell(ev.find_evidence(stmt, tn.TableView(table, abbrevs), label), table.n_cols)


class TestFindEvidence:
    def test_entailed_short_circuit(self):
        table = make_table([["h1", "h2"], ["a", "b"]])
        stmt = make_statement("s", "whatever")
        fired = fire(stmt, table, Label.ENTAILED)
        assert set(fired) == {(r, c) for r in range(2) for c in range(2)}
        assert all(rules == (ev.ALL_ENTAILED,) for rules in fired.values())
        trace = ev.rule_trace(ev.find_evidence(stmt, tn.TableView(table), Label.ENTAILED), 2, 2)
        assert trace == [[[ev.ALL_ENTAILED]] * 2] * 2

    def test_unknown_rejected(self):
        table = make_table([["h"], ["a"]])
        with pytest.raises(ValueError, match="^Task B excludes unknown statements$"):
            ev.find_evidence(make_statement("s", "x"), tn.TableView(table), Label.UNKNOWN)

    def test_rule1_header_match_marks_column_body(self):
        table = make_table([["name", "score", "year"],
                            ["ann", "4", "2001"],
                            ["bob", "7", "2002"]])
        stmt = make_statement("s", "the score went up")
        fired = fire(stmt, table, Label.REFUTED)
        assert set(fired) == brute_force(stmt, table)
        assert set(fired) == {(1, 1), (2, 1), (0, 1)}
        # (0,1) via rule 4 on the header cell itself; body cells via rule 1
        assert "1" in fired[(1, 1)] and "1" in fired[(2, 1)]

    def test_no_shared_words_all_false(self):
        table = make_table([["h1", "h2"], ["a", "b"]])
        stmt = make_statement("s", "zz qq")
        fired = ev.find_evidence(stmt, tn.TableView(table), Label.REFUTED)
        assert list(fired) == ["1", "2", "3", "4"]
        assert by_cell(fired, table.n_cols) == {}

    def test_rules_1_2_3_union(self):
        # "total" hits header col 1 and the first-column cell of body row 3
        table = make_table([["item", "total"],
                            ["apples", "4"],
                            ["pears", "2"],
                            ["total", "6"]])
        stmt = make_statement("s", "the total is wrong")
        fired = fire(stmt, table, Label.REFUTED)
        assert set(fired) == brute_force(stmt, table)
        # rule 1: body cells of column 1; rule 2: all of row 3; rule 3: (3,1)
        assert {(1, 1), (2, 1), (3, 1), (3, 0)} <= set(fired)
        assert "3" in fired[(3, 1)]
        assert "1" in fired[(1, 1)] and "2" in fired[(3, 0)]

    def test_multi_token_cell_matches_any_token(self):
        table = make_table([["h"], ["mean value"]])
        stmt = make_statement("s", "the mean")
        fired = fire(stmt, table, Label.REFUTED)
        assert (1, 0) in fired

    def test_abbreviations_align(self):
        abbrevs = tn.make_abbrev_table([("no", "number")])
        table = make_table([["no"], ["5"]])
        stmt = make_statement("s", "the number")
        fired = fire(stmt, table, Label.REFUTED, abbrevs)
        assert (1, 0) in fired  # rule 1 via expanded header token

    def test_dimensions_match_grid(self):
        table = make_table([["a", "b", "c"], ["d", "e", "f"]])
        fired = ev.find_evidence(make_statement("s", "d"), tn.TableView(table),
                                 Label.REFUTED)
        assert all(0 <= mask < 1 << 2 * 3 for mask in fired.values())
        assert all(0 <= r < 2 and 0 <= c < 3 for r, c in by_cell(fired, 3))


def random_case(rng, vocab_size=10, max_dim=6):
    vocab = [f"w{i}" for i in range(vocab_size)]
    n_rows = rng.randint(1, max_dim)
    n_cols = rng.randint(1, max_dim)
    header_rows = rng.randint(0, min(2, n_rows))
    rows = [[" ".join(rng.choice(vocab) for _ in range(rng.randint(0, 2)))
             for _ in range(n_cols)] for _ in range(n_rows)]
    stmt = make_statement("s", " ".join(rng.choice(vocab)
                                        for _ in range(rng.randint(1, 6))) or "w0")
    return make_table(rows, header_rows=header_rows), stmt


class TestOracleEquivalence:
    def test_matches_brute_force(self):
        rng = random.Random(77)
        for _ in range(400):
            table, stmt = random_case(rng)
            label = rng.choice([Label.ENTAILED, Label.REFUTED])
            fired = fire(stmt, table, label)
            if label == Label.ENTAILED:
                assert len(fired) == table.n_rows * table.n_cols
            else:
                assert set(fired) == brute_force(stmt, table)

    def test_rule3_subset_of_rules_1_and_2(self):
        rng = random.Random(88)
        for _ in range(400):
            table, stmt = random_case(rng)
            fired = fire(stmt, table, Label.REFUTED)
            for rules in fired.values():
                if "3" in rules:
                    assert "1" in rules and "2" in rules

    def test_monotone_in_statement_words(self):
        rng = random.Random(99)
        for _ in range(200):
            table, stmt = random_case(rng)
            extra = make_statement("s", stmt.text + " w0 w1")
            before = fire(stmt, table, Label.REFUTED)
            after = fire(extra, table, Label.REFUTED)
            assert set(before) <= set(after)

    def test_trace_nonempty_iff_relevant(self):
        """Every mapped cell has at least one rule id, in sorted order, and
        ``rule_trace`` lists exactly those ids for every cell of the grid."""
        rng = random.Random(55)
        for _ in range(100):
            table, stmt = random_case(rng)
            fired = ev.find_evidence(stmt, tn.TableView(table), Label.REFUTED)
            cells = by_cell(fired, table.n_cols)
            for rules in cells.values():
                assert rules and list(rules) == sorted(set(rules))
            assert ev.rule_trace(fired, table.n_rows, table.n_cols) == [
                [list(cells.get((r, c), ())) for c in range(table.n_cols)]
                for r in range(table.n_rows)]


class TestRle:
    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(100):
            n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 5)
            cells = {(r, c) for r in range(n_rows) for c in range(n_cols)
                     if rng.random() < 0.4}
            runs = ev.rle_encode(mask_of(cells, n_cols), n_rows, n_cols)
            assert runs == naive_rle(cells, n_rows, n_cols)
            assert cells_of(ev.rle_decode(runs, n_rows, n_cols), n_cols) == cells
            flat = [(r, c) in cells for r in range(n_rows) for c in range(n_cols)]
            grid = [flat[r * n_cols:(r + 1) * n_cols] for r in range(n_rows)]
            assert ev.rle_encode(grid) == runs

    def test_starts_with_false_run(self):
        assert ev.rle_encode(mask_of({(0, 0), (0, 1)}, 2), 1, 2) == [0, 2]
        assert ev.rle_encode(mask_of({(0, 1)}, 2), 1, 2) == [1, 1]

    def test_no_relevant_cells(self):
        assert ev.rle_encode(0, 2, 2) == [4]
        assert ev.rle_encode(0, 0, 0) == [0]
        assert ev.rle_decode([4], 2, 2) == 0

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            ev.rle_decode([3], 2, 2)

    def test_negative_run_rejected(self):
        with pytest.raises(ValueError):
            ev.rle_decode([2, -1, 2, 1], 1, 5)

    def test_oversized_run_rejected_before_expanding(self):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match="sum to 10000000, expected 4"):
                ev.rle_decode([10_000_000], 2, 2)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000, peak


# A four-word vocabulary, so that statement words often hit cells.
vocab_words = st.sampled_from(["ab", "cd", "ef", "ab1"])


@st.composite
def shaped_tables(draw):
    """Tables of every edge shape: rows with no cells (``n_cols == 0``),
    header rows up to past the last row, and an empty grid."""
    n_rows = draw(st.integers(0, 5))
    n_cols = draw(st.integers(0, 4)) if n_rows else 0
    rows = [[" ".join(draw(st.lists(vocab_words, max_size=2))) for _ in range(n_cols)]
            for _ in range(n_rows)]
    return make_table(rows, header_rows=draw(st.integers(0, n_rows + 1)))


class TestMasksMatchSetOracles:
    @settings(max_examples=300, deadline=None)
    @given(table=shaped_tables(), data=st.data())
    def test_engine_and_codec(self, table, data):
        """``find_evidence`` agrees with ``brute_force`` rule by rule, and the
        codec with ``naive_rle`` and its inverse, on edge shapes and on empty
        and full cell sets."""
        n_rows, n_cols = table.n_rows, table.n_cols
        grid = {(r, c) for r in range(n_rows) for c in range(n_cols)}
        stmt = make_statement("s", " ".join(data.draw(st.lists(vocab_words, min_size=1,
                                                               max_size=4))))
        fired = ev.find_evidence(stmt, tn.TableView(table), Label.REFUTED)
        assert {rule: cells_of(mask, n_cols) for rule, mask in fired.items()} == brute_force(
            stmt, table, by_rule=True)
        assert set(fire(stmt, table, Label.ENTAILED)) == grid
        cells = data.draw(st.sampled_from([set(), grid])
                          | st.sets(st.sampled_from(sorted(grid))) if grid else st.just(set()))
        runs = ev.rle_encode(mask_of(cells, n_cols), n_rows, n_cols)
        assert runs == naive_rle(cells, n_rows, n_cols)
        assert cells_of(ev.rle_decode(runs, n_rows, n_cols), n_cols) == cells
        assert ev.rle_encode([[(r, c) in cells for c in range(n_cols)]
                              for r in range(n_rows)]) == runs
