import itertools
import random
import tracemalloc

import pytest

from tabverify import evidence as ev
from tabverify import textnorm as tn
from tabverify.corpus import Label
from conftest import make_statement, make_table


def brute_force(statement, table, abbrevs=None):
    """Cell-by-cell re-derivation of the four rules, written directly from
    their definitions (quadratic scans, no shared code paths); returns the
    set of relevant cells."""
    bag = set(tn.normalize(statement.text, abbrevs))
    n_rows, n_cols = table.n_rows, table.n_cols
    header = min(table.header_rows, n_rows)

    def cell_has(r, c, word):
        return word in tn.normalize(table.grid[r][c], abbrevs)

    relevant = [[False] * n_cols for _ in range(n_rows)]
    for r in range(n_rows):
        for c in range(n_cols):
            for word in bag:
                # rule 1: word in some header cell of this column, body cell
                if r >= header and any(cell_has(hr, c, word) for hr in range(header)):
                    relevant[r][c] = True
                # rule 2: word in this row's first-column body cell
                if r >= header and n_cols and cell_has(r, 0, word):
                    relevant[r][c] = True
                # rule 3: word in a header cell of column c and in (r, 0)
                if (r >= header and n_cols
                        and any(cell_has(hr, c, word) for hr in range(header))
                        and cell_has(r, 0, word)):
                    relevant[r][c] = True
                # rule 4: word in this cell
                if cell_has(r, c, word):
                    relevant[r][c] = True
    return {(r, c) for r in range(n_rows) for c in range(n_cols) if relevant[r][c]}


class TestFindEvidence:
    def test_entailed_short_circuit(self):
        table = make_table([["h1", "h2"], ["a", "b"]])
        stmt = make_statement("s", "whatever")
        fired = ev.find_evidence(stmt, tn.TableView(table), Label.ENTAILED)
        assert set(fired) == {(r, c) for r in range(2) for c in range(2)}
        assert all(rules == (ev.ALL_ENTAILED,) for rules in fired.values())

    def test_unknown_rejected(self):
        table = make_table([["h"], ["a"]])
        with pytest.raises(ValueError, match="^Task B excludes unknown statements$"):
            ev.find_evidence(make_statement("s", "x"), tn.TableView(table), Label.UNKNOWN)

    def test_rule1_header_match_marks_column_body(self):
        table = make_table([["name", "score", "year"],
                            ["ann", "4", "2001"],
                            ["bob", "7", "2002"]])
        stmt = make_statement("s", "the score went up")
        fired = ev.find_evidence(stmt, tn.TableView(table), Label.REFUTED)
        assert set(fired) == brute_force(stmt, table)
        assert set(fired) == {(1, 1), (2, 1), (0, 1)}
        # (0,1) via rule 4 on the header cell itself; body cells via rule 1
        assert "1" in fired[(1, 1)] and "1" in fired[(2, 1)]

    def test_no_shared_words_all_false(self):
        table = make_table([["h1", "h2"], ["a", "b"]])
        stmt = make_statement("s", "zz qq")
        fired = ev.find_evidence(stmt, tn.TableView(table), Label.REFUTED)
        assert fired == {}

    def test_rules_1_2_3_union(self):
        # "total" hits header col 1 and the first-column cell of body row 3
        table = make_table([["item", "total"],
                            ["apples", "4"],
                            ["pears", "2"],
                            ["total", "6"]])
        stmt = make_statement("s", "the total is wrong")
        fired = ev.find_evidence(stmt, tn.TableView(table), Label.REFUTED)
        assert set(fired) == brute_force(stmt, table)
        # rule 1: body cells of column 1; rule 2: all of row 3; rule 3: (3,1)
        assert {(1, 1), (2, 1), (3, 1), (3, 0)} <= set(fired)
        assert "3" in fired[(3, 1)]
        assert "1" in fired[(1, 1)] and "2" in fired[(3, 0)]

    def test_multi_token_cell_matches_any_token(self):
        table = make_table([["h"], ["mean value"]])
        stmt = make_statement("s", "the mean")
        fired = ev.find_evidence(stmt, tn.TableView(table), Label.REFUTED)
        assert (1, 0) in fired

    def test_abbreviations_align(self):
        abbrevs = tn.make_abbrev_table([("no", "number")])
        table = make_table([["no"], ["5"]])
        stmt = make_statement("s", "the number")
        fired = ev.find_evidence(stmt, tn.TableView(table, abbrevs), Label.REFUTED)
        assert (1, 0) in fired  # rule 1 via expanded header token

    def test_dimensions_match_grid(self):
        table = make_table([["a", "b", "c"], ["d", "e", "f"]])
        fired = ev.find_evidence(make_statement("s", "d"), tn.TableView(table),
                                 Label.REFUTED)
        assert all(0 <= r < 2 and 0 <= c < 3 for r, c in fired)


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
            fired = ev.find_evidence(stmt, tn.TableView(table), label)
            if label == Label.ENTAILED:
                assert len(fired) == table.n_rows * table.n_cols
            else:
                assert set(fired) == brute_force(stmt, table)

    def test_rule3_subset_of_rules_1_and_2(self):
        rng = random.Random(88)
        for _ in range(400):
            table, stmt = random_case(rng)
            fired = ev.find_evidence(stmt, tn.TableView(table), Label.REFUTED)
            for rules in fired.values():
                if "3" in rules:
                    assert "1" in rules and "2" in rules

    def test_monotone_in_statement_words(self):
        rng = random.Random(99)
        for _ in range(200):
            table, stmt = random_case(rng)
            extra = make_statement("s", stmt.text + " w0 w1")
            before = ev.find_evidence(stmt, tn.TableView(table), Label.REFUTED)
            after = ev.find_evidence(extra, tn.TableView(table), Label.REFUTED)
            assert set(before) <= set(after)

    def test_trace_nonempty_iff_relevant(self):
        """Every mapped cell has at least one rule id, in sorted order."""
        rng = random.Random(55)
        for _ in range(100):
            table, stmt = random_case(rng)
            fired = ev.find_evidence(stmt, tn.TableView(table), Label.REFUTED)
            for rules in fired.values():
                assert rules and list(rules) == sorted(set(rules))


class TestRle:
    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(100):
            n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 5)
            cells = {(r, c) for r in range(n_rows) for c in range(n_cols)
                     if rng.random() < 0.4}
            runs = ev.rle_encode(cells, n_rows, n_cols)
            flat = [(r, c) in cells for r in range(n_rows) for c in range(n_cols)]
            assert runs == [0] * flat[0] + [len(list(g)) for _, g in itertools.groupby(flat)]
            assert ev.rle_decode(runs, n_rows, n_cols) == cells
            grid = [flat[r * n_cols:(r + 1) * n_cols] for r in range(n_rows)]
            assert ev.rle_encode(grid) == runs

    def test_starts_with_false_run(self):
        assert ev.rle_encode({(0, 0), (0, 1)}, 1, 2) == [0, 2]
        assert ev.rle_encode({(0, 1)}, 1, 2) == [1, 1]

    def test_no_relevant_cells(self):
        assert ev.rle_encode({}, 2, 2) == [4]
        assert ev.rle_encode(set(), 0, 0) == [0]
        assert ev.rle_decode([4], 2, 2) == frozenset()

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
