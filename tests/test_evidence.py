import random
import tracemalloc

import pytest

from tabverify import evidence as ev
from tabverify import textnorm as tn
from tabverify.corpus import Label
from conftest import make_statement, make_table


def brute_force(statement, table, abbrevs=None):
    """Cell-by-cell re-derivation of the four rules, written directly from
    their definitions (quadratic scans, no shared code paths)."""
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
    return tuple(tuple(row) for row in relevant)


def relevant_cells(verdicts):
    return {(r, c) for r, row in enumerate(verdicts) for c, v in enumerate(row) if v}


class TestFindEvidence:
    def test_entailed_short_circuit(self):
        table = make_table([["h1", "h2"], ["a", "b"]])
        stmt = make_statement("s", "whatever")
        verdicts, trace = ev.find_evidence(stmt, tn.TableView(table), Label.ENTAILED)
        assert all(all(row) for row in verdicts)
        assert all(cell == (ev.ALL_ENTAILED,) for row in trace for cell in row)

    def test_unknown_rejected(self):
        table = make_table([["h"], ["a"]])
        with pytest.raises(ev.TaskBExclusionError, match="unknown"):
            ev.find_evidence(make_statement("s", "x"), tn.TableView(table), Label.UNKNOWN)

    def test_rule1_header_match_marks_column_body(self):
        table = make_table([["name", "score", "year"],
                            ["ann", "4", "2001"],
                            ["bob", "7", "2002"]])
        stmt = make_statement("s", "the score went up")
        verdicts, trace = ev.find_evidence(stmt, tn.TableView(table), Label.REFUTED)
        assert verdicts == brute_force(stmt, table)
        assert relevant_cells(verdicts) == {(1, 1), (2, 1), (0, 1)}
        # (0,1) via rule 4 on the header cell itself; body cells via rule 1
        assert "1" in trace[1][1] and "1" in trace[2][1]

    def test_no_shared_words_all_false(self):
        table = make_table([["h1", "h2"], ["a", "b"]])
        stmt = make_statement("s", "zz qq")
        verdicts, _ = ev.find_evidence(stmt, tn.TableView(table), Label.REFUTED)
        assert not any(any(row) for row in verdicts)

    def test_rules_1_2_3_union(self):
        # "total" hits header col 1 and the first-column cell of body row 3
        table = make_table([["item", "total"],
                            ["apples", "4"],
                            ["pears", "2"],
                            ["total", "6"]])
        stmt = make_statement("s", "the total is wrong")
        verdicts, trace = ev.find_evidence(stmt, tn.TableView(table), Label.REFUTED)
        assert verdicts == brute_force(stmt, table)
        # rule 1: body cells of column 1; rule 2: all of row 3; rule 3: (3,1)
        assert {(1, 1), (2, 1), (3, 1), (3, 0)} <= relevant_cells(verdicts)
        assert "3" in trace[3][1]
        assert "1" in trace[1][1] and "2" in trace[3][0]

    def test_multi_token_cell_matches_any_token(self):
        table = make_table([["h"], ["mean value"]])
        stmt = make_statement("s", "the mean")
        verdicts, _ = ev.find_evidence(stmt, tn.TableView(table), Label.REFUTED)
        assert verdicts[1][0]

    def test_abbreviations_align(self):
        abbrevs = tn.make_abbrev_table([("no", "number")])
        table = make_table([["no"], ["5"]])
        stmt = make_statement("s", "the number")
        verdicts, _ = ev.find_evidence(stmt, tn.TableView(table, abbrevs), Label.REFUTED)
        assert verdicts[1][0]  # rule 1 via expanded header token

    def test_dimensions_match_grid(self):
        table = make_table([["a", "b", "c"], ["d", "e", "f"]])
        verdicts, trace = ev.find_evidence(make_statement("s", "d"), tn.TableView(table),
                                           Label.REFUTED)
        assert len(verdicts) == 2 and all(len(r) == 3 for r in verdicts)
        assert len(trace) == 2 and all(len(r) == 3 for r in trace)


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
            verdicts, _ = ev.find_evidence(stmt, tn.TableView(table), label)
            if label == Label.ENTAILED:
                assert all(all(row) for row in verdicts)
            else:
                assert verdicts == brute_force(stmt, table)

    def test_rule3_subset_of_rules_1_and_2(self):
        rng = random.Random(88)
        for _ in range(400):
            table, stmt = random_case(rng)
            _, trace = ev.find_evidence(stmt, tn.TableView(table), Label.REFUTED)
            for row in trace:
                for fired in row:
                    if "3" in fired:
                        assert "1" in fired and "2" in fired

    def test_monotone_in_statement_words(self):
        rng = random.Random(99)
        for _ in range(200):
            table, stmt = random_case(rng)
            extra = make_statement("s", stmt.text + " w0 w1")
            before, _ = ev.find_evidence(stmt, tn.TableView(table), Label.REFUTED)
            after, _ = ev.find_evidence(extra, tn.TableView(table), Label.REFUTED)
            assert relevant_cells(before) <= relevant_cells(after)

    def test_trace_nonempty_iff_relevant(self):
        rng = random.Random(55)
        for _ in range(100):
            table, stmt = random_case(rng)
            verdicts, trace = ev.find_evidence(stmt, tn.TableView(table), Label.REFUTED)
            for r, row in enumerate(verdicts):
                for c, verdict in enumerate(row):
                    assert verdict == bool(trace[r][c])


class TestRle:
    def test_round_trip(self):
        rng = random.Random(5)
        for _ in range(100):
            n_rows, n_cols = rng.randint(1, 5), rng.randint(1, 5)
            verdicts = tuple(tuple(rng.random() < 0.4 for _ in range(n_cols))
                             for _ in range(n_rows))
            runs = ev.rle_encode(verdicts)
            assert ev.rle_decode(runs, n_rows, n_cols) == verdicts

    def test_starts_with_false_run(self):
        assert ev.rle_encode(((True, True),)) == [0, 2]
        assert ev.rle_encode(((False, True),)) == [1, 1]

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
