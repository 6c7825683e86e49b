import random

import pytest

from tabverify import textnorm as tn
from tabverify.snapshot import median_row_count, select_snapshot
from conftest import make_statement, make_table


def row_text(table, row_index):
    """The texts of one row joined with single spaces."""
    return " ".join(table.grid[row_index])


def table_with_rows(n_body, n_cols=2, rng=None, vocab=("aa", "bb", "cc", "dd")):
    rng = rng or random.Random(0)
    rows = [[f"h{c}" for c in range(n_cols)]]
    for _ in range(n_body):
        rows.append([rng.choice(vocab) for _ in range(n_cols)])
    return make_table(rows)


def brute_force_rows(table, statement, r_rows, n_values=(1, 2)):
    """Independent ranker: repeatedly scan for the strictly-best remaining
    row (earliest index wins ties) until r_rows are picked."""
    stmt_grams = tn.ngram_set(tn.normalize(statement.text), n_values)
    body = list(table.body_row_indices)
    if len(body) <= r_rows:
        return set(body)
    rates = {}
    for idx in body:
        grams = tn.ngram_set(tn.normalize(row_text(table, idx)), n_values)
        rates[idx] = tn.overlap_rate(stmt_grams, grams)
    picked = set()
    for _ in range(r_rows):
        best = None
        for idx in body:
            if idx in picked:
                continue
            if best is None or rates[idx] > rates[best]:
                best = idx
        picked.add(best)
    return picked


class TestMedianRowCount:
    def _corpus(self, body_counts):
        return [table_with_rows(n) for n in body_counts]

    def test_odd(self):
        assert median_row_count(self._corpus([3, 7, 9])) == 7

    def test_even_takes_lower_middle(self):
        assert median_row_count(self._corpus([4, 8])) == 4

    def test_singleton(self):
        assert median_row_count(self._corpus([5])) == 5

    def test_empty_corpus(self):
        with pytest.raises(ValueError):
            median_row_count([])

    def test_headers_excluded(self):
        # 3 grid rows, 1 header -> 2 body rows
        assert median_row_count([table_with_rows(2)]) == 2


class TestSelectSnapshot:
    def test_small_table_keeps_everything(self):
        table = table_with_rows(3)
        st_ = make_statement("s", "anything at all")
        snap = select_snapshot(tn.TableView(table), st_, 5)
        assert snap == (1, 2, 3)
        assert len(snap) == 3

    def test_top_k_by_overlap(self):
        # body rows 1..5; statement shares grams only with rows 1 and 4
        rows = [["h0", "h1"],
                ["zebra", "quokka"],
                ["xx", "yy"],
                ["pp", "qq"],
                ["zebra", "lion"],
                ["mm", "nn"]]
        table = make_table(rows)
        st_ = make_statement("s", "the zebra quokka pair")
        snap = select_snapshot(tn.TableView(table), st_, 2)
        # exhaustive check over all 5 rows agrees
        assert set(snap) == brute_force_rows(table, st_, 2) == {1, 4}

    def test_tie_break_lowest_index(self):
        rows = [["h0"], ["same"], ["same"], ["same"]]
        table = make_table(rows)
        snap = select_snapshot(tn.TableView(table), make_statement("s", "same"), 2)
        assert snap == (1, 2)

    def test_invalid_r(self):
        with pytest.raises(ValueError):
            select_snapshot(tn.TableView(table_with_rows(2)), make_statement("s", "x"), 0)

    def test_column_permutation_invariant(self):
        rows = [["h0", "h1"], ["aa", "bb"], ["cc", "dd"], ["ee", "ff"]]
        swapped = [list(reversed(r)) for r in rows]
        st_ = make_statement("s", "aa bb cc")
        a = select_snapshot(tn.TableView(make_table(rows)), st_, 2, n_values=(1,))
        b = select_snapshot(tn.TableView(make_table(swapped)), st_, 2, n_values=(1,))
        assert a == b

    def test_deterministic(self):
        table = table_with_rows(8, rng=random.Random(3))
        st_ = make_statement("s", "aa bb")
        assert (select_snapshot(tn.TableView(table), st_, 3)
                == select_snapshot(tn.TableView(table), st_, 3))


def random_instance(rng):
    vocab = [f"w{i}" for i in range(8)]
    n_body = rng.randint(0, 11)
    n_cols = rng.randint(1, 4)
    rows = [[f"h{c}" for c in range(n_cols)]]
    for _ in range(n_body):
        rows.append([rng.choice(vocab) for _ in range(n_cols)])
    stmt = make_statement("s", " ".join(rng.choice(vocab) for _ in range(rng.randint(1, 15))))
    return make_table(rows), stmt, rng.randint(1, 12)


class TestOracleEquivalence:
    def test_matches_brute_force_on_random_instances(self):
        rng = random.Random(1234)
        for _ in range(300):
            table, stmt, r = random_instance(rng)
            snap = select_snapshot(tn.TableView(table), stmt, r)
            assert set(snap) == brute_force_rows(table, stmt, r)
            # invariants
            assert len(snap) <= r
            assert len(snap) <= len(list(table.body_row_indices))
            assert list(snap) == sorted(set(snap))

    def test_selected_rates_dominate_unselected(self):
        rng = random.Random(99)
        for _ in range(100):
            table, stmt, r = random_instance(rng)
            snap = select_snapshot(tn.TableView(table), stmt, r)
            grams = tn.ngram_set(tn.normalize(stmt.text), (1, 2))
            rates = {idx: tn.overlap_rate(
                grams, tn.ngram_set(tn.normalize(row_text(table, idx)), (1, 2)))
                for idx in table.body_row_indices}
            chosen = set(snap)
            others = set(rates) - chosen
            if chosen and others:
                assert min(rates[i] for i in chosen) >= max(rates[i] for i in others) - 1e-12
