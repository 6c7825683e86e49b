import re

import pytest

from tabverify import classify, textnorm
from tabverify.corpus import Label, SchemaError
from tabverify.textnorm import TableView
from conftest import make_statement, make_table


def body_rows(table):
    return tuple(table.body_row_indices)


class TestLexicalBaseline:
    def test_full_overlap_no_negation_is_entailed(self):
        table = make_table([["h"], ["alpha beta gamma"]])
        stmt = make_statement("s", "alpha beta gamma")
        scores = classify.lexical_baseline(stmt, TableView(table), body_rows(table))
        # o = 1 (all statement grams in the row), n = 0, u = 0
        assert scores == (1.0, 0.0, 0.0)
        assert max(range(3), key=lambda i: scores[i]) == 0

    def test_disjoint_statement_is_unknown(self):
        table = make_table([["h"], ["alpha beta"]])
        stmt = make_statement("s", "unrelated words entirely")
        scores = classify.lexical_baseline(stmt, TableView(table), body_rows(table))
        assert scores == (0.0, 0.0, 1.0)

    def test_negation_flips_to_refuted(self):
        table = make_table([["h"], ["alpha beta"]])
        stmt = make_statement("s", "alpha beta not")
        scores = classify.lexical_baseline(stmt, TableView(table), body_rows(table))
        assert scores[1] > scores[0]

    def test_no_is_a_negation_cue_with_default_abbrevs(self):
        table = make_table([["h"], ["alpha beta"]])
        stmt = make_statement("s", "alpha beta no")
        view = TableView(table, textnorm.default_abbrevs())
        scores = classify.lexical_baseline(stmt, view, body_rows(table))
        assert scores[1] > 0

    def test_empty_statement_scores(self):
        table = make_table([["h"], ["a"]])
        stmt = make_statement("s", "!!")
        scores = classify.lexical_baseline(stmt, TableView(table), body_rows(table))
        assert scores == (0.0, 0.0, 1.0)

    def test_scores_bounded(self):
        table = make_table([["h"], ["alpha beta"], ["gamma delta"]])
        for text in ["alpha", "alpha not beta", "gamma delta", "zz"]:
            stmt = make_statement("s", text)
            scores = classify.lexical_baseline(stmt, TableView(table), body_rows(table))
            assert 0 <= scores[0] <= 1
            assert 0 <= scores[1] <= classify.NEGATION_FACTOR
            assert 0 <= scores[2] <= 1


def score_line(model="m", scores="[1, 2, 3]"):
    return f'{{"model": "{model}", "table_id": "t", "stmt_id": "s", "scores": {scores}}}\n'


class TestScoreFiles:
    def scores(self):
        return {(f"m{m}", "t", f"s{s}"): (0.1 * m, 0.2, float(s))
                for m in range(6) for s in range(2)}

    def test_cardinality(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        classify.write_scores(self.scores().items(), path)
        scores, model_names = classify.read_scores([path])
        assert len(scores) == 2 and model_names == tuple(f"m{m}" for m in range(6))
        assert sum(map(len, scores.values())) == 12

    def test_round_trip(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        written = self.scores()
        classify.write_scores(written.items(), path)
        scores, _ = classify.read_scores([path])
        assert {(m, *key): triple for key, by_model in scores.items()
                for m, triple in by_model.items()} == written

    def test_unknown_fields_ignored(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"model": "m", "table_id": "t", "stmt_id": "s", '
                        '"scores": [1, 2, 3], "custom": "ignored"}\n')
        assert classify.read_scores([path]) == ({("t", "s"): {"m": (1, 2, 3)}}, ("m",))

    @pytest.mark.parametrize("line, message", [
        (score_line(scores="[1.0, 2.0]"), "expected 3 scores, got 2"),
        (score_line(scores="[1.0, NaN, 0.0]"),
         "scores must be finite numbers, got (1.0, nan, 0.0)"),
        (score_line(model=""), "model must be non-empty"),
        (score_line(scores="[true, false, 0]"),
         "scores must be finite numbers, got (True, False, 0)"),
        (score_line(scores=f"[1, 2, {10 ** 400}]"),
         f"scores must be finite numbers, got (1, 2, {10 ** 400})"),
    ], ids=["two-scores", "nan", "empty-model", "booleans", "past-float-range"])
    def test_bad_record_rejected(self, tmp_path, line, message):
        path = tmp_path / "scores.jsonl"
        path.write_text(line)
        with pytest.raises(SchemaError, match=f"^{re.escape(f'{path}:1: {message}')}$"):
            classify.read_scores([path])

    def test_wrong_score_count_reports_line(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"model": "m", "table_id": "t", "stmt_id": "s", "scores": [1, 2]}\n')
        message = f"{path}:1: expected 3 scores, got 2"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            classify.read_scores([path])

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"model": "m", "table_id": "t", "stmt_id": "s", "scores": [1,2,3]}\n{oops\n')
        message = (f"{path}:2: invalid JSON: Expecting property name enclosed in double quotes: "
                   "line 1 column 2 (char 1)")
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            classify.read_scores([path])

    def test_infinite_score_rejected(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"model": "m", "table_id": "t", "stmt_id": "s", '
                        '"scores": [1, Infinity, 3]}\n')
        message = f"{path}:1: scores must be finite numbers, got (1, inf, 3)"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            classify.read_scores([path])

    def test_duplicate_across_files_reports_second_line(self, tmp_path):
        """Every file fills one set of records, so a key the first file holds
        is a duplicate at its line in the second."""
        a, b = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        a.write_text(score_line())
        b.write_text(score_line(model="n") + score_line())
        message = f"{b}:2: duplicate record for ('m', 't', 's')"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            classify.read_scores([a, b])
