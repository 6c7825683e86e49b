import json
import math

import pytest

from tabverify import classify
from tabverify.corpus import Label
from tabverify.textnorm import TableView
from conftest import make_statement, make_table


def body_rows(table):
    return tuple(table.body_row_indices)


class TestLexicalBaseline:
    def test_full_overlap_no_negation_is_entailed(self):
        table = make_table([["h"], ["alpha beta gamma"]])
        stmt = make_statement("s", "alpha beta gamma")
        sv = classify.lexical_baseline(stmt, TableView(table), body_rows(table))
        # o = 1 (all statement grams in the row), n = 0, u = 0
        assert sv.scores == (1.0, 0.0, 0.0)
        assert max(range(3), key=lambda i: sv.scores[i]) == 0

    def test_disjoint_statement_is_unknown(self):
        table = make_table([["h"], ["alpha beta"]])
        stmt = make_statement("s", "unrelated words entirely")
        sv = classify.lexical_baseline(stmt, TableView(table), body_rows(table))
        assert sv.scores == (0.0, 0.0, 1.0)

    def test_negation_flips_to_refuted(self):
        table = make_table([["h"], ["alpha beta"]])
        stmt = make_statement("s", "alpha beta not")
        sv = classify.lexical_baseline(stmt, TableView(table), body_rows(table))
        assert sv.scores[1] > sv.scores[0]

    def test_empty_statement_scores(self):
        table = make_table([["h"], ["a"]])
        stmt = make_statement("s", "!!")
        sv = classify.lexical_baseline(stmt, TableView(table), body_rows(table))
        assert sv.scores == (0.0, 0.0, 1.0)

    def test_scores_bounded(self):
        table = make_table([["h"], ["alpha beta"], ["gamma delta"]])
        for text in ["alpha", "alpha not beta", "gamma delta", "zz"]:
            stmt = make_statement("s", text)
            sv = classify.lexical_baseline(stmt, TableView(table), body_rows(table))
            assert 0 <= sv.scores[0] <= 1
            assert 0 <= sv.scores[1] <= classify.NEGATION_FACTOR
            assert 0 <= sv.scores[2] <= 1


class TestScoreVector:
    def test_requires_three_scores(self):
        with pytest.raises(classify.ScoreFileError, match="expected 3 scores"):
            classify.ScoreVector("m", "t", "s", (1.0, 2.0))

    def test_rejects_non_finite(self):
        with pytest.raises(classify.ScoreFileError):
            classify.ScoreVector("m", "t", "s", (1.0, math.nan, 0.0))

    def test_rejects_empty_model_name(self):
        with pytest.raises(classify.ScoreFileError):
            classify.ScoreVector("", "t", "s", (1.0, 2.0, 3.0))


class TestScoreFiles:
    def vectors(self):
        return [classify.ScoreVector(f"m{m}", "t", f"s{s}", (0.1 * m, 0.2, float(s)))
                for m in range(6) for s in range(2)]

    def test_cardinality(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        classify.write_scores(self.vectors(), path)
        assert len(classify.read_scores(path)) == 12

    def test_round_trip(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        vectors = self.vectors()
        classify.write_scores(vectors, path)
        assert classify.read_scores(path) == vectors

    def test_unknown_fields_preserved(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"model": "m", "table_id": "t", "stmt_id": "s", '
                        '"scores": [1, 2, 3], "custom": "kept"}\n')
        [sv] = classify.read_scores(path)
        assert sv.extra == {"custom": "kept"}
        out = tmp_path / "out.jsonl"
        classify.write_scores([sv], out)
        assert json.loads(out.read_text())["custom"] == "kept"

    def test_wrong_score_count_reports_line(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"model": "m", "table_id": "t", "stmt_id": "s", "scores": [1, 2]}\n')
        with pytest.raises(classify.ScoreFileError, match="expected 3 scores"):
            classify.read_scores(path)

    def test_malformed_line_reports_line_number(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"model": "m", "table_id": "t", "stmt_id": "s", "scores": [1,2,3]}\n{oops\n')
        with pytest.raises(classify.ScoreFileError, match=":2"):
            classify.read_scores(path)

    def test_infinite_score_rejected(self, tmp_path):
        path = tmp_path / "scores.jsonl"
        path.write_text('{"model": "m", "table_id": "t", "stmt_id": "s", '
                        '"scores": [1, Infinity, 3]}\n')
        with pytest.raises(classify.ScoreFileError):
            classify.read_scores(path)
