import random

import pytest

from tabverify import scoring
from tabverify.corpus import Label, Records, SchemaError
from conftest import make_statement, make_table

E, R, U = Label.ENTAILED, Label.REFUTED, Label.UNKNOWN


def corpus_from_labels(tables):
    """tables: list of (table_id, [gold labels])."""
    docs = []
    for tid, labels in tables:
        stmts = [make_statement(f"s{i}", f"text {i}", label)
                 for i, label in enumerate(labels)]
        docs.append(make_table([["h"], ["x"]], table_id=tid, statements=stmts))
    return docs


def preds_from(tables):
    return {(tid, f"s{i}"): label
            for tid, labels in tables for i, label in enumerate(labels)}


def naive_prf(tp, fp, fn):
    if tp == fp == fn == 0:
        return 1.0
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


def naive_task_a(preds, gold_corpus, classes):
    """Independent per-table macro scorer, written from the metric text."""
    table_scores = []
    for doc in gold_corpus:
        pairs = [(st.stmt_id, st.gold_label) for st in doc.statements
                 if st.gold_label is not None and st.gold_label in classes]
        if not pairs:
            continue
        f1s = []
        for cls in sorted(classes, key=lambda l: l.value):
            gold_cls = [sid for sid, g in pairs if g == cls]
            pred_cls = [sid for sid, _ in pairs if preds[(doc.table_id, sid)] == cls]
            if not gold_cls and not pred_cls:
                continue
            tp = len(set(gold_cls) & set(pred_cls))
            f1s.append(naive_prf(tp, len(pred_cls) - tp, len(gold_cls) - tp))
        table_scores.append(sum(f1s) / len(f1s) if f1s else 1.0)
    return sum(table_scores) / len(table_scores) if table_scores else 0.0


def naive_task_a_micro(preds, gold_corpus, classes):
    """Independent per-table micro scorer: one F1 of the true positives,
    false positives and false negatives pooled over ``classes``."""
    table_scores = []
    for doc in gold_corpus:
        pairs = [(st.gold_label, preds[(doc.table_id, st.stmt_id)]) for st in doc.statements
                 if st.gold_label is not None and st.gold_label in classes]
        if not pairs:
            continue
        tp = sum(1 for g, p in pairs if g == p)
        fp = sum(1 for g, p in pairs if p != g and p in classes)
        fn = sum(1 for g, p in pairs if p != g)
        table_scores.append(naive_prf(tp, fp, fn))
    return sum(table_scores) / len(table_scores) if table_scores else 0.0


def three_way(preds, gold, average="macro"):
    return scoring.score_task_a(preds, gold, average)["overall_3way"]


def two_way(preds, gold, average="macro"):
    return scoring.score_task_a(preds, gold, average)["overall_2way"]


def naive_task_b(pred_sets, gold_corpus):
    table_scores = []
    for doc in gold_corpus:
        stmt_scores = []
        for st in doc.statements:
            if st.gold_label == U or not st.gold_evidence:
                continue
            pred = pred_sets[(doc.table_id, st.stmt_id)]
            best = 0.0
            for version in st.gold_evidence:
                gold = set(version)
                tp = len(pred & gold)
                best = max(best, naive_prf(tp, len(pred) - tp, len(gold) - tp))
            stmt_scores.append(best)
        if stmt_scores:
            table_scores.append(sum(stmt_scores) / len(stmt_scores))
    return sum(table_scores) / len(table_scores) if table_scores else 0.0


class TestScore3Way:
    def test_all_correct(self):
        spec = [("t1", [E, R, U]), ("t2", [E, E])]
        assert three_way(preds_from(spec), corpus_from_labels(spec)) == 1.0

    def test_all_wrong(self):
        gold = [("t1", [E, E, R])]
        preds = preds_from([("t1", [R, R, E])])
        assert three_way(preds, corpus_from_labels(gold)) == 0.0

    def test_hand_computed_seven_ninths(self):
        gold = [("t1", [E, E, R, U])]
        preds = preds_from([("t1", [E, R, R, U])])
        report = scoring.score_task_a(preds, corpus_from_labels(gold))
        assert report["overall_3way"] == pytest.approx(7 / 9, abs=1e-12)
        assert report["confusion"]["entailed->refuted"] == 1

    def test_table_without_labelled_statement_not_scored(self):
        gold = corpus_from_labels([("t1", [E, R]), ("t2", [None, None])])
        report = scoring.score_task_a(preds_from([("t1", [E, R])]), gold)
        assert report["per_table_3way"] == report["per_table_2way"] == {"t1": 1.0}

    def test_missing_prediction_named(self):
        gold = corpus_from_labels([("t1", [E])])
        with pytest.raises(SchemaError) as exc:
            scoring.score_task_a(Records("preds.jsonl"), gold)
        assert str(exc.value) == "preds.jsonl: no record for ('t1', 's0')"
        with pytest.raises(KeyError):  # a plain dict reports no file
            scoring.score_task_a({}, gold)


class TestScore2Way:
    def test_perfect(self):
        spec = [("t1", [E, R])]
        assert two_way(preds_from(spec), corpus_from_labels(spec)) == 1.0

    def test_all_unknown_predictions_penalized(self):
        gold = [("t1", [E, R])]
        preds = preds_from([("t1", [U, U])])
        assert two_way(preds, corpus_from_labels(gold)) == 0.0

    def test_hand_computed_five_sixths(self):
        gold = [("t1", [E, E, R])]
        preds = preds_from([("t1", [E, U, R])])
        assert two_way(preds, corpus_from_labels(gold)) == pytest.approx(5 / 6, abs=1e-12)

    def test_gold_unknown_dropped(self):
        gold = [("t1", [E, U, U])]
        preds = preds_from([("t1", [E, R, E])])  # wrong on dropped statements
        assert two_way(preds, corpus_from_labels(gold)) == 1.0

    def test_agrees_with_3way_without_unknowns(self):
        rng = random.Random(4)
        for _ in range(50):
            spec_gold, spec_pred = [], []
            for t in range(rng.randint(1, 4)):
                n = rng.randint(1, 6)
                spec_gold.append((f"t{t}", [rng.choice([E, R]) for _ in range(n)]))
                spec_pred.append((f"t{t}", [rng.choice([E, R]) for _ in range(n)]))
            gold = corpus_from_labels(spec_gold)
            preds = preds_from(spec_pred)
            report = scoring.score_task_a(preds, gold)
            assert report["overall_2way"] == pytest.approx(report["overall_3way"], abs=1e-12)


class TestScoreTaskB:
    def gold_doc(self, versions, label=E, tid="t1"):
        stmt = make_statement("s0", "text", label, versions)
        return make_table([["h", "h2"], ["a", "b"]], table_id=tid, statements=[stmt])

    def test_exact_match(self):
        gold = [self.gold_doc([{(0, 0), (0, 1)}])]
        report = scoring.score_task_b({("t1", "s0"): {(0, 0), (0, 1)}}, gold)
        assert report["overall"] == 1.0

    def test_empty_prediction_zero(self):
        gold = [self.gold_doc([{(0, 0)}])]
        report = scoring.score_task_b({("t1", "s0"): set()}, gold)
        assert report["overall"] == 0.0

    def test_best_version_wins(self):
        gold = [self.gold_doc([{(0, 0)}, {(1, 1)}])]
        report = scoring.score_task_b({("t1", "s0"): {(0, 0)}}, gold)
        assert report["overall"] == 1.0

    def test_hand_computed_half(self):
        gold = [self.gold_doc([{(0, 0), (0, 1)}])]
        report = scoring.score_task_b({("t1", "s0"): {(0, 0), (1, 1)}}, gold)
        assert report["overall"] == pytest.approx(0.5, abs=1e-12)
        stmt = report["per_statement"]["t1/s0"]
        assert stmt["precision"] == pytest.approx(0.5)
        assert stmt["recall"] == pytest.approx(0.5)

    def test_unknown_statements_excluded(self):
        docs = [make_table([["h"], ["a"]], table_id="t1", statements=[
            make_statement("s0", "x", E, [{(0, 0)}]),
            make_statement("s1", "y", U),
        ])]
        report = scoring.score_task_b({("t1", "s0"): {(0, 0)}}, docs)
        assert report["overall"] == 1.0
        assert "t1/s1" not in report["per_statement"]

    def test_colliding_report_keys_rejected(self):
        # ("a/b", "c") and ("a", "b/c") would both be reported as "a/b/c"
        docs = [make_table([["h"], ["x"]], table_id=tid, statements=[
                    make_statement(sid, "x", E, [{(0, 0)}])])
                for tid, sid in (("a/b", "c"), ("a", "b/c"))]
        preds = {("a/b", "c"): {(0, 0)}, ("a", "b/c"): {(0, 0)}}
        with pytest.raises(scoring.ScoringError, match="'a/b/c'"):
            scoring.score_task_b(preds, docs)


class TestRandomizedOracle:
    def random_corpus(self, rng):
        spec_gold, spec_pred = [], []
        for t in range(rng.randint(1, 10)):
            n = rng.randint(1, 8)
            spec_gold.append((f"t{t}", [rng.choice([E, R, U]) for _ in range(n)]))
            spec_pred.append((f"t{t}", [rng.choice([E, R, U]) for _ in range(n)]))
        return corpus_from_labels(spec_gold), preds_from(spec_pred)

    def test_3way_matches_naive(self):
        rng = random.Random(13)
        for _ in range(200):
            gold, preds = self.random_corpus(rng)
            assert three_way(preds, gold) == pytest.approx(
                naive_task_a(preds, gold, {E, R, U}), abs=1e-12)

    def test_2way_matches_naive(self):
        rng = random.Random(14)
        for _ in range(200):
            gold, preds = self.random_corpus(rng)
            assert two_way(preds, gold) == pytest.approx(
                naive_task_a(preds, gold, {E, R}), abs=1e-12)

    def test_micro_matches_naive(self):
        rng = random.Random(18)
        for _ in range(200):
            gold, preds = self.random_corpus(rng)
            report = scoring.score_task_a(preds, gold, "micro")
            assert report["overall_3way"] == pytest.approx(
                naive_task_a_micro(preds, gold, {E, R, U}), abs=1e-12)
            assert report["overall_2way"] == pytest.approx(
                naive_task_a_micro(preds, gold, {E, R}), abs=1e-12)

    def test_taskb_matches_naive(self):
        rng = random.Random(15)
        for _ in range(200):
            docs = []
            pred_sets = {}
            for t in range(rng.randint(1, 6)):
                stmts = []
                for i in range(rng.randint(1, 5)):
                    versions = [
                        {(rng.randint(0, 1), rng.randint(0, 1))
                         for _ in range(rng.randint(1, 3))}
                        for _ in range(rng.randint(1, 2))]
                    label = rng.choice([E, R])
                    stmts.append(make_statement(f"s{i}", "x", label, versions))
                    pred_sets[(f"t{t}", f"s{i}")] = {
                        (rng.randint(0, 1), rng.randint(0, 1))
                        for _ in range(rng.randint(0, 3))}
                docs.append(make_table([["h", "h"], ["a", "b"]], table_id=f"t{t}",
                                       statements=stmts))
            report = scoring.score_task_b(pred_sets, docs)
            assert report["overall"] == pytest.approx(
                naive_task_b(pred_sets, docs), abs=1e-12)

    def test_permutation_invariance(self):
        rng = random.Random(16)
        gold, preds = self.random_corpus(rng)
        shuffled = list(gold)
        rng.shuffle(shuffled)
        assert three_way(preds, gold) == pytest.approx(three_way(preds, shuffled), abs=1e-12)

    def test_scores_in_unit_interval(self):
        rng = random.Random(17)
        for _ in range(50):
            gold, preds = self.random_corpus(rng)
            report = scoring.score_task_a(preds, gold)
            assert 0 <= report["overall_3way"] <= 1
            assert all(0 <= v <= 1 for v in report["per_table_3way"].values())
