"""Acceptance suite: one test per top-level criterion, each printing a
PASS line with its runtime.  Run with `pytest tests/test_acceptance.py -s`.
"""

import json
import math
import pathlib
import random
import time

import numpy as np
import pytest

from tabverify import corpus as cp
from tabverify import ensemble as ens
from tabverify import evidence as ev
from tabverify import scoring
from tabverify.augment import AugmentConfig, generate_unknown
from tabverify.corpus import Label
from tabverify.snapshot import select_snapshot
from tabverify.textnorm import TableView

from conftest import corpus_bytes, make_statement, make_table
from run_fixture_pipeline import run_pipeline
import test_ensemble
from test_ensemble import planted_separable, random_examples
from test_evidence import brute_force as evidence_brute_force, random_case
from test_snapshot import brute_force_rows, random_instance
from test_scoring import corpus_from_labels, preds_from, naive_task_a, naive_task_b

README = pathlib.Path(__file__).parent.parent / "README.md"


def report(name, elapsed, budget):
    print(f"PASS: {name} ({elapsed:.2f}s, budget {budget:.0f}s)")
    assert elapsed < budget


def test_paper_numbers_out_of_scope_is_documented():
    text = README.read_text("utf-8")
    assert "0.8496" in text and "0.7732" in text and "0.4856" in text
    assert "not reproducible" in text.lower()
    print("PASS: leaderboard-number non-reproducibility is stated, substituted "
          "by property suites")


def test_corpus_stats_fixture_exact(fixtures_dir):
    start = time.perf_counter()
    docs = [cp.parse_xml(p.read_bytes())
            for p in sorted((fixtures_dir / "corpus").glob("*.xml"))]
    stats = cp.corpus_stats(docs)
    # hand-enumerated from the 5 fixture XML files
    assert stats["table_count"] == 5
    assert (stats["entailed"], stats["refuted"], stats["unknown"]) == (5, 6, 3)
    assert (stats["stmt_tokens_max"], stats["stmt_tokens_min"]) == (6, 3)
    assert stats["stmt_tokens_mean"] == pytest.approx(68 / 14)
    assert (stats["row_tokens_max"], stats["row_tokens_min"]) == (4, 1)
    assert stats["row_tokens_mean"] == pytest.approx(55 / 23)
    assert (stats["row_count_max"], stats["row_count_min"]) == (7, 3)
    assert stats["row_count_mean"] == pytest.approx(23 / 5)
    report("corpus stats match hand enumeration", time.perf_counter() - start, 10)


def test_augmentation_balance_17k_tables(tmp_path):
    start = time.perf_counter()
    rng = random.Random(0)
    vocab = [f"tok{i}" for i in range(500)]
    docs = []
    for t in range(17_000):
        n_stmts = rng.randint(1, 4)
        stmts = [make_statement(
            f"s{i}", " ".join(rng.choice(vocab) for _ in range(6)),
            Label.ENTAILED if i % 2 == 0 else Label.REFUTED)
            for i in range(n_stmts)]
        docs.append(make_table(
            [["head a", "head b"], [rng.choice(vocab), rng.choice(vocab)]],
            table_id=f"t{t}", statements=stmts))
    config = AugmentConfig(rng_seed=123)
    out, warnings = generate_unknown(docs, config)
    assert not warnings
    for before, after in zip(docs, out):
        s = len(before.statements)
        added = after.statements[s:]
        assert len(added) == math.floor(s / 2)
        assert all(a.gold_label == Label.UNKNOWN for a in added)
        assert after.statements[:s] == before.statements
    # same seed => bit-identical over interchange serialization
    out2, _ = generate_unknown(docs, config)
    sample = random.Random(1).sample(range(len(docs)), 200)
    assert corpus_bytes([out[i] for i in sample], tmp_path / "1.jsonl") == \
           corpus_bytes([out2[i] for i in sample], tmp_path / "2.jsonl")
    report("augmentation balance on 17k tables", time.perf_counter() - start, 30)


def test_snapshot_oracle_equivalence_1000():
    start = time.perf_counter()
    rng = random.Random(20240501)
    for _ in range(1000):
        table, stmt, r = random_instance(rng)
        snap = select_snapshot(TableView(table), stmt, r)
        assert set(snap) == brute_force_rows(table, stmt, r)
    report("snapshot matches exhaustive ranker on 1000 instances",
           time.perf_counter() - start, 5)


def test_vote_layer_gradients_and_training():
    start = time.perf_counter()
    checker = test_ensemble.TestGradientCheck()
    r = np.random.default_rng(31337)
    for trial in range(100):
        m = int(r.integers(1, 7))
        names = tuple(f"m{i}" for i in range(m))
        layer = ens.VoteLayer(names, r.normal(size=(3, 3 * m)) * 0.5,
                              r.normal(size=3) * 0.5)
        examples = random_examples(int(r.integers(2, 6)), m, seed=trial)
        l2 = float(r.choice([0.0, 1e-4]))
        _, gw, gb = ens._loss_and_grads(layer.weights, layer.bias, *ens._design(examples), l2)
        nw, nb = checker.numeric_grads(layer, examples, l2)
        denom = max(np.abs(nw).max(), np.abs(nb).max(), 1e-8)
        assert np.abs(gw - nw).max() / denom < 1e-6
        assert np.abs(gb - nb).max() / denom < 1e-6
    examples = planted_separable(200)
    trained, _ = ens.train(examples, ens.TrainConfig(), ("m0", "m1"))
    accuracy = sum(ens.predict(trained, x) == y for x, y in examples) / len(examples)
    assert accuracy >= 0.99
    report("vote-layer gradient check + planted-rule training",
           time.perf_counter() - start, 10)


def test_evidence_oracle_equivalence_1000():
    start = time.perf_counter()
    rng = random.Random(424242)
    for _ in range(1000):
        table, stmt = random_case(rng, vocab_size=10, max_dim=6)
        fired = ev.find_evidence(stmt, TableView(table), Label.REFUTED)
        assert set(fired) == evidence_brute_force(stmt, table)
        for rules in fired.values():
            if "3" in rules:
                assert "1" in rules and "2" in rules
    report("evidence rules match brute force on 1000 tables",
           time.perf_counter() - start, 30)


def test_scorer_oracle_equivalence_500():
    start = time.perf_counter()
    E, R, U = Label.ENTAILED, Label.REFUTED, Label.UNKNOWN
    rng = random.Random(515151)
    for _ in range(500):
        spec_gold, spec_pred = [], []
        for t in range(rng.randint(1, 10)):
            n = rng.randint(1, 8)
            spec_gold.append((f"t{t}", [rng.choice([E, R, U]) for _ in range(n)]))
            spec_pred.append((f"t{t}", [rng.choice([E, R, U]) for _ in range(n)]))
        gold = corpus_from_labels(spec_gold)
        preds = preds_from(spec_pred)
        task_a = scoring.score_task_a(preds, gold)
        assert abs(task_a["overall_3way"] - naive_task_a(preds, gold, {E, R, U})) < 1e-12
        assert abs(task_a["overall_2way"] - naive_task_a(preds, gold, {E, R})) < 1e-12
    # task B randomized equivalence
    for _ in range(500):
        docs, pred_sets = [], {}
        for t in range(rng.randint(1, 5)):
            stmts = []
            for i in range(rng.randint(1, 4)):
                versions = [{(rng.randint(0, 1), rng.randint(0, 1))
                             for _ in range(rng.randint(1, 3))}
                            for _ in range(rng.randint(1, 2))]
                stmts.append(make_statement(f"s{i}", "x", rng.choice([E, R]), versions))
                pred_sets[(f"t{t}", f"s{i}")] = {
                    (rng.randint(0, 1), rng.randint(0, 1))
                    for _ in range(rng.randint(0, 3))}
            docs.append(make_table([["h", "h"], ["a", "b"]], table_id=f"t{t}",
                                   statements=stmts))
        assert abs(scoring.score_task_b(pred_sets, docs)["overall"]
                   - naive_task_b(pred_sets, docs)) < 1e-12
    # the hand-computed examples reproduce exactly
    gold = corpus_from_labels([("t1", [E, E, R, U])])
    three = scoring.score_task_a(preds_from([("t1", [E, R, R, U])]), gold)["overall_3way"]
    assert three == pytest.approx(7 / 9, abs=1e-12)
    gold = corpus_from_labels([("t1", [E, E, R])])
    two = scoring.score_task_a(preds_from([("t1", [E, U, R])]), gold)["overall_2way"]
    assert two == pytest.approx(5 / 6, abs=1e-12)
    doc = make_table([["h", "h"], ["a", "b"]], table_id="t1", statements=[
        make_statement("s0", "x", E, [{(0, 0), (0, 1)}])])
    assert scoring.score_task_b(
        {("t1", "s0"): {(0, 0), (1, 1)}}, [doc])["overall"] == pytest.approx(0.5, abs=1e-12)
    report("scorers match naive implementation on 500 corpora",
           time.perf_counter() - start, 30)


def test_end_to_end_smoke(fixtures_dir, tmp_path):
    start = time.perf_counter()
    run_pipeline(fixtures_dir / "corpus", tmp_path)
    expected = fixtures_dir / "expected"
    for name in ["stats.json", "preds.jsonl", "report.json"]:
        assert (tmp_path / name).read_bytes() == (expected / name).read_bytes(), name
    report("end-to-end smoke reproduces frozen reports byte-for-byte",
           time.perf_counter() - start, 5)
