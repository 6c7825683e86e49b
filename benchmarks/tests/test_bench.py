"""Tests for the benchmark itself (not part of the program's test suite).

    PYTHONPATH=src python3 -m pytest -q benchmarks/tests
"""

import json
import os
import resource
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import gen_corpus  # noqa: E402
import run  # noqa: E402
from tabverify.evidence import rle_encode  # noqa: E402
from tabverify.textnorm import default_abbrevs, normalize  # noqa: E402

WORKLOAD = "wide-tables"  # the fewest statements, so the quickest pipeline
SEED = 5
ABBREVS = default_abbrevs()


def norm(text):
    return normalize(text, ABBREVS)


def cli_env(hash_seed=run.HASH_SEED):
    return dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED=hash_seed)


def tracer_run(tmp, traced=False, workload=WORKLOAD):
    xml = tmp / "xml"
    gen_corpus.write_corpus_dir(workload, SEED, xml)
    work = tmp / "work"
    work.mkdir()
    argv = [sys.executable, str(BENCH / "tracer.py"), str(xml), str(work),
            str(tmp / "out.json")] + (["--traced"] if traced else [])
    subprocess.run(argv, env=cli_env(), check=True, timeout=300)
    return work, json.loads((tmp / "out.json").read_text())


@pytest.fixture(scope="module")
def finished(tmp_path_factory):
    """One finished pipeline directory; tests corrupt copies of it."""
    work, _ = tracer_run(tmp_path_factory.mktemp("pipeline"))
    return work


@pytest.fixture
def copy(finished, tmp_path):
    return Path(shutil.copytree(finished, tmp_path / "copy"))


def failing(workdir):
    return {name for name, ok, _ in checks.check_outputs(
        workdir, SEED, norm, run.AUGMENT_RATIO) if not ok}


def rewrite(path, edit):
    records = checks.read_jsonl(path)
    edit(records)
    path.write_text("".join(json.dumps(r, sort_keys=True) + "\n" for r in records))


def sampled(workdir, name):
    """Index of the first record in workdir/name that the oracle checks."""
    tables = checks.read_jsonl(workdir / "corpus.jsonl")
    sample = set(checks.oracle_sample(checks.statement_keys(tables), SEED))
    return next(i for i, rec in enumerate(checks.read_jsonl(workdir / name))
                if (rec["table_id"], rec["stmt_id"]) in sample)


@pytest.mark.parametrize("workload", sorted(gen_corpus.WORKLOADS))
def test_same_seed_same_corpus_bytes(workload):
    first = list(gen_corpus.generate(workload, 3))
    assert first == list(gen_corpus.generate(workload, 3))
    assert first != list(gen_corpus.generate(workload, 4))
    assert len(first) == gen_corpus.WORKLOADS[workload].tables


def test_clean_run_passes_every_check(finished):
    assert failing(finished) == set()


def test_moved_snapshot_row_is_flagged(copy):
    def move(records):
        rec = records[sampled(copy, "snapshots.jsonl")]
        rec["rows"][0] = next(r for r in range(100) if r not in rec["rows"])
        rec["rows"].sort()
    rewrite(copy / "snapshots.jsonl", move)
    assert failing(copy) == {"oracle_snapshot"}


def test_flipped_evidence_cell_is_flagged(copy):
    def flip(records):
        rec = records[sampled(copy, "evidence.jsonl")]
        grid = checks.rle_decode(rec["relevant_rle"], rec["n_rows"], rec["n_cols"])
        grid[1][0] = not grid[1][0]
        rec["relevant_rle"] = rle_encode(grid)
    rewrite(copy / "evidence.jsonl", flip)
    assert failing(copy) == {"oracle_evidence"}


def test_dropped_prediction_is_flagged(copy):
    rewrite(copy / "preds.jsonl", lambda records: records.pop(7))
    assert {"prediction_records", "oracle_task_a_f1"} <= failing(copy)


def test_peak_rss_comes_from_wait4_of_own_child(tmp_path, monkeypatch):
    waited = []
    real_wait4 = os.wait4

    def spy(pid, options):
        waited.append(pid)
        return real_wait4(pid, options)

    monkeypatch.setattr(run.os, "wait4", spy)
    child = "b = bytearray(200 * 2**20); b[::4096] = b'x' * len(b[::4096])"
    wall, rss_mb, code = run.run_process([sys.executable, "-c", child], os.environ,
                                         tmp_path / "out", tmp_path / "err")
    assert code == 0 and wall > 0
    assert len(waited) == 1
    assert 200 <= rss_mb < 400
    own_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    assert own_mb < 200  # the figure is the child's, not this process's


def test_checks_in_a_child_pass_on_a_clean_run(finished):
    outcome = run.Outcome()
    run.check_run(outcome, finished, SEED, [], cli_env())
    assert outcome.failures == []
    assert outcome.attempted == 2 + len(checks.check_outputs(
        finished, SEED, norm, run.AUGMENT_RATIO))


def test_own_peak_above_a_child_figure_is_flagged():
    outcome = run.Outcome()
    run.check_own_rss(outcome, [1e6, 2e6])
    run.check_own_rss(outcome, [1e6, 0.5])
    assert outcome.attempted == 2
    assert [f.split(":")[0] for f in outcome.failures] == ["peak_rss_is_childs"]


def test_traced_run_reports_every_declared_layer_metric(tmp_path):
    _, result = tracer_run(tmp_path, traced=True)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in spec["per_layer"]} - {"trace.overhead_frac"}
    assert set(result["metrics"]) == declared
    assert result["metrics"]["evidence.rule_calls"] > 0
    assert all(code == 0 for code in result["codes"].values())
    for span_id, name, stage, start, end, parent, own in result["spans"]:
        assert start <= end and own <= end - start + 1e-9


def test_without_the_program_it_exits_nonzero_without_a_result(tmp_path):
    shutil.copytree(BENCH, tmp_path / BENCH.name)
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, f"{BENCH.name}/run.py", "--workload", "typical", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_hash_seed_check_allows_rounding_only():
    # The same three per-class F1 values, summed in two orders.
    report = {"task_a": {"overall_3way": 0.8411, "per_table_3way": {"t1": (0.1 + 0.2) + 0.3}},
              "confusion": [["entailed", "refuted", 4]]}
    rounded = json.loads(json.dumps(report))
    rounded["task_a"]["per_table_3way"]["t1"] = 0.1 + (0.2 + 0.3)
    assert rounded != report and run.same_numbers(report, rounded)
    moved = json.loads(json.dumps(report))
    moved["task_a"]["overall_3way"] = 0.8412
    recounted = json.loads(json.dumps(report))
    recounted["confusion"][0][2] = 5
    assert not run.same_numbers(report, moved)
    assert not run.same_numbers(report, recounted)


@pytest.mark.xfail(strict=True, reason="score sums per-class F1 in set order "
                   "(scoring._table_macro_f1), so report.json's bytes depend on the "
                   "string hash seed; run.py prints it as a note until that is fixed")
def test_score_report_does_not_depend_on_hash_seed(tmp_path):
    work, _ = tracer_run(tmp_path, workload="typical")
    reports = set()
    for hash_seed in (run.HASH_SEED, run.OTHER_HASH_SEED):
        out = tmp_path / f"report-{hash_seed}.json"
        subprocess.run([sys.executable, "-m", "tabverify.cli", "score",
                        "--corpus", str(work / "corpus.jsonl"),
                        "--preds", str(work / "preds.jsonl"),
                        "--evidence", str(work / "evidence.jsonl"), "--out", str(out)],
                       env=cli_env(hash_seed), check=True, capture_output=True, timeout=120)
        reports.add(out.read_bytes())
    assert len(reports) == 1
