import dataclasses
import hashlib
import json
import os
import platform
import subprocess
import sys

import pytest

from conftest import FIXTURES
from tabverify import cli

ROOT = FIXTURES.parent.parent
sys.path.insert(0, str(ROOT / "benchmarks"))

import gen_corpus  # noqa: E402
import scale  # noqa: E402
from pipeline import STAGES  # noqa: E402


def run_scale_20(out):
    subprocess.run([sys.executable, str(ROOT / "scripts" / "scale.py"), "--tables", "20",
                    "--seed", "1"], cwd=out, check=True, capture_output=True)
    return json.loads((out / "BENCH_20.json").read_text("utf-8"))


@pytest.fixture(scope="module")
def bench_20(tmp_path_factory):
    return run_scale_20(tmp_path_factory.mktemp("scale"))


class TestScale:
    def test_records_every_field(self, bench_20):
        assert set(bench_20) == {"workload", "tables", "seed", "setup", "stages", "counts",
                                 "pipeline",
                                 "outputs_sha256", "own_peak_rss_mb", "flagged",
                                 "src_lines", "python", "dont_write_bytecode", "cpu_count"}
        assert (bench_20["workload"], bench_20["tables"], bench_20["seed"]) == ("typical", 20, 1)
        stages = bench_20["stages"]
        assert list(stages) == list(STAGES)
        for figures in stages.values():
            assert set(figures) == {"wall_s", "peak_rss_mb"}
            assert figures["wall_s"] > 0 and figures["peak_rss_mb"] > 0
        assert bench_20["pipeline"] == {
            "wall_s": sum(s["wall_s"] for s in stages.values()),
            "peak_rss_mb": max(s["peak_rss_mb"] for s in stages.values())}
        assert bench_20["src_lines"] == sum(
            len(path.read_text("utf-8").splitlines())
            for path in (ROOT / "src").rglob("*.py"))
        assert bench_20["python"] == platform.python_version()
        assert bench_20["dont_write_bytecode"] == bool(os.environ.get("PYTHONDONTWRITEBYTECODE"))

    def test_records_the_fixed_cost_of_a_process(self, bench_20):
        """`setup` is one `--help` process, timed like a stage and kept out
        of the pipeline's figures."""
        setup = bench_20["setup"]
        assert set(setup) == {"wall_s", "peak_rss_mb"}
        assert setup["wall_s"] > 0 and setup["peak_rss_mb"] > 0
        assert "setup" not in bench_20["stages"]

    def test_counts_repeat_exactly(self, bench_20, tmp_path):
        """Each stage's calls and collections in the counting pass are the
        same in a second run."""
        counts = bench_20["counts"]
        assert list(counts) == list(STAGES)
        for figures in counts.values():
            assert set(figures) == {"total_calls", "collections"}
            assert figures["total_calls"] > 0 and len(figures["collections"]) == 3
        assert run_scale_20(tmp_path)["counts"] == counts

    def test_flags_stages_at_or_below_its_own_peak(self, bench_20):
        """Under pytest the script starts at pytest's peak, which may flag every stage."""
        own_peak = bench_20["own_peak_rss_mb"]
        assert own_peak > 0
        assert bench_20["flagged"] == [stage for stage, s in bench_20["stages"].items()
                                       if s["peak_rss_mb"] <= own_peak]

    def test_hashes_the_outputs_of_the_scaled_corpus(self, bench_20, tmp_path, monkeypatch):
        """The corpus is `typical`'s shape with 20 tables; the recorded
        digest of `parse`'s output is the file's."""
        assert set(bench_20["outputs_sha256"]) == {
            "corpus.jsonl", "stats.json", "augmented.jsonl", "snapshots.jsonl",
            "scores.jsonl", "layer.json", "preds.jsonl", "evidence.jsonl", "report.json"}
        monkeypatch.setitem(gen_corpus.WORKLOADS, "typical", dataclasses.replace(
            gen_corpus.WORKLOADS["typical"], tables=20))
        assert gen_corpus.write_corpus_dir("typical", 1, tmp_path / "xml") == 20
        assert cli.main(["parse", str(tmp_path / "xml"), str(tmp_path / "corpus.jsonl")]) == 0
        digest = hashlib.sha256((tmp_path / "corpus.jsonl").read_bytes()).hexdigest()
        assert bench_20["outputs_sha256"]["corpus.jsonl"] == digest

    @pytest.mark.parametrize("spec", ["", "x", "1", "20,0"])
    def test_table_counts_below_two_rejected(self, spec, capsys):
        with pytest.raises(SystemExit) as exc:
            scale.main(["--tables", spec])
        assert exc.value.code == 2
        assert "expected comma-separated table counts >= 2" in capsys.readouterr().err
