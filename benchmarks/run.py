"""Benchmark entry point: generate a seeded corpus, run the README pipeline
on it as a user does, check every output, and print each metric with its
unit.

    python3 benchmarks/run.py --workload typical --seed 1 --seconds 45 --trace 0

Run from the repository root.  With ``--trace 0`` each subcommand runs as
its own ``python -m tabverify.cli`` process, timed by this process, which
takes the child's peak RSS from ``os.wait4``.  Every timed process sits
between two calibration processes and is scaled to the reference machine's
speed (see CALIBRATION below).  The pipeline repeats while the next repeat still fits
in ``--seconds``, counted from the start of this process with the output
checks included (at least twice), and every figure is the median over
repeats.  With ``--trace 1`` the pipeline runs in one process per repeat
through ``tracer.py``, alternating a plain and a traced run, and the
per-layer metrics are reported unscaled.  Metric names and units come from
BENCHMARK.json at the root.  The last line of standard output is one JSON
object; see README.md in this directory.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import checks
import gen_corpus
from pipeline import AUGMENT_RATIO, STAGES, stage_argvs

START = time.perf_counter()

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
DEFAULT_SEED = 1
MIN_REPEATS = 2
TIMED_STAGES = ("parse", "augment", "snapshot", "baseline", "ensemble-train",
                "evidence", "score")
# Children run with string hashing fixed, so set-iteration timing repeats.
# One counted check reruns `score` under OTHER_HASH_SEED: its numbers must
# not depend on the hash seed beyond float rounding (HASH_SEED_TOLERANCE);
# a byte difference is printed as a note (see README.md).  Under it a set of
# the three labels iterates in another order than under HASH_SEED; under 1
# or 2 it would not, and the check could not fail.
HASH_SEED = "0"
OTHER_HASH_SEED = "3"
# F1 values lie in [0, 1]; summing three of them in another order moves the
# result by a few units in the last place (~1e-16), while one changed label
# moves a table's F1 by far more than this.
HASH_SEED_TOLERANCE = 1e-12
# Left free at the end of --seconds for removing scratch files and printing.
TAIL_RESERVE_S = 1.0
# A repeat can run this much longer than the mean of those before it.
REPEAT_MARGIN = 1.1
# Pinned output digests for DEFAULT_SEED; a deliberate output change re-pins
# them from the digests a failing run prints.
PINNED = HERE / "digests.json"
SPEC = ROOT / "BENCHMARK.json"
# The machine's speed changes in phases of a few seconds, and drifts over
# minutes, because other tenants share its cores.  Each timed process runs
# between two runs of a fixed calibration process that starts Python,
# imports numpy and does text work like the program's, without running any
# of the program; its time is scaled by CAL_REFERENCE_S over the geometric
# mean of those two calibration times, i.e. to seconds at the reference
# machine's speed.  CAL_REFERENCE_S is the calibration's median there and
# part of the benchmark's definition.
CALIBRATION = """
import json, re, numpy
tok = re.compile(r"[a-z0-9]+")
text = " ".join(f"Item{i % 211}ing value{i % 97}s {i}" for i in range(10000))
counts = {}
for t in tok.findall(text.lower()):
    t = t[:-3] if t.endswith("ing") else t.rstrip("s")
    counts[t] = counts.get(t, 0) + 1
json.dumps(counts, sort_keys=True)
"""
CAL_REFERENCE_S = 0.23
CALIBRATION_ARGV = [sys.executable, "-c", CALIBRATION]


def run_process(argv, env, stdout_path, stderr_path):
    """Run one child to completion; returns (wall s, peak RSS MB, exit code).

    Peak RSS is the child's own ru_maxrss from os.wait4, so nothing else on
    the machine is counted."""
    with open(stdout_path, "wb") as out, open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, usage.ru_maxrss / 1024, proc.returncode


def cli_argv(argv):
    return [sys.executable, "-m", "tabverify.cli", *argv]


def run_scaled(steps, env, workdir, outcome):
    """Run each (name, argv) of steps in turn, with a calibration process
    before the first, between each two and after the last; each run is a
    counted operation that must exit 0 with no traceback.  Returns
    ({name: (wall s, wall s at the reference speed, peak RSS MB)}, all ok).

    A step's time is scaled by CAL_REFERENCE_S over the geometric mean of
    the calibrations on either side of it."""
    def calibrate():
        wall, _, code = run_process(CALIBRATION_ARGV, env, workdir / "calibration.stdout",
                                    workdir / "calibration.stderr")
        outcome.record("calibration", code == 0, f"exit {code}")
        return wall

    times, all_ok = {}, True
    before = calibrate()
    for name, argv in steps:
        wall, rss, code = run_process(argv, env, workdir / f"{name}.stdout",
                                      workdir / f"{name}.stderr")
        after = calibrate()
        text = (workdir / f"{name}.stderr").read_text(errors="replace")
        ok = code == 0 and "Traceback" not in text
        outcome.record(name, ok, f"exit {code}: {text[-500:]}")
        all_ok = all_ok and ok
        times[name] = (wall, wall * CAL_REFERENCE_S / math.sqrt(before * after), rss)
        before = after
    return times, all_ok


def repeat_within(seconds, once, check_first):
    """Call once(i), and check_first on the first result, at least
    MIN_REPEATS times, then while another call, REPEAT_MARGIN times as long
    as the mean so far, still ends TAIL_RESERVE_S before `seconds` after
    START; returns the results."""
    deadline = START + seconds - TAIL_RESERVE_S
    results, spent = [], 0.0
    while (len(results) < MIN_REPEATS
           or time.perf_counter() + REPEAT_MARGIN * spent / len(results) <= deadline):
        begin = time.perf_counter()
        results.append(once(len(results)))
        spent += time.perf_counter() - begin
        if len(results) == 1:
            check_first(results[0])
    return results


class Outcome:
    """Attempted and failed operations: process runs and output checks."""

    def __init__(self):
        self.attempted = 0
        self.failures = []
        self.notes = []

    def record(self, name, ok, detail=""):
        self.attempted += 1
        if not ok:
            self.failures.append(f"{name}: {detail}")


def check_run(outcome, workdir, seed, reference_digests, env):
    """Every output check on one finished pipeline directory.  The checks
    run in a child process: a child's ru_maxrss starts at this process's own
    peak, so this process must stay small (see check_own_rss)."""
    argv = [sys.executable, str(HERE / "checks.py"), str(workdir), str(seed),
            str(AUGMENT_RATIO)]
    out, err = workdir / "checks.stdout", workdir / "checks.stderr"
    _, _, code = run_process(argv, env, out, err)
    outcome.record("output checks", code == 0,
                   f"exit {code}: {err.read_text(errors='replace')[-500:]}")
    if code == 0:
        for name, ok, detail in json.loads(out.read_text("utf-8")):
            outcome.record(name, ok, detail)
    got = checks.digests(workdir)
    for label, want in reference_digests:
        outcome.record(f"digests_{label}", got == want,
                       "differ: " + json.dumps({k: v for k, v in got.items()
                                                if want.get(k) != v}))
    check_hash_seed(outcome, workdir, env)


def same_numbers(a, b):
    """a and b are the same JSON value, floats to within HASH_SEED_TOLERANCE."""
    if isinstance(a, float) and isinstance(b, float):
        return abs(a - b) <= HASH_SEED_TOLERANCE
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same_numbers(a[k], b[k]) for k in a)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(same_numbers, a, b))
    return type(a) is type(b) and a == b


def check_hash_seed(outcome, workdir, env):
    """Rerun `score` under another string hash seed; report.json must keep
    every value, floats to within rounding.  A byte difference is a note:
    `score` sums per-class F1 in set order (see README.md)."""
    again = workdir / "report-other-hash-seed.json"
    argv = dict(stage_argvs("", workdir))["score"]
    argv[argv.index("--out") + 1] = str(again)
    _, _, code = run_process(cli_argv(argv), dict(env, PYTHONHASHSEED=OTHER_HASH_SEED),
                             workdir / "score-other-hash-seed.stdout",
                             workdir / "score-other-hash-seed.stderr")
    ours = (workdir / "report.json").read_bytes()
    theirs = again.read_bytes() if code == 0 else b""
    same = code == 0 and same_numbers(json.loads(ours), json.loads(theirs))
    outcome.record("report_independent_of_hash_seed", same,
                   f"exit {code}; report.json under PYTHONHASHSEED={OTHER_HASH_SEED} "
                   f"{'matches' if same else 'differs from'} the one under {HASH_SEED}")
    if same and theirs != ours:
        outcome.notes.append(
            f"report.json under PYTHONHASHSEED={OTHER_HASH_SEED} differs from the one "
            f"under {HASH_SEED} in float rounding only (per-class F1 summed in set order)")


def check_own_rss(outcome, child_peaks_mb):
    """A child's ru_maxrss is at least this process's peak RSS when it was
    spawned (exec keeps the high-water mark of the memory it replaces).  If
    this process's peak so far is below every child figure, each figure is
    the child's own."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    least = min(child_peaks_mb)
    outcome.record("peak_rss_is_childs", own < least,
                   f"this process peaked at {own:.1f} MB, the smallest stage at {least:.1f} MB")


def check_repeats(outcome, digest_list):
    """Every repeat's outputs are byte-identical; None marks a repeat with a
    failed stage."""
    if digest_list[0] is None:
        return
    differ = sorted({name for d in digest_list for name, digest in (d or {}).items()
                     if digest != digest_list[0][name]})
    outcome.record("repeats_identical", not differ and all(digest_list),
                   f"{len(digest_list)} repeats; differing outputs {differ}")


def pinned_digests(workload, seed):
    if seed != DEFAULT_SEED:
        return []
    return [("pinned", json.loads(PINNED.read_text("utf-8")).get(workload, {}))]


def untraced(args, xml_dir, workdir, env, outcome):
    """Repeat [--help, then the pipeline]; returns ({metric: samples at the
    reference speed}, repeats, {metric: raw median})."""
    def once(i):
        rep = workdir / f"rep{i}"
        rep.mkdir()
        steps = [("setup", cli_argv(["--help"]))] + [
            (f"stage {stage}", cli_argv(argv)) for stage, argv in stage_argvs(xml_dir, rep)]
        times, ok = run_scaled(steps, env, rep, outcome)
        stages = {name.removeprefix("stage "): t for name, t in times.items()
                  if name != "setup"}
        return times["setup"], stages, checks.digests(rep) if ok else None

    def check_first(first):
        if first[2] is not None:
            check_run(outcome, workdir / "rep0", args.seed,
                      pinned_digests(args.workload, args.seed), env)

    reps = repeat_within(args.seconds, once, check_first)
    check_repeats(outcome, [digests for _, _, digests in reps])
    # pipeline_s sums the stages, leaving out the calibration runs between them.
    raw = {"pipeline_s": [sum(t[0] for t in stages.values()) for _, stages, _ in reps]}
    metrics = {"pipeline_s": [sum(t[1] for t in stages.values()) for _, stages, _ in reps]}
    for stage in TIMED_STAGES:
        name = f"{stage.replace('-', '_')}_s"
        raw[name] = [stages[stage][0] for _, stages, _ in reps]
        metrics[name] = [stages[stage][1] for _, stages, _ in reps]
    raw["setup_s"] = [setup[0] for setup, _, _ in reps]
    metrics["setup_s"] = [setup[1] for setup, _, _ in reps]
    metrics["peak_rss_mb"] = [max(t[2] for t in stages.values()) for _, stages, _ in reps]
    check_own_rss(outcome, [t[2] for _, stages, _ in reps for t in stages.values()])
    return metrics, len(reps), {name: statistics.median(xs) for name, xs in raw.items()}


def traced(args, xml_dir, workdir, env, outcome):
    def tracer_run(i, mode):
        rep = workdir / f"{mode}{i}"
        rep.mkdir()
        out = rep / "tracer.json"
        argv = [sys.executable, str(HERE / "tracer.py"), str(xml_dir), str(rep), str(out)]
        _, _, code = run_process(argv + (["--traced"] if mode == "traced" else []), env,
                                 rep / "tracer.stdout", rep / "tracer.stderr")
        outcome.record(f"tracer {mode}", code == 0, (rep / "tracer.stderr").read_text()[-500:])
        if code != 0:
            return None
        result = json.loads(out.read_text("utf-8"))
        for stage in STAGES:
            outcome.record(f"stage {stage} ({mode})", result["codes"].get(stage) == 0,
                           result["errors"].get(stage, str(result["codes"].get(stage))))
        ok = all(result["codes"].get(stage) == 0 for stage in STAGES)
        result["digests"] = checks.digests(rep) if ok else None
        return result

    def check_first(first):
        plain, traced_ = first
        if plain and traced_ and plain["digests"] and traced_["digests"]:
            check_run(outcome, workdir / "traced0", args.seed,
                      pinned_digests(args.workload, args.seed)
                      + [("plain_vs_traced", plain["digests"])], env)

    reps = repeat_within(args.seconds, lambda i: (tracer_run(i, "plain"), tracer_run(i, "traced")),
                         check_first)
    if any(p is None or t is None for p, t in reps):
        return {}, len(reps), {}
    check_repeats(outcome, [p["digests"] for p, _ in reps])
    metrics = {name: [t["metrics"][name] for _, t in reps] for name in reps[0][1]["metrics"]}
    metrics["trace.overhead_frac"] = [t["pipeline_s"] / p["pipeline_s"] - 1 for p, t in reps]
    rule_calls = statistics.median(metrics["evidence.rule_calls"])
    outcome.record("evidence_rule_calls", rule_calls > 0, f"{rule_calls} rule calls")
    # The spans of the first traced repeat outlive the run's scratch directory.
    shutil.copyfile(workdir / "traced0" / "tracer.json", WORK / f"trace-{args.workload}.json")
    return metrics, len(reps), {}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(gen_corpus.WORKLOADS))
    p.add_argument("--seed", type=int, default=DEFAULT_SEED)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None):
    args = parse_args(argv)
    spec = json.loads(SPEC.read_text("utf-8"))
    units = {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]}
    if not (SRC / "tabverify" / "cli.py").is_file():
        print(f"error: no program to benchmark under {SRC}", file=sys.stderr)
        return 2
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED, PYTHONPATH=os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p))
    WORK.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK))
    outcome = Outcome()
    try:
        # Warms the bytecode cache and proves the program starts at all.
        _, _, code = run_process(cli_argv(["--help"]), env, workdir / "help.stdout",
                                 workdir / "help.stderr")
        if code != 0:
            detail = (workdir / "help.stderr").read_text(errors="replace")[-500:]
            print(f"error: `python -m tabverify.cli --help` failed (exit {code}: {detail}); "
                  "nothing to measure", file=sys.stderr)
            return 2
        xml_dir = workdir / "xml"
        tables = gen_corpus.write_corpus_dir(args.workload, args.seed, xml_dir)
        measure = traced if args.trace else untraced
        metrics, repeats, raw = measure(args, xml_dir, workdir, env, outcome)
    finally:
        shutil.rmtree(workdir)
    print(f"workload {args.workload}: seed {args.seed}, {tables} tables, {repeats} repeats; "
          "median [min .. max] over samples"
          + ("" if args.trace else "; times at the reference speed"))
    for name, samples in metrics.items():
        print(f"  {name:<36} {statistics.median(samples):12.6g} {units[name]:<6} "
              f"[{min(samples):.6g} .. {max(samples):.6g}] n={len(samples)}"
              + (f", raw median {raw[name]:.6g}" if name in raw else ""))
    failed = len(outcome.failures)
    print(f"  {'ops_failed_frac':<36} {failed / outcome.attempted:12.6g} ratio  "
          f"({failed} failed of {outcome.attempted} process runs and output checks)")
    for failure in outcome.failures:
        print(f"  FAILED {failure}")
    for note in outcome.notes:
        print(f"  NOTE {note}")
    print(json.dumps({
        "correct": not outcome.failures, "attempted": outcome.attempted, "failed": failed,
        "metrics": {name: {"value": statistics.median(samples), "unit": units[name]}
                    for name, samples in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
