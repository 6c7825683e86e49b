#!/usr/bin/env python3
"""Run the benchmark pipeline on the ``typical`` corpus scaled to N tables
and write ``BENCH_<N>.json`` in the current directory for each N.

    python3 scripts/scale.py --tables 5000,17000 --seed 1

The corpus comes from ``benchmarks/gen_corpus.py``: the ``typical``
workload's shape with N tables.  Each stage of ``benchmarks/pipeline.py``
runs as its own ``python -m tabverify.cli`` process on this checkout's
``src/``, with ``PYTHONHASHSEED=0``, in a temporary directory.  The file
holds each stage's wall time and peak RSS (``ru_maxrss`` from
``os.wait4``), the pipeline's (the stages' summed wall time and their
largest peak), the sha256 of every output, the ``src/`` line count and the
Python version.  ``setup`` holds the same two figures for one
``python -m tabverify.cli --help`` process, run before the stages: the fixed
cost of starting and ending a process.  ``dont_write_bytecode`` says whether
the stages ran with the bytecode cache off (``PYTHONDONTWRITEBYTECODE``), in
which case each one compiles ``src/tabverify`` again.

After the timed stages, a counting pass runs each stage once more in its own
process, under cProfile, and ``counts`` holds for each stage the calls it
made (``total_calls``, Python and builtin, within ``cli.main``) and the
collections per generation its process made (``gc.get_stats()`` as
``main`` returns).  Unlike the wall times, these repeat exactly from run to
run, so one run per side shows a change in work.

A child's ``ru_maxrss`` starts at this process's own peak, since exec
keeps the high-water mark of the memory it replaces.  So this process
hashes outputs in chunks and records its own peak, and ``flagged`` lists
every stage whose figure is at or below it: that figure may not be the
stage's own.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCHMARKS = ROOT / "benchmarks"
sys.path.insert(0, str(BENCHMARKS))

from pipeline import stage_argvs  # noqa: E402

WORKLOAD = "typical"
HASH_SEED = "0"
# Run in a child from benchmarks/: importing gen_corpus would add about
# 9 MB to this process's peak, and so to every stage's figure.
GENERATE = """
import dataclasses, sys
import gen_corpus
workload, tables, seed, out_dir = sys.argv[1], int(sys.argv[2]), int(sys.argv[3]), sys.argv[4]
shape = gen_corpus.WORKLOADS[workload]
gen_corpus.WORKLOADS[workload] = dataclasses.replace(shape, tables=tables)
gen_corpus.write_corpus_dir(workload, seed, out_dir)
"""
# One stage under cProfile: argv[1] is the file for its counts, the rest the
# stage's argv.  The calls are summed over the profiler's own entries:
# pstats keys them by file, line and name, so it would keep one of the
# functions that share all three (every dataclass's generated __init__),
# whichever comes last in an order that varies from run to run.
COUNT = """
import cProfile, gc, sys
from tabverify import cli
profile = cProfile.Profile()
code = profile.runcall(cli.main, sys.argv[2:])
collections = [generation["collections"] for generation in gc.get_stats()]
import json
with open(sys.argv[1], "w") as fh:
    json.dump({"total_calls": sum(entry.callcount for entry in profile.getstats()),
               "collections": collections}, fh)
sys.exit(code)
"""


def _table_counts(spec):
    try:
        counts = [int(n) for n in spec.split(",")]
    except ValueError:
        counts = []
    if not counts or min(counts) < 2:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated table counts >= 2, got {spec!r}")
    return counts


def run_stage(argv, env, workdir):
    """Run one stage to completion: (wall s, peak RSS MB, exit code)."""
    with open(workdir / "stage.stderr", "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen([sys.executable, "-m", "tabverify.cli", *argv],
                                stdout=subprocess.DEVNULL, stderr=err, env=env, cwd=ROOT)
        _, status, usage = os.wait4(proc.pid, 0)
        wall = time.perf_counter() - start
    return wall, usage.ru_maxrss / 1024, os.waitstatus_to_exitcode(status)


def count_stage(argv, env, workdir):
    """Run one stage again under cProfile: (its counts, exit code)."""
    out = workdir / "counts.json"
    with open(workdir / "stage.stderr", "wb") as err:
        code = subprocess.run([sys.executable, "-c", COUNT, str(out), *argv],
                              stdout=subprocess.DEVNULL, stderr=err, env=env,
                              cwd=ROOT).returncode
    return (None if code else json.loads(out.read_text("utf-8"))), code


def _failed(stage, code, workdir):
    err = (workdir / "stage.stderr").read_text("utf-8", "replace")
    return RuntimeError(f"stage {stage} exited {code}:\n{err}")


def bench(tables, seed):
    """The BENCH record of one scaled run; raises RuntimeError when a stage fails."""
    env = dict(os.environ, PYTHONHASHSEED=HASH_SEED,
               PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    with tempfile.TemporaryDirectory(prefix="tabverify-scale-") as tmp:
        workdir = Path(tmp)
        subprocess.run([sys.executable, "-c", GENERATE, WORKLOAD, str(tables), str(seed),
                        str(workdir / "xml")], cwd=BENCHMARKS, check=True)
        argvs = stage_argvs(workdir / "xml", workdir)
        stages = {}
        for stage, argv in [("setup", ["--help"]), *argvs]:
            wall, peak, code = run_stage(argv, env, workdir)
            if code:
                raise _failed(stage, code, workdir)
            stages[stage] = {"wall_s": wall, "peak_rss_mb": peak}
        setup = stages.pop("setup")
        import checks  # hashlib adds about 4 MB to the peak: only after the last stage
        outputs = checks.digests(workdir)
        counts = {}
        for stage, argv in argvs:
            counts[stage], code = count_stage(argv, env, workdir)
            if code:
                raise _failed(f"{stage} (counting pass)", code, workdir)
    own_peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return {
        "workload": WORKLOAD, "tables": tables, "seed": seed,
        "setup": setup,
        "stages": stages,
        "counts": counts,
        "pipeline": {"wall_s": sum(s["wall_s"] for s in stages.values()),
                     "peak_rss_mb": max(s["peak_rss_mb"] for s in stages.values())},
        "outputs_sha256": outputs,
        "own_peak_rss_mb": own_peak,
        "flagged": [stage for stage, s in stages.items() if s["peak_rss_mb"] <= own_peak],
        "src_lines": sum(len(path.read_text("utf-8").splitlines())
                         for path in SRC.rglob("*.py")),
        "python": platform.python_version(),
        "dont_write_bytecode": bool(env.get("PYTHONDONTWRITEBYTECODE")),
        "cpu_count": os.cpu_count(),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--tables", type=_table_counts, default=[5000, 17000])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    for tables in args.tables:
        try:
            record = bench(tables, args.seed)
        except RuntimeError as exc:
            print(f"error: {tables} tables: {exc}", file=sys.stderr)
            return 1
        out = Path(f"BENCH_{tables}.json")
        out.write_text(json.dumps(record, indent=2) + "\n", "utf-8")
        print(f"{out}: pipeline {record['pipeline']['wall_s']:.1f} s, "
              f"peak {record['pipeline']['peak_rss_mb']:.1f} MB"
              + (f"; flagged {', '.join(record['flagged'])}" if record["flagged"] else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
