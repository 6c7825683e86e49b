#!/usr/bin/env python3
"""Run the full pipeline on the bundled 5-table fixture corpus in a scratch
directory and print the resulting reports.

The stages and their options are those of ``benchmarks/pipeline.py``, so
the fixture pipeline is the one the benchmark runs.  The tests import
``run_pipeline`` from here, so the pipeline they check is the one this
script runs."""

import pathlib
import sys
import tempfile

from tabverify.cli import main

HERE = pathlib.Path(__file__).resolve().parent
CORPUS = HERE.parent / "tests" / "fixtures" / "corpus"
sys.path.insert(0, str(HERE.parent / "benchmarks"))

from pipeline import stage_argvs  # noqa: E402


def run_pipeline(corpus_dir, workdir):
    """Run every stage on the XML tables in ``corpus_dir``, writing into
    ``workdir``; returns ``workdir``.  A failing stage exits with its argv."""
    for _, argv in stage_argvs(corpus_dir, workdir):
        code = main(argv)
        if code:
            sys.exit(f"step failed ({code}): {' '.join(argv)}")
    return workdir


if __name__ == "__main__":
    work = pathlib.Path(tempfile.mkdtemp(prefix="tabverify-"))
    print(f"working in {work}")
    run_pipeline(CORPUS, work)
    print(f"report: {work / 'report.json'}")
