#!/usr/bin/env python3
"""Run the full pipeline on the bundled 5-table fixture corpus in a scratch
directory and print the resulting reports.

The tests import ``run_pipeline`` from here, so the pipeline they check is
the one this script runs."""

import pathlib
import sys
import tempfile

from tabverify.cli import main

HERE = pathlib.Path(__file__).resolve().parent
CORPUS = HERE.parent / "tests" / "fixtures" / "corpus"


def run(argv):
    code = main(argv)
    if code:
        sys.exit(f"step failed ({code}): {' '.join(argv)}")


def run_pipeline(corpus_dir, workdir):
    """Run every stage on the XML tables in ``corpus_dir``, writing into
    ``workdir``; returns ``workdir``.  A failing stage exits with its argv."""
    w = str(workdir)
    run(["parse", str(corpus_dir), f"{w}/corpus.jsonl"])
    run(["stats", f"{w}/corpus.jsonl", "--out", f"{w}/stats.json"])
    run(["augment", f"{w}/corpus.jsonl", f"{w}/augmented.jsonl", "--seed", "7"])
    run(["snapshot", f"{w}/corpus.jsonl", f"{w}/snapshots.jsonl"])
    run(["baseline", f"{w}/corpus.jsonl", f"{w}/snapshots.jsonl", f"{w}/scores.jsonl"])
    run(["ensemble-train", f"{w}/scores.jsonl", "--corpus", f"{w}/corpus.jsonl",
         "--out", f"{w}/layer.json"])
    run(["predict", f"{w}/scores.jsonl", "--layer", f"{w}/layer.json",
         "--out", f"{w}/preds.jsonl"])
    run(["evidence", f"{w}/corpus.jsonl", f"{w}/preds.jsonl", f"{w}/evidence.jsonl"])
    run(["score", "--corpus", f"{w}/corpus.jsonl", "--preds", f"{w}/preds.jsonl",
         "--evidence", f"{w}/evidence.jsonl", "--out", f"{w}/report.json"])
    return workdir


if __name__ == "__main__":
    work = pathlib.Path(tempfile.mkdtemp(prefix="tabverify-"))
    print(f"working in {work}")
    run_pipeline(CORPUS, work)
    print(f"report: {work / 'report.json'}")
