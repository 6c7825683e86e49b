"""The pipeline the benchmark runs: the README's subcommands, in order, with
their default options (``--jobs`` stays 1)."""

from __future__ import annotations

STAGES = ("parse", "stats", "augment", "snapshot", "baseline", "ensemble-train",
          "predict", "evidence", "score")
AUGMENT_SEED = 7
AUGMENT_RATIO = 0.5


def stage_argvs(xml_dir, workdir):
    """(stage, argv for ``tabverify.cli``) for one run writing into workdir."""
    w = str(workdir)
    corpus = f"{w}/corpus.jsonl"
    return [
        ("parse", ["parse", str(xml_dir), corpus]),
        ("stats", ["stats", corpus, "--out", f"{w}/stats.json"]),
        ("augment", ["augment", corpus, f"{w}/augmented.jsonl",
                     "--seed", str(AUGMENT_SEED), "--ratio", str(AUGMENT_RATIO)]),
        ("snapshot", ["snapshot", corpus, f"{w}/snapshots.jsonl"]),
        ("baseline", ["baseline", corpus, f"{w}/snapshots.jsonl", f"{w}/scores.jsonl"]),
        ("ensemble-train", ["ensemble-train", f"{w}/scores.jsonl", "--corpus", corpus,
                            "--out", f"{w}/layer.json"]),
        ("predict", ["predict", f"{w}/scores.jsonl", "--layer", f"{w}/layer.json",
                     "--out", f"{w}/preds.jsonl"]),
        ("evidence", ["evidence", corpus, f"{w}/preds.jsonl", f"{w}/evidence.jsonl"]),
        ("score", ["score", "--corpus", corpus, "--preds", f"{w}/preds.jsonl",
                   "--evidence", f"{w}/evidence.jsonl", "--out", f"{w}/report.json"]),
    ]
