"""Output checks for one pipeline run, and the brute-force oracle they use.

Each check returns ``(name, ok, detail)``.  The oracle re-derives, for a
seeded sample of statements, the top-K snapshot rows, the four evidence
rules with the all-entailed shortcut, and per-table-then-corpus Task A F1
from the raw files.  It reads every file itself and borrows only
``textnorm.normalize`` from the program, which the pinned digests cover.

    python3 benchmarks/checks.py WORK_DIR SEED AUGMENT_RATIO

runs every check on one finished pipeline directory and prints the results
as one JSON list (``src`` must be on PYTHONPATH).  ``run.py`` runs it that
way, in a child process, so that its own memory stays below the peak RSS of
the stages it measures.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
import sys
from pathlib import Path

ORACLE_SAMPLE = 300
NGRAMS = (1, 2)
OUTPUTS = ("corpus.jsonl", "stats.json", "augmented.jsonl", "snapshots.jsonl",
           "scores.jsonl", "layer.json", "preds.jsonl", "evidence.jsonl",
           "report.json")


def read_jsonl(path):
    with open(path, encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def digests(workdir):
    """sha256 of every pipeline output (manifests carry timestamps: skipped)."""
    digests = {}
    for name in OUTPUTS:
        with open(Path(workdir) / name, "rb") as fh:
            digests[name] = hashlib.file_digest(fh, "sha256").hexdigest()
    return digests


def rle_decode(runs, n_rows, n_cols):
    flat = []
    value = False
    for count in runs:
        flat.extend([value] * count)
        value = not value
    return [flat[r * n_cols:(r + 1) * n_cols] for r in range(n_rows)]


def statement_keys(tables):
    return [(t["table_id"], s["stmt_id"]) for t in tables for s in t["statements"]]


def oracle_sample(keys, seed):
    """The statements the oracle checks: a seeded sample, in key order."""
    keys = sorted(keys)
    return sorted(random.Random(seed).sample(keys, min(ORACLE_SAMPLE, len(keys))))


def _by_key(records):
    return {(r["table_id"], r["stmt_id"]): r for r in records}


def _one_per_statement(name, records, keys):
    got = [(r["table_id"], r["stmt_id"]) for r in records]
    ok = len(got) == len(set(got)) and set(got) == set(keys)
    return name, ok, f"{len(got)} records, {len(set(got))} distinct, {len(keys)} statements"


def check_counts(workdir, tables):
    keys = statement_keys(tables)
    w = Path(workdir)
    return [
        _one_per_statement("snapshot_records", read_jsonl(w / "snapshots.jsonl"), keys),
        _one_per_statement("score_records", read_jsonl(w / "scores.jsonl"), keys),
        _one_per_statement("prediction_records", read_jsonl(w / "preds.jsonl"), keys),
        _one_per_statement("evidence_records", read_jsonl(w / "evidence.jsonl"), keys),
    ]


def check_augment(workdir, tables, ratio):
    """Each table gains floor(s * ratio) unknown statements, less any
    shortfall the augment manifest warned about."""
    w = Path(workdir)
    warned = {x["table_id"]: x["requested"] - x["appended"] for x in json.loads(
        (w / "augmented.jsonl.manifest.json").read_text("utf-8"))["options"]["warnings"]}
    augmented = {t["table_id"]: t for t in read_jsonl(w / "augmented.jsonl")}
    bad = []
    for t in tables:
        s = len(t["statements"])
        want = math.floor(s * ratio) - warned.get(t["table_id"], 0)
        out = augmented.get(t["table_id"])
        added = out["statements"][s:] if out else []
        if (out is None or out["statements"][:s] != t["statements"] or len(added) != want
                or any(a["label"] != "unknown" for a in added)):
            bad.append(t["table_id"])
    ok = not bad and len(augmented) == len(tables)
    return "augment_quota", ok, f"{len(bad)} tables off quota {bad[:3]}"


def _grams(tokens):
    return {tuple(tokens[i:i + n]) for n in NGRAMS for i in range(len(tokens) - n + 1)}


def _overlap(stmt_grams, row_grams):
    return len(stmt_grams & row_grams) / len(stmt_grams) if stmt_grams else 0.0


def median_body_rows(tables):
    counts = sorted(len(t["grid"]) - min(t["header_rows"], len(t["grid"])) for t in tables)
    return counts[(len(counts) - 1) // 2]


def oracle_snapshot(table, text, k, normalize):
    """Top-k body rows by n-gram overlap, ties to the lower row; whole body
    when it has at most k rows.  Returns (rows, k)."""
    grid = table["grid"]
    body = list(range(min(table["header_rows"], len(grid)), len(grid)))
    if len(body) <= k:
        return body, len(body)
    stmt = _grams(normalize(text))
    ranked = sorted(body, key=lambda r: (-_overlap(stmt, _grams(normalize(" ".join(grid[r])))), r))
    return sorted(ranked[:k]), k


def oracle_evidence(table, text, label, normalize):
    """Grid of verdicts from the four rules; entailed is all-relevant and
    unknown all-irrelevant."""
    grid = table["grid"]
    n_rows = len(grid)
    n_cols = len(grid[0]) if grid else 0
    if label != "refuted":
        return [[label == "entailed"] * n_cols for _ in range(n_rows)]
    bag = set(normalize(text))
    tokens = [[set(normalize(cell)) for cell in row] for row in grid]
    h = min(table["header_rows"], n_rows)
    out = []
    for r in range(n_rows):
        row = []
        for c in range(n_cols):
            rule4 = bool(bag & tokens[r][c])
            rule1 = r >= h and any(bag & tokens[hr][c] for hr in range(h))
            rule2 = r >= h and bool(bag & tokens[r][0])  # rule 3 is inside rule 2
            row.append(rule1 or rule2 or rule4)
        out.append(row)
    return out


def _prf1(tp, fp, fn):
    if tp == fp == fn == 0:
        return 1.0
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    return 2 * p * r / (p + r) if p + r else 0.0


def _table_f1(pairs, classes):
    present = [c for c in classes if any(c in pair for pair in pairs)]
    if not present:
        return 1.0
    return sum(_prf1(sum(g == c and p == c for g, p in pairs),
                     sum(g != c and p == c for g, p in pairs),
                     sum(g == c and p != c for g, p in pairs)) for c in present) / len(present)


def oracle_task_a(tables, labels):
    """(3-way, 2-way) macro F1: per table over the classes present, then the
    mean over tables.  2-way drops gold unknown; an unknown prediction is
    then a miss for the gold class."""
    three, two = [], []
    for t in tables:
        pairs = [(s["label"], labels[(t["table_id"], s["stmt_id"])])
                 for s in t["statements"] if s["label"]]
        if pairs:
            three.append(_table_f1(pairs, ("entailed", "refuted", "unknown")))
        kept = [(g, p) for g, p in pairs if g != "unknown"]
        if kept:
            two.append(_table_f1(kept, ("entailed", "refuted")))
    mean = lambda xs: sum(xs) / len(xs) if xs else 0.0  # noqa: E731
    return mean(three), mean(two)


def check_oracle(workdir, tables, seed, normalize):
    w = Path(workdir)
    by_table = {t["table_id"]: t for t in tables}
    texts = {(t["table_id"], s["stmt_id"]): s["text"] for t in tables for s in t["statements"]}
    snaps = _by_key(read_jsonl(w / "snapshots.jsonl"))
    labels = {k: r["label"] for k, r in _by_key(read_jsonl(w / "preds.jsonl")).items()}
    maps = _by_key(read_jsonl(w / "evidence.jsonl"))
    k = max(1, median_body_rows(tables))
    bad_snap, bad_ev = [], []
    sample = oracle_sample(texts, seed)
    for key in sample:
        table = by_table[key[0]]
        rows, kk = oracle_snapshot(table, texts[key], k, normalize)
        snap = snaps.get(key)
        if snap is None or snap["rows"] != rows or snap["k"] != kk:
            bad_snap.append(key)
        rec = maps.get(key)
        want = oracle_evidence(table, texts[key], labels.get(key), normalize)
        if rec is None or rle_decode(rec["relevant_rle"], rec["n_rows"], rec["n_cols"]) != want:
            bad_ev.append(key)
    report = json.loads((w / "report.json").read_text("utf-8"))["task_a"]
    results = [
        ("oracle_snapshot", not bad_snap,
         f"{len(bad_snap)} of {len(sample)} differ {bad_snap[:3]}"),
        ("oracle_evidence", not bad_ev, f"{len(bad_ev)} of {len(sample)} differ {bad_ev[:3]}"),
    ]
    try:
        f3, f2 = oracle_task_a(tables, labels)
        ok = (abs(f3 - report["overall_3way"]) < 1e-9
              and abs(f2 - report["overall_2way"]) < 1e-9)
        detail = (f"oracle {f3:.6f}/{f2:.6f} "
                  f"report {report['overall_3way']:.6f}/{report['overall_2way']:.6f}")
    except KeyError as exc:
        ok, detail = False, f"no prediction for {exc}"
    results.append(("oracle_task_a_f1", ok, detail))
    return results


def check_signal(workdir):
    """The rule engine ran (refuted predictions exist) and every label was
    predicted, so no layer is idle on the planted corpus."""
    labels = [r["label"] for r in read_jsonl(Path(workdir) / "preds.jsonl")]
    counts = {x: labels.count(x) for x in ("entailed", "refuted", "unknown")}
    return "all_labels_predicted", all(counts.values()), str(counts)


def check_outputs(workdir, seed, normalize, ratio):
    """Every check on one finished pipeline directory."""
    tables = read_jsonl(Path(workdir) / "corpus.jsonl")
    return (check_counts(workdir, tables) + [check_augment(workdir, tables, ratio)]
            + check_oracle(workdir, tables, seed, normalize) + [check_signal(workdir)])


if __name__ == "__main__":
    from tabverify.textnorm import default_abbrevs, normalize

    abbrevs = default_abbrevs()
    workdir, seed, ratio = sys.argv[1], int(sys.argv[2]), float(sys.argv[3])
    print(json.dumps(check_outputs(workdir, seed, lambda text: normalize(text, abbrevs),
                                   ratio)))
