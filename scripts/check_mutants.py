#!/usr/bin/env python3
"""Mutation check of the tier-1 tests: apply each mutant below to a fresh
copy of the repository, run the tier-1 tests there with ``-x``, and report
the mutants that no test kills.  Exits 1 when a survivor has no recorded
reason, or when a mutant's text no longer occurs exactly once in its file.

    python3 scripts/check_mutants.py

A mutant costs one run of the suite at most: about 20 s on 2 cores, and
about 13 min for the whole list.
"""

import os
import pathlib
import shutil
import subprocess
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent

# (file, text, replacement, why a survivor is accepted or None).  Each one
# changes a rule the paper or the README states, unless its reason says
# it is equivalent.
MUTANTS = [
    ("src/tabverify/augment.py", "leak <= config.guard_threshold",
     "leak < config.guard_threshold", None),
    ("src/tabverify/augment.py", "MAX_REDRAWS = 10", "MAX_REDRAWS = 9", None),
    ("src/tabverify/augment.py", "math.floor(s * config.unknown_ratio)",
     "math.ceil(s * config.unknown_ratio)", None),
    ("src/tabverify/textnorm.py",
     "tokens = [t for tok in tokens for t in abbrevs.get(tok, (tok,))]",
     "tokens = [u for tok in tokens for t in abbrevs.get(tok, (tok,))"
     " for u in abbrevs.get(t, (t,))]", None),
    ("src/tabverify/textnorm.py", "if abbrevs and not abbrevs.keys().isdisjoint(tokens):",
     "if abbrevs and abbrevs.keys().isdisjoint(tokens):", None),
    ("src/tabverify/textnorm.py", "zip(*[tokens[i:] for i in range(n)])",
     "zip(*[tokens[i:] for i in range(1)])", None),
    ("src/tabverify/augment.py", "tuple(dict.fromkeys(textnorm.normalize(st.text, abbrevs)))",
     "tuple(textnorm.normalize(st.text, abbrevs))", None),
    ("src/tabverify/snapshot.py", "counts[(len(counts) - 1) // 2]",
     "counts[len(counts) // 2]", None),
    ("src/tabverify/snapshot.py", "if len(body) <= r_rows:", "if len(body) < r_rows:",
     "equivalent: ranking a body of exactly r_rows rows keeps every row"),
    ("src/tabverify/snapshot.py", "for idx in body)", "for idx in reversed(body))",
     "equivalent: the sort key (-overlap, row) is unique, so input order is lost"),
    ("src/tabverify/snapshot.py", "(-textnorm.overlap_rate(", "(textnorm.overlap_rate(", None),
    ("src/tabverify/classify.py", "NEGATION_FACTOR = 2.0", "NEGATION_FACTOR = 1.0", None),
    ("src/tabverify/ensemble.py", "bias = bias - config.learning_rate * grad_b",
     "bias = bias", None),
    ("src/tabverify/ensemble.py", "e[:, 0] + e[:, 1] + e[:, 2]",
     "e[:, 0] + (e[:, 1] + e[:, 2])", None),
    ("src/tabverify/ensemble.py", "np.cumsum(delta.T, axis=1)[:, -1]",
     "delta.T.sum(axis=1)",
     "equivalent: the reduction follows memory order, delta's rows one by one, "
     "as cumsum does"),
    ("src/tabverify/ensemble.py", "np.cumsum(delta.T, axis=1)[:, -1]",
     "np.ascontiguousarray(delta.T).sum(axis=1)", None),
    ("src/tabverify/evidence.py", "if taska_label == Label.ENTAILED:", "if False:", None),
    # rule 1 over all rows, header rows included
    ("src/tabverify/evidence.py", "(1 << n_rows * n_cols) - (1 << body.start * n_cols)",
     "(1 << n_rows * n_cols) - 1", None),
    # rule 2 skipping column 0
    ("src/tabverify/evidence.py", 'fired["2"] |= label_rows * full_row',
     'fired["2"] |= label_rows * (full_row - 1)', None),
    # label rows taken from columns 0 and 1
    ("src/tabverify/evidence.py", "for r, c in cells if c == 0 and r in body",
     "for r, c in cells if c <= 1 and r in body", None),
    # the bit layout transposed: bit col * n_cols + row, column-major on a square grid
    ("src/tabverify/evidence.py", "{1 << r * n_cols + c for r, c in cells}",
     "{1 << c * n_cols + r for r, c in cells}", None),
    # rule 3 never fires; its cells are inside rules 1 and 2, so only the trace shows it
    ("src/tabverify/evidence.py", 'fired["3"] |= label_rows * header_cols',
     'fired["3"] |= 0', None),
    # the targets' gold entries at 0.5, not 1.0
    ("src/tabverify/ensemble.py", "probs.ravel()[gold_flat] -= 1.0",
     "probs.ravel()[gold_flat] -= 0.5", None),
    # a record of a table outside the corpus decoded as well as checked
    ("src/tabverify/cli.py", "return evidence.rle_check(runs, *shape)",
     "return evidence.rle_decode(runs, *shape)", None),
    ("src/tabverify/ensemble.py", "    return winners[0]", "    return winners[-1]", None),
    ("src/tabverify/scoring.py", "key=lambda prf: prf[2])", "key=lambda prf: prf[0])", None),
    ("src/tabverify/scoring.py", "if g in two_way]", "]", None),
    ("src/tabverify/scoring.py", "sum(stmt_scores) / len(stmt_scores)", "max(stmt_scores)", None),
    ("src/tabverify/corpus.py", "doc.table_id, doc.n_rows, doc.n_cols, doc.statements)",
     "doc.table_id, doc.n_rows, doc.n_cols + 1, doc.statements)", None),
    ("src/tabverify/corpus.py", "ValueError, RecursionError)", "ValueError)", None),
    ("src/tabverify/corpus.py", '    "".join(map("".join, grid))  # a TypeError unless',
     "    # a TypeError unless", None),
    ("src/tabverify/augment.py", '" ".join([*map(" ".join, doc.grid), doc.caption])',
     '"".join([*map(" ".join, doc.grid), doc.caption])', None),
    ("src/tabverify/corpus.py", "if len(tables) != 1:", "if len(tables) < 1:", None),
    ("src/tabverify/textnorm.py", "if not _TOKEN_RE.fullmatch(key):", "if key != key.lower():",
     None),
    ("src/tabverify/cli.py", "if not isinstance(logging.getLevelName(level), int):", "if False:",
     None),
    ("src/tabverify/ensemble.py", "epochs: int = 200", "epochs: int = 199", None),
    ("src/tabverify/corpus.py", "exc.filename in (None, tmp)", "True", None),
    ("src/tabverify/cli.py", "textnorm.TableView(doc, abbrevs)", "textnorm.TableView(doc)", None),
    ("src/tabverify/corpus.py", "keep(from_interchange(obj))", "from_interchange(obj)", None),
    ("src/tabverify/textnorm.py", "if key in table:", "if False:", None),
    ("src/tabverify/cli.py", '(os.environ.get("TABFACT_KIT_LOG") or "WARNING")',
     'os.environ.get("TABFACT_KIT_LOG", "WARNING")', None),
    ("src/tabverify/corpus.py",
     'where = self.path if self.line is None else f"{self.path}:{self.line}"',
     "where = self.path", None),
    ("src/tabverify/corpus.py", "issubclass(kind, self.errors)", "issubclass(kind, Exception)",
     None),
    ("src/tabverify/corpus.py", '[len(" ".join(row).split()) for row in doc.grid]',
     "[len(row) for row in doc.grid]", None),
]


def run_mutant(path, text, replacement):
    """True when the tier-1 tests fail on a copy of the repository with
    ``text`` in ``path`` replaced by ``replacement``."""
    with tempfile.TemporaryDirectory(prefix="tabverify-mutant-") as tmp:
        copy = pathlib.Path(tmp) / "repo"
        shutil.copytree(ROOT, copy, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_work"))
        target = copy / path
        target.write_text(target.read_text("utf-8").replace(text, replacement), "utf-8")
        proc = subprocess.run(
            [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
             # The mutated text no longer occurs in the copy, so this test
             # would fail under every mutant and kill each one.
             "--ignore=tests/test_check_mutants.py"],
            cwd=copy, env={**os.environ, "PYTHONPATH": str(copy / "src")},
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL, timeout=900)
        return proc.returncode != 0


def stale(mutants):
    """``(path, text, count)`` for each mutant whose text does not occur
    exactly once in its file."""
    counts = [(path, text, (ROOT / path).read_text("utf-8").count(text))
              for path, text, _, _ in mutants]
    return [entry for entry in counts if entry[2] != 1]


def main():
    skipped = stale(MUTANTS)
    for path, text, count in skipped:
        print(f"STALE    {path}: {text!r} occurs {count} times", flush=True)
    unexplained = len(skipped)
    skipped = {(path, text) for path, text, _ in skipped}
    for path, text, replacement, reason in MUTANTS:
        if (path, text) in skipped:
            continue
        if run_mutant(path, text, replacement):
            print(f"killed   {path}: {text!r} -> {replacement!r}", flush=True)
        elif reason:
            print(f"survived {path}: {text!r} -> {replacement!r} ({reason})", flush=True)
        else:
            print(f"SURVIVED {path}: {text!r} -> {replacement!r}", flush=True)
            unexplained += 1
    print(f"{len(MUTANTS)} mutants, {unexplained} without a kill or a recorded reason")
    return 1 if unexplained else 0


if __name__ == "__main__":
    sys.exit(main())
