"""Seeded synthetic corpora for the benchmark, written in the XML input format.

Every workload fixes the multiset of table shapes, statement counts and gold
labels, so the total work barely moves between seeds; the seed permutes that
multiset and draws every word.  Each statement carries a planted lexical
signal the pipeline can find:

- entailed: a run of tokens borrowed from one body row, padded with filler;
- refuted: the same, plus one negation cue;
- unknown: vocabulary words that appear nowhere in the table.

The gold evidence of an entailed or refuted statement is every cell of the
borrowed row.  The generator does not import the program under test.

Run ``python3 benchmarks/gen_corpus.py typical 1 out_dir`` to write one
corpus by hand.
"""

from __future__ import annotations

import random
import re
import sys
from dataclasses import dataclass
from pathlib import Path
from xml.sax.saxutils import quoteattr

LABELS = ("entailed", "refuted", "unknown")
NEGATION_CUES = ("not", "never", "fewer", "less")
# Plain English glue words: none is a negation cue, an abbreviation key of
# the shipped table, or a word the syllable generator below can produce.
FILLER = ("the", "of", "in", "for", "with", "than", "and", "was", "at",
          "reported", "across", "higher", "between", "shows", "where")
CONSONANTS = "bdfgklmprstvz"
VOWELS = "aeiou"
# Suffixes give the stemmer real work; each base gets at most one.
SUFFIXES = ("", "", "", "", "s", "ed", "ing", "ly", "ness", "ation")
# The same in every workload: words per statement and per text cell
# (inclusive ranges) and the share of cells that hold a number.
STMT_WORDS = (6, 20)
CELL_WORDS = (1, 3)
NUMERIC_CELLS = 0.25
_TOKEN_RE = re.compile(r"[a-z0-9]+")


@dataclass(frozen=True)
class Workload:
    tables: int
    rows: tuple  # inclusive range, header row included
    cols: tuple
    stmts: tuple
    vocab: int


WORKLOADS = {
    # The reference mix: snapshot, baseline and evidence do comparable work.
    "typical": Workload(tables=200, rows=(4, 25), cols=(3, 8), stmts=(2, 8),
                        vocab=3000),
    # Many statements over small tables and a small vocabulary: the most
    # repeated text and tokens, the most augment draws and training examples.
    "dense-statements": Workload(tables=120, rows=(4, 8), cols=(3, 5),
                                 stmts=(16, 32), vocab=400),
    # Few statements over large tables and a large vocabulary: little reuse,
    # so decode, grid memory, ranking and evidence scans dominate.
    "wide-tables": Workload(tables=60, rows=(30, 80), cols=(6, 12), stmts=(1, 2),
                            vocab=20000),
}


def _spread(lo, hi, n, rng):
    """n values covering lo..hi evenly, in seeded order."""
    values = [lo + (i * (hi - lo + 1)) // n for i in range(n)]
    rng.shuffle(values)
    return values


def _vocabulary(size, rng):
    bases = set()
    while len(bases) < size:
        syllables = rng.randint(2, 4)
        bases.add("".join(rng.choice(CONSONANTS) + rng.choice(VOWELS)
                          for _ in range(syllables)))
    return [base + rng.choice(SUFFIXES) for base in sorted(bases)]


def _cell(rng, vocab):
    if rng.random() < NUMERIC_CELLS:
        return str(rng.randint(0, 999)) if rng.random() < 0.5 else \
            f"{rng.randint(0, 99)}.{rng.randint(0, 9)}"
    return " ".join(rng.choice(vocab) for _ in range(rng.randint(*CELL_WORDS)))


def _tokens(text):
    return _TOKEN_RE.findall(text.lower())


def _statement(rng, label, grid, header_rows, vocab, table_tokens):
    """Return (text, gold evidence cells or None)."""
    length = rng.randint(*STMT_WORDS)
    if label == "unknown":
        words = []
        while len(words) < length:
            word = rng.choice(vocab) if rng.random() < 0.7 else rng.choice(FILLER)
            if word not in table_tokens:
                words.append(word)
        return " ".join(words), None
    row = rng.randrange(header_rows, len(grid))
    row_tokens = [tok for cell in grid[row] for tok in _tokens(cell)]
    borrow = min(len(row_tokens), max(2, round(length * rng.uniform(0.5, 1.0))))
    start = rng.randrange(len(row_tokens) - borrow + 1)
    words = row_tokens[start:start + borrow]
    while len(words) < length:
        words.insert(rng.randrange(len(words) + 1), rng.choice(FILLER))
    if label == "refuted":
        words.insert(rng.randrange(len(words) + 1), rng.choice(NEGATION_CUES))
    evidence = [(row, c) for c in range(len(grid[row]))]
    return " ".join(words), evidence


def _table_xml(table_id, caption, legend, grid, header_rows, statements):
    out = [f'<document id="d{table_id[1:]}">\n',
           f'  <table id="{table_id}" header_rows="{header_rows}">\n',
           f"    <caption text={quoteattr(caption)}/>\n",
           f"    <legend text={quoteattr(legend)}/>\n"]
    for row in grid:
        cells = "".join(f"<cell text={quoteattr(text)}/>" for text in row)
        out.append(f"    <row>{cells}</row>\n")
    out.append("    <statements>\n")
    for stmt_id, text, label, evidence in statements:
        out.append(f'      <statement id="{stmt_id}" text={quoteattr(text)} '
                   f'type="{label}"')
        if evidence is None:
            out.append("/>\n")
            continue
        cells = "".join(f'<cell row="{r}" col="{c}"/>' for r, c in evidence)
        out.append(f"><evidence>{cells}</evidence></statement>\n")
    out.append("    </statements>\n  </table>\n</document>\n")
    return "".join(out)


def generate(workload, seed):
    """Yield (file name, XML text) for every table of one seeded corpus."""
    spec = WORKLOADS[workload]
    rng = random.Random(f"{workload}:{seed}")
    vocab = _vocabulary(spec.vocab, rng)
    n = spec.tables
    rows = _spread(*spec.rows, n, rng)
    cols = _spread(*spec.cols, n, rng)
    stmts = _spread(*spec.stmts, n, rng)
    labels = [LABELS[i % 3] for i in range(sum(stmts))]
    rng.shuffle(labels)
    for t in range(n):
        table_id = f"t{t + 1:05d}"
        header_rows = 1
        grid = [[_cell(rng, vocab) for _ in range(cols[t])]
                for _ in range(rows[t])]
        caption = " ".join(rng.choice(vocab) for _ in range(rng.randint(2, 6)))
        legend = " ".join(rng.choice(vocab) for _ in range(rng.randint(0, 8)))
        table_tokens = {tok for row in grid for cell in row for tok in _tokens(cell)}
        statements = []
        for s in range(stmts[t]):
            label = labels.pop()
            text, evidence = _statement(rng, label, grid, header_rows, vocab,
                                        table_tokens)
            statements.append((f"s{s + 1}", text, label, evidence))
        yield f"{table_id}.xml", _table_xml(table_id, caption, legend, grid,
                                            header_rows, statements)


def write_corpus_dir(workload, seed, out_dir):
    """Write one XML file per table into out_dir; returns the table count."""
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    count = 0
    for name, text in generate(workload, seed):
        (out_dir / name).write_text(text, "utf-8")
        count += 1
    return count


if __name__ == "__main__":
    if len(sys.argv) != 4 or sys.argv[1] not in WORKLOADS:
        sys.exit(f"usage: gen_corpus.py {{{','.join(WORKLOADS)}}} SEED OUT_DIR")
    print(write_corpus_dir(sys.argv[1], int(sys.argv[2]), sys.argv[3]))
