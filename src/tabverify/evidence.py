"""Evidence-cell rule engine: given a statement, a table's ``TableView`` and
the statement's verdict, mark each cell relevant or irrelevant.

An Entailed verdict short-circuits to all-relevant.  Otherwise four rules
fire off the statement's normalized word bag, matched by exact token
equality against normalized cell tokens (a bag word matching any token of a
multi-token cell counts):

  rule 1: word in a header-row cell of column c -> all body cells of c
  rule 2: word in a first-column body cell of row r -> all cells of r
  rule 3: same word in a header cell of column c AND the first-column cell
          of body row r -> cell (r, c)
  rule 4: word in any cell -> that cell

Relevance is the union of all firings.  Unknown statements are outside
Task B and rejected.
"""

from __future__ import annotations

from . import textnorm
from .corpus import Label

ALL_ENTAILED = "all-entailed"


class TaskBExclusionError(ValueError):
    pass


def find_evidence(statement, view, taska_label):
    """Apply the rule engine to the table of ``view`` (a
    ``textnorm.TableView``); returns ``(verdicts, trace)``, two grid-shaped
    tuples of rows: a bool per cell, and per cell the sorted ids of the rules
    that fired there.
    """
    if taska_label == Label.UNKNOWN:
        raise TaskBExclusionError("Task B excludes unknown statements")
    n_rows, n_cols = view.n_rows, view.n_cols
    if taska_label == Label.ENTAILED:
        verdicts = tuple(tuple(True for _ in range(n_cols)) for _ in range(n_rows))
        trace = tuple(tuple((ALL_ENTAILED,) for _ in range(n_cols)) for _ in range(n_rows))
        return verdicts, trace

    bag = set(textnorm.normalize(statement.text, view.abbrevs))
    header_rows = min(view.header_rows, n_rows)
    body = range(header_rows, n_rows)
    fired = [[set() for _ in range(n_cols)] for _ in range(n_rows)]

    for word in bag:
        # Only the cells holding the word can fire; a word no cell holds
        # fires nothing.
        cells = view.cell_index.get(word, ())
        header_cols = {c for r, c in cells if r < header_rows}
        label_rows = {r for r, c in cells if c == 0 and r >= header_rows}
        for c in header_cols:
            for r in body:
                fired[r][c].add("1")
        for r in label_rows:
            for c in range(n_cols):
                fired[r][c].add("2")
        for r in label_rows:
            for c in header_cols:
                fired[r][c].add("3")
        for r, c in cells:
            fired[r][c].add("4")

    verdicts = tuple(tuple(bool(fired[r][c]) for c in range(n_cols))
                     for r in range(n_rows))
    trace = tuple(tuple(tuple(sorted(fired[r][c])) for c in range(n_cols))
                  for r in range(n_rows))
    return verdicts, trace


def rle_encode(verdicts):
    """Row-major run-length encoding; runs alternate starting with False."""
    flat = [v for row in verdicts for v in row]
    runs = []
    current = False
    count = 0
    for v in flat:
        if v == current:
            count += 1
        else:
            runs.append(count)
            current = v
            count = 1
    runs.append(count)
    return runs


def rle_decode(runs, n_rows, n_cols):
    # Check the runs before expanding them, so a huge run allocates nothing.
    for count in runs:
        if count < 0:
            raise ValueError(f"negative run length {count}")
    if sum(runs) != n_rows * n_cols:
        raise ValueError(f"run lengths sum to {sum(runs)}, expected {n_rows * n_cols}")
    flat = []
    current = False
    for count in runs:
        flat.extend([current] * count)
        current = not current
    return tuple(tuple(flat[r * n_cols:(r + 1) * n_cols]) for r in range(n_rows))
