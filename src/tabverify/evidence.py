"""Evidence-cell rule engine: given a statement, a table's ``TableView`` and
the statement's verdict, find the relevant cells.  A prediction is a dict
``{(row, col): rule ids}`` holding the relevant cells only; ``rle_encode``
and ``rle_decode`` convert a cell set to and from the run-length form that
evidence files hold.

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

import itertools

from . import textnorm
from .corpus import Label

ALL_ENTAILED = "all-entailed"


class TaskBExclusionError(ValueError):
    pass


def find_evidence(statement, view, taska_label):
    """Apply the rule engine to the table of ``view`` (a
    ``textnorm.TableView``); returns a dict mapping each relevant
    ``(row, col)`` to the sorted tuple of ids of the rules that fired there.
    """
    if taska_label == Label.UNKNOWN:
        raise TaskBExclusionError("Task B excludes unknown statements")
    n_rows, n_cols = view.n_rows, view.n_cols
    if taska_label == Label.ENTAILED:
        return {(r, c): (ALL_ENTAILED,) for r in range(n_rows) for c in range(n_cols)}

    bag = set(textnorm.normalize(statement.text, view.abbrevs))
    header_rows = min(view.header_rows, n_rows)
    body = range(header_rows, n_rows)
    by_rule = {"1": set(), "2": set(), "3": set(), "4": set()}
    for word in bag:
        # Only the cells holding the word can fire; a word no cell holds
        # fires nothing.
        cells = view.cell_index.get(word, ())
        header_cols = {c for r, c in cells if r < header_rows}
        label_rows = {r for r, c in cells if c == 0 and r >= header_rows}
        by_rule["1"].update((r, c) for c in header_cols for r in body)
        by_rule["2"].update((r, c) for r in label_rows for c in range(n_cols))
        by_rule["3"].update((r, c) for r in label_rows for c in header_cols)
        by_rule["4"].update(cells)

    fired = {}
    for rule, cells in by_rule.items():  # in id order, so each tuple is sorted
        for cell in cells:
            fired[cell] = fired.get(cell, ()) + (rule,)
    return fired


def rle_encode(cells, n_rows=None, n_cols=None):
    """Row-major run-length encoding of the relevant ``cells`` (a set of
    ``(row, col)``, or a dict keyed by them) of an ``n_rows`` x ``n_cols``
    grid; runs alternate starting with an irrelevant run.  Without a shape,
    ``cells`` is a list of rows of booleans, the form the benchmark's
    self-tests still pass."""
    if n_rows is None:
        n_rows, n_cols = len(cells), len(cells[0]) if cells else 0
        cells = [(r, c) for r, row in enumerate(cells) for c, v in enumerate(row) if v]
    runs = []
    end = 0  # flat index just past the last run
    for i in sorted(r * n_cols + c for r, c in cells):
        if runs and i == end:
            runs[-1] += 1
        else:
            runs += [i - end, 1]
        end = i + 1
    if not runs or end < n_rows * n_cols:
        runs.append(n_rows * n_cols - end)
    return runs


def rle_check(runs, n_rows, n_cols):
    """Raise ValueError unless ``runs`` are non-negative run lengths that
    cover an ``n_rows`` x ``n_cols`` grid; expands nothing."""
    for count in runs:
        if count < 0:
            raise ValueError(f"negative run length {count}")
    if sum(runs) != n_rows * n_cols:
        raise ValueError(f"run lengths sum to {sum(runs)}, expected {n_rows * n_cols}")


def rle_decode(runs, n_rows, n_cols):
    """The frozenset of relevant ``(row, col)`` cells that ``runs`` encode."""
    rle_check(runs, n_rows, n_cols)  # before expanding, so a huge run allocates nothing
    bounds = list(itertools.accumulate(runs, initial=0))
    # the relevant runs are the odd ones: run k spans bounds[k]..bounds[k + 1]
    return frozenset(divmod(i, n_cols) for a, b in zip(bounds[1::2], bounds[2::2])
                     for i in range(a, b))
