"""Evidence-cell rule engine: given a statement, a table's ``TableView`` and
the statement's verdict, find the relevant cells.  A cell set is a mask of
``corpus.cell_mask``'s layout: an ``int`` with bit ``row * n_cols + col`` set
per cell.  ``rle_encode`` and ``rle_decode`` convert a mask to and from the
run-length form that evidence files hold.

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
import re

from . import textnorm
from .corpus import Label, cell_mask

ALL_ENTAILED = "all-entailed"


def find_evidence(statement, view, taska_label):
    """Apply the rule engine to the table of ``view`` (a
    ``textnorm.TableView``); returns ``{rule id: mask}`` in rule-id order."""
    if taska_label == Label.UNKNOWN:
        raise ValueError("Task B excludes unknown statements")
    n_rows, n_cols = view.n_rows, view.n_cols
    if taska_label == Label.ENTAILED:
        return {ALL_ENTAILED: (1 << n_rows * n_cols) - 1}

    bag = set(textnorm.normalize(statement.text, view.abbrevs))
    body = view.body_row_indices
    full_row = (1 << n_cols) - 1
    # bit (r, 0) of each body row; times a mask below bit n_cols, a carry-free copy per row
    body_rows = ((1 << n_rows * n_cols) - (1 << body.start * n_cols)) // full_row if n_cols else 0
    fired = dict.fromkeys("1234", 0)
    for word in bag:
        # Only the cells holding the word can fire; a word no cell holds
        # fires nothing.
        cells = view.cell_index.get(word, ())
        header_cols = sum({1 << c for r, c in cells if r not in body})
        label_rows = sum({1 << r * n_cols for r, c in cells if c == 0 and r in body})
        fired["1"] |= header_cols * body_rows
        fired["2"] |= label_rows * full_row
        fired["3"] |= label_rows * header_cols
        fired["4"] |= cell_mask(cells, n_cols)
    return fired


def rule_trace(fired, n_rows, n_cols):
    """Per row, per cell, the ids of the rules in ``fired`` whose mask holds the cell."""
    bits = {rule: f"{mask:0{n_rows * n_cols}b}"[::-1] for rule, mask in fired.items()}
    return [[[rule for rule, b in bits.items() if b[i] == "1"]
             for i in range(r * n_cols, (r + 1) * n_cols)] for r in range(n_rows)]


def rle_encode(mask, n_rows=None, n_cols=None):
    """Row-major run-length encoding of ``mask``, the relevant cells of an
    ``n_rows`` x ``n_cols`` grid; runs alternate starting with an irrelevant
    run.  Without a shape, ``mask`` is a list of rows of booleans, the form
    the benchmark's self-tests still pass."""
    if n_rows is None:
        n_rows, n_cols = len(mask), len(mask[0]) if mask else 0
        mask = cell_mask([(r, c) for r, row in enumerate(mask) for c, v in enumerate(row) if v],
                         n_cols)
    bits = format(mask | 1 << n_rows * n_cols, "b")[:0:-1]  # bit 0 first, one digit per cell
    # "^0*" is the leading irrelevant run, empty when cell 0 is relevant
    return [len(run) for run in re.findall("^0*|1+|0+", bits)]


def rle_check(runs, n_rows, n_cols):
    """Raise ValueError unless ``runs`` are non-negative run lengths that
    cover an ``n_rows`` x ``n_cols`` grid; expands nothing."""
    for count in runs:
        if count < 0:
            raise ValueError(f"negative run length {count}")
    if sum(runs) != n_rows * n_cols:
        raise ValueError(f"run lengths sum to {sum(runs)}, expected {n_rows * n_cols}")


def rle_decode(runs, n_rows, n_cols):
    """The mask of the relevant cells that ``runs`` encode."""
    rle_check(runs, n_rows, n_cols)  # before expanding, so a huge run allocates nothing
    bounds = list(itertools.accumulate(runs, initial=0))
    # the relevant runs are the odd ones: run k covers bits bounds[k]..bounds[k + 1] - 1
    return sum((1 << b) - (1 << a) for a, b in zip(bounds[1::2], bounds[2::2]))
