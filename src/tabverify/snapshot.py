"""Content-snapshot selection: the K table rows most lexically relevant to a
statement, ranked by n-gram overlap."""

from __future__ import annotations

from dataclasses import dataclass

from . import textnorm

DEFAULT_NGRAMS = (1, 2)


@dataclass(frozen=True)
class Snapshot:
    table_id: str
    stmt_id: str
    row_indices: tuple  # ascending original grid row indices (body rows)
    k: int


def median_row_count(corpus):
    """Median body-row count across the corpus.

    Even-length medians take the lower of the two middle values, so the
    result is always an attained row count.
    """
    if not corpus:
        raise ValueError("median_row_count requires a non-empty corpus")
    counts = sorted(len(doc.body_row_indices) for doc in corpus)
    return counts[(len(counts) - 1) // 2]


def select_snapshot(table, statement, r_rows, n_values=DEFAULT_NGRAMS, abbrevs=None):
    """Pick the top rows by overlap with the statement.

    ``table`` is a TableDocument or a ``textnorm.TableView`` of one; a view
    carries its own abbreviations, so ``abbrevs`` is then left unset.  When
    the table has at most ``r_rows`` body rows the snapshot is the whole
    body.  Otherwise exactly ``r_rows`` rows are kept, ranked by overlap rate
    with ties broken toward the smaller row index; the result is re-sorted in
    ascending original order.
    """
    if r_rows < 1:
        raise ValueError(f"r_rows must be >= 1, got {r_rows}")
    view = textnorm.TableView.of(table, abbrevs)
    body = list(view.body_row_indices)
    if len(body) <= r_rows:
        return Snapshot(view.table_id, statement.stmt_id, tuple(body), len(body))
    stmt_grams = textnorm.ngram_set(
        textnorm.normalize(statement.text, view.abbrevs), n_values)
    scored = [(-textnorm.overlap_rate(stmt_grams, view.row_grams(idx, n_values)), idx)
              for idx in body]
    scored.sort()
    chosen = sorted(idx for _, idx in scored[:r_rows])
    return Snapshot(view.table_id, statement.stmt_id, tuple(chosen), r_rows)
