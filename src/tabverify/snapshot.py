"""Content-snapshot selection: the K body rows of a table most lexically
relevant to a statement, ranked by n-gram overlap."""

from __future__ import annotations

from . import textnorm


def median_row_count(corpus):
    """Median body-row count across the corpus.

    Even-length medians take the lower of the two middle values, so the
    result is always an attained row count.
    """
    if not corpus:
        raise ValueError("median_row_count requires a non-empty corpus")
    counts = sorted(len(doc.body_row_indices) for doc in corpus)
    return counts[(len(counts) - 1) // 2]


def select_snapshot(view, statement, r_rows, n_values=textnorm.DEFAULT_NGRAMS):
    """The chosen body rows of ``view`` (a ``textnorm.TableView``), as an
    ascending tuple of grid row indices.

    When the table has at most ``r_rows`` body rows the snapshot is the whole
    body.  Otherwise exactly ``r_rows`` rows are kept, ranked by overlap rate
    with ties broken toward the smaller row index.
    """
    if r_rows < 1:
        raise ValueError(f"r_rows must be >= 1, got {r_rows}")
    body = view.body_row_indices
    if len(body) <= r_rows:
        return tuple(body)
    stmt_grams = textnorm.ngram_set(
        textnorm.normalize(statement.text, view.abbrevs), n_values)
    scored = sorted((-textnorm.overlap_rate(stmt_grams, view.row_grams(idx, n_values)), idx)
                    for idx in body)
    return tuple(sorted(idx for _, idx in scored[:r_rows]))
