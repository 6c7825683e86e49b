"""Shared-task scoring.  ``score_task_a`` scores Task A labels as 3-way F1
and as 2-way F1 with the unknown penalty, macro- or micro-averaged over the
classes, in one walk of the corpus.  ``score_task_b`` scores Task B
predictions, sets of relevant (row, col) cells, as cell-level F1 against
multi-version ground truth.  Both return the plain dicts that
``report.json`` holds.

All metrics average per table first, then across tables.  Precision,
recall and F1 are 0 when their denominator is 0.  No score is taken with
both sides empty: a table's F1 is over the classes present in its gold or
predicted labels, and every gold evidence version holds a cell.

Predictions are looked up by ``(table_id, stmt_id)``, so a statement they
lack raises what the mapping raises: a ``corpus.Records`` names its file,
a plain dict raises KeyError.
"""

from __future__ import annotations

from .corpus import Label
from .classify import CLASS_ORDER


class ScoringError(ValueError):
    """Two scored statements share a ``"table_id/stmt_id"`` report key."""


def _prf(tp, fp, fn):
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def _table_f1(pairs, classes, average):
    """One table's F1 over its (gold, predicted) ``pairs``, which are not
    empty and whose gold labels are all in ``classes``: "macro" is the mean
    F1 of the classes present in gold or predictions, in ``classes`` order,
    "micro" the F1 of their summed counts.  A prediction outside ``classes``
    (Unknown in 2-way mode) is never a positive prediction but still leaves
    its gold statement unmatched."""
    counts = [(sum(g == c == p for g, p in pairs), sum(g != c == p for g, p in pairs),
               sum(g == c != p for g, p in pairs)) for c in classes]
    present = [n for n in counts if any(n)]  # (tp, fp, fn) of each class present
    if average == "macro":
        return sum(_prf(*n)[2] for n in present) / len(present)
    return _prf(*map(sum, zip(*present)))[2]


def _mean(per_table):
    return sum(per_table.values()) / len(per_table) if per_table else 0.0


def score_task_a(preds, gold_corpus, average="macro"):
    """The ``task_a`` section of ``report.json``: per-table and overall
    3-way and 2-way F1, and confusion counts keyed ``"gold->pred"``.

    3-way F1 is over {Entailed, Refuted, Unknown}.  2-way F1 drops the
    gold-Unknown statements and is over {Entailed, Refuted}: predicting
    Unknown on a kept statement is a false negative for the gold class and
    a true positive for nothing.
    """
    # A set: its order is the order the per-class F1s are summed in, so the
    # last digit of a 3-way score can depend on the hash seed.  A fixed
    # order changes report bytes and waits for a benchmark change.
    three_way, two_way = set(CLASS_ORDER), (Label.ENTAILED, Label.REFUTED)
    per_table_3way, per_table_2way, confusion = {}, {}, {}
    for doc in gold_corpus:
        pairs = [(st.gold_label, preds[(doc.table_id, st.stmt_id)])
                 for st in doc.statements if st.gold_label is not None]
        if not pairs:
            continue
        for g, p in pairs:
            key = f"{g.value}->{p.value}"
            confusion[key] = confusion.get(key, 0) + 1
        per_table_3way[doc.table_id] = _table_f1(pairs, three_way, average)
        kept = [(g, p) for g, p in pairs if g in two_way]
        if kept:
            per_table_2way[doc.table_id] = _table_f1(kept, two_way, average)
    return {"overall_3way": _mean(per_table_3way), "overall_2way": _mean(per_table_2way),
            "per_table_3way": per_table_3way, "per_table_2way": per_table_2way,
            "confusion": confusion}


def _cell_prf(pred_set, gold_set):
    tp = len(pred_set & gold_set)
    return _prf(tp, len(pred_set - gold_set), len(gold_set - pred_set))


def score_task_b(pred_maps, gold_corpus):
    """Per-cell F1 against multi-version gold evidence; returns the
    ``task_b`` section of ``report.json``.

    ``pred_maps`` maps (table_id, stmt_id) to the set of relevant (row, col)
    cells.  Statement score is the best F1 over gold versions, reported
    under ``"table_id/stmt_id"``, which must name one statement only;
    averaged per table, then across tables.
    """
    per_table = {}
    per_statement = {}
    for doc in gold_corpus:
        stmt_scores = []
        for st in doc.statements:
            if st.gold_label == Label.UNKNOWN or not st.gold_evidence:
                continue
            key = (doc.table_id, st.stmt_id)
            pred = pred_maps[key]
            best = max((_cell_prf(pred, cells) for cells in st.gold_evidence),
                       key=lambda prf: prf[2])
            name = f"{doc.table_id}/{st.stmt_id}"
            if name in per_statement:
                raise ScoringError(f"statement {key} and an earlier one share the key {name!r}")
            per_statement[name] = {"precision": best[0], "recall": best[1], "f1": best[2]}
            stmt_scores.append(best[2])
        if stmt_scores:
            per_table[doc.table_id] = sum(stmt_scores) / len(stmt_scores)
    return {"overall": _mean(per_table), "per_table": per_table,
            "per_statement": per_statement}
