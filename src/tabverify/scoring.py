"""Shared-task scoring: 3-way F1, 2-way F1 with the unknown penalty, and
cell-level Task B F1 against multi-version ground truth.  Task B
predictions are sets of relevant (row, col) cells.  ``score_task_a`` and
``score_task_b`` return the plain dicts that ``report.json`` holds.

All metrics average per table first, then across tables.  Zero-denominator
convention: precision/recall/F1 are 0 when their denominator is 0 and the
other side is non-empty, 1 when both prediction and gold are empty.
"""

from __future__ import annotations

from .corpus import Label
from .classify import CLASS_ORDER


class ScoringError(ValueError):
    pass


def _prf(tp, fp, fn):
    if tp == 0 and fp == 0 and fn == 0:
        return 1.0, 1.0, 1.0
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def _gold_pairs(doc):
    return [(st.stmt_id, st.gold_label) for st in doc.statements
            if st.gold_label is not None]


def _require_pred(preds, table_id, stmt_id):
    key = (table_id, stmt_id)
    if key not in preds:
        raise ScoringError(f"missing prediction for statement ({table_id}, {stmt_id})")
    return preds[key]


def _table_macro_f1(gold, pred, classes):
    """Macro-F1 over the classes present in gold or predictions.

    ``classes`` restricts the eligible label set; predictions outside it
    (Unknown in 2-way mode) never count as positive predictions but still
    leave their gold statement unmatched.
    """
    present = [c for c in classes
               if any(g == c for g in gold) or any(p == c for p in pred)]
    if not present:
        return 1.0
    f1s = []
    for c in present:
        tp = sum(1 for g, p in zip(gold, pred) if g == c and p == c)
        fp = sum(1 for g, p in zip(gold, pred) if g != c and p == c)
        fn = sum(1 for g, p in zip(gold, pred) if g == c and p != c)
        f1s.append(_prf(tp, fp, fn)[2])
    return sum(f1s) / len(f1s)


def _table_micro_f1(gold, pred, classes):
    tp = sum(1 for g, p in zip(gold, pred) if g == p and g in classes)
    fp = sum(1 for g, p in zip(gold, pred) if p in classes and g != p)
    fn = sum(1 for g, p in zip(gold, pred) if g in classes and p != g)
    return _prf(tp, fp, fn)[2]


def score_3way(preds, gold_corpus, average="macro"):
    """Per-table F1 over {Entailed, Refuted, Unknown}; returns
    (per-table dict, overall mean, confusion counts)."""
    scorer = _table_macro_f1 if average == "macro" else _table_micro_f1
    per_table = {}
    confusion = {}
    for doc in gold_corpus:
        pairs = _gold_pairs(doc)
        if not pairs:
            continue
        gold = [label for _, label in pairs]
        pred = [_require_pred(preds, doc.table_id, sid) for sid, _ in pairs]
        for g, p in zip(gold, pred):
            confusion[(g, p)] = confusion.get((g, p), 0) + 1
        per_table[doc.table_id] = scorer(gold, pred, set(CLASS_ORDER))
    overall = sum(per_table.values()) / len(per_table) if per_table else 0.0
    return per_table, overall, confusion


def score_2way(preds, gold_corpus, average="macro"):
    """Gold-Unknown statements dropped; F1 over {Entailed, Refuted}.

    Predicting Unknown on a kept statement is penalized: it is a false
    negative for the gold class and a true positive for nothing.
    """
    scorer = _table_macro_f1 if average == "macro" else _table_micro_f1
    two_way = {Label.ENTAILED, Label.REFUTED}
    per_table = {}
    for doc in gold_corpus:
        pairs = [(sid, label) for sid, label in _gold_pairs(doc) if label in two_way]
        if not pairs:
            continue
        gold = [label for _, label in pairs]
        pred = [_require_pred(preds, doc.table_id, sid) for sid, _ in pairs]
        per_table[doc.table_id] = scorer(gold, pred, two_way)
    overall = sum(per_table.values()) / len(per_table) if per_table else 0.0
    return per_table, overall


def score_task_a(preds, gold_corpus, average="macro"):
    """The ``task_a`` section of ``report.json``: per-table and overall
    3-way and 2-way F1, and confusion counts keyed ``"gold->pred"``."""
    per_table_3way, overall_3way, confusion = score_3way(preds, gold_corpus, average)
    per_table_2way, overall_2way = score_2way(preds, gold_corpus, average)
    return {
        "overall_3way": overall_3way,
        "overall_2way": overall_2way,
        "per_table_3way": per_table_3way,
        "per_table_2way": per_table_2way,
        "confusion": {f"{g.value}->{p.value}": n for (g, p), n in confusion.items()},
    }


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
            if key not in pred_maps:
                raise ScoringError(f"missing evidence prediction for {key}")
            best = max(
                (_cell_prf(pred_maps[key], cells) for cells in st.gold_evidence),
                key=lambda prf: prf[2],
            )
            name = f"{doc.table_id}/{st.stmt_id}"
            if name in per_statement:
                raise ScoringError(f"statement {key} and an earlier one share the key {name!r}")
            per_statement[name] = {"precision": best[0], "recall": best[1], "f1": best[2]}
            stmt_scores.append(best[2])
        if stmt_scores:
            per_table[doc.table_id] = sum(stmt_scores) / len(stmt_scores)
    overall = sum(per_table.values()) / len(per_table) if per_table else 0.0
    return {"overall": overall, "per_table": per_table, "per_statement": per_statement}
