"""Per-model classification scores: a deterministic lexical baseline and
the JSON-lines score file, the boundary through which external neural
models enter the ensemble.

Class order is fixed as [Entailed, Refuted, Unknown] everywhere.
"""

from __future__ import annotations

import sys

from . import corpus, textnorm
from .corpus import Label

CLASS_ORDER = (Label.ENTAILED, Label.REFUTED, Label.UNKNOWN)

# Multiplier applied to the overlap score for the Refuted slot when the
# statement contains a negation cue; > 1 so negated high-overlap statements
# flip toward Refuted.
NEGATION_FACTOR = 2.0


def lexical_baseline(statement, view, rows, n_values=textnorm.DEFAULT_NGRAMS):
    """Deterministic stand-in classifier over the snapshot ``rows`` of
    ``view`` (a ``textnorm.TableView``).

    Returns the score triple (o, n, 1-o), where o is the best overlap rate
    over those rows and n = o * NEGATION_FACTOR when the statement carries a
    negation cue (0 otherwise).  Scores are raw, not normalized.
    """
    stmt_tokens = textnorm.normalize(statement.text, view.abbrevs)
    stmt_grams = textnorm.ngram_set(stmt_tokens, n_values)
    o = 0.0
    for idx in rows:
        o = max(o, textnorm.overlap_rate(stmt_grams, view.row_grams(idx, n_values)))
    negated = not textnorm.NEGATION_TOKENS.isdisjoint(stmt_tokens)
    n = o * NEGATION_FACTOR if negated else 0.0
    return (o, n, 1.0 - o)


SCORE_KEY = ("model", *corpus.STATEMENT_KEY)


def write_scores(scores, path):
    """One JSON object per line from ``((model, table_id, stmt_id), triple)`` pairs."""
    corpus.write_jsonl(({**dict(zip(SCORE_KEY, key)), "scores": list(triple)}
                        for key, triple in scores), path)


def _score_triple(obj):
    if not obj["model"]:
        raise corpus.SchemaError("model must be non-empty")
    scores = tuple(corpus.json_field(obj, "scores", list))
    if len(scores) != 3:
        raise corpus.SchemaError(f"expected 3 scores, got {len(scores)}")
    # JSON booleans are not numbers, and an integer past the float range is not finite here.
    if not all(type(s) in (int, float) and abs(s) <= sys.float_info.max for s in scores):
        raise corpus.SchemaError(f"scores must be finite numbers, got {scores}")
    return scores


def read_scores(paths):
    """Every score file's triples as ``{(table_id, stmt_id): {model: triple}}``,
    Records of the files named ``", ".join(paths)``, and the model names in
    order of first appearance.

    All the files fill one set of records, so a (model, table_id, stmt_id)
    key may appear once across them, and every statement needs a triple from
    every model; one model's triples may be split across files.  Unknown
    fields are ignored.  Bad records raise corpus.SchemaError.
    """
    records = corpus.Records(", ".join(map(str, paths)))
    for path in paths:
        corpus.read_jsonl(path, _score_triple, SCORE_KEY, records)
    scores = corpus.Records(records.path)
    for (model, table_id, stmt_id), triple in records.items():
        scores.setdefault((table_id, stmt_id), {})[model] = triple
    model_names = tuple(dict.fromkeys(model for model, _, _ in records))
    for (table_id, stmt_id), by_model in scores.items():
        if len(by_model) < len(model_names):
            model = next(m for m in model_names if m not in by_model)
            raise corpus.SchemaError(f"{scores.path}: missing scores from model {model!r} "
                                     f"for ({table_id}, {stmt_id})")
    return scores, model_names
