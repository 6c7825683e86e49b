"""Per-model classification scores: a deterministic lexical baseline and
the JSON-lines score file, the boundary through which external neural
models enter the ensemble.

Class order is fixed as [Entailed, Refuted, Unknown] everywhere.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from . import corpus, textnorm
from .corpus import Label

CLASS_ORDER = (Label.ENTAILED, Label.REFUTED, Label.UNKNOWN)

# Multiplier applied to the overlap score for the Refuted slot when the
# statement contains a negation cue; > 1 so negated high-overlap statements
# flip toward Refuted.
NEGATION_FACTOR = 2.0


class ScoreFileError(ValueError):
    pass


@dataclass(frozen=True)
class ScoreVector:
    model_name: str
    table_id: str
    stmt_id: str
    scores: tuple  # (entailed, refuted, unknown)
    extra: dict = field(default_factory=dict, compare=False)

    def __post_init__(self):
        if not self.model_name:
            raise ScoreFileError("model_name must be non-empty")
        if len(self.scores) != 3:
            raise ScoreFileError(f"expected 3 scores, got {len(self.scores)}")
        if not all(isinstance(s, (int, float)) and math.isfinite(s) for s in self.scores):
            raise ScoreFileError(f"scores must be finite numbers, got {self.scores}")


def lexical_baseline(statement, view, rows, n_values=(1, 2), model_name="lexical"):
    """Deterministic stand-in classifier over the snapshot ``rows`` of
    ``view`` (a ``textnorm.TableView``).

    Scores (o, n, 1-o), where o is the best overlap rate over those rows
    and n = o * NEGATION_FACTOR when the statement carries a negation cue
    (0 otherwise).  Scores are raw, not normalized.
    """
    stmt_tokens = textnorm.normalize(statement.text, view.abbrevs)
    stmt_grams = textnorm.ngram_set(stmt_tokens, n_values)
    o = 0.0
    for idx in rows:
        o = max(o, textnorm.overlap_rate(stmt_grams, view.row_grams(idx, n_values)))
    negated = bool(textnorm.NEGATION_TOKENS & set(stmt_tokens))
    n = o * NEGATION_FACTOR if negated else 0.0
    return ScoreVector(model_name, view.table_id, statement.stmt_id,
                       (o, n, 1.0 - o))


SCORE_KEY = ("model", "table_id", "stmt_id")


def write_scores(score_vectors, path):
    """One JSON object per line; unknown fields round-trip opaquely."""
    corpus.write_jsonl(({**sv.extra, "model": sv.model_name, "table_id": sv.table_id,
                         "stmt_id": sv.stmt_id, "scores": list(sv.scores)}
                        for sv in score_vectors), path)


def _score_from_json(obj):
    extra = {k: v for k, v in obj.items() if k not in SCORE_KEY and k != "scores"}
    return ScoreVector(obj["model"], obj["table_id"], obj["stmt_id"],
                       tuple(corpus.json_field(obj, "scores", list)), extra)


def read_scores(path):
    """Score vectors in file order; a score file holds one record per
    (model, table_id, stmt_id).  Bad records raise ScoreFileError."""
    return list(corpus.read_jsonl(path, _score_from_json, SCORE_KEY, ScoreFileError).values())
