"""Training-corpus augmentation: merge external corpora and synthesize
"unknown" statements by borrowing statements from other tables.

The draw loop is a single deterministic pass in table order, seeded through
AugmentConfig; callers must not parallelize it.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass, replace

from . import textnorm
from .corpus import Label, Statement

# Draws per appended statement before the leakage guard gives up and keeps
# the least-overlapping candidate seen.
MAX_REDRAWS = 10


@dataclass(frozen=True)
class AugmentConfig:
    rng_seed: int
    unknown_ratio: float = 0.5
    # Reject donors sharing more than this fraction of their unigrams with
    # the target table; 0 disables the guard entirely.
    guard_threshold: float = 0.5

    def __post_init__(self):
        if not (0 < self.unknown_ratio <= 1):
            raise ValueError(f"unknown_ratio must be in (0, 1], got {self.unknown_ratio}")
        if not math.isfinite(self.guard_threshold):
            raise ValueError(f"guard_threshold must be finite, got {self.guard_threshold}")


def merge_corpora(base, external):
    """Concatenate two corpora; external table and document ids get the
    prefix ``ext:``."""
    merged = list(base)
    for doc in external:
        merged.append(replace(doc, table_id=f"ext:{doc.table_id}",
                              doc_id=f"ext:{doc.doc_id}" if doc.doc_id else doc.doc_id))
    seen = set()
    for doc in merged:
        if doc.table_id in seen:
            raise ValueError(f"duplicate table_id after merge: {doc.table_id!r}")
        seen.add(doc.table_id)
    return merged


def _table_unigram_bag(doc, abbrevs):
    """The normalized tokens of the table's cells and caption.  One call
    over the texts joined by spaces gives the union of the per-text sets:
    no token spans a space, and abbreviations and stemming act on one token
    at a time."""
    return set(textnorm.normalize(" ".join([*map(" ".join, doc.grid), doc.caption]), abbrevs))


def _donor_draws(rng, pool_size, eligible):
    """Eligible pool indices to try, in order: up to MAX_REDRAWS eligible
    random draws, then, only if none of the draws was eligible, every
    eligible index in pool order.

    Ineligible draws (same table, already used) do not count toward the
    redraw budget; the cap of 1000 draws only bounds pathological streaks.
    The RNG is advanced only as far as the caller consumes.
    """
    drawn = 0
    for _ in range(1000):
        if drawn == MAX_REDRAWS:
            return
        idx = rng.randrange(pool_size)
        if eligible(idx):
            drawn += 1
            yield idx
    if not drawn:
        yield from filter(eligible, range(pool_size))


def generate_unknown(corpus, config, abbrevs=None):
    """Append Unknown-labeled statements drawn from other tables.

    Each table with ``s`` original statements gains
    ``floor(s * unknown_ratio)`` statements sampled uniformly without
    replacement from the pooled statements of every other table.  Candidates
    leaking too many unigrams into the target table are redrawn (bounded),
    keeping the least-leaky fallback.  Returns (augmented corpus, warnings);
    a warning records any table whose quota could not be filled.
    """
    if len(corpus) < 2:
        raise ValueError("generate_unknown requires at least 2 tables")
    rng = random.Random(config.rng_seed)
    pool = []  # (table position, Statement, statement's distinct unigrams)
    for pos, doc in enumerate(corpus):
        for st in doc.statements:
            pool.append((pos, st, tuple(dict.fromkeys(textnorm.normalize(st.text, abbrevs)))))

    out = []
    warnings = []
    for pos, doc in enumerate(corpus):
        s = len(doc.statements)
        quota = math.floor(s * config.unknown_ratio)
        if quota == 0:
            out.append(doc)
            continue
        table_bag = _table_unigram_bag(doc, abbrevs)
        existing_ids = {st.stmt_id for st in doc.statements}
        donor_count = len(pool) - s
        taken = set()  # pool indices already used for this table
        appended = []
        while len(appended) < quota and len(taken) < donor_count:
            best = None  # (leak fraction, pool index)
            for idx in _donor_draws(rng, len(pool),
                                    lambda i: pool[i][0] != pos and i not in taken):
                leak = textnorm.overlap_rate(pool[idx][2], table_bag)
                if config.guard_threshold <= 0 or leak <= config.guard_threshold:
                    chosen = idx
                    break
                if best is None or leak < best[0]:
                    best = (leak, idx)
            else:
                chosen = best[1]
            taken.add(chosen)
            donor = pool[chosen][1]
            stmt_id = f"unk-{len(appended) + 1}"
            while stmt_id in existing_ids:
                stmt_id += "x"
            existing_ids.add(stmt_id)
            appended.append(Statement(stmt_id=stmt_id, text=donor.text,
                                      gold_label=Label.UNKNOWN, gold_evidence=None))
        if len(appended) < quota:
            warnings.append({"table_id": doc.table_id, "requested": quota,
                             "appended": len(appended)})
        out.append(replace(doc, statements=doc.statements + tuple(appended)))
    return out, warnings
