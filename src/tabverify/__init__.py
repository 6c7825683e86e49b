"""tabverify: a model-agnostic pipeline toolkit for table-based statement
verification — corpus parsing, content-snapshot selection, unknown-label
augmentation, score-level ensembling, rule-based evidence selection, and
the matching evaluation protocols."""

__version__ = "0.1.0"  # the one source of the version; pyproject.toml reads it

from .corpus import (  # noqa: F401
    Label,
    Statement,
    TableDocument,
    corpus_stats,
    from_interchange,
    parse_xml,
    to_interchange,
)
from .snapshot import median_row_count, select_snapshot  # noqa: F401
from .augment import AugmentConfig, generate_unknown, merge_corpora  # noqa: F401
from .classify import lexical_baseline, read_scores, write_scores  # noqa: F401
from .ensemble import TrainConfig, VoteLayer, assemble_features, forward, predict, train  # noqa: F401
from .evidence import find_evidence  # noqa: F401
from .scoring import score_2way, score_3way, score_task_a, score_task_b  # noqa: F401
