"""tabverify: a model-agnostic pipeline toolkit for table-based statement
verification — corpus parsing, content-snapshot selection, unknown-label
augmentation, score-level ensembling, rule-based evidence selection, and
the matching evaluation protocols."""

__version__ = "0.1.0"  # the one source of the version; pyproject.toml reads it
