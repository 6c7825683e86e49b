"""Deterministic text normalization: lowercasing, abbreviation expansion,
suffix stemming, tokenization and n-gram extraction, plus ``TableView``,
the normalized text of one table computed once and shared by every
statement scored against it.

The pipeline order is fixed: lowercase -> tokenize -> expand abbreviations
-> stem.  All functions are pure.  ``stem`` is memoized for the life of the
process: its result depends only on its one string argument and the rule
list fixed at import, and strings are immutable, so a cached result is the
value a fresh call would return.  The cache grows with the distinct tokens
seen (tens of thousands on large corpora).  A cache miss tries only the
rules whose suffix ends in the word's last letter, in file order: no other
rule can match, so the first rule that does is the one a scan of the whole
list would find.
"""

from __future__ import annotations

import functools
import re
from importlib import resources

_TOKEN_RE = re.compile(r"[a-z0-9]+")

_VOWELS = frozenset("aeiou")

# Negation cues checked by the lexical baseline; kept here so they pass
# through the same normalization as everything else.
NEGATION_TOKENS = frozenset({"no", "not", "never", "fewer", "less"})


class AbbrevError(ValueError):
    """Raised for malformed or cyclic abbreviation tables."""


def _load_lines(name):
    text = resources.files("tabverify.data").joinpath(name).read_text("utf-8")
    for raw in text.splitlines():
        line = raw.rstrip("\n")
        if not line or line.lstrip().startswith("#"):
            continue
        yield line


def _load_stem_rules():
    rules = []
    for line in _load_lines("stem_rules.tsv"):
        suffix, repl, min_stem, flag = line.split("\t")
        if not suffix:
            raise ValueError(f"stem rule with an empty suffix: {line!r}")
        rules.append((suffix, repl, int(min_stem), flag == "fixup"))
    return tuple(rules)


_STEM_RULES = _load_stem_rules()

# Last letter -> the rules whose suffix ends in it, in file order.
_RULES_BY_LAST = {last: tuple(rule for rule in _STEM_RULES if rule[0][-1] == last)
                  for last in {rule[0][-1] for rule in _STEM_RULES}}


def make_abbrev_table(pairs):
    """Build an abbreviation table from (key, full form) pairs.

    Keys must be lowercase single tokens; values are token sequences.
    A key whose expansion contains the key itself is rejected.
    """
    table = {}
    for key, full in pairs:
        if key != key.lower():
            raise AbbrevError(f"abbreviation key must be lowercase: {key!r}")
        tokens = tuple(_TOKEN_RE.findall(full.lower()))
        if not tokens:
            raise AbbrevError(f"empty expansion for {key!r}")
        if key in tokens:
            raise AbbrevError(f"abbreviation {key!r} expands to itself")
        table[key] = tokens
    return table


def _read_abbrevs(lines):
    """The abbreviation table of ``lines``, in ``load_abbrev_file``'s format."""
    pairs = []
    for raw in lines:
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, tab, full = line.partition("\t")
        if not tab:
            raise AbbrevError(f"expected 'abbrev<TAB>full form', got {line!r}")
        pairs.append((key.strip(), full.strip()))
    return make_abbrev_table(pairs)


def load_abbrev_file(path):
    """Read an abbreviation table: one ``abbrev<TAB>full form`` per line,
    ``#`` comments and blank lines ignored."""
    with open(path, encoding="utf-8") as fh:
        return _read_abbrevs(fh)


def default_abbrevs():
    """The abbreviation table shipped with the package."""
    with resources.files("tabverify.data").joinpath("abbreviations.tsv").open(
            encoding="utf-8") as fh:
        return _read_abbrevs(fh)


def _ends_cvc(word):
    if len(word) < 3:
        return False
    a, b, c = word[-3], word[-2], word[-1]
    return a not in _VOWELS and b in _VOWELS and c not in _VOWELS and c not in "wxy"


def _stem_once(word):
    for suffix, repl, min_stem, fixup in _RULES_BY_LAST.get(word[-1:], ()):
        if not word.endswith(suffix):
            continue
        stem_len = len(word) - len(suffix)
        if stem_len < min_stem:
            continue
        out = word[:stem_len] + repl
        if fixup:
            if len(out) >= 2 and out[-1] == out[-2] and out[-1] not in _VOWELS and out[-1] not in "lsz":
                out = out[:-1]
            elif _ends_cvc(out):
                out += "e"
        return out
    return word


@functools.lru_cache(maxsize=None)
def stem(word):
    """Suffix-strip one lowercase token using the shipped rule list.

    The rule pass repeats until the token is a fixpoint, so stemming is
    idempotent by construction (every productive rule strictly shortens).
    """
    while True:
        out = _stem_once(word)
        if out == word:
            return out
        word = out


def normalize(text, abbrevs=None):
    """Normalize text to a token sequence.

    Stages, in order: lowercase, tokenize on non-alphanumeric boundaries,
    expand abbreviations (single pass), stem.
    """
    tokens = _TOKEN_RE.findall(text.lower())
    if abbrevs:
        expanded = []
        for tok in tokens:
            expanded.extend(abbrevs.get(tok, (tok,)))
        tokens = expanded
    return [stem(tok) for tok in tokens]


def ngram_set(tokens, n_values=(1, 2)):
    """All contiguous n-token windows for each n, as a set of tuples."""
    grams = set()
    for n in n_values:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        for i in range(len(tokens) - n + 1):
            grams.add(tuple(tokens[i:i + n]))
    return grams


def overlap_rate(statement_grams, row_grams):
    """|intersection| / |statement grams|; 0 when the statement has none."""
    if not statement_grams:
        return 0.0
    return len(statement_grams & row_grams) / len(statement_grams)


class TableView:
    """One table's normalized text, computed on first use and reused by
    every statement scored against the table.

    A view is built with the abbreviation table its text is normalized
    with and carries it as ``abbrevs``; it is the one table input of the
    per-table rules (``snapshot.select_snapshot``,
    ``classify.lexical_baseline``, ``evidence.find_evidence``).  Attributes
    the view does not define read through to the table.  The sets and lists
    it returns are shared by every caller and must not be mutated.
    """

    def __init__(self, table, abbrevs=None):
        self.table = table
        self.abbrevs = abbrevs
        self._row_grams = {}

    def __getattr__(self, name):
        if name == "table":  # not yet set, e.g. while copying
            raise AttributeError(name)
        return getattr(self.table, name)

    def row_grams(self, row_index, n_values):
        """The n-gram set of one grid row's text (its cells joined by
        spaces), for each n in ``n_values``."""
        key = (row_index, tuple(n_values))
        grams = self._row_grams.get(key)
        if grams is None:
            tokens = normalize(" ".join(self.table.grid[row_index]), self.abbrevs)
            grams = self._row_grams[key] = ngram_set(tokens, key[1])
        return grams

    @functools.cached_property
    def cell_index(self):
        """Normalized token -> the (row, col) cells holding it, row-major."""
        index = {}
        for r, row in enumerate(self.table.grid):
            for c, cell in enumerate(row):
                for tok in set(normalize(cell, self.abbrevs)):
                    index.setdefault(tok, []).append((r, c))
        return index
