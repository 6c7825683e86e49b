import pathlib
import re

import pytest
from hypothesis import example, given, settings, strategies as st

from tabverify import textnorm as tn
from tabverify.corpus import SchemaError


class TestNormalize:
    def test_stems_derived_forms_to_common_root(self):
        assert tn.normalize("Definition") == ["define"]
        assert tn.normalize("defined") == ["define"]

    def test_empty_input(self):
        assert tn.normalize("") == []

    def test_abbrev_then_stem(self):
        # hand application of the four stages: lowercase, tokenize,
        # expand "no" -> "number", stem "cells" -> "cell"
        abbrevs = tn.make_abbrev_table([("no", "number")])
        assert tn.normalize("No. of cells", abbrevs) == ["number", "of", "cell"]

    def test_lowercases_and_splits_on_punctuation(self):
        assert tn.normalize("X=3,Y") == ["x", "3", "y"]

    @given(st.text(max_size=60))
    def test_idempotent_on_own_output(self, text):
        once = tn.normalize(text)
        assert tn.normalize(" ".join(once)) == once
        # the memoized stemmer agrees with the uncached function
        for tok in tn._TOKEN_RE.findall(text.lower()):
            assert tn.stem(tok) == tn.stem.__wrapped__(tok)

    @given(st.text(max_size=60))
    def test_idempotent_with_default_abbrevs(self, text):
        abbrevs = tn.default_abbrevs()
        once = tn.normalize(text, abbrevs)
        assert tn.normalize(" ".join(once), abbrevs) == once

    @given(st.text(max_size=60))
    def test_tokens_lowercase_nonempty(self, text):
        for tok in tn.normalize(text):
            assert tok and tok == tok.lower()


def reference_stem(word):
    """The stemmer as the rule file states it: every pass scans all the
    rules in file order and applies the first whose suffix matches with a
    long enough stem, until the word no longer changes."""
    while True:
        out = word
        for suffix, repl, min_stem, fixup in tn._STEM_RULES:
            if word.endswith(suffix) and len(word) - len(suffix) >= min_stem:
                out = word[:len(word) - len(suffix)] + repl
                if fixup:
                    if (len(out) >= 2 and out[-1] == out[-2]
                            and out[-1] not in "aeiou" + "lsz"):
                        out = out[:-1]
                    elif (len(out) >= 3 and out[-3] not in "aeiou" and out[-2] in "aeiou"
                          and out[-1] not in "aeiou" + "wxy"):
                        out += "e"
                break
        if out == word:
            return out
        word = out


SUFFIXES = sorted({rule[0] for rule in tn._STEM_RULES})


class TestStem:
    # Every suffix alone (too short a stem) and after "walk" (long enough),
    # the empty string, one-letter words and digits.
    @pytest.mark.parametrize("word", ["", *"abcdefghijklmnopqrstuvwxyz", *"0123456789",
                                      "2s", "10ed", *SUFFIXES, *("walk" + s for s in SUFFIXES)])
    def test_edge_words(self, word):
        assert tn.stem.__wrapped__(word) == reference_stem(word)

    # A stem of 0 to 5 letters, short enough to fall below a rule's minimum,
    # with up to two rule suffixes (or any letters) after it.
    @given(st.text("abcdeilnorstuyz", max_size=5),
           st.lists(st.sampled_from(SUFFIXES) | st.text("adegilnorstyz0123", max_size=2),
                    max_size=2))
    def test_matches_a_scan_of_every_rule(self, stem, endings):
        word = stem + "".join(endings)
        assert tn.stem.__wrapped__(word) == reference_stem(word)
        assert tn.stem(word) == reference_stem(word)

    @pytest.mark.parametrize("word, stemmed", [("hopping", "hop"), ("hoping", "hope"),
                                                ("falling", "fall")])
    def test_fixup_undoubles_or_restores_e(self, word, stemmed):
        assert tn.stem.__wrapped__(word) == stemmed

    @pytest.mark.parametrize("word, cvc", [("", False), ("ho", False), ("hop", True),
                                           ("hoe", False), ("how", False)])
    def test_ends_cvc(self, word, cvc):
        assert tn._ends_cvc(word) is cvc

    def test_empty_suffix_rejected(self, monkeypatch, tmp_path):
        (tmp_path / "stem_rules.tsv").write_text("s\t\t3\t-\n\t\t3\t-\n", "utf-8")
        monkeypatch.setattr(tn.resources, "files", lambda package: tmp_path)
        with pytest.raises(ValueError, match="empty suffix"):
            tn._load_stem_rules()


class TestAbbrevTable:
    def test_cycle_rejected(self):
        with pytest.raises(ValueError, match="^abbreviation 'no' expands to itself$"):
            tn.make_abbrev_table([("no", "no more")])

    def test_uppercase_key_rejected(self):
        with pytest.raises(ValueError,
                           match="^abbreviation key must be one lowercase token: 'No'$"):
            tn.make_abbrev_table([("No", "number")])

    @pytest.mark.parametrize("key", ["\ufeffavg", "e.g.", "a b", ""])
    def test_key_no_token_matches_rejected(self, key):
        """A key that no normalized token equals would never fire."""
        with pytest.raises(ValueError) as exc:
            tn.make_abbrev_table([(key, "number")])
        assert str(exc.value) == f"abbreviation key must be one lowercase token: {key!r}"

    def test_repeated_key_rejected(self):
        """A repeat is rejected, not resolved in favour of either entry."""
        with pytest.raises(ValueError, match="^duplicate abbreviation key 'avg'$"):
            tn.make_abbrev_table([("avg", "average"), ("no", "number"), ("avg", "maximum")])

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "abbrevs.tsv"
        path.write_text("# comment\nno\tnumber\navg\taverage\n", "utf-8")
        table = tn.load_abbrev_file(path)
        assert table == {"no": ("number",), "avg": ("average",)}

    def test_empty_expansion_rejected(self):
        with pytest.raises(ValueError, match="^empty expansion for 'x'$"):
            tn.make_abbrev_table([("x", " -- ")])

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "abbrevs.tsv"
        path.write_text("justoneword\n", "utf-8")
        with pytest.raises(SchemaError) as exc:
            tn.load_abbrev_file(path)
        assert str(exc.value) == (
            f"{path}:1: expected 'abbrev<TAB>full form', got 'justoneword'")

    @pytest.mark.parametrize("line", ["no number", "\tnumber", "no\t "])
    def test_line_without_tab_and_full_form_rejected(self, tmp_path, line):
        path = tmp_path / "abbrevs.tsv"
        path.write_text(f"avg\taverage\n{line}\n", "utf-8")
        message = f"{path}:2: expected 'abbrev<TAB>full form', got {line.strip()!r}"
        with pytest.raises(SchemaError, match=f"^{re.escape(message)}$"):
            tn.load_abbrev_file(path)

    def test_chained_entries_expand_once(self, tmp_path):
        """Expansion is a single pass: an expansion's own tokens stay as
        they are, even when another entry names them."""
        path = tmp_path / "abbrevs.tsv"
        path.write_text("pts\tpoints total\ntotal\tsum\n", "utf-8")
        assert tn.normalize("pts total", tn.load_abbrev_file(path)) == ["point", "total", "sum"]

    def test_line_not_utf8_reports_location(self, tmp_path):
        path = tmp_path / "abbrevs.tsv"
        path.write_bytes(b"avg\taverage\nno\tnumb\xffer\n")
        with pytest.raises(SchemaError) as exc:
            tn.load_abbrev_file(path)
        assert str(exc.value) == (f"{path}:2: 'utf-8' codec can't decode byte 0xff "
                                  "in position 7: invalid start byte")

    def test_lines_end_at_carriage_returns(self, tmp_path):
        path = tmp_path / "abbrevs.tsv"
        path.write_bytes(b"avg\taverage\rno\tnumber\r\npts\tpoints")
        assert tn.load_abbrev_file(path) == {
            "avg": ("average",), "no": ("number",), "pts": ("points",)}

    def test_blank_lines_comments_and_padding(self, tmp_path):
        path = tmp_path / "abbrevs.tsv"
        path.write_text("\n   \n  # comment\n avg \t average \r\n", "utf-8")
        assert tn.load_abbrev_file(path) == {"avg": ("average",)}

    def test_shipped_table_through_file_reader(self):
        shipped = pathlib.Path(tn.__file__).parent / "data" / "abbreviations.tsv"
        assert tn.load_abbrev_file(shipped) == tn.default_abbrevs()

    def test_default_table_loads(self):
        table = tn.default_abbrevs()
        assert "no" not in table  # a negation cue, not an abbreviation
        assert table["avg"] == ("average",)


class TestNgrams:
    def test_unigrams(self):
        assert tn.ngram_set(["a", "b", "c"], {1}) == {("a",), ("b",), ("c",)}

    def test_bigrams(self):
        assert tn.ngram_set(["a", "b", "c"], {2}) == {("a", "b"), ("b", "c")}

    def test_too_short_sequence(self):
        assert tn.ngram_set(["a"], {2}) == set()

    def test_invalid_n(self):
        with pytest.raises(ValueError):
            tn.ngram_set(["a"], {0})

    @given(st.lists(st.sampled_from("abc"), max_size=10))
    def test_unigram_cardinality_bound(self, tokens):
        assert len(tn.ngram_set(tokens, {1})) <= len(tokens)


def reference_normalize(text, abbrevs=None):
    """``normalize`` as it was before it skipped the expansion pass of a
    text holding no abbreviation and stemmed through ``map``."""
    tokens = tn._TOKEN_RE.findall(text.lower())
    if abbrevs:
        expanded = []
        for tok in tokens:
            expanded.extend(abbrevs.get(tok, (tok,)))
        tokens = expanded
    return [tn.stem(tok) for tok in tokens]


def reference_ngram_set(tokens, n_values=tn.DEFAULT_NGRAMS):
    """``ngram_set`` as it was before it took the windows from ``zip``."""
    grams = set()
    for n in n_values:
        if n < 1:
            raise ValueError(f"n must be >= 1, got {n}")
        for i in range(len(tokens) - n + 1):
            grams.add(tuple(tokens[i:i + n]))
    return grams


# Keys of the shipped table ("no", "avg") and of the drawn ones ("ab", "ba",
# "b"; the drawn "k" and "i" match the Kelvin sign and dotted capital I,
# which lowercase to "k" and to "i" and a combining dot), words that are
# keys of neither, and capital sigma (final or not by its neighbours),
# joined by separators.
ORACLE_TEXT = st.lists(st.sampled_from(
    ["no", "No.", "avg", "ab", "ba", "a", "b", "running", "3", "\u212a", "\u212aelvin",
     "\u0130stanbul", "\u0391\u03a3", "\u03a3\u0391", " ", "-", "."]),
    max_size=10).map("".join) | st.text(max_size=20)
ORACLE_ABBREVS = st.one_of(
    st.none(), st.just({}), st.just(tn.default_abbrevs()),
    st.dictionaries(st.sampled_from(["ab", "ba", "b", "zz", "k", "i"]),
                    st.lists(st.sampled_from(["ab", "ba", "a", "walks", "x"]),
                             min_size=1, max_size=3).map(tuple), max_size=3))


class TestNormalizeOracle:
    @given(ORACLE_TEXT, ORACLE_ABBREVS)
    @settings(max_examples=300)
    @example("\u212aelvin \u0130stanbul \u039f\u0394\u039f\u03a3", None)
    @example("avg and No. of runs", {})  # a table that is empty
    @example("avg and No. of runs", {"zz": ("sleep",)})  # present, not matching
    @example("avg and No. of runs", tn.default_abbrevs())  # matching
    @example("\u212a avg", {"k": ("kelvin",)})  # matches the Kelvin sign's "k"
    def test_equals_reference(self, text, abbrevs):
        assert tn.normalize(text, abbrevs) == reference_normalize(text, abbrevs)


class TestNgramsOracle:
    @given(st.lists(st.sampled_from("abc"), max_size=8),
           st.lists(st.integers(-1, 10), min_size=1, max_size=4))
    @example(["a", "b", "c", "a"], [1, 2, 3])
    @example(["a", "b"], [3, 9])  # every n longer than the tokens
    def test_equals_reference(self, tokens, n_values):
        try:
            expected = reference_ngram_set(tokens, n_values)
        except ValueError as exc:
            with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
                tn.ngram_set(tokens, n_values)
        else:
            assert tn.ngram_set(tokens, n_values) == expected
            assert tn.ngram_set(tuple(tokens), n_values) == expected


class TestOverlapRate:
    def test_half(self):
        assert tn.overlap_rate({"a", "b"}, {"b", "c"}) == 0.5

    def test_empty_statement(self):
        assert tn.overlap_rate(set(), {"a"}) == 0.0

    def test_identity(self):
        grams = {"a", "b", "c", "d"}
        assert tn.overlap_rate(grams, grams) == 1.0

    @given(st.sets(st.sampled_from("abcdef"), min_size=1),
           st.sets(st.sampled_from("abcdef")),
           st.sampled_from("abcdef"))
    def test_monotone_in_intersection(self, stmt, row, extra):
        base = tn.overlap_rate(stmt, row)
        assert tn.overlap_rate(stmt | {extra}, row | {extra}) * (len(stmt | {extra})) >= base * len(stmt) - 1e-12
        # adding a shared gram to the row side never decreases the rate
        assert tn.overlap_rate(stmt, row | (stmt & {extra})) >= base

    @given(st.sets(st.tuples(st.sampled_from("abc"), st.sampled_from("abc"))),
           st.sets(st.tuples(st.sampled_from("abc"), st.sampled_from("abc"))))
    @example(set(), {("a", "b")})  # no statement grams
    def test_tuple_of_distinct_grams_equals_set(self, stmt, row):
        """The donor pool of ``augment`` passes its statement words as a
        tuple of distinct tokens."""
        assert tn.overlap_rate(tuple(stmt), row) == tn.overlap_rate(stmt, row)
