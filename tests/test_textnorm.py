import pathlib

import pytest
from hypothesis import given, strategies as st

from tabverify import textnorm as tn


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

    def test_empty_suffix_rejected(self, monkeypatch):
        monkeypatch.setattr(tn, "_load_lines", lambda name: iter(["s\t\t3\t-", "\t\t3\t-"]))
        with pytest.raises(ValueError, match="empty suffix"):
            tn._load_stem_rules()


class TestAbbrevTable:
    def test_cycle_rejected(self):
        with pytest.raises(tn.AbbrevError):
            tn.make_abbrev_table([("no", "no more")])

    def test_uppercase_key_rejected(self):
        with pytest.raises(tn.AbbrevError):
            tn.make_abbrev_table([("No", "number")])

    def test_file_roundtrip(self, tmp_path):
        path = tmp_path / "abbrevs.tsv"
        path.write_text("# comment\nno\tnumber\navg\taverage\n", "utf-8")
        table = tn.load_abbrev_file(path)
        assert table == {"no": ("number",), "avg": ("average",)}

    def test_malformed_line(self, tmp_path):
        path = tmp_path / "abbrevs.tsv"
        path.write_text("justoneword\n", "utf-8")
        with pytest.raises(tn.AbbrevError):
            tn.load_abbrev_file(path)

    @pytest.mark.parametrize("line", ["no number", "\tnumber", "no\t "])
    def test_line_without_tab_and_full_form_rejected(self, tmp_path, line):
        path = tmp_path / "abbrevs.tsv"
        path.write_text(f"avg\taverage\n{line}\n", "utf-8")
        with pytest.raises(tn.AbbrevError, match="expected 'abbrev<TAB>full form'"):
            tn.load_abbrev_file(path)

    def test_blank_lines_comments_and_padding(self, tmp_path):
        path = tmp_path / "abbrevs.tsv"
        path.write_text("\n   \n  # comment\n avg \t average \r\n", "utf-8")
        assert tn.load_abbrev_file(path) == {"avg": ("average",)}

    def test_shipped_table_through_file_reader(self):
        shipped = pathlib.Path(tn.__file__).parent / "data" / "abbreviations.tsv"
        assert tn.load_abbrev_file(shipped) == tn.default_abbrevs()

    def test_default_table_loads(self):
        table = tn.default_abbrevs()
        assert table["no"] == ("number",)
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
