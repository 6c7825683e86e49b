import math
import random

import pytest
from hypothesis import example, given, settings, strategies as st

from tabverify import corpus as cp, textnorm
from tabverify.augment import (AugmentConfig, _donor_draws, _table_unigram_bag,
                               generate_unknown, merge_corpora)
from conftest import corpus_bytes, make_statement, make_table


def corpus_of(spec):
    """spec: list of (table_id, [statement texts])."""
    docs = []
    for tid, texts in spec:
        stmts = [make_statement(f"s{i}", text, cp.Label.ENTAILED if i % 2 == 0 else cp.Label.REFUTED)
                 for i, text in enumerate(texts)]
        docs.append(make_table([["head"], [f"cell {tid}"]], table_id=tid, statements=stmts))
    return docs


class TestMergeCorpora:
    def test_concatenation(self):
        base = corpus_of([("a", ["x"]), ("b", ["y"])])
        ext = corpus_of([("c", ["z"])])
        merged = merge_corpora(base, ext)
        assert len(merged) == 3
        assert merged[2].table_id == "ext:c"

    def test_empty_external_is_identity(self):
        base = corpus_of([("a", ["x"])])
        assert merge_corpora(base, []) == base

    def test_collision_names_id(self):
        base = corpus_of([("ext:a", ["x"])])
        ext = corpus_of([("a", ["y"])])
        with pytest.raises(ValueError, match="^duplicate table_id after merge: 'ext:a'$"):
            merge_corpora(base, ext)


def reference_draws(seed, pool_size, first_donor, n):
    """The first ``n`` draws of ``random.Random(seed)`` over the pool that
    land on a donor, one of the pool indices from ``first_donor`` on."""
    rng, draws = random.Random(seed), []
    while len(draws) < n:
        idx = rng.randrange(pool_size)
        if idx >= first_donor:
            draws.append(idx)
    return draws


def donor_corpus(target_cell, donor_texts):
    """Table "a" holding ``target_cell``, with two statements sharing no word
    with it (so it asks for one Unknown statement), then table "b" whose
    statements are the donors."""
    return [make_table([["head"], [target_cell]], table_id="a",
                       statements=[make_statement("s0", "x1 y1", cp.Label.ENTAILED),
                                   make_statement("s1", "x2 y2", cp.Label.REFUTED)]),
            make_table([["head"], ["zz"]], table_id="b",
                       statements=[make_statement(f"s{i}", text, cp.Label.ENTAILED)
                                   for i, text in enumerate(donor_texts)])]


def label_counts(doc):
    counts = {label: 0 for label in cp.Label}
    for st_ in doc.statements:
        counts[st_.gold_label] += 1
    return counts


class TestGenerateUnknown:
    def test_floor_of_half(self):
        docs = corpus_of([("a", ["p q", "r s", "t u", "v w"]),
                          ("b", ["m n", "o p"])])
        out, warnings = generate_unknown(docs, AugmentConfig(rng_seed=1))
        assert label_counts(out[0])[cp.Label.UNKNOWN] == 2
        assert label_counts(out[1])[cp.Label.UNKNOWN] == 1
        assert not warnings

    def test_single_statement_gets_none(self):
        docs = corpus_of([("a", ["p q"]), ("b", ["m n", "o p"])])
        out, _ = generate_unknown(docs, AugmentConfig(rng_seed=1))
        assert label_counts(out[0])[cp.Label.UNKNOWN] == 0

    def test_entailed_refuted_untouched(self):
        docs = corpus_of([("a", ["p", "q", "r"]), ("b", ["s", "t"])])
        out, _ = generate_unknown(docs, AugmentConfig(rng_seed=7))
        for before, after in zip(docs, out):
            b, a = label_counts(before), label_counts(after)
            assert (b[cp.Label.ENTAILED], b[cp.Label.REFUTED]) == \
                   (a[cp.Label.ENTAILED], a[cp.Label.REFUTED])
            assert after.statements[:len(before.statements)] == before.statements

    def test_same_seed_bit_identical(self, tmp_path):
        docs = corpus_of([("a", ["p q", "r s", "t u"]), ("b", ["m n", "o p"]),
                          ("c", ["x y", "z w", "q r", "s t"])])
        config = AugmentConfig(rng_seed=42)
        out1, _ = generate_unknown(docs, config)
        out2, _ = generate_unknown(docs, config)
        assert corpus_bytes(out1, tmp_path / "1.jsonl") == corpus_bytes(out2, tmp_path / "2.jsonl")

    def test_different_seed_can_differ(self, tmp_path):
        docs = corpus_of([("a", ["p q", "r s"]), ("b", ["m n", "o p"]),
                          ("c", ["x y", "z w"]), ("d", ["k l", "ij h"])])
        outs = set()
        for seed in range(20):
            out, _ = generate_unknown(docs, AugmentConfig(rng_seed=seed))
            outs.add(corpus_bytes(out, tmp_path / "out.jsonl"))
        assert len(outs) > 1

    def test_appended_ids_unique_and_unknown(self):
        docs = corpus_of([("a", ["p", "q", "r", "s"]), ("b", ["t", "u"])])
        out, _ = generate_unknown(docs, AugmentConfig(rng_seed=3))
        for doc in out:
            ids = [st_.stmt_id for st_ in doc.statements]
            assert len(ids) == len(set(ids))
            for st_ in doc.statements[len(ids) - label_counts(doc)[cp.Label.UNKNOWN]:]:
                assert st_.gold_label == cp.Label.UNKNOWN
                assert st_.gold_evidence is None

    def test_pool_exhausted_warns(self):
        # table a wants floor(6/2)=3 but only 1 donor statement exists
        docs = corpus_of([("a", ["p1", "p2", "p3", "p4", "p5", "p6"]),
                          ("b", ["only one"])])
        out, warnings = generate_unknown(docs, AugmentConfig(rng_seed=1))
        assert warnings == [{"table_id": "a", "requested": 3, "appended": 1}]
        assert label_counts(out[0])[cp.Label.UNKNOWN] == 1

    def test_guard_rejects_leaky_donors(self):
        # donor statement fully contained in target table -> guarded out when
        # a clean alternative exists
        docs = [
            make_table([["head"], ["alpha beta"]], table_id="a",
                       statements=[make_statement("s0", "x1 y1", cp.Label.ENTAILED),
                                   make_statement("s1", "x2 y2", cp.Label.REFUTED)]),
            make_table([["head"], ["zz"]], table_id="b",
                       statements=[make_statement("s0", "alpha beta", cp.Label.ENTAILED)]),
            make_table([["head"], ["ww"]], table_id="c",
                       statements=[make_statement("s0", "clean words", cp.Label.ENTAILED)]),
        ]
        for seed in range(10):
            out, _ = generate_unknown(docs, AugmentConfig(rng_seed=seed))
            added = out[0].statements[2:]
            assert [st_.text for st_ in added] == ["clean words"]

    def test_guard_accepts_leak_equal_to_threshold(self):
        """Donor "alpha zz" shares half its unigrams with table a, exactly
        the threshold, so the first donor drawn is kept whichever it is."""
        donors = ["alpha zz", "yy zz"]
        for seed in range(10):
            out, _ = generate_unknown(donor_corpus("alpha", donors), AugmentConfig(rng_seed=seed))
            first = reference_draws(seed, 4, 2, 1)[0]
            assert [st_.text for st_ in out[0].statements[2:]] == [donors[first - 2]]

    def test_every_donor_leaks_keeps_least_leaky_of_ten_draws(self):
        # leaks 1, 4/5, 3/4, 2/3, 3/5 and 4/7 against table a's words
        donors = ["alpha beta gamma delta", "alpha beta gamma delta zz", "alpha beta gamma zz",
                  "alpha beta zz", "alpha beta gamma zz yy", "alpha beta gamma delta z1 z2 z3"]
        leaks = [1, 4 / 5, 3 / 4, 2 / 3, 3 / 5, 4 / 7]
        for seed in range(40):
            out, _ = generate_unknown(donor_corpus("alpha beta gamma delta", donors),
                                      AugmentConfig(rng_seed=seed))
            best = min(reference_draws(seed, 8, 2, 10), key=lambda idx: leaks[idx - 2])
            assert [st_.text for st_ in out[0].statements[2:]] == [donors[best - 2]]

    def test_repeated_word_counts_once_toward_leak(self):
        """Donor "alpha beta beta beta zz" leaks 2 of its 3 distinct words
        into table a, over the threshold; 2 of its 5 words would not be."""
        donors = ["alpha beta beta beta zz", "yy zz"]
        for seed in range(10):
            out, _ = generate_unknown(donor_corpus("alpha beta", donors),
                                      AugmentConfig(rng_seed=seed))
            clean_drawn = 3 in reference_draws(seed, 4, 2, 10)
            assert [st_.text for st_ in out[0].statements[2:]] == [donors[clean_drawn]]

    def test_donor_draws_stop_after_ten_eligible(self):
        draws = list(_donor_draws(random.Random(0), 6, lambda idx: idx >= 2))
        assert draws == reference_draws(0, 6, 2, 10)

    def test_donor_draws_scan_pool_when_no_draw_is_eligible(self):
        # 1000 draws from a million indices miss the one eligible index
        assert list(_donor_draws(random.Random(0), 10 ** 6, lambda idx: idx == 7)) == [7]
        assert list(_donor_draws(random.Random(0), 5, lambda idx: False)) == []

    def test_appended_id_avoids_existing_ids(self):
        docs = corpus_of([("a", ["p q", "r s"]), ("b", ["m n", "o p"])])
        docs[0] = make_table([["head"], ["cell a"]], table_id="a", statements=[
            make_statement("unk-1", "p q", cp.Label.ENTAILED),
            make_statement("unk-1x", "r s", cp.Label.REFUTED)])
        out, _ = generate_unknown(docs, AugmentConfig(rng_seed=1))
        assert [st_.stmt_id for st_ in out[0].statements] == ["unk-1", "unk-1x", "unk-1xx"]

    def test_guard_zero_disables(self):
        docs = [
            make_table([["head"], ["alpha beta"]], table_id="a",
                       statements=[make_statement("s0", "x1 y1", cp.Label.ENTAILED),
                                   make_statement("s1", "x2 y2", cp.Label.REFUTED)]),
            make_table([["head"], ["zz"]], table_id="b",
                       statements=[make_statement("s0", "alpha beta", cp.Label.ENTAILED)]),
        ]
        out, _ = generate_unknown(docs, AugmentConfig(rng_seed=0, guard_threshold=0))
        assert [st_.text for st_ in out[0].statements[2:]] == ["alpha beta"]

    def test_requires_two_tables(self):
        with pytest.raises(ValueError, match="^generate_unknown requires at least 2 tables$"):
            generate_unknown(corpus_of([("a", ["x"])]), AugmentConfig(rng_seed=0))

    def test_invalid_ratio(self):
        with pytest.raises(ValueError, match=r"^unknown_ratio must be in \(0, 1\], got 0$"):
            AugmentConfig(rng_seed=0, unknown_ratio=0)
        with pytest.raises(ValueError, match=r"^unknown_ratio must be in \(0, 1\], got 1\.5$"):
            AugmentConfig(rng_seed=0, unknown_ratio=1.5)

    @given(st.integers(0, 2 ** 32), st.sampled_from([0.25, 0.5, 1.0]))
    @settings(max_examples=25, deadline=None)
    def test_quota_bound_property(self, seed, ratio):
        docs = corpus_of([("a", ["p q", "r s", "t u"]), ("b", ["m n"]),
                          ("c", ["x y", "z w", "q r", "s t", "u v"])])
        out, _ = generate_unknown(docs, AugmentConfig(rng_seed=seed, unknown_ratio=ratio))
        for before, after in zip(docs, out):
            s = len(before.statements)
            added = len(after.statements) - s
            assert added <= math.floor(s * ratio)


# Letters whose lowercase is ASCII (the Kelvin sign, dotted capital I) or
# depends on the next letter (capital sigma: final or not), abbreviation keys
# and the separators around them.
BAG_TEXT = st.lists(st.sampled_from(
    ["K", "\u212a", "\u03a3", "\u0391", "\u0130", "i", "s", "no", "max", "pts", "ing",
     "0", " ", ".", "-"]), max_size=8).map("".join) | st.text(max_size=6)


class TestTableUnigramBag:
    @given(st.lists(st.lists(BAG_TEXT, max_size=4), max_size=4), BAG_TEXT,
           st.sampled_from([None, textnorm.default_abbrevs()]))
    @settings(max_examples=300, deadline=None)
    @example([["\u212aelvin"], ["\u0391\u03a3", "\u03a3\u0391"]], "\u0130stanbul",
             textnorm.default_abbrevs())
    @example([["\u212aelvin"], ["\u0391\u03a3", "\u03a3\u0391"]], "\u0130stanbul", None)
    def test_equals_union_of_cell_sets(self, rows, caption, abbrevs):
        """One normalize over the texts joined by spaces gives the tokens of
        every cell and of the caption, normalized one by one."""
        doc = make_table(rows, caption=caption)
        cells = [cell for row in doc.grid for cell in row]
        expected = set().union(*(textnorm.normalize(text, abbrevs)
                                 for text in [*cells, caption]))
        assert _table_unigram_bag(doc, abbrevs) == expected
