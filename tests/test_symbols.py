import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proofmatch.corpus import (
    Corpus, Font, FormatError, PairRecord, Token, math_token, read_corpus,
    text_token, write_corpus)
from proofmatch.errors import InvalidValue
from proofmatch.symbols import (
    CONSERVATION,
    FULL,
    PARTIAL,
    TRANSPOSITION,
    Level,
    PoolExhausted,
    ReplacementLevel,
    ReplacementMap,
    SymbolKey,
    build_replacement_map,
    read_protected_set,
    replace_corpus,
    replace_pair,
    symbol_key,
)
from conftest import letter_corpus, probability_protected, rebuilt_tokens
from replace_reference import replace_pair_reference


def pair_with(statement_syms, proof_syms, pair_id="p0", extra_proof=()):
    filler = [text_token(w) for w in ("suppose", "that", "holds")]
    return PairRecord(
        pair_id, "a1", [],
        statement=[math_token(s) for s in statement_syms] + filler,
        proof=[math_token(s) for s in proof_syms] + list(extra_proof) + filler,
    )


# Tokens of the running example  a_n = a_{n-1} + a_{n-2}
RECURRENCE = [math_token(s) for s in
              ["a", "n", "=", "a", "n", "−", "1", "+", "a", "n", "−", "2"]]
RECURRENCE_PAIR = PairRecord("rec", "a1", [], RECURRENCE, RECURRENCE)

LATIN = "abcdefghijklmnopqrstuvwxyz"
GREEK = "αβγδεζηθικλμνξοπρστυφχψω"


def surfaces(tokens):
    return [t.surface for t in tokens]


def renamed_keys(pair, protected=None):
    """Keys of the proof tokens that full replacement renames, which are
    exactly the pair's shared symbols: every one is renamed, nothing else."""
    out = replace_pair(pair, FULL, protected)
    return {symbol_key(old) for old, new in zip(pair.proof, out.proof)
            if new != old}


class TestSymbolKey:
    def test_case_folds(self):
        assert symbol_key(math_token("A")) == symbol_key(math_token("a"))

    def test_multi_letter_not_candidate(self):
        assert symbol_key(math_token("sin")) is None

    def test_text_not_candidate(self):
        assert symbol_key(text_token("a")) is None

    def test_double_struck_not_candidate(self):
        assert symbol_key(math_token("r", Font.DOUBLE_STRUCK)) is None

    def test_greek_candidate(self):
        assert symbol_key(math_token("λ")) == SymbolKey("λ")

    def test_order_is_base_then_font_value(self):
        # build_replacement_map sorts keys by value; this is the order
        # the seeded draws have always been made in
        keys = [SymbolKey(b, f) for b in "bBaβ" for f in Font]
        assert sorted(keys) == sorted(keys, key=lambda k: (k.base, k.font.value))


class TestExtractShared:
    def test_intersection(self):
        pair = pair_with(["a", "n"], ["a", "n", "t"])
        assert renamed_keys(pair) == {SymbolKey("a"), SymbolKey("n")}

    def test_constants_excluded(self):
        pair = pair_with(["π", "a"], ["π", "a"])
        assert renamed_keys(pair) == {SymbolKey("a")}

    def test_double_struck_excluded(self):
        r = math_token("ℝ")  # not a plain letter, never a candidate
        pair = PairRecord("p", "a", [], [r] * 3, [r] * 3)
        assert renamed_keys(pair) == set()

    def test_protected_excluded(self):
        pair = pair_with(["p", "x"], ["P", "x"])
        assert renamed_keys(pair, probability_protected()) == {SymbolKey("x")}


class TestBuildMap:
    def test_conservation_empty(self):
        rmap = build_replacement_map({SymbolKey("a"), SymbolKey("n")},
                                     CONSERVATION, seed=0, forbidden={"a", "n"})
        assert rmap.entries == {}

    def test_full_worked_example(self):
        # a_n = ... becomes x_i = ... for one fresh base x for every a and
        # one fresh base i for every n; test_pinned_text_outputs pins the
        # seeded names
        out = replace_pair(RECURRENCE_PAIR, FULL).proof
        x, i = out[0].surface, out[1].surface
        assert x != i and not {x, i} & {"a", "n"}
        assert out == [math_token(s) for s in
                       [x, i, "=", x, i, "−", "1", "+", x, i, "−", "2"]]

    def test_transposition_worked_example(self):
        # the only derangement of two bases swaps them
        out = replace_pair(RECURRENCE_PAIR, TRANSPOSITION).proof
        assert surfaces(out) == ["n", "a", "=", "n", "a", "−", "1",
                                 "+", "n", "a", "−", "2"]

    def test_partial_half_of_four(self):
        shared = {SymbolKey(c) for c in "anbt"}
        rmap = build_replacement_map(shared, PARTIAL, seed=5,
                                     forbidden=set("anbt"))
        assert len(rmap.entries) == 2  # round(0.5 * 4)

    def test_transposition_is_derangement(self):
        for seed in range(50):
            shared = {SymbolKey(c) for c in "anbt"}
            rmap = build_replacement_map(shared, TRANSPOSITION, seed=seed,
                                         forbidden=set("anbt"))
            assert all(src != dst for src, dst in rmap.entries.items())
            assert len(rmap.entries) == 4

    def test_transposition_singleton_falls_back_to_fresh_name(self):
        rmap = build_replacement_map({SymbolKey("a")}, TRANSPOSITION, seed=1,
                                     forbidden={"a"})
        (src, dst), = rmap.entries.items()
        assert src == SymbolKey("a") and dst.base != "a"

    def test_transposition_deranges_bases_of_font_variants(self):
        # one letter shared in two fonts next to other letters: every key of
        # a base moves to the same new base and keeps its own font
        shared = {SymbolKey("a"), SymbolKey("a", Font.BOLD),
                  SymbolKey("b"), SymbolKey("c")}
        for seed in range(200):
            rmap = build_replacement_map(shared, TRANSPOSITION, seed=seed,
                                         forbidden={"a", "b", "c"})
            assert rmap.entries.keys() == shared
            sigma = {src.base: dst.base for src, dst in rmap.entries.items()}
            assert sorted(sigma.values()) == ["a", "b", "c"]
            assert all(src != dst for src, dst in sigma.items())
            for key, target in rmap.entries.items():
                assert target == SymbolKey(sigma[key.base], key.font)

    def test_injective_over_random_inputs(self):
        rng = np.random.default_rng(0)
        letters = "abcdefghijkmnopqrstuvwxyz"
        for trial in range(100):
            size = int(rng.integers(1, 8))
            shared = {SymbolKey(letters[i])
                      for i in rng.choice(len(letters), size, replace=False)}
            level = [FULL, PARTIAL, TRANSPOSITION][trial % 3]
            rmap = build_replacement_map(shared, level, seed=trial,
                                         forbidden={k.base for k in shared})
            targets = list(rmap.entries.values())
            assert len(set(targets)) == len(targets)

    def test_non_injective_map_is_invalid_value(self):
        with pytest.raises(InvalidValue, match="not injective"):
            ReplacementMap({SymbolKey("a"): SymbolKey("c"),
                            SymbolKey("b"): SymbolKey("c")})

    def test_pool_exhausted(self):
        # every letter but the shared one is protected: no fresh name is left
        others = frozenset(c for c in LATIN + GREEK if c != "a")
        pair = pair_with(["a"], ["a"])
        with pytest.raises(PoolExhausted, match="pool has 0"):
            replace_pair(pair, FULL, others)


class TestApply:
    def test_case_paired(self):
        # swapping a and b renames the capital A with its lower-case key
        pair = pair_with(["a", "b"], ["a", "A", "b", "∑"])
        out = replace_pair(pair, TRANSPOSITION).proof
        assert surfaces(out)[:4] == ["b", "B", "a", "∑"]

    def test_empty_map_identity(self):
        # nothing shared: every level leaves the proof as it was
        pair = pair_with(["x"], ["a"], extra_proof=[text_token("so")])
        for level in (CONSERVATION, PARTIAL, FULL, TRANSPOSITION):
            assert replace_pair(pair, level).proof == pair.proof

    def test_inverse_composition(self):
        # a two-base transposition is its own inverse
        pair = pair_with(["a", "n"], ["a", "A", "x", "n"])
        once = replace_pair(pair, TRANSPOSITION)
        assert surfaces(once.proof)[:4] == ["n", "N", "x", "a"]
        assert replace_pair(once, TRANSPOSITION).proof == pair.proof

    def test_font_channel_preserved(self):
        # the bold keys are shared and swap within bold; the normal-font a
        # occurs only in the proof and is left alone
        bold_a, bold_b = math_token("a", Font.BOLD), math_token("b", Font.BOLD)
        pair = PairRecord("p0", "a1", [], [bold_a, bold_b],
                          [bold_a, math_token("a"), bold_b])
        out = replace_pair(pair, TRANSPOSITION).proof
        assert out == [bold_b, math_token("a"), bold_a]


class TestReplaceCorpus:
    def test_conservation_identity(self):
        corpus = Corpus([pair_with(["a", "n"], ["a", "n"], "p1"),
                         pair_with(["x"], ["x", "y"], "p2")])
        assert replace_corpus(corpus, CONSERVATION, seed=9).pairs == corpus.pairs

    def test_deterministic(self):
        corpus = Corpus([pair_with(["a", "n"], ["a", "n"], f"p{i}")
                         for i in range(5)])
        a = replace_corpus(corpus, FULL, seed=3)
        b = replace_corpus(corpus, FULL, seed=3)
        assert a.pairs == b.pairs

    def test_statement_immutable_and_length_preserved(self):
        rng = np.random.default_rng(2)
        corpus = Corpus([pair_with(list("abc"), list("abcd"), f"p{i}")
                         for i in range(10)])
        for level in (PARTIAL, FULL, TRANSPOSITION):
            out = replace_corpus(corpus, level, seed=int(rng.integers(1 << 30)))
            for before, after in zip(corpus.pairs, out.pairs):
                assert after.statement == before.statement
                assert len(after.proof) == len(before.proof)

    def test_single_pair_replay(self):
        corpus = Corpus([pair_with(["a"], ["a"], f"p{i}") for i in range(4)])
        full = replace_corpus(corpus, FULL, seed=17)
        solo = replace_pair(corpus.pairs[2], FULL, seed=17)
        assert solo == full.pairs[2]

    def test_conservation_copies_each_proof(self):
        corpus = Corpus([pair_with(["a"], ["a", "b"], "p1")])
        out = replace_corpus(corpus, CONSERVATION, seed=1)
        assert out.pairs[0].proof == corpus.pairs[0].proof
        assert out.pairs[0].proof is not corpus.pairs[0].proof

    def test_one_object_per_renamed_surface_and_font(self):
        # every pair builds fresh token objects; 20 pairs draw fresh names
        # from 23 letters, so some renamed (surface, font) recurs across pairs
        corpus = Corpus([pair_with(["a", "n"], ["a", "A", "n", "a"], f"p{i}",
                                   extra_proof=[math_token("a", Font.BOLD)])
                         for i in range(20)])
        out = replace_corpus(corpus, FULL, seed=4)
        objects, pairs_of = {}, {}
        for i, (before, after) in enumerate(zip(corpus.pairs, out.pairs)):
            for old, new in zip(before.proof, after.proof):
                if new is not old:
                    objects.setdefault((new.surface, new.font), set()).add(id(new))
                    pairs_of.setdefault((new.surface, new.font), set()).add(i)
        assert any(len(pairs) > 1 for pairs in pairs_of.values())
        assert all(len(ids) == 1 for ids in objects.values())

    @pytest.mark.parametrize("level", [PARTIAL, TRANSPOSITION],
                             ids=lambda lv: lv.level.value)
    def test_one_object_per_renamed_token_at_other_levels(self, level):
        # a renamed token is one object per (surface, font) in the whole
        # output, also where it equals a token the input already had
        corpus = Corpus([pair_with(["a", "n", "x"], ["a", "A", "n", "x", "a"],
                                   f"p{i}") for i in range(20)])
        out = replace_corpus(corpus, level, seed=6)
        renamed = [new for before, after in zip(corpus.pairs, out.pairs)
                   for old, new in zip(before.proof, after.proof) if new is not old]
        objects = {}
        for new in renamed:
            objects.setdefault(new, set()).add(id(new))
        assert len(renamed) > len(objects) > 1
        assert all(len(ids) == 1 for ids in objects.values())

    def test_equal_tokens_need_not_be_one_object(self, tmp_path):
        # the reader shares one Token per distinct item; rebuilt field by
        # field, every occurrence is its own object and nothing changes
        write_corpus(letter_corpus(np.random.default_rng(5), 30), tmp_path / "c.tsv")
        shared = read_corpus(tmp_path / "c.tsv")
        rebuilt = rebuilt_tokens(shared)
        assert rebuilt.pairs[0].proof[0] is not shared.pairs[0].proof[0]
        for level in (PARTIAL, FULL, TRANSPOSITION):
            out = replace_corpus(shared, level, probability_protected(), seed=11)
            assert out.pairs != shared.pairs  # some symbols were renamed
            assert replace_corpus(rebuilt, level, probability_protected(),
                                  seed=11).pairs == out.pairs

    def test_protection_preserves_occurrence_counts(self):
        protected = probability_protected()
        pair = pair_with(["p", "σ", "x"], ["P", "p", "σ", "x"], "pp")
        corpus = Corpus([pair])
        for level in (PARTIAL, FULL, TRANSPOSITION):
            out = replace_corpus(corpus, level, protected, seed=23)
            for sym in ("P", "p", "σ"):
                before = sum(t.surface == sym for t in pair.proof)
                after = sum(t.surface == sym for t in out.pairs[0].proof)
                assert after == before


class TestProtectedSetFile:
    def test_round_trip(self, tmp_path):
        path = tmp_path / "prot.txt"
        path.write_text("# probability\nP\nσ\nx#bold\n", encoding="utf-8")
        assert read_protected_set(path) == frozenset("pσx")

    def test_font_sigil_protects_every_font(self, tmp_path):
        # x#bold protects the letter x: a normal-font x shared by the pair
        # is not renamed, while the unprotected y is
        path = tmp_path / "prot.txt"
        path.write_text("x#bold\n", encoding="utf-8")
        protected = read_protected_set(path)
        pair = pair_with(["x", "y"], ["x", "y"])
        assert renamed_keys(pair, protected) == {SymbolKey("y")}

    @pytest.mark.parametrize("line", ["sin", "1", "R#dstruck", "ℝ", "xy#bold"])
    def test_non_candidate_symbol_names_line(self, tmp_path, line):
        # replacement never renames these, so listing one protects nothing;
        # R#dstruck would protect the ordinary r, a different symbol
        path = tmp_path / "prot.txt"
        path.write_text(f"# set\nP\n{line}\n", encoding="utf-8")
        with pytest.raises(FormatError, match="single Latin or Greek letter") as err:
            read_protected_set(path)
        assert err.value.line == 3
        assert str(err.value).startswith(f"{path}: line 3, col 0: ")

    def test_unknown_font_names_line(self, tmp_path):
        path = tmp_path / "prot.txt"
        path.write_text("P\nx#zz\n", encoding="utf-8")
        with pytest.raises(FormatError) as err:
            read_protected_set(path)
        assert err.value.line == 2

    def test_default_probability_set(self, tmp_path):
        # the paper's probability set as a --protected file (see README)
        path = tmp_path / "probability.txt"
        path.write_text("P\nE\nV\nσ\nρ\n", encoding="utf-8")
        assert read_protected_set(path) == probability_protected()
        assert probability_protected() == {"p", "e", "v", "σ", "ρ"}


# Case variants in several fonts, double-struck letters, the constants,
# multi-letter and non-letter math, and text that looks like a letter.
LETTERS = "abxyABXYλΛπΠeE"
FONTS = [Font.NORMAL, Font.BOLD, Font.SCRIPT, Font.DOUBLE_STRUCK]
symbols = st.one_of(
    st.builds(math_token, st.sampled_from(LETTERS), st.sampled_from(FONTS)),
    st.builds(math_token, st.sampled_from(["sin", "ab", "=", "1", "ℝ"])),
    st.builds(text_token, st.sampled_from(["a", "x", "so"])),
)
protected_sets = st.none() | st.frozensets(st.sampled_from("abxλ"))


@settings(max_examples=300, deadline=None)
@given(st.lists(symbols, max_size=12), st.lists(symbols, max_size=12),
       st.sampled_from(["p0", "p1", "a:b"]), protected_sets,
       st.integers(0, 2**32), st.sampled_from([0.0, 0.3, 0.5, 1.0]))
def test_replace_pair_matches_per_occurrence_reference(
        statement, proof, pair_id, protected, seed, alpha):
    pair = PairRecord(pair_id, "a1", [], statement, proof)
    for level in Level:
        replacement = ReplacementLevel(level, alpha)
        expected = replace_pair_reference(pair, replacement, protected, seed)
        assert replace_pair(pair, replacement, protected, seed) == expected


def _corpus_of(docs, share):
    """Pairs p0, p1, ... of ``docs``. With ``share``, equal tokens are one
    object across the corpus, as the readers make them; without, every
    occurrence is a fresh, equal object."""
    if share:
        pool = {}
        make = lambda doc: [pool.setdefault(t, t) for t in doc]  # noqa: E731
    else:
        make = lambda doc: [Token(t.kind, t.surface, t.font) for t in doc]  # noqa: E731
    return Corpus([PairRecord(f"p{i}", "a1", [], make(s), make(p))
                   for i, (s, p) in enumerate(docs)])


# Few letters, so that one token recurs across the pairs of a corpus and is
# renamed in some pairs but not in others.
corpus_symbols = st.one_of(
    st.builds(math_token, st.sampled_from("abxAB"), st.sampled_from(FONTS[:2])),
    symbols)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(st.lists(corpus_symbols, max_size=12),
                          st.lists(corpus_symbols, max_size=12)),
                min_size=1, max_size=6),
       st.booleans(), protected_sets, st.integers(0, 2**32),
       st.sampled_from([0.0, 0.5, 1.0]))
def test_replace_corpus_matches_per_occurrence_reference(
        docs, share, protected, seed, alpha):
    corpus = _corpus_of(docs, share)
    for level in Level:
        replacement = ReplacementLevel(level, alpha)
        out = replace_corpus(corpus, replacement, protected, seed)
        assert out.pairs == [replace_pair_reference(p, replacement, protected, seed)
                             for p in corpus.pairs]
