import pickle

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from proofmatch.cli import _parse_raw_item
from proofmatch.errors import InvalidValue
from proofmatch.corpus import (
    Corpus,
    EmptyCorpus,
    FilterResult,
    Font,
    FormatError,
    MissingArticleIds,
    PairRecord,
    SplitMode,
    SplitSpec,
    Token,
    TokenKind,
    filter_channel,
    _ESCAPES,
    _escape,
    _unescape,
    filter_pair,
    format_record,
    format_token,
    item_memo,
    math_token,
    parse_item,
    parse_record,
    parse_tokens,
    read_corpus,
    read_records,
    split_corpus,
    text_token,
    write_corpus,
)
from conftest import random_corpus

# Few surfaces and fonts, so that drawn tokens are often equal.
tokens = st.one_of(
    st.builds(Token, st.just(TokenKind.TEXT), st.sampled_from(["a", "b", "%"]),
              st.just(Font.NORMAL)),
    st.builds(Token, st.just(TokenKind.MATH), st.sampled_from(["a", "b", "∑"]),
              st.sampled_from([Font.NORMAL, Font.BOLD])),
)


def make_pair(pair_id, n_stmt, n_proof, article="a"):
    return PairRecord(pair_id, article, ["math.NT"],
                      [text_token(f"s{i}") for i in range(n_stmt)],
                      [text_token(f"p{i}") for i in range(n_proof)])


class TestToken:
    def test_rejects_whitespace_surface(self):
        with pytest.raises(ValueError):
            Token(TokenKind.TEXT, "a b")

    def test_rejects_empty_surface(self):
        with pytest.raises(ValueError):
            Token(TokenKind.TEXT, "")

    def test_text_math_disjoint(self):
        assert text_token("a") != math_token("a")

    def test_fonts_distinguish_math_tokens(self):
        assert math_token("x", Font.BOLD) != math_token("x")

    def test_text_token_font_must_be_normal(self):
        with pytest.raises(ValueError, match="normal font"):
            Token(TokenKind.TEXT, "a", Font.BOLD)

    def test_every_constructor_validates(self):
        with pytest.raises(ValueError, match="whitespace"):
            text_token("a")._replace(surface="a b")
        with pytest.raises(ValueError, match="normal font"):
            Token._make([TokenKind.TEXT, "x", Font.BOLD])
        assert math_token("x")._replace(font=Font.BOLD) == math_token("x", Font.BOLD)

    @given(tokens, tokens)
    def test_equality_hash_and_immutable_fields(self, a, b):
        assert (a == b) == ((a.kind, a.surface, a.font)
                            == (b.kind, b.surface, b.font))
        first = hash(a)
        if a == b:
            assert hash(b) == first
        with pytest.raises(AttributeError):
            a.surface = "z"
        assert hash(a) == first
        assert hash(Token(a.kind, a.surface, a.font)) == first
        assert Token._fields == ("kind", "surface", "font")
        assert repr(a) == (f"Token(kind={a.kind!r}, surface={a.surface!r}, "
                           f"font={a.font!r})")
        assert not hasattr(a, "__dict__")  # no per-instance state

    @given(tokens)
    def test_hash_is_the_hash_of_the_field_values(self, tok):
        # the hash the token layer has always used, so set and dict orders
        # under a fixed PYTHONHASHSEED do not move
        assert hash(tok) == hash((tok.kind.value, tok.surface, tok.font.value))

    @given(tokens)
    def test_pickle_round_trip_revalidates(self, tok):
        copy = pickle.loads(pickle.dumps(tok))
        assert copy == tok and type(copy) is Token
        assert not hasattr(copy, "__dict__")
        # unpickling rebuilds the token through the validating constructor:
        # one made around it does not survive the round trip
        bad = tuple.__new__(Token, (tok.kind, tok.surface + " z", tok.font))
        with pytest.raises(ValueError, match="whitespace"):
            pickle.loads(pickle.dumps(bad))


class TestFilterPair:
    def test_too_short_statement(self):
        assert filter_pair(make_pair("p", 19, 50)) is FilterResult.REJECT_TOO_SHORT

    def test_inclusive_boundaries(self):
        assert filter_pair(make_pair("p", 20, 500)) is FilterResult.KEEP

    def test_too_long_proof(self):
        assert filter_pair(make_pair("p", 40, 501)) is FilterResult.REJECT_TOO_LONG


class TestSplit:
    def test_mixed_floor_counts(self):
        corpus = Corpus([make_pair(f"p{i}", 2, 2) for i in range(10)])
        train, dev, test = split_corpus(corpus, SplitSpec(seed=1))
        assert (len(train), len(dev), len(test)) == (8, 1, 1)

    def test_unmixed_purity(self):
        pairs = []
        sizes = {"a1": 5, "a2": 3, "a3": 2}
        for art, count in sizes.items():
            pairs.extend(make_pair(f"{art}-{i}", 2, 2, art) for i in range(count))
        corpus = Corpus(pairs)
        parts = split_corpus(corpus, SplitSpec(mode=SplitMode.UNMIXED, seed=3))
        placed = {}
        for index, part in enumerate(parts):
            for p in part.pairs:
                assert placed.setdefault(p.article_id, index) == index

    def test_partition_no_loss_no_duplication(self):
        rng = np.random.default_rng(0)
        corpus = random_corpus(rng, 37, n_articles=6)
        for seed in range(20):
            for mode in SplitMode:
                parts = split_corpus(corpus, SplitSpec(mode=mode, seed=seed))
                ids = [p.pair_id for part in parts for p in part.pairs]
                assert sorted(ids) == sorted(p.pair_id for p in corpus.pairs)

    def test_determinism(self):
        rng = np.random.default_rng(1)
        corpus = random_corpus(rng, 25)
        spec = SplitSpec(seed=11)
        a = split_corpus(corpus, spec)
        b = split_corpus(corpus, spec)
        for pa, pb in zip(a, b):
            assert [p.pair_id for p in pa.pairs] == [p.pair_id for p in pb.pairs]

    def test_empty_corpus_rejected(self):
        with pytest.raises(EmptyCorpus):
            split_corpus(Corpus([]), SplitSpec())

    def test_unmixed_requires_article_ids(self):
        corpus = Corpus([make_pair("p0", 2, 2, article="")])
        with pytest.raises(MissingArticleIds):
            split_corpus(corpus, SplitSpec(mode=SplitMode.UNMIXED))

    def test_bad_ratios_rejected(self):
        with pytest.raises(ValueError):
            SplitSpec(ratios=(0.5, 0.2, 0.2))

    @pytest.mark.parametrize("spec", [
        dict(ratios=(0.5, float("nan"), 0.5)),
        dict(ratios=(float("nan"), 0.5, 0.5)),
        dict(mode=SplitMode.UNMIXED, ratios=(float("nan"), 0.5, 0.5)),
        dict(ratios=(float("inf"), -float("inf"), 1.0)),
        dict(ratios=(1.2, -0.2, 0.0)),
        dict(seed=-1),
    ], ids=["nan_dev", "nan_train", "nan_unmixed", "infinite", "negative_ratio",
            "negative_seed"])
    def test_non_finite_ratio_or_negative_seed_rejected(self, spec):
        with pytest.raises(InvalidValue):
            SplitSpec(**spec)


class TestSerialization:
    def test_round_trip_random(self, tmp_path):
        rng = np.random.default_rng(7)
        corpus = random_corpus(rng, 30)
        path = tmp_path / "c.tsv"
        write_corpus(corpus, path)
        back = read_corpus(path)
        assert back.pairs == corpus.pairs

    def test_round_trip_byte_identical(self, tmp_path):
        rng = np.random.default_rng(8)
        corpus = random_corpus(rng, 10)
        p1, p2 = tmp_path / "a.tsv", tmp_path / "b.tsv"
        write_corpus(corpus, p1)
        write_corpus(read_corpus(p1), p2)
        assert p1.read_bytes() == p2.read_bytes()

    def test_empty_file(self, tmp_path):
        path = tmp_path / "empty.tsv"
        path.write_text("")
        with pytest.raises(EmptyCorpus):
            read_corpus(path)

    def test_unknown_sigil_names_line(self, tmp_path):
        path = tmp_path / "bad.tsv"
        path.write_text("p1\ta1\t\tq:oops\tt:fine\n")
        with pytest.raises(FormatError) as err:
            read_corpus(path)
        assert err.value.line == 1

    @pytest.mark.parametrize("parse_item", [parse_item, _parse_raw_item])
    def test_equal_items_share_one_token(self, tmp_path, parse_item):
        path = tmp_path / "c.tsv"
        path.write_text("p1\ta\t\tt:w m:x#bold\tm:x#bold\n"
                        "p2\ta\t\tm:x#bold t:w\tt:w\n")
        first, second = read_records(path, parse_item)
        assert first.statement[1] is first.proof[0] is second.statement[0]
        assert first.statement[0] is second.statement[1] is second.proof[0]

    @pytest.mark.parametrize("parse_item, bad, message", [
        pytest.param(parse_item, "m:x#zz", "unknown font sigil 'zz'",
                     id="parse_item"),
        pytest.param(_parse_raw_item, "m:x#zz", "unknown font sigil 'zz'",
                     id="_parse_raw_item"),
        pytest.param(parse_item, "m:x#normal", "unknown font sigil 'normal'",
                     id="parse_item-normal_sigil"),
        pytest.param(_parse_raw_item, "x:%3Cmath%3E%3Cmi%3Ex%3C/math%3E",
                     "mismatched tag: line 1, column 13",
                     id="_parse_raw_item-malformed_mathml"),
        pytest.param(parse_item, "m:#bold", "empty math surface",
                     id="parse_item-empty_surface"),
    ])
    def test_bad_item_after_memoised_lines_names_line_and_column(
            self, tmp_path, parse_item, bad, message):
        path = tmp_path / "bad.tsv"
        path.write_text("p1\ta\t\tt:ok m:x\tt:ok\n"
                        "p2\ta\t\tt:ok m:x\tt:ok\n"
                        f"p3\ta\t\tt:ok {bad}\tt:ok\n")
        with pytest.raises(FormatError) as err:
            list(read_records(path, parse_item))
        assert (err.value.line, err.value.column) == (3, 11)
        assert str(err.value) == f"{path}: line 3, col 11: {message}"

    def test_write_of_read_is_byte_identical(self, tmp_path):
        text = ("p%3A1\tart%2C1\tmath.NT,math.PR\t"
                "t:a%25b m:x#bold m:%23#fraktur t:c%3Ad m:x\t"
                "m:x#bold m:y t:a%25b m:∑#dstruck m:x#script\n"
                "p2\tart%2C1\t\tm:x#bold t:a%25b t:%2C\tm:%23#fraktur\n")
        src, out = tmp_path / "src.tsv", tmp_path / "out.tsv"
        src.write_bytes(text.encode("utf-8"))
        write_corpus(read_corpus(src), out)
        assert out.read_bytes() == src.read_bytes()

    def test_each_distinct_token_is_formatted_once(self, tmp_path, monkeypatch):
        import proofmatch.corpus as corpus_module
        calls = []

        def counting(tok):
            calls.append(tok)
            return format_token(tok)

        corpus = random_corpus(np.random.default_rng(9), 20)
        monkeypatch.setattr(corpus_module, "format_token", counting)
        write_corpus(corpus, tmp_path / "c.tsv")
        distinct = {t for p in corpus.pairs for t in (*p.statement, *p.proof)}
        assert len(calls) == len(distinct) < sum(
            len(p.statement) + len(p.proof) for p in corpus.pairs)
        assert set(calls) == distinct
        assert read_corpus(tmp_path / "c.tsv").pairs == corpus.pairs

    def test_comments_skipped(self, tmp_path):
        rec = format_record(make_pair("p1", 2, 2))
        path = tmp_path / "c.tsv"
        path.write_text(f"# header\n{rec}\n")
        assert len(read_corpus(path)) == 1

    def test_fields_with_line_breaks_read_back(self, tmp_path):
        # a raw \r in a field would end its line where the file is read
        pair = PairRecord("p\r1", "art\r\n1", ["c\r", "\nd"],
                          [text_token("x")], [math_token("a")])
        path = tmp_path / "c.tsv"
        write_corpus(Corpus([pair]), path)
        assert b"\r" not in path.read_bytes()
        assert read_corpus(path).pairs == [pair]

    def test_escaped_surfaces(self):
        pair = PairRecord("p", "a", [], [text_token("x%#:,")],
                          [math_token("a:b")])
        assert parse_record(format_record(pair), 1) == pair

    def test_duplicate_pair_ids_rejected(self):
        with pytest.raises(ValueError):
            Corpus([make_pair("p", 2, 2), make_pair("p", 3, 3)])


class TestChannelFilter:
    def test_math_only(self):
        w, x = text_token("w"), math_token("x", Font.BOLD)
        corpus = Corpus([PairRecord("p", "a", [], [w, x], [x, w, x])])
        math = filter_channel(corpus, "math").pairs[0]
        assert (math.statement, math.proof) == ([x], [x, x])
        text = filter_channel(corpus, "text").pairs[0]
        assert (text.statement, text.proof) == ([w], [w])
        assert filter_channel(corpus, "both") is corpus
        with pytest.raises(InvalidValue, match="unknown channel: Math"):
            filter_channel(corpus, "Math")


def parse_tokens_by_item(text, line, column, memo, parse_item):
    """A field's tokens, parsing and looking up one item at a time."""
    toks = []
    for item in text.split(" "):
        if item:
            got = memo.get(item)
            if got is None:
                got = memo[item] = parse_item(item, line, column)
            toks.extend(got)
        column += len(item) + 1
    return toks


# Good and bad corpus items, and MathML items that only the ingest parser
# takes; "" pieces make empty fields and repeated and edge spaces.
FIELD_PIECES = ["", "t:a", "t:b", "m:x", "m:x#bold", "t:%25", "m:%3A#script",
                "x:%3Cmath%3E%3Cmi%3Ey%3C/mi%3E%3Cmi%3Ex%3C/mi%3E%3C/math%3E",
                "q:z", "m:x#zz", "t:", "t:a%20b", "x:%3Cmath%3E"]


@settings(max_examples=300, deadline=None)
@given(st.lists(st.lists(st.sampled_from(FIELD_PIECES), max_size=8),
                max_size=6),
       st.sampled_from([parse_item, _parse_raw_item]))
def test_field_parse_matches_the_per_item_loop(fields, parse):
    memo, by_item = item_memo(parse), {}
    for lineno, pieces in enumerate(fields, start=1):
        text = " ".join(pieces)
        try:
            expected = parse_tokens_by_item(text, lineno, 7, by_item, parse)
        except FormatError as exc:
            with pytest.raises(FormatError) as err:
                parse_tokens(text, lineno, 7, memo, parse)
            assert (str(err.value), err.value.line, err.value.column) == (
                str(exc), exc.line, exc.column)
            return
        got = parse_tokens(text, lineno, 7, memo, parse)
        assert got == expected
        # each item's tokens are the ones its first parse made, on any line
        start = 0
        for item in filter(None, pieces):
            toks = memo[item]
            assert all(a is b for a, b in zip(got[start:], toks))
            start += len(toks)
        assert start == len(got)


@given(st.text(alphabet="%\t #:,\n\rab2C0Dé"))
def test_escape_is_the_replacements_in_turn(s):
    chained = s
    for raw, enc in _ESCAPES:
        chained = chained.replace(raw, enc)
    assert _escape(s) == chained
    assert _unescape(_escape(s)) == s
