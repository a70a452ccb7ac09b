"""Statement-proof corpus: token model, on-disk format, filtering and splits.

The corpus file is UTF-8, line-delimited. Each record is one line of
tab-separated fields::

    pair_id<TAB>article_id<TAB>cat1,cat2<TAB>statement-tokens<TAB>proof-tokens

Token lists are space-separated items: ``t:surface`` (text) or
``m:surface`` / ``m:surface#font`` (math). Literal ``%``, tab, space,
``#``, ``:``, ``,``, newline and carriage return inside fields are
percent-encoded, so no field holds a line break. Lines starting with
``#`` are comments.

A ``Token`` is an immutable (kind, surface, font) value, a named tuple
whose hashing and equality run in C. The readers share one Token between
equal items to save parsing and memory, and ``symbols.replace_corpus``
builds one renamed Token per (surface, font). No result depends on which
objects are shared, but speed does: a dict lookup whose key is the very
object in the table skips comparing fields. A per-call ``Memo`` keyed by
tokens (``write_corpus``, ``Vocabulary.encode_ids``) therefore runs its
slower step once per distinct token and finds every repeat by comparing
it with itself, where a vocabulary's own keys are other objects whose
fields are compared one by one.

A read decodes its file in blocks of whole lines (``numbered_lines``). It
can read one byte range of the file whose ends fall just after a ``\\n``
byte, with its lines numbered as in the whole file, so ``match ingest``
reads a file in chunks, one per worker, with the line numbers and errors
of one read.

What runs how often: a read splits each token field at spaces and maps
the items through the read's ``item_memo`` in one C-level loop, a dict
lookup per item. Its ``parse_item`` runs once per distinct item of the
read; only a field with a bad item is walked again item by item, to name
the item's column. A write runs ``format_token`` once per distinct token
and joins the formatted items per field. An ingest read also gives every
MathML item one ``mathml.token_table``, so it builds one Token per
distinct (kind, surface, font) of MathML leaves.
"""

from __future__ import annotations

import enum
import math
import re
from contextlib import contextmanager
from dataclasses import dataclass, replace
from itertools import chain
from typing import NamedTuple

import numpy as np

from .errors import InvalidValue, ProofmatchError, check_seed


class FormatError(ProofmatchError):
    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, col {column}: {message}")
        self.line = line
        self.column = column


class TokenKind(str, enum.Enum):
    TEXT = "t"
    MATH = "m"


class Font(str, enum.Enum):
    NORMAL = "normal"
    BOLD = "bold"
    ITALIC = "italic"
    SCRIPT = "script"
    FRAKTUR = "fraktur"
    DOUBLE_STRUCK = "dstruck"
    OTHER = "other"


class _TokenFields(NamedTuple):
    kind: TokenKind
    surface: str
    font: Font = Font.NORMAL


_WHITESPACE = re.compile(r"\s")  # the characters for which str.isspace holds


class Token(_TokenFields):
    """A typed lexical unit. Text and math vocabularies are disjoint because
    kind participates in equality; math symbols additionally carry a font
    channel."""

    __slots__ = ()

    def __new__(cls, kind: TokenKind, surface: str, font: Font = Font.NORMAL):
        if not surface:
            raise InvalidValue("empty token surface")
        if _WHITESPACE.search(surface):
            raise InvalidValue(f"whitespace in token surface: {surface!r}")
        if kind is TokenKind.TEXT and font is not Font.NORMAL:
            raise InvalidValue("text tokens must carry the normal font")
        return super().__new__(cls, kind, surface, font)

    @classmethod
    def _make(cls, iterable) -> "Token":
        # ``_replace`` builds through ``_make``: both validate as ``__new__`` does
        return cls(*iterable)


def text_token(surface: str) -> Token:
    return Token(TokenKind.TEXT, surface)


def math_token(surface: str, font: Font = Font.NORMAL) -> Token:
    return Token(TokenKind.MATH, surface, font)


@dataclass
class PairRecord:
    pair_id: str
    article_id: str
    categories: list[str]
    statement: list[Token]
    proof: list[Token]


@dataclass
class Corpus:
    pairs: list[PairRecord]

    def __len__(self) -> int:
        return len(self.pairs)

    def __post_init__(self):
        check_unique(p.pair_id for p in self.pairs)


def check_unique(pair_ids) -> None:
    """Raise ``InvalidValue`` naming the first pair id that repeats one
    before it."""
    seen = set()
    for pair_id in pair_ids:
        if pair_id in seen:
            raise InvalidValue(f"duplicate pair_id: {pair_id}")
        seen.add(pair_id)


class SplitMode(enum.Enum):
    MIXED = "mixed"
    UNMIXED = "unmixed"


@dataclass
class SplitSpec:
    mode: SplitMode = SplitMode.MIXED
    ratios: tuple[float, float, float] = (0.8, 0.1, 0.1)
    seed: int = 0

    def __post_init__(self):
        if len(self.ratios) != 3:
            raise InvalidValue(f"expected 3 split ratios, got {len(self.ratios)}")
        if not all(map(math.isfinite, self.ratios)):
            raise InvalidValue(f"split ratios must be finite: {self.ratios}")
        if any(r < 0 for r in self.ratios):
            raise InvalidValue("negative split ratio")
        if abs(sum(self.ratios) - 1.0) > 1e-9:
            raise InvalidValue(f"split ratios sum to {sum(self.ratios)}, not 1")
        check_seed(self.seed)


# ---------------------------------------------------------------------------
# Filtering

MIN_LEN = 20
MAX_LEN = 500


class FilterResult(enum.Enum):
    KEEP = "keep"
    REJECT_TOO_SHORT = "too_short"
    REJECT_TOO_LONG = "too_long"


def filter_pair(record: PairRecord) -> FilterResult:
    """Keep iff both statement and proof lengths are in [20, 500] inclusive.
    Too-short takes precedence when both violations occur."""
    ns, np_ = len(record.statement), len(record.proof)
    if ns < MIN_LEN or np_ < MIN_LEN:
        return FilterResult.REJECT_TOO_SHORT
    if ns > MAX_LEN or np_ > MAX_LEN:
        return FilterResult.REJECT_TOO_LONG
    return FilterResult.KEEP


# ---------------------------------------------------------------------------
# Channel filter (text-only / math-only experiments)

CHANNELS = ("both", "text", "math")


def filter_channel(corpus: Corpus, channel: str) -> Corpus:
    """``corpus`` restricted to one of ``CHANNELS``: 'both' keeps every
    token, 'text' and 'math' only the tokens of that kind."""
    if channel not in CHANNELS:
        raise InvalidValue(f"unknown channel: {channel}")
    if channel == "both":
        return corpus
    kind = TokenKind.TEXT if channel == "text" else TokenKind.MATH
    return Corpus([
        replace(p, statement=[t for t in p.statement if t.kind is kind],
                proof=[t for t in p.proof if t.kind is kind])
        for p in corpus.pairs
    ])


# ---------------------------------------------------------------------------
# Splits


def split_corpus(corpus: Corpus, spec: SplitSpec) -> tuple[Corpus, Corpus, Corpus]:
    """Deterministic 3-way split.

    Mixed: pairs are shuffled by the seeded PRNG and cut at ratio boundaries;
    dev/test counts are floored, the remainder goes to train. Unmixed:
    article ids are shuffled and greedily assigned to the split with the
    largest pair-count deficit, so all pairs of one article share a split.
    """
    if not corpus.pairs:
        raise InvalidValue("cannot split an empty corpus")
    rng = np.random.default_rng(spec.seed)
    n = len(corpus.pairs)
    r_train, r_dev, r_test = spec.ratios

    if spec.mode is SplitMode.MIXED:
        order = rng.permutation(n)
        n_dev = math.floor(n * r_dev + 1e-9)
        n_test = math.floor(n * r_test + 1e-9)
        n_train = n - n_dev - n_test
        idx_train = sorted(order[:n_train])
        idx_dev = sorted(order[n_train:n_train + n_dev])
        idx_test = sorted(order[n_train + n_dev:])
        groups = (idx_train, idx_dev, idx_test)
    else:
        if any(not p.article_id for p in corpus.pairs):
            raise InvalidValue("unmixed split requires article ids")
        articles: dict[str, list[int]] = {}
        for i, p in enumerate(corpus.pairs):
            articles.setdefault(p.article_id, []).append(i)
        names = list(articles)
        rng.shuffle(names)
        targets = [n * r_train, n * r_dev, n * r_test]
        assigned = [0, 0, 0]
        buckets: list[list[int]] = [[], [], []]
        for name in names:
            deficits = [targets[s] - assigned[s] for s in range(3)]
            s = int(np.argmax(deficits))  # ties resolve to train, dev, test
            buckets[s].extend(articles[name])
            assigned[s] += len(articles[name])
        groups = tuple(sorted(b) for b in buckets)

    return tuple(Corpus([corpus.pairs[i] for i in idx]) for idx in groups)


# ---------------------------------------------------------------------------
# Serialization

# A math item's font sigil is the font's value; the normal font has none.
_SIGIL_FONTS = {f.value: f for f in Font if f is not Font.NORMAL}

_ESCAPES = [("%", "%25"), ("\t", "%09"), (" ", "%20"),
            ("#", "%23"), (":", "%3A"), (",", "%2C"), ("\n", "%0A"),
            ("\r", "%0D")]
# No encoding holds a character that another one encodes, so one pass over
# the string gives what the replacements in turn would.
_ESCAPE_TABLE = str.maketrans(dict(_ESCAPES))
_PCT_RE = re.compile(r"%([0-9A-Fa-f]{2})")


def _escape(s: str) -> str:
    return s.translate(_ESCAPE_TABLE)


def _unescape(s: str) -> str:
    if "%" not in s:
        return s
    return _PCT_RE.sub(lambda m: chr(int(m.group(1), 16)), s)


def format_token(tok: Token) -> str:
    surf = _escape(tok.surface)
    if tok.kind is TokenKind.TEXT:
        return f"t:{surf}"
    if tok.font is Font.NORMAL:
        return f"m:{surf}"
    return f"m:{surf}#{tok.font.value}"


def parse_token(item: str, line: int = 0, column: int = 0) -> Token:
    if len(item) < 3 or item[1] != ":":
        raise FormatError(f"bad token item {item!r}", line, column)
    sigil, rest = item[0], item[2:]
    font = Font.NORMAL
    if sigil == "t":
        kind = TokenKind.TEXT
    elif sigil == "m":
        kind = TokenKind.MATH
        if "#" in rest:
            rest, fname = rest.rsplit("#", 1)
            if fname not in _SIGIL_FONTS:
                raise FormatError(f"unknown font sigil {fname!r}", line, column)
            font = _SIGIL_FONTS[fname]
        if not rest:
            raise FormatError("empty math surface", line, column)
    else:
        raise FormatError(f"unknown token-kind sigil {sigil!r}", line, column)
    try:
        return Token(kind, _unescape(rest), font)
    except InvalidValue as exc:  # an escaped space in the surface
        raise FormatError(str(exc), line, column) from exc


class Memo(dict):
    """A dict that holds ``fn(key)`` for each key looked up in it: ``fn``
    runs once per distinct key, when the key is first missing."""

    def __init__(self, fn):
        super().__init__()
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value


def format_record(rec: PairRecord, items: dict[Token, str] | None = None) -> str:
    """One corpus line; ``items`` carries the formatted tokens of a write."""
    items = Memo(format_token) if items is None else items
    cats = ",".join(_escape(c) for c in rec.categories)
    stmt = " ".join(map(items.__getitem__, rec.statement))
    proof = " ".join(map(items.__getitem__, rec.proof))
    return "\t".join((_escape(rec.pair_id), _escape(rec.article_id), cats, stmt, proof))


def parse_item(item: str, line: int, column: int) -> tuple[Token, ...]:
    """The tokens a corpus item stands for: the one from ``parse_token``."""
    return (parse_token(item, line, column),)


def item_memo(parse_item) -> Memo:
    """A read's map from items to their tokens. ``parse_item`` runs once per
    distinct item, with no line or column: ``parse_tokens`` finds those
    again for an item that fails. The empty item, which repeated and edge
    spaces leave, stands for no token."""
    memo = Memo(lambda item: parse_item(item, 0, 0))
    memo[""] = ()
    return memo


def parse_tokens(text: str, line: int, column: int, memo: Memo,
                 parse_item) -> list[Token]:
    """The tokens of the space-separated items of a field starting at
    ``column``, looked up in ``memo`` (``item_memo(parse_item)``). Only a
    field with a bad item goes through the items one by one, to raise the
    error of ``parse_item`` at that item's line and column."""
    try:
        return list(chain.from_iterable(map(memo.__getitem__, text.split(" "))))
    except FormatError as exc:
        error = exc
    # The items before the bad one are in the memo now, and it is not.
    for item in text.split(" "):
        if item not in memo:
            parse_item(item, line, column)
        column += len(item) + 1
    raise error


def parse_record(line: str, lineno: int, parse_item=parse_item,
                 memo: Memo | None = None) -> PairRecord:
    """One corpus line. ``parse_item(item, lineno, column)`` returns the
    tuple of tokens an item stands for, or raises ``FormatError``; a caller
    may pass one that accepts further item kinds. A reader passes one
    ``item_memo(parse_item)`` for all of its lines."""
    memo = item_memo(parse_item) if memo is None else memo
    fields = line.split("\t")
    if len(fields) != 5:
        raise FormatError(f"expected 5 tab-separated fields, got {len(fields)}",
                          lineno)
    pair_id, article_id, cats_s, stmt_s, proof_s = fields
    stmt_col = len(pair_id) + len(article_id) + len(cats_s) + 3
    return PairRecord(
        pair_id=_unescape(pair_id),
        article_id=_unescape(article_id),
        categories=[_unescape(c) for c in cats_s.split(",")] if cats_s else [],
        statement=parse_tokens(stmt_s, lineno, stmt_col, memo, parse_item),
        proof=parse_tokens(proof_s, lineno, stmt_col + len(stmt_s) + 1, memo,
                           parse_item),
    )


def write_corpus(corpus: Corpus, path) -> None:
    write_records(corpus.pairs, path)


def write_records(records, path) -> None:
    """The corpus file of an iterable of records, written as they come."""
    items = Memo(format_token)
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(format_record(rec, items) + "\n")


def _line_breaks(data: bytes) -> int:
    """Line breaks as text mode counts them: ``\\n``, ``\\r`` and ``\\r\\n``."""
    return data.count(b"\n") + data.count(b"\r") - data.count(b"\r\n")


# The most bytes ``_blocks`` reads at once, before it completes the last line.
_BLOCK = 1 << 16


def _blocks(fh, end: int | None):
    """The bytes of the binary file ``fh`` from its position to ``end`` (to
    its end where None), in blocks that each end just after a ``\\n`` or
    at ``end``. So no block splits a line, a ``\\r\\n`` pair or a UTF-8
    sequence, where ``end`` falls just after a ``\\n``."""
    while block := fh.read(_BLOCK if end is None
                           else min(_BLOCK, end - fh.tell())):
        yield block if block.endswith(b"\n") else block + fh.readline()


def numbered_lines(path, start: int = 0, end: int | None = None):
    """``(line number, line)`` for each line of a UTF-8 text file, without
    its line break. Lines are those of text mode: a ``\\n``, ``\\r`` or
    ``\\r\\n`` ends one. ``start`` and ``end`` restrict it to the lines of
    that byte range, numbered as in the whole file; each falls just after a
    ``\\n`` or at an end of the file. A range that is not UTF-8 yields the
    lines before the bad byte's line, then raises ``ProofmatchError`` naming
    the path and that line."""
    with open(path, "rb") as fh:
        # only a range reads what comes before it, so a pipe reads too
        lineno = 1 + sum(map(_line_breaks, _blocks(fh, start))) if start else 1
        for block in _blocks(fh, end):
            try:
                text, error = block.decode("utf-8"), None
            except UnicodeDecodeError as exc:
                text, error = block[:exc.start].decode("utf-8"), exc
            if "\r" in text:
                text = text.replace("\r\n", "\n").replace("\r", "\n")
            lines = text.split("\n")
            # after the last break: the bad byte's line, or else nothing but
            # at the end of a file that ends without a break
            if error is not None or not lines[-1]:
                lines.pop()
            yield from enumerate(lines, lineno)
            lineno += len(lines)
            if error is not None:
                raise ProofmatchError(f"{path}:{lineno}: not UTF-8 "
                                      f"({error.reason})") from error


@contextmanager
def in_file(path):
    """Put ``path`` in front of the message of a ``FormatError`` that the
    block raises: ``path: line L, col C: message``."""
    try:
        yield
    except FormatError as exc:
        exc.args = (f"{path}: {exc}",)
        raise


def read_records(path, parse_item=parse_item, start: int = 0,
                 end: int | None = None):
    """Each record of a corpus file, or of the byte range ``start``..``end``
    of ``numbered_lines``; blank and ``#`` lines are skipped. ``parse_item``
    runs once per distinct item of the read, as in ``parse_record``, so
    equal items share their tokens. A bad line raises ``FormatError``
    naming the path."""
    memo = item_memo(parse_item)
    with in_file(path):
        for lineno, line in numbered_lines(path, start, end):
            if line and not line.startswith("#"):
                yield parse_record(line, lineno, parse_item, memo)


def read_corpus(path) -> Corpus:
    pairs = list(read_records(path))
    if not pairs:
        raise InvalidValue(f"no records in {path}")
    return Corpus(pairs)
