"""Seeded symbol-replacement transforms over proofs.

Four levels: conservation (identity), partial (a fraction of the shared
symbols renamed to fresh names), full (all renamed), transposition (shared
symbols deranged among themselves). Only symbols occurring in both the
statement and the proof are touched; case variants of a letter are renamed
as a pair, fonts are preserved, and double-struck letters, standard
constants and an optional protected set of case-folded letters (a
``frozenset[str]``) are exempt.

``replace_corpus`` keys its work by token value: one candidate table,
built once per call from the corpus's distinct tokens, gives every
document's candidates by a set intersection, and the rename is a dict
lookup per token. Each call builds one renamed Token per (surface, font)
and shares it between the pairs (see ``corpus`` for why shared tokens are
faster), and conservation copies the proofs without looking at a token.
"""

from __future__ import annotations

import enum
import hashlib
import math
from dataclasses import dataclass, replace as dc_replace
from typing import NamedTuple

import numpy as np

from .corpus import (Corpus, Font, FormatError, Memo, PairRecord, Token,
                     TokenKind, in_file, math_token, numbered_lines,
                     parse_token)
from .errors import InvalidValue, ProofmatchError


class PoolExhausted(ProofmatchError):
    pass


_LATIN = "abcdefghijklmnopqrstuvwxyz"
_GREEK = "αβγδεζηθικλμνξοπρστυφχψω"

# Standard constants never replaced: pi, and a literal math-kind "e" is
# treated the same way.
CONSTANT_BASES = {"π", "e"}


class SymbolKey(NamedTuple):
    """Case-folded identity of a candidate variable, per font channel."""

    base: str
    font: Font = Font.NORMAL


def _is_letter(base: str) -> bool:
    return base in _LATIN or base in _GREEK


def symbol_key(token: Token) -> SymbolKey | None:
    """Key of a candidate-variable token, or None.

    A candidate is a math token whose surface is a single Latin or Greek
    letter in any font except double-struck. Multi-letter math tokens
    (sin, dim, Hom) are never candidates.
    """
    if token.kind is not TokenKind.MATH or token.font is Font.DOUBLE_STRUCK:
        return None
    if len(token.surface) != 1:
        return None
    base = token.surface.casefold()
    if not _is_letter(base):
        return None
    return SymbolKey(base, token.font)


class Level(enum.Enum):
    CONSERVATION = "conservation"
    PARTIAL = "partial"
    FULL = "full"
    TRANSPOSITION = "transposition"


@dataclass(frozen=True)
class ReplacementLevel:
    level: Level
    alpha: float = 0.5

    def __post_init__(self):
        if not 0.0 <= self.alpha <= 1.0:
            raise InvalidValue(f"alpha out of [0,1]: {self.alpha}")
        if self.level is Level.FULL and self.alpha != 1.0:
            object.__setattr__(self, "alpha", 1.0)


CONSERVATION = ReplacementLevel(Level.CONSERVATION)
PARTIAL = ReplacementLevel(Level.PARTIAL, 0.5)
FULL = ReplacementLevel(Level.FULL, 1.0)
TRANSPOSITION = ReplacementLevel(Level.TRANSPOSITION)


def read_protected_set(path) -> frozenset[str]:
    """The case-folded letters a protected-set file lists, never renamed in
    any case or font. One symbol per line, ``surface`` or ``surface#font``
    in the corpus math-token syntax; # comments. The symbol must be a
    candidate variable: one Latin or Greek letter, not double-struck. A bad
    line raises ``FormatError`` naming the path."""
    bases = set()
    with in_file(path):
        for lineno, line in numbered_lines(path):
            line = line.strip()
            if not line or line.startswith("#"):
                continue
            key = symbol_key(parse_token("m:" + line, lineno))
            if key is None:
                raise FormatError(f"not a single Latin or Greek letter outside "
                                  f"double-struck: {line!r}", lineno)
            bases.add(key.base)
    return frozenset(bases)


@dataclass
class ReplacementMap:
    entries: dict[SymbolKey, SymbolKey]

    def __post_init__(self):
        targets = list(self.entries.values())
        if len(set(targets)) != len(targets):
            raise InvalidValue("replacement map is not injective")


# ---------------------------------------------------------------------------

# The key of each distinct candidate-variable token of the documents the
# table was built over.
_Table = dict[Token, SymbolKey]


def _candidate_table(docs: list[list[Token]]) -> _Table:
    """The candidate-variable tokens of ``docs`` with their keys:
    ``symbol_key`` runs once per distinct token."""
    distinct = set().union(*docs)
    return {t: k for t in distinct if (k := symbol_key(t)) is not None}


def _candidates(doc: list[Token], table: _Table) -> tuple[set[Token], set[SymbolKey]]:
    """``doc``'s distinct candidate tokens, and their keys."""
    toks = table.keys() & doc
    return toks, {table[t] for t in toks}


def _shared(stmt: set[SymbolKey], proof: set[SymbolKey],
            protected: frozenset[str]) -> set[SymbolKey]:
    return {k for k in stmt & proof
            if k.base not in CONSTANT_BASES and k.base not in protected}


def _round_half_away(x: float) -> int:
    return int(math.floor(x + 0.5)) if x >= 0 else -int(math.floor(-x + 0.5))


def _fresh_pool(forbidden: set[str], protected: frozenset[str],
                rng: np.random.Generator) -> list[str]:
    """Latin letters not used in the pair, then Greek letters minus the
    constants, each block shuffled by the seeded generator."""
    banned = forbidden | CONSTANT_BASES | protected
    latin = [c for c in _LATIN if c not in banned]
    greek = [c for c in _GREEK if c not in banned]
    latin = [latin[i] for i in rng.permutation(len(latin))]
    greek = [greek[i] for i in rng.permutation(len(greek))]
    return latin + greek


def build_replacement_map(shared: set[SymbolKey],
                          level: ReplacementLevel,
                          protected: frozenset[str] | None = None,
                          seed: int = 0, *,
                          forbidden: set[str]) -> ReplacementMap:
    """Build the per-pair bijection for one replacement level.

    ``forbidden`` holds symbol bases occurring anywhere in the pair, so
    fresh names cannot collide with existing ones. ``protected`` None
    protects no letter.
    """
    keys = sorted(shared)  # by (base, font value): a Font is its value string
    entries: dict[SymbolKey, SymbolKey] = {}

    if level.level is Level.CONSERVATION or not keys:
        return ReplacementMap(entries)

    rng = np.random.default_rng(seed)
    taken = {k.base for k in keys}
    if level.level is Level.TRANSPOSITION:
        sigma = _derangement(sorted(taken), rng)
        if sigma is not None:
            for k in keys:
                entries[k] = SymbolKey(sigma[k.base], k.font)
            return ReplacementMap(entries)
        # All shared keys carry one base (font variants only): derangement
        # cannot change any base, fall back to fresh names.

    if level.level is Level.PARTIAL:
        count = _round_half_away(level.alpha * len(keys))
        chosen_idx = sorted(rng.permutation(len(keys))[:count])
        targets_of = [keys[i] for i in chosen_idx]
    else:  # FULL, or degenerate TRANSPOSITION
        targets_of = keys

    names = [n for n in _fresh_pool(forbidden, protected or frozenset(), rng)
             if n not in taken]
    if len(names) < len(targets_of):
        raise PoolExhausted(
            f"need {len(targets_of)} fresh names, pool has {len(names)}")
    for k, name in zip(targets_of, names):
        entries[k] = SymbolKey(name, k.font)
    return ReplacementMap(entries)


def _derangement(bases: list[str],
                 rng: np.random.Generator) -> dict[str, str] | None:
    """Seeded permutation of the distinct bases that moves every one, or
    None when there are fewer than two. Every key of a base then maps to
    the same new base in its own font, so the map stays injective."""
    if len(bases) < 2:
        return None
    for _ in range(10000):
        perm = [bases[i] for i in rng.permutation(len(bases))]
        if all(p != b for p, b in zip(perm, bases)):
            return dict(zip(bases, perm))
    return None


def _rename(proof: list[Token], candidates: set[Token], table: _Table,
            rmap: ReplacementMap,
            renamed: dict[tuple[str, Font], Token]) -> list[Token]:
    """``proof`` with each candidate token whose key ``rmap`` maps renamed.
    The new token is ``renamed[surface, font]``, so all its occurrences
    share one object."""
    if not rmap.entries:
        return list(proof)
    rename = {}
    for tok in candidates:
        key = table[tok]
        target = rmap.entries.get(key)
        if target is not None:
            surface = target.base.upper() if tok.surface != key.base else target.base
            rename[tok] = renamed[surface, tok.font]
    return list(map(rename.get, proof, proof))


def mix_seed(seed: int, salt: str) -> int:
    """Independent 64-bit sub-seed of ``seed`` for the string ``salt``."""
    digest = hashlib.sha256(salt.encode("utf-8")).digest()
    sub = int.from_bytes(digest[:8], "little")
    return (seed ^ sub) & 0xFFFFFFFFFFFFFFFF


def replace_pair(pair: PairRecord, level: ReplacementLevel,
                 protected: frozenset[str] | None = None,
                 seed: int = 0) -> PairRecord:
    return _replace_pairs([pair], level, protected, seed)[0]


def replace_corpus(corpus: Corpus, level: ReplacementLevel,
                   protected: frozenset[str] | None = None,
                   seed: int = 0) -> Corpus:
    """Apply one replacement level to every proof; statements untouched.
    ``protected`` None protects no letter. Each pair derives an independent
    sub-seed from its pair_id, so a single pair can be replayed in
    isolation."""
    return Corpus(_replace_pairs(corpus.pairs, level, protected, seed))


def _replace_pairs(pairs: list[PairRecord], level: ReplacementLevel,
                   protected: frozenset[str] | None,
                   seed: int) -> list[PairRecord]:
    """Each pair with ``level`` applied to its proof, from one candidate
    table over all of them and one renamed token per (surface, font)."""
    if level.level is Level.CONSERVATION:
        return [dc_replace(p, proof=list(p.proof)) for p in pairs]
    protected = protected or frozenset()
    table = _candidate_table([doc for p in pairs for doc in (p.statement, p.proof)])
    renamed = Memo(lambda key: math_token(*key))
    out = []
    for pair in pairs:
        stmt = _candidates(pair.statement, table)[1]
        proof_toks, proof = _candidates(pair.proof, table)
        rmap = build_replacement_map(_shared(stmt, proof, protected), level,
                                     protected, mix_seed(seed, pair.pair_id),
                                     forbidden={k.base for k in stmt | proof})
        out.append(dc_replace(pair, proof=_rename(pair.proof, proof_toks, table,
                                                  rmap, renamed)))
    return out
