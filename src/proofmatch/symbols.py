"""Seeded symbol-replacement transforms over proofs.

Four levels: conservation (identity), partial (a fraction of the shared
symbols renamed to fresh names), full (all renamed), transposition (shared
symbols deranged among themselves, or renamed as in full where that would
move no base or merge two of the proof's symbols). Only symbols occurring
in both the statement and the proof are touched. A candidate is a letter
of ``_BASE``: Latin or Greek, whose two cases are one symbol, or a glyph
variant (ϕ, ϵ, ...), lower case only. Fonts are preserved, and
double-struck letters, standard constants and an optional protected set
of bases (a ``frozenset[str]``) are exempt.

``replace_pairs`` keys its work by token value: one candidate table,
built once per call from the pairs' distinct tokens, gives every
document's candidates by a set intersection, and ``_renaming`` maps them
to the tokens they become. Each call builds one renamed Token per
(surface, font) and shares it between the pairs (see ``corpus`` for why
shared tokens are faster), and conservation copies the proofs without
looking at a token.
"""

from __future__ import annotations

import enum
import functools
import hashlib
import math
from collections.abc import Iterable
from dataclasses import dataclass, replace as dc_replace
from typing import NamedTuple

import numpy as np

from .corpus import (Corpus, Font, FormatError, PairRecord, Token, TokenKind,
                     in_file, math_token, numbered_lines, parse_token)
from .errors import InvalidValue, ProofmatchError, check_seed


# The fresh names: 26 Latin and 24 Greek letters.
_LATIN = "abcdefghijklmnopqrstuvwxyz"
_GREEK = "αβγδεζηθικλμνξοπρστυφχψω"
# Glyph variants of β θ φ π κ ρ ε σ (TeX's \phi is ϕ, \varphi φ): letters of
# their own with no capital, never a fresh name. Look-alikes that casefold
# to a letter (µ, K U+212A, Ω U+2126, ſ) are no letters.
_VARIANTS = "ϐϑϕϖϰϱϵς"
# Each candidate letter's surface to its lower-case base: a token is lower
# case exactly when its surface is its base.
_BASE = {**{c: c for c in _VARIANTS},
         **{s: b for b in _LATIN + _GREEK for s in (b, b.upper())}}
_CAPITAL = {b: s for s, b in _BASE.items() if s != b}

# Standard constants never replaced: pi, and a literal math-kind "e" is
# treated the same way.
CONSTANT_BASES = {"π", "e"}


class SymbolKey(NamedTuple):
    """Lower-case base of a candidate variable, per font channel."""

    base: str
    font: Font = Font.NORMAL


def symbol_key(token: Token) -> SymbolKey | None:
    """Key of a candidate-variable token, or None.

    A candidate is a math token whose surface is one letter of ``_BASE`` in
    any font except double-struck. Multi-letter math tokens (sin, dim, Hom)
    are never candidates.
    """
    if token.kind is not TokenKind.MATH or token.font is Font.DOUBLE_STRUCK:
        return None
    base = _BASE.get(token.surface)
    return None if base is None else SymbolKey(base, token.font)


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
    """The lower-case bases of the letters a protected-set file lists, never
    renamed in any case or font. One symbol per line, ``surface`` or
    ``surface#font`` in the corpus math-token syntax; # comments. The symbol
    must be a candidate variable: one letter of ``_BASE``, not
    double-struck. A bad line raises ``FormatError`` naming the path."""
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


def _fresh_pool(forbidden: set[str], rng: np.random.Generator) -> list[str]:
    """Latin letters not forbidden, then Greek letters minus the constants,
    each block shuffled by the seeded generator."""
    banned = forbidden | CONSTANT_BASES
    latin = [c for c in _LATIN if c not in banned]
    greek = [c for c in _GREEK if c not in banned]
    latin = [latin[i] for i in rng.permutation(len(latin))]
    greek = [greek[i] for i in rng.permutation(len(greek))]
    return latin + greek


def _renaming(toks: Iterable[Token], entries: dict[SymbolKey, SymbolKey],
              token=math_token,
              kept_targets: bool = False) -> dict[Token, Token | None]:
    """Each of ``toks`` whose key ``entries`` renames, mapped to the token it
    becomes, ``token(surface, font)`` of its target base in its own case and
    font, or None for a capital whose target base (a glyph variant) has no
    capital. With ``kept_targets`` no token is built for a key whose target
    ``entries`` renames too: that token is no token the proof keeps."""
    out = {}
    for tok in toks:
        key = symbol_key(tok)
        if (target := entries.get(key)) is None:
            continue
        surface = (target.base if tok.surface == key.base
                   else _CAPITAL.get(target.base))
        if surface is None:
            out[tok] = None
        elif not (kept_targets and target in entries):
            out[tok] = token(surface, tok.font)
    return out


def build_replacement_map(shared: set[SymbolKey],
                          level: ReplacementLevel,
                          seed: int = 0, *,
                          forbidden: set[str],
                          proof: set[Token] = frozenset()) -> ReplacementMap:
    """Build the per-pair bijection for one replacement level.

    ``forbidden`` is the one set of bases no fresh name may take: every
    base occurring in the pair, the shared ones included, so fresh names
    cannot collide with existing ones, and any protected letters.
    ``proof`` holds the proof's tokens (its candidates suffice), so a
    transposition cannot rename a token onto one the proof keeps.
    """
    check_seed(seed)
    keys = sorted(shared)  # by (base, font value): a Font is its value string
    entries: dict[SymbolKey, SymbolKey] = {}

    if level.level is Level.CONSERVATION or not keys:
        return ReplacementMap(entries)

    rng = np.random.default_rng(seed)
    if level.level is Level.TRANSPOSITION:
        sigma = _derangement(sorted({k.base for k in keys}), rng)
        # Fresh names instead where no derangement changes a base (all shared
        # keys carry one base), where it would merge two proof symbols, or
        # where a capital's new base has no capital.
        if sigma is not None:
            deranged = {k: SymbolKey(sigma[k.base], k.font) for k in keys}
            new = _renaming(proof, deranged, kept_targets=True).values()
            if None not in new and proof.isdisjoint(new):
                return ReplacementMap(deranged)

    if level.level is Level.PARTIAL:
        count = math.floor(level.alpha * len(keys) + 0.5)  # halves round up
        chosen_idx = sorted(rng.permutation(len(keys))[:count])
        targets_of = [keys[i] for i in chosen_idx]
    else:  # FULL, or the TRANSPOSITION fallback
        targets_of = keys

    names = _fresh_pool(forbidden, rng)
    if len(names) < len(targets_of):
        raise ProofmatchError(
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
    while True:  # about 1 in e permutations is a derangement
        perm = [bases[i] for i in rng.permutation(len(bases))]
        if all(p != b for p, b in zip(perm, bases)):
            return dict(zip(bases, perm))


def mix_seed(seed: int, salt: str) -> int:
    """Independent 64-bit sub-seed of ``seed`` for the string ``salt``."""
    check_seed(seed)
    digest = hashlib.sha256(salt.encode("utf-8")).digest()
    sub = int.from_bytes(digest[:8], "little")
    return seed ^ sub


def replace_pair(pair: PairRecord, level: ReplacementLevel,
                 protected: frozenset[str] | None = None,
                 seed: int = 0) -> PairRecord:
    return replace_pairs([pair], level, protected, seed)[0]


def replace_corpus(corpus: Corpus, level: ReplacementLevel,
                   protected: frozenset[str] | None = None,
                   seed: int = 0) -> Corpus:
    """Apply one replacement level to every proof; statements untouched.
    ``protected`` None protects no letter. Each pair derives an independent
    sub-seed from its pair_id, so a single pair can be replayed in
    isolation."""
    return Corpus(replace_pairs(corpus.pairs, level, protected, seed))


def replace_pairs(pairs: list[PairRecord], level: ReplacementLevel,
                  protected: frozenset[str] | None,
                  seed: int) -> list[PairRecord]:
    """``replace_corpus`` of a list, which checks no pair id: one candidate
    table over all the pairs and one renamed token per (surface, font)."""
    check_seed(seed)  # conservation mixes no sub-seed
    if level.level is Level.CONSERVATION:
        return [dc_replace(p, proof=list(p.proof)) for p in pairs]
    protected = protected or frozenset()
    table = _candidate_table([doc for p in pairs for doc in (p.statement, p.proof)])
    token = functools.cache(math_token)
    out = []
    for pair in pairs:
        stmt = _candidates(pair.statement, table)[1]
        proof_toks, proof = _candidates(pair.proof, table)
        rmap = build_replacement_map(
            _shared(stmt, proof, protected), level, mix_seed(seed, pair.pair_id),
            forbidden={k.base for k in stmt | proof} | protected, proof=proof_toks)
        rename = _renaming(proof_toks, rmap.entries, token)
        out.append(dc_replace(pair, proof=list(map(rename.get, pair.proof,
                                                   pair.proof))))
    return out
