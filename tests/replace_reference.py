"""Per-occurrence symbol replacement: a reference for ``replace_pair``.

It keys every token of the pair through a letter table of its own, reads
case with ``str.isupper`` and rewrites the proof token by token, so it
shares no candidate-finding or rewriting code with the implementation it
checks.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

from proofmatch.corpus import Font, PairRecord, Token, TokenKind
from proofmatch.symbols import (
    CONSTANT_BASES,
    ReplacementLevel,
    SymbolKey,
    build_replacement_map,
    mix_seed,
)

# Latin and Greek letters, each capital below its small letter, and the
# glyph variants, which have no capital.
SMALL = "abcdefghijklmnopqrstuvwxyzαβγδεζηθικλμνξοπρστυφχψω"
CAPITAL = "ABCDEFGHIJKLMNOPQRSTUVWXYZΑΒΓΔΕΖΗΘΙΚΛΜΝΞΟΠΡΣΤΥΦΧΨΩ"
VARIANTS = "ϐϑϕϖϰϱϵς"
BASE_OF = {**dict(zip(SMALL, SMALL)), **dict(zip(CAPITAL, SMALL)),
           **dict(zip(VARIANTS, VARIANTS))}


def key_reference(tok: Token) -> SymbolKey | None:
    if tok.kind is not TokenKind.MATH or tok.font is Font.DOUBLE_STRUCK:
        return None
    base = BASE_OF.get(tok.surface)
    return None if base is None else SymbolKey(base, tok.font)


def shared_reference(pair: PairRecord,
                     protected: frozenset[str] | None = None) -> set:
    stmt = {k for t in pair.statement if (k := key_reference(t)) is not None}
    proof = {k for t in pair.proof if (k := key_reference(t)) is not None}
    shared = {k for k in stmt & proof if k.base not in CONSTANT_BASES}
    if protected is not None:
        shared = {k for k in shared if k.base not in protected}
    return shared


def replace_pair_reference(pair: PairRecord, level: ReplacementLevel,
                           protected: frozenset[str] | None = None,
                           seed: int = 0) -> PairRecord:
    forbidden = {k.base for t in pair.statement + pair.proof
                 if (k := key_reference(t)) is not None}
    rmap = build_replacement_map(shared_reference(pair, protected), level,
                                 mix_seed(seed, pair.pair_id),
                                 forbidden=forbidden | (protected or set()),
                                 proof=set(pair.proof))
    out = []
    for tok in pair.proof:
        key = key_reference(tok)
        target = rmap.entries.get(key) if key is not None else None
        if target is None:
            out.append(tok)
            continue
        surface = target.base.upper() if tok.surface.isupper() else target.base
        out.append(Token(TokenKind.MATH, surface, tok.font))
    return dc_replace(pair, proof=out)
