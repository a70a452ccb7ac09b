"""Per-occurrence symbol replacement: a reference for ``replace_pair``.

It walks every token of the pair three times through ``symbol_key`` and
rewrites the proof token by token, so it shares no candidate-finding or
rewriting code with the implementation it checks.
"""

from __future__ import annotations

from dataclasses import replace as dc_replace

from proofmatch.corpus import PairRecord, Token, TokenKind
from proofmatch.symbols import (
    CONSTANT_BASES,
    ReplacementLevel,
    build_replacement_map,
    mix_seed,
    symbol_key,
)


def shared_reference(pair: PairRecord,
                     protected: frozenset[str] | None = None) -> set:
    stmt = {k for t in pair.statement if (k := symbol_key(t)) is not None}
    proof = {k for t in pair.proof if (k := symbol_key(t)) is not None}
    shared = {k for k in stmt & proof if k.base not in CONSTANT_BASES}
    if protected is not None:
        shared = {k for k in shared if k.base not in protected}
    return shared


def replace_pair_reference(pair: PairRecord, level: ReplacementLevel,
                           protected: frozenset[str] | None = None,
                           seed: int = 0) -> PairRecord:
    forbidden = {k.base for t in pair.statement + pair.proof
                 if (k := symbol_key(t)) is not None}
    rmap = build_replacement_map(shared_reference(pair, protected), level,
                                 protected, mix_seed(seed, pair.pair_id),
                                 forbidden=forbidden, proof=set(pair.proof))
    out = []
    for tok in pair.proof:
        key = symbol_key(tok)
        target = rmap.entries.get(key) if key is not None else None
        if target is None:
            out.append(tok)
            continue
        surface = target.base.upper() if tok.surface != tok.surface.casefold() \
            else target.base
        out.append(Token(TokenKind.MATH, surface, tok.font))
    return dc_replace(pair, proof=out)
