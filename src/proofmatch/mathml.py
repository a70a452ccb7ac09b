"""Presentation-MathML linearization.

A ``<math>`` subtree is flattened to a left-to-right token sequence by
depth-first traversal: leaf text content becomes math tokens (text tokens
for ``mtext``), layout elements contribute nothing of their own, and the
``mathvariant`` attribute of the nearest ancestor selects the font channel.

What runs how often: ``linearize_mathml`` parses once per fragment it is
given (an ingest read gives it each distinct MathML item once) and visits
each element once. A leaf's words are looked up in a token table, which
builds one ``Token`` per distinct (kind, surface, font): per fragment by
default, per read when the reader passes one table to every fragment.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from .corpus import Font, Memo, Token, TokenKind
from .errors import ProofmatchError


class MalformedXml(ProofmatchError):
    pass


# Content-MathML markup is rejected rather than converted.
_CONTENT_MARKUP = {"apply", "ci", "cn"}

_VARIANTS = {
    "normal": Font.NORMAL,
    "bold": Font.BOLD,
    "italic": Font.ITALIC,
    "script": Font.SCRIPT,
    "fraktur": Font.FRAKTUR,
    "double-struck": Font.DOUBLE_STRUCK,
}


def _local_name(tag: str) -> str:
    return tag.rpartition("}")[2]


def _emit(elem: ET.Element, inherited: Font, out: list[Token],
          tokens: Memo) -> None:
    tag = elem.tag.rpartition("}")[2]  # _local_name, inlined on this hot path
    if tag in _CONTENT_MARKUP:
        raise MalformedXml(f"content markup element <{tag}> is not supported")
    variant = elem.get("mathvariant")
    font = inherited if variant is None else _VARIANTS.get(variant, Font.OTHER)
    if len(elem):
        children = list(elem)
        # Text beside child elements (mixed content) is not Presentation
        # MathML; linearizing only the leaves would drop its symbols.
        stray = [t for t in (elem.text, *(c.tail for c in children))
                 if t and not t.isspace()]
        if stray:
            raise MalformedXml(f"text {stray[0].strip()!r} beside child "
                               f"elements of <{tag}>")
        for child in children:
            _emit(child, font, out, tokens)
        return
    if tag == "mspace" or not elem.text:
        return
    if tag == "mtext":
        kind, font = TokenKind.TEXT, Font.NORMAL
    else:
        kind = TokenKind.MATH
    out.extend(tokens[kind, w, font] for w in elem.text.split())


def token_table() -> Memo:
    """A map from (kind, surface, font) to the one ``Token`` of those fields,
    built when first looked up."""
    return Memo(Token._make)


def linearize_mathml(fragment: str, tokens: Memo | None = None) -> list[Token]:
    """Flatten a Presentation-MathML fragment to tokens in document order.
    The tokens come from ``tokens`` (a ``token_table()``), so a reader that
    passes one table for all of its fragments builds one ``Token`` per
    distinct leaf symbol; without one, the fragment gets its own.

    Raises MalformedXml on unparseable input, a non-``math`` root,
    content-markup elements, or non-blank text beside child elements
    (mixed content). A formula with no leaf content yields an
    empty list.
    """
    try:
        root = ET.fromstring(fragment)
    except ET.ParseError as exc:
        raise MalformedXml(str(exc)) from exc
    if _local_name(root.tag) != "math":
        raise MalformedXml(f"root element is <{_local_name(root.tag)}>, expected <math>")
    out: list[Token] = []
    _emit(root, Font.NORMAL, out, token_table() if tokens is None else tokens)
    return out
