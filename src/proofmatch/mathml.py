"""Presentation-MathML linearization.

A ``<math>`` subtree is flattened to a left-to-right token sequence by
depth-first traversal: leaf text content becomes math tokens (text tokens
for ``mtext``), layout elements contribute nothing of their own, and the
``mathvariant`` attribute of the nearest ancestor selects the font channel.
"""

from __future__ import annotations

import xml.etree.ElementTree as ET

from .corpus import Font, Token, TokenKind
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
    return tag.rsplit("}", 1)[-1]


def _font_of(elem: ET.Element, inherited: Font) -> Font:
    variant = elem.get("mathvariant")
    if variant is None:
        return inherited
    return _VARIANTS.get(variant, Font.OTHER)


def _emit(elem: ET.Element, inherited: Font, out: list[Token]) -> None:
    tag = _local_name(elem.tag)
    if tag in _CONTENT_MARKUP:
        raise MalformedXml(f"content markup element <{tag}> is not supported")
    font = _font_of(elem, inherited)
    children = list(elem)
    if children:
        # Text beside child elements (mixed content) is not Presentation
        # MathML; linearizing only the leaves would drop its symbols.
        stray = [t for t in (elem.text, *(c.tail for c in children))
                 if t and not t.isspace()]
        if stray:
            raise MalformedXml(f"text {stray[0].strip()!r} beside child "
                               f"elements of <{tag}>")
        for child in children:
            _emit(child, font, out)
        return
    if tag == "mspace":
        return
    text = elem.text or ""
    if tag == "mtext":
        out.extend(Token(TokenKind.TEXT, w) for w in text.split())
    else:
        out.extend(Token(TokenKind.MATH, w, font) for w in text.split())


def linearize_mathml(fragment: str) -> list[Token]:
    """Flatten a Presentation-MathML fragment to tokens in document order.

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
    _emit(root, Font.NORMAL, out)
    return out
