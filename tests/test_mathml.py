import numpy as np
import pytest

from proofmatch.corpus import Font, Token, TokenKind
from proofmatch.mathml import MalformedXml, linearize_mathml


def math(surface, font=Font.NORMAL):
    return Token(TokenKind.MATH, surface, font)


def text(surface):
    return Token(TokenKind.TEXT, surface)


class TestLinearize:
    def test_flat_equation(self):
        toks = linearize_mathml("<math><mi>x</mi><mo>=</mo><mn>2</mn></math>")
        assert toks == [math("x"), math("="), math("2")]

    def test_font_distinguishes_tokens(self):
        bold = linearize_mathml('<math><mi mathvariant="bold">x</mi></math>')
        plain = linearize_mathml("<math><mi>x</mi></math>")
        assert bold == [math("x", Font.BOLD)]
        assert bold[0] != plain[0]

    def test_mfrac_flattens_numerator_first(self):
        toks = linearize_mathml(
            "<math><mfrac><mi>a</mi><mi>b</mi></mfrac></math>")
        assert toks == [math("a"), math("b")]

    def test_subscript_flattening(self):
        toks = linearize_mathml(
            "<math><msub><mi>a</mi><mi>n</mi></msub></math>")
        assert toks == [math("a"), math("n")]

    def test_mathvariant_inherited_from_nearest_ancestor(self):
        toks = linearize_mathml(
            '<math><mrow mathvariant="fraktur"><mi>g</mi>'
            '<mi mathvariant="normal">h</mi></mrow></math>')
        assert toks == [math("g", Font.FRAKTUR), math("h", Font.NORMAL)]

    def test_mtext_splits_into_text_tokens(self):
        toks = linearize_mathml("<math><mtext>such that</mtext></math>")
        assert toks == [text("such"), text("that")]

    def test_mspace_emits_nothing(self):
        assert linearize_mathml('<math><mspace width="1em"/></math>') == []

    def test_empty_formula_is_empty_list(self):
        assert linearize_mathml("<math></math>") == []

    def test_unknown_element_recursed(self):
        toks = linearize_mathml(
            "<math><munderover><mo>∑</mo><mn>1</mn><mi>n</mi></munderover></math>")
        assert toks == [math("∑"), math("1"), math("n")]

    def test_unparseable_raises(self):
        with pytest.raises(MalformedXml):
            linearize_mathml("<math><mi>x</math>")

    def test_wrong_root_raises(self):
        with pytest.raises(MalformedXml):
            linearize_mathml("<mrow><mi>x</mi></mrow>")

    def test_content_markup_rejected(self):
        with pytest.raises(MalformedXml):
            linearize_mathml("<math><apply><ci>x</ci></apply></math>")

    @pytest.mark.parametrize("fragment,stray", [
        ("<math><mi>a</mi>b<mrow>c<mi>d</mi></mrow></math>", "b"),  # a tail
        ("<math><mrow>c<mi>d</mi></mrow></math>", "c"),  # text before a child
        ("<math><msub><mi>a</mi><mi>n</mi>  k </msub></math>", "k"),
    ])
    def test_mixed_content_rejected(self, fragment, stray):
        with pytest.raises(MalformedXml, match=f"text '{stray}' beside"):
            linearize_mathml(fragment)

    def test_whitespace_between_elements_allowed(self):
        toks = linearize_mathml(
            "<math>\n  <mrow> <mi>a</mi>\t<mi>b</mi> </mrow>\n</math>")
        assert toks == [math("a"), math("b")]

    def test_unknown_mathvariant_maps_to_other(self):
        toks = linearize_mathml(
            '<math><mi mathvariant="sans-serif">x</mi></math>')
        assert toks == [math("x", Font.OTHER)]


# ---------------------------------------------------------------------------
# Random-tree order oracle: an independent depth-first walk over minidom.

_LEAF_TAGS = ("mi", "mo", "mn")
_STRUCT_TAGS = ("mrow", "msup", "msub", "msubsup", "mfrac", "msqrt", "mstyle",
                "munder", "mpadded")
_VARIANTS = (None, "bold", "italic", "script", "fraktur", "double-struck",
             "normal")
_VARIANT_FONTS = {
    None: None, "normal": Font.NORMAL, "bold": Font.BOLD,
    "italic": Font.ITALIC, "script": Font.SCRIPT, "fraktur": Font.FRAKTUR,
    "double-struck": Font.DOUBLE_STRUCK,
}


def random_mathml(rng: np.random.Generator, depth: int = 0) -> str:
    variant = _VARIANTS[int(rng.integers(len(_VARIANTS)))]
    attr = f' mathvariant="{variant}"' if variant else ""
    if depth >= 3 or rng.random() < 0.4:
        tag = _LEAF_TAGS[int(rng.integers(len(_LEAF_TAGS)))]
        surface = "abcxyz123+="[int(rng.integers(11))]
        return f"<{tag}{attr}>{surface}</{tag}>"
    tag = _STRUCT_TAGS[int(rng.integers(len(_STRUCT_TAGS)))]
    children = "".join(random_mathml(rng, depth + 1)
                       for _ in range(int(rng.integers(1, 4))))
    return f"<{tag}{attr}>{children}</{tag}>"


def reference_leaves(fragment: str) -> list[Token]:
    """Independent document-order walk via minidom."""
    from xml.dom import minidom

    doc = minidom.parseString(fragment)

    def walk(node, font):
        own = None
        if node.nodeType == node.ELEMENT_NODE and node.hasAttribute("mathvariant"):
            own = _VARIANT_FONTS.get(node.getAttribute("mathvariant"), Font.OTHER)
        font = own if own is not None else font
        elems = [c for c in node.childNodes if c.nodeType == c.ELEMENT_NODE]
        if elems:
            out = []
            for child in elems:
                out.extend(walk(child, font))
            return out
        texts = "".join(c.data for c in node.childNodes
                        if c.nodeType == c.TEXT_NODE)
        return [Token(TokenKind.MATH, w, font) for w in texts.split()]

    return walk(doc.documentElement, Font.NORMAL)


@pytest.mark.parametrize("seed", range(20))
def test_linearizer_matches_reference_dfs(seed):
    rng = np.random.default_rng(seed)
    for _ in range(25):
        body = "".join(random_mathml(rng) for _ in range(int(rng.integers(1, 4))))
        fragment = f"<math>{body}</math>"
        assert linearize_mathml(fragment) == reference_leaves(fragment)
