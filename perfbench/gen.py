"""Seeded synthetic inputs for the proofmatch benchmark.

Everything here depends only on the seed passed in. The generator writes
files in the program's input formats and does not import proofmatch, so the
program under test never sees how its inputs were made.

Properties (also listed in BENCHMARK.md):

* Text words come from a fixed vocabulary of TEXT_VOCAB pseudo-words drawn
  with Zipf weights (exponent ZIPF_S); about MATH_SHARE of tokens are math.
* Each pair has TOPIC_WORDS topic words, drawn from the mid/low-frequency
  part of the vocabulary, that occur in both its statement and its proof.
* Each pair has 2-5 single-letter symbols shared by statement and proof, in
  several fonts; with probability TWO_FONT_P one letter occurs in two fonts
  (normal and bold). Real corpora have such letters, and they trigger the
  transposition-level replacement defect, so they are kept on purpose.
* Document lengths are log-normal around DOC_LEN_MEDIAN tokens with
  DOC_LEN_SIGMA spread, clipped to the ingest length filter [20, 500].
  Raw records add labelled records outside that filter.
"""

from __future__ import annotations

import numpy as np

TEXT_VOCAB = 3000
ZIPF_S = 1.05
MATH_SHARE = 0.25
TOPIC_WORDS = 6
TOPIC_SHARE = 0.18
SYMBOL_SHARE = 0.6
TWO_FONT_P = 0.5
DOC_LEN_MEDIAN = 150
DOC_LEN_SIGMA = 0.35
MIN_LEN, MAX_LEN = 20, 500

_SYLLABLES = [c + v for c in "bdfgklmnprstvz" for v in "aeiou"]
WORDS = [
    "".join(_SYLLABLES[(i // len(_SYLLABLES) ** j) % len(_SYLLABLES)]
            for j in range(3))
    for i in range(TEXT_VOCAB)
]
_ZIPF = 1.0 / np.arange(1, TEXT_VOCAB + 1) ** ZIPF_S
_ZIPF /= _ZIPF.sum()
_TOPIC_LO = 100  # topic words skip the function-word head of the Zipf curve

_LETTERS = "abcdfghijklmnpqrstuvwxyzαβγδθλμσφψω"
_SYMBOL_FONTS = ["", "", "", "", "bold", "script", "fraktur", "italic", "dstruck"]
_MATHML_VARIANT = {"bold": "bold", "script": "script", "fraktur": "fraktur",
                   "italic": "italic", "dstruck": "double-struck"}
_OPERATORS = ["=", "+", "−", "(", ")", "≤", "∈", "∑", "∫", "→", "0", "1",
              "2", "n", "sin", "dim", "Hom", "log"]
_CATEGORIES = ["math.CO", "math.PR", "math.AG", "math.NT", "math.FA", "math.GT"]

# Raw-record rejects: share too short (< 20 tokens) and too long (> 500).
RAW_SHORT_P = 0.05
RAW_LONG_P = 0.03


def _pair_tokens(rng: np.random.Generator, length: int, topics: np.ndarray,
                 symbols: list[tuple[str, str]]) -> list[tuple[str, str, str]]:
    """(kind, surface, font) triples for one document."""
    is_math = rng.random(length) < MATH_SHARE
    topic_pick = rng.random(length) < TOPIC_SHARE
    background = rng.choice(TEXT_VOCAB, size=length, p=_ZIPF)
    topic_idx = rng.integers(0, len(topics), size=length)
    sym_pick = rng.random(length) < SYMBOL_SHARE
    sym_idx = rng.integers(0, len(symbols), size=length)
    upper = rng.random(length) < 0.1
    op_idx = rng.integers(0, len(_OPERATORS), size=length)
    out = []
    for i in range(length):
        if not is_math[i]:
            w = topics[topic_idx[i]] if topic_pick[i] else background[i]
            out.append(("t", WORDS[w], ""))
        elif sym_pick[i]:
            letter, font = symbols[sym_idx[i]]
            if upper[i] and letter.upper() != letter:
                letter = letter.upper()
            out.append(("m", letter, font))
        else:
            out.append(("m", _OPERATORS[op_idx[i]], ""))
    return out


def _pair_symbols(rng: np.random.Generator) -> list[tuple[str, str]]:
    n = int(rng.integers(2, 6))
    letters = rng.choice(len(_LETTERS), size=n, replace=False)
    symbols = [(_LETTERS[j], _SYMBOL_FONTS[rng.integers(len(_SYMBOL_FONTS))])
               for j in letters]
    if rng.random() < TWO_FONT_P:
        letter = symbols[0][0]
        symbols[0] = (letter, "")
        symbols.append((letter, "bold"))
    return symbols


def _doc_len(rng: np.random.Generator) -> int:
    n = int(round(DOC_LEN_MEDIAN * np.exp(DOC_LEN_SIGMA * rng.standard_normal())))
    return min(max(n, MIN_LEN), MAX_LEN)


def generate_pairs(seed: int, n: int, prefix: str) -> list[dict]:
    """n pairs with pair ids ``<prefix><i>``; 1-5 consecutive pairs share
    an article id, so unmixed splits have whole articles to move."""
    rng = np.random.default_rng(seed)
    pairs = []
    article = 0
    left_in_article = 0
    for i in range(n):
        if left_in_article == 0:
            article += 1
            left_in_article = int(rng.integers(1, 6))
        left_in_article -= 1
        topics = rng.integers(_TOPIC_LO, TEXT_VOCAB, size=TOPIC_WORDS)
        symbols = _pair_symbols(rng)
        cats = sorted(set(rng.choice(_CATEGORIES, size=int(rng.integers(1, 3)))))
        pairs.append({
            "pair_id": f"{prefix}{i}",
            "article_id": f"{prefix}art{article}",
            "categories": cats,
            "statement": _pair_tokens(rng, _doc_len(rng), topics, symbols),
            "proof": _pair_tokens(rng, _doc_len(rng), topics, symbols),
        })
    return pairs


def _corpus_item(tok: tuple[str, str, str]) -> str:
    kind, surface, font = tok
    if kind == "t":
        return f"t:{surface}"
    return f"m:{surface}#{font}" if font else f"m:{surface}"


def write_corpus_file(pairs: list[dict], path) -> None:
    """The corpus TSV format; generated surfaces need no escaping."""
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            fh.write("\t".join((
                p["pair_id"], p["article_id"], ",".join(p["categories"]),
                " ".join(_corpus_item(t) for t in p["statement"]),
                " ".join(_corpus_item(t) for t in p["proof"]))) + "\n")


def _mathml_item(run: list[tuple[str, str, str]]) -> str:
    """One ``x:`` item: a run of math tokens as percent-encoded
    Presentation MathML, fonts given by ``mathvariant``."""
    leaves = []
    for _, surface, font in run:
        tag = "mi" if len(surface) == 1 and surface.isalpha() else "mo"
        attr = f' mathvariant="{_MATHML_VARIANT[font]}"' if font else ""
        leaves.append(f"<{tag}{attr}>{surface}</{tag}>")
    xml = "<math><mrow>" + "".join(leaves) + "</mrow></math>"
    return "x:" + xml.replace("%", "%25").replace(" ", "%20")


def _raw_doc(tokens: list[tuple[str, str, str]]) -> str:
    items, run = [], []
    for tok in tokens:
        if tok[0] == "m":
            run.append(tok)
            continue
        if run:
            items.append(_mathml_item(run))
            run = []
        items.append(_corpus_item(tok))
    if run:
        items.append(_mathml_item(run))
    return " ".join(items)


def generate_raw(seed: int, n: int, path) -> dict[str, int]:
    """Write n raw records with inline MathML; returns the generator's own
    label counts (keep / too_short / too_long) for the ingest check."""
    rng = np.random.default_rng(seed ^ 0x5EED)
    pairs = generate_pairs(seed, n, "r")
    labels = {"keep": 0, "too_short": 0, "too_long": 0}
    with open(path, "w", encoding="utf-8") as fh:
        for p in pairs:
            u = rng.random()
            if u < RAW_SHORT_P:
                p["proof"] = p["proof"][:int(rng.integers(3, MIN_LEN))]
                labels["too_short"] += 1
            elif u < RAW_SHORT_P + RAW_LONG_P:
                p["statement"] = (p["statement"] * 40)[:int(rng.integers(MAX_LEN + 1, 620))]
                labels["too_long"] += 1
            else:
                labels["keep"] += 1
            fh.write("\t".join((
                p["pair_id"], p["article_id"], ",".join(p["categories"]),
                _raw_doc(p["statement"]), _raw_doc(p["proof"]))) + "\n")
    return labels
