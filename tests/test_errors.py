"""Every proofmatch error survives pickling, as it does on its way back
from a grid worker process: same type, same message, same attributes; and
every error type is one that a caller tells apart. And every seeded step
keeps the one seed rule."""

import ast
import importlib
import pickle
import pkgutil
import re
from pathlib import Path

import pytest

import proofmatch
from proofmatch.corpus import FormatError, SplitSpec
from proofmatch.encoders import EncoderConfig, build_vocab, init_model
from proofmatch.errors import InvalidValue, ProofmatchError
from proofmatch.evalharness import run_grid
from proofmatch.symbols import (CONSERVATION, FULL, SymbolKey,
                               build_replacement_map, replace_corpus)
from proofmatch.training import NonFiniteLoss, TrainConfig
from conftest import separable_corpus

for _module in pkgutil.iter_modules(proofmatch.__path__):
    importlib.import_module(f"proofmatch.{_module.name}")


def subclasses(cls) -> list[type]:
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(subclasses(sub))
    return out


ERRORS = sorted({c for c in subclasses(ProofmatchError)
                 if c.__module__.startswith("proofmatch.")},
                key=lambda c: c.__qualname__)
# the constructors that take more than a message
ARGS = {NonFiniteLoss: (["p1", "p2"],), FormatError: ("bad item", 3, 7)}


def test_every_module_is_searched():
    assert {NonFiniteLoss, FormatError, ProofmatchError} <= set(ERRORS)


@pytest.mark.parametrize("cls", ERRORS, ids=lambda c: c.__qualname__)
@pytest.mark.parametrize("protocol", [0, pickle.HIGHEST_PROTOCOL])
def test_round_trip_keeps_type_message_and_attributes(cls, protocol):
    error = cls(*ARGS.get(cls, ("a message",)))
    copy = pickle.loads(pickle.dumps(error, protocol))
    assert type(copy) is cls
    assert str(copy) == str(error)
    assert vars(copy) == vars(error)


def caught_names() -> set[str]:
    """Every name in an ``except`` clause of the package's modules."""
    names = set()
    for path in Path(proofmatch.__path__[0]).glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ExceptHandler) and node.type is not None:
                names |= {n.id if isinstance(n, ast.Name) else n.attr
                          for n in ast.walk(node.type)
                          if isinstance(n, (ast.Name, ast.Attribute))}
    return names


CAUGHT = caught_names()
README = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")


@pytest.mark.parametrize("cls", ERRORS, ids=lambda c: c.__qualname__)
def test_every_error_type_is_told_apart(cls):
    """An error type exists only where a caller tells it apart from its
    base: the package catches it by name, it carries attributes of its own
    (an ``__init__`` that sets them), or README documents it."""
    name = cls.__name__
    assert (name in CAUGHT or "__init__" in vars(cls)
            or re.search(rf"`(proofmatch\.)?{name}`", README)), (
        f"{name} is neither caught, nor has attributes, nor is documented")


CORPUS = separable_corpus(4)
# Each step that takes a seed, run with a given seed.
SEEDED = {
    "SplitSpec": lambda seed: SplitSpec(seed=seed),
    "TrainConfig": lambda seed: TrainConfig(seed=seed),
    "init_model": lambda seed: init_model(build_vocab(CORPUS), EncoderConfig(d=4),
                                          seed),
    "build_replacement_map": lambda seed: build_replacement_map(
        {SymbolKey("x")}, FULL, seed=seed, forbidden={"x"}),
    "replace_corpus": lambda seed: replace_corpus(CORPUS, FULL, seed=seed),
    # conservation mixes no sub-seed, and checks the seed all the same
    "replace_corpus_conservation": lambda seed: replace_corpus(
        CORPUS, CONSERVATION, seed=seed),
    "run_grid": lambda seed: run_grid(CORPUS, CORPUS, CORPUS, [CONSERVATION],
                                      EncoderConfig(d=4),
                                      TrainConfig(batch_size=4, epochs=1),
                                      seed=seed),
}


@pytest.mark.parametrize("step", sorted(SEEDED))
@pytest.mark.parametrize("seed", [-1, 2**64])
def test_a_seed_outside_the_uint64_range_is_rejected(step, seed):
    with pytest.raises(InvalidValue,
                       match=f"^seed must be >= 0 and < 2\\*\\*64, not {seed}$"):
        SEEDED[step](seed)


@pytest.mark.parametrize("step", sorted(SEEDED))
def test_the_largest_seed_is_accepted(step):
    SEEDED[step](2**64 - 1)
