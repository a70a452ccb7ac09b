"""Every proofmatch error survives pickling, as it does on its way back
from a grid worker process: same type, same message, same attributes."""

import importlib
import pickle
import pkgutil

import pytest

import proofmatch
from proofmatch.corpus import FormatError
from proofmatch.errors import ProofmatchError
from proofmatch.training import NonFiniteLoss

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

