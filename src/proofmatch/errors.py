"""The package's error types, and the one seed rule that every seeded step
checks. Every error proofmatch raises derives from ``ProofmatchError``, so
a caller can catch them all. A subclass exists only where a caller tells
it apart: it is caught by its own type, carries attributes, or is a public
function's documented error; any other error is a ``ProofmatchError``."""

import copyreg


class ProofmatchError(Exception):
    def __reduce__(self):
        # Unpickling rebuilds the error from its message and attributes
        # without calling __init__ again: a subclass whose __init__ formats
        # the message (NonFiniteLoss, FormatError) would format it twice or
        # refuse the formatted message. Errors cross the process boundary
        # of the grid's workers this way.
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


class InvalidValue(ProofmatchError, ValueError):
    """A configuration or data value outside its allowed range."""


def check_seed(seed: int) -> None:
    """A seed names one run: an integer in [0, 2**64), the range of a
    checkpoint's uint64 seed field. Any other value is ``InvalidValue``."""
    if not 0 <= seed < 1 << 64:
        raise InvalidValue(f"seed must be >= 0 and < 2**64, not {seed}")
