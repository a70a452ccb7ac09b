"""The package's one error base: every error proofmatch raises on bad input
or an infeasible request derives from it, so a caller can catch them all.
Also the one seed rule, which every seeded step checks."""

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
