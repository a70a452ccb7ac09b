"""The package's one error base: every error proofmatch raises on bad input
or an infeasible request derives from it, so a caller can catch them all."""


class ProofmatchError(Exception):
    pass


class InvalidValue(ProofmatchError, ValueError):
    """A configuration or data value outside its allowed range."""
