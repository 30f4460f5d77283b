"""Exception hierarchy for oribij.

Everything raised on purpose derives from OribijError so callers (and the
CLI exit-code mapping) can tell our failures from genuine bugs.
"""


class OribijError(Exception):
    """Base class for all oribij errors."""


class InputError(OribijError):
    """Malformed or inconsistent input data (graphs, matrices, signatures)."""


class TrivialGraphError(OribijError):
    """Single-vertex graph: no incidence matrix exists; use loops_only_rep."""


class CapExceededError(OribijError):
    """An exponential enumeration was asked to exceed its configured cap."""


class NotSameClassError(OribijError):
    """Kernel/image split of an integer vector is not integral."""


class NonGenericWeightsError(OribijError):
    """Kept for compatibility; nothing raises it.

    ``signature_from_weights`` breaks a tie toward the vector whose
    lowest-index entry is +1, the lexicographic refinement of the weights, so
    every weight vector gives an acyclic signature.
    """


class NotCompatibleError(InputError):
    """An orientation required to be signature-compatible is not."""


class InvariantViolationError(OribijError):
    """A condition guaranteed by theory failed; indicates a bug or bad rep."""
