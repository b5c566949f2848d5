"""Exception hierarchy used across the package.

Every error raised on purpose derives from OMError so callers (and the CLI)
can distinguish malformed input from genuine check failures.
"""


class OMError(Exception):
    """Base class for all package errors."""


class LengthMismatch(OMError):
    """Sign vectors of different lengths were combined."""


class EmptyInput(OMError):
    """An operation needs at least one sign vector / one cell."""


class ZeroNormal(OMError):
    """An arrangement row is the zero vector."""


class NotEssential(OMError):
    """The normals do not span the ambient space."""


class AxiomFailure(OMError):
    """Covector axioms failed; carries the verification report."""

    def __init__(self, report):
        self.report = report
        super().__init__(str(report))


class DegenerateChirotope(OMError):
    """A chirotope that is identically zero."""


class NotAlternating(OMError):
    """Chirotope values inconsistent under odd permutations of a basis."""


class SearchBudgetExceeded(OMError):
    """Isomorphism search refused: ground set too large."""


class NotAntisymmetric(OMError):
    """Relation has x <= y and y <= x for distinct x, y (witness attached)."""

    def __init__(self, witness):
        self.witness = witness
        super().__init__(f"antisymmetry fails on {witness!r}")


class Disconnected(OMError):
    """A 1-skeleton expected to be connected is not."""


class ConsistencyFailure(OMError):
    """An internal cross-check that must hold by theory did not."""


class ComparisonFailure(OMError):
    """Two quantities contracted to agree do not (carries both sides)."""


class EquivalenceViolation(OMError):
    """Two equivalent formulations disagree on the same input."""


class NotSimple(OMError):
    """Parallel or antiparallel elements where a simple matroid is needed."""


class NotATope(OMError):
    """A sign vector used as a tope is not a maximal covector."""


class ParseError(OMError):
    """Malformed file content; message includes the line number."""


class UnknownFixture(OMError):
    """Fixture spec string does not name a shipped fixture."""


class EnumerationLimitExceeded(OMError):
    """Ground set larger than the configured enumeration cap."""
