"""Exception types shared across the library."""

from __future__ import annotations


class ContextualityError(Exception):
    """Base class for all library errors."""


class ScenarioError(ContextualityError):
    """Invalid measurement scenario (labels, cover, outcome alphabet)."""


class SectionDomainError(ContextualityError):
    """A section was evaluated or restricted outside its domain."""


class ModelError(ContextualityError):
    """Invalid empirical model."""


class EmptySupportError(ModelError):
    """A context has empty support: condition E1 fails."""


class SignallingError(ModelError):
    """Supports or distributions disagree on an overlap: condition E2 fails."""

    def __init__(self, message: str, *, contexts=None, section=None):
        super().__init__(message)
        self.contexts = contexts
        self.section = section


class NormalisationError(ModelError):
    """A probability row does not sum to one, or has a negative entry."""


class DegenerateModelError(ModelError):
    """A construction produced a context with no admissible sections."""

    def __init__(self, message: str, *, context=None):
        super().__init__(message)
        self.context = context


class SectionNotSupportedError(ModelError):
    """The given section is not in the support of its context."""


class DisconnectedCoverError(ContextualityError):
    """The operation requires a connected cover; analyse components separately."""


class RingError(ContextualityError):
    """Invalid ring specification or ring-level operation."""


class UnsupportedRingError(RingError):
    """The requested ring is outside the supported family (Z and Z_n)."""


class OutcomeCoercionError(RingError):
    """Outcome values do not embed injectively into the requested ring."""


class PauliError(ContextualityError):
    """Malformed Pauli operator, phase, or triple."""


class FormulaError(ContextualityError):
    """Unparseable propositional formula or out-of-scope variable."""


class DocumentError(ContextualityError):
    """Malformed model document. Carries the JSON path of the first error."""

    def __init__(self, message: str, path: str = "$"):
        super().__init__(message if path == "$" else f"{path}: {message}")
        self.path = path


class UnknownCorpusEntryError(ContextualityError):
    """No corpus entry under the requested name."""


class BudgetExceededError(ContextualityError):
    """A search exceeded its node budget before reaching a verdict."""


class SelfCheckError(ContextualityError):
    """An internal consistency assertion failed; results must not be trusted."""
