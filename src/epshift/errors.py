"""Domain and syntax errors with machine-readable codes for the CLI."""


class DomainError(Exception):
    """Base for all algebra-level failures; ``code`` is stable across versions."""

    code = "domain_error"

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details


class ClosureDiverged(DomainError):
    """Closure exceeded the member cap; generators lie outside the tractable fragment."""

    code = "closure_diverged"


class NotOmegaClosed(DomainError):
    code = "not_omega_closed"


class EmptyOutsideFamily(DomainError):
    """A product's set came out empty but the family has no empty member."""

    code = "empty_outside_family"


class OutsideFamily(DomainError):
    code = "outside_family"


class NotIdempotent(DomainError):
    code = "not_idempotent"


class NotRelated(DomainError):
    code = "not_related"


class ZeroInFamily(DomainError):
    code = "zero_in_family"


class WrongIsoType(DomainError):
    code = "wrong_iso_type"


class NotSingletonSet(DomainError):
    code = "not_singleton_set"


class WrongProgression(DomainError):
    code = "wrong_progression"


class ResourceLimit(DomainError):
    """A computation would exceed a fixed size bound; ``quantity`` names
    what was measured, ``value`` its size and ``limit`` the bound."""

    code = "resource_limit"


class ParseError(Exception):
    """Syntax error with position info; ``expected`` names the tokens that would fit."""

    def __init__(self, message, line, col, expected=()):
        super().__init__(f"{message} at line {line}, column {col}")
        self.message = message
        self.line = line
        self.col = col
        self.expected = tuple(expected)
