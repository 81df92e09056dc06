"""Exception types shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class CriterionDomainError(DomainError):
    """A criterion was evaluated outside its admissible domain.

    ``constraint`` names the violated admissibility constraint
    (e.g. ``"exp-moment finite"``).
    """

    def __init__(self, message: str, constraint: str = ""):
        super().__init__(message)
        self.constraint = constraint


class UnsupportedOperationError(RuntimeError):
    """The operation is not defined for this criterion or configuration."""


class ConfigError(ValueError):
    """An experiment configuration file failed validation."""


def add_context(exc: BaseException, context: str) -> None:
    """Prepend context to the message of ``exc``, keeping its type and attributes."""
    exc.args = (f"{context}: {exc}", *exc.args[1:])

