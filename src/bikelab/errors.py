"""Exception types shared across the package.

The CLI maps these onto process exit codes: ParameterError and
NotInvertibleError (a weak key whose h0 has no inverse at that r) -> 2,
SchemaError (and I/O failures) -> 3, BudgetExhaustedError -> 4.
"""


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


class NotInvertibleError(ArithmeticError):
    """The element has no multiplicative inverse in the ring."""


class SchemaError(ValueError):
    """A file does not match the expected JSON schema."""

    def __init__(self, message: str, field: str | None = None):
        super().__init__(message)
        self.field = field


class BudgetExhaustedError(RuntimeError):
    """A bounded retry loop ran out of attempts."""
