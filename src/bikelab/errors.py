"""Exception types shared across the package, and the one rule that reads an
integer from command text (:func:`parse_int`).

The CLI maps these onto process exit codes: ParameterError and
NotInvertibleError (a key, weak or not, whose h0 has no inverse at that r) -> 2,
SchemaError (and I/O failures) -> 3, BudgetExhaustedError -> 4.
"""


class ParameterError(ValueError):
    """An argument violates a documented precondition."""


def parse_int(text: str, error: str) -> int:
    """The integer in command text, as int() reads it; ParameterError(error) otherwise."""
    try:
        return int(text)
    except ValueError as exc:
        raise ParameterError(error) from exc


class NotInvertibleError(ArithmeticError):
    """The element has no multiplicative inverse in the ring."""


class SchemaError(ValueError):
    """A file does not match the expected JSON schema."""


class BudgetExhaustedError(RuntimeError):
    """A bounded retry loop ran out of attempts."""
