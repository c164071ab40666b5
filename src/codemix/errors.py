"""Exception hierarchy shared across the toolkit.

Every operational failure raises a subclass of CodemixError so callers
(and the CLI) can distinguish bad input from programming errors. There is
one class per kind of fault; the message says which rule fired.
"""


class CodemixError(Exception):
    """Base class for all toolkit errors."""


class InvalidConfig(CodemixError):
    """An argument, option or field breaks its rule."""


class EmptyInput(CodemixError):
    """Nothing, or too little, to work on."""


class ParseError(CodemixError):
    """A corpus record or profile file is malformed; ``line`` names the corpus line if known."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


def brief(value: object) -> str:
    """``repr(value)`` for a message; an int of more than 64 bits is given by its size, not its digits."""
    if type(value) is int and value.bit_length() > 64:
        return f"an int of {value.bit_length()} bits"
    return repr(value)


def check_int(value: object, least: int, what: str) -> None:
    """Raise InvalidConfig unless ``value`` is an int (never a bool) of at least ``least``."""
    if type(value) is not int or value < least:
        raise InvalidConfig(f"{what} must be an integer of at least {least}, got {brief(value)}")
