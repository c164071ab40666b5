"""Exception hierarchy shared across the toolkit.

Every operational failure raises a subclass of CodemixError so callers
(and the CLI) can distinguish bad input from programming errors.
"""


class CodemixError(Exception):
    """Base class for all toolkit errors."""


# --- training / identification ---

class EmptyCorpus(CodemixError):
    """All training lines normalized to empty text."""


class InvalidConfig(CodemixError):
    """N-gram order, smoothing constant or language code out of bounds."""


class EmptyText(CodemixError):
    """Text yields no character n-grams to score."""


class EmptyProfileSet(CodemixError):
    """No language profiles available for identification."""


class ProfileError(CodemixError):
    """Profile file is malformed, inconsistent or has an unsupported version."""


# --- chunking ---

class EmptyTokens(CodemixError):
    """Chunking requested on an empty token sequence."""


# --- corpus handling ---

class ParseError(CodemixError):
    """Corpus file did not parse; carries the offending line number."""

    def __init__(self, message: str, line: int | None = None):
        super().__init__(f"line {line}: {message}" if line is not None else message)
        self.line = line


class MissingField(CodemixError):
    """A declared field is absent from a corpus record."""


class InsufficientPopulation(CodemixError):
    """Requested sample size exceeds the filtered population."""


class EmptyInput(CodemixError):
    """Operation requires at least one element."""


# --- evaluation ---

class LengthMismatch(CodemixError):
    """Gold and predicted sequences differ in length."""


class EmptyMatrix(CodemixError):
    """Confusion matrix holds no observations."""


class DimensionMismatch(CodemixError):
    """Observed counts and expected proportions disagree in arity."""


class ZeroExpected(CodemixError):
    """An expected proportion is not strictly positive."""


class DomainError(CodemixError):
    """Numeric argument outside the function's domain."""


# --- synthetic data ---

class InvalidSpec(CodemixError):
    """Synthetic corpus specification violates its invariants."""


def check_int(value: object, least: int, what: str, error: type[CodemixError] = InvalidConfig) -> None:
    """Raise ``error`` unless ``value`` is an int (never a bool) of at least ``least``."""
    if type(value) is not int or value < least:
        raise error(f"{what} must be an integer of at least {least}, got {value!r}")
