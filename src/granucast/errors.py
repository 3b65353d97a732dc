"""Exception hierarchy shared across the package."""


class GranucastError(Exception):
    """Base class for all errors raised by granucast."""


def require_int(name: str, value, low: int) -> None:
    """Raise ``ValueError`` unless ``value`` is a plain ``int`` (not a
    ``bool``) of at least ``low``."""
    if type(value) is not int or value < low:
        raise ValueError(f"{name} must be an integer >= {low}, got {value!r}")
