"""Readers for JSON input documents: each checks one value against the
shape docs/schemas gives it and returns it, or raises InputError naming
the value's JSON path ($ is the document, $.c[0][3] the last entry of
the first row of c).  The CLI maps every InputError to exit code 2."""

import re
from fractions import Fraction

# Fraction('1e30000000') computes 10 ** 30000000 before anything can look
# at it.  Fraction refuses a digit string longer than Python's 4,300-digit
# int limit; rational() refuses a decimal exponent beyond it the same way.
MAX_EXPONENT = 4300
_EXPONENT = re.compile(r"[eE][-+]?([\d_]*)\s*\Z")


class InputError(ValueError):
    """Malformed input; .path names the bad value (JSON path or option)."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")
        self.path = path


def fields(obj, path, required, optional=()):
    """obj, an object with the required keys and no others but optional."""
    if type(obj) is not dict:
        raise InputError(path, "expected an object, got " + type(obj).__name__)
    unknown = sorted(set(obj) - set(required) - set(optional))
    if unknown:
        raise InputError(f"{path}.{unknown[0]}", "unknown key")
    for key in required:
        if key not in obj:
            raise InputError(f"{path}.{key}", "missing required key")
    return obj


def natural(v, path, below=None):
    """v, a non-negative int (never a bool), and < below if given."""
    if type(v) is not int or v < 0 or (below is not None and v >= below):
        want = "a non-negative integer" if below is None \
            else f"an index in range({below})"
        raise InputError(path, f"expected {want}, got {v!r}")
    return v


def array(v, path, length=None):
    """v, a list, of the given length if one is given."""
    if type(v) is not list or length not in (None, len(v)):
        got = f"length {len(v)}" if type(v) is list else type(v).__name__
        want = "" if length is None else f" of length {length}"
        raise InputError(path, f"expected an array{want}, got {got}")
    return v


def rational(v, path):
    """Fraction(v) for v a string or an int, the spellings the schemas
    allow ('3', '-1/2', '1e-3' or 3), with a decimal exponent of at most
    MAX_EXPONENT in absolute value."""
    if type(v) not in (str, int):
        raise InputError(path, "expected a rational as a string or an "
                               f"integer, got {v!r}")
    exponent = type(v) is str and _EXPONENT.search(v)
    if exponent:
        digits = exponent[1].replace("_", "").lstrip("0")
        if len(digits) > len(str(MAX_EXPONENT)) \
                or int(digits or 0) > MAX_EXPONENT:
            raise InputError(path, f"not a rational (a decimal exponent "
                                   f"beyond {MAX_EXPONENT} in absolute value)")
    try:
        return Fraction(v)
    except (ValueError, ZeroDivisionError) as e:
        raise InputError(path, f"not a rational ({e})")
