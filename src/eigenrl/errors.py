"""Exception types shared across the package, and the checks of JSON input.

There are two classes, one per exit code.  Bad input is a
:class:`ConfigError`, which the command line reports with exit code 2;
every other failure is an :class:`EigenrlError`, exit code 3.  The message
says which rule failed.  A caller checks an input by calling the function
that owns its rule, which raises the right class, rather than testing it
again.
"""
import json
import math


class EigenrlError(Exception):
    """Base class for every error raised by this package."""


class ConfigError(EigenrlError):
    """Configuration file or value is malformed."""


def read_json(path: str, what: str, lines: bool = False):
    """The JSON document in the ``what`` file at ``path`` or, with ``lines``,
    the list of those on its non-blank lines; ConfigError if the file cannot
    be read or is not JSON."""
    try:
        with open(path, encoding="utf-8") as fh:
            if lines:
                return [json.loads(line) for line in (raw.strip() for raw in fh) if line]
            return json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {what} {path}: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON or UTF-8, too deep, an int too long
        raise ConfigError(f"{what} {path} is not valid JSON: {exc}") from exc


def integer(value, what: str) -> int:
    """``value`` if it is a JSON integer, an int and not a bool; ConfigError
    naming ``what`` otherwise."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise ConfigError(f"{what} must be an integer, got {value!r}")
    return value


def finite_number(value, what: str) -> float:
    """``value`` as a float if it is a finite JSON number, an int or a float
    and not a bool; ConfigError naming ``what`` otherwise."""
    if not isinstance(value, bool) and isinstance(value, (int, float)):
        try:
            if math.isfinite(value):
                return float(value)
        except OverflowError:  # an integer beyond the float range
            pass
    raise ConfigError(f"{what} must be a finite number, got {value!r}")
