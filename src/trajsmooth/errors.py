"""Exception types shared across the package, and the range checks of settings."""

from numbers import Integral, Real


class TrajsmoothError(Exception):
    """Base class for all package errors."""


class ContractError(TrajsmoothError):
    """A caller violated a documented precondition (dimension mismatch, bad range, ...)."""


class SingularMatrixError(TrajsmoothError):
    """A covariance required to be invertible is numerically singular even after jitter."""


class InfeasibleAssignmentError(TrajsmoothError):
    """No feasible row-to-column assignment exists (some row has only forbidden entries)."""


class ConfigError(TrajsmoothError):
    """A configuration file or dict is malformed; message carries the field path."""


class SizeCapError(TrajsmoothError):
    """An exhaustive computation would exceed its configured size cap."""


class SettingError(ContractError, ConfigError):
    """A filter, smoother or metric setting has the wrong type or lies outside its range."""


def check_int(name: str, value, low: int):
    """`value`, or SettingError unless it is an int (not a bool or a float) >= `low`."""
    if isinstance(value, bool) or not isinstance(value, Integral) or value < low:
        raise SettingError(f"{name} must be an integer >= {low}, got {value!r}")
    return value


def check_real(name: str, value, interval: str):
    """`value`, or SettingError unless it is a real number (not a bool) in `interval`.

    `interval` is written like "(0, 1]" or "[0, inf)".
    """
    low, high = (float(x) for x in interval[1:-1].split(","))
    if isinstance(value, bool) or not isinstance(value, Real) or not (
        (low < value if interval[0] == "(" else low <= value)
        and (value < high if interval[-1] == ")" else value <= high)
    ):
        raise SettingError(f"{name} must be a number in {interval}, got {value!r}")
    return value
