"""Exception types shared across the package, the range checks of settings, and the
checked decoding of arrays read from input files."""

import math
import sys
from numbers import Integral, Real

import numpy as np


class TrajsmoothError(Exception):
    """Base class for all package errors."""


class ContractError(TrajsmoothError):
    """A caller violated a documented precondition (dimension mismatch, bad range, ...)."""


class SingularMatrixError(TrajsmoothError):
    """A covariance required to be invertible is non-finite, or after jitter still has no
    Cholesky factor (it is indefinite or singular) or a condition estimate above the limit."""


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

    `interval` is written like "(0, 1]" or "[0, inf)". A number beyond the
    largest float, such as a JSON integer too large for one, is refused.
    """
    low, high = (float(x) for x in interval[1:-1].split(","))
    if isinstance(value, bool) or not isinstance(value, Real) or not (
        abs(value) <= sys.float_info.max
        and (low < value if interval[0] == "(" else low <= value)
        and (value < high if interval[-1] == ")" else value <= high)
    ):
        raise SettingError(f"{name} must be a number in {interval}, got {value!r}")
    return value


def _matrix(path: str, value, shape: tuple) -> np.ndarray:
    """`value` as a finite float array of `shape`, or ConfigError naming `path`.

    A None entry of `shape` matches any length. The model matrices, Gaussian
    densities and measurements of every input file are decoded here.
    """
    try:
        a = np.asarray(value, float)
    except OverflowError:
        raise ConfigError(f"{path} must be finite, got an integer too large for a float") from None
    if a.ndim != len(shape) or any(n is not None and n != got for n, got in zip(shape, a.shape)):
        want = ", ".join("n" if n is None else str(n) for n in shape)
        want += "," * (len(shape) == 1)
        raise ConfigError(f"{path} must have shape ({want}), got {a.shape}")
    # a finite sum has finite terms; only an overflowing sum needs the entrywise check
    if not (math.isfinite(a.sum()) or np.isfinite(a).all()):
        raise ConfigError(f"{path} must be finite, got {value!r}")
    return a


def _members(path: str, values: list, shape: tuple) -> np.ndarray:
    """`values`, a list of arrays of `shape`, decoded as one (len(values), *shape) `_matrix`.

    `path` formats member i's field name. A None entry of `shape` matches any
    length shared by every member. When the stack is rejected, the first
    member that `_matrix` rejects on its own is named.
    """
    if not values:
        return np.empty((0, *(n or 0 for n in shape)))
    try:
        return _matrix(path.format("*"), values, (len(values), *shape))
    except (ConfigError, ValueError):
        for i, value in enumerate(values):
            _matrix(path.format(i), value, shape)
        raise
