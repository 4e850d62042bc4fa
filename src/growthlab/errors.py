"""Shared exception types and the argument rules that raise them."""

import reprlib

import numpy as np


class _Shown(reprlib.Repr):
    def repr_int(self, x, level):  # repr raises past str()'s digit limit
        try:
            return super().repr_int(x, level)
        except ValueError:
            return f"<int of {x.bit_length()} bits>"


_SHOWN = _Shown()  # a value in a message: 6 items a level, 3 levels
_SHOWN.maxlevel, _SHOWN.maxother = 3, 80


class GrowthlabError(Exception):
    pass


class DimensionMismatch(GrowthlabError, ValueError):
    pass


class InfeasibleConstraint(GrowthlabError, ValueError):
    pass


class NonConvergence(GrowthlabError, RuntimeError):
    pass


class InvalidSpec(GrowthlabError, ValueError):
    pass


class UnsupportedSignalModel(GrowthlabError, ValueError):
    pass


class DensityFloorHit(GrowthlabError, RuntimeError):
    pass


class QuadratureUnderResolved(GrowthlabError, ValueError):
    pass


class NonNestedPartitions(GrowthlabError, ValueError):
    pass


class ConfigError(GrowthlabError, ValueError):
    pass


class ThresholdFailure(GrowthlabError, RuntimeError):
    pass


def as_int(value, name, low, high=None):
    """value as a Python int in [low, high]: an integral int, numpy integer
    or float. A bool, a fraction, NaN, infinity or any other value raises
    InvalidSpec, as does an integer out of range."""
    try:
        out = int(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or out != value or isinstance(value, (bool, np.bool_)):
        raise InvalidSpec(f"{name} must be an integer, got {_SHOWN.repr(value)}")
    if out < low or high is not None and out > high:
        bound = {0: "nonnegative", 1: "positive"}.get(low, f"at least {low}")
        top = "" if high is None else f" and at most {high}"
        raise InvalidSpec(f"{name} must be {bound}{top}, got {_SHOWN.repr(out)}")
    return out


def _holds_non_number(value):
    """A bool or a string at any depth: numpy reads True as 1.0 and "2" as
    2.0, yet neither is a number."""
    if isinstance(value, (list, tuple)):
        return any(map(_holds_non_number, value))
    if isinstance(value, np.ndarray):
        return value.dtype.kind not in "iuf"
    return isinstance(value, (bool, np.bool_, str, bytes))


def as_floats(value, name, ndim=None):
    """value, a finite number or nested list of numbers with ndim axes if
    given, as a float array (0-d for a number). A bool or string at any
    depth, a ragged or non-numeric value, NaN or infinity raises
    InvalidSpec."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError, OverflowError):
        arr = None
    if arr is None or ndim not in (None, arr.ndim) \
            or not np.all(np.isfinite(arr)) or _holds_non_number(value):
        what = {None: "finite numbers", 0: "a finite number"}.get(
            ndim, f"a finite {ndim}-d array")
        raise InvalidSpec(f"{name} must be {what}, got {_SHOWN.repr(value)}")
    return arr


def as_ladder(value, name):
    """value as a 1-d float array of two or more distinct finite sizes, as a
    ladder's slope fit needs; raises InvalidSpec like as_floats otherwise."""
    arr = as_floats(value, name, 1)
    if arr.size < 2 or np.unique(arr).size < arr.size:
        raise InvalidSpec(f"{name} must list two or more distinct sizes, "
                          f"got {_SHOWN.repr(value)}")
    return arr
