"""Numerical verification utilities: power-iteration extreme-eigenvalue
estimation, the loader of every JSON input file, and the field checks that
configs run before any work."""

import json
import math
import numbers
import sys

import numpy as np


class NumericalError(RuntimeError):
    """A computation on valid inputs went non-finite or did not converge."""


class PowerIterationError(NumericalError):
    def __init__(self, residual, iters):
        msg = f"no convergence after {iters} iterations (residual {residual:g})"
        super().__init__(f"power iteration: {msg}")
        self.residual = residual
        self.iters = iters


def load_config(path):
    """A JSON input file; bytes that are not UTF-8, invalid JSON (an
    integer past int()'s digit limit included), NaN, Infinity and numbers
    that overflow to inf are input errors (ValueError) that name the file."""

    def finite(text):
        v = float(text)
        if not math.isfinite(v):
            raise ValueError(f"{path}: non-finite number {text}")
        return v

    def integer(text):
        try:
            return int(text)
        except ValueError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None

    with open(path, encoding="utf-8") as fh:
        try:
            return json.load(fh, parse_float=finite, parse_int=integer, parse_constant=finite)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: invalid JSON: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: invalid UTF-8: {exc}") from None


def config_keys(name, obj, known):
    """ValueError unless ``obj`` is a JSON object whose keys are all in
    ``known``."""
    if not isinstance(obj, dict):
        raise ValueError(f"{name} must be an object, got {obj!r}")
    extra = set(obj) - set(known)
    if extra:
        raise ValueError(f"unknown {name} keys: {sorted(extra)}")


def config_field(name, obj, key):
    """``obj[key]``, or a ValueError naming the object ``name`` and the key."""
    if key not in obj:
        raise ValueError(f"{name} is missing {key!r}")
    return obj[key]


def config_list(name, value):
    """ValueError unless ``value`` is a list (a JSON array) or a tuple: a
    string or a number is not taken for a sequence of its parts."""
    if not isinstance(value, (list, tuple)):
        raise ValueError(f"{name} must be a list, got {value!r}")


def config_int(name, value, low, high=None):
    """ValueError unless ``value`` is an integer, not a bool, within the
    int64 range, with ``low <= value`` and, if ``high`` is given,
    ``value < high``."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Integral)
        or value < low
        or (high is not None and value >= high)
    ):
        bound = f">= {low}" if high is None else f"in [{low}, {high})"
        raise ValueError(f"{name} must be an integer {bound}, got {value!r}")
    if value > np.iinfo(np.int64).max:
        raise ValueError(f"{name} must be an integer within the int64 range, got {value!r}")


# The most elements any one array that a config implies may hold: 80 MB of
# float64, far above every bundled config and far below what would exhaust a
# desk machine.
MAX_ELEMENTS = 10**7


def config_elements(name, count):
    """ValueError unless ``count``, the element count of the array that the
    fields ``name`` size, is at most MAX_ELEMENTS."""
    if count > MAX_ELEMENTS:
        raise ValueError(
            f"{name}: {count} elements, more than the {MAX_ELEMENTS} an array may hold"
        )


def config_number(name, value, low=None):
    """ValueError unless ``value`` is a real number, not a bool, within the
    float64 range, and ``value >= low`` when ``low`` is given."""
    if (
        isinstance(value, bool)
        or not isinstance(value, numbers.Real)
        or abs(value) > sys.float_info.max
        or (low is not None and not value >= low)
    ):
        bound = "" if low is None else f" >= {low}"
        raise ValueError(f"{name} must be a number{bound}, got {value!r}")


def _dominant_eigen(apply, dim, iters, tol, seed=0):
    """Dominant eigenvalue of a symmetric PSD linear map via power iteration.
    Returns (eigenvalue, residual); residual is ||Av - lambda v||."""
    rng = np.random.default_rng(seed)
    v = rng.standard_normal(dim)
    v /= np.linalg.norm(v)
    residual = np.inf
    for _ in range(iters):
        w = np.asarray(apply(v), dtype=np.float64)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0, 0.0  # map annihilates v: eigenvalue 0
        v = w / norm
        w2 = np.asarray(apply(v), dtype=np.float64)
        lam = float(v @ w2)
        residual = float(np.linalg.norm(w2 - lam * v))
        if residual <= tol * max(abs(lam), 1.0):
            return lam, residual
    raise PowerIterationError(residual, iters)


def power_iteration_extremes(apply, dim, iters=10000, tol=1e-10):
    """Extreme eigenvalues (lambda_max, lambda_min) of a symmetric positive
    definite map ``apply: vector -> vector``.

    lambda_min comes from a second power iteration on the spectrally shifted
    map lambda_max*I - H, avoiding any linear solve.
    """
    if dim < 1:
        raise ValueError("dim must be >= 1")
    lam_max, _ = _dominant_eigen(apply, dim, iters, tol, seed=0)

    def shifted(v):
        return lam_max * v - np.asarray(apply(v), dtype=np.float64)

    mu, _ = _dominant_eigen(shifted, dim, iters, tol, seed=1)
    return lam_max, lam_max - mu
