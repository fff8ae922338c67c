"""Emulated floating-point precision modes.

Reduced precision is emulated by rounding every primitive's output (and
every accumulated gradient) to the nearest value representable with a
configurable mantissa width and exponent range. The default mode is exact
float64, under which quantization is the identity.

FP16 is IEEE binary16, so its rounding is numpy's own float16 round trip.
Every other grid goes through ``_round_to_grid``, a round-to-nearest-even
in numpy that gives the same values as that round trip on the FP16 grid.
"""

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class PrecisionMode:
    """Representable-value grid: ``mantissa_bits`` explicit mantissa bits
    (52 = float64) and an unbiased exponent range [exponent_min, exponent_max]."""

    mantissa_bits: int
    exponent_min: int
    exponent_max: int
    flush_subnormals: bool = False

    def __post_init__(self):
        if not 0 <= self.mantissa_bits <= 52:
            raise ValueError(f"mantissa_bits must be in [0, 52], got {self.mantissa_bits}")
        if self.exponent_min > self.exponent_max:
            raise ValueError("exponent_min must not exceed exponent_max")

    @property
    def is_exact(self):
        return (
            self.mantissa_bits == 52
            and self.exponent_min <= -1022
            and self.exponent_max >= 1023
        )

    @property
    def max_finite(self):
        """Largest representable finite magnitude."""
        return (2.0 - math.ldexp(1.0, -self.mantissa_bits)) * math.ldexp(
            1.0, self.exponent_max
        )


EXACT = PrecisionMode(mantissa_bits=52, exponent_min=-1022, exponent_max=1023)
FP16 = PrecisionMode(mantissa_bits=10, exponent_min=-14, exponent_max=15)


def quantize_array(x, mode):
    """Round each element of ``x`` to the nearest value representable under
    ``mode``. Returns a new float64 array (or ``x`` itself in exact mode).

    Magnitudes beyond ``mode.max_finite`` overflow to signed infinity; NaN
    and infinities pass through. Non-finiteness is data here, not an error.
    """
    arr = np.asarray(x, dtype=np.float64)
    if mode.is_exact:
        return arr
    if mode == FP16:
        # overflow to +-inf is the emulated behaviour, not a fault
        with np.errstate(over="ignore"):
            return arr.astype(np.float16).astype(np.float64)
    return _round_to_grid(arr, mode)


def _round_to_grid(arr, mode):
    """Round-to-nearest-even onto ``mode``'s grid; returns a new array.
    Zeros, NaN and infinities are left as they are."""
    mb = mode.mantissa_bits
    out = arr.copy()
    work = (out != 0.0) & np.isfinite(out)
    v = out[work]
    m, e = np.frexp(v)
    q = np.ldexp(np.rint(np.ldexp(m, mb + 1)), e - (mb + 1))

    sub = (e - 1) < mode.exponent_min
    if sub.any():
        step = math.ldexp(1.0, mode.exponent_min - mb)
        qs = np.rint(v[sub] / step) * step
        if mode.flush_subnormals:
            qs[np.abs(qs) < math.ldexp(1.0, mode.exponent_min)] = 0.0
        q[sub] = qs

    over = np.abs(q) > mode.max_finite
    q[over] = np.copysign(np.inf, q[over])

    out[work] = q
    return out


def quantize_scalar(x, mode):
    return float(quantize_array(np.array([x]), mode)[0])
