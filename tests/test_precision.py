import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from babelkit.precision import (
    EXACT,
    FP16,
    PrecisionMode,
    _round_to_grid,
    quantize_array,
    quantize_scalar,
)

FP16_MAX = 65504.0
# FP16 takes the float16 cast, every other grid the generic rounding
PROPERTY_MODES = (FP16, PrecisionMode(3, -4, 4))


def float16_round_trip(x):
    with np.errstate(over="ignore"):
        return np.asarray(x, dtype=np.float64).astype(np.float16).astype(np.float64)


class TestModeValidation:
    def test_mantissa_range(self):
        with pytest.raises(ValueError):
            PrecisionMode(mantissa_bits=53, exponent_min=-10, exponent_max=10)
        with pytest.raises(ValueError):
            PrecisionMode(mantissa_bits=-1, exponent_min=-10, exponent_max=10)

    def test_exponent_order(self):
        with pytest.raises(ValueError):
            PrecisionMode(mantissa_bits=10, exponent_min=5, exponent_max=4)

    def test_exact_flag(self):
        assert EXACT.is_exact
        assert not FP16.is_exact

    def test_fp16_max_finite(self):
        assert FP16.max_finite == FP16_MAX


class TestQuantizeExamples:
    def test_one_is_exactly_representable(self):
        assert quantize_scalar(1.0, FP16) == 1.0

    def test_overflow_to_infinity(self):
        # 70000 > max finite fp16 (65504) -> +inf
        assert quantize_scalar(70000.0, FP16) == math.inf
        assert quantize_scalar(-70000.0, FP16) == -math.inf

    def test_exact_mode_is_identity_bitwise(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(100) * np.exp(rng.uniform(-300, 300, 100))
        assert quantize_array(x, EXACT).tobytes() == x.tobytes()

    def test_matches_float16_cast_on_normals(self):
        rng = np.random.default_rng(1)
        x = rng.standard_normal(10000) * np.exp(rng.uniform(-5, 10, 10000))
        ours = quantize_array(x, FP16)
        ref = np.float64(np.float16(x))
        np.testing.assert_array_equal(ours, ref)

    def test_nan_and_inf_pass_through(self):
        out = quantize_array([math.nan, math.inf, -math.inf, 1.5], FP16)
        assert math.isnan(out[0])
        assert out[1] == math.inf and out[2] == -math.inf
        assert out[3] == 1.5

    def test_subnormal_grid(self):
        # smallest fp16 subnormal is 2^-24; half of it rounds to even (0)
        tiny = math.ldexp(1.0, -24)
        assert quantize_scalar(tiny, FP16) == tiny
        assert quantize_scalar(tiny / 2, FP16) == 0.0
        assert quantize_scalar(tiny * 0.75, FP16) == tiny

    def test_flush_subnormals(self):
        mode = PrecisionMode(10, -14, 15, flush_subnormals=True)
        tiny = math.ldexp(1.0, -24)
        assert quantize_scalar(tiny, mode) == 0.0
        assert quantize_scalar(math.ldexp(1.0, -14), mode) == math.ldexp(1.0, -14)

    def test_round_to_nearest_even(self):
        # halfway between 2048 and 2050 (fp16 step is 2 there) -> 2048
        assert quantize_scalar(2049.0, FP16) == 2048.0
        assert quantize_scalar(2051.0, FP16) == 2052.0


@st.composite
def reasonable_floats(draw):
    return draw(
        st.floats(
            min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
        )
    )


class TestQuantizeProperties:
    @given(reasonable_floats())
    @settings(max_examples=300, deadline=None)
    def test_idempotent(self, x):
        for mode in PROPERTY_MODES:
            once = quantize_scalar(x, mode)
            assert quantize_scalar(once, mode) == once or math.isinf(once)

    @given(reasonable_floats(), reasonable_floats())
    @settings(max_examples=300, deadline=None)
    def test_monotone(self, x, y):
        lo, hi = min(x, y), max(x, y)
        for mode in PROPERTY_MODES:
            assert quantize_scalar(lo, mode) <= quantize_scalar(hi, mode)

    @given(reasonable_floats())
    @settings(max_examples=300, deadline=None)
    def test_sign_symmetric(self, x):
        for mode in PROPERTY_MODES:
            assert quantize_scalar(-x, mode) == -quantize_scalar(x, mode)


def fp16_value_classes():
    """Wide exponents, NaN, +-inf, +-0, subnormals, exact midpoints between
    neighbouring binary16 values (and their float64 neighbours), and the
    overflow edge around 65504 / 65520."""
    rng = np.random.default_rng(7)
    wide = rng.standard_normal(200_000) * np.exp2(rng.uniform(-60, 40, 200_000))
    special = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0,
               math.ldexp(1.0, -24), math.ldexp(1.0, -25), math.ldexp(1.0, -14),
               65504.0, 65519.99, 65520.0, 65535.0, 5e-324, 1e308]
    grid = float16_round_trip(np.arange(0x7C00, dtype=np.uint16).view(np.float16))
    mids = (grid[:-1] + grid[1:]) / 2  # exact in float64
    ties = np.concatenate([mids, np.nextafter(mids, np.inf), np.nextafter(mids, -np.inf)])
    x = np.concatenate([wide, special, ties])
    return np.concatenate([x, -x])


class TestKernelEquivalence:
    def test_fp16_cast_bit_identical_to_generic_rounding(self):
        x = fp16_value_classes()
        cast = float16_round_trip(x)
        assert cast.tobytes() == _round_to_grid(x, FP16).tobytes()
        # the values reach both ends of the grid: overflow and round-to-zero
        assert np.isposinf(cast).any() and np.isneginf(cast).any()
        assert (cast[x != 0] == 0).any()

    def test_quantize_array_paths(self):
        x = fp16_value_classes()
        assert quantize_array(x, FP16).tobytes() == float16_round_trip(x).tobytes()
        # a flush_subnormals grid is not FP16 and must keep flushing
        flush = PrecisionMode(10, -14, 15, flush_subnormals=True)
        out = quantize_array(x, flush)
        assert out.tobytes() == _round_to_grid(x, flush).tobytes()
        tiny = np.abs(out) < math.ldexp(1.0, -14)
        assert np.all(out[tiny] == 0.0)
        assert quantize_scalar(math.ldexp(1.0, -24), flush) == 0.0
        assert quantize_scalar(math.ldexp(1.0, -24), FP16) == math.ldexp(1.0, -24)
