import numpy as np
import pytest

from babelkit import tape as T
from babelkit.checks import PowerIterationError, power_iteration_extremes
from tests.gradcheck import NonFiniteEvaluationError, finite_diff_check


class TestFiniteDiffCheck:
    def test_quadratic(self):
        err = finite_diff_check(lambda x: T.mul(x, x), np.array(3.0))
        assert err < 1e-6

    def test_constant_function(self):
        err = finite_diff_check(lambda x: T.mul(T.mean(x), 0.0), np.ones(3))
        assert err == 0.0

    def test_lvsa_fuse_composite(self):
        from babelkit.lvsa import FeaturePyramid, SelectedSet, fuse

        rng = np.random.default_rng(0)
        base = rng.standard_normal((2, 3))

        def f(x):
            pyr = FeaturePyramid([x, T.mul(x, 2.0)])
            return T.mean(fuse(pyr, SelectedSet((1, 2)), 0.7))

        assert finite_diff_check(f, base) < 1e-4

    def test_nonfinite_evaluation_raises(self):
        with pytest.raises(NonFiniteEvaluationError):
            finite_diff_check(lambda x: T.log(x), np.array(-1.0))

    def test_step_validation(self):
        with pytest.raises(ValueError):
            finite_diff_check(lambda x: T.mul(x, x), np.array(1.0), step=0.0)


class TestPowerIteration:
    def test_identity(self):
        hi, lo = power_iteration_extremes(lambda v: v, 4)
        assert hi == pytest.approx(1.0, abs=1e-10)
        assert lo == pytest.approx(1.0, abs=1e-10)

    def test_diag_10_1(self):
        d = np.array([10.0, 1.0])
        hi, lo = power_iteration_extremes(lambda v: d * v, 2)
        assert hi == pytest.approx(10.0, abs=1e-8)
        assert lo == pytest.approx(1.0, abs=1e-8)

    def test_random_spd_vs_dense_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            dim = rng.integers(2, 9)
            a = rng.standard_normal((dim, dim))
            h = a @ a.T + 0.1 * np.eye(dim)
            eigs = np.linalg.eigvalsh(h)
            hi, lo = power_iteration_extremes(lambda v: h @ v, dim, iters=100000, tol=1e-12)
            assert abs(hi - eigs[-1]) < 1e-8 * max(1.0, eigs[-1])
            assert abs(lo - eigs[0]) < 1e-8 * max(1.0, eigs[-1])

    def test_nonconvergence_raises_with_residual(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((6, 6))
        h = a @ a.T + 0.1 * np.eye(6)
        with pytest.raises(PowerIterationError) as exc:
            power_iteration_extremes(lambda v: h @ v, 6, iters=1, tol=1e-300)
        assert exc.value.residual > 0

    def test_dim_validation(self):
        with pytest.raises(ValueError):
            power_iteration_extremes(lambda v: v, 0)
