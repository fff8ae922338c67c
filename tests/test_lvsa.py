import numpy as np
import pytest

from babelkit import tape as T
from babelkit.lvsa import (
    DEFAULT_TAU,
    VIT_LARGE_LAYER_COUNT,
    AnnealSchedule,
    FeaturePyramid,
    SelectedSet,
    anneal_alpha,
    fuse,
)
from babelkit.tape import DiffTape
from tests.gradcheck import finite_diff_check


def fuse_at_step(pyramid, selected, schedule, t):
    return fuse(pyramid, selected, anneal_alpha(schedule, t))


def random_pyramid(rng, layers=4, shape=(2, 3)):
    return FeaturePyramid([rng.standard_normal(shape) for _ in range(layers)])


class TestTypes:
    def test_defaults_match_vit_large(self):
        s = SelectedSet()
        assert s.indices == (3, 9, 18, 24)
        s.validate_for(VIT_LARGE_LAYER_COUNT)
        assert AnnealSchedule().tau == DEFAULT_TAU == 6000

    def test_schedule_requires_positive_tau(self):
        with pytest.raises(ValueError):
            AnnealSchedule(0)

    def test_selected_set_strictly_increasing(self):
        with pytest.raises(ValueError):
            SelectedSet((3, 3, 9))
        with pytest.raises(ValueError):
            SelectedSet((9, 3))
        with pytest.raises(ValueError):
            SelectedSet(())
        with pytest.raises(ValueError):
            SelectedSet((0, 2))

    def test_selected_set_rejects_non_integer_index(self):
        for indices in ((1.7, 2), (True, 2), (1, "2")):
            with pytest.raises(ValueError, match="integer"):
                SelectedSet(indices)

    def test_final_layer_membership(self):
        with pytest.raises(ValueError, match="final layer"):
            SelectedSet((1, 2)).validate_for(3)

    def test_pyramid_shape_mismatch(self):
        with pytest.raises(ValueError, match="layer 2"):
            FeaturePyramid([np.ones((2, 2)), np.ones((2, 3))])

    def test_fuse_leaves_plain_arrays_writeable(self):
        a, b = np.ones((2, 3)), np.zeros((2, 3))
        pyramid = FeaturePyramid([a, b])
        out = fuse(pyramid, SelectedSet((1, 2)), 0.5)
        a[0, 0] = b[0, 0] = 7.0
        np.testing.assert_array_equal(pyramid.layer(1).data, np.ones((2, 3)))
        np.testing.assert_array_equal(out.data, np.full((2, 3), 0.25))
        assert not out.data.flags.writeable


class TestAnnealAlpha:
    def test_schedule_values(self):
        s = AnnealSchedule(6000)
        assert anneal_alpha(s, 0) == 0.0
        assert anneal_alpha(s, 3000) == 0.5
        assert anneal_alpha(s, 6000) == 1.0
        assert anneal_alpha(s, 20000) == 1.0

    def test_negative_t_rejected(self):
        with pytest.raises(ValueError):
            anneal_alpha(AnnealSchedule(10), -1)

    def test_non_decreasing(self):
        s = AnnealSchedule(97)
        vals = [anneal_alpha(s, t) for t in range(300)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert all(v == 1.0 for v in vals[97:])


class TestFuse:
    def test_alpha_zero_returns_final_layer(self):
        rng = np.random.default_rng(0)
        p = random_pyramid(rng)
        out = fuse(p, SelectedSet((1, 4)), 0.0)
        np.testing.assert_array_equal(out.data, p.layer(4).data)

    def test_identical_layers_fixed_point(self):
        x = np.random.default_rng(1).standard_normal((3, 2))
        p = FeaturePyramid([x, x.copy(), x.copy()])
        out = fuse(p, SelectedSet((1, 3)), 1.0)
        np.testing.assert_allclose(out.data, x, atol=1e-15)

    def test_hand_computed_1d(self):
        # F_1=[2], F_2=[4], S={1,2}, alpha=0.5 -> 0.5*4 + 0.5*3 = 3.5
        p = FeaturePyramid([np.array([2.0]), np.array([4.0])])
        out = fuse(p, SelectedSet((1, 2)), 0.5)
        assert out.data[0] == 3.5

    def test_alpha_out_of_range(self):
        p = FeaturePyramid([np.ones(2)])
        with pytest.raises(ValueError):
            fuse(p, SelectedSet((1,)), 1.5)

    def test_linearity_in_alpha(self):
        rng = np.random.default_rng(2)
        p = random_pyramid(rng, layers=5)
        s = SelectedSet((2, 3, 5))
        at0 = fuse(p, s, 0.0).data
        at1 = fuse(p, s, 1.0).data
        for alpha in (0.1, 0.25, 0.7, 0.9):
            expect = (1 - alpha) * at0 + alpha * at1
            np.testing.assert_allclose(fuse(p, s, alpha).data, expect, rtol=1e-12)

    def test_fuse_at_step_matches_composition(self):
        rng = np.random.default_rng(3)
        p = random_pyramid(rng)
        s = SelectedSet((1, 4))
        sched = AnnealSchedule(100)
        for t in (0, 50, 100, 1000):
            np.testing.assert_array_equal(
                fuse_at_step(p, s, sched, t).data,
                fuse(p, s, anneal_alpha(sched, t)).data,
            )

    def test_continuity_in_t(self):
        rng = np.random.default_rng(4)
        p = random_pyramid(rng, layers=2)
        s = SelectedSet((1, 2))
        sched = AnnealSchedule(50)
        spread = np.abs(fuse(p, s, 1.0).data - fuse(p, s, 0.0).data)
        for t in range(0, 60):
            step = np.abs(
                fuse_at_step(p, s, sched, t + 1).data - fuse_at_step(p, s, sched, t).data
            )
            assert np.all(step <= spread / sched.tau + 1e-12)


class TestGradientRouting:
    def test_analytic_routing_formula(self):
        # g = mean(fused): dF_L = (1-a)/N + a/(|S|N); dF_l = a/(|S|N), l in S\{L}
        rng = np.random.default_rng(5)
        shape = (2, 3)
        n = 6
        alpha = 0.3
        tp = DiffTape()
        layers = [tp.parameter(rng.standard_normal(shape), f"f{i}") for i in range(4)]
        p = FeaturePyramid(layers)
        s = SelectedSet((1, 3, 4))
        g = tp.backward(T.mean(fuse(p, s, alpha)))
        k = len(s.indices)
        np.testing.assert_allclose(g["f3"], np.full(shape, (1 - alpha) / n + alpha / (k * n)))
        np.testing.assert_allclose(g["f0"], np.full(shape, alpha / (k * n)))
        np.testing.assert_allclose(g["f2"], np.full(shape, alpha / (k * n)))
        np.testing.assert_allclose(g["f1"], np.zeros(shape))  # unselected, not final

    def test_routing_vs_finite_differences(self):
        rng = np.random.default_rng(6)
        fixed = rng.standard_normal((2, 2))

        def f(x):
            p = FeaturePyramid([x, T.mul(x, 0.0), T.add(x, fixed)])
            return T.mean(fuse(p, SelectedSet((1, 3)), 0.6))

        assert finite_diff_check(f, rng.standard_normal((2, 2))) < 1e-4
