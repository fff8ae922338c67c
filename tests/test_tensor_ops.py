import math
import warnings

import numpy as np
import pytest

from babelkit import pivot as P
from babelkit import precision
from babelkit import tape as T
from babelkit.precision import FP16, PrecisionMode
from babelkit.tape import DiffTape, NotOnTapeError, ShapeError, Tensor
from tests.gradcheck import finite_diff_check


def record_forward(tape, program, *inputs):
    """Run ``program`` on ``tape`` with its inputs lifted onto the tape;
    the output must be recorded there."""
    out = program(*[tape._lift(x) for x in inputs])
    if not isinstance(out, Tensor) or out.tape is not tape:
        raise NotOnTapeError("program output was not recorded on the tape")
    return out


class TestForwardExamples:
    def test_scalar_matmul(self):
        tp = DiffTape()
        out = T.matmul(tp.constant([[2.0]]), tp.constant([[3.0]]))
        assert out.data == np.array([[6.0]])

    def test_mean(self):
        assert T.mean(Tensor([1.0, 2.0, 3.0, 4.0])).item() == 2.5

    def test_softmax_symmetry(self):
        np.testing.assert_allclose(T.softmax(Tensor([0.0, 0.0])).data, [0.5, 0.5])

    @pytest.mark.parametrize("indices,bad", [([-2, 1], -2), ([0, 3, -1], 3), ([2, -4], -4)])
    def test_gather_range_error_names_the_offending_index(self, indices, bad):
        x = DiffTape().parameter([1.0, 2.0, 3.0], "x")
        with pytest.raises(ShapeError, match=f"gather: .*index {bad} on axis 0$"):
            T.gather(x, indices)
        with pytest.raises(ShapeError, match=f"index {bad} on axis 1$"):
            T.gather(Tensor(np.ones((2, 3))), indices, axis=1)

    def test_shape_error_names_primitive(self):
        tp = DiffTape()
        with pytest.raises(ShapeError, match="matmul"):
            T.matmul(tp.constant(np.ones((2, 3))), tp.constant(np.ones((2, 3))))
        with pytest.raises(ShapeError, match="add"):
            T.add(tp.constant(np.ones(3)), tp.constant(np.ones(4)))

    def test_record_forward_returns_taped_output(self):
        tp = DiffTape()
        out = record_forward(tp, lambda a, b: T.add(T.mul(a, b), a), [1.0, 2.0], 3.0)
        np.testing.assert_array_equal(out.data, [4.0, 8.0])
        assert out.tape is tp

    def test_record_forward_rejects_untaped_output(self):
        tp = DiffTape()
        with pytest.raises(NotOnTapeError):
            record_forward(tp, lambda a: Tensor(a.data), [1.0])


class TestBackwardExamples:
    def test_square(self):
        tp = DiffTape()
        x = tp.parameter(3.0, "x")
        out = T.mul(x, x)
        assert tp.backward(out)["x"] == 6.0

    def test_mean_of_x_2x(self):
        tp = DiffTape()
        x = tp.parameter(1.0, "x")
        out = T.mean(T.add(T.mul(x, np.array([1.0, 0.0])), T.mul(x, np.array([0.0, 2.0]))))
        assert tp.backward(out)["x"] == 1.5

    def test_softmax_cross_entropy_uniform(self):
        # d/dlogits of -log softmax(logits)[0] at uniform = p - onehot
        tp = DiffTape()
        logits = tp.parameter([1.0, 1.0, 1.0], "logits")
        loss = T.mul(T.gather(T.log(T.softmax(logits)), [0]), -1.0)
        g = tp.backward(T.mean(loss))["logits"]
        np.testing.assert_allclose(g, [-2 / 3, 1 / 3, 1 / 3], atol=1e-12)

    def test_untouched_parameter_gets_zeros(self):
        tp = DiffTape()
        x = tp.parameter(2.0, "x")
        tp.parameter(np.ones((2, 2)), "unused")
        g = tp.backward(T.mul(x, x))
        np.testing.assert_array_equal(g["unused"], np.zeros((2, 2)))

    def test_constant_operand_gets_no_gradient(self):
        tp = DiffTape()
        x = tp.parameter(3.0, "x")
        g = tp.backward(T.mul(x, np.float64(5.0)))
        assert [node.op for node in tp.nodes] == ["leaf", "const", "mul"]
        assert g["x"] == 5.0
        assert set(g) == {"x"}

    def test_non_scalar_output_rejected(self):
        tp = DiffTape()
        x = tp.parameter([1.0, 2.0], "x")
        with pytest.raises(ShapeError):
            tp.backward(T.mul(x, 2.0))

    def test_foreign_output_rejected(self):
        tp = DiffTape()
        with pytest.raises(NotOnTapeError):
            tp.backward(Tensor(1.0))

    def test_gather_accumulates_duplicate_indices(self):
        tp = DiffTape()
        x = tp.parameter([1.0, 2.0], "x")
        out = T.mean(T.gather(x, [0, 0, 1]))
        np.testing.assert_allclose(tp.backward(out)["x"], [2 / 3, 1 / 3])

    def test_matmul_reshape_chain(self):
        tp = DiffTape()
        w = tp.parameter(np.arange(6.0).reshape(2, 3), "w")
        out = T.mean(T.reshape(T.matmul(np.ones((1, 2)), w), (3,)))
        np.testing.assert_allclose(tp.backward(out)["w"], np.full((2, 3), 1 / 3))


class TestFiniteDifferenceAllPrimitives:
    CASES = [
        ("matmul", lambda x: T.mean(T.matmul(x, np.arange(6.0).reshape(3, 2))), (2, 3)),
        ("add", lambda x: T.mean(T.add(x, 1.5)), (4,)),
        ("mul", lambda x: T.mean(T.mul(x, x)), (4,)),
        ("mean_axis", lambda x: T.mean(T.mean(x, axis=1, keepdims=True)), (3, 2)),
        (
            "mean_axis1_3d",
            lambda x: T.mean(T.mul(T.mean(x, axis=1), np.arange(8.0).reshape(2, 4))),
            (2, 3, 4),
        ),
        ("relu", lambda x: T.mean(T.relu(x)), (5,)),
        ("softmax", lambda x: T.mean(T.mul(T.softmax(x), np.arange(4.0))), (4,)),
        ("log", lambda x: T.mean(T.log(x)), (4,)),
        ("gather", lambda x: T.mean(T.gather(x, [2, 0])), (4,)),
        (
            "gather_axis1_repeated",
            lambda x: T.mean(
                T.mul(T.gather(x, [2, 0, 2, 2, 1], axis=1), np.arange(15.0).reshape(3, 5))
            ),
            (3, 4),
        ),
        ("reshape", lambda x: T.mean(T.mul(T.reshape(x, (6,)), np.arange(6.0))), (2, 3)),
    ]

    @pytest.mark.parametrize("name,f,shape", CASES, ids=[c[0] for c in CASES])
    def test_primitive_gradients(self, name, f, shape):
        rng = np.random.default_rng(42)
        for trial in range(10):
            point = rng.standard_normal(shape)
            if name == "log":
                point = np.abs(point) + 0.5
            if name == "relu":
                point += np.sign(point) * 0.05  # stay off the kink
            assert finite_diff_check(f, point) < 1e-4


class TestReplayAndPrecision:
    def _program(self, tp, mode_data):
        x = tp.parameter(mode_data, "x")
        h = T.relu(T.matmul(x, np.arange(9.0).reshape(3, 3) / 7))
        return T.mean(T.log(T.add(T.softmax(h), 1.0)))

    def test_replay_bit_identical_exact(self):
        tp = DiffTape()
        self._program(tp, np.random.default_rng(3).standard_normal((2, 3)))
        assert tp.replay()

    def test_replay_bit_identical_fp16(self):
        tp = DiffTape(FP16)
        self._program(tp, np.random.default_rng(3).standard_normal((2, 3)))
        assert tp.replay()

    def test_fp16_tape_quantizes_outputs(self):
        tp = DiffTape(FP16)
        out = T.mul(tp.parameter(1.0, "x"), 1.0001)
        assert out.item() == 1.0  # 1.0001 rounds to 1.0 in fp16

    def test_overflow_is_first_nonfinite(self):
        tp = DiffTape(FP16)
        x = tp.parameter(60000.0, "x")
        assert tp.first_nonfinite() is None
        out = T.mul(x, 2.0)
        assert out.item() == math.inf
        assert tp.first_nonfinite() == (out.node, "mul")
        assert tp.first_nonfinite()[0] != x.node

    def test_nonfinite_arithmetic_raises_no_warning(self):
        # inf * 0 inside an fp16 matmul is data: NaN out, no warning, and the
        # first non-finite node is the overflowing mul upstream of the matmul
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tp = DiffTape(FP16)
            big = T.mul(tp.parameter([[60000.0, 1.0]], "x"), 2.0)  # [[inf, 2]]
            out = T.matmul(big, np.array([[0.0], [1.0]]))
            grads = tp.backward(T.mean(T.mul(out, out)))
            assert tp.replay()
            first = tp.first_nonfinite()
        assert np.isnan(out.data[0, 0]) and first == (big.node, "mul")
        assert np.all(np.isnan(grads["x"]))

    def test_finite_tape_has_no_first_nonfinite(self):
        assert DiffTape().first_nonfinite() is None
        for mode in (precision.EXACT, FP16):
            tp = DiffTape(mode)
            self._program(tp, np.random.default_rng(3).standard_normal((2, 3)))
            assert tp.first_nonfinite() is None

    def test_duplicate_parameter_name_rejected(self):
        tp = DiffTape()
        tp.parameter(1.0, "x")
        with pytest.raises(ValueError, match="duplicate"):
            tp.parameter(2.0, "x")

    def test_cross_tape_mixing_rejected(self):
        a, b = DiffTape(), DiffTape()
        xa = a.parameter(1.0, "x")
        xb = b.parameter(1.0, "x")
        with pytest.raises(ValueError, match="different tape"):
            T.add(xa, xb)

    def test_gradients_quantized_under_fp16(self):
        tp = DiffTape(FP16)
        x = tp.parameter(1.0, "x")
        g = tp.backward(T.mul(x, 3.14159))
        # gradient equals the (quantized) constant 3.14159 -> fp16 grid
        assert g["x"] == np.float64(np.float16(3.14159))

    def test_tapeless_tensors_compute_forward_only(self):
        out = T.add(Tensor([1.0, 2.0]), Tensor([3.0, 4.0]))
        np.testing.assert_array_equal(out.data, [4.0, 6.0])
        assert out.tape is None

    def test_tensor_leaves_callers_array_writeable(self):
        x = np.array([1.0, 2.0])
        t = Tensor(x)
        x[0] = 5.0
        np.testing.assert_array_equal(t.data, [1.0, 2.0])
        assert not t.data.flags.writeable
        r = T.reshape(x, (2, 1))  # a tape-free view would alias x
        x[1] = 6.0
        np.testing.assert_array_equal(r.data, [[5.0], [2.0]])

    def test_tape_arrays_wrapped_without_copy(self):
        tp = DiffTape()
        p = tp.parameter([1.0, 2.0], "p")
        out = T.mul(p, 2.0)
        assert p.data is tp.nodes[p.node].output
        assert out.data is tp.nodes[out.node].output
        assert not out.data.flags.writeable

    def test_read_only_view_of_writeable_memory_is_copied(self):
        a = np.array([1.0, 2.0, 3.0])
        v = a[:]
        v.flags.writeable = False
        t = Tensor(v)
        r = T.reshape(v, (3, 1))
        a[0] = 99.0
        np.testing.assert_array_equal(t.data, [1.0, 2.0, 3.0])
        np.testing.assert_array_equal(r.data, [[1.0], [2.0], [3.0]])
        assert not t.data.flags.writeable

    def test_frozen_array_copied_and_views_of_tensor_data_kept(self):
        a = np.array([1.0, 2.0, 3.0])
        a.flags.writeable = False
        t = Tensor(a)
        assert not np.shares_memory(t.data, a) and not t.data.flags.writeable
        r = T.reshape(t, (3, 1))  # a view of a Tensor's own data stays a view
        assert r.data.base is t.data

    def test_owner_cannot_write_through_a_tensor(self):
        # the owner of a read-only array can make it writeable again
        a = np.array([1.0, 2.0])
        a.flags.writeable = False
        t = Tensor(a)
        a.flags.writeable = True
        a[0] = 99.0
        assert t.data.tolist() == [1.0, 2.0]


def _align_step(mode):
    """One training step of the bundled alignment setup on a ``mode`` tape:
    loss, backward and replay. Returns the tape and the gradients."""
    config = P.AlignConfig()
    vocab, gens, pivot, encoder = P.build_world(config)
    tp = DiffTape(mode)
    batch = P.training_batch(vocab, gens, config, 0)
    loss = P.batch_loss(encoder.register(tp), encoder, pivot, batch, encoder.alpha_at(0))
    grads = tp.backward(loss)
    assert tp.replay()
    return tp, grads


def _on_fp16_grid(x):
    """True iff ``x`` equals its own float16 round trip bit for bit."""
    x = np.asarray(x, dtype=np.float64)
    return x.astype(np.float16).astype(np.float64).tobytes() == x.tobytes()


class TestExactTapeNeverRounds:
    def test_exact_step_makes_no_quantize_call(self, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("an exact tape quantized")

        # every function precision.rounding can hand a tape, and the public entry
        for name in ("quantize_array", "_float16_round_trip", "_round_to_grid"):
            monkeypatch.setattr(precision, name, refuse)
        _, grads = _align_step(precision.EXACT)
        assert all(np.all(np.isfinite(g)) for g in grads.values())

    def test_fp16_step_still_quantizes(self):
        assert _on_fp16_grid([np.nan, np.inf, -np.inf, 0.5])
        assert not _on_fp16_grid([1.0001])
        tp, grads = _align_step(FP16)
        ops = [node for node in tp.nodes if node.op not in ("leaf", "const")]
        assert ops
        assert all(_on_fp16_grid(node.output) for node in ops)
        assert all(_on_fp16_grid(g) for g in grads.values())


_ROW = np.array([0.5, -1.5, 2.0])
_MAT = np.arange(12.0).reshape(3, 4) / 5


class TestNoGradientTowardConstants:
    """A primitive with a constant operand: backward calls only the VJP
    toward the parameter's side, once, and that side matches finite
    differences. A primitive whose only operand is a constant gets no VJP
    call, though its output feeds a parameter's sum."""

    CASES = [
        ("matmul", lambda x: T.matmul(x, _MAT), 1, (2, 3)),
        ("matmul", lambda x: T.matmul(_MAT.T, x), 0, (3, 2)),
        ("add", lambda x: T.add(x, 1.5), 1, (2, 3)),
        ("add", lambda x: T.add(1.5, x), 0, (2, 3)),
        ("add", lambda x: T.add(x, _ROW), 1, (2, 3)),
        ("add", lambda x: T.add(_ROW, x), 0, (2, 3)),
        ("mul", lambda x: T.mul(x, -1.0), 1, (2, 3)),
        ("mul", lambda x: T.mul(-1.0, x), 0, (2, 3)),
        ("mul", lambda x: T.mul(x, _ROW), 1, (2, 3)),
        ("mul", lambda x: T.mul(_ROW, x), 0, (2, 3)),
        ("relu", lambda x: T.add(T.relu(x.tape.constant(_ROW)), x), 0, (2, 3)),
    ]
    IDS = [
        "matmul-const-right", "matmul-const-left",
        "add-scalar-right", "add-scalar-left", "add-broadcast-right", "add-broadcast-left",
        "mul-scalar-right", "mul-scalar-left", "mul-broadcast-right", "mul-broadcast-left",
        "relu-of-const",
    ]

    @pytest.mark.parametrize("op,f,const_side,shape", CASES, ids=IDS)
    def test_constant_side_not_computed(self, monkeypatch, op, f, const_side, shape):
        real = T._VJPS[op]
        calls = [0] * len(real)

        def spy(i, vjp):
            def counted(*args):
                calls[i] += 1
                return vjp(*args)

            return counted

        monkeypatch.setitem(T._VJPS, op, tuple(spy(i, vjp) for i, vjp in enumerate(real)))

        def program(x):
            return T.mean(T.log(T.softmax(f(x))))

        point = np.random.default_rng(7).standard_normal(shape)
        tp = DiffTape()
        g = tp.backward(program(tp.parameter(point, "x")))
        assert set(g) == {"x"}
        assert calls == [0 if i == const_side else 1 for i in range(len(real))]
        assert finite_diff_check(program, point) < 1e-4


class TestRerun:
    """A recorded tape reruns with new leaf values: every output, the
    gradients and the first non-finite node are those a fresh recording at
    those values gives, bit for bit."""

    @staticmethod
    def _program(tp, x, scale):
        h = T.relu(T.matmul(tp.parameter(x, "x"), np.arange(9.0).reshape(3, 3) / 7))
        h = T.mul(h, tp.input(scale, "scale"))
        return T.mean(T.log(T.add(T.softmax(h), 1.0)))

    @pytest.mark.parametrize("mode", [precision.EXACT, FP16], ids=["exact", "fp16"])
    def test_rerun_equals_fresh_recording(self, mode):
        rng = np.random.default_rng(5)
        x0, x1 = rng.standard_normal((2, 2, 3))
        tp = DiffTape(mode)
        out = self._program(tp, x0, [1.0, 2.0, 3.0])
        recorded = out.data
        tp.rerun({"x": x1, "scale": [0.5, -1.0, 4.0]})
        fresh = DiffTape(mode)
        want = self._program(fresh, x1, [0.5, -1.0, 4.0])
        assert [n.output.tobytes() for n in tp.nodes] == [n.output.tobytes() for n in fresh.nodes]
        assert tp.value(out).tobytes() == want.data.tobytes()
        assert out.data is recorded  # the recorded Tensor keeps its value
        got, ref = tp.backward(out), fresh.backward(want)
        assert set(got) == {"x"} and got["x"].tobytes() == ref["x"].tobytes()
        assert tp.replay()

    def test_rerun_keeps_unnamed_leaves(self):
        tp = DiffTape()
        out = T.mul(tp.parameter(2.0, "a"), tp.input(3.0, "b"))
        tp.rerun({"a": 5.0})
        assert tp.value(out) == 15.0
        tp.rerun({"b": -1.0})
        assert tp.value(out) == -5.0

    def test_first_nonfinite_reads_rerun_values(self):
        tp = DiffTape(FP16)
        big = T.mul(tp.parameter(1.0, "x"), 2.0)
        out = T.mean(T.mul(big, big))
        assert tp.first_nonfinite() is None
        tp.rerun({"x": 60000.0})
        assert tp.value(big) == math.inf
        assert tp.first_nonfinite() == (big.node, "mul")
        tp.rerun({"x": 1.0})
        assert tp.first_nonfinite() is None and tp.value(out) == 4.0

    @pytest.mark.parametrize("name,data", [("x", np.ones((3, 2))), ("scale", [1.0, 2.0])])
    def test_wrong_shape_raises_and_leaves_tape_unchanged(self, name, data):
        tp = DiffTape()
        out = self._program(tp, np.ones((2, 3)), [1.0, 2.0, 3.0])
        before = [n.output.tobytes() for n in tp.nodes]
        with pytest.raises(ShapeError, match=f"rerun '{name}'"):
            tp.rerun({"x": np.zeros((2, 3)), name: data})
        assert [n.output.tobytes() for n in tp.nodes] == before
        assert tp.value(out).tobytes() == out.data.tobytes()

    def test_unknown_name_rejected(self):
        tp = DiffTape()
        T.mul(tp.parameter(1.0, "x"), 2.0)
        with pytest.raises(KeyError, match="'y'"):
            tp.rerun({"y": 1.0})

    def test_input_is_a_constant(self):
        tp = DiffTape()
        x = tp.parameter([1.0, 2.0], "x")
        c = tp.input([3.0, 4.0], "c")
        g = tp.backward(T.mean(T.mul(x, c)))
        assert set(g) == {"x"} and g["x"].tolist() == [1.5, 2.0]
        with pytest.raises(ValueError, match="duplicate"):
            tp.input(1.0, "x")
        with pytest.raises(ValueError, match="duplicate"):
            tp.parameter(1.0, "c")

    def test_value_is_read_only_and_on_this_tape(self):
        tp = DiffTape()
        out = T.add(tp.parameter([1.0], "x"), 1.0)
        tp.rerun({"x": [2.0]})
        assert not tp.value(out).flags.writeable
        with pytest.raises(NotOnTapeError):
            DiffTape().value(out)

    def test_rerun_raises_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            tp = DiffTape(FP16)
            out = T.matmul(T.mul(tp.parameter([[1.0, 1.0]], "x"), 2.0), np.array([[0.0], [1.0]]))
            tp.rerun({"x": [[60000.0, 1.0]]})  # inf * 0 inside the matmul
            assert np.isnan(tp.value(out)[0, 0])

    def test_replay_reports_tampered_node(self):
        tp = DiffTape()
        out = self._program(tp, np.random.default_rng(3).standard_normal((2, 3)), [1.0, 2.0, 3.0])
        assert tp.replay()
        node = tp.nodes[out.node - 1]
        node.output = node.output + 1.0
        assert not tp.replay()


class TestRecordAfterRerun:
    """Recorded Tensors keep their recorded values, so recording on a tape
    after a rerun would mix two steps' values: it raises, and appends
    nothing."""

    def test_recording_after_rerun_raises_before_appending(self):
        tp = DiffTape()
        x = tp.parameter(2.0, "x")
        y = T.mul(x, x)
        tp.rerun({"x": 3.0})
        size = len(tp.nodes)
        with pytest.raises(ValueError, match="after rerun"):
            T.add(y, 1.0)
        with pytest.raises(ValueError, match="after rerun"):
            T.relu(y)
        assert len(tp.nodes) == size
        assert tp.value(y) == 9.0 and tp.backward(y)["x"] == 6.0
        assert tp.replay()

    def test_tape_free_ops_and_other_tapes_still_record(self):
        tp = DiffTape()
        y = T.mul(tp.parameter(2.0, "x"), 2.0)
        tp.rerun({"x": 3.0})
        assert T.add(Tensor(tp.value(y)), 1.0).item() == 7.0
        other = DiffTape()
        assert T.add(other.parameter(1.0, "x"), 1.0).item() == 2.0


class TestDescend:
    """``tape.descend`` on the tiny objective mean((w * x - 1)^2), with the
    step's x a declared input."""

    def _descent(self, steps, lr=0.1):
        """(descend generator, params, record's calls, inputs_at's steps)."""
        params = {"w": np.array([0.5, -1.0])}
        recorded, asked = [], []

        def record(tp, inputs):
            recorded.append(len(asked))
            err = T.add(T.mul(tp.parameter(params["w"], "w"), tp.input(inputs["x"], "x")), -1.0)
            return T.mean(T.mul(err, err))

        def inputs_at(step):
            asked.append(step)
            return {"x": np.array([1.0, 2.0]) + step}

        return T.descend(record, params, steps, lr, inputs_at=inputs_at), params, recorded, asked

    def test_records_once_and_reruns_every_later_step(self):
        descent, params, recorded, asked = self._descent(5)
        w = params["w"]
        for step, loss, grads, tp in descent:
            x = np.array([1.0, 2.0]) + step
            assert loss == pytest.approx(np.mean((w * x - 1.0) ** 2), rel=1e-15)
            assert grads["w"] == pytest.approx(x * (w * x - 1.0), rel=1e-15)
            w = w - 0.1 * grads["w"]
        assert recorded == [1] and asked == [0, 1, 2, 3, 4]
        assert params["w"].tobytes() == w.tobytes()

    @pytest.mark.parametrize("k", [0, 3])
    def test_break_stops_before_that_steps_update(self, k):
        descent, params, _, _ = self._descent(5)
        for step, _, grads, tp in descent:
            ran_with = tp.nodes[tp.parameters["w"]].output.copy()
            if step == k:
                break
        assert step == k and np.all(grads["w"] != 0.0)
        assert params["w"].tobytes() == ran_with.tobytes()

    def test_zero_steps_yield_nothing(self):
        descent, params, recorded, asked = self._descent(0)
        assert list(descent) == [] and recorded == [] and asked == []
        assert params["w"].tolist() == [0.5, -1.0]

def reference_backward(tape, output):
    """backward as a per-node interpreter over the whole tape: every node
    from the output down, its VJPs looked up and its inputs tested for
    constants on every call. The oracle of the tape's backward schedule."""
    nodes, round_ = tape.nodes, tape._round
    grads = {output.node: np.ones(())}
    with np.errstate(all="ignore"):
        for node_id in range(output.node, -1, -1):
            g = grads.get(node_id)
            if g is None:
                continue
            node = nodes[node_id]
            if node.op in ("leaf", "const"):
                continue
            del grads[node_id]
            inputs = [nodes[i].output for i in node.inputs]
            for in_id, vjp in zip(node.inputs, T._VJPS[node.op]):
                if nodes[in_id].op == "const":
                    continue
                contrib = vjp(g, node.output, inputs, node.attrs)
                if round_ is not None:
                    contrib = round_(contrib)
                prev = grads.get(in_id)
                if prev is not None:
                    contrib = prev + contrib
                    if round_ is not None:
                        contrib = round_(contrib)
                grads[in_id] = contrib
    result = {}
    for name, node_id in tape.parameters.items():
        out = nodes[node_id].output
        g = grads.get(node_id)
        result[name] = (
            np.zeros_like(out) if g is None else np.array(g, dtype=np.float64).reshape(out.shape)
        )
    return result


def _assert_same_gradients(got, want):
    assert set(got) == set(want)
    for name in want:
        assert got[name].shape == want[name].shape, name
        assert got[name].tobytes() == want[name].tobytes(), name


# fp16, and a 7-bit grid that no numpy dtype implements
MODES = [precision.EXACT, FP16, PrecisionMode(7, -126, 127)]
MODE_IDS = ["exact", "fp16", "grid7"]


def _every_primitive(tp, rng):
    """A program over every primitive: broadcasting add and mul, operands
    used twice, gathers on both axes with repeats, a constant-only subgraph,
    and nodes and a parameter the output does not reach."""
    w = tp.parameter(rng.standard_normal((3, 4)), "w")
    b = tp.parameter(rng.standard_normal(4), "b")
    s = tp.parameter(rng.standard_normal((1, 4)), "s")
    v = tp.parameter(np.abs(rng.standard_normal((2, 4))) + 0.5, "v")
    tp.parameter(rng.standard_normal(3), "unused")
    x = tp.input(rng.standard_normal((2, 3)), "x")
    h = T.mul(T.add(T.matmul(x, w), b), s)  # (2, 4) + (4,), then * (1, 4)
    h = T.add(T.mul(h, h), T.mul(b, h))  # h used three times
    T.relu(T.mul(w, 2.0))  # reached from no output
    c = T.relu(T.log(tp.constant(np.full((2, 4), 3.0))))  # constant only
    h = T.add(T.relu(h), T.add(c, T.log(v)))
    p = T.softmax(T.reshape(h, (4, 2)), axis=0)
    g = T.gather(T.gather(p, [1, 1, 0], axis=1), [3, 0, 3, 2])
    m = T.mean(T.mean(g, axis=1), keepdims=True)
    return T.mean(T.add(T.mean(T.mul(g, m), axis=0, keepdims=True), T.mean(v, axis=-1, keepdims=True)))


class TestBackwardSchedule:
    """backward runs a schedule built once per output; its gradients are
    those of the per-node interpreter, bit for bit."""

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_every_primitive_matches_reference(self, mode):
        tp = DiffTape(mode)
        out = _every_primitive(tp, np.random.default_rng(11))
        got = tp.backward(out)
        _assert_same_gradients(got, reference_backward(tp, out))
        assert not got["unused"].any() and got["w"].any()
        _assert_same_gradients(tp.backward(out), got)  # from the cached schedule

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_two_outputs_on_one_tape(self, mode):
        tp = DiffTape(mode)
        x = tp.parameter(np.random.default_rng(2).standard_normal((2, 3)), "x")
        y = tp.parameter([0.5, -1.0, 2.0], "y")
        h = T.mul(x, y)
        first = T.mean(T.softmax(h))
        second = T.mean(T.mul(T.relu(h), x))
        for out in (first, second, first):
            _assert_same_gradients(tp.backward(out), reference_backward(tp, out))
        assert not tp.backward(T.mean(T.log(tp.constant([1.0, 2.0])))).get("x").any()

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_tape_grows_after_backward(self, mode, monkeypatch):
        tp = DiffTape(mode)
        x = tp.parameter([[0.5, 1.5], [-2.0, 3.0]], "x")
        h = T.relu(T.matmul(x, x))
        first = T.mean(h)
        _assert_same_gradients(tp.backward(first), reference_backward(tp, first))
        # schedules are kept as the tape grows: first's keeps the VJP it was
        # built with, and only second's, built now, uses the patched table
        calls = []
        real = T._VJPS["relu"][0]
        monkeypatch.setitem(T._VJPS, "relu", (lambda *args: calls.append(1) or real(*args),))
        z = tp.parameter(2.0, "z")
        second = T.mean(T.mul(T.add(h, x), z))
        for out in (second, first):
            _assert_same_gradients(tp.backward(out), reference_backward(tp, out))
        assert len(calls) == 3  # second's backward and both references

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_backward_after_rerun_reads_rerun_values(self, mode):
        rng = np.random.default_rng(4)
        first, later = (np.abs(rng.standard_normal((2, 3))) + 0.25 for _ in range(2))
        tp = DiffTape(mode)
        out = T.mean(T.log(T.mul(tp.parameter(first, "x"), tp.input([1.0, 2.0, 3.0], "c"))))
        recorded = tp.backward(out)
        tp.rerun({"x": later, "c": [3.0, 0.5, 1.0]})
        got = tp.backward(out)
        _assert_same_gradients(got, reference_backward(tp, out))
        fresh = DiffTape(mode)
        want = T.mean(T.log(T.mul(fresh.parameter(later, "x"), fresh.input([3.0, 0.5, 1.0], "c"))))
        _assert_same_gradients(got, fresh.backward(want))
        assert got["x"].tobytes() != recorded["x"].tobytes()

    @pytest.mark.parametrize("mode", MODES, ids=MODE_IDS)
    def test_align_step_matches_reference(self, mode):
        config = P.AlignConfig()
        vocab, gens, pivot, encoder = P.build_world(config)
        tp = DiffTape(mode)
        batch = P.training_batch(vocab, gens, config, 0)
        loss = P.batch_loss(encoder.register(tp), encoder, pivot, batch, encoder.alpha_at(0))
        _assert_same_gradients(tp.backward(loss), reference_backward(tp, loss))
