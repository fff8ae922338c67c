"""Central-difference gradient checking of the tape, for the tests."""

import numpy as np

from babelkit.tape import DiffTape


class NonFiniteEvaluationError(ValueError):
    pass


def finite_diff_check(f, point, step=1e-5):
    """Max relative error between the analytic gradient of ``f`` (a scalar-
    valued function of one tensor, built from tape primitives) and the
    central finite difference at ``point``.

    Error is max over coordinates of |analytic - numeric| / max(|analytic|, 1e-8).
    """
    if step <= 0:
        raise ValueError("step must be positive")
    point = np.asarray(point, dtype=np.float64)

    tape = DiffTape()
    x = tape.parameter(point, "x")
    out = f(x)
    if not np.isfinite(out.data):
        raise NonFiniteEvaluationError("f(point) is not finite")
    analytic = tape.backward(out)["x"]

    def value_at(p):
        t = DiffTape()
        v = f(t.parameter(p, "x")).data
        if not np.isfinite(v):
            raise NonFiniteEvaluationError("f evaluation at perturbed point is not finite")
        return float(v)

    flat = point.reshape(-1)
    numeric = np.zeros_like(flat)
    for i in range(flat.size):
        hi = flat.copy()
        lo = flat.copy()
        hi[i] += step
        lo[i] -= step
        numeric[i] = (value_at(hi.reshape(point.shape)) - value_at(lo.reshape(point.shape))) / (
            2.0 * step
        )

    diff = np.abs(analytic.reshape(-1) - numeric)
    denom = np.maximum(np.abs(analytic.reshape(-1)), 1e-8)
    return float(np.max(diff / denom)) if flat.size else 0.0
