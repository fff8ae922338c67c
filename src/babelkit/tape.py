"""Dense float64 tensors with reverse-mode autodiff on an append-only tape.

Primitive set: matmul, add, mul, mean, relu, softmax, log, gather, plus
reshape as a structural (data-movement) node. On a reduced-precision tape
every primitive's output is rounded under the tape's PrecisionMode, as are
gradient contributions and their sums, so reduced-precision training
failures are reproducible. The tape resolves its rounding function once
(``precision.rounding``) and applies it inside each primitive's errstate;
an exact (float64) tape does not round at all. ``precision.quantize_array``
is the public, self-contained entry to the same rounding.

Leaves are the trainable parameters (``DiffTape.parameter``); backward
returns a gradient for each. Every operand that does not train (a plain
array, a tape-free Tensor) is a constant, where gradient flow stops.
Each primitive has one VJP per input, and backward calls only those toward
inputs that train.

Tensors are immutable values; a tape is single-threaded and replayable.
Primitive arithmetic, forward, backward and replay, runs under
``np.errstate(all="ignore")``: overflow, inf - inf and inf * 0 are data
here, not warnings. ``DiffTape.first_nonfinite()`` names, on demand, the
first recorded node whose output went non-finite.
"""

import numpy as np

from babelkit import precision
from babelkit.precision import EXACT


class ShapeError(ValueError):
    """Raised when a primitive receives incompatible shapes."""

    def __init__(self, op, *shapes):
        super().__init__(f"{op}: incompatible shapes {' and '.join(map(str, shapes))}")
        self.op = op
        self.shapes = shapes


class NotOnTapeError(ValueError):
    pass


class Tensor:
    """Immutable dense array, optionally attached to a tape node. A caller's
    array that is still writeable is copied, never frozen in place."""

    __slots__ = ("data", "tape", "node")

    def __init__(self, data, tape=None, node=None):
        arr = np.asarray(data, dtype=np.float64)
        if arr.flags.writeable:
            if isinstance(data, np.ndarray):
                arr = arr.copy()
            arr.flags.writeable = False
        self.data = arr
        self.tape = tape
        self.node = node

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.shape}, taped={self.tape is not None})"


class Node:
    __slots__ = ("op", "inputs", "attrs", "output")

    def __init__(self, op, inputs, attrs, output):
        self.op = op
        self.inputs = inputs
        self.attrs = attrs
        self.output = output


class DiffTape:
    """Append-only record of primitive executions over identified leaves."""

    def __init__(self, mode=EXACT):
        self.mode = mode
        self._round = precision.rounding(mode)  # None: an exact tape never rounds
        self.nodes = []
        self.parameters = {}  # name -> node id of the leaf

    # -- leaves ------------------------------------------------------------

    def parameter(self, data, name):
        """Register a named leaf: a parameter that backward differentiates."""
        if name in self.parameters:
            raise ValueError(f"duplicate parameter name {name!r}")
        arr = np.array(data, dtype=np.float64)
        arr.flags.writeable = False  # frozen here, so the Tensor need not copy it
        node_id = len(self.nodes)
        self.nodes.append(Node("leaf", (), {}, arr))
        self.parameters[name] = node_id
        return Tensor(arr, self, node_id)

    def constant(self, data):
        arr = np.array(data, dtype=np.float64)
        arr.flags.writeable = False
        node_id = len(self.nodes)
        self.nodes.append(Node("const", (), {}, arr))
        return Tensor(arr, self, node_id)

    # -- recording ---------------------------------------------------------

    def _record(self, op, input_tensors, attrs, output):
        out = Tensor(output, self, len(self.nodes))
        self.nodes.append(Node(op, tuple(t.node for t in input_tensors), attrs, out.data))
        return out

    def first_nonfinite(self):
        """(node id, op) of the first recorded node whose output holds a
        NaN or an infinity, or None when every output is finite."""
        for node_id, node in enumerate(self.nodes):
            if not np.isfinite(node.output).all():
                return node_id, node.op
        return None

    def _lift(self, x):
        if isinstance(x, Tensor):
            if x.tape is not None and x.tape is not self:
                raise ValueError("tensor belongs to a different tape")
            if x.tape is None:
                return self.constant(x.data)
            return x
        return self.constant(x)

    # -- reverse pass ------------------------------------------------------

    def backward(self, output):
        """Gradients of a recorded scalar w.r.t. every parameter.

        Returns {name: ndarray} with the parameter's shape; parameters the
        output does not depend on get zeros. On a reduced-precision tape
        every gradient contribution and every accumulated sum is rounded
        under the tape's mode. No VJP toward a constant is called.
        """
        if not isinstance(output, Tensor) or output.tape is not self or output.node is None:
            raise NotOnTapeError("output was not recorded on this tape")
        if output.data.shape != ():
            raise ShapeError("backward", output.data.shape)

        nodes, round_ = self.nodes, self._round
        grads = {output.node: np.ones(())}
        with np.errstate(all="ignore"):
            for node_id in range(output.node, -1, -1):
                g = grads.get(node_id)
                if g is None:
                    continue
                node = nodes[node_id]
                if node.op in ("leaf", "const"):
                    continue  # a leaf's gradient stays in grads for the result
                del grads[node_id]
                inputs = [nodes[i].output for i in node.inputs]
                for in_id, vjp in zip(node.inputs, _VJPS[node.op]):
                    if nodes[in_id].op == "const":
                        continue  # gradient flow stops at a constant
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
        for name, node_id in self.parameters.items():
            out = self.nodes[node_id].output
            g = grads.get(node_id)
            if g is None:
                result[name] = np.zeros_like(out)
            else:
                result[name] = np.array(g, dtype=np.float64).reshape(out.shape)
        return result

    # -- replay ------------------------------------------------------------

    def replay(self):
        """Re-execute all recorded primitives from the stored leaves.
        Returns True iff every node's output is reproduced bit for bit."""
        values = []
        ok = True
        with np.errstate(all="ignore"):
            for node in self.nodes:
                if node.op in ("leaf", "const"):
                    values.append(node.output)
                    continue
                out = _FORWARDS[node.op]([values[i] for i in node.inputs], node.attrs)
                if self._round is not None:
                    out = self._round(out)
                values.append(out)
                if out.tobytes() != node.output.tobytes():
                    ok = False
        return ok


# -- primitives --------------------------------------------------------------


def _tape_of(*xs):
    for x in xs:
        if isinstance(x, Tensor) and x.tape is not None:
            return x.tape
    return None


def _plain(x):
    """``x``'s read-only data; a caller's writeable array is copied, so no
    primitive output is a view of memory the caller can still write."""
    if isinstance(x, Tensor):
        return x.data
    return Tensor(x).data


def _apply(op, attrs, *xs):
    tape = _tape_of(*xs)
    if tape is not None:
        xs = [tape._lift(x) for x in xs]
    with np.errstate(all="ignore"):
        out = _FORWARDS[op]([_plain(x) for x in xs], attrs)
        if tape is not None and tape._round is not None:
            out = tape._round(out)
    # a fresh array or a view of frozen inputs (a 0-d operation gives a numpy
    # scalar instead): frozen here, the Tensor need not copy it
    if isinstance(out, np.ndarray):
        out.flags.writeable = False
    if tape is None:
        return Tensor(out)
    return tape._record(op, xs, attrs, out)


def _fw_matmul(inputs, attrs):
    a, b = inputs
    if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
        raise ShapeError("matmul", a.shape, b.shape)
    return a @ b


def _fw_add(inputs, attrs):
    a, b = inputs
    try:
        return a + b
    except ValueError:
        raise ShapeError("add", a.shape, b.shape) from None


def _fw_mul(inputs, attrs):
    a, b = inputs
    try:
        return a * b
    except ValueError:
        raise ShapeError("mul", a.shape, b.shape) from None


def _fw_mean(inputs, attrs):
    (a,) = inputs
    return np.mean(a, axis=attrs["axis"], keepdims=attrs["keepdims"])


def _fw_relu(inputs, attrs):
    return np.maximum(inputs[0], 0.0)


def _fw_softmax(inputs, attrs):
    a = inputs[0]
    axis = attrs["axis"]
    shifted = a - np.max(a, axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / np.sum(e, axis=axis, keepdims=True)


def _fw_log(inputs, attrs):
    return np.log(inputs[0])


def _fw_gather(inputs, attrs):
    a = inputs[0]
    idx = attrs["indices"]
    axis = attrs["axis"]
    if np.any(idx < 0) or np.any(idx >= a.shape[axis]):
        raise ShapeError("gather", a.shape, (f"indices up to {int(np.max(idx))}",))
    return np.take(a, idx, axis=axis)


def _fw_reshape(inputs, attrs):
    a = inputs[0]
    shape = attrs["shape"]
    if int(np.prod(shape)) != a.size:
        raise ShapeError("reshape", a.shape, shape)
    return a.reshape(shape)


_FORWARDS = {
    "matmul": _fw_matmul,
    "add": _fw_add,
    "mul": _fw_mul,
    "mean": _fw_mean,
    "relu": _fw_relu,
    "softmax": _fw_softmax,
    "log": _fw_log,
    "gather": _fw_gather,
    "reshape": _fw_reshape,
}


def _unbroadcast(g, shape):
    """Sum ``g`` down to ``shape`` (reverse of numpy broadcasting); ``g``
    itself when it already has that shape."""
    if np.shape(g) == shape:
        return g
    g = np.asarray(g)
    while g.ndim > len(shape):
        g = g.sum(axis=0)
    for i, dim in enumerate(shape):
        if dim == 1 and g.shape[i] != 1:
            g = g.sum(axis=i, keepdims=True)
    return g.reshape(shape)


# One VJP per input: ``_VJPS[op][i](g, out, inputs, attrs)`` is the
# contribution of the output gradient ``g`` toward input ``i``.


def _vjp_mean(g, out, inputs, attrs):
    (a,) = inputs
    axis = attrs["axis"]
    if axis is None:
        return np.broadcast_to(g / a.size, a.shape)
    if not attrs["keepdims"]:
        g = np.expand_dims(g, axis)
    return np.broadcast_to(g / a.shape[axis], a.shape)


def _vjp_softmax(g, out, inputs, attrs):
    dot = np.sum(g * out, axis=attrs["axis"], keepdims=True)
    return (g - dot) * out


def _vjp_gather(g, out, inputs, attrs):
    a = inputs[0]
    idx = attrs["indices"]
    axis = attrs["axis"]
    grad = np.zeros_like(a)
    if axis == 0:
        np.add.at(grad, idx, g)
    else:
        np.add.at(np.moveaxis(grad, axis, 0), idx, np.moveaxis(np.asarray(g), axis, 0))
    return grad


_VJPS = {
    "matmul": (
        lambda g, out, inputs, attrs: g @ inputs[1].T,
        lambda g, out, inputs, attrs: inputs[0].T @ g,
    ),
    "add": (
        lambda g, out, inputs, attrs: _unbroadcast(g, inputs[0].shape),
        lambda g, out, inputs, attrs: _unbroadcast(g, inputs[1].shape),
    ),
    "mul": (
        lambda g, out, inputs, attrs: _unbroadcast(g * inputs[1], inputs[0].shape),
        lambda g, out, inputs, attrs: _unbroadcast(g * inputs[0], inputs[1].shape),
    ),
    "mean": (_vjp_mean,),
    "relu": (lambda g, out, inputs, attrs: g * (inputs[0] > 0),),
    "softmax": (_vjp_softmax,),
    "log": (lambda g, out, inputs, attrs: g / inputs[0],),
    "gather": (_vjp_gather,),
    "reshape": (lambda g, out, inputs, attrs: np.asarray(g).reshape(inputs[0].shape),),
}


# -- public op API -----------------------------------------------------------


def matmul(a, b):
    return _apply("matmul", {}, a, b)


def add(a, b):
    return _apply("add", {}, a, b)


def mul(a, b):
    return _apply("mul", {}, a, b)


def mean(a, axis=None, keepdims=False):
    return _apply("mean", {"axis": axis, "keepdims": keepdims}, a)


def relu(a):
    return _apply("relu", {}, a)


def softmax(a, axis=-1):
    return _apply("softmax", {"axis": axis}, a)


def log(a):
    return _apply("log", {}, a)


def gather(a, indices, axis=0):
    idx = np.asarray(indices, dtype=np.intp)
    return _apply("gather", {"indices": idx, "axis": axis}, a)


def reshape(a, shape):
    return _apply("reshape", {"shape": tuple(shape)}, a)
