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

A recorded tape is also a step plan: record once, rerun every step.
``DiffTape.input`` declares a named constant that a rerun may replace, and
``DiffTape.rerun(values)`` takes new arrays by name for the parameters and
the declared inputs, then re-executes every op node in recording order with
the same forwards and the same rounding. A training loop records its first
step and reruns the tape for every later one; ``backward``,
``first_nonfinite`` and ``value`` read the rerun outputs. ``replay`` runs
the same program and compares. Recording on a tape that has been rerun is
an error: its recorded Tensors hold the values of another step.

What is resolved once per tape: recording an op checks its shapes (a rerun
keeps every leaf's shape, so every shape downstream too) and appends the
op's kernel, its attrs bound, with its input slots to the tape's forward
program. The first ``backward`` from an output builds its schedule: the op
nodes that output reaches, in descending order, each with the VJPs toward
its inputs that train and, per contribution, whether it starts a gradient
sum or adds to one. The schedule is kept until the tape grows. What runs
each step: the forward program's kernels and rounding (``rerun``,
``replay``), and the schedule's VJPs, rounding and sums (``backward``),
with each node's input list built once.

Tensors are immutable values: a recorded Tensor keeps the value it was
recorded with, and ``DiffTape.value`` reads a node's current one. A tape is
single-threaded. Primitive arithmetic, forward, backward, rerun and replay,
runs under ``np.errstate(all="ignore")``, one per call of the public op, one
per backward and one per rerun: overflow, inf - inf and inf * 0 are data
here, not warnings. ``DiffTape.first_nonfinite()`` names, on demand, the
first node whose output went non-finite.
"""

import functools
import math
import operator

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


def _frozen(arr):
    """True iff ``arr`` and every array in its ``base`` chain are read-only
    ndarrays: no one can write the memory it reads."""
    while arr is not None:
        if not isinstance(arr, np.ndarray) or arr.flags.writeable:
            return False
        arr = arr.base
    return True


class Tensor:
    """Immutable dense array, optionally attached to a tape node. A caller's
    array is adopted only when it and every array it views are read-only;
    otherwise it is copied, never frozen in place."""

    __slots__ = ("data", "tape", "node")

    def __init__(self, data, tape=None, node=None):
        arr = np.asarray(data, dtype=np.float64)
        if not _frozen(arr):
            if arr is data or arr.base is not None:
                arr = arr.copy()  # the caller's memory, or a view of someone's
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
        self.inputs = {}  # name -> node id of a declared input (a constant)
        self._forward = []  # per op node: (node id, kernel, input node ids)
        self._schedules = {}  # output node id -> backward schedule
        self._scheduled_size = 0  # len(nodes) when _schedules was last valid
        self._reran = False

    # -- leaves ------------------------------------------------------------

    def parameter(self, data, name):
        """Register a named leaf: a parameter that backward differentiates."""
        return self._leaf("leaf", data, name, self.parameters)

    def input(self, data, name):
        """Register a named constant that ``rerun`` may replace: gradient
        flow stops at it as at any constant."""
        return self._leaf("const", data, name, self.inputs)

    def constant(self, data):
        return self._leaf("const", data)

    def _leaf(self, op, data, name=None, names=None):
        if name is not None:
            if name in self.parameters or name in self.inputs:
                raise ValueError(f"duplicate leaf name {name!r}")
            names[name] = len(self.nodes)
        arr = np.array(data, dtype=np.float64)
        arr.flags.writeable = False  # frozen here, so the Tensor need not copy it
        self.nodes.append(Node(op, (), {}, arr))
        return Tensor(arr, self, len(self.nodes) - 1)

    # -- recording ---------------------------------------------------------

    def _record(self, op, input_tensors, attrs, output, kernel):
        node_id = len(self.nodes)
        out = Tensor(output, self, node_id)
        inputs = tuple(t.node for t in input_tensors)
        self.nodes.append(Node(op, inputs, attrs, out.data))
        self._forward.append((node_id, kernel, inputs))
        return out

    def value(self, tensor):
        """The current output of ``tensor``'s node, read-only: after a
        rerun, the rerun's value, where ``tensor.data`` keeps the recorded
        one."""
        if tensor.tape is not self or tensor.node is None:
            raise NotOnTapeError("tensor was not recorded on this tape")
        out = self.nodes[tensor.node].output
        if isinstance(out, np.ndarray):
            out.flags.writeable = False
        return out

    def first_nonfinite(self):
        """(node id, op) of the first node whose current output holds a
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

        round_ = self._round
        grads = {output.node: np.ones(())}
        with np.errstate(all="ignore"):
            for node_id, node, input_nodes, contributions in self._schedule(output.node):
                g = grads.pop(node_id)
                out, attrs = node.output, node.attrs
                inputs = [n.output for n in input_nodes]
                for in_id, vjp, starts_sum in contributions:
                    contrib = vjp(g, out, inputs, attrs)
                    if round_ is not None:
                        contrib = round_(contrib)
                    if not starts_sum:
                        contrib = grads[in_id] + contrib
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

    def _schedule(self, output_id):
        """The backward schedule from node ``output_id``, built on first use
        and kept until the tape grows: per op node the output reaches, in
        descending order, (node id, node, input nodes, contributions), where
        a contribution is (input id, VJP, whether it starts that input's
        gradient sum). Only inputs that are not constants get a VJP, and a
        node gets a gradient iff some contribution reaches it."""
        if self._scheduled_size != len(self.nodes):
            self._schedules, self._scheduled_size = {}, len(self.nodes)
        schedule = self._schedules.get(output_id)
        if schedule is not None:
            return schedule
        nodes = self.nodes
        reached = {output_id}
        schedule = []
        for node_id in range(output_id, -1, -1):
            node = nodes[node_id]
            if node_id not in reached or node.op in ("leaf", "const"):
                continue
            contributions = []
            for in_id, vjp in zip(node.inputs, _VJPS[node.op]):
                if nodes[in_id].op == "const":
                    continue  # gradient flow stops at a constant
                contributions.append((in_id, vjp, in_id not in reached))
                reached.add(in_id)
            schedule.append(
                (node_id, node, tuple(nodes[i] for i in node.inputs), tuple(contributions))
            )
        self._schedules[output_id] = schedule
        return schedule

    # -- rerun and replay --------------------------------------------------

    def rerun(self, values):
        """Re-execute the tape with new leaf values.

        ``values`` maps parameter and declared-input names to arrays; a
        leaf it does not name keeps its value. Each array must have its
        leaf's recorded shape (ShapeError otherwise, with the tape
        unchanged); an unknown name is a KeyError. The forward program then
        recomputes every op node in recording order, and replaces its
        output, with the kernels and the rounding of recording. Nothing
        can be recorded on the tape afterwards.
        """
        nodes = self.nodes
        new = []
        for name, data in values.items():
            node_id = self.parameters.get(name, self.inputs.get(name))
            if node_id is None:
                raise KeyError(f"no parameter or input named {name!r}")
            arr = np.array(data, dtype=np.float64)
            recorded = nodes[node_id].output.shape
            if arr.shape != recorded:
                raise ShapeError(f"rerun {name!r}", recorded, arr.shape)
            arr.flags.writeable = False
            new.append((nodes[node_id], arr))
        for node, arr in new:
            node.output = arr
        self._reran = True
        self._run_forward(store=True)

    def replay(self):
        """Re-execute all recorded primitives from the stored leaves.
        Returns True iff every node's output is reproduced bit for bit."""
        return all(
            out.tobytes() == node.output.tobytes()
            for node, out in zip(self.nodes, self._run_forward(store=False))
        )

    def _run_forward(self, store):
        """Every node's output, recomputed by the forward program from the
        stored leaves and constants under one errstate; a leaf's or a
        constant's is its stored array. ``store`` replaces each op node's
        output with the new one as it goes."""
        nodes, round_ = self.nodes, self._round
        values = [node.output for node in nodes]
        with np.errstate(all="ignore"):
            for node_id, kernel, inputs in self._forward:
                out = kernel(*[values[i] for i in inputs])
                if round_ is not None:
                    out = round_(out)
                values[node_id] = out
                if store:
                    nodes[node_id].output = out
        return values


# -- primitives --------------------------------------------------------------


def _tape_of(*xs):
    for x in xs:
        if isinstance(x, Tensor) and x.tape is not None:
            return x.tape
    return None


def _plain(x):
    """``x``'s read-only data; a caller's array that is, or views, writeable
    memory is copied, so no primitive output is a view of memory the caller
    can still write."""
    if isinstance(x, Tensor):
        return x.data
    return Tensor(x).data


def _apply(op, attrs, *xs):
    tape = _tape_of(*xs)
    if tape is not None:
        if tape._reran:
            raise ValueError(
                f"{op}: cannot record on a tape after rerun: its recorded tensors hold stale values"
            )
        xs = [tape._lift(x) for x in xs]
    inputs = [_plain(x) for x in xs]
    _check_shapes(op, inputs, attrs)
    kernel = _FORWARDS[op](attrs)
    with np.errstate(all="ignore"):
        out = kernel(*inputs)
        if tape is not None and tape._round is not None:
            out = tape._round(out)
    # a fresh array or a view of frozen inputs (a 0-d operation gives a numpy
    # scalar instead): frozen here, the Tensor need not copy it
    if isinstance(out, np.ndarray):
        out.flags.writeable = False
    if tape is None:
        return Tensor(out)
    return tape._record(op, xs, attrs, out, kernel)


def _check_shapes(op, inputs, attrs):
    """Raise ShapeError where ``op`` cannot take ``inputs``. Checked once,
    when the op is applied: a rerun keeps every leaf's shape, and every
    shape downstream follows from the leaves."""
    if op == "matmul":
        a, b = inputs
        if a.ndim != 2 or b.ndim != 2 or a.shape[1] != b.shape[0]:
            raise ShapeError(op, a.shape, b.shape)
    elif op in ("add", "mul"):
        a, b = inputs
        try:
            np.broadcast_shapes(a.shape, b.shape)
        except ValueError:
            raise ShapeError(op, a.shape, b.shape) from None
    elif op == "gather":
        a, idx, axis = inputs[0], attrs["indices"], attrs["axis"]
        bad = idx[(idx < 0) | (idx >= a.shape[axis])]
        if bad.size:
            raise ShapeError(op, a.shape, f"index {int(bad[0])} on axis {axis}")
    elif op == "reshape":
        a, shape = inputs[0], attrs["shape"]
        if math.prod(shape) != a.size:
            raise ShapeError(op, a.shape, shape)


def _relu(a):
    return np.maximum(a, 0.0)


def _mean(a, axis, keepdims):
    """np.mean of a float64 array over all elements or one axis, bit for
    bit: its sum, then one division by the count, without np.mean's Python
    wrapper."""
    total = np.add.reduce(a, axis=axis, keepdims=keepdims)
    return total / (a.size if axis is None else a.shape[axis])


def _softmax(a, axis):
    shifted = a - a.max(axis=axis, keepdims=True)
    e = np.exp(shifted)
    return e / e.sum(axis=axis, keepdims=True)


# ``_FORWARDS[op](attrs)`` is the op's kernel with its attrs bound:
# ``kernel(*inputs)`` computes the output of inputs ``_check_shapes`` accepts.
_FORWARDS = {
    "matmul": lambda attrs: np.matmul,
    "add": lambda attrs: np.add,
    "mul": lambda attrs: np.multiply,
    "mean": lambda attrs: functools.partial(
        _mean, axis=attrs["axis"], keepdims=attrs["keepdims"]
    ),
    "relu": lambda attrs: _relu,
    "softmax": lambda attrs: functools.partial(_softmax, axis=attrs["axis"]),
    "log": lambda attrs: np.log,
    "gather": lambda attrs: operator.methodcaller("take", attrs["indices"], axis=attrs["axis"]),
    "reshape": lambda attrs: operator.methodcaller("reshape", attrs["shape"]),
}


def _unbroadcast(g, shape):
    """Sum ``g``, a numpy array or scalar, down to ``shape`` (reverse of
    numpy broadcasting); ``g`` itself when it already has that shape."""
    if g.shape == shape:
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
        share = g / a.size
    else:
        if not attrs["keepdims"]:
            kept = list(a.shape)
            kept[axis] = 1
            g = g.reshape(kept)
        share = g / a.shape[axis]
    grad = np.empty(a.shape)
    grad[...] = share  # broadcast: each input element gets its share
    return grad


def _vjp_softmax(g, out, inputs, attrs):
    dot = (g * out).sum(axis=attrs["axis"], keepdims=True)
    return (g - dot) * out


def _vjp_gather(g, out, inputs, attrs):
    a = inputs[0]
    idx = attrs["indices"]
    axis = attrs["axis"]
    grad = np.zeros(a.shape)
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
