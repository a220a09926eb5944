"""Dense tensors, parameters, and a reverse-mode tape with a gradient-stop boundary.

The tape (`Graph`) is an ordered list of operation records. Ops defined in
`mlaan.ops` append records to the active graph; `Graph.backward` walks the
records in reverse and accumulates gradients into `Parameter.grad`. A tensor
produced by `detach` carries no record link, so no gradient ever crosses it:
upstream gradients are exactly zero by construction, not merely small.
"""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from .errors import GraphError

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_default_dtype = np.dtype(np.float32)


def set_default_dtype(dtype) -> None:
    """Set the dtype used for newly created tensors/parameters (float32 or float64)."""
    global _default_dtype
    dt = np.dtype(dtype)
    if dt not in FLOAT_DTYPES:
        raise ValueError(f"default dtype must be float32 or float64, got {dt}")
    _default_dtype = dt


def get_default_dtype() -> np.dtype:
    return _default_dtype


def as_float_array(data, dtype=None) -> np.ndarray:
    """Coerce input to a float ndarray; non-float input adopts the default dtype."""
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in FLOAT_DTYPES:
        arr = arr.astype(_default_dtype)
    return arr


class Tensor:
    """Dense n-dimensional array, optionally tracked by the active Graph.

    `node` points at the tape record that produced this tensor. Leaves
    (inputs, parameters, detached values) have `node = None`.
    """

    __slots__ = ("data", "requires_grad", "node")

    def __init__(self, data, requires_grad: bool = False, dtype=None):
        self.data = as_float_array(data, dtype)
        self.requires_grad = requires_grad
        self.node: Optional[Node] = None

    @property
    def shape(self) -> tuple:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        return self.data

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape}, dtype={self.data.dtype}, requires_grad={self.requires_grad})"


class Parameter(Tensor):
    """Trainable leaf tensor with an accumulating gradient and momentum buffer.

    `grad` is additive: every backward pass adds into it, and `accum_count`
    records how many supervision signals contributed since the last zeroing.
    """

    __slots__ = ("name", "grad", "velocity", "accum_count")

    def __init__(self, name: str, data, dtype=None, requires_grad: bool = True):
        super().__init__(data, requires_grad=requires_grad,
                         dtype=_default_dtype if dtype is None else dtype)
        self.name = name
        self.grad = np.zeros_like(self.data)
        self.velocity = np.zeros_like(self.data)
        self.accum_count = 0

    def zero_grad(self):
        self.grad[...] = 0.0
        self.accum_count = 0

    def __repr__(self):
        return f"Parameter({self.name!r}, shape={self.data.shape})"


class Node:
    """One operation record on the tape."""

    __slots__ = ("op", "inputs", "output", "backward_fn", "graph")

    def __init__(self, op: str, inputs: Sequence[Tensor], output: Tensor,
                 backward_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]],
                 graph: "Graph"):
        self.op = op
        self.inputs = tuple(inputs)
        self.output = output
        self.backward_fn = backward_fn
        self.graph = graph


class Graph:
    """Reverse-mode tape over one stretch of one training step: a module
    body, or one supervision head. A body tape may be backward-ed several
    times, once per loss that reaches it, before `release`.

    Nodes are appended in execution order, so the list is topologically
    sorted by construction. An optional meter is notified when activation
    buffers are retained for backward and when `release` frees them; only
    non-parameter buffers count (weights are not activations).
    """

    _stack: list = []

    def __init__(self, label: str = "graph", meter=None, section: str = "main"):
        self.label = label
        self.nodes: list[Node] = []
        self.meter = meter
        self.section = section
        self._retained: dict[int, np.ndarray] = {}

    # -- active-graph management -------------------------------------------

    def __enter__(self) -> "Graph":
        Graph._stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = Graph._stack.pop()
        assert popped is self
        return False

    @staticmethod
    def active() -> Optional["Graph"]:
        return Graph._stack[-1] if Graph._stack else None

    # -- recording ----------------------------------------------------------

    def record(self, op: str, inputs: Sequence[Tensor], output: Tensor,
               backward_fn, cache_arrays: Sequence[np.ndarray] = ()) -> None:
        for t in inputs:
            if t.node is not None and t.node.graph is not self:
                raise GraphError(
                    f"op {op!r} consumes a tensor recorded on another graph; "
                    "detach values at pathway boundaries")
        node = Node(op, inputs, output, backward_fn, self)
        output.node = node
        self.nodes.append(node)
        if self.meter is not None:
            self._retain(output.data)
            for arr in cache_arrays:
                self._retain(arr)
            for t in inputs:
                if not isinstance(t, Parameter):
                    self._retain(t.data)

    def _retain(self, arr: np.ndarray) -> None:
        if id(arr) not in self._retained:
            self._retained[id(arr)] = arr
            self.meter.hold(arr, (self.label, self.section))

    # -- backward -----------------------------------------------------------

    def backward(self, loss: Tensor, seed=1.0) -> Optional[np.ndarray]:
        """Accumulate d(seed . loss)/dp into every reachable Parameter.grad and
        return the gradient that reaches the tape's non-parameter input leaf
        (None when no such leaf requires grad).

        A float seed scales a scalar loss. An array seed, shaped like `loss`,
        is the gradient arriving at `loss` from a later tape; chaining tapes
        this way gives the same gradients as one tape over both. The array
        is used as given, not copied: conv outputs are strided views, and
        copying the seed into the root's layout would change the summation
        order of the reductions downstream (batch-norm backward among them).
        """
        if isinstance(seed, np.ndarray):
            if seed.shape != loss.data.shape:
                raise GraphError(f"seed shape {seed.shape} does not match "
                                 f"loss shape {loss.data.shape}")
            root = seed
        elif loss.data.size != 1:
            raise GraphError(f"backward requires a scalar loss, got shape {loss.data.shape}")
        else:
            root = np.full_like(loss.data, seed)
        if loss.node is None:
            return None
        reachable = self._reachable_from(loss.node)
        grads: dict[int, np.ndarray] = {id(loss.node): root}
        leaf, leaf_grad = None, None
        for node in reversed(self.nodes):
            if id(node) not in reachable:
                continue
            out_grad = grads.pop(id(node), None)
            if out_grad is None:
                continue
            in_grads = node.backward_fn(out_grad)
            for t, g in zip(node.inputs, in_grads):
                if g is None or not t.requires_grad:
                    continue
                if isinstance(t, Parameter):
                    t.grad += g
                    t.accum_count += 1
                elif t.node is not None:
                    key = id(t.node)
                    if key in grads:
                        grads[key] = grads[key] + g
                    else:
                        grads[key] = g
                elif leaf is None:
                    leaf, leaf_grad = t, g
                elif t is leaf:
                    leaf_grad = leaf_grad + g
                else:
                    raise GraphError(f"tape {self.label!r} has more than one "
                                     "non-parameter input leaf that requires grad")
        return leaf_grad

    def _reachable_from(self, root: Node) -> set[int]:
        seen = {id(root)}
        stack = [root]
        while stack:
            node = stack.pop()
            for t in node.inputs:
                if t.node is not None and id(t.node) not in seen:
                    seen.add(id(t.node))
                    stack.append(t.node)
        return seen

    # -- retention ----------------------------------------------------------

    def release(self) -> None:
        """Drop all cached activations; boundary outputs become leaves."""
        if self.meter is not None:
            for arr in self._retained.values():
                self.meter.drop(arr)
            self._retained.clear()
        for node in self.nodes:
            node.output.node = None
        self.nodes.clear()
