"""Dense tensors, parameters, and a reverse-mode tape with a gradient-stop boundary.

The tape (`Graph`) is an ordered list of operation records. Ops defined in
`mlaan.ops` append records to the active graph; `Graph.backward` walks the
records in reverse and accumulates gradients into `Parameter.grad`. A tensor
produced by `detach` carries no record link, so no gradient ever crosses it:
upstream gradients are exactly zero by construction, not merely small.
"""

from __future__ import annotations

import threading
import weakref
from typing import Callable, Optional, Sequence

import numpy as np

from .errors import GraphError

FLOAT_DTYPES = (np.dtype(np.float32), np.dtype(np.float64))

_default_dtype = np.dtype(np.float32)


def set_default_dtype(dtype) -> None:
    """Set the fallback dtype (float32 or float64) of parameters and non-float tensors."""
    global _default_dtype
    dt = np.dtype(dtype)
    if dt not in FLOAT_DTYPES:
        raise ValueError(f"default dtype must be float32 or float64, got {dt}")
    _default_dtype = dt


def get_default_dtype() -> np.dtype:
    return _default_dtype


def as_float_array(data, dtype=None) -> np.ndarray:
    """Coerce input to a float32/float64 ndarray; non-float input without a dtype adopts the default."""
    arr = np.asarray(data, dtype=dtype)
    if arr.dtype not in FLOAT_DTYPES:
        if dtype is not None:
            raise ValueError(f"dtype must be float32 or float64, got {arr.dtype}")
        arr = arr.astype(_default_dtype)
    return arr


class Tensor:
    """Dense n-dimensional array, optionally tracked by the active Graph.

    `node` points at the tape record that produced this tensor. Leaves
    (inputs, parameters, detached values) have `node = None`. A record refers
    to its output weakly, hence the `__weakref__` slot.
    """

    __slots__ = ("data", "requires_grad", "node", "__weakref__")

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
    """One operation record on the tape. It holds no op output.

    `inputs` names, per op input, where its gradient goes: the `Node` that
    produced it, a `Parameter`, a leaf `Tensor` that wants a gradient, or
    None. `output` is a weak reference to the output tensor. `backward_fn`
    captures exactly the arrays its backward reads, so an activation that no
    backward reads is freed when its caller drops it.
    """

    __slots__ = ("inputs", "output", "backward_fn", "graph")

    def __init__(self, inputs: tuple, output: "weakref.ref[Tensor]",
                 backward_fn: Callable[[np.ndarray], Sequence[Optional[np.ndarray]]],
                 graph: "Graph"):
        self.inputs = inputs
        self.output = output
        self.backward_fn = backward_fn
        self.graph = graph


class _OpenTapes(threading.local):
    """Each thread's stack of open tapes: a tape is never active in another thread."""

    def __init__(self):
        self.stack: list = []


class Graph:
    """Reverse-mode tape over one stretch of one training step: a module
    body, or one supervision head. A body tape may be backward-ed several
    times, once per loss that reaches it, before `release`.

    Nodes are appended in execution order, so the list is topologically
    sorted by construction. An optional meter is notified of the arrays each
    op's backward reads (`record`'s `cache_arrays`) and of `release` freeing
    them; only non-parameter buffers count (weights are not activations).
    """

    _open = _OpenTapes()

    def __init__(self, label: str = "graph", meter=None, section: str = "main"):
        self.label = label
        self.nodes: list[Node] = []
        self.meter = meter
        self.section = section
        self._retained: dict[int, np.ndarray] = {}

    # -- active-graph management -------------------------------------------

    def __enter__(self) -> "Graph":
        Graph._open.stack.append(self)
        return self

    def __exit__(self, exc_type, exc, tb):
        popped = Graph._open.stack.pop()
        assert popped is self
        return False

    @staticmethod
    def active() -> Optional["Graph"]:
        """The innermost tape open in this thread."""
        stack = Graph._open.stack
        return stack[-1] if stack else None

    # -- recording ----------------------------------------------------------

    def record(self, op: str, inputs: Sequence[Tensor], output: Tensor,
               backward_fn, cache_arrays: Sequence[np.ndarray] = ()) -> None:
        """Append a record of `op`. `cache_arrays` are the arrays `backward_fn`
        reads (None entries are skipped); the meter counts those that are not
        parameter values."""
        for t in inputs:
            if t.node is not None and t.node.graph is not self:
                raise GraphError(
                    f"op {op!r} consumes a tensor recorded on another graph; "
                    "detach values at pathway boundaries")
        producers = tuple((t.node or t) if t.requires_grad else None for t in inputs)
        node = Node(producers, weakref.ref(output), backward_fn, self)
        output.node = node
        self.nodes.append(node)
        if self.meter is not None:
            weights = [t.data for t in inputs if isinstance(t, Parameter)]
            for arr in cache_arrays:
                if arr is not None and not any(arr is w for w in weights):
                    self._retain(arr)

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
        if loss.node.graph is not self:
            raise GraphError(f"loss was recorded on tape {loss.node.graph.label!r}; "
                             f"tape {self.label!r} cannot backward it")
        # a node the loss does not reach never gets an entry in `grads`
        grads: dict[Node, np.ndarray] = {loss.node: root}
        leaf, leaf_grad = None, None
        for node in reversed(self.nodes):
            out_grad = grads.pop(node, None)
            if out_grad is None:
                continue
            in_grads = node.backward_fn(out_grad)
            for src, g in zip(node.inputs, in_grads):
                if g is None or src is None:
                    continue
                if isinstance(src, Node):
                    grads[src] = grads[src] + g if src in grads else g
                elif isinstance(src, Parameter):
                    src.grad += g
                    src.accum_count += 1
                elif leaf is None:
                    leaf, leaf_grad = src, g
                elif src is leaf:
                    leaf_grad = leaf_grad + g
                else:
                    raise GraphError(f"tape {self.label!r} has more than one "
                                     "non-parameter input leaf that requires grad")
        return leaf_grad

    # -- retention ----------------------------------------------------------

    def release(self) -> None:
        """Drop all cached activations; live outputs become leaves."""
        if self.meter is not None:
            for arr in self._retained.values():
                self.meter.drop(arr)
            self._retained.clear()
        for node in self.nodes:
            out = node.output()
            if out is not None:
                out.node = None
        self.nodes.clear()
