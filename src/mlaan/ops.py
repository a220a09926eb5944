"""Differentiable operation kernels.

Each op computes its forward value with numpy, then (only when a Graph is
active and some input wants gradients) records a backward closure on the
tape. Backward closures recompute cheap intermediates from the retained
inputs instead of caching large scratch buffers, so the tape's retained
set stays equal to the layer inputs/outputs — the quantity the activation
meter is supposed to measure.

Convolution uses the cross-correlation convention (no kernel flip).
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError, ShapeError
from .tensor import Graph, Tensor


def _result(op, inputs, out_data, backward_fn, cache_arrays=()):
    rg = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=rg)
    graph = Graph.active()
    if graph is not None and rg:
        graph.record(op, inputs, out, backward_fn, cache_arrays)
    return out


# ---------------------------------------------------------------------------
# dense / elementwise
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if ad.ndim != 2 or bd.ndim != 2 or ad.shape[1] != bd.shape[0]:
        raise ShapeError(f"matmul needs [m×n]@[n×p], got {ad.shape} @ {bd.shape}")

    def backward(g):
        return g @ bd.T, ad.T @ g

    return _result("matmul", (a, b), ad @ bd, backward)


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    xd, bd = x.data, b.data
    if bd.ndim != 1:
        raise ShapeError(f"bias must be 1-d, got shape {bd.shape}")
    if xd.ndim == 2 and xd.shape[1] == bd.shape[0]:
        out = xd + bd

        def backward(g):
            return g, g.sum(axis=0)

    elif xd.ndim == 4 and xd.shape[1] == bd.shape[0]:
        out = xd + bd[None, :, None, None]

        def backward(g):
            return g, g.sum(axis=(0, 2, 3))

    else:
        raise ShapeError(f"bias_add: cannot broadcast {bd.shape} onto {xd.shape}")
    return _result("bias_add", (x, b), out, backward)


def relu(x: Tensor) -> Tensor:
    xd = x.data

    def backward(g):
        return (g * (xd > 0),)

    return _result("relu", (x,), np.maximum(xd, 0), backward)


def residual_add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"residual_add shape mismatch: {a.data.shape} vs {b.data.shape}")

    def backward(g):
        return g, g

    return _result("residual_add", (a, b), a.data + b.data, backward)


def sum_all(x: Tensor) -> Tensor:
    xd = x.data

    def backward(g):
        return (np.full_like(xd, float(g)),)

    return _result("sum_all", (x,), np.asarray(xd.sum(), dtype=xd.dtype), backward)


# ---------------------------------------------------------------------------
# convolution
# ---------------------------------------------------------------------------

def _conv_geometry(xshape, wshape, stride, pad):
    n, c, h, w = xshape
    f, c2, kh, kw = wshape
    if c != c2:
        raise ShapeError(f"conv2d channel mismatch: input {c}, kernel {c2}")
    if kh % 2 == 0 or kw % 2 == 0:
        raise ConfigError(f"conv2d kernel dims must be odd, got {kh}×{kw}")
    ho, rh = divmod(h + 2 * pad - kh, stride)
    wo, rw = divmod(w + 2 * pad - kw, stride)
    if rh or rw or ho < 0 or wo < 0:
        raise ConfigError(
            f"conv2d output size not integral for input {h}×{w}, "
            f"kernel {kh}×{kw}, stride {stride}, pad {pad}")
    return ho + 1, wo + 1


def _im2col(xd, kh, kw, stride, pad, ho, wo):
    n, c, h, w = xd.shape
    if pad:
        xp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=xd.dtype)
        xp[:, :, pad:pad + h, pad:pad + w] = xd
    else:
        xp = xd
    # fill straight into the (rows, features) layout the GEMM wants, so the
    # reshape below is free
    cols = np.empty((n, ho, wo, c, kh, kw), dtype=xd.dtype)
    for i in range(kh):
        for j in range(kw):
            cols[:, :, :, :, i, j] = xp[:, :, i:i + stride * ho:stride,
                                        j:j + stride * wo:stride].transpose(0, 2, 3, 1)
    return cols.reshape(n * ho * wo, c * kh * kw)


def _col2im(dmat, xshape, kh, kw, stride, pad, ho, wo):
    n, c, h, w = xshape
    dcols = dmat.reshape(n, ho, wo, c, kh, kw)
    dxp = np.zeros((n, c, h + 2 * pad, w + 2 * pad), dtype=dmat.dtype)
    for i in range(kh):
        for j in range(kw):
            dxp[:, :, i:i + stride * ho:stride,
                j:j + stride * wo:stride] += dcols[:, :, :, :, i, j].transpose(0, 3, 1, 2)
    if pad:
        return dxp[:, :, pad:pad + h, pad:pad + w]
    return dxp


def conv2d(x: Tensor, w: Tensor, stride: int = 1, pad: int = 1) -> Tensor:
    xd, wd = x.data, w.data
    if xd.ndim != 4 or wd.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input and kernel, got {xd.shape}, {wd.shape}")
    n, c, h, width = xd.shape
    f, _, kh, kw = wd.shape
    ho, wo = _conv_geometry(xd.shape, wd.shape, stride, pad)
    wmat = wd.reshape(f, -1)
    mat = _im2col(xd, kh, kw, stride, pad, ho, wo)
    out = (mat @ wmat.T).reshape(n, ho, wo, f).transpose(0, 3, 1, 2)

    def backward(g):
        gt = np.ascontiguousarray(g.transpose(0, 2, 3, 1)).reshape(n * ho * wo, f)
        cols = _im2col(xd, kh, kw, stride, pad, ho, wo)
        dw = (gt.T @ cols).reshape(wd.shape)
        dx = _col2im(gt @ wmat, xd.shape, kh, kw, stride, pad, ho, wo)
        return dx, dw

    return _result("conv2d", (x, w), out, backward)


# ---------------------------------------------------------------------------
# normalization / pooling
# ---------------------------------------------------------------------------

def batchnorm2d_train(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5):
    """Batch-statistics normalization. Returns (output, batch_mean, batch_var);
    the caller owns the running-stat bookkeeping. Variance is biased (ddof=0)."""
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(f"batchnorm2d expects N×C×H×W, got {xd.shape}")
    n, c, h, w = xd.shape
    m = n * h * w
    if m < 2:
        raise ShapeError("batchnorm2d needs at least 2 values per channel in train mode")
    mu = xd.mean(axis=(0, 2, 3))
    var = ((xd - mu[None, :, None, None]) ** 2).mean(axis=(0, 2, 3))
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mu[None, :, None, None]) * inv[None, :, None, None]
    out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def backward(g):
        xh = (xd - mu[None, :, None, None]) * inv[None, :, None, None]
        dbeta = g.sum(axis=(0, 2, 3))
        dgamma = (g * xh).sum(axis=(0, 2, 3))
        dxhat = g * gamma.data[None, :, None, None]
        s1 = dxhat.sum(axis=(0, 2, 3), keepdims=True)
        s2 = (dxhat * xh).sum(axis=(0, 2, 3), keepdims=True)
        dx = (inv[None, :, None, None] / m) * (m * dxhat - s1 - xh * s2)
        return dx, dgamma, dbeta

    t = _result("batchnorm2d", (x, gamma, beta), out, backward, cache_arrays=(mu, inv))
    return t, mu, var


def batchnorm2d_eval(x: Tensor, gamma: Tensor, beta: Tensor,
                     mean: np.ndarray, var: np.ndarray, eps: float = 1e-5) -> Tensor:
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(f"batchnorm2d expects N×C×H×W, got {xd.shape}")
    inv = 1.0 / np.sqrt(var + eps)
    xhat = (xd - mean[None, :, None, None]) * inv[None, :, None, None]
    out = gamma.data[None, :, None, None] * xhat + beta.data[None, :, None, None]

    def backward(g):
        xh = (xd - mean[None, :, None, None]) * inv[None, :, None, None]
        dx = g * (gamma.data * inv)[None, :, None, None]
        return dx, (g * xh).sum(axis=(0, 2, 3)), g.sum(axis=(0, 2, 3))

    return _result("batchnorm2d_eval", (x, gamma, beta), out, backward)


def global_avg_pool(x: Tensor) -> Tensor:
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(f"global_avg_pool expects N×C×H×W, got {xd.shape}")
    n, c, h, w = xd.shape

    def backward(g):
        return (np.broadcast_to((g / (h * w))[:, :, None, None], xd.shape).copy(),)

    return _result("global_avg_pool", (x,), xd.mean(axis=(2, 3)), backward)


# ---------------------------------------------------------------------------
# loss / boundaries
# ---------------------------------------------------------------------------

def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    ld = logits.data
    if ld.ndim != 2:
        raise ShapeError(f"softmax_cross_entropy expects N×C logits, got {ld.shape}")
    y = np.asarray(labels)
    n, c = ld.shape
    if y.shape != (n,):
        raise ShapeError(f"labels shape {y.shape} does not match batch {n}")
    if y.size and (y.min() < 0 or y.max() >= c):
        raise DataError(f"label out of range [0,{c}): {int(y.min())}..{int(y.max())}")
    z = ld - ld.max(axis=1, keepdims=True)
    ez = np.exp(z)
    sz = ez.sum(axis=1, keepdims=True)
    probs = ez / sz
    nll = np.log(sz[:, 0]) - z[np.arange(n), y]
    loss = np.asarray(nll.mean(), dtype=ld.dtype)

    def backward(g):
        d = probs.copy()
        d[np.arange(n), y] -= 1.0
        return (d * (float(g) / n),)

    return _result("softmax_cross_entropy", (logits,), loss, backward, cache_arrays=(probs,))


def detach(x: Tensor) -> Tensor:
    """Value-identical tensor that stops backward traversal dead.

    The result is a graph leaf: no record links it to its producer, so the
    gradient of anything upstream w.r.t. a downstream loss is exactly zero.
    """
    return Tensor(x.data, requires_grad=False)
