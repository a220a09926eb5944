"""Differentiable operation kernels.

Each op computes its forward value with numpy, then (only when a Graph is
active and some input wants gradients) records a backward closure on the
tape. Backward closures recompute cheap intermediates from the retained
inputs instead of caching large scratch buffers, so the tape's retained
set stays equal to the layer inputs/outputs — the quantity the activation
meter is supposed to measure.

Convolution uses the cross-correlation convention (no kernel flip) and works
channels-last: one copy of the input into kh·kw·C patch rows, then one GEMM.
Its NCHW outputs are views of NHWC results, so the next conv needs no
transpose. dx correlates the stride-dilated gradient with the flipped,
channel-swapped kernel. No gradient is computed for an input or a kernel that
does not require one (the stem's image, the frozen EMA twins).
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

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


def _patches(x, kh, kw, stride, pad, dilate=1):
    """Rows of kh×kw windows over the N×H×W×C array `x`, channels fastest:
    (N·Ho·Wo, kh·kw·C). `x` is first dilated (dilate-1 zeros between pixels),
    then zero-padded by `pad` on each side, or cropped when `pad` is negative."""
    n, h, w, c = x.shape
    lo, crop = max(pad, 0), max(-pad, 0)
    xp = np.zeros((n, dilate * (h - 1) + 1 + 2 * lo, dilate * (w - 1) + 1 + 2 * lo, c), x.dtype)
    xp[:, lo:xp.shape[1] - lo:dilate, lo:xp.shape[2] - lo:dilate] = x
    win = sliding_window_view(xp[:, crop:xp.shape[1] - crop, crop:xp.shape[2] - crop],
                              (kh, kw), axis=(1, 2))[:, ::stride, ::stride]
    # the (n, ho, wo, c, kh, kw) view, copied once in (n, ho, wo, kh, kw, c) order
    return np.ascontiguousarray(win.transpose(0, 1, 2, 4, 5, 3)).reshape(-1, kh * kw * c)


def conv2d(x: Tensor, w: Tensor, stride: int = 1, pad: int = 1) -> Tensor:
    xd, wd = x.data, w.data
    if xd.ndim != 4 or wd.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input and kernel, got {xd.shape}, {wd.shape}")
    n, c, h, width = xd.shape
    f, _, kh, kw = wd.shape
    ho, wo = _conv_geometry(xd.shape, wd.shape, stride, pad)
    xt = xd.transpose(0, 2, 3, 1)
    out = _patches(xt, kh, kw, stride, pad) @ wd.transpose(0, 2, 3, 1).reshape(f, -1).T
    out = out.reshape(n, ho, wo, f).transpose(0, 3, 1, 2)

    def backward(g):
        gt = g.transpose(0, 2, 3, 1)
        dx = dw = None
        if x.requires_grad:
            # the forward's transpose: correlate g, dilated by the stride, with
            # the flipped kernel, its in and out channels swapped
            wflip = wd[:, :, ::-1, ::-1].transpose(1, 2, 3, 0).reshape(c, -1)
            dx = (_patches(gt, kh, kw, 1, kh - 1 - pad, stride) @ wflip.T
                  ).reshape(n, h, width, c).transpose(0, 3, 1, 2)
        if w.requires_grad:
            dw = (gt.reshape(n * ho * wo, f).T @ _patches(xt, kh, kw, stride, pad)
                  ).reshape(f, kh, kw, c).transpose(0, 3, 1, 2)
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
