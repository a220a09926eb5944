"""Differentiable operation kernels.

Each op computes its forward value with numpy, then (only when a Graph is
active and some input wants gradients) records a backward closure on the
tape. A closure captures exactly the arrays its backward reads, and the op
hands those same arrays to the tape for the activation meter: conv2d its
input, and only when the kernel wants dW; batch norm its input, μ and 1/σ,
and so does a bias-free conv fused with its batch norm, whose backward
recomputes the conv output from the patch matrix dW builds anyway; relu its
output (`out > 0` has the bits of `x > 0`); matmul an operand only when the
other one wants a gradient; the loss its probabilities. The additions, the
pool and `sum_all` keep shapes only. An output no closure reads (the fused
conv's, a batch norm's, a residual sum) is freed once its consumer has run.

In eval mode batch norm is a fixed affine map per channel, so it is folded into
the conv in front of it: `conv_batchnorm2d_eval` scales the kernel by γ/σ and
adds β − μγ/σ to the conv output in place, one GEMM per block and one bias
pass per layer. It is forward-only and refuses to run on a tape.

Convolution uses the cross-correlation convention (no kernel flip). Training
works channels-last (NHWC memory behind NCHW views). Its forward, the fused
backward's recompute of it and dx are each one GEMM over one whole-batch
matrix of kh·kw·C-value patch rows (`_conv_gemm`); dx correlates the
stride-dilated gradient with the flipped, channel-swapped kernel, and dW
multiplies the gradient into the forward's matrix. Only the CHWN eval forward
(below) works in blocks. No gradient is computed for an input or a kernel
that does not require one (the stem's image, the frozen EMA twins).

Per-channel ops (batch norm, the 4-d bias gradient, global pooling) meet those
NHWC-memory arrays in training. numpy reduces and broadcasts them one pixel (C
values) at a time, so on NHWC operands they run at full width instead:
channel sums through `np.einsum`, channel broadcasts on the (N, H·W·C) row
view against vectors tiled H·W times. Both give the very bits of the 4-d
expressions, and they must: einsum walks the memory in the order numpy's own
reduction does, and a faster sum in any other order re-rolls the trained
networks that acceptance criterion 6 ranks by a 0.03 error margin.
NCHW-memory operands keep the 4-d expressions.

Eval works batch-innermost (CHWN memory): the fold lays out the stem's images
so once, and relu and the residual sum keep the layout. The conv forward
follows its input's memory order, and on CHWN input it copies K-major patch
columns, (kh·kw·C) × (Ho·Wo·N), a block of whole output rows at a time, so
each copied run is an output row across the batch (Wo·N values) where
channels-last moves kw·C. K is ordered (kh, kw, C), as the channels-last
rows are, so both GEMMs add each output's products in the same order and give
it the same bits; a (C, kh, kw) order adds them in another. Outside OpenBLAS's
small-matrix range the two GEMMs run one kernel; inside it (`_SMALL_GEMM`)
they do not, so a small CHWN conv runs the channels-last GEMM and copies its
output to CHWN memory. The pool sums CHWN pixels in the channels-last order
and returns C-contiguous (N, C) rows, so eval keeps every bit.

`matmul`, the dense `bias_add` and `softmax_cross_entropy` also take one
leading stack axis: (L, m, ·) slabs with an (L, c) bias and (L, m) labels.
Each slab gets the bits of the 2-d op on that slab alone, forward and
backward, and the stacked loss is the sum of the slabs' mean losses, so a seed
of 1 hands each slab its own mean's gradient. The linear probes train so.
"""

from __future__ import annotations

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ConfigError, DataError, GraphError, ShapeError
from .tensor import Graph, Tensor


def _result(op, inputs, out_data, backward_fn, cache_arrays=()):
    rg = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=rg)
    graph = Graph.active()
    if graph is not None and rg:
        graph.record(op, inputs, out, backward_fn, cache_arrays)
    return out


def _nhwc(a) -> bool:
    """Whether the N×C×H×W array `a` lies in NHWC memory order and not also in
    NCHW order (as it does when C = 1)."""
    return not a.flags.c_contiguous and a.transpose(0, 2, 3, 1).flags.c_contiguous


def _chwn(a) -> bool:
    """Whether the N×C×H×W array `a` lies in CHWN memory order (batch fastest)
    and not also in NCHW order (as it does when N = 1)."""
    return not a.flags.c_contiguous and a.transpose(1, 2, 3, 0).flags.c_contiguous


def _as_chwn(a):
    """`a`'s values in CHWN memory behind an N×C×H×W view; `a` itself, if it is."""
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


def _channel_sum(a, b=None, keep="c"):
    """Sum of `a` (or of a·b) over every axis of N×C×H×W operands but those
    in `keep` ("c" or "nc"), bitwise equal to `(a * b).sum(axis=...)`.

    On NHWC operands numpy's reduction adds pixel after pixel into each
    channel, C values per inner loop; einsum adds in that same order without
    the per-pixel dispatch. A product of mixed layouts is written and summed
    in another order, so it takes einsum only when both operands are NHWC."""
    if _nhwc(a) and (b is None or _nhwc(b)):
        if b is None:
            return np.einsum("nchw->" + keep, a)
        return np.einsum("nchw,nchw->" + keep, a, b)
    return (a if b is None else a * b).sum(axis=(0, 2, 3) if keep == "c" else (2, 3))


def _channel_layout(*arrays):
    """(views, bcast, back) for per-channel arithmetic on same-shaped N×C×H×W
    arrays. When all are NHWC in memory, the views are their (N, H·W·C) rows,
    `bcast` repeats a channel vector H·W times along a row and `back` turns a
    row result into the NHWC-memory N×C×H×W view the 4-d expression would
    have produced; otherwise the arrays stay 4-d and vectors broadcast as
    [None, :, None, None]."""
    n, c, h, w = arrays[0].shape
    if all(_nhwc(a) for a in arrays):
        return ([a.transpose(0, 2, 3, 1).reshape(n, -1) for a in arrays],
                lambda v: np.repeat(v[None], h * w, axis=0).reshape(-1),
                lambda r: r.reshape(n, h, w, c).transpose(0, 3, 1, 2))
    return list(arrays), lambda v: v[None, :, None, None], lambda a: a


# ---------------------------------------------------------------------------
# dense / elementwise
# ---------------------------------------------------------------------------

def matmul(a: Tensor, b: Tensor) -> Tensor:
    ad, bd = a.data, b.data
    if (ad.ndim not in (2, 3) or bd.ndim != ad.ndim or ad.shape[:-2] != bd.shape[:-2]
            or ad.shape[-1] != bd.shape[-2]):
        raise ShapeError(f"matmul needs [m×n]@[n×p] or [L×m×n]@[L×n×p], "
                         f"got {ad.shape} @ {bd.shape}")

    out = ad @ bd
    # each operand's gradient reads the other operand
    ad, bd = (ad if b.requires_grad else None), (bd if a.requires_grad else None)

    def backward(g):
        return (None if bd is None else g @ bd.swapaxes(-1, -2),
                None if ad is None else ad.swapaxes(-1, -2) @ g)

    return _result("matmul", (a, b), out, backward, (ad, bd))


def bias_add(x: Tensor, b: Tensor) -> Tensor:
    xd, bd = x.data, b.data
    if xd.ndim in (2, 3) and bd.shape == xd.shape[:-2] + xd.shape[-1:]:
        out = xd + bd[..., None, :]

        def backward(g):
            return g, g.sum(axis=-2)

    elif xd.ndim == 4 and bd.shape == xd.shape[1:2]:
        out = xd + bd[None, :, None, None]

        def backward(g):
            return g, _channel_sum(g)

    else:
        raise ShapeError(f"bias_add: cannot broadcast {bd.shape} onto {xd.shape}")
    return _result("bias_add", (x, b), out, backward)


def relu(x: Tensor) -> Tensor:
    out = np.maximum(x.data, 0)

    def backward(g):
        return (g * (out > 0),)

    return _result("relu", (x,), out, backward, (out,))


def residual_add(a: Tensor, b: Tensor) -> Tensor:
    if a.data.shape != b.data.shape:
        raise ShapeError(f"residual_add shape mismatch: {a.data.shape} vs {b.data.shape}")

    def backward(g):
        return g, g

    return _result("residual_add", (a, b), a.data + b.data, backward)


def sum_all(x: Tensor) -> Tensor:
    shape, dtype = x.data.shape, x.data.dtype

    def backward(g):
        return (np.full(shape, float(g), dtype),)

    return _result("sum_all", (x,), np.asarray(x.data.sum(), dtype=dtype), backward)


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


# Least patch columns per CHWN eval-forward GEMM, in whole output rows: OpenBLAS
# gives short GEMMs another kernel and other bits, so a short remainder joins a block.
_BLOCK_ROWS = 4096
# OpenBLAS (SkylakeX kernels) runs a GEMM of at most 100³ multiply-adds through
# small-matrix kernels, which add a K-major patch matrix in another order than
# the row-major one; a filter row times the patches is a GEMV, likewise.
_SMALL_GEMM = 100 ** 3


def _patches(x, kh, kw, stride, pad, dilate=1):
    """Rows of kh×kw windows over the N×C×H×W array `x`, channels fastest:
    (N·Ho·Wo, kh·kw·C). `x` is first dilated (dilate-1 zeros between pixels),
    then zero-padded by `pad` on each side, or cropped when `pad` is negative."""
    x = x.transpose(0, 2, 3, 1)
    n, h, w, c = x.shape
    lo, crop = max(pad, 0), max(-pad, 0)
    xp = np.zeros((n, dilate * (h - 1) + 1 + 2 * lo, dilate * (w - 1) + 1 + 2 * lo, c), x.dtype)
    xp[:, lo:xp.shape[1] - lo:dilate, lo:xp.shape[2] - lo:dilate] = x
    xp = xp[:, crop:xp.shape[1] - crop, crop:xp.shape[2] - crop]
    sn, sh, sw, sc = xp.strides
    ho, wo = (xp.shape[1] - kh) // stride + 1, (xp.shape[2] - kw) // stride + 1
    # the (n, ho, wo, kh, kw, c) window view, copied once
    win = as_strided(xp, (n, ho, wo, kh, kw, c),
                     (sn, stride * sh, stride * sw, sh, sw, sc), writeable=False)
    return np.ascontiguousarray(win).reshape(-1, kh * kw * c)


def _row_patches(xc, kh, kw, stride, pad, i, j):
    """The K-major patch matrix of output rows i..j-1 over the (C, H, W, N)
    array `xc`: (kh·kw·C, (j−i)·Wo·N), its rows in `_patches`'s column order.
    Only the input rows these outputs read are copied and zero-padded."""
    c, h, w, n = xc.shape
    top, rows = i * stride - pad, (j - i - 1) * stride + kh
    xp = np.zeros((c, rows, w + 2 * pad, n), xc.dtype)
    lo, hi = min(max(top, 0), h), min(max(top + rows, 0), h)
    xp[:, lo - top:hi - top, pad:pad + w] = xc[:, lo:hi]
    sc, sh, sw, sn = xp.strides
    wo = (w + 2 * pad - kw) // stride + 1
    # the (kh, kw, c, rows, wo, n) window view: each run is an output row's wo·n values
    win = as_strided(xp, (kh, kw, c, j - i, wo, n),
                     (sh, sw, sc, stride * sh, stride * sw, sn), writeable=False)
    return np.ascontiguousarray(win).reshape(kh * kw * c, -1)


def _blocks(count, size, least):
    """(start, stop) runs of `count` items of `size` each, at least `least` per
    run; a short remainder joins the run before it."""
    step = -(-least // size)
    cuts = [b * step for b in range(max(count // step, 1))] + [count]
    return zip(cuts, cuts[1:])


def _conv_gemm(cols, wd, n, ho, wo):
    """The conv output from its input's patch matrix: an NHWC-memory view."""
    f = wd.shape[0]
    return (cols @ wd.transpose(0, 2, 3, 1).reshape(f, -1).T
            ).reshape(n, ho, wo, f).transpose(0, 3, 1, 2)


def _conv_forward(xd, wd, stride, pad, ho, wo):
    """The conv output in its input's layout: an NHWC or NCHW input by one
    whole-batch patch GEMM into NHWC memory, a CHWN input by blocks of at
    least `_BLOCK_ROWS` patch columns of whole output rows, K-major, into
    CHWN memory. Every output gets the same bits either way."""
    n, f, (kh, kw) = xd.shape[0], wd.shape[0], wd.shape[2:]
    wm = wd.transpose(0, 2, 3, 1).reshape(f, -1)
    chwn, least = _chwn(xd), max(_BLOCK_ROWS, _SMALL_GEMM // wm.size + 1)
    if not chwn or f == 1 or ho * wo * n < least:
        out = _conv_gemm(_patches(xd, kh, kw, stride, pad), wd, n, ho, wo)
        # a CHWN input too small for the K-major GEMM's bits still gets CHWN memory
        return _as_chwn(out) if chwn else out
    out, xc = np.empty((f, ho, wo, n), np.result_type(xd, wd)), xd.transpose(1, 2, 3, 0)
    for i, j in _blocks(ho, wo * n, least):
        np.matmul(wm, _row_patches(xc, kh, kw, stride, pad, i, j), out=out[:, i:j].reshape(f, -1))
    return out.transpose(3, 0, 1, 2)


def _conv_dw(g, cols, wd):
    f, c, kh, kw = wd.shape
    return (g.transpose(0, 2, 3, 1).reshape(-1, f).T @ cols
            ).reshape(f, kh, kw, c).transpose(0, 3, 1, 2)


def _conv_dx(g, wd, xshape, stride, pad):
    # the forward's transpose: correlate g, dilated by the stride, with the
    # flipped kernel, its in and out channels swapped
    (n, _, h, width), (kh, kw) = xshape, wd.shape[2:]
    return _conv_gemm(_patches(g, kh, kw, 1, kh - 1 - pad, stride),
                      wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), n, h, width)


def conv2d(x: Tensor, w: Tensor, stride: int = 1, pad: int = 1) -> Tensor:
    xd, wd = x.data, w.data
    if xd.ndim != 4 or wd.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input and kernel, got {xd.shape}, {wd.shape}")
    (kh, kw), (ho, wo) = wd.shape[2:], _conv_geometry(xd.shape, wd.shape, stride, pad)
    out = _conv_forward(xd, wd, stride, pad, ho, wo)
    # dx reads the kernel (a parameter); only dW reads the input
    need_dx, xshape, xd = x.requires_grad, xd.shape, (xd if w.requires_grad else None)

    def backward(g):
        dw = None if xd is None else _conv_dw(g, _patches(xd, kh, kw, stride, pad), wd)
        return (_conv_dx(g, wd, xshape, stride, pad) if need_dx else None), dw

    return _result("conv2d", (x, w), out, backward, (xd,))


# ---------------------------------------------------------------------------
# normalization / pooling
# ---------------------------------------------------------------------------

def _bn_forward(xd, gamma, beta, eps):
    """(output, μ, σ², 1/σ) of batch-statistics normalization of `xd`."""
    if xd.ndim != 4:
        raise ShapeError(f"batchnorm2d expects N×C×H×W, got {xd.shape}")
    m = xd.size // xd.shape[1]
    if m < 2:
        raise ShapeError("batchnorm2d needs at least 2 values per channel in train mode")
    (xv,), bcast, back = _channel_layout(xd)
    # the bits of xd.mean: its float64 division rounds to float32 as this one does
    mu = _channel_sum(xd) / m
    xc = xv - bcast(mu)
    var = _channel_sum(back(xc), back(xc)) / m
    inv = 1.0 / np.sqrt(var + eps)
    return back(bcast(gamma.data) * (xc * bcast(inv)) + bcast(beta.data)), mu, var, inv


def _bn_backward(xd, g, mu, inv, gamma, beta):
    """(dx, dγ, dβ) of `_bn_forward`: inv/m·(m·dx̂ − s1 − x̂·s2), in place."""
    m = xd.size // xd.shape[1]
    (xv, gv), bcast, back = _channel_layout(xd, g)
    xh = xv - bcast(mu)
    xh *= bcast(inv)
    dbeta = _channel_sum(g) if beta.requires_grad else None
    dgamma = _channel_sum(g, back(xh)) if gamma.requires_grad else None
    dx = gv * bcast(gamma.data)
    s1 = _channel_sum(back(dx))
    s2 = _channel_sum(back(dx), back(xh))
    dx *= m
    dx -= bcast(s1)
    xh *= bcast(s2)
    dx -= xh
    dx *= bcast(inv / m)
    return back(dx), dgamma, dbeta


def batchnorm2d_train(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5):
    """Batch-statistics normalization. Returns (output, batch_mean, batch_var);
    the caller owns the running-stat bookkeeping. Variance is biased (ddof=0)."""
    xd = x.data
    out, mu, var, inv = _bn_forward(xd, gamma, beta, eps)
    return _result("batchnorm2d", (x, gamma, beta), out,
                   lambda g: _bn_backward(xd, g, mu, inv, gamma, beta), (xd, mu, inv)), mu, var


def conv_batchnorm2d_train(x: Tensor, w: Tensor, gamma: Tensor, beta: Tensor,
                           stride: int = 1, pad: int = 1, eps: float = 1e-5):
    """`batchnorm2d_train(conv2d(x, w, stride, pad), gamma, beta, eps)`, bit for
    bit, keeping x, μ and 1/σ: backward recomputes the conv output from the
    patch matrix dW reads, and drops that matrix before dx builds its own."""
    y = conv2d(detach(x), detach(w), stride, pad).data
    out, mu, var, inv = _bn_forward(y, gamma, beta, eps)
    xd, wd, (n, _, ho, wo) = x.data, w.data, y.shape
    need_dx, need_dw, (kh, kw) = x.requires_grad, w.requires_grad, wd.shape[2:]

    def backward(g):
        cols = _patches(xd, kh, kw, stride, pad)
        gy, dgamma, dbeta = _bn_backward(_conv_gemm(cols, wd, n, ho, wo), g, mu, inv, gamma, beta)
        dw = _conv_dw(gy, cols, wd) if need_dw else None
        del cols
        return (_conv_dx(gy, wd, xd.shape, stride, pad) if need_dx else None), dw, dgamma, dbeta

    return _result("conv_batchnorm2d", (x, w, gamma, beta), out, backward, (xd, mu, inv)), mu, var


def conv_batchnorm2d_eval(x: Tensor, w: Tensor, gamma: Tensor, beta: Tensor,
                          mean: np.ndarray, var: np.ndarray, eps: float = 1e-5) -> Tensor:
    """`batchnorm2d_eval(conv2d(x, w), gamma, beta, mean, var, eps)` up to
    rounding, with batch norm folded into the conv: the kernel scaled by
    s = γ/σ, then β − μ·s added in place to the conv output. Forward-only: on
    an active tape it raises `GraphError` rather than drop γ, β and dW."""
    graph = Graph.active()
    if graph is not None:
        raise GraphError("conv_batchnorm2d_eval is forward-only; "
                         f"it cannot run on tape {graph.label!r}")
    s = gamma.data * (1.0 / np.sqrt(var + eps))
    out = conv2d(Tensor(_as_chwn(x.data)), Tensor(w.data * s[:, None, None, None])).data
    out += (beta.data - mean * s)[:, None, None]  # on CHWN memory, one H·W·N run per channel
    return Tensor(out)


def batchnorm2d_eval(x: Tensor, gamma: Tensor, beta: Tensor,
                     mean: np.ndarray, var: np.ndarray, eps: float = 1e-5) -> Tensor:
    """Running-statistics normalization. No layer calls it, since eval-mode
    layers run `conv_batchnorm2d_eval`; it stays for its gradients, which
    acceptance criterion 1 checks, and as the fold's reference."""
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(f"batchnorm2d expects N×C×H×W, got {xd.shape}")
    inv = 1.0 / np.sqrt(var + eps)
    xh = (xd - mean[None, :, None, None]) * inv[None, :, None, None]
    out = gamma.data[None, :, None, None] * xh + beta.data[None, :, None, None]

    def backward(g):
        xh = (xd - mean[None, :, None, None]) * inv[None, :, None, None]
        dx = g * (gamma.data * inv)[None, :, None, None]
        return (dx, _channel_sum(g, xh) if gamma.requires_grad else None,
                _channel_sum(g) if beta.requires_grad else None)

    # `mean` is the layer's running mean, a buffer rather than an activation
    return _result("batchnorm2d_eval", (x, gamma, beta), out, backward, cache_arrays=(xd, inv))


def global_avg_pool(x: Tensor) -> Tensor:
    xd = x.data
    if xd.ndim != 4:
        raise ShapeError(f"global_avg_pool expects N×C×H×W, got {xd.shape}")
    n, c, h, w = shape = xd.shape

    def backward(g):
        return (np.broadcast_to((g / (h * w))[:, :, None, None], shape).copy(),)

    # eval's CHWN memory gets the bits of its NHWC twin: einsum adds pixel after
    # pixel on both, and at C = 1 the twin is NCHW memory, which numpy sums pairwise
    if _chwn(xd) and c > 1:
        pooled = np.ascontiguousarray(np.einsum("nchw->nc", xd))
    else:
        pooled = _channel_sum(np.ascontiguousarray(xd) if _chwn(xd) else xd, keep="nc")
    return _result("global_avg_pool", (x,), pooled / (h * w), backward)


# ---------------------------------------------------------------------------
# loss / boundaries
# ---------------------------------------------------------------------------

def softmax_cross_entropy(logits: Tensor, labels: np.ndarray) -> Tensor:
    ld = logits.data
    if ld.ndim not in (2, 3):
        raise ShapeError(f"softmax_cross_entropy expects N×C or L×N×C logits, got {ld.shape}")
    y = np.asarray(labels)
    n, c = ld.shape[-2:]
    if y.shape != ld.shape[:-1]:
        raise ShapeError(f"labels shape {y.shape} does not match logits {ld.shape} "
                         "without their class axis")
    if y.size and (y.min() < 0 or y.max() >= c):
        raise DataError(f"label out of range [0,{c}): {int(y.min())}..{int(y.max())}")
    z = ld - ld.max(axis=-1, keepdims=True)
    ez = np.exp(z)
    sz = ez.sum(axis=-1, keepdims=True)
    probs = ez / sz
    rows, cols = np.arange(y.size), y.reshape(-1)
    nll = np.log(sz[..., 0]) - z.reshape(-1, c)[rows, cols].reshape(y.shape)
    # the sum of the slabs' mean losses: each slab's gradient is its own mean's
    loss = np.asarray(nll.mean(axis=-1).sum(), dtype=ld.dtype)

    def backward(g):
        d = probs.copy()
        d.reshape(-1, c)[rows, cols] -= 1.0
        return (d * (float(g) / n),)

    return _result("softmax_cross_entropy", (logits,), loss, backward, cache_arrays=(probs,))


def detach(x: Tensor) -> Tensor:
    """Value-identical tensor that stops backward traversal dead.

    The result is a graph leaf: no record links it to its producer, so the
    gradient of anything upstream w.r.t. a downstream loss is exactly zero.
    """
    return Tensor(x.data, requires_grad=False)
