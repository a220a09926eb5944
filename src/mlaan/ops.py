"""Differentiable operation kernels.

Each op computes its forward value with numpy, then (only when a Graph is
active and some input wants gradients) records a backward closure on the
tape. A closure captures exactly the arrays its backward reads, and the op
hands those same arrays to the tape for the activation meter: conv2d its
CHWN input, and only when the kernel wants dW; batch norm its input, μ and 1/σ,
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
and eval both work batch-innermost: CHWN memory behind N×C×H×W views, which
relu, the residual sum and batch norm keep. On a tape a conv lays out a
non-CHWN input (only the stem's images) CHWN once and keeps that copy. Its
forward, the fused backward's recompute of it and dx are each one
whole-batch GEMM W_m @ P: the kernel as (F, kh·kw·C) rows times the K-major
patch matrix P, (kh·kw·C) × (Ho·Wo·N), of `_row_patches`, into (F, Ho, Wo, N)
memory. dx correlates the stride-dilated gradient with the flipped,
channel-swapped kernel, and dW is (P @ g_rowsᵀ)ᵀ. No gradient is computed for
an input or a kernel that does not require one (the stem's image, the frozen
EMA twins).

Batch norm and the 4-d bias gradient sum per channel with `np.einsum` on the
4-d operands, and broadcast vectors as [None, :, None, None]. einsum adds in
memory order, so a sum's bits follow its operands' layout: the pool's
backward writes CHWN too, so every batch-norm backward reads CHWN memory.
Another order re-rolls the trained networks that acceptance criterion 6
ranks by a 0.03 error margin.

Off the tape (eval) the conv forward follows its input's layout. On CHWN input
it copies K-major patch columns a block of whole output rows at a time, each
copied run an output row across the batch (Wo·N values). K is ordered
(kh, kw, C), as the channels-last patch rows of `_patches` are, so both GEMMs
add each output's products in the same order and give it the same bits.
Outside OpenBLAS's small-matrix range the two GEMMs run one kernel; inside it
(`_SMALL_GEMM`) they do not, so a small CHWN conv runs the channels-last GEMM
and copies its output to CHWN memory. Only eval blocks and falls back so. The
pool sums CHWN pixels in the channels-last order and returns C-contiguous
(N, C) rows.

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


def _chwn(a) -> bool:
    """Whether the N×C×H×W array `a` lies in CHWN memory order (batch fastest)
    and not also in NCHW order (as it does when N = 1)."""
    return not a.flags.c_contiguous and a.transpose(1, 2, 3, 0).flags.c_contiguous


def _as_chwn(a):
    """`a`'s values in CHWN memory behind an N×C×H×W view; `a` itself, if it is."""
    if a.transpose(1, 2, 3, 0).flags.c_contiguous:
        return a
    return np.ascontiguousarray(a.transpose(1, 2, 3, 0)).transpose(3, 0, 1, 2)


def _channel_sum(a, b=None, keep="c"):
    """Sum of `a` (or of a·b) over every axis of N×C×H×W operands but those
    in `keep` ("c" or "nc"): numpy's own reduction, which the 4-d eval kernels
    take."""
    return (a if b is None else a * b).sum(axis=(0, 2, 3) if keep == "c" else (2, 3))


def _bcast(v):
    """A channel vector broadcast over N×C×H×W operands."""
    return v[None, :, None, None]


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
            return g, np.einsum("nchw->c", g)

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


def _patches(x, kh, kw, stride, pad):
    """Rows of kh×kw windows over the N×C×H×W array `x`, zero-padded by `pad`
    on each side, channels fastest: (N·Ho·Wo, kh·kw·C)."""
    x = x.transpose(0, 2, 3, 1)
    n, h, w, c = x.shape
    xp = np.zeros((n, h + 2 * pad, w + 2 * pad, c), x.dtype)
    xp[:, pad:pad + h, pad:pad + w] = x
    sn, sh, sw, sc = xp.strides
    ho, wo = (h + 2 * pad - kh) // stride + 1, (w + 2 * pad - kw) // stride + 1
    # the (n, ho, wo, kh, kw, c) window view, copied once
    win = as_strided(xp, (n, ho, wo, kh, kw, c),
                     (sn, stride * sh, stride * sw, sh, sw, sc), writeable=False)
    return np.ascontiguousarray(win).reshape(-1, kh * kw * c)


def _spread(size, dilate, start, length):
    """(source, target) slices: the pixels of an axis of `size`, `dilate` apart,
    that land in the window [start, start + length) of that spaced axis."""
    lo = min(max(-(-start // dilate), 0), size)
    hi = max(min((start + length - 1) // dilate + 1, size), lo)
    at = lo * dilate - start
    return slice(lo, hi), slice(at, at + (hi - lo) * dilate, dilate)


def _row_patches(x, kh, kw, stride, pad, i, j, dilate=1):
    """The K-major patch matrix of output rows i..j-1 over the N×C×H×W array
    `x`: (kh·kw·C, (j−i)·Wo·N), its rows in `_patches`'s column order. `x` is
    first dilated (dilate−1 zeros between pixels), then zero-padded by `pad` on
    each side, or cropped when `pad` is negative; only the input rows these
    outputs read are copied."""
    xc = x.transpose(1, 2, 3, 0)
    c, h, w, n = xc.shape
    top, rows, width = i * stride - pad, (j - i - 1) * stride + kh, dilate * (w - 1) + 1 + 2 * pad
    xp = np.zeros((c, rows, width, n), xc.dtype)
    (src_h, at_h), (src_w, at_w) = _spread(h, dilate, top, rows), _spread(w, dilate, -pad, width)
    xp[:, at_h, at_w] = xc[:, src_h, src_w]
    sc, sh, sw, sn = xp.strides
    wo = (width - kw) // stride + 1
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


def _kernel_rows(wd):
    """The (F, C, kh, kw) kernel as GEMM rows, (F, kh·kw·C): the patches' K order."""
    return wd.transpose(0, 2, 3, 1).reshape(wd.shape[0], -1)


def _conv_gemm(cols, wd, n, ho, wo):
    """The conv output from its input's patch rows: an NHWC-memory view."""
    return (cols @ _kernel_rows(wd).T).reshape(n, ho, wo, -1).transpose(0, 3, 1, 2)


def _conv_kmajor(cols, wd, ho, wo):
    """The conv output W_m @ P from its input's whole-batch K-major patch
    matrix: a CHWN-memory view."""
    return (_kernel_rows(wd) @ cols).reshape(wd.shape[0], ho, wo, -1).transpose(3, 0, 1, 2)


def _conv_forward(xd, wd, stride, pad, ho, wo):
    """The eval-mode conv output in its input's layout: an NHWC or NCHW input
    by one whole-batch patch GEMM into NHWC memory, a CHWN input by blocks of
    at least `_BLOCK_ROWS` patch columns of whole output rows, K-major, into
    CHWN memory. Every output gets the same bits either way."""
    n, f, (kh, kw) = xd.shape[0], wd.shape[0], wd.shape[2:]
    wm = _kernel_rows(wd)
    chwn, least = _chwn(xd), max(_BLOCK_ROWS, _SMALL_GEMM // wm.size + 1)
    if not chwn or f == 1 or ho * wo * n < least:
        out = _conv_gemm(_patches(xd, kh, kw, stride, pad), wd, n, ho, wo)
        # a CHWN input too small for the K-major GEMM's bits still gets CHWN memory
        return _as_chwn(out) if chwn else out
    out = np.empty((f, ho, wo, n), np.result_type(xd, wd))
    for i, j in _blocks(ho, wo * n, least):
        np.matmul(wm, _row_patches(xd, kh, kw, stride, pad, i, j), out=out[:, i:j].reshape(f, -1))
    return out.transpose(3, 0, 1, 2)


def _conv_dw(g, cols, wd):
    """dW from the output gradient and the input's K-major patch matrix."""
    f, c, kh, kw = wd.shape
    dw = (cols @ g.transpose(1, 2, 3, 0).reshape(f, -1).T).T
    return dw.reshape(f, kh, kw, c).transpose(0, 3, 1, 2)


def _conv_dx(g, wd, xshape, stride, pad):
    # the forward's transpose: correlate g, dilated by the stride, with the
    # flipped kernel, its in and out channels swapped
    (h, width), kh = xshape[2:], wd.shape[2]
    cols = _row_patches(g, kh, wd.shape[3], 1, kh - 1 - pad, 0, h, stride)
    return _conv_kmajor(cols, wd[:, :, ::-1, ::-1].transpose(1, 0, 2, 3), h, width)


def conv2d(x: Tensor, w: Tensor, stride: int = 1, pad: int = 1) -> Tensor:
    xd, wd = x.data, w.data
    if xd.ndim != 4 or wd.ndim != 4:
        raise ShapeError(f"conv2d expects 4-d input and kernel, got {xd.shape}, {wd.shape}")
    (kh, kw), (ho, wo) = wd.shape[2:], _conv_geometry(xd.shape, wd.shape, stride, pad)
    if Graph.active() is None:
        return _result("conv2d", (x, w), _conv_forward(xd, wd, stride, pad, ho, wo), None)
    xc = _as_chwn(xd)
    out = _conv_kmajor(_row_patches(xc, kh, kw, stride, pad, 0, ho), wd, ho, wo)
    # dx reads the kernel (a parameter); only dW reads the input
    need_dx, xshape, xc = x.requires_grad, xd.shape, (xc if w.requires_grad else None)

    def backward(g):
        dw = None if xc is None else _conv_dw(g, _row_patches(xc, kh, kw, stride, pad, 0, ho), wd)
        return (_conv_dx(g, wd, xshape, stride, pad) if need_dx else None), dw

    return _result("conv2d", (x, w), out, backward, (xc,))


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
    mu = np.einsum("nchw->c", xd) / m
    xc = xd - _bcast(mu)
    var = np.einsum("nchw,nchw->c", xc, xc) / m
    inv = 1.0 / np.sqrt(var + eps)
    return _bcast(gamma.data) * (xc * _bcast(inv)) + _bcast(beta.data), mu, var, inv


def _bn_backward(xd, g, mu, inv, gamma, beta):
    """(dx, dγ, dβ) of `_bn_forward`: inv/m·(m·dx̂ − s1 − x̂·s2), in place."""
    m = xd.size // xd.shape[1]
    xh = xd - _bcast(mu)
    xh *= _bcast(inv)
    dbeta = np.einsum("nchw->c", g) if beta.requires_grad else None
    dgamma = np.einsum("nchw,nchw->c", g, xh) if gamma.requires_grad else None
    dx = g * _bcast(gamma.data)
    s1 = np.einsum("nchw->c", dx)
    s2 = np.einsum("nchw,nchw->c", dx, xh)
    dx *= m
    dx -= _bcast(s1)
    xh *= _bcast(s2)
    dx -= xh
    dx *= _bcast(inv / m)
    return dx, dgamma, dbeta


def batchnorm2d_train(x: Tensor, gamma: Tensor, beta: Tensor, eps: float = 1e-5):
    """Batch-statistics normalization. Returns (output, batch_mean, batch_var);
    the caller owns the running-stat bookkeeping. Variance is biased (ddof=0)."""
    xd = x.data
    out, mu, var, inv = _bn_forward(xd, gamma, beta, eps)
    return _result("batchnorm2d", (x, gamma, beta), out,
                   lambda g: _bn_backward(xd, g, mu, inv, gamma, beta), (xd, mu, inv)), mu, var


def conv_batchnorm2d_train(x: Tensor, w: Tensor, gamma: Tensor, beta: Tensor,
                           stride: int = 1, pad: int = 1, eps: float = 1e-5):
    """`batchnorm2d_train(conv2d(x, w, stride, pad), gamma, beta, eps)` on a tape,
    bit for bit, keeping x (in CHWN memory), μ and 1/σ: backward recomputes the
    conv output from the patch matrix dW reads, and drops that matrix before dx
    builds its own."""
    xc, wd = _as_chwn(x.data), w.data
    y = conv2d(Tensor(xc), detach(w), stride, pad).data
    out, mu, var, inv = _bn_forward(y, gamma, beta, eps)
    need_dx, need_dw = x.requires_grad, w.requires_grad
    (kh, kw), (ho, wo) = wd.shape[2:], y.shape[2:]

    def backward(g):
        cols = _row_patches(xc, kh, kw, stride, pad, 0, ho)
        gy, dgamma, dbeta = _bn_backward(_conv_kmajor(cols, wd, ho, wo), g, mu, inv, gamma, beta)
        dw = _conv_dw(gy, cols, wd) if need_dw else None
        del cols
        return (_conv_dx(gy, wd, xc.shape, stride, pad) if need_dx else None), dw, dgamma, dbeta

    return _result("conv_batchnorm2d", (x, w, gamma, beta), out, backward, (xc, mu, inv)), mu, var


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
    n, c, h, w = xd.shape

    def backward(g):  # a CHWN gradient, as every training activation's
        return (np.broadcast_to((g / (h * w)).T[:, None, None], (c, h, w, n)
                                ).copy().transpose(3, 0, 1, 2),)

    # CHWN memory gets the bits of its NHWC twin: einsum adds pixel after
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
