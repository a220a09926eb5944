"""Output checks. Each one compares what the program produced with a
computation made here, apart from the program, or with a property the
method must have; none compares against a stored copy of earlier output.

Every check returns None when it holds and a one-line reason when it does
not, so a run can report all failures and the smoke test can feed a check
a deliberately perturbed input.
"""

from __future__ import annotations

import math

import numpy as np


# ---------------------------------------------------------------------------
# counts derived from the config
# ---------------------------------------------------------------------------

def module_sizes(units: int, K: int) -> list:
    """Units per module: near-equal contiguous split, remainder first."""
    base, rem = divmod(units, K)
    return [base + 1 if i < rem else base for i in range(K)]


def windows_covering(j: int, K: int, k: int) -> int:
    """Stride-1 windows of k consecutive modules (starts 1..K-k+1) that
    contain module j."""
    return max(0, min(j, K - k + 1) - max(1, j - k + 1) + 1)


def has_cascades(cfg: dict) -> bool:
    t, o = cfg["trainer"], cfg["optimizer"]
    return t["mode"] in ("mlm_only", "mlaan") and o.get("lr_cascaded") != 0


def conv_calls_per_step(cfg: dict):
    """(needed, reforward): conv calls one optimizer step needs, and the
    extra calls spent re-forwarding cascade windows through their members.

    A program may spend the extra calls (each window forwards its members
    anew) or not (windows reuse the module forwards); both are the method.
    """
    b, t = cfg["backbone"], cfg["trainer"]
    units, K = b["depth"] - 2, cfg["partition"]["K"]
    sizes = module_sizes(units, K)
    needed = 1 + units + (K - 1)          # stem, units, one head per module < K
    reforward = 0
    if has_cascades(cfg):
        k = t["k"]
        for s in range(1, K - k + 2):
            last = s + k - 1
            reforward += sum(sizes[s - 1:last]) + (1 if s == 1 else 0)
            if last < K:
                needed += 1               # the window's head
                q = min(t["p"], sum(sizes[last:])) if t["mode"] == "mlaan" else 0
                needed += q + math.ceil(q * last / K) if q else 0
    return needed, reforward


def check_conv_calls(calls, cfg: dict):
    needed, reforward = conv_calls_per_step(cfg)
    if calls not in (needed, needed + reforward):
        return (f"{calls} conv calls per step; the config needs {needed}, "
                f"or {needed + reforward} with cascade re-forwards")
    return None


# ---------------------------------------------------------------------------
# per-step properties
# ---------------------------------------------------------------------------

def check_accum_counts(counts: dict, module_params: list, cfg: dict):
    """Each module parameter took 1 + (windows covering its module)
    gradient contributions. `module_params[j-1]` lists module j's names."""
    K = len(module_params)
    k = cfg["trainer"]["k"]
    cascades = has_cascades(cfg)
    for j, names in enumerate(module_params, start=1):
        want = 1 + (windows_covering(j, K, k) if cascades else 0)
        for name in names:
            if counts.get(name) != want:
                return f"{name} took {counts.get(name)} gradient contributions, expected {want}"
    return None


def ema_expected(prev: np.ndarray, prime: np.ndarray, r: float) -> np.ndarray:
    """r*prev + (1-r)*prime, rounded as the in-place update rounds it."""
    out = prev * r
    out += (1.0 - r) * prime
    return out


def check_ema(before: list, after: list, primes: list, r: float):
    for i, (prev, now, prime) in enumerate(zip(before, after, primes)):
        want = ema_expected(prev, prime, r)
        if want.dtype != now.dtype or not np.array_equal(want, now):
            return f"EMA twin array {i} is not r*prev + (1-r)*phi' (max diff {np.abs(want - now).max():.3g})"
    return None


# ---------------------------------------------------------------------------
# run outputs
# ---------------------------------------------------------------------------

def check_loss_falls(rows: list):
    first, last = rows[0]["train_loss"], rows[-1]["train_loss"]
    if not last < first:
        return f"mean train loss did not fall: epoch 1 {first:.4f}, epoch {len(rows)} {last:.4f}"
    return None


def check_bitwise(saved: dict, live: dict):
    """Every array saved equals the live array bit for bit."""
    if set(saved) != set(live):
        return f"checkpoint holds {len(saved)} arrays, the trainer {len(live)}"
    for name, arr in live.items():
        got = saved[name]
        if got.dtype != arr.dtype or got.shape != arr.shape or got.tobytes() != arr.tobytes():
            return f"checkpoint array {name} differs from the trainer's"
    return None


def check_chunking(whole: np.ndarray, chunked: np.ndarray):
    """Eval-mode logits do not depend on how the batch is split. Rows are
    independent in eval mode; only GEMM blocking may move the last bits."""
    if whole.shape != chunked.shape:
        return f"logit shapes differ: {whole.shape} vs {chunked.shape}"
    tol = 1e-4 if whole.dtype == np.float32 else 1e-10
    err = float(np.abs(whole - chunked).max() / max(1.0, float(np.abs(whole).max())))
    if err > tol:
        return f"eval logits change with the chunking (relative diff {err:.3g})"
    return None


def check_error_rate(reported: float, logits: np.ndarray, labels: np.ndarray):
    want = float((logits.argmax(axis=1) != labels).mean())
    if reported != want:
        return f"reported test error {reported} but the logits give {want}"
    return None


def check_fd(auto: np.ndarray, numeric: np.ndarray, rtol=1e-4, atol=1e-8):
    """`numeric[i]` holds entry i's central differences at several step
    sizes; the entry passes when one of them agrees with autodiff."""
    a = auto[:, None]
    bad = np.abs(a - numeric) > atol + rtol * np.maximum(np.abs(a), np.abs(numeric))
    wrong = bad.all(axis=1)
    if wrong.any():
        i = int(np.flatnonzero(wrong)[0])
        return f"autodiff {auto[i]:.8g} vs central differences {numeric[i]}"
    return None


def check_main_peak(local_main: int, bp_main: int):
    if not local_main < bp_main:
        return f"local main-path peak {local_main} is not below bp's {bp_main}"
    return None


def hsic_cka(X: np.ndarray, Y: np.ndarray) -> float:
    """CKA as normalised HSIC of linear Gram matrices: HSIC(K, L) =
    tr(K H L H) / (n-1)^2 with centring matrix H."""
    n = X.shape[0]
    H = np.eye(n) - 1.0 / n
    X, Y = X.astype(np.float64), Y.astype(np.float64)
    Kc, Lc = H @ (X @ X.T) @ H, H @ (Y @ Y.T) @ H

    def hsic(a, b):  # tr(A H B H) for already centred, symmetric A and B
        return float(np.sum(a * b)) / (n - 1) ** 2

    return hsic(Kc, Lc) / math.sqrt(hsic(Kc, Kc) * hsic(Lc, Lc))


def check_self_cka(values: list):
    for layer, v in enumerate(values, start=1):
        if abs(v - 1.0) > 1e-6:
            return f"self-CKA at layer {layer} is {v!r}, not 1"
    return None


def check_cross_cka(values: list, expected: list):
    if len(values) != len(expected):
        return f"{len(values)} CKA layers reported, {len(expected)} expected"
    for layer, (v, want) in enumerate(zip(values, expected), start=1):
        if not 0.0 <= v <= 1.0:
            return f"cross-CKA at layer {layer} is {v!r}, outside [0, 1]"
        if abs(v - want) > 1e-6:
            return f"cross-CKA at layer {layer} is {v!r}; HSIC gives {want!r}"
    return None


def check_probe_rows(rows: list, K: int):
    if [r["layer"] for r in rows] != list(range(1, K + 1)):
        return f"probe reported layers {[r['layer'] for r in rows]}, expected 1..{K}"
    for r in rows:
        if not 0.0 <= r["value"] <= 1.0:
            return f"probe error at layer {r['layer']} is {r['value']!r}"
    return None


def check_unchanged(before: dict, after: dict):
    for name, arr in before.items():
        if after[name].tobytes() != arr.tobytes():
            return f"{name} changed"
    return None
