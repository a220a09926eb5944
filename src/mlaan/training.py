"""The five training rules: end-to-end BP, greedy local, multilaminar,
leap-augmented, and the full combined method, plus the epoch loop and
evaluation.

Gradient isolation is structural. A local step forwards each module once,
on its own tape, from a leaf copy of the previous module's output. Each
supervision head (a module's own head, or a cascade window's head) runs on
a separate tape over a leaf copy of the features it grades; its gradient
at those features is pushed back through the body tapes of exactly the
modules it supervises, and never further. A body tape stays alive only
while a cascade window that covers it is still open, so at most k module
tapes are held at once.

Two learning rates are realized with one optimizer by scaling cascade-loss
backward seeds by eta_c/eta_d, so all supervision terms accumulate into one
gradient buffer before the single Nesterov step — the simultaneous-update
semantics. Each parameter takes its own module's loss first, then the
windows that cover it in start order.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from . import ops
from .analysis import ActivationMeter, MetricsRecorder
from .errors import ConfigError, DataError, TrainingDiverged
from .network import (Backbone, attach_cascade_groups, attach_independent_heads,
                      build_leap_replicas, partition, resync_replicas)
from .optim import OptimizerConfig, SGDNesterov, cosine_annealing_lr
from .rng import named_stream
from .tensor import Graph, Tensor

MODES = ("bp", "greedy_local", "mlm_only", "lam_only", "mlaan")
MLAAN_RULES = ("ema_teacher",)


@dataclass
class TrainerMode:
    kind: str = "mlaan"
    k: int = 3
    p: int = 2
    r: float = 0.99
    mlaan_rule: str = "ema_teacher"
    sync_period: int = 0  # 0: every epoch, -1: never, n>0: every n optimizer steps

    def __post_init__(self):
        if self.kind not in MODES:
            raise ConfigError(f"trainer.mode must be one of {MODES}, got {self.kind!r}")
        if self.mlaan_rule not in MLAAN_RULES:
            raise ConfigError(f"trainer.mlaan_rule must be one of {MLAAN_RULES}, "
                              f"got {self.mlaan_rule!r}")
        if self.p < 0:
            raise ConfigError(f"trainer.p must be >= 0, got {self.p}")
        if not 0.0 < self.r < 1.0:
            raise ConfigError(f"trainer.r must lie in (0, 1), got {self.r}")
        if self.sync_period < -1:
            raise ConfigError(f"trainer.sync_period must be >= -1, got {self.sync_period}")


@dataclass
class StepReport:
    independent: dict
    cascaded: dict
    final_loss: float
    lr_now: float
    peak_elements: int


def _leap_combined_update(theta, lam, grad, eta: float, r: float):
    """theta - r*lam - (2-r)*eta*grad, the shared arithmetic for both
    spellings of the combined leap update. Keeping one canonical expression
    is what makes the two entry points bitwise-identical; the expanded
    two-term spelling is algebraically equal but not floating-point equal."""
    return theta - r * lam - (2.0 - r) * eta * grad


def eq10_update(theta, lam, grad, eta: float, r: float):
    return _leap_combined_update(theta, lam, grad, eta, r)


def eq11_update(theta, lam, grad, eta: float, r: float):
    return _leap_combined_update(theta, lam, grad, eta, r)


def evaluate(backbone: Backbone, x: np.ndarray, y: np.ndarray, batch_size: int = 256) -> dict:
    """Argmax classification error over the full set; mutates nothing."""
    n = len(x)
    if n == 0:
        raise DataError("evaluate called on an empty dataset")
    preds = np.empty(n, dtype=np.int64)
    for at in range(0, n, batch_size):
        chunk = x[at:at + batch_size]
        logits = backbone.forward(Tensor(chunk), training=False).data
        preds[at:at + len(chunk)] = logits.argmax(axis=1)
    wrong = preds != y
    per_class = {}
    for c in np.unique(y):
        mask = y == c
        per_class[int(c)] = float((preds[mask] == c).mean())
    return {"test_error": float(wrong.mean()), "per_class_accuracy": per_class}


class Trainer:
    def __init__(self, backbone: Backbone, K: int, mode: TrainerMode,
                 opt_cfg: OptimizerConfig, seed: int):
        self.backbone = backbone
        self.mode = mode
        self.opt_cfg = opt_cfg
        self.seed = seed
        self.sizes, self.modules = partition(backbone, K)
        self.K = K
        classes = backbone.cfg.classes
        self.cascade_seed = opt_cfg.cascade_scale()

        self.heads = {}
        self.cascades = []
        self.pairs = {}
        local = mode.kind != "bp"
        if local and K > 1:
            self.heads = attach_independent_heads(self.modules, classes, seed)
        if mode.kind in ("mlm_only", "mlaan") and self.cascade_seed != 0.0:
            self.cascades = attach_cascade_groups(self.modules, mode.k, classes, seed)
        if mode.kind == "lam_only" and mode.p > 0:
            for m in self.modules[:-1]:
                avail = sum(len(mm.units) for mm in self.modules[m.index:])
                if avail:
                    self.pairs[m.index] = build_leap_replicas(
                        self.modules, m.index, min(mode.p, avail), mode.r)
        if mode.kind == "mlaan" and mode.p > 0:
            for group in self.cascades:
                s = group.last.index
                if s >= K:
                    continue
                avail = sum(len(mm.units) for mm in self.modules[s:])
                if avail:
                    group.pair = build_leap_replicas(
                        self.modules, s, min(mode.p, avail), mode.r)
                    self.pairs[s] = group.pair

        params = list(backbone.parameters())
        for j in sorted(self.heads):
            params += self.heads[j].parameters()
        for group in self.cascades:
            if group.head is not None:
                params += group.head.parameters()
        for j in sorted(self.pairs):
            params += self.pairs[j].parameters()
        self.all_params = params
        self.optimizer = SGDNesterov(params, opt_cfg)

        self.meter = ActivationMeter()
        self.shuffle_gen = named_stream(seed, "data/shuffle")
        self.step_index = 0
        self.total_steps = opt_cfg.total_steps
        self.last_accum_counts = {}

    # ------------------------------------------------------------------
    # single step
    # ------------------------------------------------------------------

    def step(self, bx: np.ndarray, by: np.ndarray, lr_now: float) -> StepReport:
        self.meter.begin_step()
        if self.mode.kind == "bp":
            return self._step_bp(bx, by, lr_now)
        return self._step_local(bx, by, lr_now)

    def _abort(self, kind: str, value: float):
        self.optimizer.zero_grad()
        raise TrainingDiverged(
            f"non-finite {kind} loss ({value}) at optimizer step {self.step_index}")

    def _step_bp(self, bx, by, lr_now) -> StepReport:
        with Graph("bp", meter=self.meter) as g:
            logits = self.backbone.forward(Tensor(bx), training=True)
            loss = ops.softmax_cross_entropy(logits, by)
            value = float(loss.data)
            if not np.isfinite(value):
                g.release()
                self._abort("global", value)
            g.backward(loss)
            g.release()
        self._snapshot_counters()
        self.optimizer.step(lr_now)
        return StepReport({}, {}, value, lr_now, self.meter.step_peak)

    def _step_local(self, bx, by, lr_now) -> StepReport:
        ind_losses = {}
        casc_losses = {}
        window_ending = {group.last.index: group for group in self.cascades}
        live = {}  # module index -> (body tape, features) while a window needs it
        h = bx
        try:
            for m in self.modules:
                j = m.index
                with Graph(f"module{j}", meter=self.meter) as body:
                    feats = m.forward_body(Tensor(h, requires_grad=bool(self.cascades)),
                                           training=True)
                live[j] = (body, feats)
                pair = self.pairs.get(j) if self.mode.kind == "lam_only" else None
                ind_losses[j], grad = self._supervise(
                    "module", j, feats, by, self.heads.get(j), pair, 1.0)
                body.backward(feats, grad)

                group = window_ending.get(j)
                if group is not None:
                    casc_losses[group.start], grad = self._supervise(
                        "cascade", group.start, feats, by, group.head, group.pair,
                        self.cascade_seed)
                    for i in range(j, group.start - 1, -1):
                        tape, out = live[i]
                        grad = tape.backward(out, grad)

                open_from = min((g.start for g in self.cascades if g.last.index > j),
                                default=j + 1)
                for i in [i for i in live if i < open_from]:
                    live.pop(i)[0].release()
                h = feats.data
        finally:
            for tape, _ in live.values():
                tape.release()

        self._snapshot_counters()
        self.optimizer.step(lr_now)
        for j in sorted(self.pairs):
            self.pairs[j].ema_step()
        return StepReport(ind_losses, casc_losses, ind_losses[self.K], lr_now,
                          self.meter.step_peak)

    def _supervise(self, kind: str, index: int, feats: Tensor, by, head, pair,
                   seed: float):
        """One supervision head on its own tape, reading a leaf copy of
        `feats`: the pathway's aux head (behind `pair`'s replicas when
        given), or the backbone's classifier when `head` is None. Backward
        its loss scaled by `seed`; return the loss and the gradient at
        `feats`, which the caller pushes through the body tapes."""
        with Graph(f"{kind}{index}", meter=self.meter,
                   section="main" if head is None else "aux") as g:
            try:
                x = Tensor(feats.data, requires_grad=True)
                if pair is not None:
                    x = pair.apply(x)
                logits = self.modules[-1].finish(x) if head is None else head(x)
                loss = ops.softmax_cross_entropy(logits, by)
                value = float(loss.data)
                if not np.isfinite(value):
                    self._abort(f"{kind} {index}", value)
                return value, g.backward(loss, seed)
            finally:
                g.release()

    def _snapshot_counters(self) -> None:
        self.last_accum_counts = {p.name: p.accum_count for p in self.all_params}

    def _resync_all(self) -> None:
        for j in sorted(self.pairs):
            resync_replicas(self.pairs[j])

    # ------------------------------------------------------------------
    # epoch loop
    # ------------------------------------------------------------------

    def fit(self, data, epochs: int, batch_size: int,
            recorder: Optional[MetricsRecorder] = None,
            start_epoch: int = 0, wall_offset: float = 0.0,
            on_epoch_end=None) -> MetricsRecorder:
        recorder = recorder if recorder is not None else MetricsRecorder()
        if epochs == 0:
            return recorder
        n = len(data.train_x)
        if n < 2:
            raise DataError("need at least 2 training samples")
        steps_per_epoch = max(1, n // batch_size)
        self.total_steps = epochs * steps_per_epoch
        t0 = time.perf_counter()
        diverged_streak = 0
        for epoch in range(start_epoch, epochs):
            if self.mode.sync_period == 0:
                self._resync_all()
            perm = self.shuffle_gen.permutation(n)
            losses = []
            peak = 0
            lr_now = self.opt_cfg.lr
            for b in range(steps_per_epoch):
                if (self.mode.sync_period > 0 and self.step_index > 0
                        and self.step_index % self.mode.sync_period == 0):
                    self._resync_all()
                idx = perm[b * batch_size:(b + 1) * batch_size]
                if len(idx) < 2:
                    idx = perm[:max(2, len(perm))]
                lr_now = cosine_annealing_lr(
                    self.step_index, self.opt_cfg.lr, self.opt_cfg.min_lr, self.total_steps)
                try:
                    report = self.step(data.train_x[idx], data.train_y[idx], lr_now)
                except TrainingDiverged:
                    diverged_streak += 1
                    if diverged_streak >= 3:
                        raise
                    continue
                finally:
                    self.step_index += 1
                diverged_streak = 0
                losses.append(report.final_loss)
                peak = max(peak, report.peak_elements)
            result = evaluate(self.backbone, data.test_x, data.test_y,
                              batch_size=max(batch_size, 256))
            recorder.append(epoch + 1,
                            float(np.mean(losses)) if losses else float("nan"),
                            result["test_error"], lr_now, peak,
                            wall_offset + (time.perf_counter() - t0))
            if on_epoch_end is not None:
                on_epoch_end(self, epoch, recorder)
        return recorder

    def evaluate(self, data) -> dict:
        return evaluate(self.backbone, data.test_x, data.test_y)
