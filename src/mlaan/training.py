"""The five training rules: end-to-end BP, greedy local, multilaminar,
leap-augmented, and the full combined method, plus the epoch loop and
evaluation.

Every rule is a set of supervision signals (`Signal`): one loss on one
module's output, trained into the modules the signal lists and no further.
Greedy local gives each module a head, a cascade window gives one head to k
modules, and BP is one signal, the classifier over all K modules. One step
serves every rule: it forwards each module once, on its own tape, from a
leaf copy of the previous module's output; each signal runs on its own tape
over a leaf copy of the features it reads, and its gradient there is pushed
back through the body tapes of the modules it trains. A body tape lives
while a signal covering it is still to run: at most k tapes at once, or all
K for BP.

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
from .errors import ConfigError, DataError, TrainingDiverged, check_types
from .layers import AuxHead
from .network import (Backbone, LeapReplicaPair, build_leap_replicas, check_partition,
                      partition, resync_replicas)
from .optim import OptimizerConfig, SGDNesterov, cosine_annealing_lr
from .rng import named_stream
from .tensor import Graph, Tensor

MODES = ("bp", "greedy_local", "mlm_only", "lam_only", "mlaan")
CASCADE_MODES = ("mlm_only", "mlaan")
MLAAN_RULES = ("ema_teacher",)


@dataclass
class TrainerMode:
    """The config's `trainer` section: the training rule and its settings."""
    mode: str = "mlaan"
    k: int = 3
    p: int = 2
    r: float = 0.99
    mlaan_rule: str = "ema_teacher"
    sync_period: int = 0  # 0: every epoch, -1: never, n>0: every n optimizer steps

    def __post_init__(self):
        check_types("trainer", self)
        if self.mode not in MODES:
            raise ConfigError(f"trainer.mode must be one of {MODES}, got {self.mode!r}")
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
    peak_elements: int


@dataclass
class Signal:
    """One supervision signal: a loss on the output of the last of `members`, read
    by `head` (the classifier when None) behind `pair`'s replicas, its backward
    seeded with `seed` and trained into `members` and no further."""
    kind: str  # "module", "cascade" or "bp"
    members: list
    head: Optional[AuxHead] = None
    pair: Optional[LeapReplicaPair] = None
    seed: float = 1.0

    @property
    def start(self) -> int:
        return self.members[0].index

    @property
    def last(self):
        return self.members[-1]

    @property
    def label(self) -> str:
        return "bp" if self.kind == "bp" else f"{self.kind}{self.start}"


def eq10_update(theta, lam, grad, eta: float, r: float):
    """The paper's combined leap update, theta - r*lam - (2-r)*eta*grad, under
    both its equation names (Eq. 10 and Eq. 11). No training path calls it: the
    trainer moves the phi'' twins by the plain EMA in `LeapReplicaPair.ema_step`."""
    return theta - r * lam - (2.0 - r) * eta * grad


eq11_update = eq10_update


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
        _, self.modules = partition(backbone, K)
        self.K = K
        self.cascade_seed = opt_cfg.cascade_scale()
        mods, cfg = self.modules, backbone.cfg

        def head(name, stream):
            return AuxHead(name, cfg.width, cfg.classes, named_stream(seed, stream))

        if mode.mode == "bp":
            signals = [Signal("bp", mods)]
        else:  # module K's signal reads the classifier
            signals = [Signal("module", [m], head(f"head{j}", f"init/head/{j}") if j < K else None)
                       for j, m in enumerate(mods, start=1)]
        if mode.mode in CASCADE_MODES and self.cascade_seed:
            k = mode.k
            check_partition(len(backbone.units), K, k)
            signals += [Signal("cascade", mods[s - 1:s - 1 + k],
                               head(f"cascade{s}", f"init/cascade/{s}") if s + k - 1 < K else None,
                               seed=self.cascade_seed) for s in range(1, K - k + 2)]
        leap_kind = {"lam_only": "module", "mlaan": "cascade"}.get(mode.mode) if mode.p else None
        for sig in signals:
            j = sig.last.index
            if sig.kind == leap_kind and j < K:  # p is capped by the units after module j
                p = min(mode.p, sum(len(m.units) for m in mods[j:]))
                sig.pair = build_leap_replicas(mods, j, p, mode.r)

        # views of the one list; plan maps module j to the signals that read its output
        self.plan = {m.index: [sig for sig in signals if sig.last is m] for m in mods}
        self.heads = {sig.start: sig.head for sig in signals
                      if sig.kind == "module" and sig.head is not None}
        self.cascades = [sig for sig in signals if sig.kind == "cascade"]
        self.pairs = {sig.last.index: sig.pair for sig in signals if sig.pair is not None}
        params = list(backbone.parameters())
        for sig in signals:
            if sig.head is not None:
                params += sig.head.parameters()
        for pair in self.pairs.values():
            params += pair.parameters()
        self.all_params = params
        self.optimizer = SGDNesterov(params, opt_cfg)

        self.meter = ActivationMeter()
        self.shuffle_gen = named_stream(seed, "data/shuffle")
        self.step_index = 0
        self.last_accum_counts = {}
        self.skipped_steps = []  # (step index, message) of each diverged step fit skipped

    # ------------------------------------------------------------------
    # single step
    # ------------------------------------------------------------------

    def step(self, bx: np.ndarray, by: np.ndarray, lr_now: float) -> StepReport:
        self.meter.begin_step()
        # restored if the step diverges: its forwards may have folded NaN batch statistics in
        saved = [(bn, bn.running_mean.copy(), bn.running_var.copy(), bn.initialized)
                 for bn in self.backbone.batchnorms()]
        losses = {"module": {}, "cascade": {}, "bp": {}}
        live = {}  # module index -> (body tape, features) while a signal needs it
        h = bx
        try:
            for j, m in enumerate(self.modules, start=1):
                todo = [sig for e in range(j, self.K + 1) for sig in self.plan[e]]
                first = min(sig.start for sig in todo)
                for i in [i for i in live if i < first]:
                    live.pop(i)[0].release()
                # the narrowest signal over module j names its tape
                owner = max((sig for sig in todo if sig.start <= j), key=lambda sig: sig.start)
                with Graph(owner.label, meter=self.meter) as body:
                    feats = m.forward_body(Tensor(h, requires_grad=first < j), training=True)
                live[j] = (body, feats)
                for sig in self.plan[j]:
                    losses[sig.kind][sig.start], grad = self._supervise(sig, feats, by)
                    for member in reversed(sig.members):
                        tape, out = live[member.index]
                        grad = tape.backward(out, grad)
                h = feats.data
        except TrainingDiverged:
            for bn, mean, var, initialized in saved:
                bn.running_mean[...] = mean
                bn.running_var[...] = var
                bn.initialized = initialized
            self.optimizer.zero_grad()
            raise
        finally:
            for tape, _ in live.values():
                tape.release()

        self.last_accum_counts = {p.name: p.accum_count for p in self.all_params}
        self.optimizer.step(lr_now)
        for pair in self.pairs.values():
            pair.ema_step()
        final = self.plan[self.K][0]
        return StepReport(losses["module"], losses["cascade"],
                          losses[final.kind][final.start], self.meter.step_peak)

    def _supervise(self, sig: Signal, feats: Tensor, by):
        """Run `sig` on its own tape over a leaf copy of `feats`; backward its loss
        scaled by its seed; return the loss and the gradient at `feats`."""
        with Graph(sig.label, meter=self.meter,
                   section="main" if sig.head is None else "aux") as g:
            try:
                x = Tensor(feats.data, requires_grad=True)
                if sig.pair is not None:
                    x = sig.pair.apply(x)
                logits = sig.last.finish(x) if sig.head is None else sig.head(x)
                loss = ops.softmax_cross_entropy(logits, by)
                value = float(loss.data)
                if not np.isfinite(value):
                    raise TrainingDiverged(f"non-finite {sig.label} loss ({value}) "
                                           f"at optimizer step {self.step_index}")
                return value, g.backward(loss, sig.seed)
            finally:
                g.release()

    def _resync_all(self) -> None:
        for pair in self.pairs.values():
            resync_replicas(pair)

    # ------------------------------------------------------------------
    # epoch loop
    # ------------------------------------------------------------------

    def fit(self, data, epochs: int, batch_size: int,
            recorder: Optional[MetricsRecorder] = None,
            start_epoch: int = 0, on_epoch_end=None) -> MetricsRecorder:
        recorder = recorder if recorder is not None else MetricsRecorder()
        if epochs == 0:
            return recorder
        if batch_size < 2:
            raise ConfigError(f"batch_size must be >= 2, got {batch_size}")
        n = len(data.train_x)
        if n < 2:
            raise DataError("need at least 2 training samples")
        steps_per_epoch = max(1, n // batch_size)
        total_steps = epochs * steps_per_epoch
        wall_offset = recorder.rows[-1]["wall_time_s"] if recorder.rows else 0.0
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
                lr_now = cosine_annealing_lr(
                    self.step_index, self.opt_cfg.lr, self.opt_cfg.min_lr, total_steps)
                try:
                    report = self.step(data.train_x[idx], data.train_y[idx], lr_now)
                except TrainingDiverged as exc:
                    diverged_streak += 1
                    if diverged_streak >= 3:
                        raise
                    self.skipped_steps.append((self.step_index, str(exc)))
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
