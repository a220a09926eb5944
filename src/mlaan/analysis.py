"""Diagnostic instruments: activation-memory metering, linear probes,
linear CKA, and the metrics recorder behind metrics.csv."""

from __future__ import annotations

import csv
import os
from dataclasses import dataclass, field

import numpy as np

from . import ops
from .errors import ConfigError, DataError
from .layers import Linear
from .optim import OptimizerConfig, SGDNesterov, cosine_annealing_lr
from .rng import named_stream
from .tensor import Graph, Tensor, get_default_dtype

CSV_HEADER = ("epoch", "train_loss", "test_error", "lr", "peak_elements", "wall_time_s")


class ActivationMeter:
    """Counts activation scalars retained for backward, keyed by (pathway
    label, main|aux section); parameters are excluded at the recording site.
    A buffer held by several live tapes counts once, under the first tape's
    key, until the last of them releases it."""

    def __init__(self):
        self.begin_step()

    def hold(self, arr: np.ndarray, key) -> None:
        entry = self.holders.setdefault(id(arr), [key, 0])
        entry[1] += 1
        if entry[1] == 1:
            self.on_retain(arr.size, key)

    def drop(self, arr: np.ndarray) -> None:
        entry = self.holders[id(arr)]
        entry[1] -= 1
        if entry[1] == 0:
            del self.holders[id(arr)]
            self.on_release(arr.size, entry[0])

    def begin_step(self):
        self.holders = {}  # id of a held buffer -> [key, number of tapes holding it]
        self.current = {}
        self.current_total = 0
        self.section_current = {}
        self.step_peak = 0
        self.peak_by_key = {}
        self.section_peak = {}

    def on_retain(self, size: int, key) -> None:
        self.current[key] = self.current.get(key, 0) + size
        self.current_total += size
        sect = key[1]
        self.section_current[sect] = self.section_current.get(sect, 0) + size
        if self.current_total > self.step_peak:
            self.step_peak = self.current_total
        if self.current[key] > self.peak_by_key.get(key, 0):
            self.peak_by_key[key] = self.current[key]
        if self.section_current[sect] > self.section_peak.get(sect, 0):
            self.section_peak[sect] = self.section_current[sect]

    def on_release(self, size: int, key) -> None:
        self.current[key] = self.current.get(key, 0) - size
        self.current_total -= size
        self.section_current[key[1]] = self.section_current.get(key[1], 0) - size


@dataclass
class MemoryReport:
    mode: str
    peak_elements: int
    main_peak: int
    aux_peak: int
    per_module: dict
    bytes_estimate: int


def meter_peak_activations(trainer, bx: np.ndarray, by: np.ndarray,
                           lr_now: float = 0.0) -> MemoryReport:
    """Run one real training step under the trainer's meter and report the
    retention peaks. With the default lr_now=0 parameter values stay put,
    but batch-norm running statistics and EMA replicas do advance."""
    trainer.step(bx, by, lr_now)
    meter = trainer.meter
    per_module = {}
    for (label, _), peak in sorted(meter.peak_by_key.items()):
        per_module[label] = max(per_module.get(label, 0), peak)
    return MemoryReport(
        mode=trainer.mode.kind,
        peak_elements=meter.step_peak,
        main_peak=meter.section_peak.get("main", 0),
        aux_peak=meter.section_peak.get("aux", 0),
        per_module=per_module,
        bytes_estimate=meter.step_peak * get_default_dtype().itemsize)


# ---------------------------------------------------------------------------
# feature extraction and probes
# ---------------------------------------------------------------------------

def module_features(modules, x: np.ndarray, *, batch_size: int = 256) -> list:
    """Global-pooled eval-mode features of every module's body output, in
    module order. Each batch goes through the modules once."""
    outs = [[] for _ in modules]
    for at in range(0, len(x), batch_size):
        h = Tensor(x[at:at + batch_size])
        for m, out in zip(modules, outs):
            h = m.forward_body(h, training=False)
            out.append(ops.global_avg_pool(h).data)
    return [np.concatenate(out, axis=0) for out in outs]


def linear_probes(modules, layers, data, probe_epochs: int = 30,
                  probe_lr: float = 0.1, batch_size: int = 64, seed: int = 0) -> list:
    """Per module number in `layers` (1-based), a fresh linear classifier's test
    error on frozen, pooled features from one pass over modules[:max(layers)].
    Main-network parameters are read, never written."""
    for layer in layers:
        if not 1 <= layer <= len(modules):
            raise ConfigError(f"layer {layer} out of range 1..{len(modules)}")
    top = max(layers, default=0)
    train_all = module_features(modules[:top], data.train_x)
    test_all = module_features(modules[:top], data.test_x)
    classes = int(max(data.train_y.max(), data.test_y.max())) + 1
    results = []
    for layer in layers:
        train_f, test_f = train_all[layer - 1], test_all[layer - 1]
        probe = Linear(f"probe{layer}", train_f.shape[1], classes,
                       named_stream(seed, f"probe/init/{layer}"))
        n = len(train_f)
        steps_per_epoch = max(1, n // batch_size)
        total = probe_epochs * steps_per_epoch
        opt = SGDNesterov(probe.parameters(), OptimizerConfig(lr=probe_lr, total_steps=total))
        gen = named_stream(seed, f"probe/shuffle/{layer}")
        step = 0
        for _ in range(probe_epochs):
            perm = gen.permutation(n)
            for b in range(steps_per_epoch):
                idx = perm[b * batch_size:(b + 1) * batch_size]
                with Graph(f"probe{layer}") as g:
                    loss = ops.softmax_cross_entropy(probe(Tensor(train_f[idx])),
                                                     data.train_y[idx])
                    g.backward(loss)
                    g.release()
                opt.step(cosine_annealing_lr(step, probe_lr, 0.0, total))
                step += 1
        preds = probe(Tensor(test_f)).data.argmax(axis=1)
        results.append({"layer": layer, "value": float((preds != data.test_y).mean())})
    return results


def linear_probe(modules, layer: int, data, probe_epochs: int = 30,
                 probe_lr: float = 0.1, batch_size: int = 64, seed: int = 0) -> dict:
    """`linear_probes` for the one module `layer`."""
    return linear_probes(modules, [layer], data, probe_epochs, probe_lr, batch_size, seed)[0]


# ---------------------------------------------------------------------------
# CKA
# ---------------------------------------------------------------------------

def cka_linear(X: np.ndarray, Y: np.ndarray) -> float:
    """Linear centered kernel alignment between two feature matrices."""
    if X.ndim != 2 or Y.ndim != 2 or X.shape[0] != Y.shape[0]:
        raise DataError(f"cka_linear expects N×d matrices with equal N, got {X.shape}, {Y.shape}")
    if X.shape[0] < 2:
        raise DataError("cka_linear needs at least 2 samples")
    Xc = np.asarray(X, dtype=np.float64)
    Yc = np.asarray(Y, dtype=np.float64)
    Xc = Xc - Xc.mean(axis=0)
    Yc = Yc - Yc.mean(axis=0)
    cross = np.linalg.norm(Yc.T @ Xc) ** 2
    denom = np.linalg.norm(Xc.T @ Xc) * np.linalg.norm(Yc.T @ Yc)
    if denom == 0.0:
        raise DataError("cka_linear undefined for zero-variance features")
    return float(cross / denom)


def layerwise_cka(modules_a, modules_b, x: np.ndarray):
    """Per-module CKA between two same-architecture networks on one batch.
    Returns ([{layer, value}, ...], mean)."""
    if len(modules_a) != len(modules_b):
        raise ConfigError(
            f"architecture mismatch: {len(modules_a)} vs {len(modules_b)} modules")
    results = []
    pairs = zip(module_features(modules_a, x), module_features(modules_b, x))
    for layer, (fa, fb) in enumerate(pairs, start=1):
        if fa.shape != fb.shape:
            raise ConfigError(f"architecture mismatch at layer {layer}: "
                              f"{fa.shape} vs {fb.shape}")
        results.append({"layer": layer, "value": cka_linear(fa, fb)})
    mean = float(np.mean([r["value"] for r in results]))
    return results, mean


# ---------------------------------------------------------------------------
# metrics
# ---------------------------------------------------------------------------

@dataclass
class MetricsRecorder:
    rows: list = field(default_factory=list)

    def append(self, epoch: int, train_loss: float, test_error: float,
               lr: float, peak_elements: int, wall_time_s: float) -> None:
        self.rows.append({"epoch": int(epoch), "train_loss": float(train_loss),
                          "test_error": float(test_error), "lr": float(lr),
                          "peak_elements": int(peak_elements),
                          "wall_time_s": float(wall_time_s)})

    def to_csv(self, path: str) -> None:
        os.makedirs(os.path.dirname(os.path.abspath(path)), exist_ok=True)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(CSV_HEADER)
            for r in self.rows:
                writer.writerow([r["epoch"], repr(r["train_loss"]), repr(r["test_error"]),
                                 repr(r["lr"]), r["peak_elements"], repr(r["wall_time_s"])])

    @classmethod
    def from_csv(cls, path: str) -> "MetricsRecorder":
        rec = cls()
        with open(path, newline="") as fh:
            reader = csv.reader(fh)
            header = tuple(next(reader))
            if header != CSV_HEADER:
                raise DataError(f"unexpected metrics header: {header}")
            for row in reader:
                rec.append(int(row[0]), float(row[1]), float(row[2]),
                           float(row[3]), int(row[4]), float(row[5]))
        return rec

    def comparable_rows(self):
        """Rows with the wall-time column dropped (it never reproduces)."""
        return [{k: v for k, v in r.items() if k != "wall_time_s"} for r in self.rows]
