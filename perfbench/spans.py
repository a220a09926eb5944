"""Spans around the public functions of each mlaan layer, and the per-layer
metrics computed from them.

The wrappers live here, in the benchmark, not in the program: `install`
replaces module attributes and class methods of an imported `mlaan` with
timing wrappers. Spans (name, start, end, parent) are kept in memory and
written out when the run ends; self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import os
import time

perf = time.perf_counter

# every op but conv2d, which has a wrapper of its own that also counts flops
OPS = ("matmul", "bias_add", "relu", "residual_add", "sum_all",
       "batchnorm2d_train", "batchnorm2d_eval", "global_avg_pool",
       "softmax_cross_entropy", "detach")
BATCHNORM_OPS = ("batchnorm2d_train", "batchnorm2d_eval", "batchnorm2d")

# (name, unit) of every per-layer metric, in the order they are printed
PER_LAYER = (
    ("ops.conv2d.calls", "count"), ("ops.conv2d.fwd_ms", "ms"),
    ("ops.conv2d.bwd_ms", "ms"), ("ops.conv2d.gflop", "gflop"),
    ("ops.conv2d.gflop_per_s", "gflop/s"), ("ops.batchnorm2d.fwd_ms", "ms"),
    ("ops.batchnorm2d.bwd_ms", "ms"), ("ops.other.fwd_ms", "ms"),
    ("ops.other.bwd_ms", "ms"),
    ("tensor.nodes", "count"), ("tensor.record_ms", "ms"),
    ("tensor.backward_calls", "count"), ("tensor.backward_self_ms", "ms"),
    ("network.module_fwd_ms", "ms"), ("network.cascade_fwd_ms", "ms"),
    ("network.cascade_conv_calls", "count"), ("network.leap_apply_ms", "ms"),
    ("network.ema_step_ms", "ms"), ("network.resync_ms", "ms"),
    ("training.module_path_ms", "ms"), ("training.cascade_path_ms", "ms"),
    ("training.evaluate_ms", "ms"),
    ("optim.step_ms", "ms"),
    ("analysis.meter_events", "count"), ("analysis.module_forwards", "count"),
    ("analysis.module_features_ms", "ms"), ("analysis.probe_fit_ms", "ms"),
    ("analysis.cka_linear_ms", "ms"),
    ("checkpoint.save_ms", "ms"), ("checkpoint.bytes", "bytes"),
    ("checkpoint.load_ms", "ms"), ("checkpoint.restore_ms", "ms"),
    ("data.build_ms", "ms"), ("config.load_ms", "ms"),
    ("cli.build_trainer_ms", "ms"),
)

SETUP_SPANS = ("data.build", "config.load", "cli.build_trainer")


class Tracer:
    """In-memory span recorder. Spans are parallel lists indexed by span id;
    a span's parent is the innermost span open when it started (-1: none).
    `only`, when set, limits recording to the named spans."""

    def __init__(self):
        self.names, self.starts, self.ends, self.parents = [], [], [], []
        self.flops = {}      # span id -> conv2d flops charged to that span
        self.saved_bytes = []
        self.meter_events = 0
        self.stack = []
        self.active = False
        self.only = None

    def begin(self, name: str) -> int:
        sid = len(self.names)
        self.names.append(name)
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.stack.append(sid)
        self.starts.append(perf())
        return sid

    def end(self, sid: int) -> None:
        self.ends[sid] = perf()
        popped = self.stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {self.names[sid]!r} closed out of order")

    def wanted(self, name: str) -> bool:
        return self.active and (self.only is None or name in self.only)

    def wrap(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.wanted(name):
                return fn(*args, **kwargs)
            sid = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(sid)
        return traced

    def mark(self) -> int:
        """Span id the next span will get; marks a phase boundary."""
        return len(self.names)

    def write(self, path: str) -> None:
        """One tab-separated line per span: id, name, start, end, parent."""
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            fh.write("id\tname\tstart_s\tend_s\tparent\n")
            for sid, (n, s, e, p) in enumerate(zip(self.names, self.starts,
                                                   self.ends, self.parents)):
                fh.write(f"{sid}\t{n}\t{s!r}\t{e!r}\t{p}\n")


def _conv_flops(out_shape, w_shape) -> int:
    n, f, ho, wo = out_shape
    _, c, kh, kw = w_shape
    return 2 * n * ho * wo * f * c * kh * kw


def install(tracer: Tracer, mlaan) -> None:
    """Wrap the public functions of every mlaan layer with spans."""
    ops, tensor, network = mlaan.ops, mlaan.tensor, mlaan.network
    training, analysis, checkpoint = mlaan.training, mlaan.analysis, mlaan.checkpoint
    cli, optim = mlaan.cli, mlaan.optim

    for name in OPS:
        setattr(ops, name, tracer.wrap(f"op:{name}", getattr(ops, name)))
    conv = ops.conv2d

    @functools.wraps(conv)
    def conv2d(x, w, *args, **kwargs):
        if not tracer.wanted("op:conv2d"):
            return conv(x, w, *args, **kwargs)
        sid = tracer.begin("op:conv2d")
        try:
            out = conv(x, w, *args, **kwargs)
        finally:
            tracer.end(sid)
        tracer.flops[sid] = _conv_flops(out.data.shape, w.data.shape)
        return out
    ops.conv2d = conv2d

    Graph = tensor.Graph
    record = Graph.record

    def traced_record(self, op, inputs, output, backward_fn, cache_arrays=()):
        if not tracer.wanted("tensor.record"):
            return record(self, op, inputs, output, backward_fn, cache_arrays)
        name = f"bwd:{op}"
        # a conv backward is two GEMMs (dx, dw), each the size of the forward
        flops = 2 * _conv_flops(output.data.shape, inputs[1].data.shape) if op == "conv2d" else 0

        def bwd(g):
            sid = tracer.begin(name)
            try:
                return backward_fn(g)
            finally:
                tracer.end(sid)
                if flops:
                    tracer.flops[sid] = flops
        sid = tracer.begin("tensor.record")
        try:
            return record(self, op, inputs, output, bwd, cache_arrays)
        finally:
            tracer.end(sid)
    Graph.record = traced_record
    Graph.backward = tracer.wrap("tensor.backward", Graph.backward)

    enter, exit_ = Graph.__enter__, Graph.__exit__

    def traced_enter(self):
        self._bench_span = tracer.begin(f"graph:{self.label}") if tracer.wanted("graph") else None
        return enter(self)

    def traced_exit(self, *exc):
        try:
            return exit_(self, *exc)
        finally:
            if self._bench_span is not None:
                tracer.end(self._bench_span)
    Graph.__enter__, Graph.__exit__ = traced_enter, traced_exit

    meter = analysis.ActivationMeter
    for method in ("on_retain", "on_release"):
        inner = getattr(meter, method)

        def counted(self, size, key, _inner=inner):
            if tracer.wanted("meter"):
                tracer.meter_events += 1
            return _inner(self, size, key)
        setattr(meter, method, counted)

    network.LocalModule.forward_body = tracer.wrap(
        "network.forward_body", network.LocalModule.forward_body)
    network.LeapReplicaPair.apply = tracer.wrap(
        "network.leap_apply", network.LeapReplicaPair.apply)
    network.LeapReplicaPair.ema_step = tracer.wrap(
        "network.ema_step", network.LeapReplicaPair.ema_step)
    training.resync_replicas = tracer.wrap("network.resync", training.resync_replicas)
    optim.SGDNesterov.step = tracer.wrap("optim.step", optim.SGDNesterov.step)

    evaluate = tracer.wrap("training.evaluate", training.evaluate)
    training.evaluate = cli.evaluate_network = evaluate

    save = checkpoint.save_checkpoint

    def traced_save(path, *args, **kwargs):
        if not tracer.wanted("checkpoint.save"):
            return save(path, *args, **kwargs)
        sid = tracer.begin("checkpoint.save")
        try:
            save(path, *args, **kwargs)
        finally:
            tracer.end(sid)
        tracer.saved_bytes.append(os.path.getsize(path) + os.path.getsize(path + ".json"))
    checkpoint.save_checkpoint = traced_save
    checkpoint.load_checkpoint = tracer.wrap("checkpoint.load", checkpoint.load_checkpoint)
    checkpoint.restore_into = tracer.wrap("checkpoint.restore", checkpoint.restore_into)

    analysis.module_features = tracer.wrap("analysis.module_features",
                                           analysis.module_features)
    probe = tracer.wrap("analysis.linear_probe", analysis.linear_probe)
    analysis.linear_probe = cli.linear_probe = probe
    analysis.cka_linear = tracer.wrap("analysis.cka_linear", analysis.cka_linear)

    cli.build_dataset = tracer.wrap("data.build", cli.build_dataset)
    cli.load_config = tracer.wrap("config.load", cli.load_config)
    cli.build_trainer = tracer.wrap("cli.build_trainer", cli.build_trainer)


def _kind(name: str, inside: int) -> str:
    """The bucket a span is summed into; `inside` holds its ancestors' flags."""
    if name.startswith(("op:", "bwd:")):
        phase, op = name.split(":", 1)
        group = "conv2d" if op == "conv2d" else "batchnorm2d" if op in BATCHNORM_OPS else "other"
        return f"{phase}:{group}"
    if name == "network.forward_body":
        return "body:cascade" if inside & CASCADE else "body:module"
    if name.startswith("graph:"):
        for label in ("cascade", "module"):
            if name.startswith(f"graph:{label}"):
                return f"graph:{label}"
        return "graph:other"
    return name


STEP, CASCADE, BODY, FEATURES, PROBE = 1, 2, 4, 8, 16
_FLAG_OF = {"training.step": STEP, "network.forward_body": BODY,
            "analysis.module_features": FEATURES, "analysis.linear_probe": PROBE}


def per_layer_metrics(tracer: Tracer, setup: range, window: range,
                      per: int, step_scoped: bool) -> dict:
    """Per-layer metrics from the spans of one run.

    Window spans are summed and divided by `per` (steps on desk-mlaan, CLI
    commands on analyze). With `step_scoped`, the ops and
    tensor metrics count only spans inside a `training.step`, so evaluation
    work is charged to `training.evaluate_ms` alone. The set-up metrics
    (data, config, cli) are means per call over the set-up spans.
    """
    names, parents = tracer.names, tracer.parents
    dur = [e - s for s, e in zip(tracer.starts, tracer.ends)]
    child = {}
    for sid in window:
        p = parents[sid]
        if p >= 0:
            child[p] = child.get(p, 0.0) + dur[sid]

    flags = {}
    incl, own, calls = {}, {}, {}
    gflop = cascade_convs = module_forwards = 0
    probe_features_s = 0.0
    for sid in window:
        name = names[sid]
        inside = flags.get(parents[sid], 0)
        flag = _FLAG_OF.get(name, CASCADE if name.startswith("graph:cascade") else 0)
        flags[sid] = inside | flag
        if step_scoped and name.startswith(("op:", "bwd:", "tensor.")) and not inside & STEP:
            continue
        kind = _kind(name, inside)
        incl[kind] = incl.get(kind, 0.0) + dur[sid]
        own[kind] = own.get(kind, 0.0) + dur[sid] - child.get(sid, 0.0)
        calls[kind] = calls.get(kind, 0) + 1
        gflop += tracer.flops.get(sid, 0) / 1e9
        if name == "op:conv2d" and inside & CASCADE and inside & BODY:
            cascade_convs += 1
        elif name == "network.forward_body" and inside & FEATURES:
            module_forwards += 1
        elif name == "analysis.module_features" and inside & PROBE:
            probe_features_s += dur[sid]

    def ms(table, kind):
        return table.get(kind, 0.0) * 1e3 / per

    conv_s = own.get("op:conv2d", 0.0) + own.get("bwd:conv2d", 0.0)
    setup_ms = {}
    for sid in setup:
        if names[sid] in SETUP_SPANS:
            setup_ms.setdefault(names[sid], []).append(dur[sid] * 1e3)

    def per_call(name):
        vals = setup_ms.get(name, [])
        return sum(vals) / len(vals) if vals else 0.0

    saves = tracer.saved_bytes
    return {
        "ops.conv2d.calls": calls.get("op:conv2d", 0) / per,
        "ops.conv2d.fwd_ms": ms(own, "op:conv2d"),
        "ops.conv2d.bwd_ms": ms(own, "bwd:conv2d"),
        "ops.conv2d.gflop": gflop / per,
        "ops.conv2d.gflop_per_s": gflop / conv_s if conv_s else 0.0,
        "ops.batchnorm2d.fwd_ms": ms(own, "op:batchnorm2d"),
        "ops.batchnorm2d.bwd_ms": ms(own, "bwd:batchnorm2d"),
        "ops.other.fwd_ms": ms(own, "op:other"),
        "ops.other.bwd_ms": ms(own, "bwd:other"),
        "tensor.nodes": calls.get("tensor.record", 0) / per,
        "tensor.record_ms": ms(own, "tensor.record"),
        "tensor.backward_calls": calls.get("tensor.backward", 0) / per,
        "tensor.backward_self_ms": ms(own, "tensor.backward"),
        "network.module_fwd_ms": ms(incl, "body:module"),
        "network.cascade_fwd_ms": ms(incl, "body:cascade"),
        "network.cascade_conv_calls": cascade_convs / per,
        "network.leap_apply_ms": ms(incl, "network.leap_apply"),
        "network.ema_step_ms": ms(incl, "network.ema_step"),
        "network.resync_ms": ms(incl, "network.resync"),
        "training.module_path_ms": ms(incl, "graph:module"),
        "training.cascade_path_ms": ms(incl, "graph:cascade"),
        "training.evaluate_ms": ms(incl, "training.evaluate"),
        "optim.step_ms": ms(incl, "optim.step"),
        "analysis.meter_events": tracer.meter_events / per,
        "analysis.module_forwards": module_forwards / per,
        "analysis.module_features_ms": ms(incl, "analysis.module_features"),
        "analysis.probe_fit_ms": ms(incl, "analysis.linear_probe") - probe_features_s * 1e3 / per,
        "analysis.cka_linear_ms": ms(incl, "analysis.cka_linear"),
        "checkpoint.save_ms": ms(incl, "checkpoint.save"),
        "checkpoint.bytes": sum(saves) / len(saves) if saves else 0.0,
        "checkpoint.load_ms": ms(incl, "checkpoint.load"),
        "checkpoint.restore_ms": ms(incl, "checkpoint.restore"),
        "data.build_ms": per_call("data.build"),
        "config.load_ms": per_call("config.load"),
        "cli.build_trainer_ms": per_call("cli.build_trainer"),
    }
