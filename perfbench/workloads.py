"""The workloads: their inputs, their rounds of CLI commands, the
measurement loop and the checks each run performs.

A workload's inputs are a JSON config made from the seed; the program
builds its synthetic data from the config's `run.seed`. Every run does
whole rounds of the same commands until `--seconds` have passed, so the
share of failed operations never depends on the run length.
"""

from __future__ import annotations

import collections
import contextlib
import copy
import csv
import json
import os
import resource
import statistics
import subprocess
import sys
import time

import numpy as np

import checks
import spans

perf = time.perf_counter

# (name, unit) of every end-to-end metric; each workload reports all of them
END_TO_END = (("setup_s", "s"), ("step_ms.p50", "ms"), ("round_s", "s"),
              ("peak_act_elements", "elements"), ("peak_rss_mb", "MiB"))

TRAIN_SETUP_REPS = 7
# the same set-up takes 4.6 ms in one process and 6.7 ms in the next, so
# desk-mlaan's setup_s averages over fresh processes
SETUP_WORKERS = 8
ANALYZE_SETUP_REPS = 3


# ---------------------------------------------------------------------------
# inputs
# ---------------------------------------------------------------------------

def _config(seed, *, mode, depth, width, shape, K, batch, epochs, n_per_class,
            lr, lr_cascaded=None, p=0):
    return {
        "backbone": {"depth": depth, "width": width, "classes": 10, "input_shape": list(shape)},
        "partition": {"K": K},
        "trainer": {"mode": mode, "k": 3, "p": p, "r": 0.99,
                    "mlaan_rule": "ema_teacher", "sync_period": 0},
        "optimizer": {"lr": lr, "min_lr": 0.0, "lr_cascaded": lr_cascaded,
                      "momentum": 0.9, "weight_decay": 1e-4},
        "run": {"epochs": epochs, "batch_size": batch, "seed": seed, "precision": "float32"},
        "dataset": {"kind": "synthetic", "subset_size": n_per_class, "noise_scale": 0.35},
    }


def desk_mlaan_config(seed):
    # the desk shape, in mlaan mode with leap replicas (p=2) switched on
    return _config(seed, mode="mlaan", depth=18, width=8, shape=(1, 12, 12), K=8,
                   batch=16, epochs=2, n_per_class=32, lr=0.05, lr_cascaded=0.0125, p=2)


def analyze_configs(seed):
    # two short runs at the desk shape; 64 images per class makes 510
    # training and 130 test images: two feature batches of at most 256
    # images from the training split and one from the test split
    common = dict(depth=18, width=8, shape=(1, 12, 12), K=8, batch=64, epochs=1,
                  n_per_class=64, lr=0.05)
    return (_config(seed, mode="greedy_local", **common),
            _config(seed, mode="bp", **common))


# ---------------------------------------------------------------------------
# probes around the program's public entry points
# ---------------------------------------------------------------------------

class Probe:
    """Times and counts `Trainer.step` calls, runs the per-step checks and
    remembers the last two trainers `build_trainer` returned. Only steps
    taken while `counting` is on are operations of the run."""

    def __init__(self, mlaan, tracer, cfg=None, time_eval_forward=False):
        self.mlaan = mlaan
        self.tracer = tracer
        self.cfg = cfg
        self.counting = False
        self.attempted = self.failed = 0
        self.step_s = []
        self.forward_s = []
        self.trainers = collections.deque(maxlen=2)   # the latest built
        self.problems = []
        self._wrap_step()
        self._wrap_build_trainer()
        if time_eval_forward:
            self._wrap_eval_forward()

    def _wrap_step(self):
        mlaan, tracer, probe = self.mlaan, self.tracer, self
        Trainer = mlaan.training.Trainer
        step = Trainer.step

        def timed_step(trainer, bx, by, lr_now):
            if not probe.counting:
                return step(trainer, bx, by, lr_now)
            twins = probe._twins(trainer)
            before = [d.data.copy() for _, d in twins]
            sid = tracer.begin("training.step") if tracer.wanted("training.step") else None
            t0 = perf()
            try:
                report = step(trainer, bx, by, lr_now)
            except mlaan.TrainingDiverged:
                probe.failed += 1
                raise
            finally:
                dt = perf() - t0
                if sid is not None:
                    tracer.end(sid)
                probe.attempted += 1
            probe.step_s.append(dt)
            probe._check_step(trainer, twins, before)
            return report
        Trainer.step = timed_step

    def _wrap_build_trainer(self):
        cli, probe = self.mlaan.cli, self
        build = cli.build_trainer

        def remembered(cfg):
            trainer = build(cfg)
            probe.trainers.append(trainer)
            return trainer
        cli.build_trainer = remembered

    def _wrap_eval_forward(self):
        Backbone, probe = self.mlaan.network.Backbone, self
        forward = Backbone.forward

        def timed_forward(net, x, training, update_stats=True):
            if training or not probe.counting:
                return forward(net, x, training, update_stats)
            t0 = perf()
            out = forward(net, x, training, update_stats)
            probe.forward_s.append(perf() - t0)
            return out
        Backbone.forward = timed_forward

    @staticmethod
    def _twins(trainer):
        """(phi', phi'') parameter pairs of every leap replica pair."""
        out = []
        for j in sorted(trainer.pairs):
            pair = trainer.pairs[j]
            for prime, double in zip(pair.phi_prime, pair.phi_double):
                out += zip(prime.parameters(), double.parameters())
        return out

    def _check_step(self, trainer, twins, before):
        cfg = self.cfg
        names = [[p.name for p in m.parameters()] for m in trainer.modules]
        for reason in (checks.check_accum_counts(trainer.last_accum_counts, names, cfg),
                       checks.check_ema(before, [d.data for _, d in twins],
                                        [p.data for p, _ in twins], cfg["trainer"]["r"])):
            if reason is not None and reason not in self.problems:
                self.problems.append(reason)


# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------

def setup_once(cli, cfg_path):
    """The program's set-up: config load, dataset build, build_trainer.
    Returns (seconds, dataset)."""
    t0 = perf()
    c = cli.load_config(cfg_path)
    data = cli.build_dataset(c)
    cli.build_trainer(c)
    return perf() - t0, data


def setup_in_fresh_processes(cfg_path):
    """Mean over SETUP_WORKERS fresh processes, one after another, of each
    one's median set-up time. Each worker is a plain child process that is
    waited for (and killed on timeout) before the next starts."""
    worker = os.path.join(os.path.dirname(os.path.abspath(__file__)), "setup_worker.py")
    medians = []
    for _ in range(SETUP_WORKERS):
        proc = subprocess.run([sys.executable, worker, cfg_path, str(TRAIN_SETUP_REPS)],
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up worker ended with {proc.returncode}: "
                               f"{proc.stderr.strip()[-500:]}")
        medians.append(statistics.median(json.loads(proc.stdout.strip().splitlines()[-1])))
    return statistics.mean(medians)


def run_cli(mlaan, argv, log):
    """One CLI command, its chatter sent to the run's log. Returns
    (exit code, seconds)."""
    t0 = perf()
    with contextlib.redirect_stdout(log), contextlib.redirect_stderr(log):
        rc = mlaan.cli.main(argv)
    return rc, perf() - t0


def write_json(path, payload):
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=1)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


def read_metrics(path):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    return [{"train_loss": float(r["train_loss"]), "peak_elements": int(r["peak_elements"])}
            for r in rows]


def median_ms(seconds):
    return statistics.median(seconds) * 1e3


def p90_ms(seconds):
    return statistics.quantiles(seconds, n=10)[-1] * 1e3


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def eval_logits(mlaan, backbone, x, chunk):
    Tensor = mlaan.tensor.Tensor
    return np.concatenate([backbone.forward(Tensor(x[at:at + chunk]), training=False).data
                           for at in range(0, len(x), chunk)])


def count_conv_calls(mlaan, fn):
    """Calls fn() and returns how many times it called ops.conv2d."""
    ops = mlaan.ops
    inner, n = ops.conv2d, [0]

    def counted(*args, **kwargs):
        n[0] += 1
        return inner(*args, **kwargs)
    ops.conv2d = counted
    try:
        fn()
    finally:
        ops.conv2d = inner
    return n[0]


# Two step sizes: a ReLU input lying within one step of zero bends a
# central difference; one seed in forty met such a kink at 1e-6, where
# 1e-8 still agreed with autodiff to 1e-8.
FD_STEPS = (1e-6, 1e-8)


def fd_check(mlaan, cfg_dict, data, seed):
    """Central differences in float64 against autodiff, on sampled entries
    of three parameters of one pathway: module 1 and its head."""
    ops, Graph, Tensor = mlaan.ops, mlaan.Graph, mlaan.Tensor
    d = copy.deepcopy(cfg_dict)
    d["run"]["precision"] = "float64"
    trainer = mlaan.cli.build_trainer(mlaan.config.config_from_dict(d))
    try:
        x = Tensor(data.train_x[:4].astype(np.float64))
        y = data.train_y[:4]
        module, head = trainer.modules[0], trainer.heads[1]
        params = [module.stem[0].w, module.units[0].bn.gamma, head.fc.w]

        def loss():
            return ops.softmax_cross_entropy(head(module.forward_body(x, True, False)), y)
        for p in params:
            p.zero_grad()
        with Graph("finite_diff") as g:
            g.backward(loss())
            g.release()
        gen = np.random.default_rng(seed)
        auto, numeric = [], []
        for p in params:
            flat = p.data.reshape(-1)
            for i in gen.choice(flat.size, size=min(4, flat.size), replace=False):
                auto.append(p.grad.reshape(-1)[i])
                numeric.append([])
                for eps in FD_STEPS:
                    saved = flat[i]
                    flat[i] = saved + eps
                    up = float(loss().data)
                    flat[i] = saved - eps
                    down = float(loss().data)
                    flat[i] = saved
                    numeric[-1].append((up - down) / (2 * eps))
        return checks.check_fd(np.array(auto), np.array(numeric))
    finally:
        mlaan.set_default_dtype(np.float32)


# ---------------------------------------------------------------------------
# the runs
# ---------------------------------------------------------------------------

class Result:
    def __init__(self):
        self.correct = True
        self.problems = []
        self.e2e = {}
        self.per_layer = {}
        self.info = []     # (name, value, unit) printed but not gated

    def fail(self, reason):
        self.correct = False
        self.problems.append(reason)

    def check(self, reason):
        if reason is not None:
            self.fail(reason)


def run_training(mlaan, cfg, seconds, trace, out, log):
    """desk-mlaan: rounds of `mlaan train`."""
    res = Result()
    tracer = spans.Tracer()
    if trace:
        spans.install(tracer, mlaan)
    probe = Probe(mlaan, tracer, cfg)
    cfg_path = os.path.join(out, "config.json")
    write_json(cfg_path, cfg)
    cli = mlaan.cli

    # set-up: config load, dataset build and build_trainer, several times in
    # this process (for the spans and the data) and in fresh ones (setup_s)
    tracer.active, tracer.only = trace, spans.SETUP_SPANS
    setup_begin = tracer.mark()
    for _ in range(TRAIN_SETUP_REPS):
        _, data = setup_once(cli, cfg_path)
    setup_end = tracer.mark()
    tracer.active = False
    setup_s = setup_in_fresh_processes(cfg_path)
    tracer.active = trace

    tracer.only = None
    probe.counting = True
    round_s, peaks = [], []
    run_dir = os.path.join(out, "train")
    begin = perf()
    while perf() - begin < seconds:
        rc, dt = run_cli(mlaan, ["train", "--config", cfg_path, "--out", run_dir], log)
        if rc != 0:
            res.fail(f"mlaan train exited with {rc}")
            break
        round_s.append(dt)
        rows = read_metrics(os.path.join(run_dir, "metrics.csv"))
        peaks.append(max(r["peak_elements"] for r in rows))
        res.check(checks.check_loss_falls(rows))
        trained = probe.trainers[-1]
        saved = mlaan.load_checkpoint(os.path.join(run_dir, "checkpoint.mlnn")).arrays
        res.check(checks.check_bitwise(saved, mlaan.checkpoint.collect_state(trained)))
    probe.counting = False
    tracer.active = False
    window = range(setup_end, tracer.mark())
    for reason in probe.problems:
        res.fail(reason)

    # checks made once, after the measured window
    res.check(fd_check(mlaan, cfg, data, cfg["run"]["seed"]))
    c = mlaan.config.config_from_dict(cfg)
    fresh = cli.build_trainer(c)
    b = cfg["run"]["batch_size"]
    calls = count_conv_calls(mlaan, lambda: fresh.step(data.train_x[:b], data.train_y[:b], 0.0))
    res.check(checks.check_conv_calls(calls, cfg))
    bp_cfg = copy.deepcopy(cfg)
    bp_cfg["trainer"]["mode"] = "bp"
    bx, by = data.train_x[:b], data.train_y[:b]
    local = mlaan.meter_peak_activations(cli.build_trainer(c), bx, by)
    bp = mlaan.meter_peak_activations(
        cli.build_trainer(mlaan.config.config_from_dict(bp_cfg)), bx, by)
    res.check(checks.check_main_peak(local.main_peak, bp.main_peak))
    if round_s:
        net = trained.backbone
        whole = eval_logits(mlaan, net, data.test_x, len(data.test_x))
        res.check(checks.check_chunking(whole, eval_logits(mlaan, net, data.test_x, 7)))
        result = mlaan.evaluate(net, data.test_x, data.test_y)
        res.check(checks.check_error_rate(result["test_error"], whole, data.test_y))
    if probe.step_s and round_s:
        steps = len(probe.step_s)
        samples = steps * b
        res.e2e = {"setup_s": setup_s,
                   "step_ms.p50": median_ms(probe.step_s),
                   "round_s": statistics.median(round_s),
                   "peak_act_elements": max(peaks),
                   "peak_rss_mb": peak_rss_mb()}
        res.info.append(("steps", steps, "count"))
        res.info.append(("rounds", len(round_s), "count"))
        if steps >= 100:
            res.info.append(("step_ms.p90", p90_ms(probe.step_s), "ms"))
        res.info.append(("train_samples_per_s", samples / sum(round_s), "samples/s"))
    else:
        res.fail("no training step completed")
    if trace:
        if probe.attempted:
            res.per_layer = spans.per_layer_metrics(
                tracer, range(setup_begin, setup_end), window, probe.attempted,
                step_scoped=True)
            res.check(checks.check_conv_calls(res.per_layer["ops.conv2d.calls"], cfg))
        tracer.write(os.path.join(out, "spans.tsv"))
    return res, probe.attempted, probe.failed


def run_analyze(mlaan, cfgs, seconds, trace, out, log):
    """analyze: eval, probe --all and cka on two checkpoints trained during
    set-up; once with a checkpoint against itself, once across the two."""
    res = Result()
    tracer = spans.Tracer()
    if trace:
        spans.install(tracer, mlaan)
    probe = Probe(mlaan, tracer, time_eval_forward=True)
    cli = mlaan.cli
    cfg_a, cfg_b = cfgs
    paths, ckpts = [], []
    for tag, cfg in (("a", cfg_a), ("b", cfg_b)):
        paths.append(os.path.join(out, f"config_{tag}.json"))
        write_json(paths[-1], cfg)
        ckpts.append(os.path.join(out, f"run_{tag}", "checkpoint.mlnn"))

    # set-up: train both checkpoints, several times
    tracer.active, tracer.only = trace, spans.SETUP_SPANS
    setup_begin = tracer.mark()
    setup_s = []
    for _ in range(ANALYZE_SETUP_REPS):
        t0 = perf()
        for path, ckpt in zip(paths, ckpts):
            rc, _ = run_cli(mlaan, ["train", "--config", path,
                                    "--out", os.path.dirname(ckpt)], log)
            if rc != 0:
                res.fail(f"set-up training of {ckpt} exited with {rc}")
                return res, 0, 0
        setup_s.append(perf() - t0)
    setup_end = tracer.mark()
    tracer.active = False
    trained = list(probe.trainers)

    # what the commands must report, computed here from the trained networks
    c_a = mlaan.config.config_from_dict(cfg_a)
    data = cli.build_dataset(c_a)
    expected_error, features = [], []
    for trainer, ckpt in zip(trained, ckpts):
        saved = mlaan.load_checkpoint(ckpt).arrays
        res.check(checks.check_bitwise(saved, mlaan.checkpoint.collect_state(trainer)))
        logits = eval_logits(mlaan, trainer.backbone, data.test_x, len(data.test_x))
        expected_error.append(float((logits.argmax(axis=1) != data.test_y).mean()))
        h, pooled = mlaan.tensor.Tensor(data.test_x[:256]), []
        for m in trainer.modules:
            h = m.forward_body(h, training=False)
            pooled.append(h.data.mean(axis=(2, 3)))
        features.append(pooled)
    cross = [checks.hsic_cka(fa, fb) for fa, fb in zip(*features)]
    K = cfg_a["partition"]["K"]

    outs = {key: os.path.join(out, key) for key in
            ("eval_a", "probe_a", "cka_self", "eval_b", "probe_b", "cka_cross")}
    a, b = ckpts
    commands = [
        ("eval", "eval_a", ["eval", "--checkpoint", a, "--dataset", "synthetic"]),
        ("probe", "probe_a", ["probe", "--checkpoint", a, "--all"]),
        ("cka", "cka_self", ["cka", "--checkpoint-a", a, "--checkpoint-b", a]),
        ("eval", "eval_b", ["eval", "--checkpoint", b, "--dataset", "synthetic"]),
        ("probe", "probe_b", ["probe", "--checkpoint", b, "--all"]),
        ("cka", "cka_cross", ["cka", "--checkpoint-a", a, "--checkpoint-b", b]),
    ]
    tracer.active, tracer.only = trace, None
    probe.counting = True
    round_s, by_kind = [], {"eval": [], "probe": [], "cka": []}
    forwards = {}     # kind -> LocalModule.forward_body calls in one command
    begin = perf()
    while perf() - begin < seconds:
        t_round = 0.0
        for kind, key, argv in commands:
            first = tracer.mark()
            rc, dt = run_cli(mlaan, argv + ["--out", outs[key]], log)
            forwards.setdefault(kind, tracer.names[first:].count("network.forward_body"))
            probe.attempted += 1
            if rc != 0:
                probe.failed += 1
                continue
            t_round += dt
            by_kind[kind].append(dt)
        round_s.append(t_round)
        for i, key in enumerate(("eval_a", "eval_b")):
            reported = read_json(os.path.join(outs[key], "eval.json"))["test_error"]
            if reported != expected_error[i]:
                res.fail(f"{key}: test error {reported}, the trained network gives "
                         f"{expected_error[i]}")
        for key in ("probe_a", "probe_b"):
            res.check(checks.check_probe_rows(
                read_json(os.path.join(outs[key], "probe.json")), K))
        self_rows = read_json(os.path.join(outs["cka_self"], "cka.json"))
        res.check(checks.check_self_cka([r["value"] for r in self_rows]))
        cross_rows = read_json(os.path.join(outs["cka_cross"], "cka.json"))
        res.check(checks.check_cross_cka([r["value"] for r in cross_rows], cross))
    probe.counting = False
    tracer.active = False
    window = range(setup_end, tracer.mark())

    # checks made once, after the measured window
    res.check(fd_check(mlaan, cfg_a, data, cfg_a["run"]["seed"]))
    restored = cli.build_trainer(c_a)
    mlaan.restore_into(restored, mlaan.load_checkpoint(a))
    before = {k: v.copy() for k, v in mlaan.checkpoint.collect_state(restored).items()}
    mlaan.linear_probe(restored.modules, K, data, seed=cfg_a["run"]["seed"])
    res.check(checks.check_unchanged(before, mlaan.checkpoint.collect_state(restored)))
    net = restored.backbone
    whole = eval_logits(mlaan, net, data.test_x, len(data.test_x))
    res.check(checks.check_chunking(whole, eval_logits(mlaan, net, data.test_x, 7)))
    calls = count_conv_calls(mlaan, lambda: mlaan.evaluate(net, data.test_x, data.test_y))
    chunks = -(-len(data.test_x) // 256)
    if calls != chunks * (cfg_a["backbone"]["depth"] - 1):
        res.fail(f"evaluate made {calls} conv calls; {chunks} chunks of a depth-"
                 f"{cfg_a['backbone']['depth']} network need {chunks * (cfg_a['backbone']['depth'] - 1)}")

    if round_s and probe.forward_s:
        peak = max(r["peak_elements"] for r in
                   read_metrics(os.path.join(os.path.dirname(a), "metrics.csv")))
        res.e2e = {"setup_s": statistics.median(setup_s),
                   "step_ms.p50": median_ms(probe.forward_s),
                   "round_s": statistics.median(round_s),
                   "peak_act_elements": peak,
                   "peak_rss_mb": peak_rss_mb()}
        res.info.append(("commands", probe.attempted, "count"))
        res.info.append(("rounds", len(round_s), "count"))
        res.info.append(("eval_samples_per_s",
                         len(data.test_x) * len(by_kind["eval"]) / sum(by_kind["eval"]),
                         "samples/s"))
        res.info.append(("probe_s", statistics.median(by_kind["probe"]), "s"))
        res.info.append(("cka_s", statistics.median(by_kind["cka"]), "s"))
    else:
        res.fail("no analysis command completed")
    if trace:
        res.per_layer = spans.per_layer_metrics(
            tracer, range(setup_begin, setup_end), window, max(probe.attempted, 1),
            step_scoped=False)
        for kind in ("probe", "cka"):
            res.info.append((f"analysis.module_forwards.{kind}", forwards.get(kind, 0), "count"))
        tracer.write(os.path.join(out, "spans.tsv"))
    return res, probe.attempted, probe.failed
