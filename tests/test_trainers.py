"""Mode composition, divergence handling, and the combined leap update."""

import numpy as np
import pytest

import mlaan
from mlaan import ops
from mlaan.checkpoint import collect_state
from mlaan.network import warmup_batch_stats
from mlaan.tensor import Graph, Tensor
from mlaan.training import eq10_update, eq11_update
from conftest import make_trainer
from test_ops import (reference_batchnorm2d_eval, reference_batchnorm2d_train,
                      reference_bias_add, reference_global_avg_pool)


def small_batch(trainer, n=6, seed=0):
    gen = np.random.default_rng(seed)
    shape = trainer.backbone.cfg.input_shape
    bx = gen.standard_normal((n, *shape)).astype(np.float32)
    by = gen.integers(0, trainer.backbone.cfg.classes, size=n).astype(np.int64)
    return bx, by


# ---------------------------------------------------------------------------
# which attachments each mode builds
# ---------------------------------------------------------------------------

def test_bp_builds_nothing_extra():
    tr = make_trainer("bp")
    assert tr.heads == {} and tr.cascades == [] and tr.pairs == {}


def test_greedy_heads_only():
    tr = make_trainer("greedy_local", K=4, depth=10)
    assert sorted(tr.heads) == [1, 2, 3]          # module K reuses the classifier
    assert tr.cascades == [] and tr.pairs == {}


def test_mlm_adds_cascades():
    tr = make_trainer("mlm_only", K=4, depth=10, k=2)
    assert sorted(tr.heads) == [1, 2, 3]
    assert [g.start for g in tr.cascades] == [1, 2, 3]
    assert all(g.pair is None for g in tr.cascades)
    assert tr.pairs == {}


def test_lam_pairs_on_every_early_module():
    tr = make_trainer("lam_only", K=4, depth=10, p=1)
    assert sorted(tr.pairs) == [1, 2, 3]
    assert tr.cascades == []
    for j, pair in tr.pairs.items():
        assert pair.owner == j
        later_units = {id(u) for m in tr.modules[j:] for u in m.units}
        assert all(id(src) in later_units for src in pair.sources)


def test_lam_replica_count_clamps_to_available_units():
    # depth 10 -> 8 units over K=4 modules of 2; owner 3 sees only module 4
    tr = make_trainer("lam_only", K=4, depth=10, p=50)
    assert len(tr.pairs[3].phi_prime) == 2
    assert len(tr.pairs[1].phi_prime) == 6


def test_mlaan_pairs_sit_on_cascaded_heads_only():
    tr = make_trainer("mlaan", K=4, depth=10, k=2, p=1)
    # group lasts are modules 2, 3, 4; module 4 ends the net so no pair there
    assert sorted(tr.pairs) == [2, 3]
    by_start = {g.start: g for g in tr.cascades}
    assert by_start[1].pair is tr.pairs[2]
    assert by_start[2].pair is tr.pairs[3]
    assert by_start[3].pair is None


def test_zero_cascade_rate_skips_cascade_machinery():
    net = mlaan.build_backbone(8, 4, 10, (1, 12, 12), seed=9)
    tr = mlaan.Trainer(net, 3, mlaan.TrainerMode(mode="mlaan", k=2, p=0),
                       mlaan.OptimizerConfig(lr=0.1, lr_cascaded=0.0), seed=9)
    assert tr.cascades == [] and tr.pairs == {}
    assert tr.cascade_seed == 0.0


def test_zero_p_skips_replicas():
    tr = make_trainer("mlaan", p=0)
    assert tr.pairs == {}
    assert tr.cascades != []


def test_k1_has_no_heads_even_when_local():
    tr = make_trainer("greedy_local", K=1, depth=6)
    assert tr.heads == {}


def test_pathway_layout_is_pinned(monkeypatch):
    """all_params, and so the checkpoint's entries, run backbone, module heads
    by j, window heads by start, leap pairs by owner; each window in
    `cascades` is the very signal, modules, head and pair the step runs."""
    tr = make_trainer("mlaan", K=4, depth=10, k=2, p=1)
    unit, head = ("conv.w", "bn.gamma", "bn.beta"), ("conv.w", "conv.b", "fc.w", "fc.b")
    want = [f"{u}.{n}" for u in ["stem"] + [f"unit{i}" for i in range(8)] for n in unit]
    want += ["classifier.w", "classifier.b"]
    want += [f"{h}.{n}" for h in ("head1", "head2", "head3", "cascade1", "cascade2") for n in head]
    want += [f"leap{j}.{twin}0.{n}" for j in (2, 3) for twin in ("phi", "ema") for n in unit]
    assert [p.name for p in tr.all_params] == want
    assert [n.removeprefix("param/") for n in collect_state(tr) if n.startswith("param/")] == want

    ran = []
    supervise = tr._supervise
    monkeypatch.setattr(tr, "_supervise",
                        lambda sig, feats, by: (ran.append(sig), supervise(sig, feats, by))[1])
    tr.step(*small_batch(tr), 0.05)
    assert [sig.label for sig in ran] == ["module1", "module2", "cascade1", "module3",
                                          "cascade2", "module4", "cascade3"]
    windows = [sig for sig in ran if sig.kind == "cascade"]
    assert len(windows) == len(tr.cascades) == 3
    for s, (window, sig) in enumerate(zip(tr.cascades, windows), start=1):
        assert window is sig and any(x is sig for x in tr.plan[s + 1])
        assert len(sig.members) == 2
        assert all(a is b for a, b in zip(sig.members, tr.modules[s - 1:s + 1]))
        assert (sig.head is None) == (s == 3)
        assert sig.pair is tr.pairs.get(s + 1)
    assert [sig.head for sig in ran if sig.kind == "module"][:3] == list(tr.heads.values())


def test_all_params_are_uniquely_named():
    tr = make_trainer("mlaan", K=4, depth=10, k=2, p=2)
    names = [p.name for p in tr.all_params]
    assert len(names) == len(set(names))


# ---------------------------------------------------------------------------
# TrainerMode validation
# ---------------------------------------------------------------------------

def test_unknown_mode_rejected():
    with pytest.raises(mlaan.ConfigError, match="trainer.mode"):
        mlaan.TrainerMode(mode="semi_local")


def test_unknown_combine_rule_rejected():
    with pytest.raises(mlaan.ConfigError):
        mlaan.TrainerMode(mlaan_rule="averaging")


@pytest.mark.parametrize("r", [0.0, 1.0, -0.2, 1.5])
def test_ema_rate_must_be_interior(r):
    with pytest.raises(mlaan.ConfigError):
        mlaan.TrainerMode(r=r)


def test_negative_p_rejected():
    with pytest.raises(mlaan.ConfigError):
        mlaan.TrainerMode(p=-1)


def test_cascade_span_out_of_range():
    with pytest.raises(mlaan.ConfigError):
        make_trainer("mlm_only", K=3, k=4)
    with pytest.raises(mlaan.ConfigError):
        make_trainer("mlm_only", K=3, k=1)


# ---------------------------------------------------------------------------
# stepping and divergence
# ---------------------------------------------------------------------------

def test_step_reports_losses_for_every_pathway():
    tr = make_trainer("mlaan", K=3, k=2, p=1)
    bx, by = small_batch(tr)
    report = tr.step(bx, by, 0.05)
    assert sorted(report.independent) == [1, 2, 3]
    assert sorted(report.cascaded) == [1, 2]
    assert report.final_loss == report.independent[3]
    assert report.peak_elements > 0


def test_nonfinite_input_aborts_and_clears_grads():
    tr = make_trainer("mlaan", K=3, k=2, p=1)
    bx, by = small_batch(tr)
    bx[0, 0, 0, 0] = np.nan
    with pytest.raises(mlaan.TrainingDiverged):
        tr.step(bx, by, 0.05)
    for p in tr.all_params:
        assert not np.any(p.grad)


@pytest.mark.parametrize("good_steps", [0, 1])
def test_diverged_step_leaves_batchnorm_statistics(good_steps, tiny_data):
    tr = make_trainer("mlaan", K=3, k=2, p=1)
    bx, by = small_batch(tr)
    for _ in range(good_steps):
        tr.step(bx, by, 0.05)
    before = [(bn.running_mean.tobytes(), bn.running_var.tobytes(), bn.initialized)
              for bn in tr.backbone.batchnorms()]
    bx[0, 0, 0, 0] = np.nan
    with pytest.raises(mlaan.TrainingDiverged):
        tr.step(bx, by, 0.05)
    after = [(bn.running_mean.tobytes(), bn.running_var.tobytes(), bn.initialized)
             for bn in tr.backbone.batchnorms()]
    assert after == before
    if good_steps:
        logits = tr.backbone.forward(Tensor(tiny_data.test_x), training=False).data
        assert np.all(np.isfinite(logits))


def reforward_reference(tr, bx, by):
    """Accumulate one step's gradients the long way: for bp, the whole
    network on one tape; otherwise each module pathway on one tape, then
    each cascade window forwarded again through its members on one tape,
    with the backbone's batch-norm statistics restored afterwards."""
    if tr.mode.mode == "bp":
        with Graph("bp") as g:
            logits = tr.backbone.forward(Tensor(bx), training=True)
            g.backward(ops.softmax_cross_entropy(logits, by))
        return
    boundaries = [Tensor(bx)]
    for m in tr.modules:
        with Graph(f"module{m.index}") as g:
            feats = m.forward_body(boundaries[-1], training=True)
            if m.tail is not None:
                logits = m.finish(feats)
            else:
                h = feats
                if tr.mode.mode == "lam_only" and m.index in tr.pairs:
                    h = tr.pairs[m.index].apply(h)
                logits = tr.heads[m.index](h)
            g.backward(ops.softmax_cross_entropy(logits, by))
        boundaries.append(Tensor(feats.data))
    stats = [(bn, bn.running_mean.copy(), bn.running_var.copy(), bn.initialized)
             for bn in tr.backbone.batchnorms()]
    for group in tr.cascades:
        with Graph(f"cascade{group.start}") as g:
            h = boundaries[group.start - 1]
            for m in group.members:
                h = m.forward_body(h, training=True)
            if group.head is None:
                logits = group.last.finish(h)
            else:
                logits = group.head(group.pair.apply(h) if group.pair else h)
            g.backward(ops.softmax_cross_entropy(logits, by), seed=tr.cascade_seed)
    for bn, mean, var, initialized in stats:
        bn.running_mean[...], bn.running_var[...], bn.initialized = mean, var, initialized


@pytest.mark.parametrize("kind", ["mlm_only", "lam_only", "mlaan", "bp", "greedy_local"])
def test_step_matches_reforward_reference_with_one_forward(kind, monkeypatch):
    trainer, reference = (make_trainer(kind, K=4, depth=10, k=3, p=1) for _ in range(2))
    bx, by = small_batch(trainer)
    calls = []
    conv = ops.conv2d

    def counted(*args, **kwargs):
        calls.append(1)
        return conv(*args, **kwargs)

    monkeypatch.setattr(ops, "conv2d", counted)
    monkeypatch.setattr(trainer.optimizer, "step", lambda lr_now: None)
    trainer.step(bx, by, 0.05)
    monkeypatch.undo()
    reforward_reference(reference, bx, by)

    # stem, units, module heads, window heads, replica units: nothing twice
    expected = (1 + len(trainer.backbone.units) + len(trainer.heads)
                + sum(g.head is not None for g in trainer.cascades)
                + sum(len(pair.phi_prime) + pair.ema_count for pair in trainer.pairs.values()))
    assert len(calls) == expected
    for got, want in zip(trainer.all_params, reference.all_params):
        assert got.grad.tobytes() == want.grad.tobytes(), got.name
        assert got.accum_count == want.accum_count, got.name
    for got, want in zip(trainer.backbone.batchnorms(), reference.backbone.batchnorms()):
        assert got.running_mean.tobytes() == want.running_mean.tobytes()
        assert got.running_var.tobytes() == want.running_var.tobytes()


def test_desk_mlaan_step_calls_conv2d_47_times(monkeypatch):
    # the count the benchmark checks, taken the way it takes it: one call
    # per stem, unit, head and replica unit, none from a backward
    tr = make_trainer("mlaan", K=8, depth=18, width=8, k=3, p=2)
    bx, by = small_batch(tr, n=16)
    calls, conv = [], ops.conv2d

    def counted(*args, **kwargs):
        calls.append(1)
        return conv(*args, **kwargs)

    monkeypatch.setattr(ops, "conv2d", counted)
    tr.step(bx, by, 0.05)
    assert len(calls) == 47


@pytest.mark.parametrize("kind,p", [("bp", 0), ("greedy_local", 0), ("mlm_only", 0),
                                    ("lam_only", 2), ("mlaan", 2)])
def test_step_matches_the_4d_reference_kernels_bitwise(kind, p, monkeypatch):
    """Steps with the full-width per-channel kernels and the fused conv–batch
    norm equal, bit for bit, the same steps with the 4-d reference kernels and
    the conv and batch norm run apart, so no drift in their arithmetic can
    re-roll a trained network unseen."""
    def two_steps():  # the second backward sees gammas other than their initial ones
        tr = make_trainer(kind, K=4, depth=10, width=8, k=3, p=p)
        for seed in (0, 1):
            bx, by = small_batch(tr, n=8, seed=seed)
            tr.step(bx, by, 0.05)
        return tr, tr.backbone.forward(Tensor(bx), training=False).data

    def reference_conv_batchnorm2d_train(x, w, gamma, beta, stride=1, pad=1, eps=1e-5):
        return reference_batchnorm2d_train(ops.conv2d(x, w, stride, pad), gamma, beta, eps)

    got, got_logits = two_steps()
    for name, kernel in (("conv_batchnorm2d_train", reference_conv_batchnorm2d_train),
                         ("batchnorm2d_eval", reference_batchnorm2d_eval),
                         ("bias_add", reference_bias_add),
                         ("global_avg_pool", reference_global_avg_pool)):
        monkeypatch.setattr(ops, name, kernel)
    want, want_logits = two_steps()

    for a, b in zip(got.all_params, want.all_params):
        assert a.data.tobytes() == b.data.tobytes(), a.name
        assert a.velocity.tobytes() == b.velocity.tobytes(), a.name
    def batchnorms(tr):  # the backbone's, then the leap replicas'
        return tr.backbone.batchnorms() + [u.bn for pair in tr.pairs.values()
                                           for u in pair.phi_prime + pair.phi_double]

    assert len(batchnorms(got)) > len(got.backbone.batchnorms()) or p == 0
    for a, b in zip(batchnorms(got), batchnorms(want)):
        assert a.running_mean.tobytes() == b.running_mean.tobytes(), a.name
        assert a.running_var.tobytes() == b.running_var.tobytes(), a.name
    assert got.last_accum_counts == want.last_accum_counts
    assert got_logits.tobytes() == want_logits.tobytes()


def test_fit_tolerates_two_bad_steps(tiny_data):
    tr = make_trainer("greedy_local", K=2, depth=6)
    calls = {"n": 0}
    real = tr.step

    def flaky(bx, by, lr_now):
        calls["n"] += 1
        if calls["n"] <= 2:
            raise mlaan.TrainingDiverged("injected")
        return real(bx, by, lr_now)

    tr.step = flaky
    rec = tr.fit(tiny_data, epochs=1, batch_size=16)
    assert len(rec.rows) == 1
    assert tr.step_index == 5  # failed steps still consume indices
    assert calls["n"] == 5
    assert tr.skipped_steps == [(0, "injected"), (1, "injected")]


def test_fit_gives_up_after_three_consecutive_failures(tiny_data):
    tr = make_trainer("greedy_local", K=2, depth=6)

    def always_bad(bx, by, lr_now):
        raise mlaan.TrainingDiverged("injected")

    tr.step = always_bad
    with pytest.raises(mlaan.TrainingDiverged):
        tr.fit(tiny_data, epochs=1, batch_size=8)
    assert tr.step_index == 3
    assert tr.skipped_steps == [(0, "injected"), (1, "injected")]


def test_epochs_zero_returns_empty_recorder(tiny_data):
    tr = make_trainer("bp")
    rec = tr.fit(tiny_data, epochs=0, batch_size=16)
    assert rec.rows == []


def test_fit_requires_two_samples(tiny_data):
    tr = make_trainer("bp")
    lonely = mlaan.Dataset("lonely", tiny_data.train_x[:1], tiny_data.train_y[:1],
                           tiny_data.test_x, tiny_data.test_y)
    with pytest.raises(mlaan.DataError):
        tr.fit(lonely, epochs=1, batch_size=16)


@pytest.mark.parametrize("batch_size", [0, 1])
def test_fit_rejects_batches_below_two(batch_size, tiny_data):
    tr = make_trainer("bp")
    with pytest.raises(mlaan.ConfigError):
        tr.fit(tiny_data, epochs=1, batch_size=batch_size)
    assert tr.step_index == 0


def test_resumed_fit_continues_the_wall_clock(tiny_data):
    tr = make_trainer("greedy_local", K=2, depth=6)
    rec = mlaan.MetricsRecorder()
    rec.append(1, 2.0, 0.9, 0.1, 100, 1000.0)  # a restored row from a long first epoch
    tr.fit(tiny_data, epochs=2, batch_size=16, recorder=rec, start_epoch=1)
    assert [row["epoch"] for row in rec.rows] == [1, 2]
    assert rec.rows[1]["wall_time_s"] >= rec.rows[0]["wall_time_s"]


# ---------------------------------------------------------------------------
# the combined leap update
# ---------------------------------------------------------------------------

def test_both_update_spellings_are_the_same_function():
    assert eq11_update is eq10_update


def test_combined_update_value():
    out = eq10_update(np.array([1.0]), np.array([0.5]), np.array([2.0]), 0.1, 0.9)
    # 1 - 0.9*0.5 - 1.1*0.1*2
    assert out.item() == pytest.approx(1.0 - 0.45 - 0.22)


# ---------------------------------------------------------------------------
# EMA twins
# ---------------------------------------------------------------------------

def test_ema_step_blends_toward_live_copy():
    tr = make_trainer("mlaan", K=3, k=2, p=1, r=0.9)
    pair = tr.pairs[2]
    prime = pair.phi_prime[0].conv.w
    double = pair.phi_double[0].conv.w
    before = double.data.copy()
    prime.data += 1.0
    pair.ema_step()
    expected = before.copy()
    expected *= 0.9
    expected += 0.1 * prime.data
    assert np.array_equal(double.data, expected)


def test_ema_twins_never_require_grad():
    tr = make_trainer("mlaan", K=4, depth=10, k=2, p=2)
    for pair in tr.pairs.values():
        for unit in pair.phi_double:
            assert all(not p.requires_grad for p in unit.parameters())
        for unit in pair.phi_prime:
            assert all(p.requires_grad for p in unit.parameters())


def test_ema_twins_get_no_gradient_from_a_step(monkeypatch):
    tr = make_trainer("mlaan", K=4, depth=10, k=2, p=2)
    seen = {}
    step = tr.optimizer.step

    def inspect_then_step(lr_now):  # the optimizer zeroes every grad after its update
        seen.update({p.name: p.grad.any() for p in tr.all_params})
        step(lr_now)

    monkeypatch.setattr(tr.optimizer, "step", inspect_then_step)
    tr.step(*small_batch(tr), 0.05)
    for pair in tr.pairs.values():
        for p in [p for unit in pair.phi_double for p in unit.parameters()]:
            assert not seen[p.name] and tr.last_accum_counts[p.name] == 0
        for p in [p for unit in pair.phi_prime for p in unit.parameters()]:
            assert seen[p.name] and tr.last_accum_counts[p.name] > 0


def test_resync_copies_live_weights_into_primes():
    tr = make_trainer("mlaan", K=3, k=2, p=1)
    bx, by = small_batch(tr)
    for _ in range(2):
        tr.step(bx, by, 0.05)
    pair = tr.pairs[2]
    # steps moved the live units away from the stale prime copies
    tr._resync_all()
    snap = [p.data.copy() for u in pair.phi_prime for p in u.parameters()]
    tr._resync_all()  # idempotent once freshly synced
    again = [p.data for u in pair.phi_prime for p in u.parameters()]
    assert all(np.array_equal(a, b) for a, b in zip(snap, again))


@pytest.mark.parametrize("kind", ["mlaan", "lam_only"])
def test_replica_batchnorm_statistics_are_write_only(kind, tiny_data):
    """Poisoned replica running statistics change nothing a step computes: the
    replicas run in training mode only, and neither checkpoints nor resyncs
    carry their statistics."""
    def train(poison):
        tr = make_trainer(kind, K=3, k=2, p=2, sync_period=3)
        units = [u for pair in tr.pairs.values() for u in pair.phi_prime + pair.phi_double]
        for unit in units if poison else []:
            unit.bn.running_mean[...] = np.nan
            unit.bn.running_var[...] = np.nan
            unit.bn.initialized = False
        rec = tr.fit(tiny_data, epochs=1, batch_size=10)
        return tr, rec

    clean, clean_rec = train(poison=False)
    poisoned, poisoned_rec = train(poison=True)
    assert poisoned.step_index == 8  # resyncs before steps 3 and 6
    want = collect_state(clean)
    got = collect_state(poisoned)
    assert list(got) == list(want)
    for name in want:
        assert got[name].tobytes() == want[name].tobytes(), name
    assert poisoned.last_accum_counts == clean.last_accum_counts
    assert ([{**r, "wall_time_s": 0} for r in poisoned_rec.rows]
            == [{**r, "wall_time_s": 0} for r in clean_rec.rows])
    # the units the head path runs wrote fresh statistics of their own
    for pair in poisoned.pairs.values():
        for unit in pair.phi_prime + pair.phi_double[len(pair.phi_double) - pair.ema_count:]:
            assert unit.bn.initialized and np.all(np.isfinite(unit.bn.running_mean))


# ---------------------------------------------------------------------------
# evaluate
# ---------------------------------------------------------------------------

def test_evaluate_mutates_nothing(tiny_data):
    tr = make_trainer("bp")
    warmup_batch_stats(tr.backbone, tiny_data.train_x[:16])
    stats_before = [(bn.running_mean.copy(), bn.running_var.copy())
                    for bn in tr.backbone.batchnorms()]
    first = mlaan.evaluate(tr.backbone, tiny_data.test_x, tiny_data.test_y)
    second = mlaan.evaluate(tr.backbone, tiny_data.test_x, tiny_data.test_y)
    assert first == second
    for bn, (m, v) in zip(tr.backbone.batchnorms(), stats_before):
        assert np.array_equal(bn.running_mean, m)
        assert np.array_equal(bn.running_var, v)


def test_evaluate_error_matches_hand_count(tiny_data):
    tr = make_trainer("bp")
    warmup_batch_stats(tr.backbone, tiny_data.train_x[:16])
    out = mlaan.evaluate(tr.backbone, tiny_data.test_x, tiny_data.test_y)
    preds = []
    for i in range(len(tiny_data.test_x)):
        logits = tr.backbone.forward(
            mlaan.Tensor(tiny_data.test_x[i:i + 1]), training=False).data
        preds.append(int(logits.argmax()))
    hand = float(np.mean(np.asarray(preds) != tiny_data.test_y))
    assert out["test_error"] == pytest.approx(hand, abs=1e-12)
    assert set(out["per_class_accuracy"]) == set(range(10))


def test_evaluate_rejects_empty():
    tr = make_trainer("bp")
    with pytest.raises(mlaan.DataError):
        mlaan.evaluate(tr.backbone, np.empty((0, 1, 12, 12), np.float32),
                       np.empty(0, np.int64))


# ---------------------------------------------------------------------------
# bookkeeping
# ---------------------------------------------------------------------------

def test_accum_counts_snapshot_covers_all_params():
    tr = make_trainer("mlaan", K=3, k=2, p=1)
    bx, by = small_batch(tr)
    tr.step(bx, by, 0.05)
    assert set(tr.last_accum_counts) == {p.name for p in tr.all_params}
    # every trainable backbone parameter was reached by at least one loss
    for p in tr.backbone.parameters():
        assert tr.last_accum_counts[p.name] >= 1


def test_cascade_rate_scales_relative_to_local_rate():
    cfg = mlaan.OptimizerConfig(lr=0.2, lr_cascaded=0.05)
    assert cfg.cascade_scale() == pytest.approx(0.25)
    net = mlaan.build_backbone(8, 4, 10, (1, 12, 12), seed=9)
    tr = mlaan.Trainer(net, 3, mlaan.TrainerMode(mode="mlm_only", k=2),
                       cfg, seed=9)
    assert tr.cascade_seed == pytest.approx(0.25)
