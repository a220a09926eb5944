"""Meter arithmetic, CKA properties, probes, and the metrics recorder."""

import gc
import types

import numpy as np
import pytest

import mlaan
from mlaan import ops
from mlaan.analysis import CSV_HEADER, module_features
from mlaan.layers import Linear
from mlaan.network import partition
from mlaan.optim import OptimizerConfig, SGDNesterov, cosine_annealing_lr
from mlaan.rng import named_stream
from mlaan.tensor import Graph, Parameter, Tensor
from conftest import RecordingMeter, laid_out, make_trainer, record_patches, warmup_batch_stats


# ---------------------------------------------------------------------------
# activation meter
# ---------------------------------------------------------------------------

def test_meter_tracks_concurrent_total():
    m = mlaan.ActivationMeter()
    m.on_retain(100, ("module1", "main"))
    m.on_retain(50, ("module1", "aux"))
    assert m.step_peak == 150
    m.on_release(100, ("module1", "main"))
    m.on_retain(30, ("module2", "main"))
    assert m.current_total == 80
    assert m.step_peak == 150  # high-water mark survives releases


def test_meter_per_key_and_section_peaks():
    m = mlaan.ActivationMeter()
    m.on_retain(10, ("a", "main"))
    m.on_retain(20, ("a", "main"))
    m.on_release(30, ("a", "main"))
    m.on_retain(25, ("b", "aux"))
    assert m.peak_by_key[("a", "main")] == 30
    assert m.peak_by_key[("b", "aux")] == 25
    assert m.section_peak == {"main": 30, "aux": 25}


def test_meter_begin_step_resets():
    m = mlaan.ActivationMeter()
    m.on_retain(10, ("a", "main"))
    m.begin_step()
    assert m.step_peak == 0 and m.current_total == 0
    assert m.peak_by_key == {} and m.section_peak == {}


def test_meter_counts_a_buffer_held_by_two_tapes_once():
    meter = mlaan.ActivationMeter()
    x = mlaan.Tensor(np.ones((2, 3), np.float32), requires_grad=True)
    w = mlaan.Parameter("w", np.ones((3, 3), np.float32))
    with mlaan.Graph("a", meter=meter) as a:
        y = mlaan.ops.relu(x)                   # a holds y (relu's backward reads it)
    with mlaan.Graph("b", meter=meter) as b:
        # b holds y (dW reads it) and z
        mlaan.ops.relu(mlaan.ops.matmul(mlaan.Tensor(y.data, requires_grad=True), w))
    assert meter.current_total == 12 and meter.step_peak == 12
    a.release()                                 # y is still held by b
    assert meter.current_total == 12
    assert meter.current == {("a", "main"): 6, ("b", "main"): 6}
    b.release()
    assert meter.current_total == 0 and meter.holders == {}


def _memory_root(arr):
    while isinstance(arr.base, np.ndarray):
        arr = arr.base
    return arr


def _reachable_float_buffers(graph, params):
    """Memory roots of the float arrays a live tape keeps alive: everything
    reachable from its records through their producers and backward closures,
    except the values of `params` (data, grad, velocity) and the tape itself."""
    weights = {id(_memory_root(a)) for q in params for a in (q.data, q.grad, q.velocity)}
    found, seen, todo = {}, set(), list(graph.nodes)
    while todo:
        obj = todo.pop()
        if id(obj) in seen or isinstance(obj, (Parameter, Graph, type, types.ModuleType)):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            root = _memory_root(obj)
            if obj.dtype.kind == "f" and id(root) not in weights:
                found[id(root)] = root
        elif isinstance(obj, types.FunctionType):  # its captures, not its module
            todo += [cell.cell_contents for cell in obj.__closure__ or ()]
        else:
            todo += gc.get_referents(obj)
    return found


def test_meter_counts_every_buffer_a_tape_keeps_alive():
    net = mlaan.build_backbone(6, 4, 10, (1, 12, 12), seed=2)
    body = partition(net, 2)[1][1]            # two residual units, no stem
    assert len(body.units) == 2 and body.stem is None
    meter = RecordingMeter()
    x = np.random.default_rng(0).standard_normal((4, 4, 12, 12)).astype(np.float32)
    x = laid_out(x, "chwn")  # a later module's input, in the CHWN memory training hands it
    with Graph("module2", meter=meter) as g:
        out = body.forward_body(Tensor(x, requires_grad=True), training=True)
        g.backward(out, np.ones_like(out.data))
    metered = {id(_memory_root(a)): a for a in meter.held}
    assert _reachable_float_buffers(g, net.parameters()).keys() == metered.keys()
    # per unit: conv input, relu output, μ and 1/σ (backward recomputes the
    # conv output), the second unit's conv input being the first unit's relu
    # output
    assert len(metered) == 7
    assert meter.current_total == sum(a.size for a in meter.held)
    g.release()
    assert meter.current_total == 0


def test_meter_counts_the_stems_chwn_copy_of_the_images():
    """Module 1 lays the NCHW images out CHWN once; the tape keeps that copy,
    and the meter counts it, as the one buffer of the images' size it holds."""
    net = mlaan.build_backbone(6, 4, 10, (1, 12, 12), seed=2)
    first = partition(net, 2)[1][0]
    meter = RecordingMeter()
    x = np.random.default_rng(0).standard_normal((4, 1, 12, 12)).astype(np.float32)
    with Graph("module1", meter=meter) as g:
        out = first.forward_body(Tensor(x), training=True)
        g.backward(out, np.ones_like(out.data))
    metered = {id(_memory_root(a)): a for a in meter.held}
    assert _reachable_float_buffers(g, net.parameters()).keys() == metered.keys()
    copies = [a for a in metered.values() if a.shape == x.shape]
    assert len(copies) == 1 and ops._chwn(copies[0]) and np.array_equal(copies[0], x)
    g.release()


def test_meter_report_from_real_step(tiny_data):
    tr = make_trainer("mlaan", K=3, k=2, p=1)
    report = mlaan.meter_peak_activations(tr, tiny_data.train_x[:8],
                                          tiny_data.train_y[:8])
    assert report.mode == "mlaan"
    assert report.peak_elements > 0
    assert report.main_peak > 0 and report.aux_peak > 0
    # sections peak independently; together they bound the joint peak
    assert report.peak_elements <= report.main_peak + report.aux_peak
    assert report.bytes_estimate == report.peak_elements * 4  # float32
    assert any(label.startswith("module") for label in report.per_module)


def test_meter_bp_has_no_aux_section(tiny_data):
    tr = make_trainer("bp")
    report = mlaan.meter_peak_activations(tr, tiny_data.train_x[:8],
                                          tiny_data.train_y[:8])
    assert report.aux_peak == 0
    assert report.main_peak == report.peak_elements
    # greedy local at K=1 runs bp's network and ops, so it holds the same buffers
    bx, by = tiny_data.train_x[:6], tiny_data.train_y[:6]
    bp, greedy = (mlaan.meter_peak_activations(
        make_trainer(kind, K=K, depth=18, width=8), bx, by)
        for kind, K in (("bp", 3), ("greedy_local", 1)))
    assert (greedy.peak_elements, greedy.main_peak, greedy.aux_peak) == \
        (bp.peak_elements, bp.main_peak, bp.aux_peak)
    assert list(greedy.per_module.values()) == list(bp.per_module.values())


# ---------------------------------------------------------------------------
# linear CKA
# ---------------------------------------------------------------------------

def test_cka_proportional_columns_align_perfectly():
    X = np.array([[1.0], [0.0], [-1.0]])
    Y = np.array([[2.0], [0.0], [-2.0]])
    assert mlaan.cka_linear(X, Y) == pytest.approx(1.0, abs=1e-12)


def test_cka_self_similarity_is_one():
    X = np.random.default_rng(0).standard_normal((20, 5))
    assert mlaan.cka_linear(X, X) == pytest.approx(1.0, abs=1e-10)


def test_cka_orthogonal_invariance():
    gen = np.random.default_rng(1)
    X = gen.standard_normal((30, 6))
    Q, _ = np.linalg.qr(gen.standard_normal((6, 6)))
    assert mlaan.cka_linear(X, X @ Q) == pytest.approx(1.0, abs=1e-10)


def test_cka_scaling_invariance():
    X = np.random.default_rng(2).standard_normal((15, 4))
    assert mlaan.cka_linear(X, 3.7 * X) == pytest.approx(1.0, abs=1e-10)
    assert mlaan.cka_linear(0.01 * X, X) == pytest.approx(1.0, abs=1e-10)


def test_cka_symmetric_and_bounded():
    gen = np.random.default_rng(3)
    X = gen.standard_normal((25, 3))
    Y = gen.standard_normal((25, 7))
    ab = mlaan.cka_linear(X, Y)
    ba = mlaan.cka_linear(Y, X)
    assert ab == pytest.approx(ba, rel=1e-12)
    assert 0.0 <= ab <= 1.0 + 1e-12


def test_cka_rejects_degenerate_inputs():
    X = np.ones((5, 2))  # zero variance after centering
    Y = np.random.default_rng(4).standard_normal((5, 2))
    with pytest.raises(mlaan.DataError):
        mlaan.cka_linear(X, Y)
    with pytest.raises(mlaan.DataError):
        mlaan.cka_linear(Y[:1], Y[:1])
    with pytest.raises(mlaan.DataError):
        mlaan.cka_linear(Y, Y[:3])


def test_layerwise_cka_identical_networks(tiny_data):
    tr = make_trainer("bp", K=3)
    warmup_batch_stats(tr.backbone, tiny_data.train_x[:16])
    per_layer, mean = mlaan.layerwise_cka(tr.modules, tr.modules,
                                          tiny_data.test_x[:32])
    assert [r["layer"] for r in per_layer] == [1, 2, 3]
    assert all(r["value"] == pytest.approx(1.0, abs=1e-10) for r in per_layer)
    assert mean == pytest.approx(1.0, abs=1e-10)


def test_layerwise_cka_architecture_mismatch(tiny_data):
    a = make_trainer("bp", K=3)
    b = make_trainer("bp", K=2)
    with pytest.raises(mlaan.ConfigError):
        mlaan.layerwise_cka(a.modules, b.modules, tiny_data.test_x[:8])


# ---------------------------------------------------------------------------
# features and probes
# ---------------------------------------------------------------------------

def test_module_features_shapes_and_composition(tiny_data):
    tr = make_trainer("bp", K=3, width=4)
    warmup_batch_stats(tr.backbone, tiny_data.train_x[:16])
    x = tiny_data.test_x[:10]
    feats = module_features(tr.modules, x, batch_size=4)  # uneven last batch
    assert len(feats) == 3
    # composing bodies by hand gives the same pooled features, module by module
    h = mlaan.Tensor(x)
    for m, f in zip(tr.modules, feats):
        h = m.forward_body(h, training=False)
        assert f.shape == (10, h.shape[1])
        assert np.allclose(f, h.data.mean(axis=(2, 3)), atol=1e-6)


def count_op_calls(monkeypatch, name):
    calls, inner = [], getattr(ops, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(ops, name, counted)
    return calls


def test_evaluate_builds_patch_matrices_in_blocks(monkeypatch):
    """eval's conv forwards copy at most one block of images into patch rows,
    and each carries its batch norm folded in, never the unfolded op."""
    net = mlaan.build_backbone(18, 8, 10, (1, 12, 12), seed=0)
    x = np.random.default_rng(0).standard_normal((256, 1, 12, 12)).astype(np.float32)
    warmup_batch_stats(net, x[:16])
    calls, shapes = count_op_calls(monkeypatch, "conv2d"), record_patches(monkeypatch)
    unfolded = count_op_calls(monkeypatch, "batchnorm2d_eval")
    mlaan.evaluate(net, x, np.zeros(256, np.int64))
    assert len(calls) == 17  # one chunk of 256 through a depth-18 network
    assert not unfolded
    # every pixel of every conv once; no block holds more values than a
    # width-8 unit's block of under 2 × _BLOCK_ROWS patches plus one row of them
    assert sum(p for p, _ in shapes) == 17 * 256 * 144
    assert max(p * k for p, k in shapes) < (2 * ops._BLOCK_ROWS + 12 * 256) * 72


@pytest.mark.parametrize("shape,width", [((1, 12, 12), 8), ((3, 32, 32), 16)])
def test_module_features_build_patch_matrices_in_blocks(shape, width, monkeypatch):
    """So do the feature passes of probe and cka, at the desk and CIFAR shapes."""
    net = mlaan.build_backbone(6, width, 10, shape, seed=0)
    _, modules = partition(net, 2)
    x = np.random.default_rng(0).standard_normal((64, *shape)).astype(np.float32)
    warmup_batch_stats(net, x[:16])
    pixels, row = shape[1] * shape[2], shape[2] * 64
    shapes = record_patches(monkeypatch)
    feats = module_features(modules, x)
    assert sum(p for p, _ in shapes) == 5 * 64 * pixels
    assert max(p * k for p, k in shapes) < (2 * ops._BLOCK_ROWS + row) * 9 * width
    assert all(f.flags.c_contiguous for f in feats)


def test_module_features_batch_size_is_keyword_only(tiny_data):
    tr = make_trainer("bp", K=3)
    with pytest.raises(TypeError):
        module_features(tr.modules, tiny_data.test_x[:4], 2)


def test_probe_layer_range(tiny_data):
    tr = make_trainer("bp", K=3)
    for layer in (0, 4):
        with pytest.raises(mlaan.ConfigError, match="out of range"):
            mlaan.linear_probe(tr.modules, layer, tiny_data, probe_epochs=1)
        with pytest.raises(mlaan.ConfigError, match="out of range"):
            mlaan.linear_probes(tr.modules, [1, layer], tiny_data, probe_epochs=1)


def test_linear_probes_match_single_layer_probes(tiny_data):
    tr = make_trainer("greedy_local", K=3)
    tr.fit(tiny_data, epochs=1, batch_size=16)
    for layers in ([1, 2, 3], [3, 1]):
        rows = mlaan.linear_probes(tr.modules, layers, tiny_data, probe_epochs=3)
        assert rows == [mlaan.linear_probe(tr.modules, layer, tiny_data, probe_epochs=3)
                        for layer in layers]


def per_layer_probes(modules, layers, data, probe_epochs, probe_lr=0.1, batch_size=64,
                     seed=0):
    """The probes fitted one layer at a time, each on its own tape and optimizer:
    the reference the stacked fit must match bit for bit."""
    train_all = module_features(modules, data.train_x)
    test_all = module_features(modules, data.test_x)
    classes = int(max(data.train_y.max(), data.test_y.max())) + 1
    rows = []
    for layer in layers:
        train_f, test_f = train_all[layer - 1], test_all[layer - 1]
        probe = Linear(f"probe{layer}", train_f.shape[1], classes,
                       named_stream(seed, f"probe/init/{layer}"), train_f.dtype)
        n = len(train_f)
        steps_per_epoch = max(1, n // batch_size)
        total = probe_epochs * steps_per_epoch
        opt = SGDNesterov(probe.parameters(), OptimizerConfig(lr=probe_lr))
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
        rows.append({"layer": layer, "value": float((preds != data.test_y).mean())})
    return rows


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_stacked_probes_match_the_per_layer_fits(tiny_data, dtype):
    mlaan.set_default_dtype(dtype)
    tr = make_trainer("greedy_local", K=3)
    tr.fit(tiny_data, epochs=1, batch_size=16)
    assert module_features(tr.modules, tiny_data.test_x[:2])[0].dtype == dtype
    for layers in ([1, 2, 3], [3, 1], [2, 2], []):
        rows = mlaan.linear_probes(tr.modules, layers, tiny_data, probe_epochs=4,
                                   batch_size=16)
        assert rows == per_layer_probes(tr.modules, layers, tiny_data, probe_epochs=4,
                                        batch_size=16)


@pytest.mark.parametrize("K", [1, 3])
def test_probe_all_makes_one_tape_and_one_step_per_batch(tiny_data, monkeypatch, K):
    tr = make_trainer("greedy_local", K=K)
    warmup_batch_stats(tr.backbone, tiny_data.train_x[:16])
    counts = {"tapes": 0, "steps": 0}
    enter, step = Graph.__enter__, mlaan.optim.SGDNesterov.step

    def counted_enter(self):
        counts["tapes"] += 1
        return enter(self)

    def counted_step(self, lr_now):
        counts["steps"] += 1
        return step(self, lr_now)
    monkeypatch.setattr(Graph, "__enter__", counted_enter)
    monkeypatch.setattr(mlaan.optim.SGDNesterov, "step", counted_step)
    mlaan.linear_probes(tr.modules, range(1, K + 1), tiny_data, probe_epochs=3,
                        batch_size=16)
    steps_per_epoch = len(tiny_data.train_x) // 16
    assert counts == {"tapes": 3 * steps_per_epoch, "steps": 3 * steps_per_epoch}


def test_probe_reads_but_never_writes(tiny_data):
    tr = make_trainer("greedy_local", K=3)
    tr.fit(tiny_data, epochs=1, batch_size=16)
    params_before = [p.data.copy() for p in tr.all_params]
    stats_before = [(bn.running_mean.copy(), bn.running_var.copy())
                    for bn in tr.backbone.batchnorms()]
    first = mlaan.linear_probe(tr.modules, 2, tiny_data, probe_epochs=3)
    second = mlaan.linear_probe(tr.modules, 2, tiny_data, probe_epochs=3)
    assert first == second  # deterministic in every bit that matters
    for p, snap in zip(tr.all_params, params_before):
        assert np.array_equal(p.data, snap)
    for bn, (mu, var) in zip(tr.backbone.batchnorms(), stats_before):
        assert np.array_equal(bn.running_mean, mu)
        assert np.array_equal(bn.running_var, var)


def test_probe_reports_layer_and_error(tiny_data):
    tr = make_trainer("greedy_local", K=3)
    tr.fit(tiny_data, epochs=1, batch_size=16)
    out = mlaan.linear_probe(tr.modules, 1, tiny_data, probe_epochs=2)
    assert out["layer"] == 1
    assert 0.0 <= out["value"] <= 1.0


# ---------------------------------------------------------------------------
# metrics recorder
# ---------------------------------------------------------------------------

def test_recorder_csv_round_trip(tmp_path):
    rec = mlaan.MetricsRecorder()
    rec.append(1, 2.302585, 0.9, 0.2, 123456, 1.5)
    rec.append(2, 1.0 / 3.0, 0.45, 0.19876543210123, 123456, 3.25)
    path = str(tmp_path / "metrics.csv")
    rec.to_csv(path)
    back = mlaan.MetricsRecorder.from_csv(path)
    assert back.rows == rec.rows  # repr() round-trips float64 exactly


def test_recorder_header_is_pinned(tmp_path):
    rec = mlaan.MetricsRecorder()
    rec.append(1, 0.5, 0.5, 0.1, 10, 0.1)
    path = str(tmp_path / "metrics.csv")
    rec.to_csv(path)
    with open(path) as fh:
        assert fh.readline().strip() == "epoch,train_loss,test_error,lr,peak_elements,wall_time_s"
    assert CSV_HEADER == ("epoch", "train_loss", "test_error", "lr",
                          "peak_elements", "wall_time_s")


def test_recorder_rejects_foreign_header(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("epoch,loss\n1,0.5\n")
    with pytest.raises(mlaan.DataError):
        mlaan.MetricsRecorder.from_csv(str(path))


def test_comparable_rows_drop_only_wall_time():
    rec = mlaan.MetricsRecorder()
    rec.append(1, 0.5, 0.4, 0.1, 99, 12.5)
    rows = rec.comparable_rows()
    assert rows == [{"epoch": 1, "train_loss": 0.5, "test_error": 0.4,
                     "lr": 0.1, "peak_elements": 99}]
    # original rows keep their timing
    assert rec.rows[0]["wall_time_s"] == 12.5
