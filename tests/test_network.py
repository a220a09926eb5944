"""Backbone construction, partitioning, heads and cascade windows, leap replicas."""

import numpy as np
import pytest

import mlaan.ops as ops
from mlaan.errors import ConfigError, StateError
from mlaan.layers import AuxHead, BatchNorm2d, Conv2d, Linear
from mlaan.network import build_backbone, build_leap_replicas, partition, resync_replicas
from mlaan.optim import OptimizerConfig
from mlaan.rng import named_stream
from mlaan.tensor import Graph, Tensor
from mlaan.training import Trainer, TrainerMode
from conftest import warmup_batch_stats


def backbone(depth=18, width=4, seed=0, image=8):
    return build_backbone(depth, width, 10, (1, image, image), seed=seed)


class TestPartition:
    def test_even_split_16_blocks_k8(self):
        sizes, modules = partition(backbone(18), 8)
        assert sizes == [2] * 8
        assert [m.index for m in modules] == list(range(1, 9))

    def test_remainder_goes_to_earliest(self):
        sizes, _ = partition(backbone(19), 8)  # 17 units
        assert sizes == [3, 2, 2, 2, 2, 2, 2, 2]

    def test_k_equals_units(self):
        sizes, _ = partition(backbone(6), 4)  # 4 units
        assert sizes == [1, 1, 1, 1]

    def test_k1_single_module(self):
        sizes, modules = partition(backbone(18), 1)
        assert sizes == [16]
        assert modules[0].stem is not None and modules[0].tail is not None

    def test_k_out_of_range(self):
        with pytest.raises(ConfigError):
            partition(backbone(6), 5)
        with pytest.raises(ConfigError):
            partition(backbone(6), 0)

    def test_stem_on_first_tail_on_last(self):
        _, modules = partition(backbone(10), 4)
        assert modules[0].stem is not None
        assert all(m.stem is None for m in modules[1:])
        assert modules[-1].tail is not None
        assert all(m.tail is None for m in modules[:-1])

    def test_modules_share_backbone_layers(self):
        net = backbone(10)
        _, modules = partition(net, 2)
        flat = [u for m in modules for u in m.units]
        assert flat == list(net.units)


def trainer(kind, K, depth, k=3, seed=0, net=None):
    net = net if net is not None else backbone(depth, seed=seed)
    return Trainer(net, K, TrainerMode(mode=kind, k=k, p=0), OptimizerConfig(lr=0.1), seed=seed)


class TestCascadeGroups:
    def test_k6_k3_enumeration(self):
        groups = trainer("mlm_only", 6, 20).cascades  # 18 units, K=6
        assert [g.start for g in groups] == [1, 2, 3, 4]
        assert [[m.index for m in g.members] for g in groups] == [
            [1, 2, 3], [2, 3, 4], [3, 4, 5], [4, 5, 6]]

    def test_groups_ending_at_final_module_reuse_classifier(self):
        groups = trainer("mlm_only", 6, 20).cascades
        assert groups[-1].head is None          # ends at module 6 = K
        assert all(g.head is not None for g in groups[:-1])

    def test_window_wider_than_partition_rejected(self):
        with pytest.raises(ConfigError, match="trainer.k"):
            trainer("mlm_only", 4, 20, k=5)

    def test_window_of_one_rejected(self):
        with pytest.raises(ConfigError, match="trainer.k"):
            trainer("mlm_only", 4, 20, k=1)

    def test_k_equals_K_single_group(self):
        groups = trainer("mlm_only", 4, 20, k=4).cascades
        assert len(groups) == 1 and groups[0].head is None


class TestIndependentHeads:
    def test_heads_for_all_but_last(self):
        assert sorted(trainer("greedy_local", 8, 18).heads) == list(range(1, 8))

    def test_head_init_is_stream_isolated(self):
        # heads must not perturb backbone init (separate streams), and each
        # head draws from its own named stream
        a = backbone(10, seed=5)
        b = backbone(10, seed=5)
        tr = trainer("mlm_only", 4, 10, k=2, seed=5, net=b)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)
        heads = [(h, f"init/head/{j}") for j, h in tr.heads.items()]
        heads += [(g.head, f"init/cascade/{g.start}") for g in tr.cascades if g.head]
        assert len(heads) == 3 + 2
        for head, stream in heads:
            fresh = AuxHead(head.name, 4, 10, named_stream(5, stream))
            for got, want in zip(head.parameters(), fresh.parameters()):
                np.testing.assert_array_equal(got.data, want.data)


class TestLeapReplicas:
    def test_ema_depth_schedule(self):
        # 48 units over K=16 -> 3 units per module; e_j = ceil(p*j/K)
        _, modules = partition(backbone(50), 16)
        pair2 = build_leap_replicas(modules, 2, 3, r=0.9)
        pair15 = build_leap_replicas(modules, 15, 3, r=0.9)
        assert pair2.ema_count == 1   # ceil(3*2/16)
        assert pair15.ema_count == 3  # ceil(3*15/16)

    def test_sources_at_depth_fractions(self):
        _, modules = partition(backbone(50), 16)
        pair = build_leap_replicas(modules, 2, 3, r=0.9)
        # candidates: units of modules 3..16 (42 units); fractions .1/.5/.9
        cands = [u for m in modules[2:] for u in m.units]
        expect = sorted({min(int(f * len(cands)), len(cands) - 1)
                         for f in (0.1, 0.5, 0.9)})
        got = [cands.index(src) for src in pair.sources]
        assert got == expect

    def test_replicas_are_deep_copies(self):
        _, modules = partition(backbone(10), 4)
        pair = build_leap_replicas(modules, 1, 2, r=0.9)
        src = pair.sources[0].conv.w
        phi = pair.phi_prime[0].conv.w
        ema = pair.phi_double[0].conv.w
        assert phi.data is not src.data and ema.data is not src.data
        np.testing.assert_array_equal(phi.data, src.data)
        assert phi.requires_grad and not ema.requires_grad

    def test_too_many_sources_rejected(self):
        _, modules = partition(backbone(10), 4)  # 8 units, module 3 -> 2 candidates
        with pytest.raises(ConfigError):
            build_leap_replicas(modules, 3, 5, r=0.9)

    def test_owner_must_be_interior(self):
        _, modules = partition(backbone(10), 4)
        with pytest.raises(ConfigError):
            build_leap_replicas(modules, 4, 1, r=0.9)

    def test_ema_step_blends(self):
        _, modules = partition(backbone(10), 4)
        pair = build_leap_replicas(modules, 1, 2, r=0.5)
        for unit in pair.phi_prime:
            for p in unit.parameters():
                p.data[...] = 1.0
        for unit in pair.phi_double:
            for p in unit.parameters():
                p.data[...] = 0.0
        pair.ema_step()
        for unit in pair.phi_double:
            for p in unit.parameters():
                np.testing.assert_allclose(p.data, 0.5)

    def test_resync_copies_live_values(self):
        _, modules = partition(backbone(10), 4)
        pair = build_leap_replicas(modules, 1, 1, r=0.9)
        pair.sources[0].conv.w.data[...] = 7.0
        resync_replicas(pair)
        np.testing.assert_allclose(pair.phi_prime[0].conv.w.data, 7.0)

    def test_apply_runs_stack(self):
        net = backbone(10)
        _, modules = partition(net, 4)
        pair = build_leap_replicas(modules, 1, 2, r=0.9)
        x = Tensor(np.random.default_rng(0).standard_normal((4, 4, 8, 8)).astype(np.float32))
        out = pair.apply(x)
        assert out.shape == x.shape


def identity_conv(channels):
    """A 3×3 conv that passes its input through (the identity at the centre
    tap, zero elsewhere), so `bn(conv, x, ...)` sees x."""
    conv = Conv2d("id", channels, channels, np.random.default_rng(0))
    conv.w.data[...] = 0.0
    conv.w.data[:, :, 1, 1] = np.eye(channels)
    return conv


class TestBatchNormState:
    def test_eval_before_train_raises(self):
        bn = BatchNorm2d("bn", 3)
        x = Tensor(np.ones((2, 3, 2, 2), dtype=np.float32))
        with pytest.raises(StateError):
            bn(identity_conv(3), x, training=False)

    def test_first_train_step_copies_stats(self):
        bn = BatchNorm2d("bn", 1)
        x = Tensor(np.array([1.0, 3.0], dtype=np.float32).reshape(2, 1, 1, 1))
        bn(identity_conv(1), x, training=True)
        assert bn.initialized
        assert bn.running_mean[0] == pytest.approx(2.0)
        assert bn.running_var[0] == pytest.approx(1.0)  # biased: ((1)^2+(1)^2)/2

    def test_later_steps_blend_with_momentum(self):
        bn = BatchNorm2d("bn", 1)
        x1 = Tensor(np.array([1.0, 3.0], dtype=np.float32).reshape(2, 1, 1, 1))
        x2 = Tensor(np.array([11.0, 13.0], dtype=np.float32).reshape(2, 1, 1, 1))
        conv = identity_conv(1)
        bn(conv, x1, training=True)
        bn(conv, x2, training=True)
        assert bn.running_mean[0] == pytest.approx(0.9 * 2.0 + 0.1 * 12.0)

    def test_update_stats_false_leaves_stats(self):
        bn = BatchNorm2d("bn", 1)
        x = Tensor(np.array([1.0, 3.0], dtype=np.float32).reshape(2, 1, 1, 1))
        conv = identity_conv(1)
        bn(conv, x, training=True)
        before = bn.running_mean.copy()
        bn(conv, Tensor(np.full((2, 1, 1, 1), 99.0, dtype=np.float32)),
           training=True, update_stats=False)
        np.testing.assert_array_equal(bn.running_mean, before)

    def test_warmup_initializes_everything(self):
        net = backbone(10)
        x = np.random.default_rng(0).standard_normal((4, 1, 8, 8)).astype(np.float32)
        warmup_batch_stats(net, x)
        assert all(bn.initialized for bn in net.batchnorms())


class TestBackboneShape:
    def test_forward_shapes(self):
        net = backbone(10, width=6)
        x = Tensor(np.random.default_rng(0).standard_normal((3, 1, 8, 8)).astype(np.float32))
        out = net.forward(x, training=True)
        assert out.shape == (3, 10)

    @pytest.mark.parametrize("arg,value,key", [
        ("depth", 2, "depth"),
        ("width", 0, "width"),
        ("num_classes", 1, "classes"),
        ("input_shape", (8, 8), "input_shape"),
        ("depth", 10.0, "depth"),
        ("width", True, "width"),
        ("width", 8.5, "width"),
        ("num_classes", "10", "classes"),
        ("input_shape", (True, 12, 12), "input_shape"),
        ("input_shape", (1, 12.0, 12), "input_shape"),
    ], ids=["depth", "width", "classes", "input_shape", "depth_float", "width_bool",
            "width_float", "classes_str", "input_shape_bool", "input_shape_float"])
    def test_bad_shape_names_its_key(self, arg, value, key):
        shape = {"depth": 10, "width": 4, "num_classes": 10, "input_shape": (1, 8, 8), arg: value}
        with pytest.raises(ConfigError, match=f"backbone.{key} must"):
            build_backbone(**shape, seed=0)

    def test_same_seed_same_init(self):
        a, b = backbone(10, seed=3), backbone(10, seed=3)
        for pa, pb in zip(a.parameters(), b.parameters()):
            np.testing.assert_array_equal(pa.data, pb.data)

    def test_different_seed_different_init(self):
        a, b = backbone(10, seed=3), backbone(10, seed=4)
        assert any(not np.array_equal(pa.data, pb.data)
                   for pa, pb in zip(a.parameters(), b.parameters()))

    def test_kaiming_scale(self):
        gen = named_stream(0, "test")
        conv = Conv2d("c", 64, 64, gen)
        fan_in = 64 * 9
        assert conv.w.data.std() == pytest.approx(np.sqrt(2.0 / fan_in), rel=0.1)

    def test_parameter_names_unique(self):
        net = backbone(18)
        names = [p.name for p in net.parameters()]
        assert len(names) == len(set(names))

    def test_eval_forward_stays_chwn_after_the_stem(self, monkeypatch):
        """Only the stem's images are re-laid out: every later layer gets the
        CHWN memory the one before it returned, and the pool gives (N, C) rows."""
        net = build_backbone(18, 8, 10, (1, 12, 12), seed=0)
        x = np.random.default_rng(0).standard_normal((130, 1, 12, 12)).astype(np.float32)
        warmup_batch_stats(net, x[:16])
        seen = {"conv_batchnorm2d_eval": [], "conv2d": [], "global_avg_pool": []}
        for name, inputs in seen.items():
            def spy(t, *args, inner=getattr(ops, name), inputs=inputs, **kwargs):
                inputs.append(t.data)
                return inner(t, *args, **kwargs)
            monkeypatch.setattr(ops, name, spy)
        logits = net.forward(Tensor(x), training=False).data
        layers, convs, pooled = seen.values()
        assert len(layers) == len(convs) == 17 and len(pooled) == 1
        assert layers[0].flags.c_contiguous and not ops._chwn(layers[0])
        assert all(ops._chwn(a) for a in layers[1:] + convs + pooled)
        assert logits.flags.c_contiguous
