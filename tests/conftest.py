import numpy as np
import pytest

import mlaan
from mlaan import ops


@pytest.fixture(autouse=True)
def _float32_default():
    """Each test starts from the float32 default dtype."""
    mlaan.set_default_dtype(np.float32)
    yield
    mlaan.set_default_dtype(np.float32)


@pytest.fixture(scope="session")
def tiny_data():
    """Small synthetic split shared by trainer-level tests."""
    return mlaan.synth_dataset(n_per_class=10, seed=3, image_size=12)


def make_trainer(kind="mlaan", K=3, depth=8, width=4, seed=9, k=2, p=1, r=0.9,
                 lr=0.1, image=12, classes=10, **kw):
    net = mlaan.build_backbone(depth, width, classes, (1, image, image), seed=seed)
    mode = mlaan.TrainerMode(mode=kind, k=k, p=p, r=r, **kw)
    return mlaan.Trainer(net, K, mode, mlaan.OptimizerConfig(lr=lr), seed=seed)


def warmup_batch_stats(backbone, x):
    """One statistics-only training-mode forward, for evaluating untrained nets."""
    backbone.forward(mlaan.Tensor(x), training=True)


@pytest.fixture
def trainer_factory():
    return make_trainer


def record_patches(monkeypatch):
    """(patches, values per patch) of every patch matrix the conv builds from
    now on: the rows of `ops._patches`, the columns of the CHWN forward's
    K-major `ops._row_patches`."""
    shapes = []

    def recording(inner, patches_axis):
        def build(*args, **kwargs):
            cols = inner(*args, **kwargs)
            shapes.append((cols.shape[patches_axis], cols.shape[1 - patches_axis]))
            return cols
        return build

    monkeypatch.setattr(ops, "_patches", recording(ops._patches, 0))
    monkeypatch.setattr(ops, "_row_patches", recording(ops._row_patches, 1))
    return shapes
