"""The schedule of a BLSTM layer's two directions and the memory of one
LSTM direction.

Above `CONCURRENT_W_H_BYTES` of recurrent weights, and with a spare CPU
(more than one usable CPU and a BLAS pinned to one thread), `BlstmLayer`
runs its forward direction on a worker thread while the calling thread
runs the reverse one. Either schedule must give the same bits. The tests
pin `_spare_cpu` with monkeypatch, so they check both schedules on any
machine; `test_schedule_follows_the_rule` checks the unpatched rule.
"""

import os
import threading
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest

from amcrn import autodiff as ad
from amcrn import model
from amcrn.autodiff import Parameter, Tensor
from amcrn.model import (AmcrnModel, BlstmLayer, LstmDirection, checkpoint_bytes,
                         restore_model, tiny_config)
from amcrn.training import minibatch_backward

# H = 450 (the paper's BLSTM) puts w_h above the threshold in float32
# (3.24 MB) and float64 (6.48 MB).
PAPER_HIDDEN = 450


class CountingExecutor(ThreadPoolExecutor):
    """Stands in for the executor `model` starts per concurrent layer call
    and counts the submissions made to any instance."""

    submitted = 0

    def submit(self, fn, *args, **kwargs):
        CountingExecutor.submitted += 1
        return super().submit(fn, *args, **kwargs)


@pytest.fixture
def executor(monkeypatch):
    monkeypatch.setattr(CountingExecutor, "submitted", 0)
    monkeypatch.setattr(model, "ThreadPoolExecutor", CountingExecutor)
    return CountingExecutor


def set_spare_cpu(monkeypatch, spare):
    monkeypatch.setattr(model, "_spare_cpu", lambda: spare)


def params(layer):
    """The layer's Parameters in order, from `model.named_arrays`."""
    return [p for _, p, _ in model.named_arrays(layer) if isinstance(p, Parameter)]


def paper_layer(dtype, d_in=16, seed=0):
    layer = BlstmLayer("bl", d_in, PAPER_HIDDEN, np.random.default_rng(seed))
    for p in params(layer):
        p.data = p.data.astype(dtype)
    return layer


def features(shape, dtype, seed=1):
    return np.random.default_rng(seed).standard_normal(shape).astype(dtype)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("batch", [1, 3])
def test_threaded_equals_inline(monkeypatch, executor, dtype, batch):
    layer = paper_layer(dtype)
    assert layer.fwd.w_h.data.nbytes >= model.CONCURRENT_W_H_BYTES
    x = features((batch, 5, 16), dtype)
    with ad.no_grad():
        set_spare_cpu(monkeypatch, False)
        inline = layer(x).data
        assert executor.submitted == 0
        set_spare_cpu(monkeypatch, True)
        threaded = layer(x).data
        assert executor.submitted == 1
        fwd = layer.fwd(x, reverse=False).data
        bwd = layer.bwd(x, reverse=True).data
    assert threaded.dtype == dtype and threaded.shape == (batch, 5, 2 * PAPER_HIDDEN)
    assert np.array_equal(threaded, inline)
    assert np.array_equal(threaded, np.concatenate([fwd, bwd], axis=-1))


def test_threaded_taped_pass_equals_inline(monkeypatch, executor):
    """With the tape on, the worker's direction joins the same graph: the
    output and every gradient are the inline pass's bits."""
    results = []
    for spare in (False, True):
        set_spare_cpu(monkeypatch, spare)
        layer = paper_layer(np.float64, d_in=3)
        x = Tensor(features((2, 3, 3), np.float64), requires_grad=True)
        out = layer(x)
        ad.tsum(out * out).backward()
        results.append([out.data, x.grad] + [p.grad for p in params(layer)])
    assert executor.submitted == 1
    for inline, threaded in zip(*results):
        assert np.array_equal(threaded, inline)


def test_worker_runs_the_forward_direction(monkeypatch, executor):
    set_spare_cpu(monkeypatch, True)
    threads = {}
    call = LstmDirection.__call__

    def spy(self, x, reverse):
        threads[reverse] = threading.current_thread()
        return call(self, x, reverse)

    monkeypatch.setattr(LstmDirection, "__call__", spy)
    with ad.no_grad():
        paper_layer(np.float32)(features((1, 4, 16), np.float32))
    assert threads[True] is threading.main_thread()
    assert threads[False] is not threading.main_thread()


def test_worker_exception_propagates_and_next_call_works(monkeypatch, executor):
    set_spare_cpu(monkeypatch, True)
    layer = paper_layer(np.float32)
    x = features((1, 4, 16), np.float32)
    with ad.no_grad():
        want = layer(x).data
    call = LstmDirection.__call__
    reverse_done = []

    class Boom(Exception):
        pass

    def failing(self, x, reverse):
        if not reverse:
            raise Boom("forward direction failed")
        out = call(self, x, reverse)
        reverse_done.append(True)
        return out

    monkeypatch.setattr(LstmDirection, "__call__", failing)
    with ad.no_grad(), pytest.raises(Boom, match="forward direction failed"):
        layer(x)
    assert reverse_done == [True]  # the calling thread finished its direction
    monkeypatch.setattr(LstmDirection, "__call__", call)
    with ad.no_grad():
        assert np.array_equal(layer(x).data, want)
    assert executor.submitted == 3


def test_small_layers_stay_inline(monkeypatch, executor):
    """Per-step overhead bounds a small layer, so the worker would only
    add to it: H = 256 in float32 (1 MiB of w_h) runs inline."""
    set_spare_cpu(monkeypatch, True)
    layer = BlstmLayer("bl", 8, 256, np.random.default_rng(0))
    for p in params(layer):
        p.data = p.data.astype(np.float32)
    with ad.no_grad():
        layer(features((1, 3, 8), np.float32))
    assert executor.submitted == 0


def acceptance_preset(n_classes):
    """The acceptance-test network: 80 mels, 64 channels, 4 scales, BLSTM
    hidden 64, 256-d embedding."""
    return tiny_config(n_mels=80, channels=64, n_scales=4, hidden=64,
                       embedding_dim=256, n_classes=n_classes)


def test_acceptance_preset_never_submits(monkeypatch, executor):
    """The eval and train shapes of the acceptance preset run inline:
    float64 and float32 embedding, and a taped training minibatch."""
    set_spare_cpu(monkeypatch, True)
    net = AmcrnModel(acceptance_preset(4), seed=0)
    lms = features((2, 200, 80), np.float64)
    net.embed(lms)
    restore_model(checkpoint_bytes(net), np.float32).embed(lms.astype(np.float32))
    rng = np.random.default_rng(2)
    batch = [(0.1 * rng.standard_normal(40000), label) for label in (0, 1, 2)]
    minibatch_backward(net, batch, 2.0, rng)
    assert executor.submitted == 0


def test_schedule_follows_the_rule(executor):
    """Unpatched: one layer of the paper's size submits once with a spare
    CPU and never without one (for example under taskset -c 0)."""
    with ad.no_grad():
        paper_layer(np.float32)(features((1, 3, 16), np.float32))
    assert executor.submitted == (1 if model._spare_cpu() else 0)


@pytest.mark.parametrize("blas_one_thread, cpus, spare", [
    (True, 2, True), (True, 1, False), (False, 2, False), (False, 1, False)])
def test_spare_cpu_needs_one_blas_thread_and_two_cpus(monkeypatch, blas_one_thread, cpus,
                                                       spare):
    """A BLAS left to its default threads every large product over all
    cores already, so a second thread of products would oversubscribe."""
    monkeypatch.setattr(model, "_BLAS_ONE_THREAD", blas_one_thread)
    monkeypatch.setattr(model, "_usable_cpus", lambda: cpus)
    assert model._spare_cpu() is spare


@pytest.mark.parametrize("files, quota_cpus", [
    ({"cpu.max": "50000 100000\n"}, 1),
    ({"cpu.max": "150000 100000\n"}, 2),
    ({"cpu.max": "max 100000\n"}, None),
    ({"cfs_quota_us": "100000\n", "cfs_period_us": "100000\n"}, 1),
    ({"cfs_quota_us": "-1\n", "cfs_period_us": "100000\n"}, None),
    ({}, None),
])
def test_cgroup_quota_caps_the_usable_cpus(monkeypatch, tmp_path, files, quota_cpus):
    """cgroup v2 and v1 quota files, as a container with four CPUs in its
    affinity would see them: a quota of one CPU's time leaves one."""
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    monkeypatch.setattr(model, "CGROUP_CPU_QUOTA", (
        (str(tmp_path / "cpu.max"),),
        (str(tmp_path / "cfs_quota_us"), str(tmp_path / "cfs_period_us"))))
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3})
    assert model._cgroup_cpus() == quota_cpus
    assert model._usable_cpus() == (quota_cpus or 4)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_tape_free_lstm_copies_no_recurrent_weights(dtype):
    """A tape-free call at T = 4 and H = 450 allocates the 4 x 4H input
    projection and a few B x 4H step buffers, and no H x 4H array."""
    rng = np.random.default_rng(3)
    direction = LstmDirection("l", 4, PAPER_HIDDEN, rng)
    weights = [p.data.astype(dtype) for p in params(direction)]
    x = rng.standard_normal((1, 4, 4)).astype(dtype)
    with ad.no_grad():
        tracemalloc.start()
        try:
            out = ad.lstm(x, *weights)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    assert out.data.shape == (1, 4, PAPER_HIDDEN)
    assert peak < weights[1].nbytes / 8, peak
