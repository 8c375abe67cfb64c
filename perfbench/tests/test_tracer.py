"""Tests of the benchmark's tracer: self-time arithmetic and clean restore.

Run from the repository root:  python3 -m pytest perfbench/tests
"""

import types

import numpy as np
import pytest

import tracer
from tracer import COUNT, LEAF, SPAN, Tracer, self_times


def test_self_times_on_nested_span_tree():
    # root [0, 10] holds a [1, 4] and b [5, 9]; a holds c [2, 3]; b spent
    # 1.5 s in timed leaves; a second root-level "a" [10, 12] adds up by name.
    spans = [
        ("root", 0.0, 10.0, None, 0.0),
        ("a", 1.0, 4.0, 0, 0.0),
        ("c", 2.0, 3.0, 1, 0.0),
        ("b", 5.0, 9.0, 0, 1.5),
        ("a", 10.0, 12.0, None, 0.25),
    ]
    got = self_times(spans)
    assert got == pytest.approx({"root": 3.0, "a": 2.0 + 1.75, "c": 1.0, "b": 2.5})
    # Self times partition the root-level wall time together with leaf time.
    assert sum(got.values()) + 1.5 + 0.25 == pytest.approx(12.0)


class FakeClock:
    """Advances by a fixed step on every reading."""

    def __init__(self, step=1.0):
        self.now, self.step = 0.0, step

    def __call__(self):
        self.now += self.step
        return self.now


def _fake_module():
    mod = types.ModuleType("fake.layer")
    exec(
        "def leaf(x):\n    return x + 1\n"
        "def counted(x):\n    return 2 * x\n"
        "def inner(x):\n    return counted(leaf(x))\n"
        "def outer(x):\n    return inner(x) + inner(x)\n",
        mod.__dict__,
    )
    for fn in ("leaf", "counted", "inner", "outer"):
        mod.__dict__[fn].__module__ = "fake.layer"
    return mod


def test_tracer_spans_leaves_and_counts_with_fake_clock():
    mod = _fake_module()
    originals = {n: getattr(mod, n) for n in ("leaf", "counted", "inner", "outer")}
    t = Tracer(clock=FakeClock())
    t.patch(mod, "outer", SPAN)
    t.patch(mod, "inner", SPAN)
    t.patch(mod, "leaf", LEAF)
    t.patch(mod, "counted", COUNT)
    try:
        assert mod.outer(1) == 8
    finally:
        t.restore()
    assert all(getattr(mod, n) is fn for n, fn in originals.items())
    assert t.calls == {"layer.outer": 1, "layer.inner": 2, "layer.leaf": 2, "layer.counted": 2}
    # Clock readings: outer start 1; inner start 2, leaf 3-4, inner end 5;
    # inner start 6, leaf 7-8, inner end 9; outer end 10.
    assert [(n, s, e, p) for n, s, e, p, _ in t.spans] == [
        ("layer.outer", 1.0, 10.0, None),
        ("layer.inner", 2.0, 5.0, 0),
        ("layer.inner", 6.0, 9.0, 0),
    ]
    assert t.leaf_s["layer.leaf"] == 2.0
    assert t.self_times() == {"layer.outer": 3.0, "layer.inner": 4.0}


def test_traced_run_restores_every_wrapped_name(tmp_path):
    from specklemem import cli, ensemble
    from specklemem.photons import QuantumState

    before = {(m.__name__, k): v for m in (cli, ensemble) for k, v in vars(m).items()}
    t = Tracer()
    tracer.install(t, cli, ensemble)
    wrapped = [(m.__name__, a) for m, a, _ in t._patches]
    try:
        assert all(getattr(m, a) is not before[(m.__name__, a)] for m, a, _ in t._patches)
        out = tmp_path / "fig1.csv"
        assert cli.main(["curves", "fig1", "--grid-points", "4", "--out", str(out)]) == 0
        ens = ensemble.build_ensemble(np.array([0.0, 1.0, 2.0]), 0.01, 50, seed=7)
        ensemble.estimate_noise_correlation(
            ens, QuantumState.coherent(5.0), mode="counting", shots=10, seed=7, n_boot=2
        )
        path = tmp_path / "ens.csv"
        ensemble.save_ensemble_csv(ens, path)
        ensemble.load_ensemble_csv(path)
    finally:
        t.restore()

    after = {(m.__name__, k): v for m in (cli, ensemble) for k, v in vars(m).items()}
    assert after == before
    assert len(wrapped) == len(set(wrapped)) > 20
    # Counts implied by the code: 5 grid points x 2 closed forms in fig1,
    # K(K+1)/2 kernel calls, R field plus R count substreams plus 1 bootstrap.
    assert t.calls["correlations.shot_noise_correlation"] == 5
    assert t.calls["correlations.classical_noise_correlation"] == 5
    assert t.calls["ensemble.field_kernel"] == 6
    assert t.calls["ensemble.substream"] == 101
    assert t.calls["photons.sample_transmitted_counts"] == 150
    assert t.observed["ensemble.generate_ensemble.amplitude_bytes"] == 50 * 3 * 16
    assert set(t.self_times()) >= {
        "cli.cmd_curves", "ensemble.build_ensemble", "ensemble.build_field_covariance",
        "ensemble.generate_ensemble", "ensemble.estimate_noise_correlation",
        "ensemble.save_ensemble_csv", "ensemble.load_ensemble_csv",
    }
