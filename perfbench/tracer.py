"""In-memory tracer that wraps specklemem's public functions from outside.

The tracer patches module attributes where callers look them up (for
example ``specklemem.cli.cmd_validate`` or ``specklemem.ensemble.substream``)
and ``restore`` puts every original back.  Three wrapper kinds:

* span  -- records ``[name, start, end, parent, leaf_s]``; ``leaf_s`` is the
  time spent in timed leaves called directly under the span;
* leaf  -- counts calls and sums their time, recording no span; the time is
  charged to the enclosing span as child time (hot scalar boundaries such as
  ``substream`` or the closed forms);
* count -- counts calls only, so their time stays in the enclosing span
  (``field_kernel``, two million calls per fine covariance build).

Spans stay in memory; ``spans_json`` renders them once the run is over.
"""

from __future__ import annotations

import functools
import time
from collections import Counter, defaultdict

SPAN, LEAF, COUNT = "span", "leaf", "count"


def layer_name(fn) -> str:
    """``specklemem.ensemble.substream`` -> ``ensemble.substream``."""
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


def self_times(spans) -> dict[str, float]:
    """Self time per span name: duration minus child spans and timed leaves.

    ``spans`` is a sequence of ``(name, start, end, parent, leaf_s)`` where
    ``parent`` is the index of the enclosing span or None.  Calls are
    sequential, so child intervals never overlap and their durations add.
    """
    child = [0.0] * len(spans)
    for name, start, end, parent, _ in spans:
        if parent is not None:
            child[parent] += end - start
    out: dict[str, float] = defaultdict(float)
    for i, (name, start, end, _, leaf_s) in enumerate(spans):
        out[name] += (end - start) - child[i] - leaf_s
    return dict(out)


class Tracer:
    """Collects spans, leaf timings and counts while installed."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.calls: Counter = Counter()
        self.leaf_s: dict[str, float] = defaultdict(float)
        self.observed: Counter = Counter()
        self._stack: list[int] = []
        self._in_leaf = False
        self._patches: list[tuple[object, str, object]] = []

    def _span(self, fn, observe):
        name = layer_name(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            record = [name, self.clock(), 0.0, self._stack[-1] if self._stack else None, 0.0]
            self._stack.append(len(self.spans))
            self.spans.append(record)
            self.calls[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = self.clock()
                self._stack.pop()
            if observe is not None:
                for key, value in observe(result).items():
                    self.observed[key] += value
            return result

        return wrapper

    def _leaf(self, fn):
        name = layer_name(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            if self._in_leaf:
                return fn(*args, **kwargs)
            self._in_leaf = True
            start = self.clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = self.clock() - start
                self._in_leaf = False
                self.leaf_s[name] += elapsed
                if self._stack:
                    self.spans[self._stack[-1]][4] += elapsed

        return wrapper

    def _count(self, fn):
        name = layer_name(fn)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            self.calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def patch(self, module, attr: str, kind: str, observe=None) -> None:
        original = getattr(module, attr)
        if kind == SPAN:
            wrapper = self._span(original, observe)
        elif kind == LEAF:
            wrapper = self._leaf(original)
        elif kind == COUNT:
            wrapper = self._count(original)
        else:
            raise ValueError(f"unknown wrapper kind {kind!r}")
        self._patches.append((module, attr, original))
        setattr(module, attr, wrapper)

    def restore(self) -> None:
        """Put every patched attribute back, newest first."""
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def self_times(self) -> dict[str, float]:
        return self_times(self.spans)

    def spans_json(self) -> list[dict]:
        return [
            {"name": n, "start": s, "end": e, "parent": p, "leaf_s": leaf}
            for n, s, e, p, leaf in self.spans
        ]


# Public functions wrapped where their callers look them up.  cmd_* and the
# library entry points are spans; hot scalar boundaries are leaves or counts.
CLOSED_FORMS = (
    "shot_noise_correlation",
    "classical_noise_correlation",
    "quantum_noise_correlation",
    "noise_correlation_expansion",
)


def _amplitude_bytes(ens) -> dict:
    return {"ensemble.generate_ensemble.amplitude_bytes": ens.amplitudes.nbytes}


def _clamped(estimate) -> dict:
    return {"ensemble.n_clamped": estimate.n_clamped}


def install(tracer: Tracer, cli, ensemble) -> None:
    """Wrap specklemem's public functions in the cli and ensemble namespaces."""
    for attr in ("cmd_validate", "cmd_curves"):
        tracer.patch(cli, attr, SPAN)
    for attr in CLOSED_FORMS:
        tracer.patch(cli, attr, LEAF)
    for module in (cli, ensemble):
        tracer.patch(module, "build_ensemble", SPAN)
        tracer.patch(module, "estimate_moments", SPAN)
        tracer.patch(module, "estimate_noise_correlation", SPAN, observe=_clamped)
        tracer.patch(module, "rayleigh_check", SPAN)
    tracer.patch(ensemble, "build_field_covariance", SPAN)
    tracer.patch(ensemble, "generate_ensemble", SPAN, observe=_amplitude_bytes)
    tracer.patch(ensemble, "field_kernel", COUNT)
    tracer.patch(ensemble, "substream", LEAF)
    tracer.patch(ensemble, "sample_transmitted_counts", LEAF)
    tracer.patch(ensemble, "transmitted_variance_quantum", SPAN)
    tracer.patch(ensemble, "transmitted_variance_classical", SPAN)
    tracer.patch(ensemble, "save_ensemble_csv", SPAN)
    tracer.patch(ensemble, "load_ensemble_csv", SPAN)
