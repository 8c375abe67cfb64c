"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines inline.  Heavy Monte Carlo artifacts (the two 1e5-realization
ensembles) are built once and cached; their build time is charged to the
first criterion that uses them, which stays far inside its budget.
"""

import json
import math
import time

import numpy as np
import pytest

import specklemem as sm
from specklemem import cli
from specklemem.ensemble import COUNT_STREAM

SEED = 20260810
MEAN_T = 0.01
REALIZATIONS = 100_000
CURVE_GRID = np.concatenate(([0.0], np.geomspace(1e-2, 1e2, 25)))
MOMENT_GRID = np.array([0.0, 0.5, 1.0, 2.0, 4.0, 8.0, 16.0])

_CACHE: dict = {}


def _cached(key, builder):
    if key not in _CACHE:
        _CACHE[key] = builder()
    return _CACHE[key]


def _moment_report():
    def build():
        ens = sm.build_ensemble(MOMENT_GRID, MEAN_T, REALIZATIONS, SEED)
        return sm.estimate_moments(ens)

    return _cached("moment_report", build)


def _curve_ensemble():
    return _cached(
        "curve_ensemble",
        lambda: sm.build_ensemble(CURVE_GRID, MEAN_T, REALIZATIONS, SEED),
    )


def _finish(number, description, t0, budget, ok, detail=""):
    elapsed = time.perf_counter() - t0
    in_time = elapsed <= budget
    status = "PASS" if (ok and in_time) else "FAIL"
    suffix = f" :: {detail}" if detail else ""
    print(f"CRITERION {number}: {status} ({elapsed:.2f}s/{budget:.0f}s) {description}{suffix}")
    assert in_time, f"criterion {number} exceeded its {budget}s budget ({elapsed:.2f}s)"
    assert ok, f"criterion {number} failed{': ' + detail if detail else ''}"


def test_criterion_1_fig1_anchors_and_identity(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "fig1.csv"
    code = cli.main(["curves", "fig1", "--out", str(out)])
    lines = out.read_text().splitlines()
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    zero_row = rows[rows[:, 0] == 0.0][0]
    anchor_ok = abs(zero_row[1] - 1.0) <= 1e-9 and abs(zero_row[2] - 5.0) <= 1e-9
    identity = np.abs(rows[:, 2] - (rows[:, 1] ** 2 + 4.0 * rows[:, 1])).max()
    ok = code == 0 and anchor_ok and identity <= 1e-12
    _finish(
        1,
        "fig1 anchors c_sn(0)=1, c_cn(0)=5 and grid-wide identity",
        t0,
        1.0,
        ok,
        f"anchors=({float(zero_row[1])!r}, {float(zero_row[2])!r}), "
        f"max identity residual={identity:.2e}",
    )


def test_criterion_2_first_order_expansion_ratio_window():
    # Removing the linear term c + 4 F c q (F = fano - 1) from the closed form
    # leaves R(q) = A q^2 + B q^3 + C q^4 + O(q^5), with
    #   A = 4 F^2 c (c - 1),  B = -16 F^3 c^2,  C = 16 F^4 c (3 c + 1).
    # Each decade of q must shrink |R| by the ratio this series predicts,
    # within 0.8-1.2 of it.  The shrinkage is ~100x only where A q^2 dominates
    # (x = 16); at small x the cubic term leads, since A vanishes as c -> 1.
    t0 = time.perf_counter()
    qs = (1e-2, 1e-3, 1e-4)
    rel = {}
    for x in (0.5, 4.0, 16.0):
        c = sm.intensity_decay(x)
        for fano in (0.0, 2.0):
            F = fano - 1.0
            A = 4.0 * F * F * c * (c - 1.0)
            B = -16.0 * F ** 3 * c * c
            C = 16.0 * F ** 4 * c * (3.0 * c + 1.0)
            series = [A * q * q + B * q ** 3 + C * q ** 4 for q in qs]
            residuals = [
                sm.quantum_noise_correlation(x, fano, q) - c - 4.0 * F * c * q
                for q in qs
            ]
            rel[(x, fano)] = tuple(
                abs(residuals[i] / residuals[i + 1]) / abs(series[i] / series[i + 1])
                for i in range(len(qs) - 1)
            )
    ok = all(0.8 <= r <= 1.2 for pair in rel.values() for r in pair)
    detail = "measured/expected decade ratios " + "; ".join(
        f"x={x:g},fano={f:g}: {a:.3f},{b:.3f}" for (x, f), (a, b) in rel.items()
    )
    _finish(
        2,
        "first-order residual shrinks per decade of mean_t within 0.8-1.2 of "
        "the ratio of its series A q^2 + B q^3 + C q^4",
        t0,
        1.0,
        ok,
        detail,
    )


def test_criterion_3_gaussian_moment_suite():
    t0 = time.perf_counter()
    report = _moment_report()
    checked = []
    for name in ("T2", "T3", "T4"):
        checked.extend(report.by_name(name))
    pair_offsets = {0.5, 1.0, 2.0, 4.0, 8.0, 16.0}
    for name in ("TT", "T2T", "T2T2"):
        checked.extend(r for r in report.by_name(name) if r.offset in pair_offsets)
    assert len(checked) == 3 + 3 * 6
    worst = max(abs(r.z) for r in checked)
    _finish(
        3,
        "moments <T^n>=n! T^n and pair moments within 5 standard errors at R=1e5",
        t0,
        60.0,
        worst <= 5.0,
        f"max |z| = {worst:.2f} over {len(checked)} moments",
    )


def test_criterion_4_monte_carlo_noise_curves():
    t0 = time.perf_counter()
    ens = _curve_ensemble()
    shot = sm.estimate_noise_correlation(ens, sm.QuantumState.coherent(10.0))
    classical = sm.estimate_noise_correlation(ens, sm.CLASSICAL)
    z_shot = max(
        abs(v - sm.shot_noise_correlation(x)) / e
        for x, v, e in zip(shot.curve.offsets, shot.curve.values, shot.curve.stderr)
    )
    z_classical = max(
        abs(v - sm.classical_noise_correlation(x)) / e
        for x, v, e in zip(
            classical.curve.offsets, classical.curve.values, classical.curve.stderr
        )
    )
    z_zero = abs(classical.curve.values[0] - 5.0) / classical.curve.stderr[0]
    ok = z_shot <= 3.0 and z_classical <= 3.0 and z_zero <= 3.0
    _finish(
        4,
        "MC shot-noise and classical curves within 3 sigma pointwise at R=1e5",
        t0,
        60.0,
        ok,
        f"max |z|: shot={z_shot:.2f}, classical={z_classical:.2f}, zero-offset={z_zero:.2f}",
    )


def test_criterion_5_photon_count_fano_oracles():
    t0 = time.perf_counter()
    shots = 1_000_000
    worst = 0.0
    cases = []
    for i, state in enumerate(
        (sm.QuantumState.fock(10), sm.QuantumState.coherent(10.0), sm.QuantumState.thermal(1.0))
    ):
        for j, transmission in enumerate((0.1, 0.5, 0.9)):
            rng = sm.substream(SEED, 10 * i + j, COUNT_STREAM)
            counts = sm.sample_transmitted_counts(state, transmission, shots, rng)
            summary = sm.summarize_counts(counts)
            theory = 1.0 + (state.fano - 1.0) * transmission
            n_sigma = abs(summary.fano - theory) / summary.stderr_fano
            worst = max(worst, n_sigma)
            cases.append(f"{state.kind}/T={transmission:g}: {n_sigma:.2f}")
    _finish(
        5,
        "sampler Fano factors match 1 + (F-1) T within 5 sigma at 1e6 shots",
        t0,
        30.0,
        worst <= 5.0,
        f"max n_sigma = {worst:.2f} [{'; '.join(cases)}]",
    )


def test_criterion_6_fig2_qualitative_properties(tmp_path):
    t0 = time.perf_counter()
    out = tmp_path / "fig2.csv"
    code = cli.main(["curves", "fig2", "--out", str(out)])
    lines = out.read_text().splitlines()
    header = lines[0].split(",")
    rows = np.array([[float(v) for v in line.split(",")] for line in lines[1:]])
    col = {name: rows[:, i] for i, name in enumerate(header)}

    # (a) subtracting the classical term leaves the sign of fano - 1
    sign_ok = all(
        np.all(col[f"c2_f0_r{r}"] - col[f"c2_f1_r{r}"] < 0)
        and np.all(col[f"c2_f2_r{r}"] - col[f"c2_f1_r{r}"] > 0)
        for r in (3, 4, 5)
    )
    # (b) Fock and thermal columns symmetric about the coherent one
    symmetry = max(
        np.abs(col[f"c2_f0_r{r}"] + col[f"c2_f2_r{r}"] - 2.0 * col[f"c2_f1_r{r}"]).max()
        for r in (3, 4, 5)
    )
    # (c) the classical term grows with the thickness ratio
    mono_ok = np.all(col["c2_f1_r3"] < col["c2_f1_r4"]) and np.all(
        col["c2_f1_r4"] < col["c2_f1_r5"]
    )
    # (d) divergence proxy of the mesoscopic kernel
    proxy = sm.mesoscopic_kernel(1e-6)
    ok = code == 0 and sign_ok and symmetry <= 1e-12 and mono_ok and proxy > 100.0
    _finish(
        6,
        "fig2 sign/symmetry/monotonicity properties and divergence proxy",
        t0,
        1.0,
        ok,
        f"sign={sign_ok}, symmetry residual={symmetry:.2e}, "
        f"monotone={bool(mono_ok)}, kernel(1e-6)={proxy:.1f}",
    )


def test_criterion_7_no_mesoscopic_term_in_gaussian_mc():
    t0 = time.perf_counter()
    report = _moment_report()
    records = report.by_name("TT")
    worst = max(abs(r.z) for r in records)
    _finish(
        7,
        "Gaussian MC pair moment shows no mesoscopic residual (|z| <= 3)",
        t0,
        60.0,
        worst <= 3.0,
        f"max |z| = {worst:.2f} over {len(records)} offsets",
    )


def test_criterion_8_validate_reports_reproducible(tmp_path):
    t0 = time.perf_counter()
    base = [
        "validate",
        "--seed",
        str(SEED),
        "--realizations",
        "2000",
        "--grid-points",
        "7",
        "--shots",
        "300",
    ]
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    code_a = cli.main(base + ["--out", str(a)])
    code_b = cli.main(base + ["--out", str(b)])
    identical = a.read_bytes() == b.read_bytes()
    ok = code_a == 0 and code_b == 0 and identical
    _finish(
        8,
        "two validate runs with the same seed give byte-identical reports",
        t0,
        60.0,
        ok,
        f"exit codes=({code_a}, {code_b}), identical={identical}",
    )
