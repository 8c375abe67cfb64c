"""Photon statistics: state invariants, variance law, sampler oracles."""

import math

import numpy as np
import pytest

import specklemem as sm
from specklemem.errors import DomainError, UnsupportedSamplingError
from specklemem.photons import _checked_transmission


def _rng(seed):
    return np.random.Generator(np.random.Philox(key=seed))


# --- quantum state constructors ---------------------------------------------


def test_state_constructors():
    fock = sm.QuantumState.fock(10)
    assert (fock.mean_photons, fock.fano, fock.kind) == (10.0, 0.0, "fock")
    coh = sm.QuantumState.coherent(3.5)
    assert (coh.mean_photons, coh.fano, coh.kind) == (3.5, 1.0, "coherent")
    th = sm.QuantumState.thermal(1.0)
    assert (th.mean_photons, th.fano, th.kind) == (1.0, 2.0, "thermal")
    cus = sm.QuantumState.custom(2.0, 0.7)
    assert (cus.mean_photons, cus.fano, cus.kind) == (2.0, 0.7, "custom")


@pytest.mark.parametrize(
    "kwargs",
    [
        {"mean_photons": -1.0, "fano": 1.0},
        {"mean_photons": 1.0, "fano": -0.5},
        {"mean_photons": 2.5, "fano": 0.0, "kind": "fock"},
        {"mean_photons": 2.0, "fano": 0.5, "kind": "coherent"},
        {"mean_photons": 2.0, "fano": 2.0, "kind": "thermal"},
        {"mean_photons": 1.0, "fano": 1.0, "kind": "squeezed"},
    ],
)
def test_state_rejects_invalid(kwargs):
    with pytest.raises(DomainError):
        sm.QuantumState(**kwargs)


# --- transmitted variance ----------------------------------------------------


def test_variance_coherent_is_shot_noise():
    state = sm.QuantumState.coherent(10.0)
    assert sm.transmitted_variance_quantum(state, 0.3) == pytest.approx(3.0, rel=1e-14)


def test_variance_fock_matches_binomial_oracle():
    # Binomial(n, T) has variance n T (1 - T).
    for n in (1, 5, 10, 20):
        for t in (0.1, 0.25, 0.5, 0.9):
            got = sm.transmitted_variance_quantum(sm.QuantumState.fock(n), t)
            assert got == pytest.approx(n * t * (1.0 - t), rel=1e-13)


def test_variance_thermal_matches_bose_einstein_oracle():
    # Bose-Einstein with mean mu has variance mu + mu^2.
    got = sm.transmitted_variance_quantum(sm.QuantumState.thermal(10.0), 0.3)
    assert got == pytest.approx(3.0 + 9.0, rel=1e-13)


def test_variance_fock_identity_exact():
    for n in (1, 3, 10):
        for t in (0.1, 0.25, 0.5, 0.9):
            ratio = sm.transmitted_variance_quantum(sm.QuantumState.fock(n), t) / (n * t)
            assert math.isclose(ratio, 1.0 - t, rel_tol=1e-15)


def test_variance_accepts_arrays():
    state = sm.QuantumState.thermal(2.0)
    t = np.array([0.0, 0.5, 1.0])
    got = sm.transmitted_variance_quantum(state, t)
    np.testing.assert_allclose(got, 2.0 * t + 4.0 * t * t, rtol=1e-14)


def test_variance_rejects_bad_transmission():
    state = sm.QuantumState.coherent(1.0)
    for t in (-0.1, 1.1, math.nan):
        with pytest.raises(DomainError):
            sm.transmitted_variance_quantum(state, t)


@pytest.mark.parametrize("value,expected", [
    (0, 0.0),
    (1, 1.0),
    (True, 1.0),
    (-0.0, -0.0),
    (np.float32(0.25), 0.25),
    (np.array(0.3), 0.3),
    ("0.5", 0.5),
], ids=repr)
def test_transmission_check_accepts_real_scalars(value, expected):
    t = _checked_transmission(value)
    assert type(t) is float and t == expected
    assert math.copysign(1.0, t) == math.copysign(1.0, expected)
    thermal = sm.QuantumState.thermal(2.0)
    assert sm.transmitted_variance_quantum(thermal, value) == 2.0 * expected + 4.0 * expected ** 2
    assert sm.transmitted_variance_classical(3.0, value) == 9.0 * expected * expected
    counts = sm.sample_transmitted_counts(thermal, value, 50, _rng(7))
    np.testing.assert_array_equal(counts, sm.sample_transmitted_counts(thermal, expected, 50, _rng(7)))


@pytest.mark.parametrize("value", [
    math.nan, math.inf, -math.inf, -0.1, 1.1, None, "abc", 0.5 + 0j, np.complex128(0.5),
], ids=repr)
def test_transmission_check_rejects_non_real_or_out_of_range(value):
    state = sm.QuantumState.coherent(1.0)
    with pytest.raises(DomainError):
        sm.transmitted_variance_quantum(state, value)
    with pytest.raises(DomainError):
        sm.transmitted_variance_classical(1.0, value)
    with pytest.raises(DomainError):
        sm.sample_transmitted_counts(state, value, 10, _rng(0))


def test_classical_variance():
    assert sm.transmitted_variance_classical(10.0, 0.3, 1.0) == pytest.approx(9.0, rel=1e-12)
    assert sm.transmitted_variance_classical(10.0, 0.0) == 0.0
    one = sm.transmitted_variance_classical(7.0, 0.4, noise_scale=1.0)
    assert sm.transmitted_variance_classical(7.0, 0.4, noise_scale=2.0) == 2.0 * one
    with pytest.raises(DomainError):
        sm.transmitted_variance_classical(7.0, 0.4, noise_scale=0.0)
    for mean_photons in (-1.0, math.nan, math.inf):
        with pytest.raises(DomainError, match="mean_photons"):
            sm.transmitted_variance_classical(mean_photons, 0.4)


# --- count samplers -----------------------------------------------------------


def _check_sample_moments(state, t, shots, seed):
    counts = sm.sample_transmitted_counts(state, t, shots, _rng(seed))
    summary = sm.summarize_counts(counts)
    mean_theory = state.mean_photons * t
    var_theory = sm.transmitted_variance_quantum(state, t)
    assert abs(summary.mean - mean_theory) <= 5.0 * summary.stderr_mean
    assert abs(summary.variance - var_theory) <= 5.0 * summary.stderr_variance
    return summary


@pytest.mark.parametrize("transmission", [0.1, 0.5, 0.9])
@pytest.mark.parametrize("kind,nbar", [("fock", 10), ("coherent", 10.0), ("thermal", 1.0)])
def test_sampler_moments_match_variance_law(kind, nbar, transmission):
    state = getattr(sm.QuantumState, kind)(nbar)
    seed = 1000 * ("fock", "coherent", "thermal").index(kind) + int(10 * transmission)
    _check_sample_moments(state, transmission, 1_000_000, seed=seed)


def test_sampler_coherent_example_moments():
    summary = _check_sample_moments(sm.QuantumState.coherent(4.0), 0.25, 1_000_000, seed=12)
    assert abs(summary.mean - 1.0) <= 5.0 * summary.stderr_mean


def test_sampler_thermal_fano_signature():
    # Fano 2 is the thermal signature at unit transmission.
    summary = _check_sample_moments(sm.QuantumState.thermal(1.0), 1.0, 1_000_000, seed=13)
    assert abs(summary.fano - 2.0) <= 5.0 * summary.stderr_fano


def test_sampler_counts_are_nonnegative_integers():
    counts = sm.sample_transmitted_counts(sm.QuantumState.thermal(2.0), 0.7, 1000, _rng(5))
    assert counts.dtype.kind == "i"
    assert counts.min() >= 0


def test_sampler_fock_counts_bounded_by_n():
    counts = sm.sample_transmitted_counts(sm.QuantumState.fock(7), 0.9, 5000, _rng(6))
    assert counts.max() <= 7


def test_sampler_rejects_custom_state():
    with pytest.raises(UnsupportedSamplingError):
        sm.sample_transmitted_counts(sm.QuantumState.custom(1.0, 0.5), 0.5, 10, _rng(0))


@pytest.mark.parametrize("transmission,shots,message", [
    (0.5, 0, "shots"),
    (np.array([0.1, 0.5]), 10, "scalar"),
], ids=["zero-shots", "array-transmission"])
def test_sampler_rejects_bad_arguments(transmission, shots, message):
    with pytest.raises(DomainError, match=message):
        sm.sample_transmitted_counts(sm.QuantumState.coherent(1.0), transmission, shots, _rng(0))


C_LONG_MAX = 2 ** 63 - 1
# numpy's own Poisson limit, computed as numpy computes it.
POISSON_MEAN_MAX = float(np.iinfo("l").max - np.sqrt(np.iinfo("l").max) * 10)


@pytest.mark.parametrize("state,transmission,inside", [
    (sm.QuantumState.fock(2 ** 63 - 1024), 0.5, True),  # the largest float n <= 2**63 - 1
    (sm.QuantumState.fock(2 ** 63), 0.5, False),
    (sm.QuantumState.coherent(POISSON_MEAN_MAX), 1.0, True),
    (sm.QuantumState.coherent(np.nextafter(POISSON_MEAN_MAX, math.inf)), 1.0, False),
    (sm.QuantumState.coherent(1e30), 1e-12, True),  # the bound is on the mean nbar T
    (sm.QuantumState.thermal(2.0 ** 57), 1.0, True),
    (sm.QuantumState.thermal(np.nextafter(2.0 ** 57, math.inf)), 1.0, False),
], ids=["fock inside", "fock outside", "coherent inside", "coherent outside",
        "coherent small T", "thermal inside", "thermal outside"])
def test_sampler_stays_inside_its_count_laws(state, transmission, inside):
    if not inside:
        with pytest.raises(DomainError, match="overflow int64"):
            sm.sample_transmitted_counts(state, transmission, 200, _rng(3))
        return
    counts = sm.sample_transmitted_counts(state, transmission, 200, _rng(3))
    assert counts.dtype == np.int64 and counts.min() >= 0 and counts.max() < C_LONG_MAX
    mean = state.mean_photons * transmission
    sd = math.sqrt(sm.transmitted_variance_quantum(state, transmission))
    assert abs(counts.mean() - mean) <= 5.0 * sd / math.sqrt(counts.size)


def test_sampler_deterministic_per_stream():
    a = sm.sample_transmitted_counts(sm.QuantumState.coherent(3.0), 0.5, 100, _rng(42))
    b = sm.sample_transmitted_counts(sm.QuantumState.coherent(3.0), 0.5, 100, _rng(42))
    np.testing.assert_array_equal(a, b)


# --- count summary -------------------------------------------------------------


def test_summarize_counts_basic():
    counts = np.array([0, 1, 2, 3, 4])
    s = sm.summarize_counts(counts)
    assert s.shots == 5
    assert s.mean == 2.0
    assert s.variance == pytest.approx(np.var(counts, ddof=1), rel=1e-14)
    assert s.fano == pytest.approx(s.variance / s.mean, rel=1e-14)


def test_summarize_counts_zero_mean():
    s = sm.summarize_counts(np.zeros(10))
    assert math.isnan(s.fano)


def test_summarize_counts_needs_two():
    with pytest.raises(DomainError):
        sm.summarize_counts(np.array([3]))


def test_fano_stderr_calibrated_against_bootstrap():
    rng = _rng(123)
    counts = rng.poisson(5.0, size=20_000)
    s = sm.summarize_counts(counts)
    boot = np.empty(300)
    for b in range(300):
        resampled = counts[rng.integers(0, counts.size, counts.size)]
        boot[b] = np.var(resampled, ddof=1) / resampled.mean()
    assert s.stderr_fano == pytest.approx(boot.std(ddof=1), rel=0.25)
