"""Closed-form analytics: frozen high-precision values, limits, invariants.

Frozen expected values were computed with the mpmath oracle reproduced in
``test_frozen_values_match_oracle`` (50-digit evaluation of the defining
formulas, rounded to the nearest double).
"""

import math
import sys

import mpmath as mp
import numpy as np
import pytest

import specklemem as sm
from specklemem.errors import (
    DivergenceError,
    DomainError,
    SingularParameterError,
)

# x -> x / (cosh sqrt(x) - cos sqrt(x))
FROZEN_DECAY = {
    0.5: 0.9993060030747634,
    1.0: 0.9972293687778223,
    4.0: 0.957317398836639,
    16.0: 0.5722076636978759,
}

# x -> (1/x) (sinh sqrt(x) - sin sqrt(x)) / (cosh sqrt(x) - cos sqrt(x))
FROZEN_KERNEL = {
    0.01: 3.3333328042329378,
    0.5: 0.47121757352612046,
    16.0: 0.06268964042811652,
}

FROZEN_CLASSICAL_16 = 2.6162522651860848
FROZEN_QUANTUM = {
    # (fano, mean_t) at x = 0
    (2.0, 0.01): 1.0399846212995002,
    (0.0, 0.01): 0.9600166597251145,
}
# (fano, thickness ratio 3, mean_t 1) at x = 16
FROZEN_CORRECTION_16 = {
    1.0: 0.846310145779573,
    0.0: -1.4425205090119305,
    2.0: 3.1351408005710764,
}
FROZEN_PAIR_MOMENT_16 = 0.00015806707651556716  # mean_t 0.01, ratio 3

REL = 1e-13


def _oracle_decay(x):
    x = mp.mpf(x)
    if x == 0:
        return mp.mpf(1)
    u = mp.sqrt(x)
    return x / (mp.cosh(u) - mp.cos(u))


def _oracle_kernel(x):
    x = mp.mpf(x)
    u = mp.sqrt(x)
    return (mp.sinh(u) - mp.sin(u)) / ((mp.cosh(u) - mp.cos(u)) * x)


def test_frozen_values_match_oracle():
    mp.mp.dps = 50
    for x, frozen in FROZEN_DECAY.items():
        assert abs(float(_oracle_decay(x)) - frozen) <= abs(frozen) * 1e-15
    for x, frozen in FROZEN_KERNEL.items():
        assert abs(float(_oracle_kernel(x)) - frozen) <= abs(frozen) * 1e-15
    assert float(_oracle_decay(16) ** 2 + 4 * _oracle_decay(16)) == pytest.approx(
        FROZEN_CLASSICAL_16, rel=1e-15
    )


# --- intensity decay -------------------------------------------------------


def test_decay_zero_offset_is_exactly_one():
    assert sm.intensity_decay(0.0) == 1.0


@pytest.mark.parametrize("x,expected", sorted(FROZEN_DECAY.items()))
def test_decay_frozen_values(x, expected):
    assert sm.intensity_decay(x) == pytest.approx(expected, rel=REL)


def test_decay_bounds_and_monotonicity():
    grid = np.geomspace(1e-6, 100.0, 200)
    values = [sm.intensity_decay(x) for x in grid]
    assert all(0.0 < v <= 1.0 for v in values)
    assert all(a > b for a, b in zip(values, values[1:]))


@pytest.mark.parametrize("bad", [-1.0, -1e-300, math.inf, math.nan])
def test_decay_rejects_bad_offsets(bad):
    with pytest.raises(DomainError):
        sm.intensity_decay(bad)


# --- mesoscopic kernel -----------------------------------------------------


@pytest.mark.parametrize("x,expected", sorted(FROZEN_KERNEL.items()))
def test_kernel_frozen_values(x, expected):
    assert sm.mesoscopic_kernel(x) == pytest.approx(expected, rel=REL)


def test_kernel_diverges_at_zero():
    with pytest.raises(DivergenceError):
        sm.mesoscopic_kernel(0.0)
    with pytest.raises(DomainError):
        sm.mesoscopic_kernel(-0.5)


def test_kernel_small_offset_asymptote():
    # kernel * 3 sqrt(x) -> 1 from below as x -> 0
    for x in (1e-12, 1e-8, 1e-6, 1e-4):
        scaled = sm.mesoscopic_kernel(x) * 3.0 * math.sqrt(x)
        assert 0.99 <= scaled <= 1.0


def test_kernel_positive_everywhere():
    for x in np.geomspace(1e-10, 1e4, 60):
        assert sm.mesoscopic_kernel(x) > 0.0


# --- oracle sweep and large offsets ------------------------------------------


def test_closed_forms_match_oracle_sweep():
    # Both closed forms against the 50-digit oracle at 1e-15 relative, scaled
    # by the relative condition number max(1, sqrt(x)/2) of the decay (the
    # kernel's is smaller).  The sweep covers the kernel's series bound x = 4.
    offsets = np.geomspace(1e-12, 1e3, 241).tolist() + np.linspace(0.0, 100.0, 201)[1:].tolist()
    offsets += [4.0, math.nextafter(4.0, math.inf)]
    with mp.workdps(50):
        for x in offsets:
            bound = 1e-15 * max(1.0, math.sqrt(x) / 2)
            exact = _oracle_decay(x)
            assert abs(sm.intensity_decay(x) - exact) <= bound * exact, x
            exact = _oracle_kernel(x)
            assert abs(sm.mesoscopic_kernel(x) - exact) <= bound * exact, x


def test_decay_never_exceeds_one():
    for x in np.geomspace(1e-300, 1e-2, 2001):
        assert sm.intensity_decay(x) <= 1.0


def test_large_offset_tails_match_oracle():
    # The decay's relative condition number is about sqrt(x)/2 there, so its
    # bound scales with it.  The linear points straddle x ~ 5.1e5, where
    # exp(-sqrt(x)) alone is subnormal but the decay is not.
    offsets = [1e4, math.nextafter(1e4, math.inf)]
    offsets += np.geomspace(1e4, 1e300, 120).tolist() + np.linspace(4.9e5, 5.3e5, 41).tolist()
    with mp.workdps(50):
        for x in offsets:
            decay = sm.intensity_decay(x)
            exact = _oracle_decay(x)
            if exact >= sys.float_info.min:
                assert abs(decay - exact) <= 5e-16 * (math.sqrt(x) / 2) * exact
            else:
                assert 0.0 <= decay <= sys.float_info.min
            exact = _oracle_kernel(x)
            assert abs(sm.mesoscopic_kernel(x) - exact) <= 2.2e-16 * exact


# --- shot-noise and classical-noise correlations ---------------------------


def test_shot_noise_equals_decay():
    for x in (0.0, 0.3, 1.0, 16.0, 77.7):
        assert sm.shot_noise_correlation(x) == sm.intensity_decay(x)


def test_classical_noise_values():
    assert sm.classical_noise_correlation(0.0) == 5.0
    assert sm.classical_noise_correlation(16.0) == pytest.approx(
        FROZEN_CLASSICAL_16, rel=REL
    )


def test_classical_noise_identity():
    for x in np.geomspace(1e-3, 100.0, 40):
        c = sm.shot_noise_correlation(x)
        assert abs(sm.classical_noise_correlation(x) - (c * c + 4.0 * c)) <= 1e-15


# --- quantum noise correlation ---------------------------------------------


def test_quantum_poissonian_collapses_to_shot_noise():
    for q in (1e-4, 1e-2, 0.5):
        for x in (0.0, 0.5, 4.0, 16.0, 100.0):
            diff = sm.quantum_noise_correlation(x, 1.0, q) - sm.intensity_decay(x)
            assert abs(diff) <= 1e-14


@pytest.mark.parametrize("key,expected", sorted(FROZEN_QUANTUM.items()))
def test_quantum_frozen_values(key, expected):
    fano, q = key
    assert sm.quantum_noise_correlation(0.0, fano, q) == pytest.approx(expected, rel=REL)


def test_quantum_zero_offset_limit_matches_unit_decay():
    # The x = 0 path must equal the same closed form with decay value 1.
    for fano in (0.0, 0.5, 2.0, 3.0):
        for q in (1e-3, 1e-2, 0.2):
            F = fano - 1.0
            explicit = (
                (2.0 + 12.0 * F * q + 24.0 * F * F * q * q) / (1.0 + 2.0 * F * q) ** 2
                - 1.0
            )
            assert abs(sm.quantum_noise_correlation(0.0, fano, q) - explicit) <= 1e-12


def test_quantum_singular_denominator():
    # fano = 0, mean_t = 0.5 makes 1 + 2 (fano - 1) mean_t vanish
    with pytest.raises(SingularParameterError):
        sm.quantum_noise_correlation(1.0, 0.0, 0.5)


@pytest.mark.parametrize("fano,q", [(-0.1, 0.01), (1.0, 0.0), (1.0, 1.5), (1.0, -0.2)])
def test_quantum_rejects_bad_parameters(fano, q):
    with pytest.raises(DomainError):
        sm.quantum_noise_correlation(1.0, fano, q)


def _linear_residual(x, fano, q):
    c = sm.intensity_decay(x)
    return sm.quantum_noise_correlation(x, fano, q) - c - 4.0 * (fano - 1.0) * c * q


def _series_coefficients(x, fano):
    # Independent expansion of the closed form in q:
    #   residual = A q^2 + B q^3 + C q^4 + O(q^5),
    #   A = 4 F^2 c (c - 1),  B = -16 F^3 c^2,  C = 16 F^4 c (3 c + 1).
    c = sm.intensity_decay(x)
    F = fano - 1.0
    return (
        4.0 * F * F * c * (c - 1.0),
        -16.0 * F ** 3 * c * c,
        16.0 * F ** 4 * c * (3.0 * c + 1.0),
    )


def test_first_order_residual_matches_series_coefficients():
    for x in (0.5, 4.0, 16.0):
        for fano in (0.0, 2.0):
            A, B, C = _series_coefficients(x, fano)
            for q in (1e-2, 1e-3, 1e-4):
                model = A * q * q + B * q ** 3 + C * q ** 4
                assert abs(_linear_residual(x, fano, q) - model) <= 2e3 * q ** 5 + 5e-15


def test_first_order_residual_bounded_quadratically():
    # |residual| <= K q^2 for q <= q_max, with K taken from the series
    # coefficients, K = |A| + |B| q_max + 2 |C| q_max^2, plus a round-off floor.
    qs = (1e-2, 1e-3, 1e-4)
    q_max = max(qs)
    for x in (0.5, 4.0, 16.0):
        for fano in (0.0, 2.0):
            A, B, C = _series_coefficients(x, fano)
            K = abs(A) + abs(B) * q_max + 2.0 * abs(C) * q_max ** 2
            for q in qs:
                assert abs(_linear_residual(x, fano, q)) <= K * q * q + 5e-15


def test_first_order_quadratic_shrinkage_where_quadratic_dominates():
    # At x = 16 the decay is far from 1, so the q^2 coefficient dominates and
    # each decade of q shrinks the residual by ~100.
    for fano in (0.0, 2.0):
        r = [abs(_linear_residual(16.0, fano, q)) for q in (1e-2, 1e-3, 1e-4)]
        assert 80.0 <= r[0] / r[1] <= 120.0
        assert 80.0 <= r[1] / r[2] <= 120.0


# --- diffusion geometry -----------------------------------------------------


def test_geometry_derived_frequency():
    geom = sm.DiffusionGeometry(thickness=3.0, mean_free_path=1.0, diffusion_constant=2.0)
    assert geom.omega_d == 2.0 / (2.0 * 9.0)
    assert geom.thickness_ratio == 3.0
    assert geom.normalized_offset(geom.omega_d * 16.0) == pytest.approx(16.0, rel=1e-15)


def test_geometry_from_thickness_ratio():
    geom = sm.DiffusionGeometry.from_thickness_ratio(4.0)
    assert geom.thickness == 4.0
    assert geom.mean_free_path == 1.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"thickness": 0.0, "mean_free_path": 1.0},
        {"thickness": 1.0, "mean_free_path": -1.0},
        {"thickness": 1.0, "mean_free_path": 2.0},
        {"thickness": 1.0, "mean_free_path": 1.0, "diffusion_constant": 0.0},
    ],
)
def test_geometry_rejects_invalid(kwargs):
    with pytest.raises(DomainError):
        sm.DiffusionGeometry(**kwargs)


# --- expansion terms and pair moment ----------------------------------------


@pytest.mark.parametrize("fano,expected", sorted(FROZEN_CORRECTION_16.items()))
def test_expansion_correction_frozen(fano, expected):
    geom = sm.DiffusionGeometry.from_thickness_ratio(3.0)
    leading, correction = sm.noise_correlation_expansion(16.0, fano, 1.0, geom)
    assert leading == sm.intensity_decay(16.0)
    assert correction == pytest.approx(expected, rel=REL)


def test_expansion_rejects_zero_offset():
    geom = sm.DiffusionGeometry.from_thickness_ratio(3.0)
    with pytest.raises(DivergenceError):
        sm.noise_correlation_expansion(0.0, 1.0, 0.01, geom)


def test_expansion_state_symmetry():
    # Fock and fano-2 corrections sit symmetrically around the coherent one.
    geom = sm.DiffusionGeometry.from_thickness_ratio(5.0)
    for x in (0.05, 1.0, 16.0):
        low = sm.noise_correlation_expansion(x, 0.0, 0.01, geom)[1]
        mid = sm.noise_correlation_expansion(x, 1.0, 0.01, geom)[1]
        high = sm.noise_correlation_expansion(x, 2.0, 0.01, geom)[1]
        assert low + high == pytest.approx(2.0 * mid, abs=1e-15)


def test_pair_moment_frozen_and_gaussian_limit():
    geom = sm.DiffusionGeometry.from_thickness_ratio(3.0)
    value = sm.transmission_pair_moment(16.0, 0.01, geom)
    assert value == pytest.approx(FROZEN_PAIR_MOMENT_16, rel=REL)
    # Removing the mesoscopic term recovers the Gaussian pair moment exactly.
    correction = 1.5 * 9.0 * sm.mesoscopic_kernel(16.0) * 0.01 ** 3
    gaussian = 0.01 ** 2 * (1.0 + sm.intensity_decay(16.0))
    assert value - correction == pytest.approx(gaussian, rel=1e-12)


def test_pair_moment_far_offset_approaches_uncorrelated():
    geom = sm.DiffusionGeometry.from_thickness_ratio(3.0)
    q = 0.01
    value = sm.transmission_pair_moment(1e4, q, geom)
    assert abs(value - q * q) / (q * q) < 1e-4


# --- argument conversion ---------------------------------------------------


_GEOMETRY = sm.DiffusionGeometry.from_thickness_ratio(3.0)


@pytest.mark.parametrize("call,name", [
    (lambda: sm.intensity_decay("abc"), "normalized frequency offset"),
    (lambda: sm.intensity_decay(1j), "normalized frequency offset"),
    (lambda: sm.mesoscopic_kernel(np.complex128(2.0)), "normalized frequency offset"),
    (lambda: sm.classical_noise_correlation(10 ** 400), "normalized frequency offset"),
    (lambda: sm.shot_noise_correlation(np.array([1.0, 2.0])), "normalized frequency offset"),
    (lambda: sm.quantum_noise_correlation(1.0, "abc", 0.01), "Fano factor"),
    (lambda: sm.quantum_noise_correlation(1.0, 2.0, None), "mean transmission"),
    (lambda: sm.transmission_pair_moment(1.0, 1j, _GEOMETRY), "mean transmission"),
    (lambda: sm.DiffusionGeometry(thickness="abc", mean_free_path=1.0), "thickness"),
    (lambda: sm.DiffusionGeometry(3.0, 1.0, diffusion_constant=[1.0, 2.0]), "diffusion_constant"),
    (lambda: sm.DiffusionGeometry.from_thickness_ratio(None), "thickness ratio"),
    (lambda: sm.DiffusionGeometry.from_thickness_ratio(3.0, mean_free_path="x"), "mean_free_path"),
    (lambda: sm.DiffusionGeometry.from_thickness_ratio(3.0, diffusion_constant=1j), "diffusion_constant"),
    (lambda: _GEOMETRY.normalized_offset("abc"), "frequency offset"),
    (lambda: sm.QuantumState.coherent("x"), "mean_photons"),
    (lambda: sm.QuantumState.thermal(None), "mean_photons"),
    (lambda: sm.QuantumState.fock(1j), "mean_photons"),
    (lambda: sm.QuantumState.custom(1.0, "x"), "fano"),
    (lambda: sm.transmitted_variance_classical("x", 0.5), "mean_photons"),
    (lambda: sm.transmitted_variance_classical(1.0, 0.5, noise_scale=None), "noise_scale"),
], ids=[
    "decay-text", "decay-complex", "kernel-numpy-complex", "classical-int-overflow",
    "shot-array", "quantum-fano", "quantum-mean-t", "pair-moment-mean-t",
    "geometry-thickness", "geometry-diffusion", "ratio-none", "ratio-mean-free-path",
    "ratio-diffusion", "normalized-offset", "coherent", "thermal", "fock", "custom-fano",
    "classical-variance-photons", "classical-variance-scale",
])
def test_non_real_arguments_raise_domain_error(call, name):
    with pytest.raises(DomainError, match=f"^{name} must be a real number"):
        call()


# --- correlation curve container --------------------------------------------


def test_curve_validates_monotonic_offsets():
    with pytest.raises(DomainError):
        sm.CorrelationCurve(offsets=[0.0, 1.0, 1.0], values=[1.0, 2.0, 3.0])


@pytest.mark.parametrize("kwargs", [
    {"offsets": [0.0, 1.0], "values": [1.0]},
    {"offsets": [[0.0, 1.0]], "values": [[1.0, 2.0]]},
    {"offsets": [0.0, math.inf], "values": [1.0, 2.0]},
    {"offsets": [math.nan, 1.0], "values": [1.0, 2.0]},
    {"offsets": [0.0, 1.0], "values": [1.0, 2.0], "stderr": [0.1]},
], ids=["values shorter", "2-d", "infinite offset", "NaN offset", "stderr shorter"])
def test_curve_rejects_malformed_arrays(kwargs):
    with pytest.raises(DomainError):
        sm.CorrelationCurve(**kwargs)


def test_curve_validates_stderr():
    with pytest.raises(DomainError):
        sm.CorrelationCurve(offsets=[0.0, 1.0], values=[1.0, 2.0], stderr=[0.1, -0.1])
    curve = sm.CorrelationCurve(offsets=[0.0, 1.0], values=[1.0, 2.0], stderr=[0.1, 0.2])
    assert len(curve) == 2
