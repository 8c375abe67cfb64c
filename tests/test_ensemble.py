"""Monte Carlo engine: kernel identities, determinism, estimator calibration."""

import math

import numpy as np
import pytest

import specklemem as sm
from specklemem.cli import COUNTING_GRID, MOMENT_GRID
from specklemem.ensemble import BOOT_STREAM, _covariance_factor
from specklemem.errors import (
    CovarianceModelError,
    DomainError,
    EstimationError,
    UnsupportedSamplingError,
)

SEED = 97531
GRID = np.array([0.0, 0.5, 1.0, 4.0, 16.0])


@pytest.fixture(scope="module")
def ensemble():
    return sm.build_ensemble(GRID, 0.01, 20_000, SEED)


# --- field kernel and covariance ---------------------------------------------


def test_kernel_identity_with_intensity_decay():
    for x in np.geomspace(1e-8, 1e4, 80):
        assert abs(abs(sm.field_kernel(x)) ** 2 - sm.intensity_decay(x)) <= 1e-12


def test_kernel_at_zero():
    assert sm.field_kernel(0.0) == 1.0 + 0.0j


def test_covariance_structure():
    cov = sm.build_field_covariance(GRID, 0.01)
    np.testing.assert_array_equal(np.diag(cov), np.full(GRID.size, 0.01 + 0j))
    np.testing.assert_array_equal(cov, cov.conj().T)
    for k, x in enumerate(GRID):
        assert abs(abs(cov[0, k] / 0.01) ** 2 - sm.intensity_decay(x)) <= 1e-12


def test_covariance_rejects_bad_grids():
    with pytest.raises(DomainError):
        sm.build_field_covariance([1.0, 0.5], 0.01)
    with pytest.raises(DomainError):
        sm.build_field_covariance([0.0, np.inf], 0.01)
    with pytest.raises(DomainError):
        sm.build_field_covariance([0.0, 1.0], 0.0)


def test_generate_rejects_non_hermitian():
    cov = sm.build_field_covariance(GRID, 0.01)
    cov[0, 1] *= 1.5
    with pytest.raises(DomainError):
        sm.generate_ensemble(cov, GRID, 0.01, 10, SEED)


def test_generate_rejects_indefinite_covariance():
    cov = np.array([[1.0, 1.5], [1.5, 1.0]], dtype=complex)
    with pytest.raises(CovarianceModelError):
        sm.generate_ensemble(cov, np.array([0.0, 1.0]), 1.0, 10, SEED)


@pytest.mark.parametrize("grid", [
    np.array(MOMENT_GRID),
    np.array(COUNTING_GRID),
    np.concatenate(([0.0], np.geomspace(1e-2, 1e2, 25))),
    np.linspace(0.0, 100.0, 400),
], ids=["moment", "counting", "default-curve", "linear-400"])
def test_covariance_factor_reproduces_covariance(grid):
    # Clipping and the 1e-12 * mean_t jitter are the only departures from cov.
    q = 0.01
    cov = sm.build_field_covariance(grid, q)
    factor = _covariance_factor(cov, q)
    assert np.all(np.triu(factor, 1) == 0.0)
    assert np.abs(factor @ factor.conj().T - cov).max() <= 2e-12 * q


# --- generation ----------------------------------------------------------------


def test_generation_deterministic_in_seed(ensemble):
    again = sm.build_ensemble(GRID, 0.01, 20_000, SEED)
    np.testing.assert_array_equal(ensemble.amplitudes, again.amplitudes)
    other = sm.build_ensemble(GRID, 0.01, 100, SEED + 1)
    assert not np.allclose(ensemble.amplitudes[:100], other.amplitudes)


def test_single_point_second_moment():
    ens = sm.build_ensemble(np.array([0.0]), 0.02, 50_000, SEED)
    t = ens.transmissions[:, 0]
    ratio = np.mean(t ** 2) / 0.02 ** 2
    stderr = np.std(t ** 2, ddof=1) / math.sqrt(t.size) / 0.02 ** 2
    assert abs(ratio - 2.0) <= 5.0 * stderr


def test_coincident_grid_points_are_identical():
    grid = np.array([0.0, 1.0, 1.0])
    ens = sm.build_ensemble(grid, 0.01, 500, SEED)
    # Jitter of 1e-12 * mean_t keeps the duplicated column equal to ~1e-5 rel.
    spread = np.abs(ens.amplitudes[:, 1] - ens.amplitudes[:, 2]).max()
    assert spread <= 1e-4 * math.sqrt(0.01)


def test_distant_points_decorrelate():
    ens = sm.build_ensemble(np.array([0.0, 1e4]), 0.01, 10_000, SEED)
    t = ens.amplitudes
    corr = abs(np.mean(np.conj(t[:, 0]) * t[:, 1])) ** 2 / 0.01 ** 2
    assert corr < 5.0 / t.shape[0]


def test_marginal_mean_transmission(ensemble):
    t = ensemble.transmissions
    for k in range(GRID.size):
        stderr = t[:, k].std(ddof=1) / math.sqrt(t.shape[0])
        assert abs(t[:, k].mean() - 0.01) <= 5.0 * stderr


# --- moment suite ----------------------------------------------------------------


def test_moment_report_matches_gaussian_theory(ensemble):
    report = sm.estimate_moments(ensemble)
    assert report.max_abs_z() <= 5.0
    names = {r.name for r in report.records}
    assert names == {"T_mean", "T2", "T3", "T4", "TT", "T2T", "T2T2", "field_corr"}
    assert len(report.by_name("TT")) == GRID.size


def test_moment_report_theory_values(ensemble):
    report = sm.estimate_moments(ensemble)
    q = ensemble.mean_t
    assert report.by_name("T3")[0].theory == 6.0 * q ** 3
    tt = {r.offset: r.theory for r in report.by_name("TT")}
    assert tt[0.0] == pytest.approx(2.0 * q * q, rel=1e-14)
    assert tt[16.0] == pytest.approx(q * q * (1.0 + sm.intensity_decay(16.0)), rel=1e-14)


def test_moment_estimation_needs_enough_realizations():
    small = sm.build_ensemble(GRID, 0.01, 10, SEED)
    with pytest.raises(EstimationError):
        sm.estimate_moments(small)


# --- noise correlation estimates ---------------------------------------------------


def test_shot_noise_curve_matches_decay(ensemble):
    est = sm.estimate_noise_correlation(ensemble, sm.QuantumState.coherent(10.0))
    assert est.mode == "analytic_variance"
    assert est.n_clamped == 0
    for x, v, e in zip(est.curve.offsets, est.curve.values, est.curve.stderr):
        assert abs(v - sm.intensity_decay(x)) <= 4.0 * e


def test_classical_curve_matches_theory(ensemble):
    est = sm.estimate_noise_correlation(ensemble, sm.CLASSICAL)
    for x, v, e in zip(est.curve.offsets, est.curve.values, est.curve.stderr):
        assert abs(v - sm.classical_noise_correlation(x)) <= 4.0 * e
    # Zero offset: fourth-moment ratio of Rayleigh speckle equals 5.
    assert abs(est.curve.values[0] - 5.0) <= 4.0 * est.curve.stderr[0]


def test_classical_estimate_independent_of_noise_scale(ensemble):
    a = sm.estimate_noise_correlation(ensemble, sm.CLASSICAL, noise_scale=1.0)
    b = sm.estimate_noise_correlation(ensemble, sm.CLASSICAL, noise_scale=7.3)
    assert np.abs(a.curve.values - b.curve.values).max() <= 1e-12


def test_estimates_deterministic(ensemble):
    a = sm.estimate_noise_correlation(ensemble, sm.QuantumState.coherent(10.0))
    b = sm.estimate_noise_correlation(ensemble, sm.QuantumState.coherent(10.0))
    np.testing.assert_array_equal(a.curve.values, b.curve.values)
    np.testing.assert_array_equal(a.curve.stderr, b.curve.stderr)


def test_counting_mode_agrees_with_analytic():
    grid = np.array([0.0, 1.0, 16.0])
    ens = sm.build_ensemble(grid, 0.01, 600, SEED)
    state = sm.QuantumState.coherent(10.0)
    counted = sm.estimate_noise_correlation(ens, state, mode="counting", shots=400, seed=SEED)
    analytic = sm.estimate_noise_correlation(ens, state)
    assert counted.shots_per_realization == 400
    for cv, ce, av, ae in zip(
        counted.curve.values, counted.curve.stderr, analytic.curve.values, analytic.curve.stderr
    ):
        assert abs(cv - av) <= 4.0 * math.hypot(ce, ae)


def test_counting_mode_unbiased_at_zero_offset():
    # At 20 shots, mean(v0 * v0) carried the sample variance's own sampling
    # noise and put the x = 0 counting value 4.3-6.1 sigma above analytic mode.
    state = sm.QuantumState.coherent(10.0)
    for seed in range(11, 17):
        ens = sm.build_ensemble(np.array(COUNTING_GRID), 0.01, 1000, seed)
        counted = sm.estimate_noise_correlation(ens, state, mode="counting", shots=20, seed=seed)
        analytic = sm.estimate_noise_correlation(ens, state)
        c, a = counted.curve, analytic.curve
        assert abs(c.values[0] - a.values[0]) <= 3.0 * math.hypot(c.stderr[0], a.stderr[0])


def test_counting_mode_rejects_custom_and_bad_shots(ensemble):
    with pytest.raises(UnsupportedSamplingError):
        sm.estimate_noise_correlation(
            ensemble, sm.QuantumState.custom(1.0, 0.5), mode="counting", shots=10
        )
    for shots in (1, 3):
        with pytest.raises(DomainError, match="shots >= 4"):
            sm.estimate_noise_correlation(
                ensemble, sm.QuantumState.coherent(1.0), mode="counting", shots=shots
            )


def _resample_loop_reference(v, seed, n_boot):
    """Values and bootstrap stderr as one gathered resample per loop pass."""
    prod = v[:, :1] * v
    means_v = v.mean(axis=0)
    values = prod.mean(axis=0) / (means_v[0] * means_v) - 1.0
    brng = sm.substream(seed, 0, BOOT_STREAM)
    r_total = v.shape[0]
    boot = np.empty((n_boot, v.shape[1]))
    for b in range(n_boot):
        idx = brng.integers(0, r_total, size=r_total)
        mv = v[idx].mean(axis=0)
        boot[b] = prod[idx].mean(axis=0) / (mv[0] * mv) - 1.0
    return values, boot.std(axis=0, ddof=1)


def test_block_bootstrap_matches_resample_loop():
    ens = sm.build_ensemble(GRID, 0.01, 3000, SEED)
    t = np.minimum(ens.transmissions, 1.0)
    coherent = sm.QuantumState.coherent(10.0)
    proxies = {
        sm.CLASSICAL: sm.transmitted_variance_classical(1.0, t, 1.0),
        coherent: sm.transmitted_variance_quantum(coherent, t),
    }
    for state, v in proxies.items():
        for n_boot in (2, 13, 200):  # 13 is not a whole number of blocks
            est = sm.estimate_noise_correlation(ens, state, n_boot=n_boot)
            values, stderr = _resample_loop_reference(v, SEED, n_boot)
            np.testing.assert_array_equal(est.curve.values, values)
            np.testing.assert_allclose(est.curve.stderr, stderr, rtol=1e-12, atol=0.0)
            assert est.n_boot == n_boot


def test_unknown_mode_rejected(ensemble):
    with pytest.raises(DomainError):
        sm.estimate_noise_correlation(ensemble, sm.CLASSICAL, mode="exact")


def test_clamping_recorded_near_unit_transmission():
    # At mean_t = 1 the exponential tail of T crosses 1 with probability 1/e.
    ens = sm.build_ensemble(np.array([0.0, 0.5]), 1.0, 2000, SEED)
    est = sm.estimate_noise_correlation(ens, sm.QuantumState.coherent(5.0))
    assert est.n_clamped > 0


# --- Rayleigh check ------------------------------------------------------------------


def test_rayleigh_check_passes_for_gaussian_ensemble(ensemble):
    check = sm.rayleigh_check(ensemble)
    assert check.passed
    assert check.pvalue > 0.01
    # The fitted exponential mean is the sample mean; it must sit on mean_t.
    t0 = ensemble.transmissions[:, 0]
    stderr = t0.std(ddof=1) / math.sqrt(t0.size)
    assert abs(t0.mean() - ensemble.mean_t) <= 5.0 * stderr


def test_rayleigh_check_rejects_degenerate_amplitudes(ensemble):
    rigged = sm.SpeckleEnsemble(
        amplitudes=np.full_like(ensemble.amplitudes[:2000], math.sqrt(0.01) + 0j),
        grid=ensemble.grid,
        mean_t=0.01,
        seed=SEED,
    )
    assert not sm.rayleigh_check(rigged).passed


def test_rayleigh_check_needs_enough_realizations():
    small = sm.build_ensemble(GRID, 0.01, 200, SEED)
    with pytest.raises(EstimationError):
        sm.rayleigh_check(small)


# --- text round trip -------------------------------------------------------------------


def test_ensemble_csv_round_trip(tmp_path):
    ens = sm.build_ensemble(np.array([0.0, 1.0, 4.0]), 0.05, 50, SEED)
    path = tmp_path / "ensemble.csv"
    sm.save_ensemble_csv(ens, path)
    loaded = sm.load_ensemble_csv(path)
    np.testing.assert_array_equal(ens.amplitudes, loaded.amplitudes)
    np.testing.assert_array_equal(ens.grid, loaded.grid)
    assert loaded.mean_t == ens.mean_t
    assert loaded.seed == ens.seed


def test_load_rejects_incomplete_file(tmp_path):
    path = tmp_path / "broken.csv"
    path.write_text("realization,grid_index,re,im\n0,0,0.1,0.2\n")
    with pytest.raises(DomainError):
        sm.load_ensemble_csv(path)


def test_load_rejects_malformed_index_rows(tmp_path):
    ens = sm.build_ensemble(np.array([0.0, 1.0, 4.0]), 0.05, 4, SEED)
    path = tmp_path / "ensemble.csv"
    sm.save_ensemble_csv(ens, path)
    lines = path.read_text().splitlines(keepends=True)
    first = next(i for i, line in enumerate(lines) if line[0].isdigit())
    row = first + 4  # realization 1, grid_index 1

    def with_index(k):
        _, _, re, im = lines[row].split(",")
        return f"1,{k},{re},{im}"

    cases = {
        "two missing rows": lines[:row] + lines[row + 2 :],
        "negative grid_index": lines[:row] + [with_index(-1)] + lines[row + 1 :],
        "duplicated row": lines[:row] + [lines[row - 1]] + lines[row + 1 :],
        "grid_index >= K": lines[:row] + [with_index(3)] + lines[row + 1 :],
    }
    for name, text in cases.items():
        path.write_text("".join(text))
        with pytest.raises(DomainError):
            sm.load_ensemble_csv(path)
            pytest.fail(f"{name} loaded without error")


def test_load_rejects_bad_metadata_without_warning(tmp_path, recwarn):
    ens = sm.build_ensemble(np.array([0.0, 1.0, 4.0]), 0.05, 4, SEED)
    path = tmp_path / "ensemble.csv"
    sm.save_ensemble_csv(ens, path)
    lines = path.read_text().splitlines(keepends=True)
    header = next(i for i, line in enumerate(lines) if line.startswith("realization"))

    def with_meta(key, value):
        return [f"# {key}={value}\n" if line.startswith(f"# {key}=") else line for line in lines]

    cases = {
        "non-numeric grid offset": with_meta("grid", "0.0,abc,4.0"),
        "non-integer seed": with_meta("seed", "x"),
        "header but no rows": lines[: header + 1],
        "NaN mean_t": with_meta("mean_t", "nan"),
        "decreasing grid": with_meta("grid", "4.0,1.0,0.0"),
        "negative seed": with_meta("seed", "-5"),
    }
    for name, text in cases.items():
        path.write_text("".join(text))
        with pytest.raises(DomainError):
            sm.load_ensemble_csv(path)
            pytest.fail(f"{name} loaded without error")
    assert not recwarn.list


def test_moments_reject_constant_amplitudes(ensemble):
    rigged = sm.SpeckleEnsemble(
        amplitudes=np.full_like(ensemble.amplitudes[:2000], math.sqrt(0.01) + 0j),
        grid=ensemble.grid,
        mean_t=0.01,
        seed=SEED,
    )
    with pytest.raises(EstimationError):
        sm.estimate_moments(rigged)


def test_zero_photon_input_raises_without_warning(ensemble, recwarn):
    small = sm.build_ensemble(GRID, 0.01, 50, SEED)
    for state in (sm.QuantumState.coherent(0.0), sm.QuantumState.fock(0)):
        with pytest.raises(EstimationError):
            sm.estimate_noise_correlation(ensemble, state)
    with pytest.raises(EstimationError):
        sm.estimate_noise_correlation(
            small, sm.QuantumState.coherent(0.0), mode="counting", shots=10, seed=SEED
        )
    assert not recwarn.list
