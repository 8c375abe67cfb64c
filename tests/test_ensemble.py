"""Monte Carlo engine: kernel identities, determinism, estimator calibration."""

import math
import random
import tracemalloc

import numpy as np
import pytest

import specklemem as sm
from specklemem.cli import COUNTING_GRID, MOMENT_GRID
from specklemem.ensemble import (
    BOOT_STREAM,
    COUNT_STREAM,
    FIELD_STREAM,
    _DRAW_BLOCK_BYTES,
    _covariance_factor,
    _per_realization_variances,
    _PhiloxKey,
)
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


@pytest.mark.parametrize("x", [2.1e6, 1e8, 1e300])
def test_kernel_vanishes_where_sinh_overflows(x):
    # sinh(s) overflows once sqrt(x) / 2 > 710, near x = 2.0e6; the decay is 0 there too.
    assert sm.field_kernel(x) == 0j
    assert sm.intensity_decay(x) == 0.0


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
    with pytest.raises(DomainError, match="non-empty 1-d"):
        sm.build_field_covariance([], 0.01)
    with pytest.raises(DomainError, match="non-empty 1-d"):
        sm.build_field_covariance([[0.0, 1.0]], 0.01)


def test_generate_rejects_non_hermitian():
    cov = sm.build_field_covariance(GRID, 0.01)
    cov[0, 1] *= 1.5
    with pytest.raises(DomainError):
        sm.generate_ensemble(cov, GRID, 0.01, 10, SEED)


def test_generate_rejects_indefinite_covariance():
    cov = np.array([[1.0, 1.5], [1.5, 1.0]], dtype=complex)
    with pytest.raises(CovarianceModelError):
        sm.generate_ensemble(cov, np.array([0.0, 1.0]), 1.0, 10, SEED)


def _hermitian_with_smallest_eigenvalue(smallest):
    """Q diag(lam) Q^H on six points, Q a fixed random unitary, lam[0] = smallest."""
    rng = np.random.default_rng(6)
    q, _ = np.linalg.qr(rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6)))
    cov = (q * np.array([smallest, 0.5, 0.8, 1.0, 1.2, 1.5])) @ q.conj().T
    return 0.5 * (cov + cov.conj().T)


JITTER = 1e-12  # * mean_t, with mean_t = 1


def test_generate_rejects_eigenvalue_below_tolerance():
    for smallest, shown in ((-2.0 * JITTER, r"-2\.000e-12"), (-2e-10, r"-2\.000e-10")):
        cov = _hermitian_with_smallest_eigenvalue(smallest)
        with pytest.raises(CovarianceModelError, match=rf"min eigenvalue {shown} "):
            sm.generate_ensemble(cov, np.linspace(0.0, 5.0, 6), 1.0, 10, SEED)


def test_generate_accepts_eigenvalue_within_tolerance():
    # The jitter is the only tolerance: it lifts an eigenvalue just above -JITTER.
    for smallest in (-0.5 * JITTER, -0.9 * JITTER):
        cov = _hermitian_with_smallest_eigenvalue(smallest)
        ens = sm.generate_ensemble(cov, np.linspace(0.0, 5.0, 6), 1.0, 10, SEED)
        assert ens.amplitudes.shape == (10, 6)
        assert np.all(np.isfinite(ens.amplitudes))


FACTOR_GRID_CASES = {
    "moment": np.array(MOMENT_GRID),
    "counting": np.array(COUNTING_GRID),
    "default-curve": np.concatenate(([0.0], np.geomspace(1e-2, 1e2, 25))),
    "linear-400": np.linspace(0.0, 100.0, 400),
}
FACTOR_GRIDS = pytest.mark.parametrize("grid", FACTOR_GRID_CASES.values(), ids=FACTOR_GRID_CASES)


def _per_pair_covariance(grid, q):
    """The covariance filled one (j, i) pair at a time, conjugate written second."""
    k = grid.size
    cov = np.empty((k, k), dtype=complex)
    for j in range(k):
        for i in range(j + 1):
            h = q * sm.field_kernel(grid[j] - grid[i])
            cov[j, i] = h
            cov[i, j] = h.conjugate()
    return cov


@FACTOR_GRIDS
def test_covariance_matches_per_pair_loop(grid):
    cov = sm.build_field_covariance(grid, 0.01)
    # tobytes also tells the diagonal's -0.0 imaginary parts from +0.0.
    assert cov.tobytes() == _per_pair_covariance(grid, 0.01).tobytes()
    assert np.all(np.signbit(np.diag(cov).imag))


@pytest.mark.parametrize("grid", [*FACTOR_GRID_CASES.values(), np.linspace(0.0, 100.0, 2000)],
                         ids=[*FACTOR_GRID_CASES, "linear-2000"])
def test_covariance_factor_reproduces_covariance(grid):
    # The factor is that of cov plus the 1e-12 * mean_t jitter, to round-off.
    q = 0.01
    cov = sm.build_field_covariance(grid, q)
    factor = _covariance_factor(cov, q)
    assert np.all(np.triu(factor, 1) == 0.0)
    product = factor @ factor.conj().T
    assert np.abs(product - cov).max() <= 2e-12 * q
    product[np.diag_indices_from(product)] -= 1e-12 * q
    assert np.abs(product - cov).max() <= 4e-15 * q


# --- substreams -----------------------------------------------------------------


def _philox_reference(seed, realization, tag):
    counter = (realization << 128) | (tag << 64)
    return np.random.Generator(np.random.Philox(key=seed, counter=counter))


@pytest.mark.parametrize("tag", [FIELD_STREAM, COUNT_STREAM, BOOT_STREAM, 2 ** 64 - 1])
@pytest.mark.parametrize("realization", [0, 1, 99_999, 2 ** 64 + 5, 2 ** 128 - 1])
@pytest.mark.parametrize("seed", [0, 1002, 2 ** 64 - 1])
def test_substream_matches_philox_key_construction(seed, realization, tag):
    got = sm.substream(seed, realization, tag)
    ref = _philox_reference(seed, realization, tag)
    draws = (
        lambda g: g.standard_normal(64),
        lambda g: g.integers(0, 1000, size=64),
        lambda g: g.binomial(10, 0.3, size=64),
        lambda g: g.poisson(2.5, size=64),
        lambda g: g.geometric(0.4, size=64),
    )
    for draw in draws:
        a, b = draw(got), draw(ref)
        assert a.dtype == b.dtype and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("realization,tag", [
    (-1, 0), (2 ** 128, 0), (0, -1), (0, 2 ** 64), (np.int64(-1), 0),
], ids=["realization -1", "realization 2**128", "tag -1", "tag 2**64", "int64 -1"])
def test_substream_rejects_out_of_range_counters(realization, tag):
    # Unchecked, a tag of 2**64 would carry into the realization words: (0, 2**64) is (1, 0).
    with pytest.raises(DomainError, match="unsigned integer"):
        sm.substream(SEED, realization, tag)


def test_philox_key_provides_only_the_two_key_words():
    assert _PhiloxKey(5).generate_state(2, np.uint64).tolist() == [5, 0]
    for n_words, dtype in ((4, np.uint64), (2, np.uint32)):
        with pytest.raises(NotImplementedError):
            _PhiloxKey(5).generate_state(n_words, dtype)


def test_substreams_read_no_os_entropy(monkeypatch):
    def no_entropy(n):
        raise AssertionError("OS entropy was read")

    monkeypatch.setattr(random, "_urandom", no_entropy)
    sm.substream(SEED, 3, COUNT_STREAM).standard_normal(4)
    ens = sm.build_ensemble(GRID, 0.01, 50, SEED)
    sm.estimate_noise_correlation(ens, sm.QuantumState.coherent(10.0), "counting", shots=8, n_boot=2)


# --- generation ----------------------------------------------------------------


def _per_row_reference(grid, mean_t, r_total, seed):
    """Amplitudes from one Philox(key=seed) generator and one complex row per realization."""
    k = grid.size
    factor_t = _covariance_factor(sm.build_field_covariance(grid, mean_t), mean_t).T.copy()
    xi = np.empty((r_total, k), dtype=complex)
    for r in range(r_total):
        raw = _philox_reference(seed, r, FIELD_STREAM).standard_normal(2 * k)
        xi[r] = (raw[:k] + 1j * raw[k:]) * math.sqrt(0.5)
    return xi @ factor_t


DEFAULT_CURVE_GRID = np.concatenate(([0.0], np.geomspace(1e-2, 1e2, 25)))
# Whole blocks of the draw budget at K = 400 would leave a 1-row remainder here.
TWO_BLOCKS_AND_ONE_ROW = 2 * (_DRAW_BLOCK_BYTES // (32 * 400)) + 1


@pytest.mark.parametrize("seed", [1002, 2011])
@pytest.mark.parametrize("grid,r_total", [
    (np.array(MOMENT_GRID), 600),
    (DEFAULT_CURVE_GRID, 600),
    (np.linspace(0.0, 100.0, 400), TWO_BLOCKS_AND_ONE_ROW),
    (np.array(MOMENT_GRID), 1),
    (np.array(MOMENT_GRID), 2),
], ids=["moment", "default-curve", "lin400-blocks", "one-row", "two-rows"])
def test_generation_matches_per_row_reference(grid, r_total, seed):
    ens = sm.build_ensemble(grid, 0.01, r_total, seed)
    ref = _per_row_reference(grid, 0.01, r_total, seed)
    assert ens.amplitudes.tobytes() == ref.tobytes()


def test_generation_and_transmissions_hold_one_array_beside_their_result():
    # numpy reports its array allocations to tracemalloc.  At K = 201 and
    # R = 22,000 the amplitudes are several times the draw budget, so
    # whole-array draws (2R x K floats and R x K complex values) would double
    # the peak.
    grid = np.linspace(0.0, 100.0, 201)
    cov = sm.build_field_covariance(grid, 0.01)
    tracemalloc.start()
    try:
        ens = sm.generate_ensemble(cov, grid, 0.01, 22_000, SEED)
        _, generation_peak = tracemalloc.get_traced_memory()
        tracemalloc.reset_peak()
        before, _ = tracemalloc.get_traced_memory()
        t = ens.transmissions
        _, transmissions_peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    factor_bytes = cov.nbytes  # the factor is K x K complex too
    assert ens.amplitudes.nbytes > 4 * _DRAW_BLOCK_BYTES
    assert generation_peak < (1.25 * ens.amplitudes.nbytes + cov.nbytes + factor_bytes
                              + _DRAW_BLOCK_BYTES)
    assert transmissions_peak - before < 1.25 * t.nbytes


def test_generate_checks_its_own_inputs():
    cov = sm.build_field_covariance(GRID, 0.01)
    nan_cov = cov.copy()
    nan_cov[1, 2] = nan_cov[2, 1] = complex(math.nan, 0.0)
    inf_cov = cov.copy()
    inf_cov[0, 0] = math.inf
    cases = {
        "NaN mean_t": (cov, GRID, math.nan, 10),
        "zero mean_t": (cov, GRID, 0.0, 10),
        "negative mean_t": (cov, GRID, -1.0, 10),
        "mean_t above 1": (cov, GRID, 2.0, 10),
        "decreasing grid": (cov, GRID[::-1].copy(), 0.01, 10),
        "NaN covariance": (nan_cov, GRID, 0.01, 10),
        "infinite covariance": (inf_cov, GRID, 0.01, 10),
        "covariance of the wrong shape": (cov[:3, :3], GRID, 0.01, 10),
        "no realizations": (cov, GRID, 0.01, 0),
    }
    for name, (c, grid, mean_t, realizations) in cases.items():
        with pytest.raises(DomainError):
            sm.generate_ensemble(c, grid, mean_t, realizations, SEED)
            pytest.fail(f"{name} was accepted")


def test_ensemble_rejects_malformed_amplitudes():
    good = np.zeros((4, GRID.size), dtype=complex)
    infinite, nan = good.copy(), good.copy()
    infinite[2, 1] = complex(math.inf, 0.1)
    nan[1, 3] = complex(0.1, math.nan)
    cases = [
        (np.zeros(5, dtype=complex), "realizations, grid points"),
        (np.zeros((4, 3), dtype=complex), "realizations, grid points"),
        (infinite, "realization 2, grid index 1 is not finite"),
        (nan, "realization 1, grid index 3 is not finite"),
    ]
    for amplitudes, message in cases:
        with pytest.raises(DomainError, match=message):
            sm.SpeckleEnsemble(amplitudes=amplitudes, grid=GRID, mean_t=0.01, seed=SEED)


def test_whole_number_arguments_are_checked():
    ens = sm.build_ensemble(GRID, 0.01, 50, SEED)
    coherent = sm.QuantumState.coherent(10.0)
    cov = sm.build_field_covariance(GRID, 0.01)
    cases = {
        "realizations": lambda: sm.generate_ensemble(cov, GRID, 0.01, 2.7, SEED),
        "n_boot": lambda: sm.estimate_noise_correlation(ens, sm.CLASSICAL, n_boot=2.5),
        "counting shots": lambda: sm.estimate_noise_correlation(
            ens, coherent, mode="counting", shots=4.7, n_boot=2),
        "sampler shots": lambda: sm.sample_transmitted_counts(
            coherent, 0.5, 4.7, sm.substream(SEED, 0)),
        "substream seed": lambda: sm.substream(1.5, 0),
        "non-numeric seed": lambda: sm.substream("abc", 0),
        "substream realization": lambda: sm.substream(SEED, 1.5),
        "substream tag": lambda: sm.substream(SEED, 1, 0.9),
    }
    for name, call in cases.items():
        with pytest.raises(DomainError, match="whole number"):
            call()
            pytest.fail(f"{name} was truncated")


@pytest.mark.parametrize("whole", [lambda n: n, np.int64, np.uint32, float], ids=[
    "int", "int64", "uint32", "integral-float"])
def test_whole_number_arguments_keep_working(whole):
    ens = sm.generate_ensemble(sm.build_field_covariance(GRID, 0.01), GRID, 0.01, whole(50), SEED)
    assert ens.amplitudes.tobytes() == sm.build_ensemble(GRID, 0.01, 50, SEED).amplitudes.tobytes()
    coherent = sm.QuantumState.coherent(10.0)
    est = sm.estimate_noise_correlation(
        ens, coherent, mode="counting", shots=whole(8), seed=whole(SEED), n_boot=whole(2))
    ref = sm.estimate_noise_correlation(ens, coherent, mode="counting", shots=8, seed=SEED, n_boot=2)
    assert est.curve.values.tobytes() == ref.curve.values.tobytes()
    assert est.curve.stderr.tobytes() == ref.curve.stderr.tobytes()
    rng = sm.substream(whole(SEED), whole(1), whole(COUNT_STREAM))
    counts = sm.sample_transmitted_counts(coherent, 0.5, whole(6), rng)
    assert counts.tobytes() == sm.sample_transmitted_counts(
        coherent, 0.5, 6, sm.substream(SEED, 1, COUNT_STREAM)).tobytes()


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


def test_generated_rows_are_prefix_stable():
    # So validate's counting check, on the first 2,000 moment rows, does not depend on R.
    grid = np.array(MOMENT_GRID)
    longer = sm.build_ensemble(grid, 0.01, 3000, SEED)
    shorter = sm.build_ensemble(grid, 0.01, 2000, SEED)
    assert longer.amplitudes[:2000].tobytes() == shorter.amplitudes.tobytes()


@pytest.mark.parametrize("mode", ["analytic_variance", "counting"])
def test_coincident_offsets_give_finite_curves(mode):
    ens = sm.build_ensemble([0.0, 1.0, 1.0, 2.0], 0.01, 200, SEED)
    est = sm.estimate_noise_correlation(ens, sm.QuantumState.coherent(10.0), mode=mode,
                                        shots=20, seed=SEED)
    assert est.curve.offsets.tolist() == [0.0, 1.0, 1.0, 2.0]
    assert np.all(np.isfinite(est.curve.values))
    assert np.all(np.isfinite(est.curve.stderr))


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


def _strided_column_moments(ens):
    """Moment records read column by column from the R x K arrays."""
    q = ens.mean_t
    t = ens.transmissions
    t0 = t[:, 0]
    records = [("T_mean", None, *sm.ensemble._mean_with_stderr(t0), q)]
    for n in (2, 3, 4):
        records.append((f"T{n}", None, *sm.ensemble._mean_with_stderr(t0 ** n),
                        math.factorial(n) * q ** n))
    offsets = ens.pair_offsets()
    for k in range(ens.grid.size):
        x = float(offsets[k])
        c = sm.intensity_decay(x)
        tk = t[:, k]
        records.append(("TT", x, *sm.ensemble._mean_with_stderr(t0 * tk), q * q * (1.0 + c)))
        records.append(("T2T", x, *sm.ensemble._mean_with_stderr(t0 * t0 * tk),
                        2.0 * q ** 3 * (1.0 + 2.0 * c)))
        records.append(("T2T2", x, *sm.ensemble._mean_with_stderr(t0 * t0 * tk * tk),
                        4.0 * q ** 4 * (1.0 + 4.0 * c + c * c)))
        field = np.conj(ens.amplitudes[:, 0]) * ens.amplitudes[:, k]
        m = field.sum() / field.size
        influence = 2.0 * (np.conj(m) * field).real
        _, se = sm.ensemble._mean_with_stderr(influence)
        records.append(("field_corr", x, float(abs(m) ** 2), se, q * q * c))
    return records


@pytest.mark.parametrize("r_total", [500, 3001])
@pytest.mark.parametrize("grid", [
    np.array(MOMENT_GRID),
    np.concatenate(([0.0], np.geomspace(1e-2, 1e2, 25))),
], ids=["moment", "default-curve"])
def test_moments_match_strided_column_loop(grid, r_total):
    ens = sm.build_ensemble(grid, 0.01, r_total, SEED)
    got = [(r.name, r.offset, r.empirical, r.stderr, r.theory)
           for r in sm.estimate_moments(ens).records]
    ref = _strided_column_moments(ens)
    # Equal floats compare equal whatever their last bit; repr tells them apart.
    assert repr(got) == repr(ref)


def _abs_sq_mean_jackknife(samples):
    """|mean(samples)|^2 with a leave-one-out jackknife standard error."""
    n = samples.size
    total = samples.sum()
    estimate = abs(total / n) ** 2
    loo = np.abs((total - samples) / (n - 1)) ** 2
    return float(estimate), math.sqrt((n - 1) * float(np.var(loo)))


@pytest.mark.parametrize("r_total", [500, 3001])
@pytest.mark.parametrize("grid", [
    np.array(MOMENT_GRID),
    np.concatenate(([0.0], np.geomspace(1e-2, 1e2, 25))),
], ids=["moment", "default-curve"])
def test_field_corr_stderr_agrees_with_jackknife(grid, r_total):
    # Both variances share the first-order term sum(psi^2) / (R (R - 1)).  The
    # jackknife adds -2 Cov(psi, |d|^2) / (R - 1) relative to Var(psi), with
    # d = conj(t0) tk - m; as |m| = mean_t sqrt(c), its error moves by about
    # 1 / (R sqrt(c)) relative.  Measured: at most 1.4 / (R sqrt(c)) over 8 seeds.
    ens = sm.build_ensemble(grid, 0.01, r_total, SEED)
    for k, record in enumerate(sm.estimate_moments(ens).by_name("field_corr")):
        field = np.conj(ens.amplitudes[:, 0]) * ens.amplitudes[:, k]
        estimate, stderr = _abs_sq_mean_jackknife(field)
        assert record.empirical == estimate
        c = sm.intensity_decay(record.offset)
        assert abs(record.stderr - stderr) <= 2.0 / (r_total * math.sqrt(c)) * stderr


def test_moment_estimation_needs_enough_realizations():
    small = sm.build_ensemble(GRID, 0.01, 10, SEED)
    with pytest.raises(EstimationError):
        sm.estimate_moments(small)


# --- noise correlation estimates ---------------------------------------------------


def test_shot_noise_curve_matches_decay(ensemble):
    est = sm.estimate_noise_correlation(ensemble, sm.QuantumState.coherent(10.0))
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


def _per_cell_variances(ens, state, shots, seed):
    """Counting-mode proxies from one sampler call and one variance per cell."""
    t = np.minimum(ens.transmissions, 1.0)
    half = shots // 2
    v = np.empty_like(t)
    v00 = np.empty(ens.realizations)
    for r in range(ens.realizations):
        rng = sm.substream(seed, r, COUNT_STREAM)
        for k in range(t.shape[1]):
            counts = sm.sample_transmitted_counts(state, t[r, k], shots, rng)
            v[r, k] = counts.var(ddof=1)
            if k == 0:
                v00[r] = counts[:half].var(ddof=1) * counts[half:].var(ddof=1)
    return v, v00


@pytest.mark.parametrize("shots", [40, 41, 1000, 1001])
@pytest.mark.parametrize("state", [
    sm.QuantumState.fock(10), sm.QuantumState.coherent(10.0), sm.QuantumState.thermal(1.0),
], ids=["fock", "coherent", "thermal"])
def test_counting_variances_match_per_cell_loop(state, shots):
    ens = sm.build_ensemble(np.array(COUNTING_GRID), 0.01, 60, SEED)
    v, v00, _ = _per_realization_variances(ens, state, "counting", shots, SEED, 1.0)
    ref_v, ref_v00 = _per_cell_variances(ens, state, shots, SEED)
    assert v.tobytes() == ref_v.tobytes()
    assert v00.tobytes() == ref_v00.tobytes()


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


def test_unknown_mode_rejected(ensemble):
    one = sm.SpeckleEnsemble(ensemble.amplitudes[:1], ensemble.grid, 0.01, SEED)
    coherent = sm.QuantumState.coherent(10.0)
    cases = {
        "unknown mode": (DomainError, lambda: sm.estimate_noise_correlation(
            ensemble, sm.CLASSICAL, mode="exact")),
        "state neither QuantumState nor CLASSICAL": (DomainError, lambda: (
            sm.estimate_noise_correlation(ensemble, "coherent"))),
        "counting mode with CLASSICAL": (DomainError, lambda: sm.estimate_noise_correlation(
            ensemble, sm.CLASSICAL, mode="counting", shots=10)),
        "one realization": (EstimationError, lambda: sm.estimate_noise_correlation(
            one, coherent)),
        "one bootstrap resample": (DomainError, lambda: sm.estimate_noise_correlation(
            ensemble, coherent, n_boot=1)),
    }
    for name, (error, call) in cases.items():
        with pytest.raises(error):
            call()
            pytest.fail(f"{name} was accepted")


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

    def with_values(re, im):
        return f"1,1,{re},{im}\n"

    cases = {
        "two missing rows": lines[:row] + lines[row + 2 :],
        "negative grid_index": lines[:row] + [with_index(-1)] + lines[row + 1 :],
        "duplicated row": lines[:row] + [lines[row - 1]] + lines[row + 1 :],
        "grid_index >= K": lines[:row] + [with_index(3)] + lines[row + 1 :],
        "non-numeric row": lines[:row] + [with_values("abc", 0.1)] + lines[row + 1 :],
        "infinite amplitude": lines[:row] + [with_values("inf", 0.1)] + lines[row + 1 :],
        "NaN amplitude": lines[:row] + [with_values(0.1, "nan")] + lines[row + 1 :],
    }
    named = {"infinite amplitude": "realization 1, grid index 1 ",
             "NaN amplitude": "realization 1, grid index 1 "}
    for name, text in cases.items():
        path.write_text("".join(text))
        with pytest.raises(DomainError, match=named.get(name)):
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
        "no column header line": lines[:header] + lines[header + 1 :],
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
