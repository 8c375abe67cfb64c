"""Monte Carlo engine for frequency-correlated Gaussian speckle fields.

The transmission amplitude t of one channel pair is modeled as a circular
Gaussian process over optical frequency.  Its covariance on a grid of
normalized offsets is built from the diffusive-slab field correlator

    h(x) = s / sinh(s),   s = (1 - i) sqrt(x) / 2,

whose squared modulus reproduces ``intensity_decay`` identically, so every
Gaussian moment of T = |t|^2 has a closed form to validate against.

Randomness is counter-based: realization r draws from a Philox stream with
counter (r << 128) | (tag << 64) under the master seed, so every row of an
ensemble depends only on the seed and its realization index, and ensembles
and estimates are bit-identical for a fixed seed.  Generation is a single
loop and reductions always run in fixed realization order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from scipy import stats

from .correlations import (
    CorrelationCurve,
    _checked_mean_transmission,
    _checked_offset,
    intensity_decay,
)
from .errors import (
    CovarianceModelError,
    DomainError,
    EstimationError,
    UnsupportedSamplingError,
)
from .photons import (
    QuantumState,
    sample_transmitted_counts,
    transmitted_variance_classical,
    transmitted_variance_quantum,
)

# Marker accepted in place of a QuantumState for technical-noise estimates.
CLASSICAL = "classical"

# Substream tags partitioning the Philox counter space per realization.
FIELD_STREAM = 0
COUNT_STREAM = 1
BOOT_STREAM = 2

# Bootstrap resamples whose counts share one matrix product: at R = 1e5 each
# of the block's index, count and weight arrays takes 6.4 MB.
_BOOT_BLOCK = 8

_MIN_MOMENT_REALIZATIONS = 100
_MIN_RAYLEIGH_REALIZATIONS = 1000
KS_SIGNIFICANCE = 0.01  # of the Kolmogorov-Smirnov test in rayleigh_check


def _checked_seed(seed) -> int:
    s = int(seed)
    if not 0 <= s < 2 ** 64:
        raise DomainError(f"seed must be a 64-bit unsigned integer, got {seed}")
    return s


def _checked_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise DomainError("grid must be a non-empty 1-d array of offsets")
    for x in grid:
        _checked_offset(x)
    if np.any(np.diff(grid) < 0.0):
        raise DomainError("grid offsets must be ordered (non-decreasing)")
    return grid


def substream(seed, realization: int, tag: int = FIELD_STREAM) -> np.random.Generator:
    """Counter-based generator, independent for every (seed, realization, tag)."""
    counter = (int(realization) << 128) | (int(tag) << 64)
    return np.random.Generator(np.random.Philox(key=_checked_seed(seed), counter=counter))


def field_kernel(x) -> complex:
    """Complex field correlation at offset x >= 0; |kernel|^2 is intensity_decay."""
    x = _checked_offset(x)
    if x == 0.0:
        return 1.0 + 0.0j
    s = (1.0 - 1.0j) * (math.sqrt(x) / 2.0)
    try:
        return s / cmath.sinh(s)
    except OverflowError:
        return 0.0j


def build_field_covariance(grid, mean_t) -> np.ndarray:
    """Hermitian covariance of the transmission amplitudes on an offset grid.

    Entry (j, k) is mean_t * h(x_j - x_k), with the kernel conjugated for
    negative differences so the matrix is exactly Hermitian; the diagonal
    equals mean_t.
    """
    grid = _checked_grid(grid)
    q = _checked_mean_transmission(mean_t)
    k = grid.size
    cov = np.empty((k, k), dtype=complex)
    for j in range(k):
        for i in range(j + 1):
            h = q * field_kernel(grid[j] - grid[i])
            cov[j, i] = h
            cov[i, j] = h.conjugate()
    return cov


def _covariance_factor(cov: np.ndarray, mean_t: float) -> np.ndarray:
    """Lower-triangular factor of cov: eigh, clip round-off negatives, jitter, Cholesky."""
    eigvals, eigvecs = np.linalg.eigh(cov)
    tol = 1e-10 * mean_t
    if eigvals.min() < -tol:
        raise CovarianceModelError(
            f"covariance is indefinite (min eigenvalue {eigvals.min():.3e} "
            f"< -{tol:.3e}); the kernel is not consistent on this grid"
        )
    fixed = (eigvecs * np.clip(eigvals, 0.0, None)) @ eigvecs.conj().T
    fixed[np.diag_indices_from(fixed)] += 1e-12 * mean_t
    fixed = 0.5 * (fixed + fixed.conj().T)
    return np.linalg.cholesky(fixed)


@dataclass
class SpeckleEnsemble:
    """R realizations of complex transmission amplitudes on a frequency grid.

    Row r holds one disorder realization; column k corresponds to grid
    offset x_k, with x_0 the reference frequency of all pair statistics.
    """

    amplitudes: np.ndarray
    grid: np.ndarray
    mean_t: float
    seed: int

    def __post_init__(self):
        self.amplitudes = np.asarray(self.amplitudes, dtype=complex)
        self.grid = np.asarray(self.grid, dtype=float)
        if self.amplitudes.ndim != 2 or self.amplitudes.shape[1] != self.grid.size:
            raise DomainError("amplitudes must be (realizations, grid points)")

    @property
    def realizations(self) -> int:
        return int(self.amplitudes.shape[0])

    @cached_property
    def transmissions(self) -> np.ndarray:
        """Intensity transmission coefficients T = |t|^2, same shape as amplitudes."""
        return np.abs(self.amplitudes) ** 2

    def pair_offsets(self) -> np.ndarray:
        """Offsets of every grid point relative to the reference x_0."""
        return self.grid - self.grid[0]


def generate_ensemble(
    cov: np.ndarray,
    grid,
    mean_t,
    realizations: int,
    seed,
) -> SpeckleEnsemble:
    """Draw circular Gaussian amplitude vectors with the given covariance.

    The factor is always the Cholesky factor of cov after an eigendecomposition
    that clips eigenvalues within round-off of zero and adds a 1e-12 * mean_t
    diagonal jitter; an eigenvalue below -1e-10 * mean_t raises
    CovarianceModelError.  Realization r takes its 2K normals from its own
    substream, so row r depends only on (seed, r).
    """
    cov = np.asarray(cov, dtype=complex)
    grid = np.asarray(grid, dtype=float)
    k = grid.size
    if cov.shape != (k, k):
        raise DomainError(f"covariance must be {k}x{k} to match the grid")
    scale = float(np.abs(cov).max()) or 1.0
    if np.abs(cov - cov.conj().T).max() > 1e-12 * scale:
        raise DomainError("covariance must be Hermitian")
    r_total = int(realizations)
    if r_total < 1:
        raise DomainError(f"realizations must be >= 1, got {realizations}")
    seed = _checked_seed(seed)

    factor_t = _covariance_factor(cov, float(mean_t)).T.copy()
    root_half = math.sqrt(0.5)

    xi = np.empty((r_total, k), dtype=complex)
    for r in range(r_total):
        raw = substream(seed, r, FIELD_STREAM).standard_normal(2 * k)
        xi[r] = (raw[:k] + 1j * raw[k:]) * root_half

    amplitudes = xi @ factor_t
    return SpeckleEnsemble(amplitudes=amplitudes, grid=grid, mean_t=float(mean_t), seed=seed)


def build_ensemble(grid, mean_t, realizations, seed) -> SpeckleEnsemble:
    """Covariance construction plus generation in one call."""
    cov = build_field_covariance(grid, mean_t)
    return generate_ensemble(cov, grid, mean_t, realizations, seed)


@dataclass(frozen=True)
class MomentRecord:
    """One empirical moment next to its Gaussian-theory prediction."""

    name: str
    offset: float | None
    empirical: float
    stderr: float
    theory: float

    def __post_init__(self):
        if not 0.0 < self.stderr < math.inf:
            raise EstimationError(f"{self.name} stderr must be finite and > 0, got {self.stderr}")

    @property
    def z(self) -> float:
        return (self.empirical - self.theory) / self.stderr

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "x": self.offset,
            "empirical": self.empirical,
            "stderr": self.stderr,
            "theory": self.theory,
            "z": self.z,
        }


@dataclass
class MomentReport:
    """Collection of moment records for one ensemble."""

    records: list[MomentRecord]

    def max_abs_z(self) -> float:
        return max(abs(r.z) for r in self.records)

    def by_name(self, name: str) -> list[MomentRecord]:
        return [r for r in self.records if r.name == name]


def _mean_with_stderr(samples: np.ndarray) -> tuple[float, float]:
    n = samples.size
    return float(samples.mean()), float(samples.std(ddof=1) / math.sqrt(n))


def _abs_sq_mean_jackknife(samples: np.ndarray) -> tuple[float, float]:
    """|mean(samples)|^2 with a leave-one-out jackknife standard error."""
    n = samples.size
    total = samples.sum()
    estimate = abs(total / n) ** 2
    loo = np.abs((total - samples) / (n - 1)) ** 2
    stderr = math.sqrt((n - 1) * float(np.var(loo)))
    return float(estimate), stderr


def estimate_moments(ens: SpeckleEnsemble) -> MomentReport:
    """Empirical transmission moments against circular-Gaussian predictions.

    Single-frequency moments <T^n> (reference column, theory n! mean_t^n),
    pair moments <T T'>, <T^2 T'>, <T^2 T'^2> and the field moment
    |<t* t'>|^2 for every grid pair (0, k).  Standard errors are jackknife
    estimates (which for plain means reduce to std / sqrt(R)).
    """
    r_total = ens.realizations
    if r_total < _MIN_MOMENT_REALIZATIONS:
        raise EstimationError(
            f"moment estimation needs >= {_MIN_MOMENT_REALIZATIONS} "
            f"realizations, got {r_total}"
        )
    q = ens.mean_t
    t = ens.transmissions
    t0 = t[:, 0]
    records: list[MomentRecord] = []

    emp, se = _mean_with_stderr(t0)
    records.append(MomentRecord("T_mean", None, emp, se, q))
    for n in (2, 3, 4):
        emp, se = _mean_with_stderr(t0 ** n)
        records.append(
            MomentRecord(f"T{n}", None, emp, se, math.factorial(n) * q ** n)
        )

    offsets = ens.pair_offsets()
    for k in range(ens.grid.size):
        x = float(offsets[k])
        c = intensity_decay(x)
        tk = t[:, k]
        emp, se = _mean_with_stderr(t0 * tk)
        records.append(MomentRecord("TT", x, emp, se, q * q * (1.0 + c)))
        emp, se = _mean_with_stderr(t0 * t0 * tk)
        records.append(MomentRecord("T2T", x, emp, se, 2.0 * q ** 3 * (1.0 + 2.0 * c)))
        emp, se = _mean_with_stderr(t0 * t0 * tk * tk)
        records.append(
            MomentRecord("T2T2", x, emp, se, 4.0 * q ** 4 * (1.0 + 4.0 * c + c * c))
        )
        emp, se = _abs_sq_mean_jackknife(np.conj(ens.amplitudes[:, 0]) * ens.amplitudes[:, k])
        records.append(MomentRecord("field_corr", x, emp, se, q * q * c))

    return MomentReport(records=records)


@dataclass
class NoiseCorrelationEstimate:
    """Monte Carlo estimate of a noise correlation curve."""

    curve: CorrelationCurve
    mode: str
    state: QuantumState | str
    shots_per_realization: int | None
    n_clamped: int
    n_boot: int


def _per_realization_variances(
    ens: SpeckleEnsemble,
    state,
    mode: str,
    shots,
    seed,
    noise_scale: float,
) -> tuple[np.ndarray, np.ndarray, int]:
    """Variance proxy v[r, k] for every realization and grid point.

    Also returns the per-realization estimate of v0^2 used at x = 0.  In
    counting mode v0 * v0 would carry the sampling variance of v0 itself, so
    the estimate is the product of the sample variances of two disjoint
    halves of the reference shots, which are independent given T.
    """
    t = ens.transmissions
    n_clamped = int(np.count_nonzero(t > 1.0))
    t = np.minimum(t, 1.0)

    if mode == "analytic_variance":
        if state == CLASSICAL:
            v = transmitted_variance_classical(1.0, t, noise_scale)
        elif isinstance(state, QuantumState):
            v = transmitted_variance_quantum(state, t)
        else:
            raise DomainError(f"state must be a QuantumState or {CLASSICAL!r}")
        return v, v[:, 0] * v[:, 0], n_clamped

    if mode != "counting":
        raise DomainError(f"unknown estimation mode {mode!r}")
    if not isinstance(state, QuantumState):
        raise DomainError("counting mode needs a QuantumState input")
    if state.kind == "custom":
        raise UnsupportedSamplingError("counting mode cannot sample custom states")
    shots = int(shots) if shots is not None else 0
    if shots < 4:
        raise DomainError(
            f"counting mode needs shots >= 4 (two halves of >= 2 shots at x = 0), got {shots}"
        )
    seed = _checked_seed(ens.seed if seed is None else seed)
    half = shots // 2
    v = np.empty_like(t)
    v00 = np.empty(ens.realizations)
    for r in range(ens.realizations):
        rng = substream(seed, r, COUNT_STREAM)
        for k in range(t.shape[1]):
            counts = sample_transmitted_counts(state, t[r, k], shots, rng)
            v[r, k] = counts.var(ddof=1)
            if k == 0:
                v00[r] = counts[:half].var(ddof=1) * counts[half:].var(ddof=1)
    return v, v00, n_clamped


def estimate_noise_correlation(
    ens: SpeckleEnsemble,
    state,
    mode: str = "analytic_variance",
    shots: int | None = None,
    seed=None,
    noise_scale: float = 1.0,
    n_boot: int = 200,
) -> NoiseCorrelationEstimate:
    """Correlation of noise variances between the reference and each offset.

    Per realization the variance proxy is either the closed-form transmitted
    variance evaluated at T = |t|^2 (mode "analytic_variance") or the
    unbiased sample variance of drawn photon counts (mode "counting").  The
    curve value at x_k is  mean_r[v_0 v_k] / (mean_r[v_0] mean_r[v_k]) - 1,
    where counting mode estimates v_0^2 at x_0 from disjoint halves of the
    shots (so it needs shots >= 4).  Standard errors come from ``n_boot``
    bootstrap resamples of the realizations, drawn from the BOOT_STREAM
    substream; each block of resamples is a matrix of resample counts whose
    means are one matrix product.  Transmission values above 1 (possible
    Gaussian tails near mean_t = 1) are clamped and counted in ``n_clamped``.
    """
    if ens.realizations < 2:
        raise EstimationError("correlation estimation needs >= 2 realizations")
    if n_boot < 2:
        raise DomainError(f"bootstrap needs >= 2 resamples, got {n_boot}")
    v, v00, n_clamped = _per_realization_variances(ens, state, mode, shots, seed, noise_scale)

    means_v = v.mean(axis=0)
    if np.any(means_v == 0.0):
        raise EstimationError("variance proxy has zero mean: the input carries no noise")
    prod = v[:, :1] * v
    prod[:, 0] = v00
    values = prod.mean(axis=0) / (means_v[0] * means_v) - 1.0

    boot_seed = _checked_seed(ens.seed if seed is None else seed)
    brng = substream(boot_seed, 0, BOOT_STREAM)
    r_total = ens.realizations
    boot = np.empty((n_boot, v.shape[1]))
    for start in range(0, n_boot, _BOOT_BLOCK):
        n = min(_BOOT_BLOCK, n_boot - start)
        # Row i draws exactly the indices of the i-th of n successive size-R draws;
        # offsetting row i by i * R lets one bincount count every row at once.
        idx = brng.integers(0, r_total, size=(n, r_total))
        idx += (np.arange(n) * r_total)[:, None]
        weights = np.bincount(idx.ravel(), minlength=n * r_total).reshape(n, r_total)
        weights = weights.astype(float)
        mv = weights @ v / r_total
        boot[start:start + n] = (weights @ prod / r_total) / (mv[:, :1] * mv) - 1.0
    stderr = boot.std(axis=0, ddof=1)

    if state == CLASSICAL:
        label = "classical noise (MC)"
    else:
        label = f"{state.kind} fano={state.fano:g} (MC, {mode})"
    curve = CorrelationCurve(
        offsets=ens.pair_offsets(), values=values, stderr=stderr, label=label
    )
    return NoiseCorrelationEstimate(
        curve=curve,
        mode=mode,
        state=state,
        shots_per_realization=int(shots) if mode == "counting" else None,
        n_clamped=n_clamped,
        n_boot=int(n_boot),
    )


@dataclass(frozen=True)
class RayleighCheck:
    """Goodness of fit of the reference-column intensity to Rayleigh speckle."""

    statistic: float
    pvalue: float
    significance: float
    passed: bool

    def to_dict(self) -> dict:
        return {
            "statistic": self.statistic,
            "pvalue": self.pvalue,
            "significance": self.significance,
            "passed": self.passed,
        }


def rayleigh_check(ens: SpeckleEnsemble) -> RayleighCheck:
    """Kolmogorov-Smirnov test of T at the reference offset against Exp(mean_t).

    Circular Gaussian fields imply exponentially distributed intensity, so a
    well-formed ensemble passes at significance KS_SIGNIFICANCE.
    """
    if ens.realizations < _MIN_RAYLEIGH_REALIZATIONS:
        raise EstimationError(
            f"Rayleigh check needs >= {_MIN_RAYLEIGH_REALIZATIONS} "
            f"realizations, got {ens.realizations}"
        )
    result = stats.kstest(ens.transmissions[:, 0], "expon", args=(0.0, ens.mean_t))
    return RayleighCheck(
        statistic=float(result.statistic),
        pvalue=float(result.pvalue),
        significance=KS_SIGNIFICANCE,
        passed=bool(result.pvalue > KS_SIGNIFICANCE),
    )


def save_ensemble_csv(ens: SpeckleEnsemble, path) -> None:
    """Write the ensemble as text: one row per (realization, grid index).

    Leading comment lines carry the grid, mean transmission and seed so the
    file round-trips losslessly; floats use repr precision.
    """
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(f"# mean_t={ens.mean_t!r}\n")
        fh.write(f"# seed={ens.seed}\n")
        fh.write("# grid=" + ",".join(repr(float(x)) for x in ens.grid) + "\n")
        fh.write("realization,grid_index,re,im\n")
        for r, row in enumerate(ens.amplitudes.tolist()):
            for k, z in enumerate(row):
                fh.write(f"{r},{k},{z.real!r},{z.imag!r}\n")


def load_ensemble_csv(path) -> SpeckleEnsemble:
    """Read an ensemble written by ``save_ensemble_csv``.

    Rows must follow the header directly and run through (realization,
    grid_index) = (0, 0), (0, 1), ..., (R-1, K-1) in order; a missing,
    repeated or out-of-range row raises DomainError, and so does metadata
    that ``build_ensemble`` would reject.
    """
    meta: dict[str, str] = {}
    with open(path, "r", encoding="utf-8") as fh:
        line = fh.readline()
        while line.startswith("#"):
            key, _, value = line[1:].partition("=")
            meta[key.strip()] = value.strip()
            line = fh.readline()
        try:
            grid = _checked_grid([float(v) for v in meta["grid"].split(",")])
            mean_t = _checked_mean_transmission(meta["mean_t"])
            seed = _checked_seed(meta["seed"])
        except KeyError as exc:
            raise DomainError(f"ensemble file is missing metadata line {exc}") from exc
        except ValueError as exc:
            raise DomainError(f"malformed ensemble metadata: {exc}") from exc
        if not line.startswith("realization"):
            raise DomainError("ensemble file is missing its column header line")
        start = fh.tell()
        if not fh.readline().strip():
            raise DomainError("ensemble file has no rows after its column header line")
        fh.seek(start)
        try:
            rows = np.loadtxt(fh, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise DomainError(f"malformed ensemble row: {exc}") from exc
    k = grid.size
    r_total = rows.shape[0] // k
    index = np.stack(np.divmod(np.arange(r_total * k), k), axis=1)
    if r_total == 0 or rows.shape != (r_total * k, 4) or not np.array_equal(rows[:, :2], index):
        raise DomainError(
            "ensemble rows must be realization,grid_index,re,im for indices "
            f"(0, 0), (0, 1), ... (R-1, {k - 1}) in order; got {rows.shape[0]} rows"
        )
    amplitudes = np.empty((r_total, k), dtype=complex)
    amplitudes.real = rows[:, 2].reshape(r_total, k)
    amplitudes.imag = rows[:, 3].reshape(r_total, k)
    return SpeckleEnsemble(amplitudes=amplitudes, grid=grid, mean_t=mean_t, seed=seed)
