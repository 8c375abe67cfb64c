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
and estimates are bit-identical for a fixed seed.  Generation runs block by
block in realization order and reductions always run in fixed realization
order.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.random.bit_generator import ISeedSequence
from scipy import linalg, stats

from .correlations import (
    CorrelationCurve,
    _checked_mean_transmission,
    _checked_offset,
    _checked_whole,
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

# Bytes of one generation block's draws: 32 K bytes per realization, its 2K
# normals and its K complex values, so about 260 rows at K = 2000.
_DRAW_BLOCK_BYTES = 16 << 20

# Bootstrap resamples whose counts share one matrix product: at R = 1e5 each
# of the block's index, count and weight arrays takes 6.4 MB.
_BOOT_BLOCK = 8

_MIN_MOMENT_REALIZATIONS = 100
_MIN_RAYLEIGH_REALIZATIONS = 1000
KS_SIGNIFICANCE = 0.01  # of the Kolmogorov-Smirnov test in rayleigh_check


def _checked_unsigned(value, name: str, bits: int) -> int:
    if type(value) is int and 0 <= value < 1 << bits:  # bools and numpy ints take the full check
        return value
    v = _checked_whole(value, name)
    if not 0 <= v < 1 << bits:
        raise DomainError(f"{name} must be a {bits}-bit unsigned integer, got {value}")
    return v


def _checked_seed(seed) -> int:
    return _checked_unsigned(seed, "seed", 64)


def _checked_grid(grid) -> np.ndarray:
    grid = np.asarray(grid, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise DomainError("grid must be a non-empty 1-d array of offsets")
    for x in grid:
        _checked_offset(x)
    if np.any(np.diff(grid) < 0.0):
        raise DomainError("grid offsets must be ordered (non-decreasing)")
    return grid


class _PhiloxKey(ISeedSequence):
    """Seed sequence that hands Philox the key words [seed, 0] and nothing else.

    ``Philox(key=seed)`` sets the same key, but first builds a SeedSequence
    from OS entropy that it never reads; this one costs no system call.
    """

    def __init__(self, seed: int):
        self._seed = seed

    def generate_state(self, n_words, dtype=np.uint32):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise NotImplementedError(
                f"only the two uint64 Philox key words are provided, not {n_words} {dtype}"
            )
        return np.array([self._seed, 0], dtype=np.uint64)


def substream(seed, realization: int, tag: int = FIELD_STREAM) -> np.random.Generator:
    """Counter-based generator, independent for every (seed, realization, tag).

    The stream is that of ``Philox(key=seed, counter=(realization << 128) |
    (tag << 64))``, built without drawing OS entropy.  The seed and tag must
    be whole numbers in [0, 2**64) and the realization one in [0, 2**128);
    anything else raises DomainError.
    """
    r = _checked_unsigned(realization, "realization", 128)
    # The counter as its four uint64 words, least significant first.
    words = np.array([0, _checked_unsigned(tag, "tag", 64), r & ((1 << 64) - 1), r >> 64],
                     dtype=np.uint64)
    return np.random.Generator(np.random.Philox(_PhiloxKey(_checked_seed(seed)), counter=words))


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
    xs = grid.tolist()
    cov = np.empty((k, k), dtype=complex)
    for j, xj in enumerate(xs):
        # Row j below the diagonal, then its conjugate above: the diagonal
        # keeps the conjugate's -0.0 imaginary part.
        row = np.array([q * field_kernel(xj - xi) for xi in xs[:j + 1]])
        cov[j, :j + 1] = row
        cov[:j + 1, j] = row.conj()
    return cov


def _covariance_factor(cov: np.ndarray, mean_t: float) -> np.ndarray:
    """Lower-triangular Cholesky factor of cov + 1e-12 * mean_t * I.

    The jitter lifts the round-off eigenvalues of a rank-deficient kernel
    covariance.  Where the jittered matrix has no Cholesky factor, cov is
    indefinite beyond round-off and CovarianceModelError names its smallest
    eigenvalue.
    """
    jitter = 1e-12 * mean_t
    shifted = cov.copy()
    shifted[np.diag_indices_from(shifted)] += jitter
    try:
        return np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        smallest = linalg.eigh(cov, eigvals_only=True, subset_by_index=[0, 0])[0]
        raise CovarianceModelError(
            f"covariance is indefinite (min eigenvalue {smallest:.3e} "
            f"< -{jitter:.3e}); the kernel is not consistent on this grid"
        ) from None


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
        finite = np.isfinite(self.amplitudes)
        if not finite.all():
            r, k = np.unravel_index(np.argmin(finite), finite.shape)
            raise DomainError(f"amplitude at realization {r}, grid index {k} is not finite")

    @property
    def realizations(self) -> int:
        return int(self.amplitudes.shape[0])

    @cached_property
    def transmissions(self) -> np.ndarray:
        """Intensity transmission coefficients T = |t|^2, same shape as amplitudes."""
        t = np.abs(self.amplitudes)
        return np.square(t, out=t)  # in place, not left to numpy's temporary elision

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

    The grid and mean_t are checked as ``build_ensemble`` checks them, and cov
    must be finite and Hermitian.  The draws have covariance cov + 1e-12 *
    mean_t * I, through its Cholesky factor; where that matrix has none (cov
    has an eigenvalue below about -1e-12 * mean_t) CovarianceModelError is
    raised.  Realization r takes its 2K normals from its own
    substream, real parts first, so row r depends only on (seed, r).  The
    rows are drawn and multiplied by the factor in blocks of nearly equal size
    whose draws take at most about _DRAW_BLOCK_BYTES, each written into its
    rows of the preallocated amplitude array.  No block has one row unless
    R = 1: numpy multiplies a single row by a different (gemv) kernel, which
    rounds differently from the whole-array product.
    """
    grid = _checked_grid(grid)
    mean_t = _checked_mean_transmission(mean_t)
    cov = np.asarray(cov, dtype=complex)
    k = grid.size
    if cov.shape != (k, k):
        raise DomainError(f"covariance must be {k}x{k} to match the grid")
    if not np.all(np.isfinite(cov)):
        raise DomainError("covariance entries must be finite")
    scale = float(np.abs(cov).max()) or 1.0
    if np.abs(cov - cov.conj().T).max() > 1e-12 * scale:
        raise DomainError("covariance must be Hermitian")
    r_total = _checked_whole(realizations, "realizations")
    if r_total < 1:
        raise DomainError(f"realizations must be >= 1, got {realizations}")
    seed = _checked_seed(seed)

    factor_t = _covariance_factor(cov, mean_t).T.copy()
    root_half = math.sqrt(0.5)

    # At least 4 rows a block, so that nearly equal blocks have at least 2 rows.
    n_blocks = -(-r_total // max(4, _DRAW_BLOCK_BYTES // (32 * k)))
    bounds = [r_total * i // n_blocks for i in range(n_blocks + 1)]
    rows_max = -(-r_total // n_blocks)
    raw_block = np.empty((rows_max, 2 * k))
    xi_block = np.empty((rows_max, k), dtype=complex)
    amplitudes = np.empty((r_total, k), dtype=complex)
    for lo, hi in zip(bounds, bounds[1:]):
        raw, xi = raw_block[:hi - lo], xi_block[:hi - lo]
        for r in range(lo, hi):
            substream(seed, r, FIELD_STREAM).standard_normal(out=raw[r - lo])
        xi.real = raw[:, :k]
        xi.imag = raw[:, k:]
        xi *= root_half
        np.matmul(xi, factor_t, out=amplitudes[lo:hi])
    return SpeckleEnsemble(amplitudes=amplitudes, grid=grid, mean_t=mean_t, seed=seed)


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


def estimate_moments(ens: SpeckleEnsemble) -> MomentReport:
    """Empirical transmission moments against circular-Gaussian predictions.

    Single-frequency moments <T^n> (reference column, theory n! mean_t^n),
    pair moments <T T'>, <T^2 T'>, <T^2 T'^2> and the field moment
    |<t* t'>|^2 for every grid pair (0, k).  Each standard error is
    std(psi, ddof=1) / sqrt(R) of an influence term psi: the sample for the
    means, 2 Re(conj(m) conj(t0) tk) for |m|^2 with m = mean(conj(t0) tk).
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
    t00 = t0 * t0
    records: list[MomentRecord] = []

    emp, se = _mean_with_stderr(t0)
    records.append(MomentRecord("T_mean", None, emp, se, q))
    for n in (2, 3, 4):
        emp, se = _mean_with_stderr(t0 ** n)
        records.append(
            MomentRecord(f"T{n}", None, emp, se, math.factorial(n) * q ** n)
        )

    for k, x in enumerate(ens.pair_offsets().tolist()):
        c = intensity_decay(x)
        # One strided read of column k; the products below read the copy.  A
        # transposed copy of all of t would add R x K floats to the peak.
        tk = t[:, k].copy()
        emp, se = _mean_with_stderr(t0 * tk)
        records.append(MomentRecord("TT", x, emp, se, q * q * (1.0 + c)))
        t00_tk = t00 * tk
        emp, se = _mean_with_stderr(t00_tk)
        records.append(MomentRecord("T2T", x, emp, se, 2.0 * q ** 3 * (1.0 + 2.0 * c)))
        emp, se = _mean_with_stderr(t00_tk * tk)
        records.append(
            MomentRecord("T2T2", x, emp, se, 4.0 * q ** 4 * (1.0 + 4.0 * c + c * c))
        )
        field = np.conj(ens.amplitudes[:, 0]) * ens.amplitudes[:, k]
        m = field.sum() / r_total
        _, se = _mean_with_stderr(2.0 * (np.conj(m) * field).real)
        records.append(MomentRecord("field_corr", x, float(abs(m) ** 2), se, q * q * c))

    return MomentReport(records=records)


@dataclass
class NoiseCorrelationEstimate:
    """Monte Carlo noise correlation curve and the count of transmissions clamped to 1."""

    curve: CorrelationCurve
    n_clamped: int


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
    shots = _checked_whole(shots, "shots") if shots is not None else 0
    if shots < 4:
        raise DomainError(
            f"counting mode needs shots >= 4 (two halves of >= 2 shots at x = 0), got {shots}"
        )
    half = shots // 2
    v = np.empty_like(t)
    v00 = np.empty(ens.realizations)
    counts = np.empty((t.shape[1], shots), dtype=np.int64)  # row k: the shots at x_k
    for r in range(ens.realizations):
        rng = substream(seed, r, COUNT_STREAM)
        for k, tk in enumerate(t[r].tolist()):
            counts[k] = sample_transmitted_counts(state, tk, shots, rng)
        v[r] = counts.var(axis=1, ddof=1)
        v00[r] = counts[0, :half].var(ddof=1) * counts[0, half:].var(ddof=1)
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
    substream of ``seed`` (``ens.seed`` when None); each block of resamples is
    a matrix of resample counts whose means are one matrix product.
    Transmission values above 1 (possible Gaussian tails near mean_t = 1) are
    clamped and counted in ``n_clamped``.
    """
    if ens.realizations < 2:
        raise EstimationError("correlation estimation needs >= 2 realizations")
    n_boot = _checked_whole(n_boot, "n_boot")
    if n_boot < 2:
        raise DomainError(f"bootstrap needs >= 2 resamples, got {n_boot}")
    seed = _checked_seed(ens.seed if seed is None else seed)
    v, v00, n_clamped = _per_realization_variances(ens, state, mode, shots, seed, noise_scale)

    means_v = v.mean(axis=0)
    if np.any(means_v == 0.0):
        raise EstimationError("variance proxy has zero mean: the input carries no noise")
    prod = v[:, :1] * v
    prod[:, 0] = v00
    values = prod.mean(axis=0) / (means_v[0] * means_v) - 1.0

    brng = substream(seed, 0, BOOT_STREAM)
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

    curve = CorrelationCurve(offsets=ens.pair_offsets(), values=values, stderr=stderr)
    return NoiseCorrelationEstimate(curve=curve, n_clamped=n_clamped)


@dataclass(frozen=True)
class RayleighCheck:
    """Goodness of fit of the reference-column intensity to Rayleigh speckle."""

    statistic: float
    pvalue: float
    passed: bool


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
    repeated or out-of-range row raises DomainError, and so do a non-finite
    amplitude and metadata that ``build_ensemble`` would reject.
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
