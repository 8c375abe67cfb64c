"""Photon-number statistics of light sent through a lossy channel.

A single-mode input is described by its mean photon number and Fano factor
(variance over mean): 0 for Fock states, 1 for coherent states, 1 + nbar for
thermal light.  Transmission through a channel with intensity transmission T
maps the variance to  n T + n (F - 1) T^2,  while classical (technical)
noise scales as n^2 T^2.

The samplers draw photon counts from the exact loss-transformed laws --
binomial, Poisson, Bose-Einstein -- and serve as independent oracles for the
variance formula.  They take an explicit seeded generator; use one generator
per worker, never shared across threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .correlations import _REAL_SCALARS, _checked_real, _checked_whole
from .errors import DomainError, UnsupportedSamplingError

STATE_KINDS = ("fock", "coherent", "thermal", "custom")


@dataclass(frozen=True)
class QuantumState:
    """Single-mode input light: mean photon number per frequency mode and Fano factor."""

    mean_photons: float
    fano: float
    kind: str = "custom"

    def __post_init__(self):
        n = _checked_real(self.mean_photons, "mean_photons")
        f = _checked_real(self.fano, "fano")
        if self.kind not in STATE_KINDS:
            raise DomainError(f"unknown state kind {self.kind!r}")
        if self.kind == "fock" and (n != int(n) or f != 0.0):
            raise DomainError("fock states need integer mean_photons and fano = 0")
        if self.kind == "coherent" and f != 1.0:
            raise DomainError("coherent states have fano = 1 exactly")
        if self.kind == "thermal" and f != 1.0 + n:
            raise DomainError("thermal states have fano = 1 + mean_photons")
        object.__setattr__(self, "mean_photons", n)
        object.__setattr__(self, "fano", f)

    @classmethod
    def fock(cls, n: int) -> "QuantumState":
        """Photon-number eigenstate with exactly n photons (fano 0)."""
        return cls(mean_photons=n, fano=0.0, kind="fock")

    @classmethod
    def coherent(cls, nbar: float) -> "QuantumState":
        """Coherent state with mean nbar (Poissonian, fano 1)."""
        return cls(mean_photons=nbar, fano=1.0, kind="coherent")

    @classmethod
    def thermal(cls, nbar: float) -> "QuantumState":
        """Single-mode thermal state with mean nbar (fano 1 + nbar)."""
        nbar = _checked_real(nbar, "mean_photons")
        return cls(mean_photons=nbar, fano=1.0 + nbar, kind="thermal")

    @classmethod
    def custom(cls, mean_photons: float, fano: float) -> "QuantumState":
        """Arbitrary (mean, fano) pair; not supported by the count samplers."""
        return cls(mean_photons=mean_photons, fano=fano, kind="custom")


# Largest parameter of each count law; sample_transmitted_counts derives them.
_C_LONG_MAX = np.iinfo("l").max
_POISSON_MEAN_MAX = float(_C_LONG_MAX - np.sqrt(_C_LONG_MAX) * 10)
_BOSE_EINSTEIN_MEAN_MAX = 2.0 ** 57


def _checked_transmission(transmission):
    """Validate an intensity transmission coefficient (scalar or array) in [0, 1].

    A real number is checked as one float, so NaN fails the comparison;
    anything else is converted to a float array.  Input that is not a real
    number or array, complex input included, raises DomainError as well.
    """
    try:
        if isinstance(transmission, _REAL_SCALARS):
            t = float(transmission)
            if 0.0 <= t <= 1.0:
                return t
        elif not np.iscomplexobj(transmission):
            t = np.asarray(transmission, dtype=float)
            if np.all(np.isfinite(t)) and not (np.any(t < 0.0) or np.any(t > 1.0)):
                return float(t) if t.ndim == 0 else t
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(
            f"transmission must be a real number or array, got {type(transmission).__name__}"
        ) from exc
    raise DomainError("transmission coefficients must lie in [0, 1]")


def transmitted_variance_quantum(state: QuantumState, transmission):
    """Photon-number variance of the transmitted light: n T + n (F - 1) T^2.

    Accepts a scalar transmission or an array of coefficients (evaluated
    elementwise); non-negative for any physical state with T <= 1.
    """
    t = _checked_transmission(transmission)
    n = state.mean_photons
    return n * t + n * (state.fano - 1.0) * t * t


def transmitted_variance_classical(mean_photons, transmission, noise_scale=1.0):
    """Classical (technical) noise variance: noise_scale * n^2 T^2.

    Only the proportionality to (n T)^2 is physical; noise_scale is a free
    constant that cancels in every normalized correlation.
    """
    t = _checked_transmission(transmission)
    n = _checked_real(mean_photons, "mean_photons")
    scale = _checked_real(noise_scale, "noise_scale", positive=True)
    return scale * n * n * t * t


def _bounded(value, bound, what: str):
    if value > bound:
        raise DomainError(f"{what} {value!r} exceeds {bound!r}: counts would overflow int64")
    return value


def sample_transmitted_counts(
    state: QuantumState, transmission, shots: int, rng: np.random.Generator
) -> np.ndarray:
    """Draw transmitted photon counts from the exact loss-transformed law.

    fock(n) -> binomial(n, T); coherent(nbar) -> Poisson(nbar T);
    thermal(nbar) -> Bose-Einstein (geometric on {0, 1, ...}) with mean
    nbar T.  Custom states have no canonical count law and are rejected.

    Counts are int64, so each law has a bound beyond which DomainError is
    raised.  numpy takes the binomial n as a C long: n <= 2**63 - 1.  Its
    Poisson sampler takes means up to 2**63 - 1 - 10 sqrt(2**63 - 1), about
    9.22e18, ten standard deviations inside int64.  A Bose-Einstein count with
    mean mu reaches 2**63 - 1 with probability (mu / (1 + mu))**(2**63 - 1)
    <= exp(-(2**63 - 1) / (1 + mu)); mu <= 2**57 keeps that below e^-64.
    """
    t = _checked_transmission(transmission)
    if not np.isscalar(t):
        raise DomainError("sampler transmission must be a scalar")
    shots = _checked_whole(shots, "shots")
    if shots < 1:
        raise DomainError(f"shots must be >= 1, got {shots}")
    if state.kind == "fock":
        n = _bounded(int(state.mean_photons), _C_LONG_MAX, "binomial photon number")
        return rng.binomial(n, t, size=shots)
    if state.kind == "coherent":
        lam = _bounded(state.mean_photons * t, _POISSON_MEAN_MAX, "Poisson mean")
        return rng.poisson(lam, size=shots)
    if state.kind == "thermal":
        mu = _bounded(state.mean_photons * t, _BOSE_EINSTEIN_MEAN_MAX, "Bose-Einstein mean")
        return rng.geometric(1.0 / (1.0 + mu), size=shots) - 1
    raise UnsupportedSamplingError(
        f"no exact count law for state kind {state.kind!r}"
    )


@dataclass(frozen=True)
class CountSummary:
    """Empirical moments of a photon-count sample with delta-method errors."""

    shots: int
    mean: float
    variance: float
    fano: float
    stderr_mean: float
    stderr_variance: float
    stderr_fano: float


def summarize_counts(counts) -> CountSummary:
    """Mean, unbiased variance and Fano factor of a count sample.

    Standard errors come from the usual fourth-moment formulas; the Fano
    error propagates the mean-variance covariance (delta method).  The Fano
    entries are NaN when the sample mean is zero.
    """
    c = np.asarray(counts, dtype=float)
    n = c.size
    if n < 2:
        raise DomainError("need at least 2 counts to form a variance")
    m = float(c.mean())
    d = c - m
    mu2 = float(np.mean(d * d))
    mu3 = float(np.mean(d ** 3))
    mu4 = float(np.mean(d ** 4))
    var = mu2 * n / (n - 1)
    var_mean = mu2 / n
    var_var = max((mu4 - mu2 * mu2 * (n - 3) / (n - 1)) / n, 0.0)
    cov_mv = mu3 / n
    if m > 0.0:
        fano = var / m
        var_fano = (var_var - 2.0 * fano * cov_mv + fano * fano * var_mean) / (m * m)
        stderr_fano = math.sqrt(max(var_fano, 0.0))
    else:
        fano = math.nan
        stderr_fano = math.nan
    return CountSummary(
        shots=n,
        mean=m,
        variance=var,
        fano=fano,
        stderr_mean=math.sqrt(var_mean),
        stderr_variance=math.sqrt(var_var),
        stderr_fano=stderr_fano,
    )
