"""Closed-form noise correlations of multiply scattered light.

Everything here is expressed on the dimensionless frequency offset
x = dw / w_D, where w_D = D / (2 L^2) is the Thouless frequency of a
diffusive slab (thickness L, diffusion constant D).  Two special functions
carry all the frequency dependence:

* ``intensity_decay`` -- x / (cosh sqrt(x) - cos sqrt(x)), the decay of the
  intensity speckle correlation; equals 1 at zero offset.
* ``mesoscopic_kernel`` -- (1/x) (sinh sqrt(x) - sin sqrt(x)) /
  (cosh sqrt(x) - cos sqrt(x)), the kernel of the leading non-Gaussian
  (mesoscopic) correction; diverges like 1/(3 sqrt(x)) at small offsets.

On top of those, the module evaluates the noise correlation functions for
shot-noise-limited, classically noisy, and general quantum inputs, plus the
first-order expansion in the mean transmission used for the curve plots.

All operations are pure and thread-safe.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DivergenceError, DomainError, SingularParameterError

# Up to this offset the kernel takes its series, because its scaled
# numerator 1 - e^(-2u) - 2 e^(-u) sin u cancels at small u = sqrt(x).
_KERNEL_SERIES_MAX = 4.0

# (1/(4k+3)!, 1/(4k+2)!) for k = 6..0, the Horner coefficients of the kernel
# series in x^2; seven terms are exact to double precision up to x = 4.
_KERNEL_SERIES = tuple(
    (1.0 / math.factorial(4 * k + 3), 1.0 / math.factorial(4 * k + 2)) for k in range(6, -1, -1)
)

_REAL_SCALARS = (float, int, np.floating, np.integer)


def _checked_real(value, name: str, positive: bool = False) -> float:
    """value as a finite float, >= 0 (> 0 if positive); DomainError otherwise.

    Input that float() rejects or that is complex raises DomainError as well.
    """
    try:
        # float() of a numpy complex only warns and drops the imaginary part.
        if not isinstance(value, _REAL_SCALARS) and np.iscomplexobj(value):
            raise TypeError("complex input")
        v = float(value)
    except (TypeError, ValueError, OverflowError) as exc:
        raise DomainError(f"{name} must be a real number, got {value!r}") from exc
    if not math.isfinite(v) or v < 0.0 or (positive and v == 0.0):
        raise DomainError(f"{name} must be finite and {'>' if positive else '>='} 0, got {v}")
    return v


def _checked_offset(x) -> float:
    return _checked_real(x, "normalized frequency offset")


def _checked_mean_transmission(mean_t) -> float:
    q = _checked_real(mean_t, "mean transmission", positive=True)
    if q > 1.0:
        raise DomainError(f"mean transmission must lie in (0, 1], got {mean_t}")
    return q


def _checked_whole(value, name: str) -> int:
    """value as an int; DomainError unless it is a whole number.

    ints and numpy integers pass as they are, floats only when integral
    (2.0 passes, 2.7 does not) and strings only as integer literals.
    """
    if isinstance(value, (int, np.integer)):
        return int(value)
    try:
        if isinstance(value, str):
            return int(value)
        f = float(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(f"{name} must be a whole number, got {value!r}") from exc
    if not f.is_integer():
        raise DomainError(f"{name} must be a whole number, got {value!r}")
    return int(f)


def _checked_fano(fano) -> float:
    return _checked_real(fano, "Fano factor")


def _scaled_denominator(u: float) -> tuple[float, float]:
    """h = e^(-u/2) and d = 2 e^(-u) (cosh u - cos u), for u >= 0.

    cosh u - cos u = 2 sinh^2(u/2) + 2 sin^2(u/2), so d is the sum of the
    squares expm1(-u)^2 and (2 h sin(u/2))^2: nothing cancels or overflows.
    """
    h = math.exp(-0.5 * u)
    s = 2.0 * h * math.sin(0.5 * u)
    e = math.expm1(-u)
    return h, e * e + s * s


def intensity_decay(x) -> float:
    """Decay of the intensity speckle correlation at normalized offset x.

    Evaluates x / (cosh sqrt(x) - cos sqrt(x)), monotonically decreasing from
    1 at x = 0.  Through cosh u - cos u = 2 sinh^2(u/2) + 2 sin^2(u/2),
    u = sqrt(x), scaled by 2 e^(-u), it is the one formula
    2 x e^(-u) / (expm1(-u)^2 + (2 e^(-u/2) sin(u/2))^2) for every x > 0.
    """
    x = _checked_offset(x)
    if x == 0.0:
        return 1.0
    h, d = _scaled_denominator(math.sqrt(x))
    # Two half factors: neither underflows before the result itself does.
    c = 2.0 * x * h * h / d
    # The decay is at most 1; rounding alone exceeds it by up to 3 ulps below
    # x ~ 3e-7.
    return c if c < 1.0 else 1.0


def mesoscopic_kernel(x) -> float:
    """Frequency kernel of the leading mesoscopic (non-Gaussian) correction.

    Evaluates (1/x) (sinh sqrt(x) - sin sqrt(x)) / (cosh sqrt(x) - cos sqrt(x)),
    which behaves as 1/(3 sqrt(x)) for small x and as 1/x for large x.  For
    0 < x <= 4 it is the series ratio
    sum x^(2k)/(4k+3)! / (sqrt(x) sum x^(2k)/(4k+2)!), k = 0..6; above, with
    both parts scaled by 2 e^(-u) as in ``intensity_decay``, it is
    (1 - e^(-2u) - 2 e^(-u) sin u) / (x (expm1(-u)^2 + (2 e^(-u/2) sin(u/2))^2)).
    The zero-offset divergence is an artifact of the plane-wave
    approximation, so x = 0 raises instead of returning inf.
    """
    x = _checked_offset(x)
    if x == 0.0:
        raise DivergenceError(
            "mesoscopic kernel diverges at zero offset (plane-wave "
            "approximation); use a strictly positive offset"
        )
    if x <= _KERNEL_SERIES_MAX:
        y = x * x
        num = den = 0.0
        for a, b in _KERNEL_SERIES:
            num = num * y + a
            den = den * y + b
        return num / (math.sqrt(x) * den)
    u = math.sqrt(x)
    h, d = _scaled_denominator(u)
    return (-math.expm1(-2.0 * u) - 2.0 * h * h * math.sin(u)) / (d * x)


def shot_noise_correlation(x) -> float:
    """Noise correlation for shot-noise-limited light.

    Identical to ``intensity_decay``: for Poissonian input the fluctuation
    correlations carry exactly the intensity memory effect.
    """
    return intensity_decay(x)


def classical_noise_correlation(x) -> float:
    """Noise correlation for classically (technically) noisy light.

    Equal to c^2 + 4c with c = shot_noise_correlation(x); a factor 5 above
    the shot-noise value at zero offset.
    """
    c = intensity_decay(x)
    return c * c + 4.0 * c


def quantum_noise_correlation(x, fano, mean_t) -> float:
    """Noise correlation for an arbitrary single-mode input, Gaussian order.

    Closed form obtained by substituting the circular-Gaussian moments of the
    transmission into the fluctuation-correlation ratio.  With F = fano - 1,
    q = mean_t and c = intensity_decay(x):

        [(1 + c) + 4 F q (1 + 2c) + 4 F^2 q^2 (1 + 4c + c^2)]
            / (1 + 2 F q)^2  -  1

    Reduces exactly to the shot-noise curve for fano = 1.  Raises
    SingularParameterError when 1 + 2 F q vanishes (sub-Poissonian input with
    q = 1 / (2 |F|), far outside the physical small-q regime).
    """
    c = intensity_decay(x)
    fano = _checked_fano(fano)
    q = _checked_mean_transmission(mean_t)
    F = fano - 1.0
    den = 1.0 + 2.0 * F * q
    if abs(den) < 1e-12:
        raise SingularParameterError(
            f"correlation denominator vanishes for fano={fano}, mean_t={q}"
        )
    num = (
        (1.0 + c)
        + 4.0 * F * q * (1.0 + 2.0 * c)
        + 4.0 * F * F * q * q * (1.0 + 4.0 * c + c * c)
    )
    return num / (den * den) - 1.0


@dataclass(frozen=True)
class DiffusionGeometry:
    """Diffusive slab geometry: thickness, transport mean free path, D.

    Lengths share one (arbitrary) unit; the diffusion constant is
    length^2/time.  Multiple scattering requires mean_free_path <= thickness.
    """

    thickness: float
    mean_free_path: float
    diffusion_constant: float = 1.0

    def __post_init__(self):
        for name in ("thickness", "mean_free_path", "diffusion_constant"):
            object.__setattr__(self, name, _checked_real(getattr(self, name), name, positive=True))
        if self.mean_free_path > self.thickness:
            raise DomainError(
                "mean_free_path must not exceed thickness "
                f"(got {self.mean_free_path} > {self.thickness}); the model "
                "only holds in the multiple-scattering regime"
            )

    @classmethod
    def from_thickness_ratio(cls, ratio, mean_free_path=1.0, diffusion_constant=1.0):
        """Build a geometry from the ratio thickness / mean_free_path."""
        ratio = _checked_real(ratio, "thickness ratio", positive=True)
        mean_free_path = _checked_real(mean_free_path, "mean_free_path", positive=True)
        return cls(
            thickness=ratio * mean_free_path,
            mean_free_path=mean_free_path,
            diffusion_constant=diffusion_constant,
        )

    @property
    def omega_d(self) -> float:
        """Thouless frequency D / (2 L^2) setting the correlation decay scale."""
        return self.diffusion_constant / (2.0 * self.thickness ** 2)

    @property
    def thickness_ratio(self) -> float:
        """Thickness over mean free path; >= 1 by construction."""
        return self.thickness / self.mean_free_path

    def normalized_offset(self, delta_omega) -> float:
        """Convert an angular-frequency offset to the dimensionless x."""
        return _checked_offset(_checked_real(delta_omega, "frequency offset") / self.omega_d)


def noise_correlation_expansion(x, fano, mean_t, geometry: DiffusionGeometry):
    """First-order expansion of the quantum noise correlation in mean_t.

    Returns (leading, correction):

    * leading    -- the shot-noise curve, independent of the input state;
    * correction -- (3/2) (L/l)^2 g(x) mean_t + 4 (fano - 1) c(x) mean_t,
      the sum of the classical mesoscopic term and the state-dependent
      quantum term (positive for super-, negative for sub-Poissonian light).

    Requires x > 0 because the mesoscopic kernel diverges at zero offset.
    """
    c = intensity_decay(x)
    g = mesoscopic_kernel(x)
    return c, first_order_correction(c, g, fano, mean_t, geometry)


def first_order_correction(c, g, fano, mean_t, geometry: DiffusionGeometry):
    """The correction term of ``noise_correlation_expansion`` from c(x) and g(x).

    c and g are the decay and the kernel at the same offsets, as floats or as
    equally shaped arrays; arrays are combined elementwise in the scalar
    operation order, so every value has the bits of the scalar call.
    """
    fano = _checked_fano(fano)
    q = _checked_mean_transmission(mean_t)
    ratio = geometry.thickness_ratio
    return 1.5 * ratio * ratio * g * q + 4.0 * (fano - 1.0) * c * q


def transmission_pair_moment(x, mean_t, geometry: DiffusionGeometry) -> float:
    """Mean product of transmissions at offset x, with mesoscopic correction.

    Gaussian statistics give mean_t^2 (1 + c(x)); the leading non-Gaussian
    correction adds (3/2) (L/l)^2 g(x) mean_t^3.
    """
    q = _checked_mean_transmission(mean_t)
    c = intensity_decay(x)
    g = mesoscopic_kernel(x)
    ratio = geometry.thickness_ratio
    return q * q * (1.0 + c) + 1.5 * ratio * ratio * g * q ** 3


@dataclass
class CorrelationCurve:
    """A correlation function sampled on a non-decreasing grid of normalized offsets."""

    offsets: np.ndarray
    values: np.ndarray
    stderr: np.ndarray | None = None

    def __post_init__(self):
        self.offsets = np.asarray(self.offsets, dtype=float)
        self.values = np.asarray(self.values, dtype=float)
        if self.offsets.ndim != 1 or self.offsets.shape != self.values.shape:
            raise DomainError("offsets and values must be 1-d and equally long")
        if not np.all(np.isfinite(self.offsets)):
            raise DomainError("curve offsets must be finite")
        if np.any(np.diff(self.offsets) < 0.0):
            raise DomainError("curve offsets must be ordered (non-decreasing)")
        if self.stderr is not None:
            self.stderr = np.asarray(self.stderr, dtype=float)
            if self.stderr.shape != self.values.shape:
                raise DomainError("stderr must match values in shape")
            if not np.all(np.isfinite(self.stderr) & (self.stderr >= 0)):
                raise DomainError("stderr entries must be finite and >= 0")

    def __len__(self) -> int:
        return int(self.offsets.size)
