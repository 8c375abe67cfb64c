"""50-digit mpmath evaluation of the closed forms that ``curves`` emits."""

from __future__ import annotations

import mpmath as mp

DIGITS = 50


def _decay(x):
    if x == 0:
        return mp.mpf(1)
    u = mp.sqrt(x)
    return x / (mp.cosh(u) - mp.cos(u))


def _kernel(x):
    u = mp.sqrt(x)
    return (mp.sinh(u) - mp.sin(u)) / ((mp.cosh(u) - mp.cos(u)) * x)


def fig1_row(x) -> list:
    """Reference (c_sn, c_cn) at offset x."""
    c = _decay(mp.mpf(x))
    return [c, c * c + 4 * c]


def fig2_row(x, fanos, ratios) -> list:
    """Reference first-order corrections at unit mean transmission, fig2 column order."""
    x = mp.mpf(x)
    c, g = _decay(x), _kernel(x)
    return [
        mp.mpf(1.5) * mp.mpf(r) ** 2 * g + 4 * (mp.mpf(f) - 1) * c
        for f in fanos
        for r in ratios
    ]


def max_rel_err(fig1_rows, fig2_rows, fanos, ratios) -> float:
    """Largest |emitted - reference| / |reference| over the sampled rows."""
    worst = mp.mpf(0)
    with mp.workdps(DIGITS):
        for row in fig1_rows:
            pairs = zip(row[1:], fig1_row(row[0]))
            worst = max([worst] + [abs(mp.mpf(v) - ref) / abs(ref) for v, ref in pairs])
        for row in fig2_rows:
            pairs = zip(row[1:], fig2_row(row[0], fanos, ratios))
            worst = max([worst] + [abs(mp.mpf(v) - ref) / abs(ref) for v, ref in pairs])
    return float(worst)
