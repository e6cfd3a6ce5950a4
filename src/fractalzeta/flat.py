"""The flat drum in closed form: its region volume, tube volume and tube zeta.

At unit scale Ω = {0 < x < 1, 0 < y < e^{-1/x}} and A = {0}, so d(p, A) = |p|.
The cusp y = e^{-1/x} meets the circle of radius t at one point x*(t) for
t < ``SATURATION``; left of it the tube is the cusp, right of it a thin circular
segment.  With u = 1/x the cusp's area is an exponential integral and its
distance zeta a binomial series of upper incomplete gammas (DLMF §8.19, §8.9),
all drawn from one special function, ``_gamma_cf``.  Only numpy and math.
"""
from __future__ import annotations

import functools
import math

import numpy as np

__all__ = ["SATURATION", "region_volume", "log_tube", "tube_zeta"]

SATURATION = math.hypot(1.0, math.exp(-1.0))  # |(1, e^{-1})|, the farthest point of Ω

_ULP = 2.0**-52
_TINY = 1e-300
_CF_STEPS = 2000


def _gamma_cf(a, x) -> tuple[np.ndarray, np.ndarray]:
    """H(a, x) = e^x x^{-a} Γ(a, x) elementwise, for complex a and real x >= 1,
    with a bound on its relative roundoff.

    It is the continued fraction of DLMF 8.9.2.  The modified Lentz method
    (Numerical Recipes §6.2) finds the depth at which successive approximants
    agree to an ulp; the fraction is then summed from that depth back up,
    which keeps its roundoff within 16 + |a| ulps against mpmath (the bound
    doubles that).  Both are stable for Re a <= x; a larger Re a starts
    n = ⌈Re a - x⌉ below and steps up with H(a + 1) = (a·H(a) + 1)/x
    (DLMF 8.8.2), whose cancellation for large |Im a| the bound follows step
    by step.  E₂(x) = e^{-x}·H(-1, x).
    """
    a, x = np.broadcast_arrays(np.asarray(a, dtype=complex), np.asarray(x, dtype=float))
    shift = np.maximum(np.ceil(a.real - x), 0.0)
    a0, b0 = a - shift, x + 1.0 - (a - shift)
    if b0.size == 1:  # python scalars run this loop ten times faster than 0-d arrays
        a0, b0 = complex(a0.item()), complex(b0.item())
    c, d = 1.0 / _TINY, 1.0 / b0
    # a zero denominator shows as a nonfinite value (ZeroDivisionError for scalars)
    with np.errstate(all="ignore"):
        for depth in range(1, _CF_STEPS + 1):
            an, b = depth * (a0 - depth), b0 + 2.0 * depth
            d = 1.0 / (an * d + b)
            c = b + an / c
            if depth % 4 == 0 and np.all(abs(c * d - 1.0) <= 2.0 * _ULP):
                break
        else:
            raise ArithmeticError("incomplete gamma continued fraction did not converge")
        tail = 0.0
        for i in range(depth + 2, 0, -1):
            tail = i * (a0 - i) / (b0 + 2.0 * i + tail)
        h = np.asarray(1.0 / (b0 + tail)).reshape(a.shape)
        rel = np.broadcast_to((32.0 + 2.0 * np.abs(a0)) * _ULP, a.shape)
        for j in range(int(shift.max(initial=0.0))):
            step = j < shift
            prod = (a - shift + j) * h
            up = prod + 1.0
            rel = np.where(step, (rel * abs(prod) + 2.0 * _ULP * (abs(prod) + 1.0)) / abs(up), rel)
            h = np.where(step, up / x, h)
    if not np.all(np.isfinite(h)):
        raise ArithmeticError("incomplete gamma continued fraction hit a zero denominator")
    return h, rel


@functools.cache
def region_volume() -> float:
    """|Ω| = ∫₀¹ e^{-1/x} dx = E₂(1)."""
    return math.exp(-1.0) * float(_gamma_cf(-1.0, 1.0)[0].real)


def _crossing(t: np.ndarray) -> np.ndarray:
    """w = t/x* - 1 >= 0 for each 0 < t < ``SATURATION``, x* the point where
    the cusp meets the circle of radius t.

    With L = log w the crossing e^{-1/x} = (t² - x²)^{1/2} reads G(L) = 0,
    G = (1 + w)/t + log t + L/2 + log(2 + w)/2 - log1p(w).  G is increasing
    and convex in L for t < ``SATURATION``, so Newton converges from any
    start, monotonically after its first step; it starts at the root for
    w → 0.  Solving for w, not x*, keeps x* apart from t once they agree in
    floating point (t ≲ 0.03).
    """
    log_t = np.log(t)
    big_l = -2.0 / t - 2.0 * log_t - math.log(2.0)
    for _ in range(100):
        w = np.exp(big_l)
        g = (1.0 + w) / t + log_t + 0.5 * big_l + 0.5 * np.log(2.0 + w) - np.log1p(w)
        step = g / (w / t + 0.5 + 0.5 * w / (2.0 + w) - w / (1.0 + w))
        big_l = big_l - step
        if np.all(np.abs(step) <= 4.0 * _ULP * np.maximum(1.0, np.abs(big_l))):
            break
    return np.exp(big_l)


def _segment(phi: np.ndarray) -> np.ndarray:
    """f(φ) = (φ - sin φ cos φ)/φ, so that a circular segment of radius t and
    half-angle φ has area t²·φ·f(φ)/2, from its Taylor series
    Σ_j (-1)^{j+1} (2φ)^{2j}/(2j+1)!, free of cancellation.  Every angle here
    is below atan(e^{-1}) = 0.36, where ten terms reach an ulp."""
    q = (2.0 * phi) ** 2
    acc = np.zeros_like(phi)
    for j in range(10, 0, -1):
        acc = q / (2 * j * (2 * j + 1)) * (1.0 - acc)
    return acc


def log_tube(t) -> np.ndarray:
    """log |B_t(0) ∩ Ω| elementwise, -inf at t <= 0.

    Left of x* the tube is the cusp, ∫₀^{x*} e^{-1/x} dx = x*·e^{-1/x*}·H(-1, 1/x*);
    right of it the circular segment of half-angle φ, tan φ = (w(2 + w))^{1/2},
    less, for t > 1, the segment beyond x = 1 of half-angle ψ = atan((t² - 1)^{1/2}).
    The segments enter relative to the cusp through e^{1/x*} = 1/(t sin φ), so
    nothing underflows, and -1/x* = -(1 + w)/t.
    """
    ts = np.asarray(t, dtype=float)
    out = np.full(ts.shape, math.log(region_volume()))
    out[ts <= 0] = -math.inf
    inside = (ts > 0) & (ts < SATURATION)
    tm = ts[inside]
    w = _crossing(tm)
    x_star = tm / (1.0 + w)
    h = _gamma_cf(-1.0, 1.0 / x_star)[0].real
    phi = np.arctan(np.sqrt(w * (2.0 + w)))
    psi = np.arctan(np.sqrt(np.maximum(tm - 1.0, 0.0) * (tm + 1.0)))
    with np.errstate(invalid="ignore", divide="ignore"):
        beyond = np.where(psi > 0, psi * _segment(psi) / np.sin(phi), 0.0)
    # φ/sin φ = 1/sinc(φ/π) stays finite where φ underflows to 0
    segments = 0.5 * tm * (_segment(phi) / np.sinc(phi / math.pi) - beyond)
    out[inside] = -(1.0 + w) / tm + np.log(x_star) + np.log(h) + np.log1p(segments / x_star / h)
    return out


def _expm1_over(z, x) -> np.ndarray:
    """(e^{z x} - 1)/z elementwise, continuous at z = 0 where it equals x; a
    numpy scalar when z and x are scalars."""
    with np.errstate(invalid="ignore", divide="ignore"):
        return np.where(z == 0, x, np.expm1(z * x) / z)[()]


def _cusp_zeta(s: np.ndarray, x_end: float) -> tuple[np.ndarray, np.ndarray, int]:
    """∫ |p|^{s-2} dp over the cusp left of x = ``x_end`` <= 1, for each s, with
    its error bound and the number of series terms.

    Expanding (x² + y²)^β, β = (s - 2)/2, in (y/x)² <= r² = (e^{-1/X}/X)² <= e^{-2}
    and integrating y, then u = c_k/x, gives Σ_k C(β, k)·c_k^{s-2-2k}·Γ(1+2k-s, c_k/X),
    c_k = 2k + 1, or P·Σ_k C(β, k) r^{2k} H(1+2k-s, c_k/X)/c_k with
    P = X^{s-1} e^{-1/X}.  Past term K the series is below G·C_K/(1 - q),
    C_K = |C(β, K)| r^{2K}/c_K, q = r²·max(1, (|β| + K)/(K + 1)) the ratio of
    successive C_k, and G = ∫ x^{Re s - 2} e^{-1/x} = |P|·H(1 - Re s, 1/X) the
    k = 0 integral at Re s, which bounds every term's integrand.
    """
    z = s - 2.0
    beta = 0.5 * z
    log_x = math.log(x_end)
    log_r = -1.0 / x_end - log_x
    cap = int(40 + 4 * np.abs(beta).max())
    k = np.arange(cap)
    odd = 2.0 * k + 1.0
    binom = np.cumprod(np.column_stack((np.ones(len(s)), (beta[:, None] - k[:-1]) / (k[1:]))),
                       axis=1)
    weights = binom * np.exp(2.0 * log_r * k) / odd
    ratio = math.exp(2.0 * log_r) * np.maximum(1.0, (np.abs(beta)[:, None] + k) / (k + 1.0))
    with np.errstate(divide="ignore"):
        tail = np.where(ratio < 1.0, np.abs(weights) / (1.0 - ratio), math.inf)
    small = tail <= _ULP
    if not small.any(axis=1).all():
        raise ArithmeticError("flat drum binomial series did not converge")
    terms = max(1, int(np.argmax(small, axis=1).max()))
    a = np.column_stack((1.0 + 2.0 * k[:terms] - s[:, None], 1.0 - s.real))
    h, rel = _gamma_cf(a, np.append(odd[:terms], 1.0) / x_end)
    pref = np.exp((z + 1.0) * log_x - 1.0 / x_end)
    parts = weights[:, :terms] * h[:, :terms]
    total = parts.sum(axis=1)
    # roundoff: each H, the k multiplications of C(β, k), the exponent of P
    err = (np.abs(parts) * (rel[:, :terms] + 2.0 * _ULP * (k[:terms] + 1.0))).sum(axis=1) \
        + _ULP * np.abs(total) * (1.0 + np.abs(z + 1.0) * abs(log_x) + 1.0 / x_end) \
        + h[:, -1].real * tail[np.arange(len(s)), terms]
    return pref * total, np.abs(pref) * err, terms


_GL_NODES = 24


@functools.cache
def _gauss_legendre(n: int) -> tuple[np.ndarray, np.ndarray]:
    nodes, weights = np.polynomial.legendre.leggauss(n)
    nodes.flags.writeable = weights.flags.writeable = False  # shared by every caller
    return nodes, weights


def _segment_zeta(s: np.ndarray, c: float, angle: float) -> tuple[np.ndarray, np.ndarray]:
    """∫ |p|^{s-2} dp over the circular segment {x > c, |p| < δ}, δ = c/cos(angle),
    for each s, with a Gauss–Legendre error estimate.

    In polar angle φ it is ∫₀^angle (δ^s - ρ^s)/s dφ with ρ = c/cos φ, that is
    ρ^s·(e^{s log(δ/ρ)} - 1)/s, smooth in φ.  The estimate is the gap between
    the 24- and 12-node rules.
    """
    log_cos_end = 0.5 * math.log1p(-math.sin(angle) ** 2)
    values = []
    for n in (_GL_NODES, _GL_NODES // 2):
        nodes, wts = _gauss_legendre(n)
        phi = 0.5 * angle * (nodes + 1.0)
        log_cos = 0.5 * np.log1p(-np.sin(phi) ** 2)
        log_rho = math.log(c) - log_cos
        f = np.exp(s[:, None] * log_rho) * _expm1_over(s[:, None], log_cos - log_cos_end)
        values.append(0.5 * angle * (f * wts).sum(axis=1))
    return values[0], np.abs(values[0] - values[1]) + _ULP * np.abs(values[0])


def _tube_zeta_at(s: np.ndarray, delta: float) -> tuple[np.ndarray, np.ndarray, int]:
    """ζ̃(s; δ) at unit scale for each s away from 2, with error bounds and the
    number of terms summed.

    By Fubini ζ̃ = (ζ(s; Ω ∩ B_δ) - δ^{s-2} V(δ))/(2 - s).  Beyond saturation
    Ω ∩ B_δ is Ω and V(δ) = |Ω|.  Below it, it is the cusp left of x*(δ) and
    the circular segment right of it, less for δ > 1 the segment beyond x = 1.
    """
    z = s - 2.0
    pieces: list[tuple[float, float, float]] = []
    if delta >= SATURATION:
        x_end, log_v = 1.0, math.log(region_volume())
    else:
        w = float(_crossing(np.array([delta]))[0])
        x_end, log_v = delta / (1.0 + w), float(log_tube(delta))
        pieces.append((x_end, math.atan(math.sqrt(w * (2.0 + w))), 1.0))
        if delta > 1.0:
            pieces.append((1.0, math.atan(math.sqrt((delta - 1.0) * (delta + 1.0))), -1.0))
    value, err, terms = _cusp_zeta(s, x_end)
    for c, angle, sign in pieces:
        seg, seg_err = _segment_zeta(s, c, angle)
        value, err = value + sign * seg, err + seg_err
    vol = np.exp(z * math.log(delta) + log_v)
    err = err + 4.0 * _ULP * np.abs(vol) * (1.0 + np.abs(z) * abs(math.log(delta)))
    nodes = (_GL_NODES + _GL_NODES // 2) * len(pieces)
    return (value - vol) / -z, err / np.abs(z), terms + nodes


_CIRCLE_POINTS = 16


def _circle_mean(evaluate, s: complex, radius: float) -> tuple[complex, float, int]:
    """f(s) as the mean of f over the circle of ``radius`` about s, for f
    analytic on the closed disk, by the mean value property: trapezoidal on
    16 points, error estimated against the 8-point mean.  ``evaluate`` maps
    an array of points to values, error bounds and a term count, which is
    returned per point summed.
    """
    circle = s + radius * np.exp(2j * math.pi * np.arange(_CIRCLE_POINTS) / _CIRCLE_POINTS)
    values, errs, terms = evaluate(circle)
    mean = complex(values.mean())
    return mean, float(errs.max() + abs(mean - values[::2].mean())), _CIRCLE_POINTS * terms


def tube_zeta(s: complex, delta: float) -> tuple[complex, float, int]:
    """ζ̃(s; δ) = ∫₀^δ t^{s-3} |B_t(0) ∩ Ω| dt at unit scale, entire in s: its
    value, an error bound and the number of terms summed.

    Near s = 2 the functional equation is 0/0.  There ζ̃(s) is its mean over
    the circle of radius ρ about s, ρ small against 1/|log t| on (0, δ] where
    the tube has mass (``_circle_mean``).
    """
    radius = 1.0 / (8.0 * max(2.0, abs(math.log(delta))))
    if abs(s - 2.0) >= 0.5 * radius:
        values, errs, terms = _tube_zeta_at(np.array([s], dtype=complex), delta)
        return complex(values[0]), float(errs[0]), terms
    return _circle_mean(lambda circle: _tube_zeta_at(circle, delta), s, radius)
