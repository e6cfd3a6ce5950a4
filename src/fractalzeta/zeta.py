"""Distance and tube zeta functions: closed forms, quadrature, Monte Carlo, scans.

The closed forms are finite combinations of elementary terms

    coeff * scale^s / ( base^s * Π_i (s - r_i) * (q^s - m) )

collected in a ``MeromorphicForm``.  Everything numerical in this module is
cross-checkable against the geometric oracles in :mod:`fractalzeta.geometry`:
quadrature of the tube integral, Monte Carlo of the distance integral, and the
functional equation tie the three routes together.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np
from scipy.integrate import quad

from . import geometry
from .geometry import (
    FractalString,
    SetDescriptor,
    region_volume,
    saturation_threshold,
    tube_volume,
)

__all__ = [
    "ZetaTerm",
    "MeromorphicForm",
    "ZetaEstimate",
    "catalog_form",
    "interval_generator",
    "square_generator",
    "cube_generator",
    "distance_zeta_closed",
    "geometric_zeta",
    "tube_zeta_quad",
    "tube_zeta_closed",
    "tube_zeta_residue",
    "functional_eq_residual",
    "distance_zeta_mc",
    "scaling_check",
    "abscissa_scan",
    "abscissa_of",
    "hp_integrability_probe",
    "HPReport",
    "spray_zeta",
    "NonconvergenceError",
]

Exact = int | Fraction
Numeric = float | Exact


class NonconvergenceError(RuntimeError):
    """Raised when a quadrature or scan cannot meet its tolerance."""


# ---------------------------------------------------------------------------
# meromorphic closed forms


@dataclass(frozen=True)
class ZetaTerm:
    """coeff * scale^s / (base^s * Π (s - r) * (q^s - m)).

    ``lattice = (q, m)`` contributes the factor (q^s - m); q > 1, m > 0.
    Exact (int/Fraction) field values enable exact residue arithmetic.
    """

    coeff: Numeric
    base: Numeric = 1
    scale: Numeric = 1
    roots: tuple[Numeric, ...] = ()
    lattice: tuple[Numeric, Numeric] | None = None

    def __post_init__(self) -> None:
        if float(self.base) <= 0 or float(self.scale) <= 0:
            raise ValueError("base and scale must be positive")
        rs = [float(r) for r in self.roots]
        if len(set(rs)) != len(rs):
            raise ValueError("repeated denominator roots (higher-order poles) are not supported")
        if self.lattice is not None:
            q, m = self.lattice
            if float(q) <= 1 or float(m) <= 0:
                raise ValueError("lattice factor needs q > 1, m > 0")

    @property
    def log_ratio(self) -> float:
        """ln(scale) - ln(base)."""
        return math.log(float(self.scale)) - math.log(float(self.base))

    def numerator(self, s: complex) -> complex:
        return float(self.coeff) * np.exp(s * self.log_ratio)

    def value(self, s: complex) -> complex:
        den: complex = 1.0
        for r in self.roots:
            den *= s - float(r)
        if self.lattice is not None:
            q, m = float(self.lattice[0]), float(self.lattice[1])
            den *= np.exp(s * math.log(q)) - m
        return self.numerator(s) / den

    def pole_distance(self, s: complex) -> float:
        """Distance from s to the nearest pole of this term."""
        dists = [abs(s - float(r)) for r in self.roots]
        if self.lattice is not None:
            q, m = float(self.lattice[0]), float(self.lattice[1])
            lq = math.log(q)
            dline = math.log(m) / lq
            k = round(s.imag * lq / (2.0 * math.pi))
            dists.append(abs(s - (dline + 2j * math.pi * k / lq)))
        return min(dists) if dists else math.inf


@dataclass(frozen=True)
class MeromorphicForm:
    """A finite sum of :class:`ZetaTerm`; the closed shape of a catalog zeta."""

    terms: tuple[ZetaTerm, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("a form needs at least one term")

    def value(self, s: complex, pole_tol: float = 1e-9) -> complex:
        """Evaluate at s; refuses evaluation within ``pole_tol`` of a pole."""
        s = complex(s)
        if pole_tol > 0 and self.pole_distance(s) < pole_tol:
            raise ValueError(f"evaluation within {pole_tol:g} of a pole of the closed form")
        return complex(sum(t.value(s) for t in self.terms))

    __call__ = value

    def pole_distance(self, s: complex) -> float:
        return min(t.pole_distance(s) for t in self.terms)

    def plus(self, other: "MeromorphicForm") -> "MeromorphicForm":
        return MeromorphicForm(self.terms + other.terms)

    def scaled_copy(self, lam: Numeric) -> "MeromorphicForm":
        """The form of the λ-homothety: every scale multiplied by λ (value × λ^s)."""
        return MeromorphicForm(tuple(
            ZetaTerm(t.coeff, t.base, t.scale * lam, t.roots, t.lattice) for t in self.terms
        ))


# --- catalog constructors ---------------------------------------------------


def _cube_form(n: int, side: Numeric) -> ZetaTerm:
    """Relative zeta of (∂C, C) for an N-cube C of side g: N!·2^N (g/2)^s / Π_{j<N} (s - j)."""
    return ZetaTerm(coeff=math.factorial(n) * 2**n, base=2, scale=side, roots=tuple(range(n)))


def interval_generator(side: Numeric = 1) -> MeromorphicForm:
    """Relative zeta of (∂I, I) for an interval of length ``side``: 2 (side/2)^s / s."""
    return MeromorphicForm((_cube_form(1, side),))


def square_generator(side: Numeric = 1) -> MeromorphicForm:
    """Relative zeta of (∂Q, Q) for a square: 8 (side/2)^s / (s(s-1))."""
    return MeromorphicForm((_cube_form(2, side),))


def cube_generator(side: Numeric = 1) -> MeromorphicForm:
    """Relative zeta of (∂C, C) for a cube: 48 (side/2)^s / (s(s-1)(s-2))."""
    return MeromorphicForm((_cube_form(3, side),))


def _collar_form(desc: SetDescriptor, delta: float) -> MeromorphicForm:
    """Distance zeta of the outside collar A_δ \\ Ω for sets whose region
    boundary is contained in A: the coarea integral of its Steiner polynomial
    Σ_j c_j t^j is Σ_j j·c_j δ^{s-N+j}/(s - (N - j))."""
    n = desc.ambient_dim
    return MeromorphicForm(tuple(
        ZetaTerm(j * c * delta ** (j - n), scale=delta, roots=(n - j,))
        for j, c in enumerate(geometry._collar_coeffs(desc), start=1)))


def catalog_form(desc: SetDescriptor, full: bool = False,
                 delta: float | None = None) -> MeromorphicForm:
    """Closed form of the distance zeta of a catalog descriptor.

    Relative (default): ζ_A(s, Ω), read off the hole table.  Every hole is a
    cube (an interval on a line) of side g = 2ρ, so each row contributes
    count·N!·2^N (g/2)^s / Π_{j<N} (s - j); the levels of a ladder's
    geometric family add up to the lattice factor q^s/(q^s - m), q = 1/a.
    This covers Cantor sets, carpets, box boundaries in any dimension and
    finite strings.  The nest (annular holes), the infinite a-string
    (truncated table) and the flat drum (no holes) have no closed form.
    ``full``: ζ_A(s, A_δ), which requires δ >= the saturation threshold so
    that Ω ⊆ A_δ; the outside collar is then a Steiner polynomial and the
    form stays exact.
    """
    if desc.kind == "nest" or geometry._truncated(desc):
        raise ValueError(f"no closed zeta form for kind {desc.kind!r}")
    holes = geometry._hole_table(desc, math.inf)
    terms = [replace(cube := _cube_form(desc.ambient_dim, 2.0 * rho),
                     coeff=int(count) * cube.coeff)
             for count, rho in zip(holes.counts.tolist(), holes.radii.tolist())]
    if holes.ratios is not None:
        m, a = holes.ratios
        q = 1.0 / a
        q = int(q) if q.is_integer() else q  # an int base keeps residues at integers exact
        terms[-1] = replace(terms[-1], scale=terms[-1].scale * q, lattice=(q, m))
    rel = MeromorphicForm(tuple(terms))
    if not full:
        return rel
    if delta is None:
        raise ValueError("the full variant needs delta")
    sat = saturation_threshold(desc)
    if delta < sat * (1.0 - 1e-12):
        raise ValueError(f"full closed form requires delta >= {sat:g} (saturation)")
    return rel.plus(_collar_form(desc, delta))


def distance_zeta_closed(desc: SetDescriptor, s: complex,
                         delta: float | None = None, full: bool = False) -> complex:
    """ζ_A(s, Ω) (relative) or ζ_A(s, A_δ) (full) from the closed form."""
    return catalog_form(desc, full=full, delta=delta).value(s)


def geometric_zeta(string: FractalString, s: complex) -> complex:
    """Σ mult_j ℓ_j^s for an explicit string (entire in s)."""
    return string.geometric_partial(complex(s))


# ---------------------------------------------------------------------------
# tube zeta by quadrature


@dataclass(frozen=True)
class ZetaEstimate:
    """A zeta value with its accompanying uncertainty.

    Tube-zeta estimates carry ``quad_err_bound`` and ``nodes``, the number of
    hole terms summed; Monte Carlo estimates carry ``std_err``/``samples``.
    """

    value: complex
    std_err: float | None = None
    quad_err_bound: float | None = None
    samples: int | None = None
    nodes: int | None = None

    @property
    def err(self) -> float:
        e = self.std_err if self.std_err is not None else self.quad_err_bound
        return float(e)


# roundoff per unit magnitude of a summed term: a few ulps of each product
_EPS = 16 * 2.0**-52


def _expm1_over(z: complex, x):
    """(e^{z x} - 1) / z, continuous at z = 0 where it equals x."""
    return np.expm1(z * x) / z if z != 0 else x + 0j


def _a_string_tail(desc: SetDescriptor, s: complex, delta: float,
                   holes: int, floor: float) -> tuple[complex, float]:
    """∫_0^δ t^{s-2} R(t) dt for the gaps beyond the first ``holes`` of the
    infinite a-string, whose half-lengths all lie below ``floor``.

    Above ``floor`` R(t) is their total length (holes+1)^{-a}; below it a
    two-power fit V ≈ c1 t^{1-D} + c2 t of the exact tube stands in for
    R(t) = V(t) - 2t·holes.
    """
    lam, a = desc.scale, desc.a
    dim = 1.0 / (1.0 + a)
    z = s - 1.0
    rest = lam * float(holes + 1) ** (-a)
    value = rest * np.exp(z * math.log(floor)) * _expm1_over(z, math.log(delta / floor))
    t1, t2 = floor, floor / 8.0
    v1, v2 = tube_volume(desc, t1), tube_volume(desc, t2)
    e1, e2 = 1.0 - dim, 1.0
    det = t1**e1 * t2**e2 - t2**e1 * t1**e2
    c1 = (v1 * t2**e2 - v2 * t1**e2) / det
    c2 = (v2 * t1**e1 - v1 * t2**e1) / det
    model = c1 * np.exp((z + e1) * math.log(floor)) / (z + e1) \
        + c2 * np.exp((z + e2) * math.log(floor)) / (z + e2)
    value += model - 2.0 * holes * np.exp((z + 1.0) * math.log(floor)) / (z + 1.0)
    # residual model error: sawtooth and next-order terms are O(floor^{2/(1+a)})
    err = abs(model) * (4.0 * floor ** (2.0 / (1.0 + a)) + 1e-12)
    return complex(value), float(err)


def _flat_drum_zeta(desc: SetDescriptor, s: complex, delta: float,
                    tol: float) -> ZetaEstimate:
    """ζ̃ of the flat drum by adaptive quadrature of the real and imaginary parts.

    Its tube volume is not piecewise polynomial; it is evaluated in log space,
    where it stays finite for tiny t.
    """
    z = s - desc.ambient_dim

    def integrand(t: float) -> complex:
        return np.exp((z - 1.0) * math.log(t) + geometry.log_tube_volume(desc, t))

    kinks = [p for p in (desc.scale, saturation_threshold(desc)) if p < delta]
    parts = [quad(lambda t: part(integrand(t)), 0.0, delta, points=kinks or None,
                  limit=200, epsabs=0.25 * tol, epsrel=0.25 * tol, full_output=1)
             for part in (np.real, np.imag)]
    value = complex(parts[0][0], parts[1][0])
    err = math.hypot(parts[0][1], parts[1][1])
    if any(len(p) > 3 for p in parts) or err > tol * max(1.0, abs(value)):
        raise NonconvergenceError(f"flat drum tube zeta bound {err:.3g} above tol {tol:g}")
    return ZetaEstimate(value=value, quad_err_bound=err,
                        nodes=sum(p[2]["neval"] for p in parts))


def tube_zeta_quad(desc: SetDescriptor, s: complex, delta: float,
                   tol: float = 1e-10, full: bool = False) -> ZetaEstimate:
    """ζ̃_A(s; δ) = ∫_0^δ t^{s-N-1} |A_t ∩ Ω| dt as an exact sum over holes.

    The tube volume is a sum over the holes of Ω \\ A (and, with ``full``,
    the outer collar) of polynomials h(t) that stop growing at the hole's
    inradius ρ, so each hole integrates in closed form:
    Σ_m c_m r^{s-N+m}/(s-N+m) + h(r)(δ^{s-N} - r^{s-N})/(s-N) with
    r = min(ρ, δ).  The self-similar levels of Cantor sets and carpets sum as
    a geometric series of ratio m·a^s.  The returned bound covers the roundoff
    of the sum, amplified by 1/|1 - m·a^s| near the dimension, and for the
    infinite a-string the fitted tail beyond its stored gaps; the flat drum,
    whose tube is not piecewise polynomial, is integrated adaptively.
    ``nodes`` counts the hole rows summed (integrand evaluations for the flat
    drum).  Raises :class:`NonconvergenceError` where the integral diverges
    (Re s at or below the dimension) or the bound exceeds ``tol·max(1, |ζ̃|)``.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    s = complex(s)
    n_dim = desc.ambient_dim
    if desc.kind == "flatDrum" and not full:
        return _flat_drum_zeta(desc, s, delta, tol)
    holes = geometry._hole_table(desc, delta, full=full)
    z = s - n_dim
    m = np.arange(1, holes.coeffs.shape[1] + 1)
    # every h grows like (boundary measure)·t near 0, so ∫ t^{z-1} h diverges for Re z <= -1
    if z.real <= -1.0:
        raise NonconvergenceError(f"tube zeta diverges at t -> 0 for Re s <= {n_dim - 1}")
    r = np.minimum(holes.radii, delta)
    log_r = np.log(r)
    poly = holes.coeffs * np.exp(np.multiply.outer(log_r, z + m)) / (z + m)
    full_h = (holes.coeffs * np.power.outer(r, m)).sum(axis=1)
    fill = full_h * np.exp(z * log_r) * _expm1_over(z, math.log(delta) - log_r)
    terms = holes.counts * (poly.sum(axis=1) + fill)
    # an exponent z·ln r carries roundoff |z ln r|·ulp into its power
    mags = holes.counts * (np.abs(poly).sum(axis=1) + np.abs(fill)) \
        * (1.0 + abs(z) * np.abs(log_r))
    if holes.ratios is not None:
        # level j of the family adds q^j times the head's own term plus
        # w0 δ^z (e^{j z ℓ} - 1)/z q^j, with q = m a^s, p = m a^N, ℓ = ln(1/a)
        count_ratio, a = holes.ratios
        q = count_ratio * np.exp(s * math.log(a))
        if abs(q) >= 1.0:
            raise NonconvergenceError(
                f"tube zeta diverges for Re s <= {math.log(count_ratio) / -math.log(a):g}")
        p = count_ratio * a**n_dim
        w0 = holes.counts[-1] * full_h[-1]
        extra = w0 * np.exp(z * math.log(delta)) * q * _expm1_over(z, -math.log(a)) / (1.0 - p)
        terms[-1] = (terms[-1] + extra) / (1.0 - q)
        # 1/(1 - p) and 1/(1 - q) amplify the roundoff of p and q
        mags[-1] = (mags[-1] + abs(extra) / (1.0 - p)) * (1.0 + abs(s * math.log(a))) \
            / abs(1.0 - q) ** 2
    value = complex(terms.sum())
    err = _EPS * float(mags.sum())
    if geometry._truncated(desc):
        rows = len(r) - int(full)
        tail, tail_err = _a_string_tail(desc, s, delta, rows, float(r[-1]))
        value += tail
        err += tail_err
    if not (math.isfinite(err) and err <= tol * max(1.0, abs(value))):
        raise NonconvergenceError(
            f"tube zeta bound {err:.3g} above tol {tol:g} at s = {s:g}")
    return ZetaEstimate(value=value, quad_err_bound=err, nodes=len(r))


def tube_zeta_closed(desc: SetDescriptor, s: complex, delta: float,
                     full: bool = False) -> complex:
    """ζ̃ from the closed distance zeta through the functional equation."""
    s = complex(s)
    n = desc.ambient_dim
    if abs(s - n) < 1e-9:
        raise ValueError("the functional equation degenerates at s = N")
    zeta = distance_zeta_closed(desc, s, delta=delta, full=full)
    volume = tube_volume(desc, delta, full=full) if full else region_volume(desc)
    if not full and delta < saturation_threshold(desc) * (1 - 1e-12):
        raise ValueError("relative closed route requires delta >= saturation threshold")
    return (zeta - np.exp((s - n) * math.log(delta)) * volume) / (n - s)


def functional_eq_residual(desc: SetDescriptor, s: complex, delta: float,
                           full: bool = False, tol: float = 1e-10) -> float:
    """|ζ_A(s) − δ^{s−N}|A_δ| − (N−s) ζ̃_A(s)| with ζ̃ from quadrature.

    The closed form supplies ζ_A and the exact tube volume supplies |A_δ|
    (relative: |Ω|, with δ at least the saturation threshold), so the residual
    measures the consistency of two independent computation routes.
    """
    s = complex(s)
    n = desc.ambient_dim
    zeta = distance_zeta_closed(desc, s, delta=delta, full=full)
    if full:
        volume = tube_volume(desc, delta, full=True)
    else:
        if delta < saturation_threshold(desc) * (1 - 1e-12):
            raise ValueError("relative functional equation requires delta >= saturation")
        volume = region_volume(desc)
    tube = tube_zeta_quad(desc, s, delta, tol=tol, full=full)
    lhs = zeta
    rhs = np.exp((s - n) * math.log(delta)) * volume + (n - s) * tube.value
    return abs(lhs - rhs)


def tube_zeta_residue(desc: SetDescriptor, dim: float, delta: float,
                      hs: Sequence[float] = (0.32, 0.16, 0.08, 0.04),
                      tol: float = 1e-9, full: bool = False) -> float:
    """res(ζ̃, D) by Richardson extrapolation of h·ζ̃(D+h) as h → 0."""
    hs = sorted(float(h) for h in hs)[::-1]
    ys = []
    for h in hs:
        est = tube_zeta_quad(desc, dim + h, delta, tol=tol, full=full)
        ys.append(h * est.value.real)
    # Neville extrapolation to h = 0
    tbl = list(ys)
    xs = list(hs)
    for order in range(1, len(xs)):
        for i in range(len(xs) - order):
            tbl[i] = (xs[i] * tbl[i + 1] - xs[i + order] * tbl[i]) / (xs[i] - xs[i + order])
    return float(tbl[0])


# ---------------------------------------------------------------------------
# Monte Carlo


def _region_shape(desc: SetDescriptor) -> tuple[float, bool]:
    """Ω as ``(size, disk)``: the disk of radius λ for the nest, else the box
    [0, size]^N, size = λ.  A string on a line fills an interval of length
    |Ω|, placed at 0 because the hole law does not see where it sits.
    """
    if desc.kind == "nest":
        return desc.scale, True
    if desc.ambient_dim == 1 and desc.ladder is None:
        return region_volume(desc), False
    return desc.scale, False


def _flat_drum_log_distances(desc: SetDescriptor, count: int,
                             rng: np.random.Generator) -> np.ndarray:
    """log |x| for ``count`` uniform points x of the cusp, which has no holes:
    A = {0}, so d(x, A) = |x|.  Rejection sampling from its bounding box."""
    emax = math.exp(-1.0)
    out = np.empty((0, 2))
    while len(out) < count:
        cand = rng.random((2 * count, 2))
        cand[:, 1] *= emax
        keep = cand[:, 1] < np.exp(-1.0 / np.clip(cand[:, 0], 1e-300, None))
        out = np.vstack((out, cand[keep]))
    with np.errstate(divide="ignore"):
        return np.log(desc.scale * np.linalg.norm(out[:count], axis=1))


def _variance_threshold(desc: SetDescriptor) -> float | None:
    """(N + D)/2, below which d(x, A)^{s-N} has infinite variance on Ω.

    E|d^{s-N}|² is the distance zeta at 2 Re s - N, finite only above the
    dimension D, which the hole table gives: log m / log(1/a) with a
    geometric family, 1/(1 + a) for the infinite a-string, and N - 1 for
    every other (finite) table.  The flat drum has no holes and no
    threshold: its tube is flat, so every moment of d^{s-N} is finite.
    """
    n = desc.ambient_dim
    if desc.kind == "flatDrum":
        return None
    if geometry._truncated(desc):
        return (n + 1.0 / (1.0 + desc.a)) / 2.0
    ratios = geometry._hole_table(desc, math.inf).ratios
    dim = n - 1.0 if ratios is None else math.log(ratios[0]) / math.log(1.0 / ratios[1])
    return (n + dim) / 2.0


def distance_zeta_mc(desc: SetDescriptor, s: complex, n: int, seed: int,
                     delta: float | None = None, full: bool = False) -> ZetaEstimate:
    """Monte Carlo estimate of the distance zeta with standard error.

    Relative mode averages d(x,A)^{s-N} over n uniform points of Ω and scales
    by |Ω|; full mode needs ``delta`` and averages d^{s-N}·[d <= δ] over n
    uniform points of a box containing A_δ.  The distance of a point of Ω is
    drawn from its exact law, read off the hole table (a hole, then a
    closed-form distance inside it; see ``geometry._hole_log_distances``), so
    no distance oracle is called.  In full mode ∂Ω lies in A, so a box point
    outside Ω is at its distance to Ω.  The flat drum has no holes: it samples
    points of its cusp, relative mode only.  Deterministic for a fixed seed.
    Raises :class:`NonconvergenceError` at Re s <= (N + D)/2, where the
    variance is infinite and a standard error would mean nothing (every kind
    but the flat drum, see ``_variance_threshold``).
    """
    if n < 2:
        raise ValueError("need at least two samples")
    if full and delta is None:
        raise ValueError("full-tube Monte Carlo needs delta")
    s = complex(s)
    ndim = desc.ambient_dim
    threshold = _variance_threshold(desc)
    if threshold is not None and s.real <= threshold:
        raise NonconvergenceError(
            f"Monte Carlo variance is infinite for Re s <= (N + D)/2 = {threshold:.6g}")
    rng = np.random.default_rng(seed)
    if desc.kind == "flatDrum":
        if full:
            raise ValueError("the flat drum is a relative construction only")
        log_d, scale = _flat_drum_log_distances(desc, n, rng), region_volume(desc)
    elif full:
        size, disk = _region_shape(desc)
        lo, hi = (-size - delta, size + delta) if disk else (-delta, size + delta)
        scale = (hi - lo) ** ndim
        pts = lo + (hi - lo) * rng.random((n, ndim))
        if disk:
            gap = np.maximum(np.linalg.norm(pts, axis=1) - size, 0.0)
        else:
            gap = np.linalg.norm(pts - np.clip(pts, 0.0, size), axis=1)
        inside = gap == 0.0
        log_d = np.empty(n)
        log_d[~inside] = np.log(gap[~inside])
        log_d[inside] = geometry._hole_log_distances(desc, int(inside.sum()), rng)
    else:
        log_d, scale = geometry._hole_log_distances(desc, n, rng), region_volume(desc)
    keep = np.isfinite(log_d)
    if full:
        keep &= log_d <= math.log(delta)
    vals = np.zeros(n, dtype=complex)
    vals[keep] = np.exp((s - ndim) * log_d[keep])
    mean = vals.mean()
    var = np.mean(np.abs(vals - mean) ** 2)
    std_err = scale * math.sqrt(var / n)
    return ZetaEstimate(value=scale * mean, std_err=std_err, samples=n)


def scaling_check(desc: SetDescriptor, lam: float, s: complex,
                  method: str = "closed", delta: float | None = None,
                  full: bool = False, n: int = 10**6, seed: int = 0) -> float:
    """Residual of ζ_{λA}(s, λΩ) = λ^s ζ_A(s, Ω), as a nonnegative real.

    ``closed``: relative residual |ζ_λ − λ^s ζ| / |λ^s ζ| from two independent
    closed-form evaluations.  ``mc``: residual in units of the combined
    standard error from two independent sample streams (seed and seed + 1),
    so values ≲ 3 are consistent with the scaling identity.
    """
    s = complex(s)
    factor = np.exp(s * math.log(lam))
    big = geometry.scaled(desc, lam)
    if method == "closed":
        dlam = None if delta is None else lam * delta
        z1 = distance_zeta_closed(big, s, delta=dlam, full=full)
        z0 = distance_zeta_closed(desc, s, delta=delta, full=full)
        ref = abs(factor * z0)
        return abs(z1 - factor * z0) / ref
    if method == "mc":
        dlam = None if delta is None else lam * delta
        e1 = distance_zeta_mc(big, s, n, seed, delta=dlam, full=full)
        e0 = distance_zeta_mc(desc, s, n, seed + 1, delta=delta, full=full)
        combined = math.hypot(e1.std_err, abs(factor) * e0.std_err)
        return abs(e1.value - factor * e0.value) / combined
    raise ValueError("method must be 'closed' or 'mc'")


# ---------------------------------------------------------------------------
# abscissa of convergence and integrability scans


def _growth_verdict(partials: np.ndarray, thresh: float = 3e-5) -> bool:
    """True when the refinement sequence diverges (increments keep growing)."""
    arr = np.asarray(partials, dtype=float)
    if not np.all(np.isfinite(arr)):
        return True
    if len(arr) >= 2 and arr[-1] > 1e12 * max(abs(arr[0]), 1e-300):
        return True
    inc = np.diff(arr)
    inc = inc[inc != 0.0]
    if len(inc) < 4:
        return False
    tail_ratio = np.log(inc[-4:] / inc[-5:-1]) if len(inc) >= 5 else np.log(inc[1:] / inc[:-1])
    g = float(np.mean(tail_ratio))
    return g > thresh


def abscissa_scan(evaluator: Callable[[float], np.ndarray], lo: float, hi: float,
                  xtol: float = 5e-5) -> float:
    """Critical exponent where the refinement sequence flips divergent→convergent.

    ``evaluator(sigma)`` returns partial estimates under refinement of the
    defining series/integral of the zeta at real s = sigma; bisection on the
    divergence verdict localizes the abscissa of (Lebesgue) convergence.
    """
    if not _growth_verdict(evaluator(lo)):
        raise ValueError(f"series already convergent at sigma = {lo:g}")
    if _growth_verdict(evaluator(hi)):
        raise ValueError(f"series still divergent at sigma = {hi:g}")
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if _growth_verdict(evaluator(mid)):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _hole_integral_coeff(n: int, sigma: float) -> float:
    """∫ over an N-cube hole of side g of d(x, ∂hole)^{sigma-N}, divided by g^sigma.

    Finite iff sigma > N-1, where it is the cube form of side 1 at sigma.
    """
    if sigma <= n - 1:
        return math.inf
    return float(_cube_form(n, 1).value(sigma).real)


def _ladder_log_blocks(desc: SetDescriptor, sigma: float, levels: int) -> np.ndarray:
    """log ∫ d(x, A)^{sigma-N} over the holes of each of the first ``levels``
    ladder levels, count_k·C_N(sigma)·(λg_k)^sigma, in log space: the counts
    alone overflow past level ~300.  +inf where the hole integral diverges.
    """
    lad = desc.ladder
    coeff = _hole_integral_coeff(desc.ambient_dim, sigma)
    k = np.arange(levels, dtype=float)
    return (k * (math.log(lad.count_ratio) + sigma * math.log(lad.gap_ratio))
            + sigma * math.log(desc.scale * lad.first_gap) + math.log(lad.first_count * coeff))


def _ladder_blocks(desc: SetDescriptor, levels: int = 48):
    def evaluator(sigma: float) -> np.ndarray:
        return np.cumsum(np.exp(_ladder_log_blocks(desc, sigma, levels)))

    return evaluator


def _string_blocks(desc: SetDescriptor, imax: int = 21):
    a = desc.a
    j = np.arange(1, 2**imax, dtype=float)
    logl = np.log(geometry._a_string_length(j, a))
    ends = 2 ** np.arange(1, imax + 1) - 2  # partial sums over j < 2^i

    def evaluator(sigma: float) -> np.ndarray:
        csum = np.cumsum(np.exp(sigma * logl))
        idx = np.minimum(ends, len(csum) - 1)
        return csum[idx]

    return evaluator


def abscissa_of(desc: SetDescriptor, xtol: float = 5e-5) -> float:
    """Abscissa of convergence of the relative distance zeta of a catalog set."""
    n = desc.ambient_dim
    if desc.ladder is not None:
        return abscissa_scan(_ladder_blocks(desc), lo=n - 1 + 1e-3, hi=float(n), xtol=xtol)
    if desc.kind == "aString":
        return abscissa_scan(_string_blocks(desc), lo=0.02, hi=1.0, xtol=xtol)
    raise ValueError(f"no convergence scan for kind {desc.kind!r}")


@dataclass(frozen=True)
class HPReport:
    """Partial integrals of ∫ d(x,A)^{-gamma} dx over deepening hole ladders."""

    gamma: float
    partials: tuple[float, ...]
    convergent: bool


def hp_integrability_probe(desc: SetDescriptor, gamma: float,
                           ladder_depths: Sequence[int] = (50, 100, 200, 400)) -> HPReport:
    """Does ∫_Ω d(x, A)^{-gamma} dx converge?  (Expected iff gamma < N − dim A.)

    Evaluates the integral exactly over the holes of the first k ladder levels
    for each requested depth and applies a Cauchy/divergence verdict.
    """
    if desc.ladder is None:
        raise ValueError("the integrability probe is defined for ladder sets")
    n = desc.ambient_dim
    if not math.isfinite(_hole_integral_coeff(n, n - gamma)):
        return HPReport(gamma=gamma, partials=(math.inf,), convergent=False)
    partials = [float(np.exp(_ladder_log_blocks(desc, n - gamma, depth)).sum())
                for depth in sorted(ladder_depths)]
    ladder = desc.ladder
    ratio = ladder.count_ratio * ladder.gap_ratio ** (n - gamma)
    convergent = ratio < 1.0 and math.isfinite(partials[-1])
    return HPReport(gamma=gamma, partials=tuple(partials), convergent=convergent)


# ---------------------------------------------------------------------------
# sprays


def spray_zeta(generator: MeromorphicForm | Callable[[complex], complex],
               ratios: Sequence[float], s: complex) -> complex:
    """ζ of a self-similar spray: gen(s) / (1 − Σ_j r_j^s)."""
    s = complex(s)
    rs = np.asarray(ratios, dtype=float)
    if np.any(rs <= 0) or np.any(rs >= 1):
        raise ValueError("ratios must lie in (0, 1)")
    den = 1.0 - complex(np.sum(np.exp(s * np.log(rs))))
    if abs(den) < 1e-12:
        raise ValueError("s is within 1e-12 of a scaling pole")
    gen = generator.value(s) if isinstance(generator, MeromorphicForm) else generator(s)
    return gen / den
