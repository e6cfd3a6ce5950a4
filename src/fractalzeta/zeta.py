"""Distance and tube zeta functions: closed forms, quadrature, Monte Carlo, scans.

The closed forms are finite combinations of elementary terms

    Σ_i coeffs_i (scales_i / base)^s / ( Π_j (s - r_j) * (q^s - m) )

collected in a ``MeromorphicForm``, one per row degree (``_row_term``).  All of
it is cross-checkable against the geometric oracles in :mod:`fractalzeta.geometry`:
quadrature of the tube integral, Monte Carlo of the distance integral, and the
functional equation tie the three routes together.
"""
from __future__ import annotations

import functools
import math
from collections import namedtuple
from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import flat, geometry
from .flat import _circle_mean, _expm1_over
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
    """Σ_i coeffs_i·(scales_i/base)^s / (Π (s - r)·(q^s - m)): one denominator
    over a sum of exponentials.

    ``lattice = (q, m)`` contributes the factor (q^s - m); q > 1, m > 0.
    Exact (int/Fraction) field values enable exact residue arithmetic.
    """

    coeffs: tuple[Numeric, ...]
    scales: tuple[Numeric, ...] = (1,)
    base: Numeric = 1
    roots: tuple[Numeric, ...] = ()
    lattice: tuple[Numeric, Numeric] | None = None

    def __post_init__(self) -> None:
        if not self.coeffs or len(self.coeffs) != len(self.scales):
            raise ValueError("a term needs one scale per coefficient")
        if float(self.base) <= 0 or min(float(x) for x in self.scales) <= 0:
            raise ValueError("base and scales must be positive")
        rs = [float(r) for r in self.roots]
        if self.lattice is not None:
            q, m = self.lattice
            if float(q) <= 1 or float(m) <= 0:
                raise ValueError("lattice factor needs q > 1, m > 0")
            rs.append(math.log(float(m)) / math.log(float(q)))  # the lattice's real point
        if len(set(rs)) != len(rs):
            raise ValueError("repeated denominator roots (higher-order poles) are not supported")

    @functools.cached_property
    def _floats(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The coefficients, ln(scale) - ln(base) and the roots as float arrays."""
        return (np.array(self.coeffs, dtype=float),
                np.array([math.log(float(x)) - math.log(float(self.base)) for x in self.scales]),
                np.array(self.roots, dtype=float))

    def numerator(self, s):
        """Σ_i coeffs_i·(scales_i/base)^s, elementwise over an array of s."""
        coeffs, log_ratios, _ = self._floats
        return (coeffs * np.exp(np.multiply.outer(s, log_ratios))).sum(axis=-1)

    def value(self, s: complex) -> complex:
        den: complex = 1.0
        for r in self.roots:
            den *= s - float(r)
        if self.lattice is not None:
            q, m = float(self.lattice[0]), float(self.lattice[1])
            den *= np.exp(s * math.log(q)) - m
        return self.numerator(s) / den

    def poles(self, tau_lo: float, tau_hi: float) -> tuple[np.ndarray, np.ndarray]:
        """Where this term's poles are: its roots, and with a lattice factor
        the points log_q m + 2πik/ln q from the one nearest Im s = tau_lo to
        the one nearest Im s = tau_hi (so tau_lo = tau_hi = Im s gives the
        lattice point nearest s)."""
        roots = self._floats[2]
        if self.lattice is None:
            return roots, np.empty(0, dtype=complex)
        q, m = float(self.lattice[0]), float(self.lattice[1])
        spacing = 2.0 * math.pi / math.log(q)
        k = np.arange(round(tau_lo / spacing), round(tau_hi / spacing) + 1)
        return roots, math.log(m) / math.log(q) + 1j * spacing * k


# closed forms refuse evaluation this close to one of their poles
_POLE_TOL = 1e-9


@dataclass(frozen=True)
class MeromorphicForm:
    """A finite sum of :class:`ZetaTerm`; the closed shape of a catalog zeta."""

    terms: tuple[ZetaTerm, ...]

    def __post_init__(self) -> None:
        if not self.terms:
            raise ValueError("a form needs at least one term")

    def value(self, s: complex) -> complex:
        """Evaluate at s; refuses evaluation within ``_POLE_TOL`` of a pole."""
        s = complex(s)
        if self.pole_distance(s) < _POLE_TOL:
            raise ValueError(f"evaluation within {_POLE_TOL:g} of a pole of the closed form")
        return complex(sum(t.value(s) for t in self.terms))

    __call__ = value

    def pole_distance(self, s: complex) -> float:
        """Distance from s to the nearest pole of any term."""
        return min((abs(s - p) for t in self.terms for poles in t.poles(s.imag, s.imag)
                    for p in poles.tolist()), default=math.inf)

    def plus(self, other: "MeromorphicForm") -> "MeromorphicForm":
        return MeromorphicForm(self.terms + other.terms)

    def scaled_copy(self, lam: Numeric) -> "MeromorphicForm":
        """The form of the λ-homothety: every scale multiplied by λ (value × λ^s)."""
        return MeromorphicForm(tuple(
            replace(t, scales=tuple(x * lam for x in t.scales)) for t in self.terms))


# --- catalog constructors ---------------------------------------------------


def _row_term(n: int, k: int, tops, widths) -> ZetaTerm:
    """Rows of holes of widths 2ρ = ``widths`` covering h(t) = h(ρ)(1 - (1 - t/ρ)^k)
    within t of their boundary, c_k = ``tops`` their coefficients of t^k: row by
    row, ∫_0^ρ t^{s-N} h'(t) dt = k!·(-1)^{k+1}·c_k·ρ^{k-N}·(2ρ/2)^s over the
    one denominator Π_{j=1..k} (s - N + j).  An N-cube of side g has k = N,
    c_N = -(-2)^N: N!·2^N (g/2)^s / Π_{j<N} (s - j)."""
    widths = np.asarray(widths)
    coeffs = math.factorial(k) * (-1) ** (k + 1) * np.asarray(tops) * (widths / 2) ** (k - n)
    return ZetaTerm(coeffs=tuple(coeffs.tolist()), base=2, scales=tuple(widths.tolist()),
                    roots=tuple(range(n - k, n)))


def interval_generator(side: Numeric = 1) -> MeromorphicForm:
    """Relative zeta of (∂I, I) for an interval of length ``side``: 2 (side/2)^s / s."""
    return MeromorphicForm((_row_term(1, 1, (2,), (side,)),))


def square_generator(side: Numeric = 1) -> MeromorphicForm:
    """Relative zeta of (∂Q, Q) for a square: 8 (side/2)^s / (s(s-1))."""
    return MeromorphicForm((_row_term(2, 2, (-4,), (side,)),))


def cube_generator(side: Numeric = 1) -> MeromorphicForm:
    """Relative zeta of (∂C, C) for a cube: 48 (side/2)^s / (s(s-1)(s-2))."""
    return MeromorphicForm((_row_term(3, 3, (8,), (side,)),))


def _collar_form(desc: SetDescriptor, delta: float) -> MeromorphicForm:
    """Distance zeta of the outside collar A_δ \\ Ω for sets whose region
    boundary is contained in A: the coarea integral of its Steiner polynomial
    Σ_j c_j t^j is Σ_j j·c_j δ^{s-N+j}/(s - (N - j))."""
    n = desc.ambient_dim
    return MeromorphicForm(tuple(
        ZetaTerm((j * c * delta ** (j - n),), scales=(delta,), roots=(n - j,))
        for j, c in enumerate(geometry._collar_coeffs(desc), start=1)))


def catalog_form(desc: SetDescriptor, full: bool = False,
                 delta: float | None = None) -> MeromorphicForm:
    """Closed form of the distance zeta of a catalog descriptor.

    Relative (default): ζ_A(s, Ω), one Beta term per row degree of the hole
    table (``_row_term``) whatever the holes' shape, plus one for a ladder's
    family, whose levels sum into the lattice factor q^s/(q^s - m), q = 1/a.
    The infinite a-string (truncated table) and the flat drum (no holes) have none.
    ``full``: ζ_A(s, A_δ), which requires δ >= the saturation threshold so
    that Ω ⊆ A_δ; the outside collar is then a Steiner polynomial, one term
    per power, and the form stays exact.  Each form is built once per
    ``(desc, full, delta)``.
    """
    return _catalog_form(desc, full, delta if full else None)


@functools.lru_cache(maxsize=256)
def _catalog_form(desc: SetDescriptor, full: bool, delta: float | None) -> MeromorphicForm:
    if desc.holes is None or geometry._truncated(desc):
        raise ValueError(f"no closed zeta form for kind {desc.kind!r}")
    holes = geometry._hole_table(desc, math.inf)
    n = desc.ambient_dim
    degrees = geometry._degrees(holes.coeffs)
    # a row of cubes has c_N = count·(±2^N), exact in floats
    tops = holes.counts * holes.coeffs[np.arange(len(degrees)), degrees - 1]
    widths = 2.0 * holes.radii
    last = len(degrees) - (holes.ratios is not None)  # a ladder's family head is the last row
    terms = []
    for k in sorted(set(degrees[:last].tolist())):
        rows = np.flatnonzero(degrees[:last] == k)
        terms.append(_row_term(n, k, tops[rows], widths[rows]))
    if holes.ratios is not None:
        m, a = holes.ratios
        q = 1.0 / a
        head = _row_term(n, int(degrees[-1]), tops[-1:], widths[-1:])
        terms.append(replace(head, scales=(head.scales[0] * q,), lattice=(q, m)))
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
    hole rows summed, plus the series terms that sum the infinite a-string's
    gaps past its table; Monte Carlo estimates carry ``std_err``/``samples``.
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


# B_2k/(2k)! for k = 1..10: the Euler–Maclaurin coefficients
_EM_COEFFS = (1 / 12, -1 / 720, 1 / 30240, -1 / 1209600, 1 / 47900160,
              -691 / 1307674368000, 1 / 74724249600, -3617 / 10670622842880000,
              43867 / 5109094217170944000, -174611 / 802857662698291200000)


# what ``_power_sums`` reads of its blocks' edges that does not depend on w (``_edges``)
_Edges = namedtuple("_Edges", "log_x corrections lo log_lo remainders log_top log_steps")


def _edges(x) -> _Edges:
    """Edges x_0 < x_1 < ..., an array of integers >= 1, the last possibly ∞,
    with ln x and B_2k/(2k)!·x^{1-2k}, k <= M, of the finite ones, and per block
    x_i, ln x_i, 4x_i^{1-2M}/(2π)^{2M}, ln x_{i+1} (ln x_i to ∞) and ln(x_{i+1}/x_i)."""
    log_x, blocks = np.log(x[np.isfinite(x)]), len(x) - 1
    odd = np.exp(np.multiply.outer(log_x, np.arange(-1.0, -2.0 * len(_EM_COEFFS), -2.0)))
    return _Edges(log_x, (odd * _EM_COEFFS).T, x[:-1], log_x[:blocks],
                  4.0 / (2.0 * math.pi) ** (2 * len(_EM_COEFFS)) * odd[:blocks, -1],
                  np.concatenate((log_x[1:], log_x[-1:]))[:blocks], log_x[1:] - log_x[:-1])


def _power_sums(w, edges: _Edges) -> tuple[np.ndarray, np.ndarray]:
    """Σ_{x_i <= j < x_{i+1}} j^{-w} per block of consecutive ``edges``, for each
    w of the array ``w``, with a bound on its error: arrays of shape w.shape + (blocks,).

    By Euler–Maclaurin to order 2M, M = 10, a block is ∫ x^{-w} dx + E(x_i) -
    E(x_{i+1}), E(x) = x^{-w}·(1/2 + Σ_{k<=M} B_2k/(2k)!·(w)_{2k-1}·x^{1-2k}),
    (w)_n rising, E(∞) = 0: to ∞ it is ζ(w, x_i), for Re w > 1.  Each edge's E
    is computed once, its corrections in one product for all edges.  The
    integral x_i^{1-w}(e^{(1-w)L} - 1)/(1 - w), L = ln(x_{i+1}/x_i), cancels
    nothing at w = 1 (x_i^{1-w}/(w - 1) to ∞).  The remainder is at most
    4|(w)_{2M}|/(2π)^{2M}·x_i^{1-Re w-2M}/(Re w + 2M - 1) (Johansson, Numer.
    Algorithms 69, 2015); roundoff adds a few ulps of each piece, amplified by
    |w|·ln x in the powers x^{-w}.
    """
    w = np.asarray(w)[..., None]
    rising = np.cumprod(w + np.arange(2.0 * len(_EM_COEFFS)), axis=-1)  # (w)_1..(w)_2M
    powers = np.exp(-w * edges.log_x)  # x^{-w}
    ends = powers * (0.5 + rising[..., ::2] @ edges.corrections)
    blocks, finite = len(edges.lo), len(edges.log_steps)
    low = edges.lo * powers[..., :blocks]  # x_i^{1-w}
    integral = low[..., :finite] * _expm1_over(1.0 - w, edges.log_steps)
    head, tail = ends[..., :blocks], ends[..., 1:]
    if finite < blocks:  # the last block runs to ∞
        integral = np.concatenate((integral, low[..., finite:] / (w - 1.0)), axis=-1)
        tail = np.concatenate((tail, np.zeros(w.shape)), axis=-1)
    mags = (np.abs(integral) + np.abs(head) + np.abs(tail)) * (1.0 + np.abs(w) * edges.log_top)
    if finite < blocks:  # an ulp of w moves the pole term by |w|/|w - 1| of itself
        mags[..., finite:] += np.abs(integral[..., finite:] * w / (w - 1.0))
    rem = np.abs(rising[..., -1:]) / (w.real + (2 * len(_EM_COEFFS) - 1.0)) * edges.remainders
    return integral + head - tail, rem * np.abs(powers[..., :blocks]) + _EPS * mags


# Taylor coefficients of g(u)^s kept for the a-string's gaps past the head
_SERIES_TERMS = 24


@functools.lru_cache(maxsize=256)
def _a_string_table(a: float) -> tuple[np.ndarray, np.ndarray]:
    """P, c_m(s) = Σ_j P[m, j]·s^j (m, j < K) being the u^m coefficient of g(u)^s, so
    column j holds the u-series of (log g)^j/j!, by m·c_m = Σ_{k<=m} (k·s + k - m)·g_k·c_{m-k}
    on polynomials in s; and its roundoff scale, the same on absolute values times m + 1."""
    big_k = _SERIES_TERMS
    g = np.concatenate(([1.0], np.cumprod(-(a + np.arange(1.0, big_k)) / np.arange(2.0, big_k + 1))))
    tables = np.zeros((2, big_k, big_k))
    tables[:, 0, 0] = 1.0
    for n in range(1, big_k):
        k = np.arange(1, n + 1)
        prev = tables[:, n - k]  # c_{n-k}: times k - n, and a power of s up times k
        step = np.stack(((k - n)[:, None] * prev[0], (n - k)[:, None] * prev[1]))
        step[..., 1:] += k[:, None] * prev[..., :-1]
        tables[:, n] = (np.stack((g[k], np.abs(g[k])))[:, None] @ step)[:, 0] / n
    return tables[0], tables[1] * np.arange(1.0, big_k + 1.0)[:, None]


def _a_string_powers(a: float, s, edges: _Edges) -> tuple[np.ndarray, Callable[[], np.ndarray]]:
    """Σ_{x_i <= j < x_{i+1}} ℓ_j^s per block of consecutive ``edges`` of the
    a-string's gaps ℓ_j = j^{-a} - (j+1)^{-a}, for each s of the array ``s``
    (Re s >= 0), of shape s.shape + (blocks,) and real for a real ``s``, and a
    function that computes its error bound when asked (the abscissa scan never asks).

    x_0 >= ``geometry._a_string_head(a, s)``; a last edge ∞ needs Re s > 1/(1 + a).
    ℓ_j = a·j^{-1-a}·g(1/j) with g(u) = (1 - (1+u)^{-a})/(a u) = Σ_m g_m u^m,
    g_m = (-1)^m (a+1)_m/(m+1)!, so a block is a^s Σ_{m<K} c_m(s)·P((1+a)s + m)
    (Lapidus–Radunović–Žubrinić 2017), P the power sums of ``_power_sums``, c_m
    from ``_a_string_table``, whose scale at |s| times _EPS·(1 + |s ln a|) bounds
    its roundoff.  g(u) = ∫_0^1 (1 + tu)^{-1-a} dt is a mean of values with
    |arg| <= (1 + a)·asin ρ <= π/3 and modulus <= (1 - ρ)^{-1-a} for |u| <= ρ <=
    sin(π/(3(1 + a))), so there |g^s| <= G = exp((1 + a)(Re s·ln(1/(1 - ρ)) +
    |Im s|·asin ρ)), and by Cauchy the series past c_{K-1} is at most
    G·(|u|/ρ)^K/(1 - |u|/ρ); ρ <= K/((1 + a)|Im s|) about minimises that for
    large |Im s|.  With |u| = 1/j, the truncation over j >= x_i is at most
    |a^s|·G·ρ^{-K}/(1 - 1/(x_0 ρ))·(x_i^{-p} + x_i^{1-p}/(p - 1)), at most
    that times x_i^{1-p}·(1/x_0 + 1/(p - 1)), p = (1 + a) Re s + K.
    """
    s = np.asarray(s, dtype=complex if np.iscomplexobj(s) else float)
    big_k = _SERIES_TERMS
    table, scales = _a_string_table(a)
    s_powers = np.power(s[..., None], np.arange(big_k))
    c = s_powers @ table.T
    sums, sum_errs = _power_sums((1.0 + a) * s[..., None] + np.arange(big_k), edges)
    scale = np.exp(s * math.log(a))[..., None]

    def bound() -> np.ndarray:
        roundoff = _EPS * (1.0 + np.abs(s * math.log(a)))[..., None] * (np.abs(s_powers) @ scales.T)
        err = np.abs(c)[..., None, :] @ sum_errs + roundoff[..., None, :] @ np.abs(sums)
        r0 = math.sin(math.pi / (3.0 * (1.0 + a)))  # ρ = min(r0, K/((1 + a)|Im s|))
        rho = r0 * big_k / np.maximum(big_k, r0 * (1.0 + a) * np.abs(s.imag))
        p, x0 = (1.0 + a) * s.real + big_k, edges.lo.min(initial=math.inf)
        log_g = (1.0 + a) * (s.real * -np.log1p(-rho) + np.abs(s.imag) * np.arcsin(rho))  # ln G
        trunc = ((1.0 / x0 + 1.0 / (p - 1.0)) / (1.0 - 1.0 / (x0 * rho)))[..., None] \
            * np.exp((log_g - big_k * np.log(rho))[..., None] + (1.0 - p)[..., None] * edges.log_lo)
        return np.abs(scale) * (err[..., 0, :] + trunc)

    return scale * (c[..., None, :] @ sums)[..., 0, :], bound


def _a_string_saturated(desc: SetDescriptor, s: np.ndarray, delta: float,
                        start: float) -> tuple[np.ndarray, np.ndarray, int]:
    """Σ_{j >= start} ∫_0^δ t^{s-2}·min(2t, X_j) dt over the infinite
    a-string's gaps X_j = λℓ_j, all at most 2δ, for each s ≠ 1: with its error
    bound and the number of series terms.

    Each saturated gap gives X·δ^{s-1}/(s - 1) - 2^{1-s} X^s/(s(s - 1)); the
    X_j telescope to λ·start^{-a}, and Σ X_j^s is ``_a_string_powers``.
    """
    lam, a = desc.scale, desc.a
    z = s - 1.0
    powers, bound = _a_string_powers(a, s, _edges(np.array([start, math.inf])))
    first = lam * start ** -a * np.exp(z * math.log(delta))
    factor = np.exp(s * math.log(lam) - z * math.log(2.0)) / s
    second = factor * powers[..., 0]
    err = np.abs(factor) * bound()[..., 0] \
        + _EPS * (np.abs(first) * (1.0 + np.abs(z * math.log(delta))) + np.abs(second))
    return (first - second) / z, err / np.abs(z), _SERIES_TERMS


def _a_string_rest(desc: SetDescriptor, s: complex, delta: float,
                   head: int) -> tuple[complex, float, int]:
    """∫_0^δ t^{s-2} R(t) dt for the gaps j > ``head`` of the infinite a-string,
    R being their share of the tube, for Re s > 1/(1 + a): value, error bound
    and the number of series terms.

    Those of them wider than 2δ, j <= j* (``geometry._a_string_count``),
    contribute 2δ^s/s each; the rest are saturated (``_a_string_saturated``).
    Near s = 1 that sum is 0/0, and its value there is its mean over a circle
    about s, well inside Re s > 1/(1 + a) (``flat._circle_mean``).
    """
    lam, a = desc.scale, desc.a
    wide = float(geometry._a_string_count(a, np.array([delta / lam]))[0])
    start = max(head + 1.0, wide + 1.0)
    each = 2.0 * np.exp(s * math.log(delta)) / s
    value = (start - head - 1.0) * each
    err = _EPS * abs(value) * (1.0 + abs(s * math.log(delta)))
    radius = a / (1.0 + a) / 64.0  # (1 - D)/64
    if abs(s - 1.0) >= 0.5 * radius:
        rest, rest_err, terms = _a_string_saturated(desc, np.array([s]), delta, start)
        rest, rest_err = complex(rest[0]), float(rest_err[0])
    else:
        rest, rest_err, terms = _circle_mean(
            lambda pts: _a_string_saturated(desc, pts, delta, start), s, radius)
    return complex(value + rest), err + rest_err, terms


def _flat_drum_zeta(desc: SetDescriptor, s: complex, delta: float,
                    tol: float) -> ZetaEstimate:
    """ζ̃ of the flat drum from its closed form, λ^s·ζ̃₁(s; δ/λ) with ζ̃₁ at
    unit scale (see :func:`fractalzeta.flat.tube_zeta`)."""
    lam = desc.scale
    try:
        value, err, terms = flat.tube_zeta(s, delta / lam)
    except ArithmeticError as exc:
        raise NonconvergenceError(f"flat drum tube zeta: {exc}") from None
    factor = np.exp(s * math.log(lam))
    value, err = complex(factor * value), err * abs(factor)
    if not (math.isfinite(err) and err <= tol * max(1.0, abs(value))):
        raise NonconvergenceError(f"flat drum tube zeta bound {err:.3g} above tol {tol:g}")
    return ZetaEstimate(value=value, quad_err_bound=err, nodes=terms)


def tube_zeta_quad(desc: SetDescriptor, s: complex, delta: float,
                   tol: float = 1e-10, full: bool = False) -> ZetaEstimate:
    """ζ̃_A(s; δ) = ∫_0^δ t^{s-N-1} |A_t ∩ Ω| dt as an exact sum over holes.

    The tube volume is a sum over the holes of Ω \\ A (and, with ``full``,
    the outer collar) of polynomials h(t) that stop growing at the hole's
    inradius ρ, so each hole integrates in closed form:
    Σ_m c_m r^{s-N+m}/(s-N+m) + h(r)(δ^{s-N} - r^{s-N})/(s-N) with
    r = min(ρ, δ).  The self-similar levels of Cantor sets and carpets sum as
    a geometric series of ratio m·a^s.  The infinite a-string's table holds
    its leading gaps; the others are summed in closed form, as a series in
    Hurwitz zetas (``_a_string_rest``).  The returned bound covers the
    roundoff of the sum, amplified by 1/|1 - m·a^s| near the dimension, and
    for the a-string the Euler–Maclaurin remainders and the truncation of
    that series.  The flat drum,
    whose tube is not piecewise polynomial, sums its closed form instead: a
    binomial series of incomplete gammas, plus a Gauss–Legendre circular
    segment below saturation and a mean over a small circle about s near
    s = 2, whose shares of the bound are estimates.
    ``nodes`` counts the hole rows summed, plus the series terms for the
    infinite a-string (series terms and quadrature nodes for the flat drum).
    Raises :class:`NonconvergenceError` where the integral diverges (Re s at
    or below the dimension) or the bound exceeds ``tol·max(1, |ζ̃|)``.
    """
    if delta <= 0:
        raise ValueError("delta must be positive")
    s = complex(s)
    n_dim = desc.ambient_dim
    if desc.kind == "flatDrum" and not full:
        return _flat_drum_zeta(desc, s, delta, tol)
    z = s - n_dim
    # every h grows like (boundary measure)·t near 0, so ∫ t^{z-1} h diverges for Re z <= -1
    if z.real <= -1.0:
        raise NonconvergenceError(f"tube zeta diverges at t -> 0 for Re s <= {n_dim - 1}")
    table_desc = desc
    if geometry._truncated(desc):
        if s.real <= 1.0 / (1.0 + desc.a):
            raise NonconvergenceError(
                f"tube zeta diverges for Re s <= 1/(1 + a) = {1.0 / (1.0 + desc.a):g}")
        head = geometry._a_string_head(desc.a, s) - 1
        if head > len(desc.holes.radii):  # more gaps than the stored table holds
            table_desc = geometry.scaled(geometry.a_string_set(desc.a, head), desc.scale)
    holes = geometry._hole_table(table_desc, delta, full=full)
    m = np.arange(1, holes.coeffs.shape[1] + 1)
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
    nodes = len(r)
    if geometry._truncated(desc):
        rest, rest_err, series = _a_string_rest(desc, s, delta, len(r) - int(full))
        value, err, nodes = value + rest, err + rest_err, nodes + series
    if not (math.isfinite(err) and err <= tol * max(1.0, abs(value))):
        raise NonconvergenceError(
            f"tube zeta bound {err:.3g} above tol {tol:g} at s = {s:g}")
    return ZetaEstimate(value=value, quad_err_bound=err, nodes=nodes)


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


def _flat_drum_log_distances(desc: SetDescriptor, count: int,
                             rng: np.random.Generator) -> np.ndarray:
    """log |x| for ``count`` uniform points x of the cusp, which has no holes:
    A = {0}, so d(x, A) = |x|.  Rejection sampling from its bounding box,
    which keeps a share |Ω|·e of its points; each try draws enough for what
    is missing, with about four standard deviations to spare."""
    parts, got = [], 0
    while got < count:
        size = (count - got + 4.0 * math.sqrt(count - got) + 16) / (flat.region_volume() * math.e)
        cand = rng.random((int(size), 2)) * (1.0, math.exp(-1.0))
        with np.errstate(divide="ignore"):
            parts.append(cand[cand[:, 1] < np.exp(-1.0 / cand[:, 0])])
        got += len(parts[-1])
    with np.errstate(divide="ignore"):
        return np.log(desc.scale * np.hypot(*np.concatenate(parts)[:count].T))


def _flat_drum_law(desc: SetDescriptor, n: int) -> geometry._Strata:
    """The flat drum's distance law as one stratum of n samples, drawn by
    ``_flat_drum_log_distances``.  A kept point has e^{-1/x} > 0, so x > 1/746,
    and |x + iy| < 1.07: log d lies within log λ ± 6.7."""
    def draw(ids, counts, rng: np.random.Generator, out: np.ndarray | None = None) -> np.ndarray:
        log_d = _flat_drum_log_distances(desc, int(np.sum(counts)), rng)
        if out is None:
            return log_d
        out[:] = log_d
        return out

    return geometry._Strata(np.array([region_volume(desc)]), np.array([n]), draw, None,
                            abs(math.log(desc.scale)) + 6.7)


def _variance_threshold(desc: SetDescriptor) -> float | None:
    """(N + D)/2, below which d(x, A)^{s-N} has infinite variance on Ω.

    E|d^{s-N}|² is the distance zeta at 2 Re s - N, finite only above the
    dimension D: log m / log(1/a) for a hole table that ends in a geometric
    family of ratios (m, a), 1/(1 + a) for the infinite a-string, and N - 1
    for every other (finite) table; the first two are ``similarity_dim``.
    The flat drum has no holes and no
    threshold: its tube is flat, so every moment of d^{s-N} is finite.
    """
    n = desc.ambient_dim
    if desc.kind == "flatDrum":
        return None
    finite = desc.holes.ratios is None and not geometry._truncated(desc)
    return (n + (n - 1.0 if finite else desc.similarity_dim)) / 2.0


_MC_BLOCK = 2**14  # samples drawn and reduced at a time: memory does not grow with n
_CEXP_M = 4096  # e^{iθ} = e^{2πik/M}, from a table, times e^{ir}, |r| <= π/M
_CEXP_HI = float(np.float32(math.tau / _CEXP_M))  # 24 bits: k·HI is exact for |k| < 2^29
_CEXP_LO = (math.tau - _CEXP_M * _CEXP_HI + 2.4492935982947064e-16) / _CEXP_M  # + 2π − fl(2π)
# e^{2πij/M} for j < M, as e^{i·j·HI}·e^{i·j·LO} (j·HI is exact), built on first use
_cexp_table = functools.cache(lambda: np.exp(1j * _CEXP_HI * np.arange(_CEXP_M))
                              * np.exp(1j * _CEXP_LO * np.arange(_CEXP_M)))


def _cexp_work(size: int) -> tuple[np.ndarray, ...]:
    """Scratch for ``_cexp`` on ``size`` points: three float arrays, an intp and a complex one."""
    return (np.empty(size), np.empty(size), np.empty(size), np.empty(size, np.intp),
            np.empty(size, complex))


def _cexp(w: complex, x: np.ndarray, out: np.ndarray | None = None,
          work: Sequence[np.ndarray] | None = None, bound: float | None = None) -> np.ndarray:
    """exp(w·x) for a 1-d float64 array x within a few ulp, table-driven (Tang
    1989): Im w·x = 2πk/M + r exactly, then e^{2πik/M} from the table at k & (M - 1),
    k mod M as M is a power of two, and Taylor polynomials of degree 4 and 3 for
    cos r and sin r.  A real w takes one real exp; past |Im w·x| = 2^19, where the
    reduction is not exact, numpy's complex exp.  A ``bound`` on |x| rules that
    out by |Im w|·bound < 2^19; without one, or if that fails, x's range is scanned.
    Written into ``out``, a complex array of x's length, with ``work``
    (``_cexp_work``) as scratch; either is allocated when not given."""
    if out is None:
        out = np.empty(x.shape, complex)
    if not w.imag:
        np.exp(np.multiply(x, w.real, out=out.real), out=out.real)
        out.imag = 0.0
        return out
    r, k, modulus, index, table = _cexp_work(len(x)) if work is None else work
    np.multiply(x, w.imag, out=r)
    if not (bound is not None and abs(w.imag) * bound < 2.0**19
            or -2.0**19 < r.min(initial=0.0) <= r.max(initial=0.0) < 2.0**19):
        return np.exp(np.multiply(x, w, out=out), out=out)
    np.rint(np.multiply(r, _CEXP_M / math.tau, out=k), out=k)
    r -= np.multiply(k, _CEXP_HI, out=modulus)  # exact
    r -= np.multiply(k, _CEXP_LO, out=modulus)
    np.copyto(index, k, casting="unsafe")
    np.bitwise_and(index, _CEXP_M - 1, out=index)  # k mod M
    r2 = np.multiply(r, r, out=k)
    np.exp(np.multiply(x, w.real, out=modulus), out=modulus)
    # e^{Re w·x}·e^{ir}, its parts computed in the two halves of the table's scratch
    re, im = table.view(float).reshape(2, -1)
    np.multiply(r2, 1.0 / 24.0, out=re)
    re -= 0.5
    re *= r2
    re += 1.0
    re *= modulus
    np.multiply(r2, -1.0 / 6.0, out=im)
    im += 1.0
    im *= r
    im *= modulus
    out.real, out.imag = re, im
    out *= np.take(_cexp_table(), index, out=table, mode="clip")  # in range: clip does nothing
    return out


def _mc_weights(w: complex, log_d: np.ndarray, cut: float | None, out: np.ndarray | None = None,
                work: Sequence[np.ndarray] | None = None, bound: float | None = None) -> np.ndarray:
    """exp(w·log d) by ``_cexp``, given the law's ``bound`` on |log d|, into ``out``; 0,
    its ``log_d`` zeroed, where d = 0 or log d > ``cut``.  A ``cut`` of None drops nothing."""
    if cut is not None:
        drop = (log_d == -math.inf) | (log_d > cut)
        log_d[drop] = 0.0
    vals = _cexp(w, log_d, out, work, bound)
    if cut is not None:
        vals[drop] = 0.0
    return vals


def distance_zeta_mc(desc: SetDescriptor, s: complex, n: int, seed: int,
                     delta: float | None = None, full: bool = False) -> ZetaEstimate:
    """Stratified Monte Carlo estimate of the distance zeta with standard error.

    Relative mode integrates d(x,A)^{s-N} over Ω; full mode needs ``delta``
    and integrates d^{s-N} over A_δ: Ω's points within δ of A and the outer
    collar.  The distance of a sample is drawn from its exact law, cut into
    strata (``geometry._hole_law``): each power of the collar, each hole row
    and each family level whose proportional share of the n samples reaches
    a floor, and one pool of the rest.  The estimate is Σ_h V_h·mean_h over
    the strata, of volume V_h and n_h samples each, and its standard error
    √(Σ_h V_h²·var_h/n_h), var_h the population variance.  The flat drum has
    no holes: it samples its cusp, relative mode only, as one stratum.  The
    strata's samples are drawn in a fixed order, blocks of ``_MC_BLOCK`` at a
    time in buffers reused from block to block, led by a cursor (stratum,
    samples drawn) in Python ints; each stratum's part of a block gives its
    mean, then its sum of squared deviations from it, merged into its running
    pair (Chan, Golub & LeVeque 1979).  Deterministic for a fixed seed.
    Raises :class:`ValueError` for a non-finite s, an n not an integer >= 2,
    a seed not an integer >= 0 or a full-mode δ not in (0, ∞), and
    :class:`NonconvergenceError` at Re s <= (N + D)/2, where the variance is
    infinite and a standard error would mean nothing (every kind but the flat
    drum, see ``_variance_threshold``).
    """
    if not isinstance(n, (int, np.integer)) or n < 2:
        raise ValueError("need an integer number of samples, at least two")
    if isinstance(seed, bool) or not (isinstance(seed, (int, np.integer)) and seed >= 0):
        raise ValueError(f"seed must be a non-negative integer, not {seed!r}")
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise ValueError("s must be finite")
    if full and not (delta is not None and 0.0 < delta < math.inf):
        raise ValueError(f"full-tube Monte Carlo: delta must be positive and finite, not {delta}")
    threshold = _variance_threshold(desc)
    if threshold is not None and s.real <= threshold:
        raise NonconvergenceError(
            f"Monte Carlo variance is infinite for Re s <= (N + D)/2 = {threshold:.6g}")
    if desc.kind == "flatDrum":
        if full:
            raise ValueError("the flat drum is a relative construction only")
        law = _flat_drum_law(desc, n)
    else:
        law = geometry._hole_law(desc, n, delta if full else None)
    w, rng = s - desc.ambient_dim, np.random.default_rng(seed)
    samples = law.samples.tolist()
    count, mean, m2 = [0] * len(samples), [0j] * len(samples), [0.0] * len(samples)
    size = min(n, _MC_BLOCK)
    log_d, vals, work = np.empty(size), np.empty(size, complex), _cexp_work(size)
    h = drawn = 0  # the cursor: the stratum being drawn, and how many of its samples are
    for start in range(0, n, _MC_BLOCK):
        size = min(_MC_BLOCK, n - start)
        ids, begins, lens, at = [], [], [], 0  # the strata met in this block, where, how many
        while at < size:
            ids.append(h)
            begins.append(at)
            lens.append(min(samples[h] - drawn, size - at))
            at, drawn = at + lens[-1], drawn + lens[-1]
            if drawn == samples[h]:
                h, drawn = h + 1, 0
        if size < len(log_d):  # the last block, shorter: the buffers' heads
            log_d, vals, work = log_d[:size], vals[:size], [a[:size] for a in work]
        law.draw(ids, lens, rng, log_d)
        block = _mc_weights(w, log_d, law.cut, vals, work, law.bound)
        means = (np.add.reduceat(block, begins) / lens).tolist()
        for mu, a, c in zip(means, begins, lens):
            block[a:a + c] -= mu
        squares = np.square(block.view(float), out=block.view(float))
        sums = np.add.reduceat(squares, [2 * a for a in begins]).tolist()
        for i, mu, c, q in zip(ids, means, lens, sums):
            step, merged = mu - mean[i], count[i] + c
            mean[i] += step * (c / merged)
            m2[i] += q + (step.real**2 + step.imag**2) * (count[i] * c / merged)
            count[i] = merged
    value = complex(law.volumes @ mean)
    std_err = math.sqrt(float((law.volumes**2 * np.array(m2) / np.array(count)**2).sum()))
    return ZetaEstimate(value=value, std_err=std_err, samples=n)


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
    if not np.isfinite(arr).all():
        return True
    if len(arr) >= 2 and arr[-1] > 1e12 * max(abs(arr[0]), 1e-300):
        return True
    inc = np.diff(arr)
    inc = inc[inc != 0.0]
    if len(inc) < 4:
        return False
    tail_ratio = np.log(inc[-4:] / inc[-5:-1]) if len(inc) >= 5 else np.log(inc[1:] / inc[:-1])
    return float(tail_ratio.sum()) / len(tail_ratio) > thresh


def abscissa_scan(evaluator: Callable[[float], np.ndarray], lo: float, hi: float,
                  xtol: float = 5e-5) -> float:
    """Critical exponent where the refinement sequence flips divergent→convergent.

    ``evaluator(sigma)`` returns partial estimates under refinement of the
    defining series/integral of the zeta at real s = sigma; bisection on the
    divergence verdict localizes the abscissa of (Lebesgue) convergence.
    """
    if not _growth_verdict(evaluator(lo)):
        raise ValueError(f"abscissa below the scan window ({lo:g}, {hi:g}): converges at its low end")
    if _growth_verdict(evaluator(hi)):
        raise ValueError(f"abscissa above the scan window ({lo:g}, {hi:g}): diverges at its high end")
    while hi - lo > xtol:
        mid = 0.5 * (lo + hi)
        if _growth_verdict(evaluator(mid)):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _ladder_log_blocks(desc: SetDescriptor, levels: int) -> Callable[[float], np.ndarray]:
    """σ ↦ log ∫ d(x, A)^{σ-N} over the holes of each of the first ``levels``
    levels of a ladder's family, count·m^k·I(σ)·(λg·a^k)^σ, in log space: the
    counts alone overflow past level ~300.

    The family is read off the hole table's head row once per call: its
    count, width g = 2ρ, shape and ratios (m, a).  I(σ), the integral over
    one hole of width 1, is the head's row term (``_row_term``), +inf where
    it diverges (σ <= N - 1).
    """
    n, holes = desc.ambient_dim, desc.holes
    (m, a), k = holes.ratios, int(geometry._degrees(holes.coeffs[-1:])[0])
    # at width 1, inradius 1/2, the coefficient of t^k is the shape's times (1/2)^{N-k}
    unit = _row_term(n, k, holes.coeffs[-1:, k - 1] * 0.5 ** (n - k), (1.0,))
    log_m, log_a, count = math.log(m), math.log(a), float(holes.counts[-1])
    log_width = math.log(desc.scale * (2.0 * holes.radii[-1]))
    ks = np.arange(levels, dtype=float)

    def log_blocks(sigma: float) -> np.ndarray:
        coeff = math.inf if sigma <= n - 1 else float(unit.value(sigma).real)
        return ks * (log_m + sigma * log_a) + sigma * log_width + math.log(count * coeff)

    return log_blocks


def _string_blocks(desc: SetDescriptor, imax: int = 21):
    """Partial sums Σ_{j < 2^i} ℓ_j^σ, i = 1..imax, of the a-string's lengths:
    one by one below the first power of two past the table's head, then the
    dyadic blocks [2^{i-1}, 2^i) in closed form on edges built once per scan.
    """
    a = desc.a
    first = min(math.ceil(math.log2(geometry._a_string_head(a))), imax)
    logl = np.log(geometry._a_string_length(np.arange(1.0, 2.0**first), a))
    ends = 2 ** np.arange(1, first + 1) - 2  # partial sums over j < 2^i
    edges = _edges(2.0 ** np.arange(first, imax + 1))

    def evaluator(sigma: float) -> np.ndarray:
        head = np.cumsum(np.exp(sigma * logl))
        blocks = _a_string_powers(a, sigma, edges)[0].real
        return np.concatenate((head[ends], head[-1] + np.cumsum(blocks)))

    return evaluator


def abscissa_of(desc: SetDescriptor, xtol: float = 5e-5) -> float:
    """Abscissa of convergence of the relative distance zeta of a catalog set."""
    n = desc.ambient_dim
    if geometry._truncated(desc):
        return abscissa_scan(_string_blocks(desc), lo=0.02, hi=1.0, xtol=xtol)
    if desc.holes is not None and desc.holes.ratios is not None:
        log_blocks = _ladder_log_blocks(desc, 48)
        return abscissa_scan(lambda sigma: np.cumsum(np.exp(log_blocks(sigma))),
                             lo=n - 1 + 1e-3, hi=float(n), xtol=xtol)
    # a finite table's zeta converges for every Re s > N - 1, and the flat
    # drum's everywhere: there is nothing to scan
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
    for each requested depth, slicing one set of level integrals built at the
    largest, and applies a Cauchy/divergence verdict.
    """
    if desc.holes is None or desc.holes.ratios is None:
        raise ValueError("the integrability probe is defined for ladder sets")
    if not (ladder_depths and all(isinstance(k, (int, np.integer)) and k > 0 for k in ladder_depths)):
        raise ValueError(f"ladder_depths must be positive integers, not {ladder_depths!r}")
    n = desc.ambient_dim
    if n - gamma <= n - 1:  # γ >= 1: the integral over a single hole diverges
        return HPReport(gamma=gamma, partials=(math.inf,), convergent=False)
    depths = sorted(ladder_depths)
    blocks = np.exp(_ladder_log_blocks(desc, depths[-1])(n - gamma))
    partials = [float(blocks[:depth].sum()) for depth in depths]
    m, a = desc.holes.ratios
    convergent = m * a ** (n - gamma) < 1.0 and math.isfinite(partials[-1])
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
