"""Independent references for the benchmark's correctness checks.

Nothing here imports ``fractalzeta``: every reference is derived again from
the geometry of the sets, mostly in mpmath at 30 digits.

* Ladder sets (generalized Cantor sets and carpets) are sums over a geometric
  ladder of holes: level k holds ``count * ratio**(k-1)`` cube holes of side
  ``gap * a**(k-1)``.  Hole integrals are elementary, and the sum over levels
  is a geometric series.  Full mode adds the outer Steiner collar of the unit
  box, whose boundary lies in the set.
* The a-string sums Σ ℓ_j^s directly for small j and through Hurwitz zeta
  values of an asymptotic series in 1/j for the tail.
* Self-similar sprays are enumerated by count vectors (one multinomial per
  scale) rather than by words.
* Zeros of 1 - Σ r_j^s are counted with the argument principle on the
  boundary of the window.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from itertools import product
from math import comb

import mpmath as mp
import numpy as np

mp.mp.dps = 30


# ---------------------------------------------------------------------------
# hole ladders


@dataclass(frozen=True)
class Ladder:
    """Level k >= 1 holds count * ratio**(k-1) cube holes of side gap * a**(k-1)."""

    dim_n: int
    count: int
    ratio: int
    gap: Fraction
    a: Fraction

    @property
    def dim(self) -> float:
        return math.log(self.ratio) / math.log(1 / self.a)


def cantor_ladder(m: int, a: Fraction) -> Ladder:
    """C(m, a): m blocks of ratio a leave m - 1 gaps of width (1 - m a)/(m - 1)."""
    a = Fraction(a)
    return Ladder(1, m - 1, m, (1 - m * a) / (m - 1), a)


def carpet_ladder(n: int) -> Ladder:
    """Middle-cell carpet in [0, 1]^n: one hole of side 1/3, then 3^n - 1 copies."""
    return Ladder(n, 1, 3**n - 1, Fraction(1, 3), Fraction(1, 3))


def _steiner(n: int) -> list[tuple[int, mp.mpf]]:
    """(j, b_j) with |box_t minus box| = Σ b_j t^j for the unit box in R^n."""
    pi = mp.pi
    return {1: [(1, mp.mpf(2))],
            2: [(1, mp.mpf(4)), (2, pi)],
            3: [(1, mp.mpf(6)), (2, 3 * pi), (3, 4 * pi / 3)]}[n]


def _hole_factor(n: int, s) -> mp.mpc:
    """∫ over a cube hole of side g of d(x, ∂hole)^{s-n} dx, divided by g^s.

    The points within u of the boundary fill g^n - (g - 2u)^n, so the
    integral is ∫_0^{g/2} u^{s-n} 2n (g - 2u)^{n-1} du, expanded binomially.
    """
    return sum(2 * n * comb(n - 1, j) * (-2) ** j * mp.power(2, -(s - n + j + 1)) / (s - n + j + 1)
               for j in range(n))


def _fill_factor(n: int, s) -> mp.mpc:
    """∫_0^{g/2} t^{s-n-1} (g^n - (g - 2t)^n) dt - (g/2)^{s-n} g^n / (s - n), over g^s.

    A hole narrower than 2δ contributes g^s times this plus g^n δ^{s-n}/(s-n)
    to the tube zeta: it fills up at t = g/2 and stays full until δ.
    """
    return -sum(comb(n, j) * (-2) ** j * mp.power(2, -(s - n + j)) / (s - n + j)
                for j in range(1, n + 1)) - mp.power(2, -(s - n)) / (s - n)


def _levels_above(lad: Ladder, width: float) -> int:
    """Number of ladder levels whose hole side exceeds ``width``."""
    k = 0
    g = mp.mpf(lad.gap.numerator) / lad.gap.denominator
    a = mp.mpf(lad.a.numerator) / lad.a.denominator
    while g > width:
        k += 1
        g *= a
    return k


def _level(lad: Ladder, k: int) -> tuple[mp.mpf, mp.mpf]:
    """(count, side) of level k >= 1, in mpmath."""
    a = mp.mpf(lad.a.numerator) / lad.a.denominator
    g = mp.mpf(lad.gap.numerator) / lad.gap.denominator
    return mp.mpf(lad.count) * mp.mpf(lad.ratio) ** (k - 1), g * a ** (k - 1)


def _geom_tail(lad: Ladder, k0: int, s) -> mp.mpc:
    """Σ_{k > k0} count_k side_k^s, summed as a geometric series."""
    c, g = _level(lad, k0 + 1)
    a = mp.mpf(lad.a.numerator) / lad.a.denominator
    return c * mp.power(g, s) / (1 - lad.ratio * mp.power(a, s))


def tube_volume(lad: Ladder, t: float, scale: float = 1.0, full: bool = False) -> mp.mpf:
    """|A_t ∩ Ω| (or |A_t| with ``full``) from the hole sum."""
    n = lad.dim_n
    lam = mp.mpf(scale)
    u = mp.mpf(t) / lam
    k0 = _levels_above(lad, 2 * u)
    vol = mp.mpf(0)
    for k in range(1, k0 + 1):
        c, g = _level(lad, k)
        vol += c * (g**n - (g - 2 * u) ** n)
    vol += _geom_tail(lad, k0, n)
    if full:
        vol += sum(b * u**j for j, b in _steiner(n))
    return lam**n * vol


def distance_zeta(lad: Ladder, s: complex, scale: float = 1.0, full: bool = False,
                  delta: float | None = None) -> mp.mpc:
    """ζ_A(s, Ω), or ζ_A(s, A_δ) with ``full`` (δ at least the half first gap)."""
    n = lad.dim_n
    s = mp.mpc(s)
    lam = mp.mpf(scale)
    val = _hole_factor(n, s) * _geom_tail(lad, 0, s)
    if full:
        d = mp.mpf(delta) / lam
        val += sum(j * b * mp.power(d, s - n + j) / (s - n + j) for j, b in _steiner(n))
    return mp.power(lam, s) * val


def tube_zeta(lad: Ladder, s: complex, delta: float, scale: float = 1.0,
              full: bool = False) -> mp.mpc:
    """ζ̃_A(s; δ) = ∫_0^δ t^{s-n-1} V(t) dt, hole by hole."""
    n = lad.dim_n
    s = mp.mpc(s)
    lam = mp.mpf(scale)
    d = mp.mpf(delta) / lam
    val = mp.mpc(0)
    # holes wider than 2δ are only partly covered on [0, δ]
    k0 = _levels_above(lad, 2 * d)
    for k in range(1, k0 + 1):
        c, g = _level(lad, k)
        val -= c * sum(comb(n, j) * (-2) ** j * g ** (n - j) * mp.power(d, s - n + j) / (s - n + j)
                       for j in range(1, n + 1))
    val += _fill_factor(n, s) * _geom_tail(lad, k0, s) \
        + mp.power(d, s - n) / (s - n) * _geom_tail(lad, k0, n)
    if full:
        val += sum(b * mp.power(d, s - n + j) / (s - n + j) for j, b in _steiner(n))
    return mp.power(lam, s) * val


def lattice_pole(lad: Ladder, k: int) -> mp.mpc:
    """The k-th pole D + 2πik / ln(1/a) of the ladder's geometric series."""
    la = mp.log(mp.mpf(lad.a.denominator) / lad.a.numerator)
    return mp.log(lad.ratio) / la + 2j * mp.pi * k / la


def lattice_residues(lad: Ladder, k: int) -> tuple[mp.mpc, mp.mpc]:
    """(res ζ_A, res ζ̃_A) at the lattice pole ω_k, relative mode.

    Both share Σ count_k side_k^s = c g^s / (1 - ratio a^s), whose residue is
    c g^ω / ln(1/a); the hole factors are regular there.
    """
    n = lad.dim_n
    w = lattice_pole(lad, k)
    la = mp.log(mp.mpf(lad.a.denominator) / lad.a.numerator)
    c, g = _level(lad, 1)
    series = c * mp.power(g, w) / la
    return _hole_factor(n, w) * series, _fill_factor(n, w) * series


def integer_residues(lad: Ladder) -> dict[int, Fraction]:
    """Exact residues of the relative ζ_A at its integer poles s = n - 1 - j."""
    n = lad.dim_n
    out = {}
    for j in range(n):
        p = n - 1 - j
        series = lad.count * lad.gap**p / (1 - lad.ratio * lad.a**p)
        out[p] = 2 * n * comb(n - 1, j) * (-2) ** j * series
    return out


# ---------------------------------------------------------------------------
# the a-string: lengths j^-a - (j+1)^-a


def _series_power(coeffs: list, alpha) -> list:
    """Coefficients of g(u)^alpha for a power series g with g(0) = 1 (Miller)."""
    h = [mp.mpc(1)]
    for m in range(1, len(coeffs)):
        h.append(sum(((alpha + 1) * k - m) * coeffs[k] * h[m - k]
                     for k in range(1, m + 1)) / m)
    return h


A_STRING_DIRECT = 60     # terms summed directly
A_STRING_ORDER = 14      # terms of the 1/j expansion of the tail


def a_string_geometric(a: float, s: complex) -> mp.mpc:
    """Σ_{j>=1} ℓ_j^s with ℓ_j = j^-a - (j+1)^-a, for Re s > 1/(1+a).

    ℓ_j = a j^{-a-1} g(1/j) with g(u) = (1 - (1+u)^{-a}) / (a u), so the tail
    j >= J is a^s Σ_m c_m ζ((1+a)s + m, J) where c_m are the coefficients of
    g(u)^s.
    """
    a = mp.mpf(a)
    s = mp.mpc(s)
    big_j = A_STRING_DIRECT
    head = mp.fsum(mp.power(mp.power(j, -a) - mp.power(j + 1, -a), s) for j in range(1, big_j))
    g = [-mp.binomial(-a, m + 1) / a for m in range(A_STRING_ORDER)]
    c = _series_power(g, s)
    tail = mp.power(a, s) * mp.fsum(c[m] * mp.zeta((1 + a) * s + m, big_j)
                                    for m in range(A_STRING_ORDER))
    return head + tail


def a_string_tube_zeta(a: float, s: complex, delta: float) -> mp.mpc:
    """ζ̃ of the infinite a-string relative to [0, 1], for δ >= ℓ_1 / 2.

    ζ_A(s) = (2^{1-s}/s) Σ ℓ_j^s, and ζ̃ follows from
    ζ_A(s) = δ^{s-1} |Ω| + (1 - s) ζ̃(s) with |Ω| = 1.
    """
    s = mp.mpc(s)
    zeta = mp.power(2, 1 - s) / s * a_string_geometric(a, s)
    return (zeta - mp.power(mp.mpf(delta), s - 1)) / (1 - s)


def a_string_tube_residue(a: float) -> mp.mpf:
    """res(ζ̃, D) at D = 1/(1+a): 2^{1-D} a^D / ((1+a) D (1-D))."""
    a = mp.mpf(a)
    d = 1 / (1 + a)
    return mp.power(2, 1 - d) * mp.power(a, d) / ((1 + a) * d * (1 - d))


# ---------------------------------------------------------------------------
# self-similar sprays


def spray_tube_volume(n: int, side: float, ratios: tuple[float, ...], t: float) -> mp.mpf:
    """Inner tube volume of the spray of a cube generator of side ``side``.

    Copies wider than 2t are enumerated by count vector (c_1, ..., c_m): all
    (Σc)! / Π c_j! words with those counts share the side side·Π r_j^{c_j}.
    Narrower copies are fully covered and enter through the total volume.
    """
    rs = [mp.mpf(r) for r in ratios]
    total = mp.mpf(side) ** n / (1 - sum(r**n for r in rs))
    two_t = 2 * mp.mpf(t)
    depth = [int(mp.floor(mp.log(two_t / side) / mp.log(r))) + 1 for r in rs]
    uncovered = mp.mpf(0)
    for counts in product(*(range(d + 1) for d in depth)):
        size = mp.mpf(side)
        for r, c in zip(rs, counts):
            size *= r**c
        if size <= two_t:
            continue
        words = math.factorial(sum(counts))
        for c in counts:
            words //= math.factorial(c)
        uncovered += words * (size - two_t) ** n
    return total - uncovered


def scaling_defect(ratios: tuple[float, ...], w: complex) -> mp.mpf:
    """|Σ r_j^ω - 1| in mpmath."""
    return abs(mp.fsum(mp.power(mp.mpf(r), mp.mpc(w)) for r in ratios) - 1)


def scaling_residue(ratios: tuple[float, ...], w: complex) -> mp.mpc:
    """Residue of 1/(1 - Σ r_j^s) at a simple root ω: 1 / Σ r_j^ω ln(1/r_j)."""
    w = mp.mpc(w)
    return 1 / mp.fsum(mp.power(mp.mpf(r), w) * mp.log(1 / mp.mpf(r)) for r in ratios)


def similarity_dim(ratios: tuple[float, ...]) -> mp.mpf:
    """The real root of Σ r_j^s = 1, by bisection (the sum decreases in s)."""
    lo, hi = mp.mpf(0), mp.mpf(1)
    while mp.fsum(mp.power(mp.mpf(r), hi) for r in ratios) > 1:
        hi *= 2
    for _ in range(120):
        mid = (lo + hi) / 2
        if mp.fsum(mp.power(mp.mpf(r), mid) for r in ratios) > 1:
            lo = mid
        else:
            hi = mid
    return (lo + hi) / 2


def count_scaling_zeros(ratios: tuple[float, ...], sigma_left: float, sigma_right: float,
                        tau_max: float) -> int:
    """Zeros of f(s) = 1 - Σ r_j^s in the window, by the argument principle.

    The winding of f along the rectangle boundary is accumulated from phase
    increments; any boundary segment whose increment exceeds 0.5 rad is
    bisected until none does.  Raises when the boundary passes too close to a
    zero for the count to be trusted.
    """
    logs = np.log(np.asarray(ratios, dtype=float))

    def f(z: np.ndarray) -> np.ndarray:
        return 1.0 - np.exp(np.multiply.outer(z, logs)).sum(axis=-1)

    corners = [complex(sigma_left, -tau_max), complex(sigma_right, -tau_max),
               complex(sigma_right, tau_max), complex(sigma_left, tau_max)]
    winding = 0.0
    scale = float(np.exp(max(0.0, -sigma_left) * -logs).sum()) + 1.0
    for start, end in zip(corners, corners[1:] + corners[:1]):
        u = np.linspace(0.0, 1.0, int(math.ceil(abs(end - start) / 0.02)) + 1)
        for _ in range(60):
            fz = f(start + (end - start) * u)
            if np.min(np.abs(fz)) < 1e-8 * scale:
                raise ValueError("a zero lies on or next to the window boundary")
            dphi = np.angle(fz[1:] / fz[:-1])
            coarse = np.abs(dphi) > 0.5
            if not coarse.any():
                break
            u = np.sort(np.concatenate((u, 0.5 * (u[:-1] + u[1:])[coarse])))
        else:
            raise ValueError("phase refinement did not settle")
        winding += float(dphi.sum())
    # the count is the winding of f, a pole-free function, divided by 2π
    turns = winding / (2.0 * math.pi)
    count = round(turns)
    if abs(turns - count) > 1e-6:
        raise ValueError(f"noninteger winding number {turns}")
    return count
