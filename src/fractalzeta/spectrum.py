"""Complex dimensions: pole sets, residues, spray root solving, Fourier residues.

Poles of the catalog closed forms come in two flavors: real affine roots of
the denominator factors (s - r) and vertical lattices log_q m + (2πi/ln q) k
from factors (q^s - m).  Residues are available three ways: analytically from
the factorization, exactly in rational arithmetic at integer poles, and
numerically by contour integration; tests tie the routes together.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from .zeta import MeromorphicForm, NonconvergenceError, ZetaTerm

__all__ = [
    "Window",
    "PoleSet",
    "poles",
    "residue_analytic",
    "residue_exact",
    "residue_contour",
    "spray_dims",
    "fourier_residues",
    "window_for_lattice",
]

_MATCH_TOL = 1e-9
_NEWTON_STEPS = 40  # most Newton steps a root is polished with


@dataclass(frozen=True)
class Window:
    """Closed rectangle [sigma_left, sigma_right] × [-tau_max, tau_max]."""

    sigma_left: float
    sigma_right: float
    tau_max: float

    def __post_init__(self) -> None:
        if self.sigma_left > self.sigma_right or self.tau_max < 0:
            raise ValueError("window must satisfy sigma_left <= sigma_right, tau_max >= 0")

    def contains(self, s, slack: float = 1e-12):
        """Whether s lies in the window, elementwise over an array of s."""
        return ((self.sigma_left - slack <= s.real) & (s.real <= self.sigma_right + slack)
                & (abs(s.imag) <= self.tau_max + slack))


@dataclass(frozen=True, eq=False)
class PoleSet:
    """Simple poles ``omega`` and their residues ``residue``, as two aligned
    1-D complex arrays; ``len`` is the number of poles."""

    omega: np.ndarray
    residue: np.ndarray

    def __post_init__(self) -> None:
        omega = np.asarray(self.omega, dtype=complex)
        residue = np.asarray(self.residue, dtype=complex)
        if omega.ndim != 1 or omega.shape != residue.shape:
            raise ValueError("omega and residue must be 1-D arrays of one length")
        object.__setattr__(self, "omega", omega)
        object.__setattr__(self, "residue", residue)

    def __len__(self) -> int:
        return len(self.omega)


def window_for_lattice(dim: float, period: float, kmax: int,
                       sigma_pad: float = 1.0) -> Window:
    """Window catching lattice poles dim + (2π/period) i k for |k| <= kmax."""
    spacing = 2.0 * math.pi / period
    return Window(dim - sigma_pad, dim + sigma_pad, (kmax + 0.5) * spacing)


def _residues(form: MeromorphicForm, tau_lo: float, tau_hi: float,
              keep: Callable[[np.ndarray], np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """The poles of each term with Im in [tau_lo, tau_hi] (``ZetaTerm.poles``)
    that ``keep`` accepts, term by term, and the term's residue there.

    A term's residue is num(ω)/D'(ω), D(s) = Π_r (s - r)·(q^s - m): at a root
    the other factors of D stay; at a lattice point q^ω = m, so
    D'(ω) = Π_r (ω - r)·m·ln q, one array expression over all of them.
    """
    where, res = [], []
    for term in form.terms:
        roots, points = term.poles(tau_lo, tau_hi)
        roots, points = roots[keep(roots)], points[keep(points)]
        omega = np.concatenate((roots, points)).astype(complex)
        factors = omega[:, None] - np.array(term.roots, dtype=float)
        den = np.where(factors == 0.0, 1.0, factors).prod(axis=1)  # a root's own factor is 1
        if term.lattice is not None:
            q, m = float(term.lattice[0]), float(term.lattice[1])
            den[:len(roots)] *= np.exp(omega[:len(roots)] * math.log(q)) - m
            den[len(roots):] *= m * math.log(q)
        where.append(omega)
        res.append(term.numerator(omega) / den)
    return np.concatenate(where), np.concatenate(res)


def residue_analytic(form: MeromorphicForm, omega: complex) -> complex:
    """Residue of the form at omega from the factorized terms.

    Terms regular at omega contribute zero; a residue that cancels to zero
    across terms means the apparent pole is removable.
    """
    omega = complex(omega)
    return complex(_residues(form, omega.imag, omega.imag,
                             lambda z: np.abs(z - omega) < _MATCH_TOL)[1].sum())


def _as_fraction(x) -> Fraction:
    if isinstance(x, (int, Fraction)):
        return Fraction(x)
    if isinstance(x, float) and x.is_integer():
        return Fraction(int(x))  # integral floats are exact
    raise TypeError(f"exact residue arithmetic needs int/Fraction data, got {x!r}")


def residue_exact(form: MeromorphicForm, pole: int | Fraction) -> Fraction:
    """Exact rational residue at an integer (or rational) affine pole.

    Every participating field must be exact (int or Fraction) and the pole
    must be hit only through affine factors; lattice factors are evaluated
    exactly at integer poles.
    """
    p = Fraction(pole)
    total = Fraction(0)
    for term in form.terms:
        if p not in (Fraction(r) for r in term.roots):
            continue
        if p.denominator != 1:
            raise ValueError("exact residues are implemented at integer poles")
        k = int(p)
        # x**0 == 1 exactly, so scales/base need to be exact only for k != 0
        ratios = [_as_fraction(x) / _as_fraction(term.base) if k else 1 for x in term.scales]
        num = sum(_as_fraction(c) * r ** k for c, r in zip(term.coeffs, ratios))
        den = math.prod((p - Fraction(r) for r in term.roots if Fraction(r) != p),
                        start=Fraction(1))
        if term.lattice is not None:
            m = _as_fraction(term.lattice[1])
            den *= (_as_fraction(term.lattice[0]) ** k if k != 0 else Fraction(1)) - m
        total += num / den
    return total


# residues at most this (relative to the sum of their absolute values) are zero
_RESIDUE_FLOOR = 1e-12


def _merge(where: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``(order, starts)``: ``where[order]`` is sorted by (Re, Im), real parts
    within ``_MATCH_TOL`` counting as equal, and ``starts`` marks in it the
    first of each run of neighbours closer than ``_MATCH_TOL``: one point."""
    re = np.sort(where.real)
    firsts = re[np.diff(re, prepend=-np.inf) > _MATCH_TOL]  # the least of each group
    order = np.lexsort((where.imag, np.searchsorted(firsts, where.real, side="right")))
    return order, np.flatnonzero(np.abs(np.diff(where[order], prepend=np.inf)) > _MATCH_TOL)


def poles(form: MeromorphicForm, w: Window) -> PoleSet:
    """All poles of the form inside the window, with residues, sorted by
    (Re, Im), real parts within ``_MATCH_TOL`` counting as equal.

    Each term gives its residues at its own poles in the window once; poles
    that several terms share are merged and their residues summed, and those
    whose residues cancel across terms are dropped as removable.  Two terms
    may place a shared pole at real parts a few ulps apart, so real parts are
    grouped before sorting and a pole's copies meet as neighbours.
    """
    where, res = _residues(form, -w.tau_max, w.tau_max, w.contains)
    order, starts = _merge(where)
    where, res = where[order], res[order]
    total = np.add.reduceat(res, starts)
    gross = np.add.reduceat(np.abs(res), starts)
    live = np.abs(total) > _RESIDUE_FLOOR * np.maximum(1.0, gross)
    return PoleSet(where[starts][live], total[live])


def residue_contour(f: Callable[[complex], complex], omega: complex, radius: float,
                    nodes: int = 256) -> complex:
    """Residue by the circle integral (1/2πi) ∮ f, trapezoid with ``nodes``.

    Doubles the node count as a stability check; disagreement signals that the
    radius encloses another pole (or grazes one) and raises ValueError.
    """
    if radius <= 0:
        raise ValueError("radius must be positive")

    def estimate(count: int) -> complex:
        theta = 2.0 * math.pi * np.arange(count) / count
        z = omega + radius * np.exp(1j * theta)
        vals = np.array([f(zz) for zz in z], dtype=complex)
        return complex(np.mean(vals * (z - omega)))

    i1 = estimate(nodes)
    i2 = estimate(2 * nodes)
    if abs(i1 - i2) > 1e-7 * max(1.0, abs(i2)):
        raise ValueError(
            "contour estimate unstable under node doubling; the radius likely "
            "encloses another pole")
    return i2


# ---------------------------------------------------------------------------
# spray complex dimensions


def _commensurable_exponents(ratios: np.ndarray, tol: float = 1e-12,
                             qcap: int = 64) -> tuple[float, list[int]] | None:
    """If all ratios are integer powers of a common base rho, return (rho, k_j).

    Uses continued fractions of the log ratios with a denominator cap: a
    lattice verdict requires a small exact integer relation, which protects
    against the spuriously good rational approximations every irrational has.
    """
    logs = np.log(1.0 / ratios)
    fracs: list[Fraction] = []
    for ell in logs:
        x = ell / logs[0]
        frac = _cf_approx(x, tol=tol, qcap=qcap)
        if frac is None:
            return None
        fracs.append(frac)
    q_lcm = 1
    for fr in fracs:
        q_lcm = q_lcm * fr.denominator // math.gcd(q_lcm, fr.denominator)
    ks = [int(fr * q_lcm) for fr in fracs]
    g = 0
    for k in ks:
        g = math.gcd(g, k)
    ks = [k // g for k in ks]
    base_log = logs[0] / ks[0] * 1.0
    rho = math.exp(-base_log)
    for k, r in zip(ks, ratios):
        if abs(rho**k - r) > 1e-12 * r:
            return None
    return rho, ks


def _cf_approx(x: float, tol: float, qcap: int, depth: int = 40) -> Fraction | None:
    """Best continued-fraction approximation p/q of x with q <= qcap, if it
    lands within tol; otherwise None."""
    p0, q0, p1, q1 = 0, 1, 1, 0
    val = x
    for _ in range(depth):
        a = math.floor(val)
        p0, q0, p1, q1 = p1, q1, a * p1 + p0, a * q1 + q0
        if q1 > qcap:
            break
        if abs(x - p1 / q1) < tol:
            return Fraction(p1, q1)
        frac_part = val - a
        if frac_part < 1e-15:
            break
        val = 1.0 / frac_part
    return None


def _newton_polish(sites: np.ndarray, ratios: np.ndarray) -> np.ndarray:
    """Newton on Σ r^z = 1 from each site; a site stops once its step falls
    to a few ulps of |z| (or is not finite), after ``_NEWTON_STEPS`` at most."""
    logs = np.log(ratios)
    z = sites.astype(complex)
    live, zl = np.arange(len(z)), z.copy()  # the sites still moving, and where they are
    # diverging seeds overflow r^sigma; they are filtered out afterwards
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        for _ in range(_NEWTON_STEPS):
            e = np.exp(np.multiply.outer(zl, logs))
            fp = e @ logs
            step = (e.sum(axis=-1) - 1.0) / fp
            step[(np.abs(fp) <= 1e-300) | ~np.isfinite(step)] = 0.0
            zl -= step
            z[live] = zl
            moving = np.abs(step) > 4.0 * _EPS * np.abs(zl)
            live, zl = live[moving], zl[moving]
            if not live.size:
                break
    return z


# The nonlattice roots are counted strip by strip with the argument principle
# (Delves & Lyness, Math. Comp. 21, 1967) on a rectangle that reaches _MARGIN
# past the window, then found by Newton from seeds inside the strips that
# hold any.
_STRIP = 1.0      # strip height
_MARGIN = 0.05    # reach of the counting rectangle past the window; edge shift
_NEAR = 1e-6      # an edge whose |f| / max |f'| falls below this is moved
_EDGE_SHIFTS = (0.0, 0.03, 0.06, 0.09, 0.12, 0.15)
_SEED_STEP = 0.5  # seed grid spacing, halved on each refinement
_SEED_LEVELS = 5
_EPS = 2.0 ** -52  # machine epsilon of a double


def _scaling_f(z: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """f(z) = 1 − Σ_j r_j^z on an array of z."""
    return 1.0 - np.exp(np.multiply.outer(z, logs)).sum(axis=-1)


def _nodes(z: np.ndarray, logs: np.ndarray) -> tuple[np.ndarray, ...]:
    """At each node z: f, |f|, a bound on the floating-point error of f (each
    r_j^z carries a relative error of a few ulps of its exponent z ln r_j),
    and the bound Σ_j r_j^{Re z} ln(1/r_j) on |f'| at points right of Re z."""
    f = _scaling_f(z, logs)
    pw = np.exp(np.multiply.outer(z.real, logs))
    err = 4.0 * _EPS * (1.0 + (pw * (np.multiply.outer(np.abs(z), -logs) + 2.0)).sum(axis=-1))
    return f, np.abs(f), err, pw @ -logs


def _arg_changes(z0: np.ndarray, z1: np.ndarray, logs: np.ndarray) -> np.ndarray:
    """Certified change of arg f along each segment z0[i] → z1[i], or nan where
    the segment passes within about ``_NEAR`` of a zero.

    A piece [za, zb] is accepted once its length times the closed-form bound
    |f'(z)| <= Σ_j r_j^{Re z} ln(1/r_j) (taken at the piece's smallest Re z)
    is below |f| at one of its ends, less the rounding allowance.  f then
    stays in the open disk about f(end) of radius |f(end)|, so it has no zero
    on the piece and its arg changes by the principal arg of f(zb)/f(za).
    Other pieces are cut into equal parts, in proportion to how far they miss.

    A piece is a pair of indices into one table of nodes, so f and its bounds
    are evaluated once at each node: neighbours share their common end, and
    a piece cut into k adds only its k − 1 interior nodes.  Every segment is
    refined in the same rounds, so one call on many segments costs about as
    many rounds as its slowest segment needs.
    """
    n = len(z0)
    total = np.zeros(n)
    near = np.zeros(n, dtype=bool)
    za, zb, z = z0, z1, np.concatenate((z0, z1))
    nodes = _nodes(z, logs)
    ia, ib, owner = np.arange(n), np.arange(n, 2 * n), np.arange(n)
    k = np.maximum(1, np.ceil(np.abs(z1 - z0) / 0.25)).astype(int)
    for _ in range(60):
        # cut piece i into k[i] equal parts; the k[i] - 1 nodes inside it are new
        parent = np.repeat(np.arange(len(k)), k)
        j = np.arange(len(parent)) - np.repeat(np.cumsum(k) - k, k)
        za = za[parent] + (zb - za)[parent] * (j / k[parent])
        fresh = len(z) + np.arange(len(j)) - parent
        ia = np.where(j == 0, ia[parent], fresh - 1)
        ib = np.where(j + 1 == k[parent], ib[parent], fresh)
        inner, owner = za[j > 0], owner[parent]
        z = np.concatenate((z, inner))
        f, size, err, bound = nodes = [np.concatenate(q) for q in zip(nodes, _nodes(inner, logs))]
        zb = z[ib]
        room = np.maximum(size[ia], size[ib]) - np.maximum(err[ia], err[ib])
        slope = np.where(za.real <= zb.real, bound[ia], bound[ib])
        length = np.abs(zb - za)
        ok = length * slope < room
        np.add.at(total, owner[ok], np.angle(f[ib[ok]] / f[ia[ok]]))
        near[owner[~ok & (room < _NEAR * slope)]] = True
        rest = ~ok & ~near[owner]
        if not rest.any():
            break
        k = np.clip(np.ceil(1.25 * length[rest] * slope[rest] / room[rest]), 2, 1024).astype(int)
        za, zb, ia, ib, owner = za[rest], zb[rest], ia[rest], ib[rest], owner[rest]
    else:
        near[owner] = True
    total[near] = np.nan
    return total


def _count_strips(logs: np.ndarray, w: Window) -> tuple[float, float, np.ndarray, np.ndarray]:
    """Zero counts of f = 1 − Σ r_j^s in strips covering the window's upper half.

    Returns (a, b, tops, counts).  Strip 0 is [a, b] × [−tops[0], tops[0]],
    symmetric about the real axis; strip k >= 1 is [a, b] × [tops[k−1], tops[k]].
    The strips reach ``_MARGIN`` past the window on every side.  Every edge is
    certified in one ``_arg_changes`` call.  A horizontal edge that passes near
    a zero is moved up and certified again, with every side, in one more call;
    a vertical one is moved outward.
    """
    a, b = w.sigma_left - _MARGIN, w.sigma_right + _MARGIN
    top = w.tau_max + _MARGIN
    if top <= _STRIP:
        base = np.array([top])
    else:
        base = np.linspace(0.5 * _STRIP, top, int(math.ceil((top - 0.5 * _STRIP) / _STRIP)) + 1)
    for _ in range(len(_EDGE_SHIFTS)):  # as many outward moves of a vertical edge
        tops = base.copy()
        horiz = np.full(len(base), np.nan)
        for shift in _EDGE_SHIFTS:  # the tops still near a zero, moved up, and every side
            bad = np.isnan(horiz)
            if not bad.any():
                break
            tops[bad] = base[bad] + shift
            lows = np.concatenate(([-tops[0]], tops[:-1]))
            z0 = np.concatenate((a + 1j * tops[bad], a + 1j * lows, b + 1j * lows))
            z1 = np.concatenate((b + 1j * tops[bad], a + 1j * tops, b + 1j * tops))
            turns = _arg_changes(z0, z1, logs)
            horiz[bad], left, right = np.split(turns, [bad.sum(), bad.sum() + len(tops)])
        if np.isnan(horiz).any():
            raise NonconvergenceError(
                f"every strip edge near Im s = {base[np.isnan(horiz)][0]:.6g} passes next to "
                f"a zero of 1 - sum r_j^s")
        if np.isnan(left).any() or np.isnan(right).any():
            if np.isnan(left).any():
                a -= _MARGIN
            if np.isnan(right).any():
                b += _MARGIN
            continue
        # counterclockwise: bottom edge (strip 0's is the mirror of its top),
        # right edge up, top edge back, left edge down
        below = np.concatenate(([-horiz[0]], horiz[:-1]))
        turns = (below + right - horiz - left) / (2.0 * math.pi)
        counts = np.rint(turns).astype(int)
        if np.any(np.abs(turns - counts) > 1e-6) or np.any(counts < 0):
            raise NonconvergenceError(f"noninteger winding {turns[np.abs(turns - counts) > 1e-6]}")
        return a, b, tops, counts
    raise NonconvergenceError(
        f"the counting rectangle's vertical edges near Re s = {a:.6g}, {b:.6g} "
        f"pass next to zeros of 1 - sum r_j^s")


def _seed_roots(rs: np.ndarray, a: float, b: float, lows: np.ndarray, highs: np.ndarray,
                step: float) -> np.ndarray:
    """Roots that Newton reaches from the centres of a grid of cells about
    ``step`` wide over each rectangle [a, b] × [lows[k], highs[k]], folded
    into the upper half plane (real ones made exactly real)."""
    ns = int(math.ceil((b - a) / step))
    sig = a + (np.arange(ns) + 0.5) * (b - a) / ns
    nt = np.ceil((highs - lows) / step).astype(int)
    # strip k's seeds, σ by σ, each with its nt[k] values of τ
    k = np.repeat(np.arange(len(nt)), ns * nt)
    cell = np.arange(len(k)) - np.repeat(np.cumsum(ns * nt) - ns * nt, ns * nt)
    i, j = np.divmod(cell, nt[k])
    z = _newton_polish(sig[i] + 1j * (lows[k] + (j + 0.5) * (highs - lows)[k] / nt[k]), rs)
    with np.errstate(over="ignore", invalid="ignore"):
        _, resid, err, _ = _nodes(z, np.log(rs))
        z = z[np.isfinite(resid) & (resid < 1e-12 + err)]
    z = np.where(z.imag < 0, z.conjugate(), z)
    return np.where(np.abs(z.imag) < 1e-10, z.real + 0j, z)


def _strip_name(a: float, b: float, tops: np.ndarray, k: int) -> str:
    lo = -tops[0] if k == 0 else tops[k - 1]
    return f"Re s in [{a:.6g}, {b:.6g}], Im s in [{lo:.6g}, {tops[k]:.6g}]"


def _nonlattice_roots(rs: np.ndarray, w: Window) -> np.ndarray:
    """Every zero of 1 − Σ r_j^s in the counting rectangle around the window,
    conjugate pairs included, or :class:`NonconvergenceError`."""
    a, b, tops, counts = _count_strips(np.log(rs), w)
    lows = np.concatenate(([0.0], tops[:-1]))  # seed upper halves; mirror below
    found = np.empty(0, dtype=complex)
    got = np.zeros(len(counts), dtype=int)
    todo = np.flatnonzero(counts)
    step = _SEED_STEP
    for _ in range(_SEED_LEVELS):
        if not todo.size:
            break
        z = _seed_roots(rs, a, b, lows[todo], tops[todo], step)
        z = np.concatenate((found, z[(z.real >= a) & (z.real <= b) & (z.imag < tops[-1])]))
        order, starts = _merge(z)
        found = z[order][starts]
        k = np.searchsorted(tops, found.imag, side="right")
        pair = (k == 0) & (found.imag > 0)  # strip 0 counts both of a pair
        got = np.bincount(k, 1 + pair, len(counts)).astype(int)
        over = np.flatnonzero(got > counts)
        if over.size:
            k = over[0]
            raise NonconvergenceError(
                f"{got[k]} distinct roots but {counts[k]} zeros counted in the strip "
                f"{_strip_name(a, b, tops, k)}")
        todo = np.flatnonzero(got < counts)
        step /= 2.0
    if todo.size:
        k = todo[0]
        raise NonconvergenceError(
            f"found {got[k]} of the {counts[k]} zeros of 1 - sum r_j^s counted in the strip "
            f"{_strip_name(a, b, tops, k)}")
    return np.concatenate((found, found[found.imag > 0].conj()))


def spray_dims(ratios: Sequence[float], w: Window) -> PoleSet:
    """Solutions of Σ_j r_j^ω = 1 in the window, as poles of 1/(1 − Σ r_j^s).

    Lattice ratio lists (all powers of a common base) are solved exactly
    through the companion polynomial.  Otherwise the zeros are counted by the
    argument principle, in strips about one unit tall over a rectangle a
    little larger than the window, with a certified bound on |f'| deciding
    how finely each edge is sampled; Newton then runs only in strips that
    hold zeros, from grids refined until each strip's count is met.  A strip
    whose roots cannot all be found raises :class:`NonconvergenceError`, so
    a root is never dropped silently.  Residues are 1/Σ_j r_j^ω ln(1/r_j);
    the roots are merged and sorted as :func:`poles` merges and sorts poles.
    """
    rs = np.asarray(sorted(ratios, reverse=True), dtype=float)
    if not np.all((rs > 0) & (rs < 1)):
        raise ValueError("ratios must lie in (0, 1)")
    lattice = _commensurable_exponents(rs)
    roots: list[complex] = []
    if lattice is not None:
        rho, ks = lattice
        deg = max(ks)
        # polynomial Σ_j z^{k_j} - 1 in z = rho^s, highest degree first
        poly = np.zeros(deg + 1)
        poly[deg] = -1.0
        for k in ks:
            poly[deg - k] += 1.0
        zroots = np.roots(poly)
        lrho = math.log(rho)  # negative
        for z in zroots:
            if abs(z) < 1e-300:
                continue
            sigma = math.log(abs(z)) / lrho
            if not (w.sigma_left - 0.1 <= sigma <= w.sigma_right + 0.1):
                continue
            theta = cmath.phase(z)
            # all branches s with rho^s = z
            base_tau = -theta / lrho
            spacing = -2.0 * math.pi / lrho
            nmin = int(math.ceil((-w.tau_max - base_tau) / spacing - 1e-9))
            nmax = int(math.floor((w.tau_max - base_tau) / spacing + 1e-9))
            for nn in range(nmin, nmax + 1):
                roots.append(complex(sigma, base_tau + spacing * nn))
    else:
        roots = _nonlattice_roots(rs, w)
    arr = _newton_polish(np.array(roots, dtype=complex), rs)
    arr = arr[w.contains(arr, slack=1e-9)]
    order, starts = _merge(arr)
    arr = arr[order][starts]
    dden = np.exp(np.multiply.outer(arr, np.log(rs))) @ -np.log(rs)
    bad = np.abs(dden) < 1e-10
    if bad.any():
        raise ValueError(f"degenerate (multiple) scaling root near {arr[bad][0]}")
    return PoleSet(arr, 1.0 / dden)


# ---------------------------------------------------------------------------
# Fourier-coefficient residues


def fourier_residues(tube: Callable[[np.ndarray], np.ndarray], ambient_dim: int, dim: float,
                     period: float, kmax: int, tau0: float,
                     nodes: int = 4096) -> list[tuple[int, complex]]:
    """Residues of ζ̃ on the critical lattice from the tube function itself.

    Writes |A_t| = t^{N-D} G(log 1/t) with G exactly ``period``-periodic for
    τ >= tau0 (capped tube of a lattice set) and returns the Fourier
    coefficients c_k = (1/T) ∫ G(τ) e^{-2πikτ/T} dτ for |k| <= kmax, which
    equal res(ζ̃, D + 2πik/T).  ``tube`` is called once, on an array of t.
    Raises if G fails the periodicity check.
    """
    # the nodes and the wrap-around point tau0 + T in one array call
    taus = tau0 + period * np.arange(nodes + 1) / nodes
    g = np.asarray(tube(np.exp(-taus)), dtype=float) * np.exp((ambient_dim - dim) * taus)
    g, g_wrap = g[:-1], g[-1]
    taus = taus[:-1]
    if abs(g_wrap - g[0]) > 1e-9 * max(abs(g[0]), 1e-300):
        raise ValueError("normalized tube profile is not periodic on [tau0, tau0+T]")
    # c_k for k >= 0 from powers of one phase array; G is real, so c_-k = conj(c_k)
    base = np.exp(-2j * math.pi * taus / period)
    wave = g.astype(complex)
    coef = [complex(g.mean())]
    for _ in range(kmax):
        wave *= base
        coef.append(complex(wave.mean()))
    return [(k, coef[k] if k >= 0 else coef[-k].conjugate()) for k in range(-kmax, kmax + 1)]
