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

from .zeta import MeromorphicForm, ZetaTerm

__all__ = [
    "Window",
    "PoleDatum",
    "poles",
    "residue_analytic",
    "residue_exact",
    "residue_contour",
    "spray_dims",
    "fourier_residues",
    "window_for_lattice",
]

_MATCH_TOL = 1e-9


@dataclass(frozen=True)
class Window:
    """Closed rectangle [sigma_left, sigma_right] × [-tau_max, tau_max]."""

    sigma_left: float
    sigma_right: float
    tau_max: float

    def __post_init__(self) -> None:
        if self.sigma_left > self.sigma_right or self.tau_max < 0:
            raise ValueError("window must satisfy sigma_left <= sigma_right, tau_max >= 0")

    def contains(self, s: complex, slack: float = 1e-12) -> bool:
        return (self.sigma_left - slack <= s.real <= self.sigma_right + slack
                and abs(s.imag) <= self.tau_max + slack)


@dataclass(frozen=True)
class PoleDatum:
    """A pole with its order and residue."""

    omega: complex
    order: int
    residue: complex


def window_for_lattice(dim: float, period: float, kmax: int,
                       sigma_pad: float = 1.0) -> Window:
    """Window catching lattice poles dim + (2π/period) i k for |k| <= kmax."""
    spacing = 2.0 * math.pi / period
    return Window(dim - sigma_pad, dim + sigma_pad, (kmax + 0.5) * spacing)


def _term_residue_at(term: ZetaTerm, omega: complex) -> complex:
    """Residue contribution of one term at omega (0 if the term is regular)."""
    root_hits = [r for r in term.roots if abs(omega - float(r)) < _MATCH_TOL]
    lattice_hit = None
    if term.lattice is not None:
        q, m = float(term.lattice[0]), float(term.lattice[1])
        lq = math.log(q)
        k = round(omega.imag * lq / (2.0 * math.pi))
        nearest = math.log(m) / lq + 2j * math.pi * k / lq
        if abs(omega - nearest) < _MATCH_TOL:
            lattice_hit = (q, m, nearest)
    if len(root_hits) + (lattice_hit is not None) == 0:
        return 0.0
    if len(root_hits) + (lattice_hit is not None) > 1:
        raise ValueError(f"higher-order pole at {omega}: coincident denominator factors")
    if root_hits:
        pole = complex(float(root_hits[0]))
        den: complex = 1.0
        for r in term.roots:
            if float(r) != float(root_hits[0]):
                den *= pole - float(r)
        if term.lattice is not None:
            q, m = float(term.lattice[0]), float(term.lattice[1])
            den *= cmath.exp(pole * math.log(q)) - m
    else:
        q, m, pole = lattice_hit
        den = m * math.log(q)  # d/ds (q^s - m) at q^s = m
        for r in term.roots:
            den *= pole - float(r)
    return term.numerator(pole) / den


def residue_analytic(form: MeromorphicForm, omega: complex) -> complex:
    """Residue of the form at omega from the factorized terms.

    Terms regular at omega contribute zero; a residue that cancels to zero
    across terms means the apparent pole is removable.
    """
    omega = complex(omega)
    return complex(sum(_term_residue_at(t, omega) for t in form.terms))


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
        hit = [r for r in term.roots if Fraction(r) == p]
        if not hit:
            continue
        if len(hit) > 1:
            raise ValueError("repeated root: higher-order pole")
        if p.denominator != 1:
            raise ValueError("exact residues are implemented at integer poles")
        k = int(p)
        num = _as_fraction(term.coeff)
        if k != 0:
            # x**0 == 1 exactly, so scale/base need to be exact only here
            num *= _as_fraction(term.scale) ** k / _as_fraction(term.base) ** k
        den = Fraction(1)
        for r in term.roots:
            rf = Fraction(r)
            if rf != p:
                den *= p - rf
        if term.lattice is not None:
            m = _as_fraction(term.lattice[1])
            den *= (_as_fraction(term.lattice[0]) ** k if k != 0 else Fraction(1)) - m
        total += num / den
    return total


def _lattice_points(term: ZetaTerm, w: Window) -> list[complex]:
    q, m = float(term.lattice[0]), float(term.lattice[1])
    lq = math.log(q)
    dline = math.log(m) / lq
    if not (w.sigma_left - 1e-12 <= dline <= w.sigma_right + 1e-12):
        return []
    spacing = 2.0 * math.pi / lq
    kmax = int(math.floor(w.tau_max / spacing + 1e-12))
    return [dline + 1j * spacing * k for k in range(-kmax, kmax + 1)]


def poles(form: MeromorphicForm, w: Window, residue_floor: float = 1e-12) -> list[PoleDatum]:
    """All poles of the form inside the window, with residues, sorted by
    (Re, Im).  Candidates whose residues cancel across terms are dropped as
    removable.
    """
    cands: list[complex] = []
    for term in form.terms:
        for r in term.roots:
            rf = float(r)
            if w.contains(complex(rf)):
                cands.append(complex(rf))
        if term.lattice is not None:
            cands.extend(pt for pt in _lattice_points(term, w) if w.contains(pt))
    merged: list[complex] = []
    for c in sorted(cands, key=lambda z: (z.real, z.imag)):
        if not merged or abs(c - merged[-1]) > _MATCH_TOL:
            merged.append(c)
    out: list[PoleDatum] = []
    for omega in merged:
        res = residue_analytic(form, omega)
        gross = sum(abs(_term_residue_at(t, omega)) for t in form.terms)
        if abs(res) <= residue_floor * max(1.0, gross):
            continue  # removable (residues cancel)
        out.append(PoleDatum(omega=omega, order=1, residue=res))
    return out


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


def _newton_polish(sites: np.ndarray, ratios: np.ndarray, iters: int = 80) -> np.ndarray:
    logs = np.log(ratios)
    z = sites.astype(complex)
    # diverging seeds overflow r^sigma; they are filtered out afterwards
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(iters):
            e = np.exp(np.multiply.outer(z, logs))
            f = e.sum(axis=-1) - 1.0
            fp = (e * logs).sum(axis=-1)
            step = np.where(np.abs(fp) > 1e-300, f / np.where(fp == 0, 1.0, fp), 0.0)
            step = np.where(np.isfinite(step), step, 0.0)
            z = z - step
    return z


def spray_dims(ratios: Sequence[float], w: Window,
               seed_sigma_step: float = 0.05, seed_tau_step: float = 0.2) -> list[PoleDatum]:
    """Solutions of Σ_j r_j^ω = 1 in the window, as poles of 1/(1 − Σ r_j^s).

    Lattice ratio lists (all powers of a common base) are solved exactly
    through the companion polynomial; otherwise a seeded Newton sweep finds
    the roots.  Residues are 1/Σ_j r_j^ω ln(1/r_j).
    """
    rs = np.asarray(sorted(ratios, reverse=True), dtype=float)
    if np.any(rs <= 0) or np.any(rs >= 1):
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
        sig = np.arange(w.sigma_left - 0.2, w.sigma_right + 0.2 + 1e-9, seed_sigma_step)
        tau = np.arange(0.0, w.tau_max + 1.0 + 1e-9, seed_tau_step)
        seeds = (sig[:, None] + 1j * tau[None, :]).ravel()
        cand = _newton_polish(seeds, rs)
        logs = np.log(rs)
        with np.errstate(over="ignore", invalid="ignore"):
            fvals = np.abs(np.exp(np.multiply.outer(cand, logs)).sum(axis=-1) - 1.0)
        cand = cand[np.isfinite(fvals) & (fvals < 1e-12)]
        kept: list[complex] = []
        for z in sorted(cand, key=lambda z: (round(z.real, 8), round(z.imag, 8))):
            if abs(z.imag) < 1e-10:
                z = complex(z.real, 0.0)
            if z.imag < -1e-10:
                continue  # keep upper half; mirror below
            if all(abs(z - u) > 1e-8 for u in kept):
                kept.append(z)
        roots = []
        for z in kept:
            roots.append(z)
            if z.imag > 1e-10:
                roots.append(z.conjugate())
    # polish and package
    arr = _newton_polish(np.array(roots, dtype=complex), rs, iters=40)
    logs = np.log(1.0 / rs)
    out: list[PoleDatum] = []
    seen: list[complex] = []
    for z in arr:
        if not w.contains(z, slack=1e-9):
            continue
        if any(abs(z - u) < 1e-9 for u in seen):
            continue
        seen.append(z)
        dden = complex((np.exp(np.multiply.outer(z, np.log(rs))) * logs).sum())
        if abs(dden) < 1e-10:
            raise ValueError(f"degenerate (multiple) scaling root near {z}")
        out.append(PoleDatum(omega=z, order=1, residue=1.0 / dden))
    out.sort(key=lambda p: (p.omega.real, p.omega.imag))
    return out


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
    out: list[tuple[int, complex]] = []
    for k in range(-kmax, kmax + 1):
        phase = np.exp(-2j * math.pi * k * taus / period)
        out.append((k, complex(np.mean(g * phase))))
    return out
