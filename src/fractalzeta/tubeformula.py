"""Fractal tube formulas: residue expansions of the tube volume.

For the catalog drums the tube volume admits the pointwise expansion

    |A_t ∩ Ω| = Σ_ω res(ζ_A, ω) t^{N-ω} / (N-ω)
              = Σ_ω res(ζ̃_A, ω) t^{N-ω}

over the complex dimensions ω; both routes are implemented and compared
against the exact geometric tube volume.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import geometry, spectrum, zeta
from .geometry import SetDescriptor
from .spectrum import PoleDatum, Window
from .zeta import MeromorphicForm

__all__ = [
    "TubeFormulaReport",
    "MeasurabilityVerdict",
    "tube_pole_data",
    "truncated_tube",
    "tube_via_tubezeta",
    "spray_tube",
    "spray_tube_oracle",
    "measurability_check",
]


@dataclass(frozen=True)
class TubeFormulaReport:
    """One evaluation of a truncated tube formula against its oracle."""

    t: float
    truncation_k: int
    formula_value: float
    oracle_value: float
    imag_residual: float
    term_magnitudes: tuple[float, ...]

    @property
    def abs_error(self) -> float:
        return abs(self.formula_value - self.oracle_value)


@dataclass(frozen=True)
class MeasurabilityVerdict:
    measurable: bool
    reasons: tuple[str, ...]


def _formula_sum(pole_data: Sequence[PoleDatum], ambient_dim: int, t: float,
                 tube_zeta_residues: bool) -> tuple[complex, list[float]]:
    """Σ res · t^{N-ω} / (N-ω)  (or Σ res̃ · t^{N-ω} for tube-zeta residues).

    Conjugate pairs are summed adjacently so the imaginary parts cancel at
    roundoff level; the surviving imaginary part is reported for inspection.
    """
    n = ambient_dim
    logt = math.log(t)
    total = 0.0 + 0.0j
    mags: list[float] = []
    ordered = sorted(pole_data, key=lambda p: (abs(p.omega.imag), p.omega.real, p.omega.imag))
    for p in ordered:
        w = p.omega
        if abs(w - n) < 1e-12:
            raise ValueError("pole at s = N: the expansion kernel degenerates")
        term = p.residue * np.exp((n - w) * logt)
        if not tube_zeta_residues:
            term = term / (n - w)
        total += term
        mags.append(abs(term))
    return total, mags


def _lattice_truncation(pole_data: Sequence[PoleDatum]) -> int:
    taus = sorted({p.omega.imag for p in pole_data if p.omega.imag > 1e-12})
    if not taus:
        return 0
    return int(round(taus[-1] / taus[0]))


def truncated_tube(desc: SetDescriptor, t: float, window: Window,
                   full: bool = False, delta: float | None = None) -> TubeFormulaReport:
    """Tube volume via residues of the distance zeta over poles in ``window``.

    Compares against the exact geometric tube volume (the hole-sum oracle).
    ``full`` expands |A_t| instead of |A_t ∩ Ω| and needs ``delta`` for the
    closed form (any δ at least the saturation threshold; the formula itself
    is δ-independent).  A drum with finitely many holes is exact only below its
    smallest inradius (nest, K = 1000: error 2e-19 at t = 1e-6, 0.56 at 1e-3).
    """
    if t <= 0:
        raise ValueError("t must be positive")
    form = zeta.catalog_form(desc, full=full, delta=delta)
    pole_data = spectrum.poles(form, window)
    total, mags = _formula_sum(pole_data, desc.ambient_dim, t, tube_zeta_residues=False)
    return TubeFormulaReport(
        t=t, truncation_k=_lattice_truncation(pole_data), formula_value=float(total.real),
        oracle_value=geometry.tube_volume(desc, t, full=full), imag_residual=abs(total.imag),
        term_magnitudes=tuple(mags))


def tube_pole_data(desc: SetDescriptor, window: Window, full: bool = False,
                   delta: float | None = None) -> list[PoleDatum]:
    """Poles of ζ̃ with residues res(ζ̃, ω) = res(ζ, ω)/(N-ω).

    The δ-dependent entire part of ζ̃ contributes no poles, so the pole set
    coincides with that of the distance zeta (s = N excluded).
    """
    form = zeta.catalog_form(desc, full=full, delta=delta)
    n = desc.ambient_dim
    out = []
    for p in spectrum.poles(form, window):
        if abs(p.omega - n) < 1e-12:
            continue
        out.append(PoleDatum(omega=p.omega, order=p.order, residue=p.residue / (n - p.omega)))
    return out


def tube_via_tubezeta(desc: SetDescriptor, t: float, window: Window,
                      full: bool = False, delta: float | None = None) -> TubeFormulaReport:
    """Tube volume via residues of the tube zeta: Σ res(ζ̃, ω) t^{N-ω}."""
    if t <= 0:
        raise ValueError("t must be positive")
    pole_data = tube_pole_data(desc, window, full=full, delta=delta)
    total, mags = _formula_sum(pole_data, desc.ambient_dim, t, tube_zeta_residues=True)
    return TubeFormulaReport(
        t=t, truncation_k=_lattice_truncation(pole_data), formula_value=float(total.real),
        oracle_value=geometry.tube_volume(desc, t, full=full), imag_residual=abs(total.imag),
        term_magnitudes=tuple(mags))


# ---------------------------------------------------------------------------
# sprays


_GEN_SHAPES = {"interval": 1, "square": 2, "cube": 3}
_WORD_CAP = 10**7  # most generator copies wider than 2t that the oracle enumerates


def spray_tube_oracle(gen_kind: str, side: float, ratios: Sequence[float],
                      t: float) -> float:
    """Exact inner tube volume of the spray by word enumeration.

    Copies of the generator carry scales side·Π r_{w_i} over all finite words
    w; only the (finitely many) copies wider than 2t need explicit treatment,
    the rest are fully covered and enter through the exact total volume.
    """
    if gen_kind not in _GEN_SHAPES:
        raise ValueError("generator kind must be interval, square, or cube")
    n = _GEN_SHAPES[gen_kind]
    rs = np.asarray(ratios, dtype=float)
    if np.any(rs <= 0) or np.any(rs >= 1):
        raise ValueError("ratios must lie in (0, 1)")
    sum_rn = float(np.sum(rs**n))
    if sum_rn >= 1.0:
        raise ValueError("total spray volume diverges: Σ r^N >= 1")
    total_volume = side**n / (1.0 - sum_rn)
    threshold = 2.0 * t
    # enumerate words with scale side·Πr > 2t (finite since all r < 1)
    big_sides: list[float] = []
    stack = [side]
    while stack:
        cur = stack.pop()
        if cur <= threshold:
            continue
        big_sides.append(cur)
        if len(big_sides) > _WORD_CAP:
            raise RuntimeError("word enumeration exceeded the configured cap")
        for r in rs:
            stack.append(cur * r)
    big = np.asarray(big_sides)
    uncovered = np.sum((big - threshold) ** n)
    return float(total_volume - uncovered)


def spray_tube(gen_kind: str, side: float, ratios: Sequence[float], t: float,
               window: Window) -> TubeFormulaReport:
    """Truncated tube formula for a self-similar spray, with enumeration oracle.

    Terms combine the scaling roots (poles of 1/(1-Σ r^s), residues from
    :func:`fractalzeta.spectrum.spray_dims`) and the generator poles; a
    coincidence of the two families would create a higher-order pole and is
    rejected.
    """
    if t <= 0:
        raise ValueError("t must be positive")
    if gen_kind not in _GEN_SHAPES:
        raise ValueError("generator kind must be interval, square, or cube")
    n = _GEN_SHAPES[gen_kind]
    gen_form = MeromorphicForm((zeta._row_term(n, n, (-(-2) ** n,), (side,)),))
    rs = np.asarray(ratios, dtype=float)
    if float(np.sum(rs**n)) >= 1.0:
        raise ValueError("total spray volume diverges: Σ r^N >= 1")
    logt = math.log(t)

    total = 0.0 + 0.0j
    mags: list[float] = []

    scaling = spectrum.spray_dims(ratios, window)
    for p in sorted(scaling, key=lambda p: (abs(p.omega.imag), p.omega.imag)):
        w = p.omega
        gen_val = gen_form.value(w)  # raises if w grazes a generator pole
        term = gen_val * p.residue * np.exp((n - w) * logt) / (n - w)
        total += term
        mags.append(abs(term))

    for p in spectrum.poles(gen_form, window):
        w = p.omega
        den = 1.0 - complex(np.sum(np.exp(w * np.log(rs))))
        if abs(den) < 1e-9:
            raise ValueError("generator pole coincides with a scaling root")
        term = (p.residue / den) * np.exp((n - w) * logt) / (n - w)
        total += term
        mags.append(abs(term))

    return TubeFormulaReport(
        t=t, truncation_k=len(scaling), formula_value=float(total.real),
        oracle_value=spray_tube_oracle(gen_kind, side, ratios, t),
        imag_residual=abs(total.imag), term_magnitudes=tuple(mags))


# ---------------------------------------------------------------------------
# measurability


def measurability_check(principal_poles: Sequence[PoleDatum],
                        dim: float) -> MeasurabilityVerdict:
    """Minkowski measurability from the principal complex dimensions.

    Nonreal poles on the critical line Re s = D with nonvanishing residues
    force log-periodic oscillations of V(t)/t^{N-D} (nondegenerate but
    nonmeasurable); a single simple real pole at D is the measurable case.
    """
    reasons: list[str] = []
    oscillatory = []
    real_pole = None
    for p in principal_poles:
        if abs(p.omega.real - dim) > 1e-9:
            raise ValueError(f"pole {p.omega} is not on the critical line Re s = {dim}")
        if abs(p.residue) <= spectrum._RESIDUE_FLOOR:
            continue
        if abs(p.omega.imag) > 1e-12:
            oscillatory.append(p)
        else:
            real_pole = p
    if real_pole is None:
        raise ValueError("no pole at s = D among the principal poles")
    if oscillatory:
        reasons.append(
            f"{len(oscillatory)} nonreal principal dimension(s) with nonzero residue "
            f"(first at {oscillatory[0].omega:.6g}) force log-periodic oscillation")
        reasons.append("tube envelope is nondegenerate but liminf < limsup")
        return MeasurabilityVerdict(measurable=False, reasons=tuple(reasons))
    if real_pole.order > 1:
        reasons.append("higher-order pole at D: degenerate (log-corrected) content")
        return MeasurabilityVerdict(measurable=False, reasons=tuple(reasons))
    reasons.append("only the simple real pole at D carries residue: content limit exists")
    return MeasurabilityVerdict(measurable=True, reasons=tuple(reasons))
