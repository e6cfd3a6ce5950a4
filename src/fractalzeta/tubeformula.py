"""Fractal tube formulas: residue expansions of the tube volume.

For the catalog drums the tube volume admits the pointwise expansion

    |A_t ∩ Ω| = Σ_ω res(ζ_A, ω) t^{N-ω} / (N-ω)
              = Σ_ω res(ζ̃_A, ω) t^{N-ω}

over the complex dimensions ω.  The formula is evaluated through the first
form and compared against the exact geometric tube volume.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from . import geometry, spectrum, zeta
from .geometry import SetDescriptor
from .spectrum import PoleSet, Window
from .zeta import MeromorphicForm

__all__ = [
    "TubeFormulaReport",
    "MeasurabilityVerdict",
    "truncated_tube",
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


def _report(omega: np.ndarray, residue: np.ndarray, ambient_dim: int, t: float,
            truncation_k: int, oracle: float) -> TubeFormulaReport:
    """Σ res(ζ_A, ω)·t^{N-ω}/(N-ω) over the poles ω, against the oracle.

    Terms are summed in order of |Im ω|, so conjugate pairs meet and their
    imaginary parts cancel at roundoff level; what survives is reported.
    """
    n = ambient_dim
    if np.any(np.abs(omega - n) < 1e-12):
        raise ValueError("pole at s = N: the expansion kernel degenerates")
    order = np.lexsort((omega.imag, omega.real, np.abs(omega.imag)))
    omega, residue = omega[order], residue[order]
    terms = residue * np.exp((n - omega) * math.log(t)) / (n - omega)
    total = complex(terms.sum())
    return TubeFormulaReport(
        t=t, truncation_k=truncation_k, formula_value=total.real, oracle_value=oracle,
        imag_residual=abs(total.imag), term_magnitudes=tuple(np.abs(terms).tolist()))


def truncated_tube(desc: SetDescriptor, t: float, window: Window,
                   full: bool = False, delta: float | None = None) -> TubeFormulaReport:
    """Tube volume via residues of the distance zeta over poles in ``window``.

    Compares against the exact geometric tube volume (the hole-sum oracle).
    ``full`` expands |A_t| instead of |A_t ∩ Ω| and needs ``delta`` for the
    closed form (any δ at least the saturation threshold; the formula itself
    is δ-independent).  A drum with finitely many holes is exact only below its
    smallest inradius (nest, K = 1000: error 2e-19 at t = 1e-6, 0.56 at 1e-3).
    The truncation K is the largest ordinate over the smallest, the lattice
    modes |k| <= K of a ladder drum.
    """
    if not 0 < t < math.inf:
        raise ValueError("t must be positive and finite")
    form = zeta.catalog_form(desc, full=full, delta=delta)
    ps = spectrum.poles(form, window)
    taus = ps.omega.imag[ps.omega.imag > 1e-12]
    k = int(round(taus.max() / taus.min())) if taus.size else 0
    return _report(ps.omega, ps.residue, desc.ambient_dim, t, k,
                   geometry.tube_volume(desc, t, full=full))


# ---------------------------------------------------------------------------
# sprays


_GEN_SHAPES = {"interval": 1, "square": 2, "cube": 3}
_WORD_CAP = 10**7  # most generator copies wider than 2t that the oracle enumerates


def _spray_shape(gen_kind: str, ratios: Sequence[float], t: float) -> tuple[int, np.ndarray]:
    """The generator's dimension N and the ratios as an array, once the spray
    is known to have finite positive t, ratios in (0, 1) and finite volume."""
    if not 0 < t < math.inf:
        raise ValueError("t must be positive and finite")
    if gen_kind not in _GEN_SHAPES:
        raise ValueError("generator kind must be interval, square, or cube")
    n = _GEN_SHAPES[gen_kind]
    rs = np.asarray(ratios, dtype=float)
    if not np.all((rs > 0) & (rs < 1)):
        raise ValueError("ratios must lie in (0, 1)")
    if float(np.sum(rs**n)) >= 1.0:
        raise ValueError("total spray volume diverges: Σ r^N >= 1")
    return n, rs


def spray_tube_oracle(gen_kind: str, side: float, ratios: Sequence[float],
                      t: float) -> float:
    """Exact inner tube volume of the spray by word enumeration.

    Copies of the generator carry scales side·Π r_{w_i} over all finite words
    w; only the (finitely many) copies wider than 2t need explicit treatment,
    the rest are fully covered and enter through the exact total volume.
    """
    n, rs = _spray_shape(gen_kind, ratios, t)
    total_volume = side**n / (1.0 - float(np.sum(rs**n)))
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

    The spray's zeta is gen(s)/(1 - Σ r^s): its poles are the scaling roots
    (residues from :func:`fractalzeta.spectrum.spray_dims`, times gen) and the
    generator poles (residues over 1 - Σ r^s).  A scaling root on a generator
    pole would make a double pole and is refused.
    """
    n, rs = _spray_shape(gen_kind, ratios, t)
    gen = zeta._row_term(n, n, (-(-2) ** n,), (side,))
    roots = spectrum.spray_dims(ratios, window)
    gen_roots = np.array(gen.roots, dtype=float)
    if len(roots) and np.abs(np.subtract.outer(roots.omega, gen_roots)).min() < zeta._POLE_TOL:
        raise ValueError("a generator pole coincides with a scaling root")
    gp = spectrum.poles(MeromorphicForm((gen,)), window)
    gen_res = gp.residue / spectrum._scaling_f(gp.omega, np.log(rs))  # over 1 - Σ r^ω
    return _report(np.concatenate((roots.omega, gp.omega)),
                   np.concatenate((gen.value(roots.omega) * roots.residue, gen_res)), n, t,
                   len(roots), spray_tube_oracle(gen_kind, side, ratios, t))


# ---------------------------------------------------------------------------
# measurability


def measurability_check(principal_poles: PoleSet, dim: float) -> MeasurabilityVerdict:
    """Minkowski measurability from the principal complex dimensions.

    Nonreal poles on the critical line Re s = D with nonvanishing residues
    force log-periodic oscillations of V(t)/t^{N-D} (nondegenerate but
    nonmeasurable); a single simple real pole at D is the measurable case.
    """
    omega = principal_poles.omega
    off = np.abs(omega.real - dim) > 1e-9
    if off.any():
        raise ValueError(f"pole {complex(omega[off][0])} is not on the critical line Re s = {dim}")
    live = np.abs(principal_poles.residue) > spectrum._RESIDUE_FLOOR
    real = np.abs(omega.imag) <= 1e-12
    if not (live & real).any():
        raise ValueError("no pole at s = D among the principal poles")
    oscillatory = omega[live & ~real]
    if oscillatory.size:
        return MeasurabilityVerdict(measurable=False, reasons=(
            f"{oscillatory.size} nonreal principal dimension(s) with nonzero residue "
            f"(first at {complex(oscillatory[0]):.6g}) force log-periodic oscillation",
            "tube envelope is nondegenerate but liminf < limsup"))
    return MeasurabilityVerdict(measurable=True, reasons=(
        "only the simple real pole at D carries residue: content limit exists",))
