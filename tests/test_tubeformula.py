"""Truncated pointwise tube formulas and spray tube sums.

Oracles: exact hole-ladder sums for the catalog sets and an independent
breadth-first word enumeration for sprays.
"""
import math
from fractions import Fraction

import numpy as np
import pytest

from fractalzeta import geometry, spectrum, tubeformula, zeta

LN2 = math.log(2.0)
LN3 = math.log(3.0)
D_CARPET2 = math.log(8.0) / LN3


# --- truncated formula vs exact tube -----------------------------------------------


def _carpet_window(ambient: int, kmax: int) -> spectrum.Window:
    # the pointwise formula needs every pole left of N, including the integer
    # poles at 0..N-1, so the sigma range spans (-0.5, N - 0.01)
    return spectrum.Window(-0.5, ambient - 0.01, (kmax + 0.5) * 2 * math.pi / LN3)


def test_carpet2_formula_error_shrinks_with_window():
    desc = geometry.carpet(2)
    t = 0.03
    errors = []
    for kmax in (2, 5, 10, 50):
        rep = tubeformula.truncated_tube(desc, t, _carpet_window(2, kmax))
        assert rep.oracle_value == pytest.approx(geometry.tube_volume(desc, t),
                                                 rel=1e-14)
        assert rep.imag_residual < 1e-12
        errors.append(rep.abs_error)
    assert errors == sorted(errors, reverse=True)
    assert errors[-1] < 1e-6
    assert errors[0] < 1e-3


def test_carpet2_formula_across_t_values():
    desc = geometry.carpet(2)
    w = _carpet_window(2, 50)
    for t in (0.3, 0.1, 0.03, 0.01):
        rep = tubeformula.truncated_tube(desc, t, w)
        assert rep.abs_error < 1e-6
        assert rep.formula_value == pytest.approx(rep.oracle_value, abs=1e-6)


def test_carpet3_formula_with_exact_residues():
    desc = geometry.carpet(3)
    rep = tubeformula.truncated_tube(desc, 0.1, _carpet_window(3, 40))
    assert rep.oracle_value == pytest.approx(1.0 - 8.0 / 3375.0, rel=1e-14)
    assert rep.abs_error < 1e-6


def test_cantor_full_tube_formula():
    # full (two-sided) tube: the power series over the dimension lattice plus
    # the collar terms reproduces V(1/18) = 8/9
    desc = geometry.cantor_set(2, 1 / 3)
    d = LN2 / LN3
    w = spectrum.window_for_lattice(d, LN3, 200)
    t = 1.0 / 18.0
    rep = tubeformula.truncated_tube(desc, t, w, full=True, delta=1 / 6)
    assert rep.oracle_value == pytest.approx(float(Fraction(8, 9)), rel=1e-14)
    assert rep.abs_error < 1e-3
    assert rep.imag_residual < 1e-12


@pytest.mark.parametrize("lam", [1.0, 1.7])
def test_nest_and_custom_string_formulas_exact_below_smallest_hole(lam):
    # below its smallest inradius every hole's h is its polynomial: the nest
    # covers t(2πr_1 + 4πΣ_{k>=2} r_k) - πt², the custom string 2t per gap
    nest = geometry.scaled(geometry.fractal_nest(0.5, 40), lam)
    radii = lam * np.arange(1.0, 41.0) ** -0.5
    string = geometry.scaled(geometry.string_set(geometry.FractalString(
        entries=((Fraction(1, 2), 1), (Fraction(1, 4), 2), (Fraction(1, 8), 3)))), lam)
    w = spectrum.Window(-0.5, 1.99, 60.0)
    for t in (1e-6, 1e-3):
        area = t * (2 * math.pi * radii[0] + 4 * math.pi * math.fsum(radii[1:])) - math.pi * t * t
        for desc, ref in ((nest, area), (string, 12.0 * t)):
            rep = tubeformula.truncated_tube(desc, t, w)
            assert rep.formula_value == pytest.approx(ref, rel=1e-12, abs=0)
            assert rep.oracle_value == pytest.approx(ref, rel=1e-12, abs=0)


def test_truncated_tube_validation():
    desc = geometry.carpet(2)
    w = spectrum.window_for_lattice(D_CARPET2, LN3, 2)
    with pytest.raises(ValueError):
        tubeformula.truncated_tube(desc, 0.0, w)
    with pytest.raises(ValueError):
        tubeformula.truncated_tube(desc, -0.1, w)
    for t in (math.inf, math.nan):  # inf ended in a JSON error, after overflow warnings
        with pytest.raises(ValueError, match="t must be positive and finite"):
            tubeformula.truncated_tube(desc, t, w)


# --- sprays ------------------------------------------------------------------------


def _spray_tube_bfs(side, ratios, t, n):
    # independent oracle: walk the word tree; a covered cell's descendants
    # are separate spray members, all covered, so they sum geometrically
    sub = 1.0 / (1.0 - sum(r ** n for r in ratios))
    total = 0.0
    heap = [1.0]
    while heap:
        lam = heap.pop()
        cell = lam * side
        if 2 * t >= cell:
            total += cell ** n * sub
            continue
        if n == 1:
            total += 2 * t
        elif n == 2:
            total += 4 * t * (cell - t)
        else:
            raise NotImplementedError
        for r in ratios:
            heap.append(lam * r)
        if len(heap) > 3_000_000:
            raise RuntimeError("word cap")
    return total


@pytest.mark.parametrize("ratios", [(0.5,), (0.5, 0.25)])
def test_spray_tube_oracle_matches_bfs(ratios):
    for t in (0.2, 0.05, 0.011):
        got = tubeformula.spray_tube_oracle("interval", 1.0, ratios, t)
        want = _spray_tube_bfs(1.0, ratios, t, 1)
        assert got == pytest.approx(want, rel=1e-12)


def test_square_spray_oracle_matches_carpet():
    # eight squares of side 1/3 scaled by 1/3 each level is exactly the carpet
    desc = geometry.carpet(2)
    for t in (0.1, 0.03):
        got = tubeformula.spray_tube_oracle("square", 1 / 3, 8 * (1 / 3,), t)
        assert got == pytest.approx(geometry.tube_volume(desc, t), rel=1e-12)


def test_spray_tube_lattice_formula():
    w = spectrum.Window(-0.5, 0.99, 220.0)
    rep = tubeformula.spray_tube("interval", 1.0, (0.5, 0.25), 0.01, w)
    assert rep.oracle_value == pytest.approx(
        _spray_tube_bfs(1.0, (0.5, 0.25), 0.01, 1), rel=1e-12)
    assert rep.abs_error < 1e-5 * rep.oracle_value
    assert rep.imag_residual < 1e-10


def test_spray_tube_nonlattice_formula():
    # sigma down to -1.0 picks up the descending staircase of complex roots
    w = spectrum.Window(-1.0, 0.99, 220.0)
    rep = tubeformula.spray_tube("interval", 1.0, (0.5, 1 / 3), 0.01, w)
    assert rep.oracle_value == pytest.approx(
        _spray_tube_bfs(1.0, (0.5, 1 / 3), 0.01, 1), rel=1e-12)
    assert rep.abs_error < 1e-5 * rep.oracle_value


def test_square_spray_formula_matches_carpet_route():
    w = _carpet_window(2, 30)
    t = 0.03
    rep = tubeformula.spray_tube("square", 1 / 3, 8 * (1 / 3,), t, w)
    carpet_rep = tubeformula.truncated_tube(geometry.carpet(2), t, w)
    assert rep.formula_value == pytest.approx(carpet_rep.formula_value, rel=1e-9)
    assert rep.oracle_value == pytest.approx(carpet_rep.oracle_value, rel=1e-12)


def test_spray_tube_divergent_volume_rejected():
    w = spectrum.Window(-0.5, 0.99, 20.0)
    with pytest.raises(ValueError):
        tubeformula.spray_tube("interval", 1.0, (0.7, 0.5), 0.01, w)
    with pytest.raises(ValueError):
        tubeformula.spray_tube_oracle("interval", 1.0, (0.7, 0.5), 0.01)


@pytest.mark.parametrize("gen, ratios, right", [
    ("interval", (0.5,), 0.99),      # 1 - 0.5^s vanishes at s = 0
    ("square", (0.5, 0.5), 1.99),    # 1 - 2·0.5^s vanishes at s = 1
])
def test_spray_tube_refuses_scaling_root_on_generator_pole(gen, ratios, right):
    # the spray's zeta would have a double pole there
    w = spectrum.Window(-0.5, right, 20.0)
    with pytest.raises(ValueError, match="coincides with a scaling root"):
        tubeformula.spray_tube(gen, 1.0, ratios, 0.01, w)


def test_spray_tube_validation():
    w = spectrum.Window(-0.5, 0.99, 20.0)
    with pytest.raises(ValueError):
        tubeformula.spray_tube("interval", 1.0, (0.5, 0.25), 0.0, w)
    with pytest.raises(ValueError):
        tubeformula.spray_tube_oracle("hexagon", 1.0, (0.5,), 0.1)
    for t in (math.inf, math.nan):  # nan enumerated 10^7 words, then hit the cap
        with pytest.raises(ValueError, match="t must be positive and finite"):
            tubeformula.spray_tube("interval", 1.0, (0.5, 0.3), t, w)
        with pytest.raises(ValueError, match="t must be positive and finite"):
            tubeformula.spray_tube_oracle("interval", 1.0, (0.5, 0.3), t)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, 1.0])
def test_spray_tube_refuses_ratios_outside_the_unit_interval(bad):
    # nan passed the old test (r <= 0 or r >= 1)
    w = spectrum.Window(-0.5, 0.99, 20.0)
    with pytest.raises(ValueError, match=r"ratios must lie in \(0, 1\)"):
        tubeformula.spray_tube("interval", 1.0, (0.5, bad), 0.1, w)
    with pytest.raises(ValueError, match=r"ratios must lie in \(0, 1\)"):
        tubeformula.spray_tube_oracle("interval", 1.0, (bad, 0.5), 0.1)


# --- measurability verdicts ----------------------------------------------------------


def test_lattice_poles_mean_nonmeasurable():
    desc = geometry.cantor_set(2, 1 / 3)
    form = zeta.catalog_form(desc)
    d = LN2 / LN3
    ps = spectrum.poles(form, spectrum.window_for_lattice(d, LN3, 2,
                                                          sigma_pad=0.05))
    verdict = tubeformula.measurability_check(ps, d)
    assert verdict.measurable is False
    assert verdict.reasons == (
        "4 nonreal principal dimension(s) with nonzero residue (first at 0.63093-11.4384j) "
        "force log-periodic oscillation", "tube envelope is nondegenerate but liminf < limsup")


def test_single_simple_pole_means_measurable():
    verdict = tubeformula.measurability_check(spectrum.PoleSet([0.5], [2.0]), 0.5)
    assert verdict.measurable is True
    assert verdict.reasons == ("only the simple real pole at D carries residue: content limit exists",)


def test_oscillatory_pole_below_floor_ignored():
    ps = spectrum.PoleSet([0.5, 0.5 + 2.0j], [2.0, 1e-15j])
    verdict = tubeformula.measurability_check(ps, 0.5)
    assert verdict.measurable is True


def test_measurability_check_error_paths():
    off_line = spectrum.PoleSet([0.5, 0.4 + 1.0j], [1.0, 0.0])
    with pytest.raises(ValueError, match=r"^pole \(0\.4\+1j\) is not on the critical line Re s = 0\.5$"):
        tubeformula.measurability_check(off_line, 0.5)
    with pytest.raises(ValueError, match="^no pole at s = D among the principal poles$"):
        tubeformula.measurability_check(spectrum.PoleSet([], []), 0.5)
