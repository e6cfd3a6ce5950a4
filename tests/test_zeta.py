"""Distance/tube zeta functions: closed forms, quadrature, Monte Carlo.

Closed forms are checked against quadrature and sampling routes that share
no code with them, against mpmath coarea integrals for the generators, and
against each other through the functional equation and scaling identities.
"""
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fractalzeta import geometry, zeta
from fractalzeta.zeta import (MeromorphicForm, NonconvergenceError, ZetaTerm,
                              catalog_form, distance_zeta_closed,
                              distance_zeta_mc, functional_eq_residual,
                              geometric_zeta, scaling_check, spray_zeta,
                              tube_zeta_closed, tube_zeta_quad)

LN2 = math.log(2.0)
LN3 = math.log(3.0)
D_CANTOR = LN2 / LN3
D_CARPET2 = math.log(8.0) / LN3


# --- closed forms vs independent routes -----------------------------------------


@pytest.mark.parametrize("make", [
    lambda: geometry.cantor_set(2, 1 / 3),
    lambda: geometry.cantor_set(3, 0.2),
    lambda: geometry.carpet(2),
    lambda: geometry.carpet(3),
    lambda: geometry.box_boundary(2),
    lambda: geometry.scaled(geometry.carpet(2), 2.5),
])
def test_distance_zeta_at_ambient_dim_is_region_volume(make):
    # s = N turns the integrand into the constant 1
    desc = make()
    got = distance_zeta_closed(desc, complex(desc.ambient_dim))
    assert got.imag == pytest.approx(0.0, abs=1e-12)
    assert got.real == pytest.approx(geometry.region_volume(desc), rel=1e-12)


def _coarea_reference(kind, s):
    # d(x, boundary) sub-level volumes of the unit cell, integrated by coarea
    mp.mp.dps = 30
    sm = mp.mpc(s)
    if kind == "interval":
        f = lambda u: (u ** (sm - 1)) * 2
    elif kind == "square":
        f = lambda u: (u ** (sm - 2)) * (4 - 8 * u)
    else:
        f = lambda u: (u ** (sm - 3)) * 6 * (1 - 2 * u) ** 2
    return complex(mp.quad(f, [0, mp.mpf(1) / 2]))


@pytest.mark.parametrize("kind, gen, s", [
    ("interval", zeta.interval_generator, 0.7 + 1.1j),
    ("square", zeta.square_generator, 1.4 + 2.3j),
    ("cube", zeta.cube_generator, 2.4 + 1.3j),
])
def test_generator_forms_match_coarea_integral(kind, gen, s):
    # reference integral converges only for Re s above the boundary dimension
    got = gen()(s)
    ref = _coarea_reference(kind, s)
    assert got == pytest.approx(ref, rel=1e-12)


def test_carpet_form_equals_scaled_square_spray():
    # eight squares of side 1/3 per level: the closed carpet form must agree
    # with the self-similar-spray formula built from the square generator
    gen = zeta.square_generator(1.0 / 3.0)
    form = catalog_form(geometry.carpet(2))
    for s in (1.95, 1.4 + 2.3j, 1.9 + 11.0j, 1.2 + 5.0j):
        spray = spray_zeta(gen, 8 * (1.0 / 3.0,), s)
        assert form.value(s) == pytest.approx(spray, rel=1e-12)


# --- quadrature route -----------------------------------------------------------


@pytest.mark.parametrize("make, s, delta", [
    (lambda: geometry.carpet(2), 1.95 + 0.0j, 1 / 6),
    (lambda: geometry.carpet(2), 1.95 + 5.0j, 1 / 6),
    (lambda: geometry.cantor_set(2, 1 / 3), 0.9 + 0.0j, 1 / 6),
    (lambda: geometry.cantor_set(2, 1 / 3), 0.8 + 3.0j, 1 / 6),
    (lambda: geometry.cantor_set(3, 0.2), 0.9 + 1.0j, 0.1),
    # near Im s = ±2π/ln 3 and near the dimension, where a fitted power-law
    # tail misses the log-periodic part of V(t)
    (lambda: geometry.carpet(2), complex(D_CARPET2 + 0.4, 5.5), 0.5),
    (lambda: geometry.carpet(2), complex(D_CARPET2 + 0.4, -5.5), 0.5),
    (lambda: geometry.cantor_set(2, 1 / 3), complex(D_CANTOR + 0.1, 5.8), 0.5),
    (lambda: geometry.carpet(2), complex(D_CARPET2 + 0.05, 5.8), 0.5),
    (lambda: geometry.cantor_set(2, 1 / 3), complex(D_CANTOR + 0.02), 1 / 6),
])
def test_tube_zeta_quad_matches_closed_form_within_bound(make, s, delta):
    desc = make()
    ref = tube_zeta_closed(desc, s, delta)
    est = tube_zeta_quad(desc, s, delta)
    assert abs(est.value - ref) <= est.err
    assert est.err <= 1e-10 * max(1.0, abs(ref))


def test_tube_zeta_quad_bound_honest_near_abscissa():
    # slow t^{D-s} decay: the bound must widen but stay truthful
    desc = geometry.cantor_set(2, 1 / 3)
    for off in (0.05, 0.1, 0.2, 0.3):
        s = complex(D_CANTOR + off)
        ref = tube_zeta_closed(desc, s, 1 / 6)
        est = tube_zeta_quad(desc, s, 1 / 6)
        assert abs(est.value - ref) <= est.err


@pytest.mark.parametrize("s", [D_CANTOR + 1e-6, D_CANTOR - 0.05])
def test_tube_zeta_quad_refuses_nonconvergent_or_unboundable(s):
    desc = geometry.cantor_set(2, 1 / 3)
    with pytest.raises(NonconvergenceError):
        tube_zeta_quad(desc, complex(s), 1 / 6)


def test_tube_zeta_quad_on_explicit_string():
    desc = geometry.string_set(geometry.a_string(1.0, 500))
    s = 0.8 + 0.5j
    est = tube_zeta_quad(desc, s, 0.25)
    ref = tube_zeta_closed(desc, s, 0.25)
    assert abs(est.value - ref) <= est.err


def test_tube_zeta_quad_on_nest_matches_hole_integrals():
    # each annulus and the centre disk integrated on its own in mpmath
    mp.mp.dps = 30
    a, big_k, s, delta = mp.mpf(1) / 2, 30, mp.mpc(1.6, 1.0), mp.mpf(1)
    radii = [mp.power(k, -a) for k in range(1, big_k + 1)]

    def hole(h, rho):
        inner = mp.quad(lambda t: mp.power(t, s - 3) * h(t), [0, min(rho, delta)])
        if rho >= delta:
            return inner
        return inner + h(rho) * mp.quad(lambda t: mp.power(t, s - 3), [rho, delta])

    ref = sum(hole(lambda t, ri=ri, ro=ro: 2 * mp.pi * t * (ri + ro), (ro - ri) / 2)
              for ro, ri in zip(radii, radii[1:]))
    ref += hole(lambda t: mp.pi * (2 * radii[-1] * t - t * t), radii[-1])
    est = tube_zeta_quad(geometry.fractal_nest(0.5, big_k), 1.6 + 1.0j, 1.0)
    assert abs(est.value - complex(ref)) <= est.err <= 1e-10 * abs(complex(ref))


def test_tube_zeta_quad_on_flat_drum_matches_mpmath():
    desc = geometry.flat_drum()
    s, delta = 1.5 + 1.0j, 1.2
    mp.mp.dps = 20

    def integrand(t):
        return mp.power(t, mp.mpc(s) - 3) * mp.exp(geometry.log_tube_volume(desc, float(t)))

    # below t = 0.02 the tube volume is under e^{-50}: that part is negligible
    sat = geometry.saturation_threshold(desc)
    ref = complex(mp.quad(integrand, [0.02, 0.5, 1.0, sat, delta]))
    est = tube_zeta_quad(desc, s, delta)
    assert abs(est.value - ref) <= est.err <= 1e-10


def test_tube_zeta_quad_continuous_at_ambient_dim():
    # δ^{s-N} - ρ^{s-N} over s - N is 0/0 at s = N
    desc = geometry.carpet(2)
    at = tube_zeta_quad(desc, 2.0, 0.5).value
    up = tube_zeta_quad(desc, 2.0 + 1e-8, 0.5).value
    down = tube_zeta_quad(desc, 2.0 - 1e-8, 0.5).value
    assert abs(at - up) <= 1e-8 * 200  # |dζ̃/ds| ≈ 117 here
    assert abs(at - 0.5 * (up + down)) <= 1e-12 * abs(at)


# --- Monte Carlo route ----------------------------------------------------------


@pytest.mark.parametrize("s", [1.95 + 0.0j])
def test_distance_zeta_mc_matches_closed(s):
    desc = geometry.carpet(2)
    ref = distance_zeta_closed(desc, s)
    est = distance_zeta_mc(desc, s, n=100_000, seed=11)
    assert est.samples == 100_000
    assert abs(est.value - ref) < 4.0 * est.std_err


@pytest.mark.parametrize("s", [1.92 + 0.0j, 1.9 + 0.0j, 1.5 + 1.0j])
def test_distance_zeta_mc_refuses_infinite_variance(s):
    # d^{s-2} has infinite variance on the carpet for Re s <= (2 + D)/2 = 1.946,
    # so a std error there means nothing
    with pytest.raises(NonconvergenceError, match="1.94639"):
        distance_zeta_mc(geometry.carpet(2), s, n=100_000, seed=11)
    with pytest.raises(NonconvergenceError):
        scaling_check(geometry.carpet(2), 1.7, s, method="mc", n=1000, seed=11)


@pytest.mark.parametrize("make, s", [
    (lambda: geometry.box_boundary(2), 1.3),
    (lambda: geometry.fractal_nest(0.5, 40), 1.4),
])
def test_distance_zeta_mc_refuses_infinite_variance_on_finite_tables(make, s):
    # a finite hole table has D = N - 1, so (N + D)/2 = 1.5 in the plane
    with pytest.raises(NonconvergenceError, match="1.5"):
        distance_zeta_mc(make(), s, n=100_000, seed=11)


def test_distance_zeta_mc_refuses_infinite_variance_on_a_string():
    desc = geometry.a_string_set(1.0)  # (N + D)/2 = 0.75
    with pytest.raises(NonconvergenceError, match="0.75"):
        distance_zeta_mc(desc, 0.75, n=1000, seed=0)
    est = distance_zeta_mc(desc, 0.9, n=1000, seed=0)
    assert math.isfinite(est.std_err)


def test_distance_zeta_mc_seed_reproducible():
    desc = geometry.carpet(2)
    a = distance_zeta_mc(desc, 1.95 + 0.3j, n=20_000, seed=4)
    b = distance_zeta_mc(desc, 1.95 + 0.3j, n=20_000, seed=4)
    c = distance_zeta_mc(desc, 1.95 + 0.3j, n=20_000, seed=5)
    assert a.value == b.value and a.std_err == b.std_err
    assert c.value != a.value


_CUSTOM = geometry.FractalString(entries=((Fraction(1, 2), 1), (Fraction(1, 4), 2),
                                          (Fraction(1, 8), 3)))

_HOLE_LAW_SETS = {
    "cantor": lambda: geometry.cantor_set(2, 1 / 3),
    "C(5,1/10)": lambda: geometry.cantor_set(5, 0.1),
    "carpet2": lambda: geometry.carpet(2),
    "carpet3": lambda: geometry.carpet(3),
    "carpet2 x1.7": lambda: geometry.scaled(geometry.carpet(2), 1.7),
    "box boundary 3": lambda: geometry.box_boundary(3),
    "nest": lambda: geometry.fractal_nest(0.5, 40),
    "nest x1.7": lambda: geometry.scaled(geometry.fractal_nest(0.5, 40), 1.7),
    "a-string(1.5,40)": lambda: geometry.a_string_set(1.5, 40),
    "custom string": lambda: geometry.string_set(_CUSTOM),
    "a-string 0.5": lambda: geometry.a_string_set(0.5),
    "a-string 1": lambda: geometry.a_string_set(1.0),
    "a-string 2 x1.7": lambda: geometry.scaled(geometry.a_string_set(2.0), 1.7),
}


@pytest.mark.parametrize("name", list(_HOLE_LAW_SETS))
def test_ladder_hole_law_matches_tube_volume(name):
    # P(d(x, A) <= t) for uniform x in Ω is |A_t ∩ Ω| / |Ω|
    desc = _HOLE_LAW_SETS[name]()
    n = 200_000
    log_d = geometry._hole_log_distances(desc, n, np.random.default_rng(3))
    assert log_d.shape == (n,) and np.all(np.isfinite(log_d))
    ts = [0.1, 0.02, 1e-6]
    if name == "carpet2":
        ts.append(3.0**-34 / 2)  # below what the float distance loop resolves
    for t in ts:
        p = geometry.tube_volume(desc, t) / geometry.region_volume(desc)
        hits = np.count_nonzero(log_d <= math.log(t)) / n
        assert abs(hits - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n) + 1e-12, (t, hits, p)


@pytest.mark.parametrize("name, s", [
    ("cantor", 0.9 + 1.0j),
    ("carpet2", 1.97 - 0.5j),
    ("custom string", 0.7 + 0.4j),
    ("a-string(1.5,40)", 0.8 + 0.3j),
])
@pytest.mark.parametrize("lam", [1.0, 1.7])
@pytest.mark.parametrize("full", [False, True])
def test_distance_zeta_mc_hole_law_matches_closed(name, s, lam, full):
    desc = geometry.scaled(_HOLE_LAW_SETS[name](), lam)
    delta = 0.45 * lam if full else None
    ref = distance_zeta_closed(desc, s, delta=delta, full=full)
    est = distance_zeta_mc(desc, s, n=200_000, seed=13, delta=delta, full=full)
    assert abs(est.value - ref) < 4.0 * est.std_err


@pytest.mark.parametrize("name, s", [
    ("nest", 1.7 + 0.5j),
    ("nest x1.7", 1.7 + 0.5j),
    ("a-string 0.5", 0.95 + 0.4j),
    ("a-string 1", 0.9 + 0.4j),
    ("a-string 2 x1.7", 0.8 + 0.4j),
])
def test_distance_zeta_mc_matches_functional_equation(name, s):
    # no closed form: ζ_A(s) = δ^{s-N}|Ω| + (N - s) ζ̃_A(s; δ) at a saturated δ = λ
    desc = _HOLE_LAW_SETS[name]()
    n, delta = desc.ambient_dim, desc.scale
    ref = (np.exp((s - n) * math.log(delta)) * geometry.region_volume(desc)
           + (n - s) * tube_zeta_quad(desc, s, delta).value)
    est = distance_zeta_mc(desc, s, n=200_000, seed=13)
    assert abs(est.value - ref) < 4.0 * est.std_err


@pytest.mark.parametrize("n, s", [(2, 2.5), (3, 3.3)])
def test_distance_zeta_mc_full_box_boundary_matches_closed(n, s):
    # outside the box the distance is Euclidean, so its collar has rounded
    # corners in the sampled distances and in the closed form alike
    desc = geometry.box_boundary(n)
    ref = distance_zeta_closed(desc, s, delta=0.6, full=True)
    est = distance_zeta_mc(desc, s, n=400_000, seed=3, delta=0.6, full=True)
    assert abs(est.value - ref) < 4.0 * est.std_err


def test_distance_zeta_mc_validation():
    desc = geometry.carpet(2)
    with pytest.raises(ValueError):
        distance_zeta_mc(desc, 1.9, n=1, seed=0)
    with pytest.raises(ValueError):
        distance_zeta_mc(desc, 1.9, n=100, seed=0, full=True)  # needs delta


# --- homothety invariance --------------------------------------------------------


@pytest.mark.parametrize("make, s", [
    (lambda: geometry.carpet(2), 1.9 + 2.0j),
    (lambda: geometry.cantor_set(2, 1 / 3), 0.8 + 1.0j),
    (lambda: geometry.carpet(3), 2.97 + 0.5j),
])
def test_scaling_identity_closed(make, s):
    # zeta_{lam A}(s, lam Omega) = lam^s zeta_A(s, Omega)
    rep = scaling_check(make(), 2.0, s, method="closed")
    assert rep <= 1e-13


def test_scaling_identity_mc():
    rep = scaling_check(geometry.carpet(2), 1.7, 1.95 + 0.0j, method="mc",
                        n=60_000, seed=7)
    assert rep < 4.0  # reported in sigma units


@settings(max_examples=25, deadline=None)
@given(lam=st.floats(0.3, 4.0), sig=st.floats(1.9, 2.8), tau=st.floats(-6.0, 6.0))
def test_scaling_identity_closed_property(lam, sig, tau):
    s = complex(sig, tau)
    assume(abs(s - 2.0) > 1e-6)  # integer root of the cube-generator numerator
    assert scaling_check(geometry.carpet(3), lam, s, method="closed") <= 1e-12


# --- functional equation -----------------------------------------------------------


@pytest.mark.parametrize("make, s, delta", [
    (lambda: geometry.cantor_set(2, 1 / 3), 0.9 + 2.0j, 1 / 6),
    (lambda: geometry.cantor_set(2, 1 / 3), 1.4 - 1.0j, 0.4),
    (lambda: geometry.carpet(2), 2.2 + 1.0j, 1 / 6),
    (lambda: geometry.carpet(3), 3.27 + 3.0j, 1 / 6),
    (lambda: geometry.box_boundary(2), 1.7 + 1.0j, 0.5),
    (lambda: geometry.box_boundary(4), 3.5 + 0.7j, 0.6),
    (lambda: geometry.a_string_set(1.5, 40), 0.6 + 0.8j, 0.4),
])
def test_functional_equation_residual_small(make, s, delta):
    # zeta_A(s; delta) = delta^{s-N} |A_delta| + (N - s) tubezeta_A(s; delta),
    # relative and full: the closed form and the hole sum share one collar
    for full in (False, True):
        assert functional_eq_residual(make(), s, delta, full=full) < 1e-8


def test_relative_forms_require_saturated_delta():
    desc = geometry.cantor_set(2, 1 / 3)
    with pytest.raises(ValueError):
        tube_zeta_closed(desc, 0.9 + 0.0j, 0.1)  # below h/2 = 1/6
    with pytest.raises(ValueError):
        catalog_form(desc, full=True, delta=0.1)
    # at or above saturation both succeed
    tube_zeta_closed(desc, 0.9 + 0.0j, 1 / 6)
    catalog_form(desc, full=True, delta=1 / 6)


def test_catalog_form_rejects_kinds_without_closed_form():
    with pytest.raises(ValueError):
        catalog_form(geometry.flat_drum())
    with pytest.raises(ValueError):
        catalog_form(geometry.fractal_nest(0.5, 10))
    with pytest.raises(ValueError):
        catalog_form(geometry.a_string_set(1.0))  # infinite string: no rational form


# --- geometric zeta of strings -------------------------------------------------------


def test_geometric_zeta_matches_direct_sum():
    string = geometry.a_string(2.0, 60)
    s = 0.9 + 0.7j
    direct = sum(mult * complex(length) ** s for length, mult in string.entries)
    assert geometric_zeta(string, s) == pytest.approx(direct, rel=1e-13)


def test_geometric_zeta_relates_to_distance_zeta():
    # zeta_L(s) = s 2^{s-1} zeta_A(s) for a string's endpoint set
    string = geometry.a_string(1.5, 80)
    desc = geometry.string_set(string)
    s = 0.9 + 1.2j
    lhs = geometric_zeta(string, s)
    rhs = s * 2 ** (s - 1) * distance_zeta_closed(desc, s)
    assert lhs == pytest.approx(rhs, rel=1e-12)


# --- integrability probe ---------------------------------------------------------------


@pytest.mark.parametrize("make, gamma, want", [
    (lambda: geometry.cantor_set(2, 1 / 3), 0.2, True),    # 0.2 < 1 - D
    (lambda: geometry.cantor_set(2, 1 / 3), 0.4, False),   # 0.4 > 1 - D
    (lambda: geometry.carpet(2), 0.05, True),
    (lambda: geometry.carpet(2), 0.15, False),
])
def test_hp_integrability_threshold(make, gamma, want):
    rep = zeta.hp_integrability_probe(make(), gamma)
    assert rep.convergent is want
    inc = np.diff(rep.partials)
    assert np.all(inc > 0)  # each deeper ladder level adds positive mass
    if want:
        assert inc[-1] < inc[0]  # partial sums flattening out
    else:
        assert inc[-1] > inc[0]  # partial sums accelerating


def test_hp_probe_at_critical_exponent_diverges():
    desc = geometry.cantor_set(2, 1 / 3)
    rep = zeta.hp_integrability_probe(desc, 1.0 - desc.similarity_dim)
    assert rep.convergent is False


def test_hp_probe_gamma_at_colinear_codim_short_circuits():
    # at gamma >= N - dim(hole boundary) even a single hole integral diverges
    desc = geometry.cantor_set(2, 1 / 3)
    rep = zeta.hp_integrability_probe(desc, 1.0)
    assert rep.convergent is False
    assert rep.partials == (math.inf,)
    with pytest.raises(ValueError):
        zeta.hp_integrability_probe(geometry.flat_drum(), 0.5)


# --- abscissa of convergence -------------------------------------------------------------


def test_abscissa_matches_similarity_dim():
    desc = geometry.cantor_set(2, 1 / 3)
    assert zeta.abscissa_of(desc) == pytest.approx(D_CANTOR, abs=1e-3)
    astr = geometry.a_string_set(1.0)
    assert zeta.abscissa_of(astr) == pytest.approx(0.5, abs=1e-3)


def test_abscissa_scan_on_geometric_series():
    # partial sums of sum_k (2 * 3^{-sigma})^k flip divergent below log_3 2
    def evaluator(sigma):
        r = 2.0 * 3.0 ** (-sigma)
        return np.cumsum(r ** np.arange(256))

    got = zeta.abscissa_scan(evaluator, 0.3, 1.0, xtol=1e-4)
    assert got == pytest.approx(D_CANTOR, abs=1e-3)
    with pytest.raises(ValueError):
        zeta.abscissa_scan(evaluator, D_CANTOR + 0.1, 1.0)  # lo already convergent
    with pytest.raises(ValueError):
        zeta.abscissa_scan(evaluator, 0.3, D_CANTOR - 0.1)  # hi still divergent


# --- spray zeta validation ---------------------------------------------------------------


def test_spray_zeta_validation():
    gen = zeta.square_generator(1.0)
    with pytest.raises(ValueError):
        spray_zeta(gen, (0.5, 1.1), 1.9)
    with pytest.raises(ValueError):
        spray_zeta(gen, (0.5, -0.1), 1.9)
    d = math.log(8) / LN3
    with pytest.raises(ValueError):
        spray_zeta(gen, 8 * (1 / 3,), complex(d))  # pole of the scaling factor


# --- form algebra ----------------------------------------------------------------------


def test_zeta_term_value_and_poles():
    term = ZetaTerm(coeff=2.0, roots=(0.0,), lattice=(3.0, 2.0), scale=1 / 6)
    form = MeromorphicForm((term,))
    s = 0.9 + 0.4j
    expected = 2.0 * (1 / 6) ** s / (s * (3.0 ** s - 2.0))
    assert form.value(s) == pytest.approx(expected, rel=1e-13)
    with pytest.raises(ValueError):
        form.value(complex(D_CANTOR))  # lattice pole
    with pytest.raises(ValueError):
        form.value(0.0 + 0.0j)  # root pole


def test_zeta_term_validation():
    with pytest.raises(ValueError):
        ZetaTerm(coeff=1.0, roots=(1.0, 1.0))
    with pytest.raises(ValueError):
        ZetaTerm(coeff=1.0, lattice=(0.9, 2.0))  # needs q > 1
    with pytest.raises(ValueError):
        ZetaTerm(coeff=1.0, base=0.0)


def test_form_scaled_copy_matches_scaled_catalog():
    desc = geometry.carpet(2)
    lam = 2.5
    direct = catalog_form(geometry.scaled(desc, lam))
    via_copy = catalog_form(desc).scaled_copy(lam)
    for s in (1.95 + 0.0j, 1.3 + 4.0j, 1.9 - 2.0j):
        assert direct.value(s) == pytest.approx(via_copy.value(s), rel=1e-13)


def test_form_plus_combines_terms():
    f = catalog_form(geometry.cantor_set(2, 1 / 3))
    g = catalog_form(geometry.carpet(2))
    h = f.plus(g)
    s = 1.6 + 0.8j
    assert h.value(s) == pytest.approx(f.value(s) + g.value(s), rel=1e-14)
