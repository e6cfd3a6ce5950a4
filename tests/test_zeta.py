"""Distance/tube zeta functions: closed forms, quadrature, Monte Carlo.

Closed forms are checked against quadrature and sampling routes that share
no code with them, against mpmath coarea integrals for the generators, and
against each other through the functional equation and scaling identities.
"""
import functools
import math
import tracemalloc
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from fractalzeta import geometry, spectrum, zeta
from fractalzeta.zeta import (MeromorphicForm, NonconvergenceError, ZetaTerm,
                              catalog_form, distance_zeta_closed,
                              distance_zeta_mc, functional_eq_residual,
                              geometric_zeta, scaling_check, spray_zeta,
                              tube_zeta_closed, tube_zeta_quad)
from mp_oracles import flat_tube_mp, nest_zeta_mp, string_zeta_mp

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
    lambda: geometry.fractal_nest(0.5, 40),
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
    tube = functools.lru_cache(maxsize=None)(flat_tube_mp)  # the nodes repeat across s

    def integrand(t):
        return mp.power(t, mp.mpc(s) - 3) * tube(t)

    # below t = 0.02 the tube volume is under e^{-50}: that part is negligible
    sat = math.sqrt(1.0 + math.exp(-2.0))  # saturation: the cusp's far corner (1, 1/e)
    for delta in (0.5, 1.2):  # below and above saturation, 1.0655
        cuts = [0.02] + [p for p in (0.5, 1.0, sat) if p < delta] + [delta]
        for s in (1.5 + 1.0j, 0.3 - 0.5j, -2.0 + 3.0j, -0.5 - 1.0j):
            with mp.workdps(20):  # leaves the precision of later mpmath users alone
                ref = complex(mp.quad(integrand, cuts))
            est = tube_zeta_quad(desc, s, delta)
            assert abs(est.value - ref) <= est.err <= 1e-10


def _a_string_tube_zeta_mp(a, lam, s, delta, full):
    """ζ̃ of the λ-scaled infinite a-string in mpmath, gap by gap.

    A gap X_j = λℓ_j, ℓ_j = j^{-a} - (j+1)^{-a}, gives ∫_0^δ t^{s-2} min(2t, X_j) dt:
    2δ^s/s while X_j > 2δ, and X_j δ^{s-1}/(s-1) - 2^{1-s} X_j^s/(s(s-1)) after.
    The saturated X_j add up to λ·j₀^{-a}, j₀ the first of them; their X_j^s
    are summed directly below J and past it as a^s Σ_m c_m ζ((1+a)s + m, J),
    c_m the Taylor coefficients of g(u)^s, g(u) = (1 - (1+u)^{-a})/(a u), since
    ℓ_j = a j^{-1-a} g(1/j) <= a j^{-1-a}.  J is 60 past the last gap wider
    than 2δ and past (1 + a)|s|, where the c_m stop growing like
    ((1 + a)|s|/2)^m/m!.  Full mode adds the collar, 2t on a line.
    """
    with mp.workdps(30):
        a, lam, s, delta = mp.mpf(a), mp.mpf(lam), mp.mpc(s), mp.mpf(delta)
        big_j = 60 + int(mp.ceil((lam * a / (2 * delta)) ** (1 / (1 + a)) + (1 + a) * abs(s)))
        order = 16
        gaps = [lam * (mp.power(j, -a) - mp.power(j + 1, -a)) for j in range(1, big_j)]
        wide = sum(1 for x in gaps if x > 2 * delta)
        assert wide < len(gaps)
        g = [-mp.binomial(-a, m + 1) / a for m in range(order)]
        c = [mp.mpf(1)]
        for m in range(1, order):
            c.append(mp.fsum(((s + 1) * k - m) * g[k] * c[m - k] for k in range(1, m + 1)) / m)
        powers = mp.fsum(mp.power(x, s) for x in gaps[wide:]) + mp.power(lam * a, s) \
            * mp.fsum(c[m] * mp.zeta((1 + a) * s + m, big_j) for m in range(order))
        saturated = lam * mp.power(wide + 1, -a)
        value = (wide + int(full)) * 2 * mp.power(delta, s) / s \
            + (saturated * mp.power(delta, s - 1) - mp.power(2, 1 - s) * powers / s) / (s - 1)
        return complex(value)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
@pytest.mark.parametrize("excess", [1e-3, 0.03, 0.3, 1.2])
def test_tube_zeta_quad_on_infinite_a_string_matches_mpmath(a, excess):
    # δ = 0.05 leaves the widest gaps unsaturated: their rows are capped at δ;
    # at δ = 1e-4 gaps past the table are unsaturated too
    rng = np.random.default_rng(round(1000 * a + 10 / excess))
    for full in (False, True):
        for lam in (1.0, 1.7):
            for delta in (0.05, 0.5, 1e-4):
                s = complex(1 / (1 + a) + excess, rng.uniform(-3.0, 3.0))
                desc = geometry.scaled(geometry.a_string_set(a), lam)
                ref = _a_string_tube_zeta_mp(a, lam, s, delta, full)
                est = tube_zeta_quad(desc, s, delta, full=full)
                assert abs(est.value - ref) <= est.err <= 1e-10 * max(1.0, abs(ref))


def _g_power_coeffs_mp(a, s, order):
    """Taylor coefficients c_0..c_{order-1} of g(u)^s, g(u) = (1 - (1+u)^{-a})/(a u),
    in mpmath at the working precision: g's own are g_k = -C(-a, k+1)/a, and
    m·c_m = Σ_{k<=m} ((s + 1)k - m)·g_k·c_{m-k} (J. C. P. Miller's recurrence)."""
    g = [-mp.binomial(-a, k + 1) / a for k in range(order)]
    c = [mp.mpf(1)]
    for m in range(1, order):
        c.append(mp.fsum(((s + 1) * k - m) * g[k] * c[m - k] for k in range(1, m + 1)) / m)
    return c


def _a_string_powers_mp(a, s, lo, hi):
    """Σ_{lo <= j < hi} ℓ_j^s, ℓ_j = j^{-a} - (j+1)^{-a}, in mpmath: term by term
    for a finite hi; to hi = ∞ term by term up to J = lo + 64 and past it as
    a^s Σ_{m<24} c_m·ζ((1+a)s + m, J), the tail of ℓ_j = a j^{-1-a} g(1/j),
    whose truncation is far below 1e-20 for J >= 2(1 + a)|s|.  mpmath's
    Hurwitz zeta is accurate to about 10^-dps absolutely, not relatively, so
    each call gets 40 digits past the size J^{-Re w} of its value."""
    with mp.workdps(40):
        a, s = mp.mpf(a), mp.mpc(s)
        stop = lo + 64 if hi == math.inf else hi
        value = mp.fsum(mp.power(mp.power(j, -a) - mp.power(j + 1, -a), s) for j in range(lo, stop))
        if hi == math.inf:
            c, zetas = _g_power_coeffs_mp(a, s, 24), []
            for m in range(24):
                w = (1 + a) * s + m
                with mp.workdps(40 + int(w.real * math.log10(stop))):
                    zetas.append(mp.zeta(w, stop))
            value += mp.power(a, s) * mp.fsum(cm * z for cm, z in zip(c, zetas))
        return complex(value)


_SERIES_POINTS = [(a, s) for a in (0.1, 0.5, 1.0, 2.0, 5.0)
                  for s in (1 / (1 + a) + 1e-3, 1 / (1 + a) + 1e-3 + 40j,
                            1 / (1 + a) + 0.2 - 7j, 1.5 + 25j)]


@pytest.mark.parametrize("a, s", _SERIES_POINTS)
def test_a_string_series_coefficients_match_mpmath(a, s):
    # c_m(s) = Σ_j P[m, j]·s^j from the table, against a 60-digit recurrence,
    # within the roundoff scale the bound charges
    table, scales = zeta._a_string_table(a)
    j = np.arange(len(table))
    got = np.power(complex(s), j) @ table.T
    with mp.workdps(60):
        want = np.array([complex(c) for c in _g_power_coeffs_mp(mp.mpf(a), mp.mpc(s), len(j))])
    assert np.all(np.abs(got - want) <= zeta._EPS * (abs(s) ** j @ scales.T))
    assert np.max(np.abs(got - want) / np.maximum(np.abs(want), 1e-300)) <= 1e-10


@pytest.mark.parametrize("a, s", _SERIES_POINTS)
def test_a_string_powers_match_mpmath_within_their_bound(a, s):
    # two dyadic blocks and the tail past them in one call, which share their
    # edges' Euler–Maclaurin ends; a real s takes the real path
    x0 = 2 ** math.ceil(math.log2(geometry._a_string_head(a, s)))
    edges = (x0, 2 * x0, 4 * x0, math.inf)
    s_in = s.real if s.imag == 0 else s
    value, bound = zeta._a_string_powers(a, np.array([s_in]), zeta._edges(np.array(edges, float)))
    value, err = value[0], bound()[0]
    assert value.shape == err.shape == (3,)
    want = np.array([_a_string_powers_mp(a, s, lo, hi) for lo, hi in zip(edges, edges[1:])])
    assert np.all(np.abs(value - want) <= err)
    assert np.all(err <= 1e-9 * np.maximum(1.0, np.abs(want)))


@pytest.mark.parametrize("a, s", [
    (2.0, 0.36 + 0.3j),  # 0.027 right of D = 1/3
    (1.0, 0.8 + 100j),
    (0.5, 1.0 - 150j),
])
def test_tube_zeta_quad_on_a_string_meets_tol_near_dimension_and_far_from_axis(a, s):
    ref = _a_string_tube_zeta_mp(a, 1.0, s, 0.5, False)
    est = tube_zeta_quad(geometry.a_string_set(a), s, 0.5)
    assert abs(est.value - ref) <= est.err <= 1e-10 * max(1.0, abs(ref))


@pytest.mark.parametrize("s", [0.3, 0.45 + 0.5j, 0.5])
def test_tube_zeta_quad_refuses_a_string_at_or_below_dimension(s):
    with pytest.raises(NonconvergenceError, match=r"1/\(1 \+ a\) = 0\.5\b"):
        tube_zeta_quad(geometry.a_string_set(1.0), complex(s), 0.5)


def test_tube_zeta_quad_continuous_at_ambient_dim():
    # δ^{s-N} - ρ^{s-N} over s - N is 0/0 at s = N, for the holes and for the
    # flat drum's functional equation
    for desc, slope in ((geometry.carpet(2), 200), (geometry.flat_drum(), 1)):
        at = tube_zeta_quad(desc, 2.0, 0.5).value
        up = tube_zeta_quad(desc, 2.0 + 1e-8, 0.5).value
        down = tube_zeta_quad(desc, 2.0 - 1e-8, 0.5).value
        assert abs(at - up) <= 1e-8 * slope  # |dζ̃/ds| ≈ 117 on the carpet
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
    # P(d(x, A) <= t) for uniform x in Ω is |A_t ∩ Ω| / |Ω|.  Unstratified,
    # every draw is pooled; cut into strata, Σ_h V_h·P_h(d <= t) is the tube
    # volume, each P_h estimated from its own n_h draws, in full mode too,
    # where the strata also cover the collar and whole holes wider than δ
    desc = _HOLE_LAW_SETS[name]()
    n = 200_000
    pooled = geometry._hole_law(desc, 0, None)
    assert len(pooled.samples) == 1
    log_d = pooled.draw([0], [n], np.random.default_rng(3))
    assert log_d.shape == (n,) and np.all(np.isfinite(log_d))
    ts = [0.1, 0.02, 1e-6]
    if name == "carpet2":
        ts.append(3.0**-34 / 2)  # below what the float distance loop resolves
    for t in ts:
        p = geometry.tube_volume(desc, t) / geometry.region_volume(desc)
        hits = np.count_nonzero(log_d <= math.log(t)) / n
        assert abs(hits - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n) + 1e-12, (t, hits, p)
    for delta in (None, 0.45 * desc.scale):
        law = geometry._hole_law(desc, n, delta)
        assert law.samples.sum() == n and law.samples.min() >= 2
        ids = list(range(len(law.samples)))
        draws = law.draw(ids, law.samples.tolist(), np.random.default_rng(4))
        parts = np.split(draws, np.cumsum(law.samples)[:-1])
        assert [len(part) for part in parts] == law.samples.tolist()
        total = law.volumes.sum()
        for t in [*ts, 0.44 * desc.scale] if delta else ts:
            ref = geometry.tube_volume(desc, t, full=delta is not None) / total
            shares = np.array([np.count_nonzero(part <= math.log(t)) / len(part) for part in parts])
            got = law.volumes / total @ shares
            # proportional strata have at most the unstratified variance
            bound = 4.0 * math.sqrt(ref * (1.0 - ref) / n) + 1e-12
            assert abs(got - ref) <= bound, (delta, t, got, ref)


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


@pytest.mark.parametrize("s", [1.7 + 0.5j, 2.3 - 1j])
@pytest.mark.parametrize("name", ["nest", "nest x1.7"])
def test_distance_zeta_mc_full_nest_matches_closed(name, s):
    # full mode samples the square around the nest's disk, Ω being a ball
    desc = _HOLE_LAW_SETS[name]()
    delta = 0.45 * desc.scale
    ref = distance_zeta_closed(desc, s, delta=delta, full=True)
    est = distance_zeta_mc(desc, s, n=200_000, seed=13, delta=delta, full=True)
    assert abs(est.value - ref) < 4.0 * est.std_err


@pytest.mark.parametrize("name, s", [
    ("nest", 1.7 + 0.5j),
    ("nest x1.7", 1.7 + 0.5j),
    ("a-string 0.5", 0.95 + 0.4j),
    ("a-string 1", 0.9 + 0.4j),
    ("a-string 2 x1.7", 0.8 + 0.4j),
])
def test_distance_zeta_mc_matches_functional_equation(name, s):
    # ζ_A(s) = δ^{s-N}|Ω| + (N - s) ζ̃_A(s; δ) at a saturated δ = λ, from the
    # hole sum: the infinite a-string has no closed form
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


def _spy_weights(monkeypatch):
    """Record a copy of every block's ``log_d`` and weights: both are buffers
    that the next block overwrites."""
    seen, weights = [], zeta._mc_weights

    def spy(w, log_d, cut, out=None, work=None, bound=None):
        before = log_d.copy()
        vals = weights(w, log_d, cut, out, work, bound)
        seen.append((w, before, cut, vals.copy()))
        return vals

    monkeypatch.setattr(zeta, "_mc_weights", spy)
    return seen


_B = zeta._MC_BLOCK


@pytest.mark.parametrize("n", [2, 3, _B, _B + 3, 3 * _B - 1, 2**16, 2**16 + 3, 3 * 2**16 - 1])
@pytest.mark.parametrize("full", [False, True])
def test_distance_zeta_mc_block_merge_matches_one_pass(n, full, monkeypatch):
    # the running (mean, M2) of each stratum, merged block by block, equals
    # the mean and population variance of that stratum's concatenated draws
    _check_block_merge(geometry.carpet(2), 1.97 + 0.5j, n, 0.45 if full else None, monkeypatch)


@pytest.mark.parametrize("n", [10**4, _B + 3])
@pytest.mark.parametrize("name, s, delta", [("carpet3", 2.99 + 0.5j, 0.45), ("cantor", 0.9 + 1.0j, None)])
def test_distance_zeta_mc_block_merge_with_many_strata_per_block(name, s, delta, n, monkeypatch):
    # the same where the first block holds several strata whole (4 to 16 here),
    # and the second, if any, the pool's last three samples
    law = geometry._hole_law(_HOLE_LAW_SETS[name](), n, delta)
    assert np.count_nonzero(np.cumsum(law.samples) <= _B) >= 4
    _check_block_merge(_HOLE_LAW_SETS[name](), s, n, delta, monkeypatch)


def _check_block_merge(desc, s, n, delta, monkeypatch):
    full, seed = delta is not None, 7
    seen = _spy_weights(monkeypatch)
    est = distance_zeta_mc(desc, s, n=n, seed=seed, delta=delta, full=full)
    assert len(seen) == -(-n // _B)
    law = geometry._hole_law(desc, n, delta)
    parts = np.split(np.concatenate([vals for *_, vals in seen]), np.cumsum(law.samples)[:-1])
    assert [len(part) for part in parts] == law.samples.tolist()
    means = np.array([np.mean(part) for part in parts])
    variances = np.array([np.var(part) for part in parts])
    assert est.value == pytest.approx(law.volumes @ means, rel=1e-12)
    assert est.std_err == pytest.approx(math.sqrt(law.volumes**2 @ (variances / law.samples)),
                                        rel=1e-12)


@pytest.mark.parametrize("full", [False, True])
def test_distance_zeta_mc_memory_does_not_grow_with_n(full):
    # samples are drawn and reduced in blocks: at n = 2e6 one n-long complex
    # array alone would take 32 MB
    delta = 0.45 if full else None
    tracemalloc.start()
    try:
        distance_zeta_mc(geometry.carpet(2), 1.97 + 0.5j, 2_000_000, 1, delta=delta, full=full)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16 * 2**20, peak


@pytest.mark.parametrize("s", [1.5 + 0.0j, 2.5 + 1.0j, 0.7 + 0.3j])
def test_distance_zeta_mc_flat_drum_matches_functional_equation(s):
    # ζ_A(s) = δ^{s-2}|Ω| + (2 - s) ζ̃_A(s; δ) at the saturated δ, from the
    # flat drum's closed-form tube zeta
    desc = geometry.flat_drum()
    delta = geometry.saturation_threshold(desc)
    ref = (np.exp((s - 2) * math.log(delta)) * geometry.region_volume(desc)
           + (2 - s) * tube_zeta_quad(desc, s, delta).value)
    est = distance_zeta_mc(desc, s, n=200_000, seed=13)
    assert abs(est.value - ref) < 4.0 * est.std_err


@pytest.mark.parametrize("name", ["cantor", "carpet2", "carpet3"])
@pytest.mark.parametrize("full", [False, True])
def test_distance_zeta_mc_std_err_is_honest(name, full):
    # at a real s = N - (N - D)/8 the weight has a finite fourth moment and
    # the estimate is real: over 200 seeds, |value - closed| <= 2·std_err
    # should hold with probability 95.45 %, give or take 3 binomial sigmas
    desc = _HOLE_LAW_SETS[name]()
    n_dim, dim = desc.ambient_dim, desc.similarity_dim
    s = n_dim - (n_dim - dim) / 8.0
    delta = 0.45 if full else None
    ref = distance_zeta_closed(desc, s, delta=delta, full=full)
    seeds, p = 200, math.erf(2.0 / math.sqrt(2.0))
    covered = 0
    for seed in range(seeds):
        est = distance_zeta_mc(desc, s, n=10_000, seed=seed, delta=delta, full=full)
        covered += abs(est.value - ref) <= 2.0 * est.std_err
    assert abs(covered - seeds * p) <= 3.0 * math.sqrt(seeds * p * (1.0 - p)), covered
    for n in (2, 3, 65):  # too few for a stratum of its own: every sample pooled
        law = geometry._hole_law(desc, n, delta)
        assert law.samples.tolist() == [n]
        est = distance_zeta_mc(desc, s, n=n, seed=1, delta=delta, full=full)
        assert math.isfinite(abs(est.value)) and math.isfinite(est.std_err)


def test_distance_zeta_mc_results_do_not_share_buffers():
    # samples go through buffers reused from block to block, and from call to
    # call nothing is kept: a result, or a draw, kept from one call is not
    # changed by the next
    desc, s = geometry.carpet(2), 1.97 + 0.5j
    first = distance_zeta_mc(desc, s, n=40_000, seed=1, delta=0.1, full=True)
    kept = (first.value, first.std_err)
    second = distance_zeta_mc(desc, s, n=40_000, seed=2, delta=0.1, full=True)
    assert (first.value, first.std_err) == kept != (second.value, second.std_err)
    law = geometry._hole_law(desc, 40_000, None)
    rng = np.random.default_rng(3)
    draw = law.draw([0], [1000], rng)
    copy = draw.copy()
    again = law.draw([0], [1000], rng)
    assert np.array_equal(draw, copy) and not np.array_equal(draw, again)
    assert not np.shares_memory(draw, again)


@pytest.mark.parametrize("seed", [None, True, False, 1.5, "7", -1, np.int64(-3)])
def test_distance_zeta_mc_refuses_bad_seeds(seed):
    # None drew the operating system's entropy, True ran as seed 1, and the
    # rest raised numpy's errors, which do not name the seed
    with pytest.raises(ValueError, match="seed must be a non-negative integer"):
        distance_zeta_mc(geometry.carpet(2), 1.97, n=100, seed=seed)


def test_distance_zeta_mc_accepts_numpy_integer_seeds():
    desc = geometry.carpet(2)
    a = distance_zeta_mc(desc, 1.97, n=1000, seed=np.uint32(5))
    b = distance_zeta_mc(desc, 1.97, n=1000, seed=5)
    assert a.value == b.value and a.std_err == b.std_err


def test_distance_zeta_mc_validation():
    desc = geometry.carpet(2)
    with pytest.raises(ValueError):
        distance_zeta_mc(desc, 1.9, n=1, seed=0)
    with pytest.raises(ValueError):
        distance_zeta_mc(desc, 1.9, n=100, seed=0, full=True)  # needs delta
    assert distance_zeta_mc(desc, 1.97, n=np.int64(1000), seed=0).samples == 1000


@pytest.mark.parametrize("kwargs, match", [
    ({"s": complex(math.nan, 0.5)}, "s must be finite"),
    ({"s": complex(1.95, math.inf)}, "s must be finite"),
    ({"s": complex(1.95, -math.inf)}, "s must be finite"),
    ({"full": True}, "delta must be positive"),
    ({"full": True, "delta": math.nan}, "delta must be positive"),
    ({"full": True, "delta": math.inf}, "delta must be positive"),
    ({"full": True, "delta": 0.0}, "delta must be positive"),
    ({"full": True, "delta": -0.45}, "delta must be positive"),
    ({"n": 1000.0}, "integer"),
    ({"n": 2.5}, "integer"),
    ({"n": 1}, "at least two"),
])
def test_distance_zeta_mc_refuses_bad_inputs_before_drawing(kwargs, match):
    # each of these gave a NaN estimate, or "math domain error" at δ <= 0
    args = {"s": 1.97 + 0.5j, "n": 1000, "delta": None, "full": False} | kwargs
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ValueError, match=match):
            distance_zeta_mc(geometry.carpet(2), args["s"], args["n"], 0,
                             delta=args["delta"], full=args["full"])


def _cexp_mp(w, x):
    """exp at the rounded arguments fl(Re w·x) + i·fl(Im w·x), in mpmath."""
    with mp.workprec(113):
        return np.array([complex(mp.exp(mp.mpc(a, b)))
                         for a, b in zip((w.real * x).tolist(), (w.imag * x).tolist())])


def _rel_err(got, ref):
    return float(np.max(np.abs(got - ref) / np.abs(ref)))


@pytest.mark.parametrize("im", [0.0, 0.5, -0.5, 2.5, -2.5, 40.0, -40.0, 300.0, -300.0, 1e4])
def test_cexp_matches_mpmath(im):
    # x in [-800, 0]: exactly 0, tiny, uniform, and between consecutive table
    # angles 2πk/M: a quarter of the way, at the midpoint, where |r| = π/M,
    # and 1e-9 either side of it; |Re w| <= 0.875 keeps e^{Re w·x} a normal float
    step = 2.0 * math.pi / zeta._CEXP_M
    x = np.concatenate(([0.0, -1e-300, -800.0], -800.0 * np.random.default_rng(5).random(300)))
    if im:
        k = np.array([0, 1, 7, 2047, 4095, 4096, 123457])[:, None]
        mids = -(k + np.array([0.25, 0.5 - 1e-9, 0.5, 0.5 + 1e-9, 0.75])) * step / abs(im)
        x = np.concatenate((x, mids[mids >= -800.0]))
    # at Im w = 1e4 the full range passes 2^19 (numpy's exp); its part below does not
    below = x[np.abs(im * x) < 2.0**19]
    for xs in (x, below) if len(below) < len(x) else (x,):
        for re in (-0.875, -0.3, 0.0, 0.45, 0.875):
            w = complex(re, im)
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                got = zeta._cexp(w, xs)
            assert got.dtype == complex and got.shape == xs.shape
            assert _rel_err(got, _cexp_mp(w, xs)) <= 1e-15, w


@pytest.mark.parametrize("im", [1000.0, -1000.0])
@pytest.mark.parametrize("above", [False, True])
def test_cexp_fallback_bound(im, above):
    # the reduction is exact only for |Im w·x| < 2^19; at and past it numpy's
    # exp takes over, which builds no table
    w = complex(0.02, im)
    edge = -(2.0**19) * (1.0 + (1e-12 if above else -1e-12)) / abs(im)
    x = np.array([edge, 0.5 * edge, -3.0, 0.0])
    assert (np.abs(w.imag * x).max() >= 2.0**19) == above
    zeta._cexp_table.cache_clear()
    got = zeta._cexp(w, x)
    assert zeta._cexp_table.cache_info().currsize == (0 if above else 1)
    if above:
        assert np.array_equal(got, np.exp(w * x))
    assert _rel_err(got, _cexp_mp(w, x)) <= 1e-15


def test_cexp_table_index_mask_is_k_mod_m():
    # M is a power of two, so k & (M - 1) is k mod M in two's complement, for
    # negative k too: the table is read at in-range indices with no wrap loop
    m = zeta._CEXP_M
    edge = np.array([0, 1, m - 1, m, m + 1, 2**29 - 1])
    ks = np.concatenate((edge, -edge, np.random.default_rng(8).integers(-2**29, 2**29, 10**4)))
    masked = np.bitwise_and(ks.astype(np.intp), m - 1)
    assert masked.tolist() == [k % m for k in ks.tolist()]


_BOUND_SETS = {
    "cantor": lambda: geometry.cantor_set(2, 1 / 3),
    "C(5,1/10)": lambda: geometry.cantor_set(5, 0.1),
    "carpet2": lambda: geometry.carpet(2),
    "carpet3": lambda: geometry.carpet(3),
    "a-string 0.5": lambda: geometry.a_string_set(0.5),
    "a-string 1": lambda: geometry.a_string_set(1.0),
    "nest": lambda: geometry.fractal_nest(0.5, 40),
}


def _bound_cases():
    for name in _BOUND_SETS:
        for lam in (1 / 3, 1.0, 3.0):
            for full in (False, True):
                yield pytest.param(name, lam, full, id=f"{name}-{lam:.3g}-{'full' if full else 'rel'}")
    for lam in (1 / 3, 1.0, 3.0):
        yield pytest.param("flat drum", lam, False, id=f"flat drum-{lam:.3g}-rel")
    # so large that the farthest distance, not the deepest, sets the bound
    yield pytest.param("cantor", 1e60, False, id="cantor-1e+60-rel")


def _bound_laws(name, lam, full, n):
    """The stratified law of n samples and, but for the flat drum, the law
    that pools all of them, which reaches deepest into the tail."""
    if name == "flat drum":
        return [zeta._flat_drum_law(geometry.scaled(geometry.flat_drum(), lam), n)]
    desc = geometry.scaled(_BOUND_SETS[name](), lam)
    delta = 0.45 * lam if full else None
    return [geometry._hole_law(desc, n, delta), geometry._hole_law(desc, 0, delta)]


def _all_draws(law, n, rng):
    if len(law.samples) == 1:
        return law.draw([0], [n], rng)
    return law.draw(list(range(len(law.samples))), law.samples.tolist(), rng)


class _ConstantRng:
    """Stands in for a numpy Generator whose every uniform is u."""

    def __init__(self, u):
        self.u = u

    def random(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        out[...] = self.u
        return out


@pytest.mark.parametrize("name, lam, full", _bound_cases())
def test_distance_law_draws_lie_within_its_bound(name, lam, full):
    # the bound spares zeta._cexp its range scan: a draw beyond it could take
    # the table for a phase whose reduction is not exact
    n = 10**6
    for law in _bound_laws(name, lam, full, n):
        assert math.isfinite(law.bound)
        log_d = _all_draws(law, n, np.random.default_rng(12))
        assert np.all(np.isfinite(log_d))  # none of these laws draws a point of A
        assert np.abs(log_d).max() <= law.bound
        if name != "flat drum":  # its rejection sampler needs real uniforms
            # every uniform at an end of numpy's grid, 0 or 1 - 2^-53, draws each
            # stratum's nearest and farthest distance, and the deepest pool level
            for u in (0.0, 1.0 - 2.0**-53):
                assert np.abs(_all_draws(law, n, _ConstantRng(u))).max() <= law.bound


@pytest.mark.parametrize("name, lam, full", _bound_cases())
def test_cexp_with_law_bound_matches_scan(name, lam, full):
    # the same operations run whether the bound or the scan admits the table,
    # and where |Im w|·bound passes 2^19 the scan decides, as without a bound
    law = _bound_laws(name, lam, full, 2**14)[0]
    log_d = _all_draws(law, 2**14, np.random.default_rng(13))
    for w in (-0.1 - 2.5j, 0.9 + 0.5j, -1.0 + 40.0j, complex(0.01, 2.0**19 / law.bound)):
        assert np.array_equal(zeta._cexp(w, log_d, bound=law.bound), zeta._cexp(w, log_d))


@pytest.mark.parametrize("name, s, full, pins", [
    # value (real, imaginary) and std err, float.hex, recorded before the table
    # index was masked: Im s = -2.5 is where numpy's wrap mode looped
    ("cantor", 0.9 - 2.5j, False,
     ("0x1.2e3d8f9334c3fp-4", "-0x1.1d2ca909ae628p-5", "0x1.6d96a8da66483p-8")),
    ("cantor", 0.9 - 2.5j, True,
     ("-0x1.21b400031d06ep-2", "-0x1.2a90dcd900b16p-4", "0x1.27c7e9ef4496cp-7")),
    ("carpet2", 1.97 - 2.5j, False,
     ("0x1.1e06fd383600dp-6", "0x1.7c37993f4ec1bp-8", "0x1.4955baab44a22p-8")),
    ("carpet2", 1.97 - 2.5j, True,
     ("-0x1.1192f87f0b635p+0", "0x1.57b8fe453849cp-4", "0x1.9fc0ebc66304ap-7")),
])
def test_distance_zeta_mc_pinned_where_the_phase_is_large(name, s, full, pins):
    est = distance_zeta_mc(_BOUND_SETS[name](), s, n=10**5, seed=7, delta=0.45 if full else None,
                           full=full)
    assert (est.value.real.hex(), est.value.imag.hex(), est.std_err.hex()) == pins


def _numpy_weights(w, log_d, cut, out=None, work=None, bound=None):
    """The Monte Carlo weight as numpy's complex exp gives it: the reference
    for ``zeta._mc_weights``."""
    keep = (log_d > -math.inf) & (log_d <= (math.inf if cut is None else cut))
    vals = np.exp(w * np.where(keep, log_d, 0.0)) * keep
    if out is None:
        return vals
    out[...] = vals
    return out


def test_mc_weights_drop_exactly_what_they_cut():
    cut = math.log(0.45)
    log_d = np.array([-math.inf, cut, np.nextafter(cut, 0.0), -700.0, -3.0, 0.0, 2.0, -math.inf])
    w = 1.97 - 0.5j - 2
    got = zeta._mc_weights(w, log_d.copy(), cut)
    ref = _numpy_weights(w, log_d, cut)
    assert np.array_equal(got == 0, [True, False, True, False, False, True, True, True])
    assert _rel_err(got[ref != 0], ref[ref != 0]) <= 1e-15


_MC_WEIGHT_SETS = {
    "cantor": (lambda: geometry.cantor_set(2, 1 / 3), 0.9 + 1.0j),
    "C(5,1/10)": (lambda: geometry.cantor_set(5, 0.1), 0.95 - 0.7j),
    "carpet2": (lambda: geometry.carpet(2), 1.97 - 0.5j),
    "carpet3": (lambda: geometry.carpet(3), 2.99 + 1.0j),
    "nest": (lambda: geometry.fractal_nest(0.5, 40), 1.7 + 0.5j),
    "custom string": (lambda: geometry.string_set(_CUSTOM), 0.7 + 0.4j),
    "a-string 1": (lambda: geometry.a_string_set(1.0), 0.9 + 0.4j),
    "flat drum": (geometry.flat_drum, 2.5 + 1.0j),
}


@pytest.mark.parametrize("name, full, lam", [
    *((name, full, lam) for name in ("cantor", "C(5,1/10)", "carpet2", "carpet3")
      for full in (False, True) for lam in (1.0, 1.7)),
    ("nest", False, 1.0), ("nest", True, 1.0), ("custom string", False, 1.0),
    ("custom string", True, 1.0), ("a-string 1", False, 1.0), ("flat drum", False, 1.0),
])
def test_distance_zeta_mc_matches_numpy_weights(name, full, lam, monkeypatch):
    # the same seed draws the same points; only the weight's exp differs
    make, s = _MC_WEIGHT_SETS[name]
    desc = geometry.scaled(make(), lam) if lam != 1.0 else make()
    delta = 0.45 * lam if full else None
    est = distance_zeta_mc(desc, s, n=150_000, seed=21, delta=delta, full=full)
    monkeypatch.setattr(zeta, "_mc_weights", _numpy_weights)
    ref = distance_zeta_mc(desc, s, n=150_000, seed=21, delta=delta, full=full)
    assert abs(est.value - ref.value) <= 1e-13 * abs(ref.value)
    assert est.std_err == pytest.approx(ref.std_err, rel=1e-13)


@pytest.mark.parametrize("make, s, full", [
    # full mode at δ = 0.1: the first level's holes (inradius 1/6) and the
    # nest's widest annulus and centre disk reach past δ
    (lambda: geometry.carpet(2), 1.97 - 0.5j, True),
    (lambda: geometry.fractal_nest(0.5, 40), 1.7 + 0.5j, True),
    # a gap index past the float range is a point of A, at d = 0
    (lambda: geometry.a_string_set(0.01), 1.0 + 0.5j, False),
])
def test_distance_zeta_mc_dropped_samples_weigh_zero(make, s, full, monkeypatch):
    seen = _spy_weights(monkeypatch)
    n = 2 * 2**16 + 11
    distance_zeta_mc(make(), s, n=n, seed=4, delta=0.1 if full else None, full=full)
    assert len(seen) == -(-n // zeta._MC_BLOCK)
    dropped = 0
    for w, log_d, cut, vals in seen:
        keep = (log_d > -math.inf) & (log_d <= cut)
        assert np.all(vals[~keep] == 0.0) and np.all(vals[keep] != 0.0)
        assert _rel_err(vals[keep], np.exp(w * log_d[keep])) <= 1e-15
        dropped += np.count_nonzero(~keep)
    assert dropped > 0
    # no hole reaches past δ = 0.45 (the nest's widest is 0.158): nothing to drop
    assert geometry._hole_law(make(), n, 0.45 if full else None).cut == (None if full else math.inf)


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
    (lambda: geometry.fractal_nest(0.5, 40), 1.7 + 0.5j, 0.5),
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


@pytest.mark.parametrize("s", [1.7 + 0.5j, 2.3 - 1.0j])
@pytest.mark.parametrize("lam", [1.0, 1.7])
@pytest.mark.parametrize("name", ["nest", "custom string"])
def test_closed_form_on_nest_and_custom_string_matches_mpmath(name, lam, s):
    # one Beta term per annulus, disk or gap, against a polar (or linear)
    # integral of d(x, A)^{s-N} that splits each hole at its mid-radius
    desc = geometry.scaled(_HOLE_LAW_SETS[name](), lam)
    if name == "nest":
        ref = nest_zeta_mp(0.5, 40, lam, s)
    else:
        ref = string_zeta_mp(_CUSTOM.entries, lam, s)
    assert abs(distance_zeta_closed(desc, s) - ref) <= 1e-12 * abs(ref)


@pytest.mark.parametrize("lam, big_k, full", [
    pytest.param(1.0, 40, False, id="1.0"),
    pytest.param(1.7, 40, False, id="1.7"),
    pytest.param(1.7, 1000, False, id="K1000-1.7"),
    pytest.param(1.0, 40, True, id="full-1.0"),
    pytest.param(1.7, 1000, True, id="K1000-full-1.7"),
])
def test_nest_poles_and_residues(lam, big_k, full):
    # the centre disk gives 2π r^s/(s(s - 1)) and annulus k gives
    # 2π(r_k + r_{k+1}) ρ^{s-1}/(s - 1): poles 0 and 1 only, with residues
    # -2π and λ(2π r_1 + 4π Σ_{k>=2} r_k).  The full form adds the collar
    # 2πλ δ^{s-1}/(s - 1) + 2π δ^s/s on the same roots: its residues are
    # summed in, so 0 is removable and 1 takes 2πλ more
    desc = geometry.scaled(geometry.fractal_nest(0.5, big_k), lam)
    form = catalog_form(desc, full=full, delta=1.0)
    got = spectrum.poles(form, spectrum.Window(-2.5, 1.99, 30.0))
    with mp.workdps(30):
        radii = [mp.power(k, -mp.mpf(1) / 2) for k in range(1, big_k + 1)]
        res_one = complex(lam * (2 * mp.pi * radii[0] + 4 * mp.pi * mp.fsum(radii[1:])
                                 + (2 * mp.pi if full else 0)))
    if full:
        assert got.omega.tolist() == [1.0]
    else:
        assert got.omega.tolist() == [0.0, 1.0]
        assert got.residue[0] == pytest.approx(-2.0 * math.pi, rel=1e-14)
    assert abs(got.residue[-1] - res_one) <= 1e-12 * abs(res_one)


def test_catalog_form_has_one_term_per_denominator():
    # rows of one degree share a term; a ladder's family and each power of
    # the collar have their own
    def count(desc, full=False):
        delta = geometry.saturation_threshold(desc) if full else None
        return len(catalog_form(desc, full=full, delta=delta).terms)

    nest = geometry.fractal_nest(0.5, 1000)
    assert (count(nest), count(nest, full=True)) == (2, 4)
    assert count(geometry.a_string_set(1.5, 40)) == 1
    assert count(geometry.string_set(_CUSTOM)) == 1
    for desc, counts in ((geometry.cantor_set(2, 1 / 3), (1, 2)),
                         (geometry.cantor_set(5, 0.1), (1, 2)),
                         (geometry.carpet(2), (1, 3)), (geometry.carpet(3), (1, 4)),
                         (geometry.box_boundary(1), (1, 2)), (geometry.box_boundary(4), (1, 5))):
        assert (count(desc), count(desc, full=True)) == counts


def test_catalog_form_rejects_kinds_without_closed_form():
    with pytest.raises(ValueError, match="no closed zeta form"):
        catalog_form(geometry.flat_drum())  # no holes
    with pytest.raises(ValueError, match="no closed zeta form"):
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


@pytest.mark.parametrize("depths", [(), [], (0,), (50, -1), (2.5,), ("50",), (None,)])
def test_hp_probe_refuses_bad_ladder_depths(depths):
    with pytest.raises(ValueError, match="ladder_depths"):
        zeta.hp_integrability_probe(geometry.cantor_set(2, 1 / 3), 0.3, ladder_depths=depths)


@pytest.mark.parametrize("gamma, partials, want", [
    (0.3, (10.903826988296078, 11.14920453492308, 11.154850726616951, 11.154853587415225), True),
    (0.5, (14016.320116788811, 18639279.704860188, 32912903910981.77, 1.0262185546333714e+26), False),
])
def test_hp_probe_partials_are_pinned(gamma, partials, want):
    # the partials over 50, 100, 200 and 400 levels of C(2, 1/3), to the bit
    rep = zeta.hp_integrability_probe(geometry.cantor_set(2, 1 / 3), gamma)
    assert rep.partials == partials and rep.convergent is want


# --- abscissa of convergence -------------------------------------------------------------


def test_abscissa_matches_similarity_dim():
    desc = geometry.cantor_set(2, 1 / 3)
    assert zeta.abscissa_of(desc) == pytest.approx(D_CANTOR, abs=1e-3)
    astr = geometry.a_string_set(1.0)
    assert zeta.abscissa_of(astr) == pytest.approx(0.5, abs=1e-3)


@pytest.mark.parametrize("a, want", [(0.5, 0.6666390991210938), (1.0, 0.4999661254882813),
                                     (2.0, 0.3333230590820313)])
def test_a_string_abscissa_is_pinned(a, want):
    assert zeta.abscissa_of(geometry.a_string_set(a)) == want
    assert abs(want - 1 / (1 + a)) <= 1e-3


@pytest.mark.parametrize("lam", [1.0, 1.7])
@pytest.mark.parametrize("make, want", [
    (lambda: geometry.cantor_set(2, 1 / 3), 0.6309084014892579),
    (lambda: geometry.cantor_set(5, 0.1), 0.6989555206298828),
    (lambda: geometry.carpet(2), 1.8927617645263672),
    (lambda: geometry.carpet(3), 2.9656258392333985),
], ids=["C(2,1/3)", "C(5,1/10)", "carpet2", "carpet3"])
def test_ladder_abscissa_is_pinned(make, want, lam):
    desc = make()
    assert zeta.abscissa_of(geometry.scaled(desc, lam)) == want
    assert abs(want - desc.similarity_dim) <= 1e-4


def test_abscissa_refuses_a_ladder_below_its_scan_window():
    # D = log 2 / log 10^308 ≈ 9.8e-4 lies below the ladder window (N - 1 + 1e-3, N)
    with pytest.raises(ValueError, match=r"abscissa below the scan window \(0\.001, 1\)"):
        zeta.abscissa_of(geometry.cantor_set(2, 1e-308))


def test_abscissa_refuses_a_finite_a_string():
    # 41 points: the zeta converges for every Re s > 0, so there is no
    # abscissa to scan for, least of all the infinite string's 1/(1 + a)
    desc = geometry.a_string_set(1.0, 40)
    est = zeta.tube_zeta_quad(desc, 0.3, 0.5)
    assert est.value.real == pytest.approx(63.97, abs=0.01) and est.quad_err_bound < 1e-11
    with pytest.raises(ValueError, match="no convergence scan"):
        zeta.abscissa_of(desc)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_a_string_block_sums_match_direct_partial_sums(a):
    # brute force: Σ_{j < 2^i} ℓ_j^σ over every j < 2^21, each dyadic block
    # summed pairwise and the blocks exactly (a running np.cumsum drops the
    # terms below half an ulp of the sum: 3e-11 at a = 2, σ = 0.9).  Partial
    # sums are compared, not increments, which cancel far right of D
    j = np.arange(1.0, 2.0**21)
    logl = np.log(j ** -a * -np.expm1(-a * np.log1p(1 / j)))
    evaluator = zeta._string_blocks(geometry.a_string_set(a))
    dim = 1 / (1 + a)
    for sigma in (0.2, dim - 0.01, dim + 1e-4, 0.9):
        terms = np.exp(sigma * logl)
        blocks = [terms[2 ** (i - 1) - 1:2**i - 1].sum() for i in range(1, 22)]
        want = np.array([math.fsum(blocks[:i]) for i in range(1, 22)])
        assert np.max(np.abs(evaluator(sigma) / want - 1)) <= 1e-12


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
    term = ZetaTerm(coeffs=(2.0,), roots=(0.0,), lattice=(3.0, 2.0), scales=(1 / 6,))
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
        ZetaTerm(coeffs=(1.0,), roots=(1.0, 1.0))
    with pytest.raises(ValueError):
        ZetaTerm(coeffs=(1.0,), lattice=(0.9, 2.0))  # needs q > 1
    with pytest.raises(ValueError):
        ZetaTerm(coeffs=(1.0,), base=0.0)
    with pytest.raises(ValueError):
        ZetaTerm(coeffs=(1.0, 2.0), scales=(1.0,))  # one scale per coefficient
    with pytest.raises(ValueError):
        ZetaTerm(coeffs=(1.0,), roots=(1.0,), lattice=(3.0, 3.0))  # a root on the lattice line


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
