"""Geometry layer: tube volumes, distances, breakpoints, saturation.

Expected values come from routes independent of the implementation: exact
rationals derived from the hole ladders by hand, interval-construction
covers, high-precision quadrature (mpmath), and seeded Monte Carlo counts.
"""
import math
import re
import warnings
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalzeta import geometry, zeta
from fractalzeta.geometry import FractalString
from mp_oracles import flat_tube_mp

LN2 = math.log(2.0)
LN3 = math.log(3.0)


# --- exact hand-derived tube volumes -----------------------------------------


@pytest.mark.parametrize("t, expected", [
    (Fraction(1, 18), Fraction(7, 9)),
    (Fraction(1, 6), Fraction(1, 1)),   # saturation: gaps fully covered
    (Fraction(1, 2), Fraction(1, 1)),
])
def test_cantor_tube_exact_rationals(t, expected):
    desc = geometry.cantor_set(2, 1.0 / 3.0)
    got = geometry.tube_volume(desc, float(t))
    assert got == pytest.approx(float(expected), rel=1e-12)


@pytest.mark.parametrize("t, expected", [
    (Fraction(1, 18), Fraction(8, 9)),
    (Fraction(1, 54), Fraction(16, 27)),
])
def test_cantor_full_tube_exact_rationals(t, expected):
    desc = geometry.cantor_set(2, 1.0 / 3.0)
    got = geometry.full_tube_volume(desc, float(t))
    assert got == pytest.approx(float(expected), rel=1e-12)


def test_cantor_full_tube_log_periodicity():
    # V_full(t/3) = (2/3) V_full(t) below the first breakpoint
    desc = geometry.cantor_set(2, 1.0 / 3.0)
    for t in (1 / 18, 1 / 50, 1e-4):
        v1 = geometry.full_tube_volume(desc, t)
        v3 = geometry.full_tube_volume(desc, t / 3.0)
        assert v3 == pytest.approx(2.0 / 3.0 * v1, rel=1e-12)


@pytest.mark.parametrize("ambient, t, expected", [
    (2, Fraction(1, 10), Fraction(221, 225)),
    (2, Fraction(3, 100), Fraction(183139, 202500)),
    (3, Fraction(1, 10), 1 - Fraction(8, 3375)),
])
def test_carpet_tube_exact_rationals(ambient, t, expected):
    desc = geometry.carpet(ambient)
    got = geometry.tube_volume(desc, float(t))
    assert got == pytest.approx(float(expected), rel=1e-12)


def _cantor_ladder(m: int, a: float):
    """(first count, first gap, m, a) of C(m, a): m - 1 gaps h = (1 - ma)/(m - 1)."""
    return m - 1, (1 - m * a) / (m - 1), m, a


def test_generalized_cantor_tube_exact():
    # m=3, a=1/5: h = (1 - 3/5)/2 = 1/5, two gaps per block
    desc = geometry.cantor_set(3, 0.2)
    count, h, m, a = _cantor_ladder(3, 0.2)
    assert h == pytest.approx(0.2, rel=1e-15)
    assert desc.holes.radii.tolist() == [h / 2]
    # 2t = 1/10 < h: level 1 contributes 2 * (2t), deeper levels scale by 3a
    t = 0.05
    level = lambda k: count * m ** (k - 1) * min(h * a ** (k - 1), 2 * t)
    expected = sum(level(k) for k in range(1, 40))
    expected += geometry.tube_volume(desc, 0.0)  # zero, keeps intent clear
    # every level past the 39th is covered: total hole length times (ma)^39
    tail = count * h / (1 - m * a) * (m * a) ** 39
    assert geometry.tube_volume(desc, t) == pytest.approx(expected + tail, rel=1e-12)


# --- interval-construction oracle ---------------------------------------------


def _cantor_intervals(m: int, a: float, depth: int):
    span = a + _cantor_ladder(m, a)[1]
    starts = np.array([0.0])
    width = 1.0
    for _ in range(depth):
        starts = (starts[:, None] + (span * width) * np.arange(m)[None, :]).ravel()
        width *= a
    return np.sort(starts), width


def _merged_tube_length(starts: np.ndarray, width: float, t: float) -> float:
    lo = np.maximum(starts - t, 0.0)
    hi = np.minimum(starts + width + t, 1.0)
    total = 0.0
    cur_lo, cur_hi = lo[0], hi[0]
    for left, right in zip(lo[1:], hi[1:]):
        if left > cur_hi:
            total += cur_hi - cur_lo
            cur_lo, cur_hi = left, right
        else:
            cur_hi = max(cur_hi, right)
    return total + (cur_hi - cur_lo)


@pytest.mark.parametrize("m, a", [(2, 1 / 3), (3, 0.2), (2, 0.4)])
def test_cantor_tube_matches_interval_cover(m, a):
    # once every depth-L interval is narrower than 2t the t-neighborhood of
    # the set equals the fattened interval cover exactly
    desc = geometry.cantor_set(m, a)
    starts, width = _cantor_intervals(m, a, 12)
    for t in (0.09, 0.01, 0.002, max(width, 1e-5)):
        assert 2 * t >= width
        expected = _merged_tube_length(starts, width, t)
        assert geometry.tube_volume(desc, t) == pytest.approx(expected, rel=1e-11)


@pytest.mark.parametrize("m, a", [(2, 1 / 3), (3, 0.2)])
def test_cantor_distance_matches_interval_cover(m, a):
    desc = geometry.cantor_set(m, a)
    starts, width = _cantor_intervals(m, a, 12)
    rng = np.random.default_rng(42)
    xs = rng.uniform(-0.2, 1.2, 2000)
    got = geometry.distance_many(desc, xs)
    idx = np.clip(np.searchsorted(starts, xs) - 1, 0, len(starts) - 1)
    ref = np.full_like(xs, np.inf)
    for off in (-1, 0, 1):
        j = np.clip(idx + off, 0, len(starts) - 1)
        ref = np.minimum(ref, np.maximum(
            np.maximum(starts[j] - xs, xs - (starts[j] + width)), 0.0))
    assert np.max(np.abs(got - ref)) < width


def test_carpet_distance_matches_digit_recursion():
    desc = geometry.carpet(2)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-0.2, 1.2, (2000, 2))
    got = geometry.distance_many(desc, pts)

    ref = np.empty(len(pts))
    for i, (x, y) in enumerate(pts):
        cx, cy = min(max(x, 0.0), 1.0), min(max(y, 0.0), 1.0)
        if (x, y) != (cx, cy):
            ref[i] = math.hypot(x - cx, y - cy)
            continue
        u, v, length, val = cx, cy, 1.0, 0.0
        for _ in range(60):
            gu, gv = min(int(3 * u), 2), min(int(3 * v), 2)
            ru, rv = 3 * u - gu, 3 * v - gv
            if gu == 1 and gv == 1:
                val = (length / 3.0) * min(ru, 1 - ru, rv, 1 - rv)
                break
            u, v, length = ru, rv, length / 3.0
        ref[i] = val
    assert np.max(np.abs(got - ref)) < 1e-15


# --- Monte Carlo cross-route: P(d <= t) vs tube volume -------------------------


@pytest.mark.parametrize("make, seed", [
    (lambda: geometry.carpet(2), 7),
    (lambda: geometry.cantor_set(2, 1 / 3), 8),
    (lambda: geometry.carpet(3), 9),
])
def test_tube_volume_agrees_with_distance_sampling(make, seed):
    desc = make()
    rng = np.random.default_rng(seed)
    n = 200_000
    pts = rng.random((n, desc.ambient_dim))
    if desc.ambient_dim == 1:
        pts = pts.ravel()
    d = geometry.distance_many(desc, pts)
    for t in (0.1, 0.02):
        v = geometry.tube_volume(desc, t)
        frac = float(np.mean(d <= t))
        sigma = math.sqrt(max(v * (1 - v), 1e-12) / n)
        assert abs(frac - v) < 4.0 * sigma + 1e-9


def test_nest_tube_agrees_with_disk_sampling():
    desc = geometry.fractal_nest(0.5, 30)
    rng = np.random.default_rng(12)
    n = 150_000
    r = np.sqrt(rng.random(n))
    th = 2.0 * math.pi * rng.random(n)
    pts = np.column_stack((r * np.cos(th), r * np.sin(th)))
    d = geometry.distance_many(desc, pts)
    for t in (0.05, 0.01):
        v = geometry.tube_volume(desc, t)
        p = v / math.pi
        frac = float(np.mean(d <= t))
        sigma = math.sqrt(p * (1 - p) / n)
        assert abs(frac - p) < 4.0 * sigma


_COLLAR_SETS = {
    "box 1": lambda: geometry.box_boundary(1),
    "box 2": lambda: geometry.box_boundary(2),
    "box 3": lambda: geometry.box_boundary(3),
    "carpet2 x1.7": lambda: geometry.scaled(geometry.carpet(2), 1.7),
    "nest disk": lambda: geometry.fractal_nest(0.5, 30),
}


@pytest.mark.parametrize("name", list(_COLLAR_SETS))
def test_collar_coeffs_match_point_sampling(name):
    # the outer collar |A_t \ Ω| = Σ_j c_j t^j, checked without reading the
    # coefficients' construction: uniform points of the box [-δ, L + δ]^N
    # around Ω, at the norm of their per-axis gaps to the box [0, L]^N, or at
    # their radial gap to the disk of radius L
    desc = _COLLAR_SETS[name]()
    size, ball = desc.region
    size *= desc.scale
    n_dim, delta, n = desc.ambient_dim, 0.45, 200_000
    lo, hi = (-size - delta, size + delta) if ball else (-delta, size + delta)
    pts = lo + (hi - lo) * np.random.default_rng(17).random((n, n_dim))
    if ball:
        d = np.maximum(np.linalg.norm(pts, axis=1) - size, 0.0)
    else:
        d = np.linalg.norm(np.maximum(np.maximum(-pts, pts - size), 0.0), axis=1)
    coeffs = geometry._collar_coeffs(desc)
    for t in (0.05, 0.2, 0.45):
        p = sum(c * t**j for j, c in enumerate(coeffs, 1)) / (hi - lo) ** n_dim
        frac = np.count_nonzero((d > 0.0) & (d <= t)) / n
        assert abs(frac - p) <= 4.0 * math.sqrt(p * (1.0 - p) / n), (t, frac, p)


# --- strings -------------------------------------------------------------------


def test_a_string_tube_matches_direct_enumeration():
    desc = geometry.a_string_set(1.0)
    for t in (1e-3, 1e-4, 3e-6):
        jstar = 0
        j = 1
        while 1.0 / (j * (j + 1)) > 2 * t:
            jstar = j
            j += 1
        expected = 2 * t * jstar + 1.0 / (jstar + 1)
        assert geometry.tube_volume(desc, t) == expected


def test_a_string_distance_matches_point_set():
    desc = geometry.a_string_set(1.0)
    rng = np.random.default_rng(5)
    # stay above 1/3999 so the finite reference grid resolves every point
    xs = rng.uniform(1e-3, 1.0, 2000)
    got = geometry.distance_many(desc, xs)
    pts = 1.0 / np.arange(1, 4000)
    ref = np.min(np.abs(xs[:, None] - pts[None, :]), axis=1)
    ref = np.minimum(ref, xs)  # the accumulation point 0 belongs to the set
    assert np.max(np.abs(got - ref)) == 0.0


@pytest.mark.parametrize("a", [0.3, 0.5, 1.0, 2.0, 3.0])
def test_a_string_distance_never_negative(a):
    # 0 lies in A, so 0 <= d(x, A) <= x, also where j = ⌊x^{-1/a}⌋ passes 2^63
    xs = np.concatenate((10.0 ** -np.arange(0.5, 300.0), np.linspace(0.0, 1.0, 10_001)))
    d = geometry.distance_many(geometry.a_string_set(a), xs)
    assert np.all(d >= 0.0) and np.all(d <= xs)


def test_truncated_a_string_tube_and_volume():
    a, bigj = 1.5, 40
    desc = geometry.a_string_set(a, bigj)
    string = geometry.a_string(a, bigj)
    assert geometry.region_volume(desc) == pytest.approx(
        1.0 - (bigj + 1) ** (-a), rel=1e-14)
    for t in (1e-2, 1e-4):
        expected = sum(min(float(l), 2 * t) for l, _ in string.entries)
        assert geometry.tube_volume(desc, t) == pytest.approx(expected, rel=1e-13)


_CUSTOM = FractalString(entries=((Fraction(1, 2), 1), (Fraction(1, 4), 2),
                                 (Fraction(1, 8), 3)))


def test_custom_string_tube_and_total():
    st_ = _CUSTOM
    assert st_.total == Fraction(1, 2) + Fraction(1, 2) + Fraction(3, 8)
    assert len(st_) == 6
    desc = geometry.string_set(st_)
    assert geometry.region_volume(desc) == pytest.approx(float(st_.total))
    t = 0.07  # 2t = 0.14 saturates the 1/8 entries only
    expected = 2 * t + 2 * (2 * t) + 3 * (1 / 8)
    assert geometry.tube_volume(desc, t) == pytest.approx(expected, rel=1e-14)


def test_string_validation():
    with pytest.raises(ValueError):
        FractalString(entries=((0.5, 1), (0.5, 2)))  # not strictly decreasing
    with pytest.raises(ValueError):
        FractalString(entries=((0.5, 0),))
    with pytest.raises(ValueError):
        FractalString(entries=((-0.5, 1),))


# --- flat drum ------------------------------------------------------------------


_FLAT_TS = (1e-12, 1e-8, 1e-4, 1e-2, 0.1, 0.5, 1.02, 1.2)


def test_flat_drum_log_tube_matches_mpmath():
    desc = geometry.flat_drum()
    want = np.array([float(mp.log(flat_tube_mp(t))) for t in _FLAT_TS])
    got = geometry.log_tube_volume(desc, np.array(_FLAT_TS))
    assert np.max(np.abs(got / want - 1)) <= 1e-13
    scalar = np.array([geometry.log_tube_volume(desc, t) for t in _FLAT_TS])
    assert np.max(np.abs(scalar / want - 1)) <= 1e-13


def test_flat_drum_region_volume_matches_mpmath():
    mp.mp.dps = 30
    ref = float(mp.quad(lambda x: mp.e ** (-1 / x) if x > 0 else mp.mpf(0),
                        [0, 1]))
    desc = geometry.flat_drum()
    assert geometry.region_volume(desc) == pytest.approx(ref, rel=1e-12)
    assert abs(geometry.region_volume(desc) - 0.148495506775922) <= 1e-15  # E₂(1)


def test_flat_drum_saturates_at_region_volume():
    desc = geometry.flat_drum()
    vol = geometry.region_volume(desc)
    sat = geometry.saturation_threshold(desc)
    assert geometry.tube_volume(desc, sat * 1.01) == pytest.approx(vol, rel=1e-12)
    assert geometry.tube_volume(desc, 5.0) == pytest.approx(vol, rel=1e-12)
    assert geometry.tube_volume(desc, sat * 0.9) < vol


def test_flat_drum_log_tube_survives_underflow():
    desc = geometry.flat_drum()
    lv = geometry.log_tube_volume(desc, 1e-3)
    assert math.isfinite(lv) and lv < -900  # V ~ e^{-1/t}, far below float range
    assert geometry.tube_volume(desc, 1e-3) == 0.0
    ts = 10.0 ** -np.arange(15.0, -1.0, -1.0)  # 1e-15 ... 1
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = geometry.log_tube_volume(desc, ts)
        scalar = [geometry.log_tube_volume(desc, t) for t in ts]
    assert np.all(np.isfinite(got)) and np.all(np.diff(got) > 0)
    assert got == pytest.approx(scalar, rel=1e-15, abs=0.0)
    # log V = -1/t + 2 log t + O(t) as t -> 0, since V ~ t²·e^{-1/t}; at
    # t = 1e-15 the 2 log t = -69 term shows against an ulp of 0.125
    assert abs(got[0] - (-1e15 + 2 * math.log(1e-15))) <= 0.5


def test_flat_drum_rejects_full_tube():
    desc = geometry.flat_drum()
    with pytest.raises(ValueError):
        geometry.tube_volume(desc, 0.1, full=True)


# --- box boundary, saturation, breakpoints ---------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3])
def test_box_boundary_tube_closed_forms(n):
    desc = geometry.box_boundary(n)
    t = 0.1
    inner = 1.0 - (1.0 - 2 * t) ** n
    assert geometry.tube_volume(desc, t) == pytest.approx(inner, rel=1e-14)
    # outside the box the tube is its Euclidean Steiner polynomial: faces,
    # quarter-cylinder edges and rounded corners, not a box of side 1 + 2t
    collar = {1: 2 * t,
              2: 4 * t + math.pi * t**2,
              3: 6 * t + 3 * math.pi * t**2 + 4 * math.pi * t**3 / 3}[n]
    assert geometry.full_tube_volume(desc, t) == pytest.approx(inner + collar, rel=1e-14)


@pytest.mark.parametrize("make", [
    lambda: geometry.cantor_set(2, 1 / 3),
    lambda: geometry.cantor_set(4, 0.21),
    lambda: geometry.carpet(2),
    lambda: geometry.carpet(3),
    lambda: geometry.a_string_set(1.0),
    lambda: geometry.a_string_set(0.5, 25),
    lambda: geometry.fractal_nest(0.5, 50),
    lambda: geometry.box_boundary(3),
])
def test_saturation_threshold_fills_region(make):
    desc = make()
    sat = geometry.saturation_threshold(desc)
    vol = geometry.region_volume(desc)
    assert geometry.tube_volume(desc, sat * (1 + 1e-6)) == pytest.approx(vol, rel=1e-9)
    assert geometry.tube_volume(desc, sat * 0.98) < vol


def test_cantor_breakpoints_are_half_gaps():
    desc = geometry.cantor_set(2, 1 / 3)
    bps = geometry.tube_breakpoints(desc, 1e-4, 1e-1)
    expected = []
    g = 1 / 6
    while g > 1e-4:
        if g < 1e-1:
            expected.append(g)
        g /= 3.0
    assert bps == pytest.approx(sorted(expected), rel=1e-14)


def test_cantor_tube_affine_between_breakpoints():
    # on a line every hole covers min(ℓ, 2t), so each 1-D tube is affine
    # between consecutive breakpoints
    cases = [
        (geometry.cantor_set(2, 1 / 3), 1e-4, 1e-1),
        (geometry.cantor_set(5, 0.1), 1e-6, 1e-1),
        (geometry.a_string_set(1.5, 40), 1e-4, 1e-1),
        (geometry.string_set(_CUSTOM), 1e-3, 1.0),
        (geometry.box_boundary(1), 0.1, 1.0),
        (geometry.a_string_set(1.0), 1e-8, 1e-4),
    ]
    for desc, tmin, tmax in cases:
        bps = geometry.tube_breakpoints(desc, tmin, tmax)
        assert len(bps) >= 1
        edges = np.concatenate(([tmin], bps, [tmax]))
        left, right = edges[:-1], edges[1:]
        a, b = left + 0.1 * (right - left), right - 0.1 * (right - left)
        va, vb = geometry.tube_volume(desc, a), geometry.tube_volume(desc, b)
        vm = geometry.tube_volume(desc, 0.5 * (a + b))
        assert vm == pytest.approx(0.5 * (va + vb), rel=1e-12)


def _a_string_count_exact(t: float) -> int:
    # j* = #{j : 1/(j(j+1)) > 2t} for a = 1, in exact rationals
    two_t = 2 * Fraction(t)
    j = math.isqrt(int(1 / two_t)) + 1
    while j * (j + 1) * two_t >= 1:
        j -= 1
    return j


def test_a_string_breakpoints_are_every_half_gap():
    desc = geometry.a_string_set(1.0)
    tmin, tmax = 1e-12, 2e-12
    bps = geometry.tube_breakpoints(desc, tmin, tmax)
    assert len(bps) == _a_string_count_exact(tmin) - _a_string_count_exact(tmax) == 207_107
    assert np.all((bps > tmin) & (bps < tmax))
    assert np.all(np.diff(bps) > 0)


def _a_string_tube_mp(a: float, t: float):
    # 2t·j* + (j*+1)^{-a}, j* = #{j : ℓ_j > 2t} by bisection over the integers at
    # 60 digits, ℓ_j = j^{-a}(1 - (1 + 1/j)^{-a}) taken without cancellation
    with mp.workdps(60):
        a, two_t = mp.mpf(a), 2 * mp.mpf(t)
        gap = lambda j: mp.power(j, -a) * -mp.expm1(-a * mp.log1p(mp.mpf(1) / j))
        lo, hi = 0, 2
        while gap(hi) > two_t:
            hi *= 2
        while hi - lo > 1:
            mid = (lo + hi) // 2
            lo, hi = (mid, hi) if gap(mid) > two_t else (lo, mid)
        return two_t * lo + mp.power(lo + 1, -a)


@pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
def test_a_string_tube_volume_past_2_53_gaps(a):
    # once j* passes 2^53 adjacent floats are more than 1 apart, and a bisection
    # that waits for hi - lo <= 1 never ended: tube_volume(a_string_set(1), 6e-33) hung
    desc, ts = geometry.a_string_set(a), [1e-33, 1e-100, 1e-300]
    refs = [_a_string_tube_mp(a, t) for t in ts]
    for t, ref in zip(ts, refs):
        assert geometry.tube_volume(desc, t) == pytest.approx(float(ref), rel=1e-13)
    assert geometry.tube_volume(desc, np.array(ts)) == pytest.approx(np.array(refs, float), rel=1e-13)


@pytest.mark.parametrize("a", [0.01, 0.03])
def test_a_string_tube_volume_refuses_past_the_float_range(a):
    # below t = ℓ_{2^1022}/2 the count j* of wider gaps passes the float range:
    # tube_volume(a_string_set(0.01), 5e-324) read 8.4e-4 with an overflow
    # warning, where 2t·j* + (j*+1)^{-a} is 6.6997e-4 at j* = 6.713e317
    desc = geometry.a_string_set(a)
    with mp.workdps(30):
        j = mp.mpf(2) ** 1022
        least = float(mp.power(j, -a) * -mp.expm1(-a * mp.log1p(1 / j)) / 2)
    for t in (5e-324, least * (1.0 - 1e-3)):
        with pytest.raises(ValueError, match="below the smallest supported t"):
            geometry.tube_volume(desc, t)
        with pytest.raises(ValueError, match="below the smallest supported t"):
            geometry.tube_volume(desc, np.array([0.1, t]))
    ts = np.geomspace(least * (1.0 + 1e-3), 1e-20, 8)
    refs = np.array([float(_a_string_tube_mp(a, t)) for t in ts])
    assert geometry.tube_volume(desc, ts) == pytest.approx(refs, rel=1e-13)
    for t, ref in zip(ts, refs):
        assert geometry.tube_volume(desc, t) == pytest.approx(ref, rel=1e-13)


def test_breakpoints_validation():
    desc = geometry.cantor_set(2, 1 / 3)
    with pytest.raises(ValueError):
        geometry.tube_breakpoints(desc, 0.0, 1.0)
    with pytest.raises(ValueError):
        geometry.tube_breakpoints(desc, 0.5, 0.1)


# --- every kind against a 40-digit hole-by-hole oracle, scalar and array ------------


_EVERY_KIND = {
    "C(2,1/3)": lambda: geometry.cantor_set(2, 1 / 3),
    "C(5,1/10)": lambda: geometry.cantor_set(5, 0.1),
    "carpet2": lambda: geometry.carpet(2),
    "carpet3": lambda: geometry.carpet(3),
    "nest K=1000": lambda: geometry.fractal_nest(0.5, 1000),
    "box1": lambda: geometry.box_boundary(1),
    "box2": lambda: geometry.box_boundary(2),
    "box3": lambda: geometry.box_boundary(3),
    "a-string J=40": lambda: geometry.a_string_set(1.5, 40),
    "a-string": lambda: geometry.a_string_set(1.0),
    "custom string": lambda: geometry.string_set(_CUSTOM),
}


def _steiner_mp(n, lam, t):
    # |B + t·ball| - |B| for the box B = [0, λ]^n
    return sum(mp.binomial(n, j) * lam ** (n - j) * mp.pi ** (mp.mpf(j) / 2)
               / mp.gamma(mp.mpf(j) / 2 + 1) * t**j for j in range(1, n + 1))


def _nest_mp(desc, lam, t, full):
    # the tube of the circles as merged radial intervals [r - t, r + t]
    radii = sorted(lam * mp.power(k, -mp.mpf(desc.a)) for k in range(1, desc.K + 1))
    area, lo, hi = mp.mpf(0), max(radii[0] - t, 0), radii[0] + t
    for r in radii[1:]:
        if r - t > hi:
            area += hi**2 - lo**2
            lo = r - t
        hi = r + t
    area += (hi if full else min(hi, lam)) ** 2 - lo**2
    return mp.pi * area


def _a_string_mp(a, lam, t):
    # Σ_j min(λℓ_j, 2t): the j* gaps wider than 2t, then a telescoping tail
    gap = lambda j: lam * (mp.power(j, -a) - mp.power(j + 1, -a))
    lo, hi = 0, 2
    while gap(hi) > 2 * t:
        hi *= 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        lo, hi = (mid, hi) if gap(mid) > 2 * t else (lo, mid)
    return 2 * t * lo + lam * mp.power(lo + 1, -a)


def _tube_mp(desc, t, full, ladder=None):
    # ``ladder``: (first count, first gap, m, a) of a ladder drum, from _LADDER_ARGS
    mp.mp.dps = 40
    t, lam, n = mp.mpf(t), mp.mpf(desc.scale), desc.ambient_dim
    collar = (2 * t if n == 1 else _steiner_mp(n, lam, t)) if full else 0
    if desc.kind == "nest":
        return _nest_mp(desc, lam, t, full)
    if desc.kind == "aString" and desc.J is None:
        return _a_string_mp(mp.mpf(desc.a), lam, t) + collar
    if desc.kind in ("aString", "customString"):
        if desc.kind == "aString":
            a = mp.mpf(desc.a)
            gaps = [(mp.power(j, -a) - mp.power(j + 1, -a), 1) for j in range(1, desc.J + 1)]
        else:
            gaps = [(mp.mpf(length.numerator) / length.denominator, mult)
                    for length, mult in desc.string.entries]
        return sum(mult * min(lam * length, 2 * t) for length, mult in gaps) + collar
    cube = lambda g: g**n - max(g - 2 * t, 0) ** n
    if desc.kind == "boxBoundary":
        return cube(lam) + collar
    count, g, m, a = (mp.mpf(x) for x in ladder)
    g *= lam
    vol = mp.mpf(0)
    while g > 2 * t:
        vol += count * cube(g)
        count, g = count * m, g * a
    # every narrower hole is covered: a geometric series of ratio m·a^n
    return vol + count * g**n / (1 - m * a**n) + collar


_ORACLE_TS = np.logspace(-12, 0, 17)

_LADDER_ARGS = {  # (first count, first gap, m, a) of each ladder in _EVERY_KIND
    "C(2,1/3)": _cantor_ladder(2, 1 / 3),
    "C(5,1/10)": _cantor_ladder(5, 0.1),
    "carpet2": (1, 1 / 3, 8, 1 / 3),
    "carpet3": (1, 1 / 3, 26, 1 / 3),
}


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("lam", [1.0, 1.7])
@pytest.mark.parametrize("name", list(_EVERY_KIND))
def test_tube_volume_matches_hole_by_hole_oracle(name, lam, full):
    desc = geometry.scaled(_EVERY_KIND[name](), lam)
    want = np.array([float(_tube_mp(desc, t, full, _LADDER_ARGS.get(name))) for t in _ORACLE_TS])
    got = geometry.tube_volume(desc, _ORACLE_TS, full=full)
    assert np.max(np.abs(got / want - 1)) <= 1e-13
    scalar = np.array([geometry.tube_volume(desc, t, full=full) for t in _ORACLE_TS])
    assert np.max(np.abs(scalar / want - 1)) <= 1e-13


@pytest.mark.parametrize("n", [2, 3])
def test_carpet_tube_volume_refuses_t_below_its_float_range(n):
    # below some t a table's deepest level would have a subnormal ρ^N, or more
    # holes than a float counts (26^218 > 1.8e308): such t are refused, naming
    # the least t supported, at and above which values match the oracle
    desc, ladder = geometry.carpet(n), (1, 1 / 3, 3**n - 1, 1 / 3)
    for t in (1e-200, 1e-300, np.array([1e-300, 0.1])):
        with pytest.raises(ValueError, match="smallest supported t") as info:
            geometry.tube_volume(desc, t)
    limit = float(re.search(r"smallest supported t, (\S+)$", str(info.value)).group(1))
    assert 1e-155 < limit < 1e-102
    for t in (1.001 * limit, 10 * limit, 1e3 * limit):
        want = float(_tube_mp(desc, t, False, ladder))
        assert geometry.tube_volume(desc, t) == pytest.approx(want, rel=1e-13, abs=0.0)
    with pytest.raises(ValueError, match="smallest supported t"):
        geometry.tube_volume(desc, 0.999 * limit)


@pytest.mark.parametrize("name", list(_EVERY_KIND) + ["flat drum"])
def test_tube_volume_array_matches_scalar_calls(name):
    desc = geometry.flat_drum() if name == "flat drum" else _EVERY_KIND[name]()
    ts = np.array([[0.0, 1e-7, 3e-3], [0.02, 0.2, 1.5]])
    for full in (False,) if name == "flat drum" else (False, True):
        got = geometry.tube_volume(desc, ts, full=full)
        assert isinstance(got, np.ndarray) and got.shape == ts.shape
        assert got[0, 0] == 0.0 and geometry.tube_volume(desc, 0.0, full=full) == 0.0
        # one table at δ = min t against one table per t: equal up to roundoff
        want = [[geometry.tube_volume(desc, float(t), full=full) for t in row] for row in ts]
        assert got == pytest.approx(np.array(want), rel=1e-14, abs=0.0)
        assert isinstance(geometry.tube_volume(desc, 0.2, full=full), float)
        with pytest.raises(ValueError):
            geometry.tube_volume(desc, np.array([0.1, -1e-300]), full=full)


# --- constructor validation -------------------------------------------------------


def test_constructor_validation():
    with pytest.raises(ValueError):
        geometry.cantor_set(1, 0.2)
    with pytest.raises(ValueError):
        geometry.cantor_set(2, 0.6)  # needs a < 1/m
    with pytest.raises(ValueError):
        geometry.carpet(4)
    with pytest.raises(ValueError):
        geometry.a_string(0.0, 5)
    with pytest.raises(ValueError):
        geometry.fractal_nest(0.5, 0)
    with pytest.raises(ValueError):
        geometry.scaled(geometry.carpet(2), -1.0)
    with pytest.raises(ValueError):
        geometry.tube_volume(geometry.carpet(2), -0.1)


def test_similarity_dims():
    assert geometry.cantor_set(2, 1 / 3).similarity_dim == pytest.approx(LN2 / LN3)
    assert geometry.carpet(2).similarity_dim == pytest.approx(math.log(8) / LN3)
    assert geometry.carpet(3).similarity_dim == pytest.approx(math.log(26) / LN3)
    assert geometry.a_string_set(1.0).similarity_dim == pytest.approx(0.5)
    assert geometry.fractal_nest(0.5, 10).similarity_dim == pytest.approx(4 / 3)
    assert geometry.box_boundary(3).similarity_dim == 2.0


_LADDERS = {  # constructor, and (first count, first gap, m, a)
    "C(3,0.2)": (lambda: geometry.cantor_set(3, 0.2), _cantor_ladder(3, 0.2)),
    "carpet2": (lambda: geometry.carpet(2), _LADDER_ARGS["carpet2"]),
    "carpet3": (lambda: geometry.carpet(3), _LADDER_ARGS["carpet3"]),
}


@pytest.mark.parametrize("lam", [1.0, 1.7])
@pytest.mark.parametrize("name", list(_LADDERS))
def test_ladder_hole_table_holds_levels_above_delta(name, lam):
    make, (count, gap, m, a) = _LADDERS[name]
    desc = geometry.scaled(make(), lam)
    n = desc.ambient_dim
    inradius = lambda j: lam * gap / 2 * a**j  # level j >= 0
    table = lambda delta: geometry._hole_table(desc, delta)
    at_level = [table(math.inf).radii[0], table(0.03).radii[-1], table(1e-3).radii[2]]
    below = [np.nextafter(r, 0.0) for r in at_level]  # a level just above δ is a row
    for delta in [0.03, 1e-3, 1e-7] + at_level + below:
        holes = table(delta)
        k = len(holes.radii) - 1  # rows 0..k-1 above δ, then the family head
        assert np.all(holes.radii[:-1] > delta) and holes.radii[-1] <= delta, delta
        assert inradius(k) <= delta * (1 + 1e-15)
        assert k == 0 or inradius(k - 1) > delta * (1 - 1e-15)
        np.testing.assert_allclose(holes.radii, [inradius(j) for j in range(k + 1)], rtol=1e-15)
        assert holes.counts.tolist() == [count * m**j for j in range(k + 1)]
        assert holes.ratios == (m, a)
        # each row is a cube of side 2ρ: h(ρ) = (2ρ)^N
        full = (holes.coeffs * holes.radii[:, None] ** np.arange(1, n + 1)).sum(axis=1)
        np.testing.assert_allclose(full, (2 * holes.radii) ** n, rtol=1e-14)


_NEST_GAP = (1 - 2**-0.5) / 2  # inradius of the annulus between r = 1 and r = 2^{-1/2}

_UNIT_TABLES = {  # counts, radii, shapes, family ratios, region (size, ball)
    "C(2,1/3)": (lambda: geometry.cantor_set(2, 1 / 3),
                 [1], [1 / 6], [[2]], (2, 1 / 3), (1, False)),
    "carpet2": (lambda: geometry.carpet(2), [1], [1 / 6], [[8, -4]], (8, 1 / 3), (1, False)),
    "box3": (lambda: geometry.box_boundary(3), [1], [0.5], [[24, -24, 8]], None, (1, False)),
    "nest(0.5,2)": (lambda: geometry.fractal_nest(0.5, 2), [1, 1], [_NEST_GAP, 2**-0.5],
                    [[2 * math.pi * (1 + 2**-0.5) / _NEST_GAP, 0], [2 * math.pi, -math.pi]],
                    None, (1, True)),
    "a-string(1,3)": (lambda: geometry.a_string_set(1.0, 3), [1, 1, 1], [1 / 4, 1 / 12, 1 / 24],
                      [[2], [2], [2]], None, (3 / 4, False)),
    "custom string": (lambda: geometry.string_set(_CUSTOM), [1, 2, 3], [1 / 4, 1 / 8, 1 / 16],
                      [[2], [2], [2]], None, (11 / 8, False)),
}


@pytest.mark.parametrize("name", list(_UNIT_TABLES))
def test_constructor_builds_unit_table_and_region(name):
    make, counts, radii, shapes, ratios, region = _UNIT_TABLES[name]
    desc = make()
    assert desc.holes.counts.tolist() == counts
    np.testing.assert_allclose(desc.holes.radii, radii, rtol=1e-15)
    np.testing.assert_allclose(desc.holes.coeffs, shapes, rtol=1e-15)
    assert desc.holes.ratios == ratios
    assert desc.region.size == pytest.approx(region[0], rel=1e-15)
    assert desc.region.ball is region[1]
    # the table is built once and shared by every homothety copy
    assert geometry.scaled(desc, 1.7).holes is desc.holes


def test_infinite_a_string_and_flat_drum_tables():
    desc = geometry.a_string_set(1.0)
    j = np.arange(1.0, geometry._a_string_head(1.0))
    np.testing.assert_allclose(desc.holes.radii, 1 / (2 * j * (j + 1)), rtol=1e-15)  # ℓ_j = 1/(j(j+1))
    assert desc.region == (1.0, False)
    flat = geometry.flat_drum()
    assert flat.holes is None and flat.region is None
    with pytest.raises(ValueError, match="no hole table for kind 'flatDrum'"):
        geometry._hole_table(flat, 0.1)


@pytest.mark.parametrize("name", list(_EVERY_KIND) + ["flat drum"])
def test_scaling_round_trip_keeps_equality_and_hash(name):
    desc = geometry.flat_drum() if name == "flat drum" else _EVERY_KIND[name]()
    back = geometry.scaled(geometry.scaled(desc, 2.0), 0.5)
    assert back == desc and hash(back) == hash(desc)
    if desc.holes is not None and not geometry._truncated(desc):
        zeta.catalog_form(desc)
        hits = zeta._catalog_form.cache_info().hits
        assert zeta.catalog_form(back) is zeta.catalog_form(desc)
        assert zeta._catalog_form.cache_info().hits == hits + 2


# --- malformed drums are refused where they are built ----------------------------


@pytest.mark.parametrize("build, message", [
    (lambda: geometry.scaled(geometry.cantor_set(2, 1 / 3), math.nan), "scale must be positive"),
    (lambda: geometry.scaled(geometry.cantor_set(2, 1 / 3), math.inf), "scale must be positive"),
    (lambda: geometry.SetDescriptor(kind="cantor", ambient_dim=1, scale=math.nan),
     "scale must be positive"),
    (lambda: geometry.a_string_set(1.0, J=0), "J must be an integer >= 1"),
    (lambda: geometry.a_string_set(1.0, J=-3), "J must be an integer >= 1"),
    (lambda: geometry.cantor_set(2.5, 0.1), "m must be an integer >= 2"),
    (lambda: geometry.fractal_nest(0.5, 2.5), "K must be an integer >= 1"),
    (lambda: geometry.carpet(2.0), "ambient dimension 2 and 3"),
], ids=["scaled nan", "scaled inf", "scale nan", "J=0", "J=-3", "m=2.5", "K=2.5",
        "carpet 2.0"])
def test_malformed_drum_is_refused_at_construction(build, message):
    with pytest.raises(ValueError, match=message):
        build()


# --- invariants under homothety and monotonicity -----------------------------------


_CATALOG = (
    lambda: geometry.cantor_set(2, 1 / 3),
    lambda: geometry.cantor_set(3, 0.2),
    lambda: geometry.carpet(2),
    lambda: geometry.carpet(3),
    lambda: geometry.a_string_set(1.0),
    lambda: geometry.fractal_nest(0.5, 40),
    lambda: geometry.box_boundary(2),
)


@settings(max_examples=40, deadline=None)
@given(idx=st.integers(0, len(_CATALOG) - 1),
       lam=st.floats(0.1, 10.0),
       t=st.floats(1e-6, 0.9))
def test_tube_volume_scaling_equivariance(idx, lam, t):
    desc = _CATALOG[idx]()
    big = geometry.scaled(desc, lam)
    v0 = geometry.tube_volume(desc, t)
    v1 = geometry.tube_volume(big, lam * t)
    assert v1 == pytest.approx(lam ** desc.ambient_dim * v0, rel=1e-9, abs=1e-300)


@settings(max_examples=40, deadline=None)
@given(idx=st.integers(0, len(_CATALOG) - 1),
       t1=st.floats(1e-6, 0.9), t2=st.floats(1e-6, 0.9))
def test_tube_volume_monotone_and_bounded(idx, t1, t2):
    desc = _CATALOG[idx]()
    lo, hi = min(t1, t2), max(t1, t2)
    vlo, vhi = geometry.tube_volume(desc, lo), geometry.tube_volume(desc, hi)
    assert vlo <= vhi * (1 + 1e-12)
    assert vhi <= geometry.region_volume(desc) * (1 + 1e-12)


# every catalog kind, and whether it has a full tube
_KINDS = [(build, True) for build in _CATALOG] + [
    (geometry.flat_drum, False),
    (lambda: geometry.a_string_set(0.5, 20), True),
    (lambda: geometry.box_boundary(3), True),
    (lambda: geometry.scaled(geometry.carpet(2), 3.0), True),
]
_KIND_IDS = ["cantor", "C(3,0.2)", "carpet2", "carpet3", "astring", "nest", "box2", "flat",
             "astring J=20", "box3", "3 carpet2"]


@pytest.mark.parametrize("build, has_full", _KINDS, ids=_KIND_IDS)
def test_tube_volume_refuses_non_finite_t(build, has_full):
    # t = inf read as "every t is 0" and gave 0.0; nan gave nan
    desc = build()
    for full in (False, True) if has_full else (False,):
        for t in (math.inf, math.nan, -math.inf):
            with pytest.raises(ValueError, match="t must be finite"):
                geometry.tube_volume(desc, t, full=full)
            with pytest.raises(ValueError, match="t must be finite"):
                geometry.tube_volume(desc, np.array([0.1, t, 0.5]), full=full)


@pytest.mark.parametrize("build, has_full", _KINDS, ids=_KIND_IDS)
def test_relative_tube_volume_saturates_at_huge_t(build, has_full):
    # rows all saturated made 0·t^m = 0·∞ = nan: carpet2, the nest and the box
    # at t = 1e300, carpet3 at 1e150; the infinite a-string at 2t > 2^1024
    desc = build()
    ts = np.array([10.0, 1e100, 1e150, 1e300, 1.7976931348623157e308])
    whole = geometry.tube_volume(desc, 10.0)
    assert whole == pytest.approx(geometry.region_volume(desc), rel=1e-12)
    assert geometry.tube_volume(desc, ts).tolist() == [whole] * len(ts)
    assert [geometry.tube_volume(desc, t) for t in ts] == [whole] * len(ts)


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(0.2, 5.0), x=st.floats(-0.5, 1.5))
def test_distance_scaling_equivariance(lam, x):
    desc = geometry.cantor_set(2, 1 / 3)
    big = geometry.scaled(desc, lam)
    assert geometry.distance(big, lam * x) == pytest.approx(
        lam * geometry.distance(desc, x), rel=1e-12, abs=1e-300)


# --- radial law of the Monte Carlo strata ------------------------------------


def _radial_points() -> np.ndarray:
    # the ends of [0, 1) and 10^4 points on numpy's 2^-53 grid of uniforms: half
    # as drawn, half log-spaced down to 2^-53
    ends = [0.0, 2.0**-53, 0.5, 1.0 - 2.0**-52, 1.0 - 2.0**-53]
    drawn = np.random.default_rng(5).random(5000)
    spread = np.round(np.logspace(-53.0 * math.log10(2.0), 0.0, 5000, endpoint=False) * 2.0**53)
    return np.concatenate((ends, drawn, spread * 2.0**-53))


@pytest.mark.parametrize("degree", [1, 2, 3, -1, -2, -3])
def test_radial_matches_mpmath(degree):
    # log(1 - u^{1/k}) in a hole of degree k, log(1 - u)/j in the collar's power
    # j = -degree, one degree for all points and one per point alike
    u = _radial_points()
    with mp.workdps(40):
        if degree > 0:
            ref = np.array([float(mp.log(1 - mp.root(mp.mpf(x), degree))) for x in u])
        else:
            ref = np.array([float(mp.log(1 - mp.mpf(x)) / -degree) for x in u])
    bound = 4.0 * 2.0**-52 * np.maximum(1.0, np.abs(ref))
    for deg in (float(degree), np.full(len(u), float(degree))):
        got = geometry._radial(u.copy(), deg)
        assert np.all(np.abs(got - ref) <= bound), (deg, np.max(np.abs(got - ref) / bound))
