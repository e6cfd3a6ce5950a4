"""Geometry layer: tube volumes, distances, breakpoints, saturation.

Expected values come from routes independent of the implementation: exact
rationals derived from the hole ladders by hand, interval-construction
covers, high-precision quadrature (mpmath), and seeded Monte Carlo counts.
"""
import math
from fractions import Fraction

import mpmath as mp
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalzeta import geometry
from fractalzeta.geometry import FractalString

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


def test_generalized_cantor_tube_exact():
    # m=3, a=1/5: h = (1 - 3/5)/2 = 1/5, two gaps per block
    desc = geometry.cantor_set(3, 0.2)
    assert desc.gap_width == pytest.approx(0.2, rel=1e-15)
    # 2t = 1/10 < h: level 1 contributes 2 * (2t), deeper levels scale by 3a
    t = 0.05
    level = lambda k: 2 * 3 ** (k - 1) * min(0.2 * 0.2 ** (k - 1), 2 * t)
    expected = sum(level(k) for k in range(1, 40))
    expected += geometry.tube_volume(desc, 0.0)  # zero, keeps intent clear
    tail = desc.ladder.total_volume * desc.ladder.volume_ratio ** 39
    assert geometry.tube_volume(desc, t) == pytest.approx(expected + tail, rel=1e-12)


# --- interval-construction oracle ---------------------------------------------


def _cantor_intervals(m: int, a: float, depth: int):
    desc = geometry.cantor_set(m, a)
    span = a + desc.gap_width
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


def _flat_tube_mp(t):
    mp.mp.dps = 40
    tm = mp.mpf(t)
    top = min(tm, mp.mpf(1))

    def gap(x):
        rad = tm ** 2 - x ** 2
        if rad <= 0:
            return mp.mpf(1)
        return mp.e ** (-1 / x) - mp.sqrt(rad)

    lo, hi = tm * mp.mpf("1e-6"), top * (1 - mp.mpf("1e-30"))
    crossing = None
    if gap(lo) < 0 and gap(hi) > 0:
        for _ in range(200):
            mid = (lo + hi) / 2
            if gap(mid) > 0:
                hi = mid
            else:
                lo = mid
        crossing = (lo + hi) / 2

    def integrand(x):
        if x <= 0:
            return mp.mpf(0)
        return min(mp.e ** (-1 / x), mp.sqrt(max(tm ** 2 - x ** 2, mp.mpf(0))))

    pts = [mp.mpf(0), crossing, top] if crossing is not None else [mp.mpf(0), top]
    return mp.quad(integrand, pts)


def test_flat_drum_log_tube_matches_mpmath():
    desc = geometry.flat_drum()
    for t in (0.3, 0.1, 0.05, 0.02, 0.9, 1.2):
        ref = float(mp.log(_flat_tube_mp(t)))
        assert geometry.log_tube_volume(desc, t) == pytest.approx(ref, abs=1e-9)


def test_flat_drum_region_volume_matches_mpmath():
    mp.mp.dps = 30
    ref = float(mp.quad(lambda x: mp.e ** (-1 / x) if x > 0 else mp.mpf(0),
                        [0, 1]))
    desc = geometry.flat_drum()
    assert geometry.region_volume(desc) == pytest.approx(ref, rel=1e-12)


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


def _tube_mp(desc, t, full):
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
    lad = desc.ladder
    count, g, a = mp.mpf(lad.first_count), lam * mp.mpf(lad.first_gap), mp.mpf(lad.gap_ratio)
    vol = mp.mpf(0)
    while g > 2 * t:
        vol += count * cube(g)
        count, g = count * lad.count_ratio, g * a
    # every narrower hole is covered: a geometric series of ratio m·a^n
    return vol + count * g**n / (1 - lad.count_ratio * a**n) + collar


_ORACLE_TS = np.logspace(-12, 0, 17)


@pytest.mark.parametrize("full", [False, True])
@pytest.mark.parametrize("lam", [1.0, 1.7])
@pytest.mark.parametrize("name", list(_EVERY_KIND))
def test_tube_volume_matches_hole_by_hole_oracle(name, lam, full):
    desc = geometry.scaled(_EVERY_KIND[name](), lam)
    want = np.array([float(_tube_mp(desc, t, full)) for t in _ORACLE_TS])
    got = geometry.tube_volume(desc, _ORACLE_TS, full=full)
    assert np.max(np.abs(got / want - 1)) <= 1e-13
    scalar = np.array([geometry.tube_volume(desc, t, full=full) for t in _ORACLE_TS])
    assert np.max(np.abs(scalar / want - 1)) <= 1e-13


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


def test_gap_ladder_validation_raises():
    # a raised error, unlike an assert, survives python -O
    with pytest.raises(ValueError):
        geometry.GapLadder(1, 1, 0.5, 0.5, 1)


def test_similarity_dims():
    assert geometry.cantor_set(2, 1 / 3).similarity_dim == pytest.approx(LN2 / LN3)
    assert geometry.carpet(2).similarity_dim == pytest.approx(math.log(8) / LN3)
    assert geometry.carpet(3).similarity_dim == pytest.approx(math.log(26) / LN3)
    assert geometry.a_string_set(1.0).similarity_dim == pytest.approx(0.5)
    assert geometry.fractal_nest(0.5, 10).similarity_dim == pytest.approx(4 / 3)
    assert geometry.box_boundary(3).similarity_dim == 2.0


def test_ladder_depth_for_brackets_resolution():
    ladder = geometry.cantor_set(3, 0.2).ladder
    for t in (0.03, 1e-3, 1e-7):
        k0 = ladder.depth_for(t)
        assert ladder.gap(k0 + 1) <= 2 * t
        if k0 > 0:
            assert ladder.gap(k0) > 2 * t


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


@settings(max_examples=30, deadline=None)
@given(lam=st.floats(0.2, 5.0), x=st.floats(-0.5, 1.5))
def test_distance_scaling_equivariance(lam, x):
    desc = geometry.cantor_set(2, 1 / 3)
    big = geometry.scaled(desc, lam)
    assert geometry.distance(big, lam * x) == pytest.approx(
        lam * geometry.distance(desc, x), rel=1e-12, abs=1e-300)
