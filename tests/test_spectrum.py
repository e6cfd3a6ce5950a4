"""Pole extraction, residues, scaling-equation roots, Fourier route.

Residues are pinned to exact rational/logarithmic closed forms computed by
hand from the catalog zeta expressions, and cross-checked through contour
integration and tube-profile Fourier coefficients.
"""
import cmath
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy.optimize import brentq

from fractalzeta import geometry, quasi, spectrum, zeta
from fractalzeta.spectrum import (PoleSet, Window, poles, residue_analytic,
                                  residue_contour, residue_exact, spray_dims,
                                  window_for_lattice)

LN2 = math.log(2.0)
LN3 = math.log(3.0)
D_CANTOR = LN2 / LN3
D_CARPET2 = math.log(8.0) / LN3
D_CARPET3 = math.log(26.0) / LN3


# --- exact residues at integer poles ----------------------------------------------


def test_carpet2_exact_residues_at_integers():
    form = zeta.catalog_form(geometry.carpet(2))
    assert residue_exact(form, 0) == Fraction(8, 7)
    assert residue_exact(form, 1) == Fraction(-4, 5)


def test_carpet3_exact_residues_at_integers():
    form = zeta.catalog_form(geometry.carpet(3))
    assert residue_exact(form, 0) == Fraction(-24, 25)
    assert residue_exact(form, 1) == Fraction(24, 23)
    assert residue_exact(form, 2) == Fraction(-6, 17)


def test_cantor_exact_residue_at_zero():
    form = zeta.catalog_form(geometry.cantor_set(2, 1 / 3))
    assert residue_exact(form, 0) == Fraction(-2, 1)


def test_residue_exact_rejects_non_integer_pole():
    form = zeta.MeromorphicForm((zeta.ZetaTerm(coeffs=(1,), roots=(Fraction(1, 2),)),))
    with pytest.raises(ValueError):
        residue_exact(form, Fraction(1, 2))


def test_residues_sum_the_numerator_over_scales():
    # (1·(1/2 / 2)^s + 3·(4/2)^s) / (s(s - 1)) has residue 1/4 + 6 at s = 1
    term = zeta.ZetaTerm(coeffs=(1, 3), scales=(Fraction(1, 2), 4), base=2, roots=(0, 1))
    form = zeta.MeromorphicForm((term,))
    assert residue_exact(form, 1) == Fraction(25, 4)
    assert residue_exact(form, 0) == -4
    assert residue_analytic(form, 1.0) == pytest.approx(6.25, rel=1e-15)


def test_residue_exact_is_zero_off_poles():
    form = zeta.catalog_form(geometry.carpet(2))
    assert residue_exact(form, 3) == 0


def test_analytic_residue_matches_exact():
    form = zeta.catalog_form(geometry.carpet(2))
    assert residue_analytic(form, 0.0 + 0.0j) == pytest.approx(8 / 7, rel=1e-12)
    assert residue_analytic(form, 1.0 + 0.0j) == pytest.approx(-4 / 5, rel=1e-12)


# --- principal poles of the carpet -------------------------------------------------


def test_carpet2_principal_poles_on_dimension_line():
    form = zeta.catalog_form(geometry.carpet(2))
    # tight sigma pad keeps the generator root pole at s = 1 outside
    w = window_for_lattice(D_CARPET2, LN3, 3, sigma_pad=0.05)
    ps = poles(form, w)
    period = 2.0 * math.pi / LN3
    expected = [complex(D_CARPET2, k * period) for k in range(-3, 4)]
    assert len(ps) == 7
    for got, want in zip(ps.omega, expected):
        assert got == pytest.approx(want, abs=1e-12)


def test_carpet2_residue_at_dimension_closed_form():
    form = zeta.catalog_form(geometry.carpet(2))
    w = window_for_lattice(D_CARPET2, LN3, 0, sigma_pad=0.05)
    (res,) = poles(form, w).residue
    want = 2.0 ** (-D_CARPET2) / (D_CARPET2 * (D_CARPET2 - 1.0) * LN3)
    assert want == pytest.approx(0.14505008370361427, rel=1e-15)
    assert res.real == pytest.approx(want, rel=1e-12)
    assert res.imag == pytest.approx(0.0, abs=1e-14)


def test_carpet2_conjugate_poles_have_conjugate_residues():
    form = zeta.catalog_form(geometry.carpet(2))
    ps = poles(form, window_for_lattice(D_CARPET2, LN3, 2))
    by_tau = {round(tau, 9): res for tau, res in zip(ps.omega.imag.tolist(), ps.residue.tolist())}
    for tau, res in by_tau.items():
        assert by_tau[-tau] == pytest.approx(res.conjugate(), rel=1e-12)


def test_full_cantor_zero_pole_is_removable():
    # the collar term contributes +2 at s = 0, cancelling the -2 from the
    # ladder part: the gross pole must be dropped from the reported list
    desc = geometry.cantor_set(2, 1 / 3)
    form = zeta.catalog_form(desc, full=True, delta=1 / 6)
    w = Window(-0.5, 1.0, 1.0)
    ps = poles(form, w)
    assert np.all(np.abs(ps.omega) > 1e-9)
    assert residue_analytic(form, 0.0 + 0.0j) == pytest.approx(0.0, abs=1e-10)
    rel_form = zeta.catalog_form(desc)
    assert np.any(np.abs(poles(rel_form, w).omega) <= 1e-9)


def test_contour_residue_matches_analytic():
    form = zeta.catalog_form(geometry.carpet(2))
    for omega in (complex(D_CARPET2), complex(D_CARPET2, 2 * math.pi / LN3), 1.0 + 0.0j):
        ra = residue_analytic(form, omega)
        rc = residue_contour(form.value, omega, radius=0.3)
        assert rc == pytest.approx(ra, rel=1e-9)


def test_contour_residue_rejects_grazing_radius():
    # radius equal to the lattice spacing puts neighbor poles on the contour
    form = zeta.catalog_form(geometry.carpet(2))
    with pytest.raises(ValueError):
        residue_contour(form.value, complex(D_CARPET2), radius=2 * math.pi / LN3)


# --- scaling-equation roots (complex dimensions of sprays) --------------------------


def test_spray_dims_lattice_pair():
    # ratios (1/2, 1/4, 1/4): 2^{-s} + 2*4^{-s} = 1 has the explicit solution
    # set {0 + i pi/ln2 + lattice, 1 + lattice} with lattice step 2 pi/ln2
    w = Window(-0.5, 1.5, 10.0)
    ps = spray_dims((0.5, 0.25, 0.25), w)
    step = 2.0 * math.pi / LN2
    expected = sorted([
        complex(0.0, -0.5 * step), complex(0.0, 0.5 * step),
        complex(1.0, -step), complex(1.0, 0.0), complex(1.0, step),
    ], key=lambda z: (z.real, z.imag))
    got = sorted(ps.omega.tolist(), key=lambda z: (z.real, z.imag))
    assert len(got) == len(expected)
    for g, e in zip(got, expected):
        assert g == pytest.approx(e, abs=1e-10)
    (res_at_1,) = ps.residue[np.abs(ps.omega - 1.0) < 1e-9]
    assert res_at_1 == pytest.approx(2.0 / (3.0 * LN2), rel=1e-10)


def test_spray_dims_golden_pair_real_root():
    # 2^{-s} + 4^{-s} = 1 means 2^{-s} is the golden-ratio conjugate
    ps = spray_dims((0.5, 0.25), Window(0.1, 1.0, 0.5))
    (root,) = ps.omega[np.abs(ps.omega.imag) < 1e-12]
    want = math.log2((1.0 + math.sqrt(5.0)) / 2.0)
    assert root.real == pytest.approx(want, rel=1e-12)


def test_spray_dims_nonlattice_real_root_matches_bisection():
    ratios = (0.5, 1.0 / 3.0)
    f = lambda x: 0.5 ** x + (1.0 / 3.0) ** x - 1.0
    want = brentq(f, 0.5, 1.0, xtol=1e-14)
    ps = spray_dims(ratios, Window(0.2, 1.0, 0.5))
    real = np.abs(ps.omega.imag) < 1e-12
    (root,), (res,) = ps.omega[real], ps.residue[real]
    assert root.real == pytest.approx(want, abs=1e-12)
    # Moran equation residue: 1 / sum r^w ln(1/r)
    den = sum(r ** want * math.log(1.0 / r) for r in ratios)
    assert res == pytest.approx(1.0 / den, rel=1e-10)


def test_spray_dims_roots_satisfy_moran_equation():
    w = Window(-0.5, 1.5, 25.0)
    for ratios in ((0.5, 0.25, 0.25), (0.5, 0.25), 8 * (1 / 3,)):
        for omega in spray_dims(ratios, w).omega.tolist():
            val = sum(r ** omega for r in ratios)
            assert abs(val - 1.0) < 1e-10


def _count_zeros(ratios, sl, sr, tau):
    """Zeros of 1 - sum r^s in [sl, sr] x [-tau, tau], by the winding of f
    along the boundary; a sample step that turns f by 0.3 rad or more is
    halved, and the test fails rather than guess when f nearly vanishes."""
    logs = np.log(np.asarray(ratios, dtype=float))
    corners = [complex(sl, -tau), complex(sr, -tau), complex(sr, tau), complex(sl, tau)]
    path = np.concatenate([np.linspace(p, q, int(abs(q - p) / 0.01) + 2)[:-1]
                           for p, q in zip(corners, corners[1:] + corners[:1])] + [corners[:1]])
    for _ in range(40):
        f = 1.0 - np.exp(np.multiply.outer(path, logs)).sum(axis=-1)
        assert np.abs(f).min() > 1e-9, "a zero lies on the boundary"
        turn = np.angle(f[1:] / f[:-1])
        coarse = np.abs(turn) >= 0.3
        if not coarse.any():
            return round(turn.sum() / (2.0 * math.pi))
        path = np.insert(path, np.flatnonzero(coarse) + 1, 0.5 * (path[:-1] + path[1:])[coarse])
    raise AssertionError("boundary sampling did not settle")


@pytest.mark.parametrize("ratios, count", [((0.5, 1 / 3), 71), ((0.5, 0.2), 103),
                                           ((0.4, 0.3, 0.2), 91)])
def test_spray_dims_nonlattice_finds_every_counted_root(ratios, count):
    w = Window(-1.0, 0.99, 200.0)
    ps = spray_dims(ratios, w)
    assert _count_zeros(ratios, -1.0, 0.99, 200.0) == count
    assert len(ps) == count
    got = ps.omega
    assert all(w.contains(z) for z in got)
    assert max(abs(sum(r ** z for r in ratios) - 1.0) for z in got) < 1e-10
    # the set is closed under conjugation and has no repeats
    assert all(np.min(np.abs(got - z.conjugate())) < 1e-12 for z in got)
    assert min(abs(x - y) for i, x in enumerate(got) for y in got[:i]) > 1e-6


def _root_above(ratios, tau):
    omega = spray_dims(ratios, Window(-1.0, 0.99, tau + 5.0)).omega
    return complex(min(omega[omega.imag > tau], key=lambda z: z.imag))


def test_spray_dims_keeps_root_on_window_top_edge():
    z = _root_above((0.5, 1 / 3), 10.0)
    ps = spray_dims((0.5, 1 / 3), Window(-1.0, 0.99, z.imag))
    assert np.any(np.abs(ps.omega - z) < 1e-9)
    assert np.any(np.abs(ps.omega - z.conjugate()) < 1e-9)


def test_spray_dims_keeps_dimension_on_window_right_edge():
    ratios = (0.5, 1 / 3)
    dim = brentq(lambda x: 0.5 ** x + (1.0 / 3.0) ** x - 1.0, 0.5, 1.0, xtol=1e-15)
    for w in (Window(0.2, dim, 0.5), Window(-1.0, dim, 30.0)):
        ps = spray_dims(ratios, w)
        assert np.any(np.abs(ps.omega - dim) < 1e-12)
        assert len(ps) == _count_zeros(ratios, -1.0 if w.tau_max > 1 else 0.2, dim + 1e-3,
                                       w.tau_max)


@pytest.mark.parametrize("where", ["top", "left", "right", "inner"])
def test_spray_dims_moves_counting_edges_off_roots(where):
    # place a root exactly on an edge of the rectangle the zeros are counted
    # on, which reaches spectrum._MARGIN past the window; the count still
    # matches the independent one
    ratios = (0.5, 1 / 3)
    z = _root_above(ratios, 10.0)
    m = spectrum._MARGIN
    sl, sr, tau = -1.0, 0.99, 30.0
    if where == "top":
        tau = z.imag - m
    elif where == "left":
        sl = z.real + m
    elif where == "right":
        sr = z.real - m
    else:  # a strip boundary 0.5 + k (top - 0.5) / n inside the window
        n = math.ceil(tau + m - 0.5)
        k = round((z.imag - 0.5) / (tau + m - 0.5) * n)
        tau = 0.5 + (z.imag - 0.5) * n / k - m
    ps = spray_dims(ratios, Window(sl, sr, tau))
    assert len(ps) == _count_zeros(ratios, sl, sr, tau)
    assert np.any(np.abs(ps.omega - z) < 1e-9) == (where == "inner")


def test_spray_dims_raises_when_a_counted_root_is_not_found(monkeypatch):
    ratios = (0.5, 1 / 3)
    lost = _root_above(ratios, 10.0)
    seed_roots = spectrum._seed_roots

    def lossy(*args):
        z = seed_roots(*args)
        return z[np.abs(z - lost) > 1e-6]

    monkeypatch.setattr(spectrum, "_seed_roots", lossy)
    with pytest.raises(zeta.NonconvergenceError, match="Im s in"):
        spray_dims(ratios, Window(-1.0, 0.99, 20.0))


def _reference_spray_dims(ratios, w):
    """spray_dims root by root: the companion-polynomial branches (lattice)
    or the counted nonlattice roots, 40 plain Newton steps on each, a root
    kept unless one kept before lies within 1e-9, one residue per root."""
    rs = np.asarray(sorted(ratios, reverse=True), dtype=float)
    lattice = spectrum._commensurable_exponents(rs)
    roots = []
    if lattice is None:
        roots = list(spectrum._nonlattice_roots(rs, w))
    else:
        rho, ks = lattice
        deg = max(ks)
        poly = np.zeros(deg + 1)
        poly[deg] = -1.0
        for k in ks:
            poly[deg - k] += 1.0
        lrho = math.log(rho)
        spacing = -2.0 * math.pi / lrho
        for z in np.roots(poly):
            sigma = math.log(abs(z)) / lrho
            if not (w.sigma_left - 0.1 <= sigma <= w.sigma_right + 0.1):
                continue
            base_tau = -cmath.phase(z) / lrho
            nmin = int(math.ceil((-w.tau_max - base_tau) / spacing - 1e-9))
            nmax = int(math.floor((w.tau_max - base_tau) / spacing + 1e-9))
            roots += [complex(sigma, base_tau + spacing * n) for n in range(nmin, nmax + 1)]
    z = np.array(roots, dtype=complex)
    logs = np.log(rs)
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(40):
            e = np.exp(np.multiply.outer(z, logs))
            fp = (e * logs).sum(axis=-1)
            step = np.where(np.abs(fp) > 1e-300, (e.sum(axis=-1) - 1.0) / np.where(fp == 0, 1.0, fp), 0.0)
            z = z - np.where(np.isfinite(step), step, 0.0)
    out, seen = [], []
    for zz in z:
        if not w.contains(zz, slack=1e-9) or any(abs(zz - u) < 1e-9 for u in seen):
            continue
        seen.append(zz)
        out.append((complex(zz), 1.0 / complex((np.exp(np.multiply.outer(zz, logs)) * -logs).sum())))
    return out


_SPRAY_WINDOWS = [(8 * (1 / 3,), Window(-1.0, 2.5, 998.0)),
                  ((0.5, 0.25, 0.25), Window(-1.0, 2.0, 800.0)),
                  ((0.5, 1 / 3), Window(-1.0, 0.99, 200.0)),
                  ((0.4, 0.3, 0.2), Window(-1.0, 0.99, 200.0))]


@pytest.mark.parametrize("ratios, w", _SPRAY_WINDOWS)
def test_spray_dims_matches_per_root_reference(ratios, w):
    # the phase of r^w carries an error of about |Im w| ulps, hence the bounds
    ps = spray_dims(ratios, w)
    ref = _reference_spray_dims(ratios, w)
    assert len(ps) == len(ref) > 0
    match = [int(np.argmin(np.abs(ps.omega - omega))) for omega, _ in ref]
    assert sorted(match) == list(range(len(ps)))
    for i, (omega, res) in zip(match, ref):
        assert abs(ps.omega[i] - omega) <= 1e-14 * max(1.0, abs(omega))
        assert abs(ps.residue[i] - res) <= 1e-11 * abs(res)


@pytest.mark.parametrize("ratios, w", _SPRAY_WINDOWS)
def test_spray_dims_ordered_like_poles(ratios, w):
    # real parts within 1e-9 are one group, sorted by Im; the groups by Re
    zs = spray_dims(ratios, w).omega.tolist()
    for p, q in zip(zs, zs[1:]):
        if abs(q.real - p.real) <= 1e-9:
            assert q.imag > p.imag, (p, q)
        else:
            assert q.real > p.real, (p, q)


def _arg_changes_per_piece(z0, z1, logs):
    """The certified arg changes as first written: every round evaluates f, its
    rounding bound and the |f'| bound afresh at both ends of every piece."""
    eps = 2.0 ** -52

    def rounding(z):
        pw = np.exp(np.multiply.outer(z.real, logs))
        return 4.0 * eps * (1.0 + (pw * (np.multiply.outer(np.abs(z), -logs) + 2.0)).sum(axis=-1))

    def split(za, zb, k):
        parent = np.repeat(np.arange(len(k)), k)
        j = np.arange(len(parent)) - np.repeat(np.cumsum(k) - k, k)
        kk, d = k[parent], (zb - za)[parent]
        start = za[parent] + d * (j / kk)
        end = np.where(j + 1 == kk, zb[parent], za[parent] + d * ((j + 1) / kk))
        return start, end, parent

    total = np.zeros(len(z0))
    near = np.zeros(len(z0), dtype=bool)
    za, zb, owner = split(z0, z1, np.maximum(1, np.ceil(np.abs(z1 - z0) / 0.25)).astype(int))
    for _ in range(60):
        fa, fb = spectrum._scaling_f(za, logs), spectrum._scaling_f(zb, logs)
        slope = np.exp(np.multiply.outer(np.minimum(za.real, zb.real), logs)) @ -logs
        room = np.maximum(np.abs(fa), np.abs(fb)) - np.maximum(rounding(za), rounding(zb))
        length = np.abs(zb - za)
        ok = length * slope < room
        np.add.at(total, owner[ok], np.angle(fb[ok] / fa[ok]))
        near[owner[~ok & (room < spectrum._NEAR * slope)]] = True
        rest = ~ok & ~near[owner]
        if not rest.any():
            break
        k = np.clip(np.ceil(1.25 * length[rest] * slope[rest] / room[rest]), 2, 1024).astype(int)
        za, zb, parent = split(za[rest], zb[rest], k)
        owner = owner[rest][parent]
    else:
        near[owner] = True
    total[near] = np.nan
    return total


def _edge_cases():
    """Ratio lists with 2-4 ratios and 20 segments each: random ones, and ones
    through or next to a zero (within 1e-12 to 1e-2 of it) that graze it."""
    rng = np.random.default_rng(40)
    cases = []
    while len(cases) < 10:
        logs = np.log(np.sort(rng.uniform(0.1, 0.8, rng.integers(2, 5)))[::-1])
        roots = spray_dims(np.exp(logs), Window(-2.0, 2.0, 30.0)).omega
        if not roots.size:
            continue
        z0 = rng.uniform(-2.0, 2.0, 20) + 1j * rng.uniform(-40.0, 40.0, 20)
        step = rng.uniform(-3.0, 3.0, 20) + 1j * rng.uniform(-3.0, 3.0, 20)
        # half of them pass a root: it splits them at a random place, offset
        # across the segment by 0 or 1e-12 .. 1e-2
        at = rng.choice(roots, 10)
        off = np.where(rng.random(10) < 0.2, 0.0, 10.0 ** rng.uniform(-12.0, -2.0, 10))
        across = 1j * step[10:] / np.abs(step[10:]) * off
        z0[10:] = at + across - rng.uniform(0.1, 0.9, 10) * step[10:]
        cases.append((logs, z0, z0 + step))
    return cases


def test_arg_changes_match_the_per_piece_evaluation():
    # each node evaluated once gives the totals, bit for bit, that evaluating
    # f at both ends of every piece gave, nan where a segment grazes a zero
    grazed = 0
    for logs, z0, z1 in _edge_cases():
        got, want = spectrum._arg_changes(z0, z1, logs), _arg_changes_per_piece(z0, z1, logs)
        assert np.array_equal(got, want, equal_nan=True), (logs, got - want)
        grazed += np.isnan(want).sum()
    assert 0 < grazed < 100  # some segments graze a zero, most do not


def test_arg_changes_of_many_segments_in_one_call():
    # segments refined together give the totals they give one by one
    for logs, z0, z1 in _edge_cases():
        alone = [spectrum._arg_changes(z0[i:i + 1], z1[i:i + 1], logs)[0] for i in range(len(z0))]
        assert np.array_equal(spectrum._arg_changes(z0, z1, logs), alone, equal_nan=True)
    empty = np.zeros(0, dtype=complex)
    assert spectrum._arg_changes(empty, empty, np.log([0.5, 0.25])).shape == (0,)


@pytest.mark.parametrize("ratios, count, first, dim, residue", [
    ((0.5, 1 / 3), 69, ("-0x1.fea323e3701bap-1", "-0x1.073ba7dfed9e1p+7"),
     "0x1.9365a6abbc67fp-1", "0x1.28600ef25b1b3p+0"),
    ((0.5, 0.2), 103, ("-0x1.20a5056399123p-1", "-0x1.191cd38c1af80p+7"),
     "0x1.4707c3072014ap-1", "0x1.f5818bd955f84p-1"),
    ((0.4, 0.3, 0.2), 91, ("-0x1.c5b105ec9503dp-1", "-0x1.622e064181821p+7"),
     "0x1.d1df6ab9eb85fp-1", "0x1.b4953864cbfc1p-1"),
])
def test_spray_dims_pinned_on_the_benchmark_windows(ratios, count, first, dim, residue):
    # recorded from the per-piece evaluation on numpy 2.4, x86-64: they assume
    # numpy's exp, log and matmul give the same bits as they did there
    ps = spray_dims(ratios, Window(-1.0, 0.99, 199.75))
    assert len(ps) == count
    assert (ps.omega[0].real.hex(), ps.omega[0].imag.hex()) == first
    real = ps.omega.imag == 0
    assert ps.omega[-1] == ps.omega[real][0] == float.fromhex(dim)
    assert ps.residue[real][0] == float.fromhex(residue)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, 0.0, 1.0])
def test_spray_dims_refuses_ratios_outside_the_unit_interval(bad):
    # nan passed the old test (r <= 0 or r >= 1) and failed later on
    # "cannot convert float NaN to integer"
    with pytest.raises(ValueError, match=r"ratios must lie in \(0, 1\)"):
        spray_dims((0.5, bad), Window(-1.0, 1.0, 5.0))


def test_commensurable_exponent_detection():
    arr = lambda *xs: np.asarray(xs, dtype=float)
    assert spectrum._commensurable_exponents(arr(0.5, 0.25, 0.125)) is not None
    assert spectrum._commensurable_exponents(arr(0.5, 1 / 3)) is None
    base = spectrum._commensurable_exponents(arr(0.5, 0.25))
    assert base is not None
    r, ks = base
    assert [r ** k for k in ks] == pytest.approx([0.5, 0.25], rel=1e-12)


# --- Fourier route to residues --------------------------------------------------------


def test_fourier_residues_match_tube_zeta_residues():
    # the full cantor tube is exactly log-periodic, so the Fourier modes of
    # t^{D-N} V(t) give the tube-zeta residues along the dimension line
    desc = geometry.cantor_set(2, 1 / 3)
    form = zeta.catalog_form(desc, full=True, delta=1 / 6)
    period = LN3
    tube = lambda t: geometry.tube_volume(desc, t, full=True)
    got = dict(spectrum.fourier_residues(tube, 1, D_CANTOR, period, kmax=2,
                                         tau0=math.log(6.0)))
    step = 2.0 * math.pi / period
    for k in range(-2, 3):
        omega = complex(D_CANTOR, k * step)
        want = residue_analytic(form, omega) / (1.0 - omega)  # tube-zeta residue
        assert got[k] == pytest.approx(want, rel=2e-5)
    assert got[-1] == pytest.approx(got[1].conjugate(), rel=1e-9)
    assert got[0].imag == pytest.approx(0.0, abs=1e-12)


def test_fourier_residues_match_per_mode_reference():
    # one exp per mode, as the coefficients were computed before powers of a
    # single phase array; the k-th power carries about k ulps of each node
    desc = geometry.cantor_set(2, 1 / 3)
    tube = lambda t: geometry.tube_volume(desc, t, full=True)
    kmax, tau0 = 40, math.log(6.0)
    got = spectrum.fourier_residues(tube, 1, D_CANTOR, LN3, kmax=kmax, tau0=tau0)
    taus = tau0 + LN3 * np.arange(4096) / 4096
    g = tube(np.exp(-taus)) * np.exp((1.0 - D_CANTOR) * taus)
    assert [k for k, _ in got] == list(range(-kmax, kmax + 1))
    for k, ck in got:
        want = complex(np.mean(g * np.exp(-2j * math.pi * k * taus / LN3)))
        assert abs(ck - want) <= 4.0 * max(1, abs(k)) * 2.0 ** -52 * g.mean(), k


def test_fourier_residues_reject_nonperiodic_profile():
    # the relative cantor tube satisfies V(t/3) = (2/3)(t + V(t)): close to
    # periodic but with a linear defect the check must catch
    desc = geometry.cantor_set(2, 1 / 3)
    tube = lambda t: geometry.tube_volume(desc, t)
    with pytest.raises(ValueError):
        spectrum.fourier_residues(tube, 1, D_CANTOR, LN3, kmax=1,
                                  tau0=math.log(6.0))


# --- window and pole bookkeeping ---------------------------------------------------------


def test_window_contains_and_validation():
    w = Window(0.0, 2.0, 5.0)
    assert w.contains(1.0 + 4.0j)
    assert not w.contains(1.0 + 5.5j)
    assert not w.contains(-0.5 + 0.0j)
    assert w.contains(2.0 + 5.0j)  # boundary included via slack
    with pytest.raises(ValueError):
        Window(2.0, 0.0, 5.0)
    with pytest.raises(ValueError):
        Window(0.0, 2.0, -1.0)


def test_window_for_lattice_covers_requested_modes():
    w = window_for_lattice(D_CANTOR, LN3, 2)
    step = 2.0 * math.pi / LN3
    assert w.contains(complex(D_CANTOR, 2 * step))
    assert not w.contains(complex(D_CANTOR, 3 * step))
    assert w.sigma_left < D_CANTOR < w.sigma_right


def test_poles_sorted_and_within_window():
    form = zeta.catalog_form(geometry.carpet(2))
    w = Window(-0.5, 2.0, 12.0)
    ps = poles(form, w)
    keys = list(zip(ps.omega.real.tolist(), ps.omega.imag.tolist()))
    assert keys == sorted(keys)
    assert np.all(w.contains(ps.omega))
    assert np.any(np.abs(ps.omega - 1.0) < 1e-12)  # generator root pole
    assert np.any(np.abs(ps.omega - D_CARPET2) < 1e-12)


def test_poles_merge_a_shared_pole_placed_ulps_apart():
    # both components of a quasiperiodic pair have a lattice point at s = D,
    # but ln m / ln(1/a) rounds it to real parts 2 ulps apart
    dim, band = 0.7609917671103934, 23.469005473378267
    d1, d2 = quasi.two_qp_set(2, 3, dim, band=band).descriptors
    f1, f2 = zeta.catalog_form(d1), zeta.catalog_form(d2)
    w = Window(dim, dim, band)
    ps = poles(f1.plus(f2), w)
    assert len(ps) == len(poles(f1, w)) + len(poles(f2, w)) - 1 == 17
    taus = ps.omega.imag.tolist()
    assert taus == sorted(taus)
    real = ps.omega.imag == 0.0
    (omega,), (res,) = ps.omega[real], ps.residue[real]
    assert omega.real == pytest.approx(dim, rel=1e-15)
    # C(m, a) sums to 2(m-1)(h/2)^s / (s(1 - m a^s)): residue 2(m-1)(h/2)^D / (D ln(1/a))
    want = 0.0
    for m in (2, 3):
        a = m ** (-1.0 / dim)
        want += 2 * (m - 1) * ((1 - m * a) / (2 * (m - 1))) ** dim / (dim * math.log(1 / a))
    assert res == pytest.approx(want, rel=1e-13)


# (omega, residue) as each pole was built one at a time before poles came as
# arrays: carpet2 in [-0.5, 1.99] x [-12, 12], the spray (1/2, 1/3) in
# [-1, 0.99] x [-12, 12]
_CARPET2_POLES = [
    (0j, 1.1428571428571428 + 0j),
    (1 + 0j, -0.8 - 0j),
    (1.892789260714372 - 11.438403469520507j, -0.00030697241164675626 - 0.0018169458567408097j),
    (1.892789260714372 - 5.7192017347602535j, 0.006607300406715472 + 0.002398344796791602j),
    (1.892789260714372 + 0j, 0.14505008370361427 + 0j),
    (1.892789260714372 + 5.7192017347602535j, 0.006607300406715472 - 0.002398344796791602j),
    (1.892789260714372 + 11.438403469520507j, -0.00030697241164675626 + 0.0018169458567408097j),
]
_SPRAY_POLES = [
    (-0.6383199147460755 - 6.49851192136583j, 0.6496841019455378 - 0.32645761159851516j),
    (-0.6383199147460755 + 6.49851192136583j, 0.6496841019455378 + 0.32645761159851516j),
    (0.06310206604096867 - 10.497230045625937j, 0.9942157797602934 + 0.36455176716416526j),
    (0.06310206604096867 + 10.497230045625937j, 0.9942157797602934 - 0.36455176716416526j),
    (0.7878849110258698 + 0j, 1.1577157346429032 + 0j),
]


@pytest.mark.parametrize("find, window, empty, want", [
    (lambda w: poles(zeta.catalog_form(geometry.carpet(2)), w), Window(-0.5, 1.99, 12.0),
     Window(0.2, 0.3, 1.0), _CARPET2_POLES),
    (lambda w: spray_dims((0.5, 1 / 3), w), Window(-1.0, 0.99, 12.0),
     Window(0.85, 0.95, 1.0), _SPRAY_POLES),
], ids=["carpet2", "spray"])
def test_pole_set_is_two_aligned_complex_arrays(find, window, empty, want):
    ps = find(window)
    assert isinstance(ps, PoleSet)
    assert len(ps) == len(want) == ps.omega.size == ps.residue.size
    assert ps.omega.shape == ps.residue.shape == (len(want),)
    assert ps.omega.dtype == ps.residue.dtype == np.complex128
    # the phase of r^w and q^w carries about |Im w| ulps
    np.testing.assert_allclose(ps.omega, [w for w, _ in want], rtol=1e-14, atol=1e-14)
    np.testing.assert_allclose(ps.residue, [r for _, r in want], rtol=1e-13, atol=1e-16)
    none = find(empty)
    assert len(none) == 0
    assert none.omega.shape == none.residue.shape == (0,)
    assert none.omega.dtype == none.residue.dtype == np.complex128


def test_pole_set_coerces_and_refuses_misaligned_arrays():
    ps = PoleSet([0.5, 1.0 + 2.0j], (2.0, 0.5 - 0.25j))
    assert len(ps) == 2 and ps.omega.dtype == ps.residue.dtype == np.complex128
    assert ps.omega.tolist() == [0.5, 1.0 + 2.0j] and ps.residue.tolist() == [2.0, 0.5 - 0.25j]
    with pytest.raises(ValueError, match="one length"):
        PoleSet([0.5, 1.0], [2.0])
    with pytest.raises(ValueError, match="one length"):
        PoleSet([[0.5]], [[2.0]])
