"""Rational independence, quasiperiodic pole patterns, hyperfractal ladders.

Frozen gap values were computed by direct enumeration of the ordinate sets
(exact integer dedup of coincident powers, long-double accumulation).
"""
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fractalzeta import geometry, quasi
from fractalzeta.quasi import (DependenceError, exponent_vector, find_relation,
                               hyperfractal_truncation, ordinate_min_gap,
                               rationally_independent, two_qp_set)

LN2 = math.log(2.0)
LN3 = math.log(3.0)


# --- exponent vectors and exact linear algebra ---------------------------------------


def test_exponent_vector_basic():
    v = exponent_vector(12)
    assert v.primes[: 2] == (2, 3)
    assert v.on_support((2, 3)) == (2, 1)
    assert exponent_vector(2).on_support((2,)) == (1,)
    assert exponent_vector(360).on_support((2, 3, 5)) == (3, 2, 1)
    assert exponent_vector(30).on_support((2, 3, 5)) == (1, 1, 1)


def test_exponent_vector_validation():
    with pytest.raises(ValueError):
        exponent_vector(1)
    with pytest.raises(ValueError):
        exponent_vector(0)
    with pytest.raises(ValueError):
        exponent_vector(2.5)


def _vecs(*ms):
    return [exponent_vector(m) for m in ms]


def test_rational_independence_verdicts():
    assert rationally_independent(_vecs(2, 3)) is True
    assert rationally_independent(_vecs(2, 3, 5)) is True
    assert rationally_independent(_vecs(2, 4)) is False
    assert rationally_independent(_vecs(2, 3, 6)) is False
    assert rationally_independent(_vecs(4, 8)) is False
    assert rationally_independent(_vecs(4, 9, 36)) is False  # 4 * 9 = 36
    assert rationally_independent(_vecs(6, 10, 15)) is True
    assert rationally_independent(_vecs(6, 12)) is True


def test_find_relation_is_exact_annihilator():
    for ms in ((2, 4), (4, 9, 36), (4, 8)):
        rel = find_relation(_vecs(*ms))
        assert rel is not None
        assert any(c != 0 for c in rel)
        prod = Fraction(1)
        for m, c in zip(ms, rel):
            prod *= Fraction(m) ** c
        assert prod == 1  # exact multiplicative relation

    assert find_relation(_vecs(2, 3)) is None
    assert find_relation(_vecs(6, 12)) is None


# --- two-component quasiperiodic sets ---------------------------------------------------


def test_two_qp_set_exact_data():
    rep = two_qp_set(2, 3, 0.5)
    assert rep.dim == 0.5
    assert rep.bases == (2, 3)
    assert rep.ratios[0] == pytest.approx(0.25, rel=1e-15)
    assert rep.ratios[1] == pytest.approx(1.0 / 9.0, rel=1e-15)
    assert rep.quasiperiods[0] == pytest.approx(math.log(4.0), rel=1e-14)
    assert rep.quasiperiods[1] == pytest.approx(math.log(9.0), rel=1e-14)
    assert rep.oscillatory_periods[0] == pytest.approx(2 * math.pi / math.log(4.0),
                                                       rel=1e-14)
    assert "independence" in rep.independence


def test_two_qp_set_band_limits_principal_dims():
    rep = two_qp_set(2, 3, 0.5, band=4.0)
    # only 2 pi / ln 9 = 2.8596 lies below 4 among the nonzero ordinates
    taus = sorted(p.imag for p in rep.principal_dims)
    assert taus == pytest.approx([-2 * math.pi / math.log(9.0), 0.0,
                                  2 * math.pi / math.log(9.0)], rel=1e-12)
    assert all(p.real == pytest.approx(0.5, rel=1e-14) for p in rep.principal_dims)


def test_two_qp_set_mirrored_ordinates():
    rep = two_qp_set(2, 3, 0.5, band=20.0)
    taus = sorted(p.imag for p in rep.principal_dims)
    assert taus == pytest.approx([-t for t in taus[::-1]], rel=1e-12)
    assert 0.0 in taus


def test_two_qp_set_rejects_dependent_bases():
    with pytest.raises(DependenceError) as exc:
        two_qp_set(2, 4, 0.5)
    assert exc.value.relation is not None
    assert "rationally dependent" in str(exc.value)


def test_two_qp_set_accepts_non_coprime_independent_bases():
    rep = two_qp_set(6, 12, 0.5)
    assert "independence" in rep.independence


def test_two_qp_set_validation():
    with pytest.raises(ValueError):
        two_qp_set(2, 3, 0.0)
    with pytest.raises(ValueError):
        two_qp_set(2, 3, 1.0)
    with pytest.raises(ValueError):
        two_qp_set(1, 3, 0.5)
    with pytest.raises(ValueError):
        two_qp_set(2.5, 3, 0.5)


@settings(max_examples=30, deadline=None)
@given(m=st.integers(2, 50), dim=st.floats(0.05, 0.95))
def test_quasiperiod_is_log_over_dim(m, dim):
    rep = two_qp_set(m, m + 1, dim)
    assert rep.quasiperiods[0] == pytest.approx(math.log(m) / dim, rel=1e-12)
    assert rep.quasiperiods[1] == pytest.approx(math.log(m + 1) / dim, rel=1e-12)


# --- ordinate gaps -----------------------------------------------------------------------


def _min_gap_enumeration(bases, dim, band):
    # independent route: collect k * 2 pi / (log m / dim) ordinates, dedupe
    # exact coincidences via integer power identities, scan adjacent gaps
    ords = [0.0]
    seen = []
    for m in bases:
        period = math.log(m) / dim
        step = 2.0 * math.pi / period
        k = 1
        while k * step <= band:
            dup = False
            for (mm, kk) in seen:
                # k/log(m) == kk/log(mm) iff m^kk == mm^k exactly
                if mm ** k == m ** kk:
                    dup = True
                    break
            if not dup:
                ords.append(k * step)
                seen.append((m, k))
            k += 1
    ords.sort()
    return min(b - a for a, b in zip(ords, ords[1:]))


@pytest.mark.parametrize("k, expected", [
    (1, 4.532360141827192),
    (2, 0.48591768151400494),
    (3, 0.06678843533661905),
])
def test_min_gap_frozen_values(k, expected):
    bases = (2, 3, 5)[:k]
    got = ordinate_min_gap(bases, 0.5, 20.0)
    assert got == pytest.approx(expected, rel=1e-12)
    assert got == pytest.approx(_min_gap_enumeration(bases, 0.5, 20.0), rel=1e-12)


def test_min_gap_k1_closed_form():
    # single base 2 at dim 1/2: ordinates k*pi/ln2, gap = pi/ln2
    assert ordinate_min_gap((2,), 0.5, 20.0) == pytest.approx(math.pi / LN2,
                                                              rel=1e-14)


def test_min_gap_dedupes_exact_power_coincidences():
    # 4^n = 2^(2n): every base-4 ordinate already appears for base 2
    got = ordinate_min_gap((2, 4), 0.5, 20.0)
    assert got == pytest.approx(math.pi / (2.0 * LN2), rel=1e-14)


def test_min_gap_refuses_a_band_with_one_ordinate():
    # π/ln 2 = 4.53 > 1: the band holds the real pole D alone
    with pytest.raises(ValueError, match="fewer than two distinct singularity ordinates"):
        ordinate_min_gap((2,), 0.5, 1.0)


def test_min_gap_strictly_decreasing_in_k():
    gaps = [ordinate_min_gap((2, 3, 5)[: k], 0.5, 20.0) for k in (1, 2, 3)]
    assert gaps[0] > gaps[1] > gaps[2] > 0.0


# --- hyperfractal truncations ---------------------------------------------------------------


def test_hyperfractal_truncation_k2_exact_strings():
    rep = hyperfractal_truncation(0.5, 2, levels=12)
    assert rep.bases == (2, 3)
    assert rep.scales == (Fraction(1, 2), Fraction(1, 4))  # component weights
    # component gap totals: c * h * (m-1) * (1 - (m a)^L) / (1 - m a)
    # with a = m^{-2} at dim 1/2; base 2 gives c (1 - 2^-L), base 3 c (1 - 3^-L)
    want = (Fraction(1, 2) * (1 - Fraction(1, 2 ** 12))
            + Fraction(1, 4) * (1 - Fraction(1, 3 ** 12)))
    assert rep.merged_string.total == want
    assert rep.min_gap == pytest.approx(0.48591768151400494, rel=1e-12)
    assert rep.summable is True


def test_merge_strings_pools_shared_lengths():
    a = geometry.FractalString(entries=((Fraction(1, 4), 1), (Fraction(1, 16), 2)))
    b = geometry.FractalString(entries=((Fraction(1, 4), 3), (Fraction(1, 64), 1)))
    merged = quasi._merge_strings([a, b])
    assert merged.entries == ((Fraction(1, 4), 4), (Fraction(1, 16), 2),
                              (Fraction(1, 64), 1))
    assert merged.total == a.total + b.total


def test_hyperfractal_component_strings_are_exact_geometric():
    rep = hyperfractal_truncation(0.5, 3, levels=8)
    weights = (Fraction(1, 2), Fraction(1, 4), Fraction(1, 8))
    for m, c, string in zip(rep.bases, weights, rep.component_strings):
        a = Fraction(1, m * m)  # m^{-1/dim} at dim 1/2
        h = (1 - m * a) / (m - 1)
        for k, (length, mult) in enumerate(string.entries):
            assert length == c * h * a ** k
            assert mult == (m - 1) * m ** k


def test_hyperfractal_increasing_weights_not_summable():
    rep = hyperfractal_truncation(0.5, 2, c_seq=(Fraction(1, 4), Fraction(1, 2)))
    assert rep.summable is False


def test_hyperfractal_validation():
    with pytest.raises(ValueError):
        hyperfractal_truncation(0.5, 9)  # more components than default bases
    with pytest.raises(DependenceError):
        hyperfractal_truncation(0.5, 2, m_seq=(2, 8))  # 8 = 2^3
    with pytest.raises(ValueError):
        hyperfractal_truncation(1.5, 2)


def test_hyperfractal_min_gap_matches_direct_call():
    rep = hyperfractal_truncation(0.5, 3, band=20.0)
    assert rep.min_gap == pytest.approx(ordinate_min_gap((2, 3, 5), 0.5, 20.0),
                                        rel=1e-14)
    assert rep.band == 20.0
