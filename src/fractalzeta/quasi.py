"""Quasiperiodic and hyperfractal constructions from ternary-set components.

Rational independence of logarithms of integers is decided exactly, through
prime exponent vectors and integer row reduction, and merged strings carry
Fraction-valued lengths.  Complex dimensions on the critical line are the
poles of the union's closed form, whose components' shared poles merge.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from . import geometry, spectrum, zeta
from .geometry import FractalString, SetDescriptor
from .spectrum import PoleSet, Window

__all__ = [
    "ExponentVector",
    "DependenceError",
    "exponent_vector",
    "rationally_independent",
    "find_relation",
    "QPReport",
    "two_qp_set",
    "HyperfractalTruncation",
    "hyperfractal_truncation",
    "ordinate_min_gap",
]


@dataclass(frozen=True)
class ExponentVector:
    """Prime factorization exponents of a positive integer."""

    n: int
    primes: tuple[int, ...]
    exponents: tuple[int, ...]

    def on_support(self, primes: Sequence[int]) -> tuple[int, ...]:
        lookup = dict(zip(self.primes, self.exponents))
        return tuple(lookup.get(p, 0) for p in primes)


class DependenceError(ValueError):
    """Raised when inputs that must be multiplicatively independent are not."""

    def __init__(self, message: str, relation: tuple[Fraction, ...]):
        super().__init__(message)
        self.relation = relation


def exponent_vector(n: int) -> ExponentVector:
    """Factor n >= 2 by trial division (desk-scale inputs)."""
    if not isinstance(n, int) or n < 2:
        raise ValueError("need an integer n >= 2")
    primes: list[int] = []
    exps: list[int] = []
    rest = n
    p = 2
    while p * p <= rest:
        if rest % p == 0:
            e = 0
            while rest % p == 0:
                rest //= p
                e += 1
            primes.append(p)
            exps.append(e)
        p += 1 if p == 2 else 2
    if rest > 1:
        primes.append(rest)
        exps.append(1)
    return ExponentVector(n=n, primes=tuple(primes), exponents=tuple(exps))


def _rational_matrix(vectors: Sequence) -> list[list[Fraction]]:
    if not vectors:
        raise ValueError("need at least one vector")
    if all(isinstance(v, ExponentVector) for v in vectors):
        support = sorted({p for v in vectors for p in v.primes})
        vectors = [v.on_support(support) for v in vectors]
    width = len(vectors[0])
    if any(len(v) != width for v in vectors):
        raise ValueError("vectors must share a common length")
    return [[Fraction(x) for x in v] for v in vectors]


def _rank_and_nullvector(rows: list[list[Fraction]]) -> tuple[int, tuple[Fraction, ...] | None]:
    """Exact rank of the row set and, when deficient, a rational combination
    of the rows summing to zero (coefficients in the original row order)."""
    k = len(rows)
    width = len(rows[0])
    # augment with identity to track row operations
    aug = [row[:] + [Fraction(int(i == j)) for j in range(k)] for i, row in enumerate(rows)]
    rank = 0
    for col in range(width):
        pivot = None
        for r in range(rank, k):
            if aug[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        aug[rank], aug[pivot] = aug[pivot], aug[rank]
        pv = aug[rank][col]
        aug[rank] = [x / pv for x in aug[rank]]
        for r in range(k):
            if r != rank and aug[r][col] != 0:
                factor = aug[r][col]
                aug[r] = [x - factor * y for x, y in zip(aug[r], aug[rank])]
        rank += 1
        if rank == k:
            break
    if rank == k:
        return rank, None
    coeffs = tuple(aug[rank][width:])  # first zero row's recipe
    if not any(c != 0 for c in coeffs):
        raise RuntimeError("a rank-deficient elimination left an all-zero recipe")
    return rank, coeffs


def rationally_independent(vectors: Sequence[Sequence[Fraction | int]]) -> bool:
    """Are the vectors linearly independent over the rationals?  Exact."""
    rows = _rational_matrix(vectors)
    rank, _ = _rank_and_nullvector(rows)
    return rank == len(rows)


def find_relation(vectors: Sequence[Sequence[Fraction | int]]) -> tuple[Fraction, ...] | None:
    """A nonzero rational combination of the vectors equal to zero, or None."""
    rows = _rational_matrix(vectors)
    _, coeffs = _rank_and_nullvector(rows)
    return coeffs


# ---------------------------------------------------------------------------
# two-component quasiperiodic set


@dataclass(frozen=True)
class QPReport:
    """A transcendentally quasiperiodic union of two ternary-type sets."""

    dim: float
    bases: tuple[int, int]
    ratios: tuple[float, float]
    quasiperiods: tuple[float, float]
    oscillatory_periods: tuple[float, float]
    descriptors: tuple[SetDescriptor, SetDescriptor]
    principal_dims: tuple[complex, ...]
    independence: str


def _check_multiplicative_independence(ms: Sequence[int]) -> None:
    relation = find_relation([exponent_vector(m) for m in ms])
    if relation is not None:
        terms = " · ".join(f"{m}^({c})" for m, c in zip(ms, relation) if c != 0)
        raise DependenceError(
            f"log {ms} are rationally dependent: {terms} = 1; "
            "the quasiperiods would be commensurable", relation)


def _critical_poles(descs: Sequence[SetDescriptor], dim: float,
                    band: float) -> PoleSet:
    """Poles of the union's zeta on Re s = dim with |Im s| <= band, sorted by
    Im: the components' closed forms summed, so a shared pole appears once."""
    form = zeta.MeromorphicForm(sum((zeta.catalog_form(d).terms for d in descs), ()))
    return spectrum.poles(form, Window(dim, dim, band))


def two_qp_set(m1: int, m2: int, dim: float, band: float = 20.0) -> QPReport:
    """Union of two generalized ternary sets with common dimension ``dim``
    and rationally independent quasiperiods.

    Component k uses m_k blocks of ratio a_k = m_k^{-1/dim} (so both have
    box dimension ``dim``), placed side by side on adjacent unit intervals.
    Refuses multiplicatively dependent (m1, m2) with the explicit relation.
    """
    if not 0 < dim < 1:
        raise ValueError("dim must lie in (0, 1)")
    for m in (m1, m2):
        if not isinstance(m, int) or m < 2:
            raise ValueError("block counts must be integers >= 2")
    _check_multiplicative_independence([m1, m2])
    a1 = float(m1) ** (-1.0 / dim)
    a2 = float(m2) ** (-1.0 / dim)
    # dim < 1 guarantees a_k < 1/m_k, so the constructions are admissible
    d1 = geometry.cantor_set(m1, a1)
    d2 = geometry.cantor_set(m2, a2)
    t1 = math.log(1.0 / a1)
    t2 = math.log(1.0 / a2)
    return QPReport(
        dim=dim, bases=(m1, m2), ratios=(a1, a2), quasiperiods=(t1, t2),
        oscillatory_periods=(2.0 * math.pi / t1, 2.0 * math.pi / t2), descriptors=(d1, d2),
        principal_dims=tuple(_critical_poles((d1, d2), dim, band).omega.tolist()),
        independence="quasiperiod ratio log m2 / log m1 irrational by prime "
                     "exponent independence; algebraic independence asserted "
                     "by the transcendence theory of logarithms",
    )


# ---------------------------------------------------------------------------
# hyperfractal truncations


@dataclass(frozen=True)
class HyperfractalTruncation:
    """First K components of a densifying union of ternary-type sets."""

    dim: float
    k: int
    bases: tuple[int, ...]
    scales: tuple[Fraction | float, ...]
    oscillatory_periods: tuple[float, ...]
    component_strings: tuple[FractalString, ...]
    merged_string: FractalString
    min_gap: float
    band: float
    summable: bool


def _cantor_component_string(m: int, dim: float, scale: Fraction | float,
                             levels: int) -> FractalString:
    """Gap string of C(m, a) with a = m^{-1/dim}, scaled; exact when a is
    rational (dim = 1/integer makes a = m^{-1/dim} = 1/m^int)."""
    inv = 1.0 / dim
    if abs(inv - round(inv)) < 1e-12:
        a: Fraction | float = Fraction(1, m ** int(round(inv)))
    else:
        a = float(m) ** (-inv)
    one = Fraction(1) if isinstance(a, Fraction) else 1.0
    h = (one - m * a) / (m - 1)
    entries = []
    gap = scale * h
    count = m - 1
    for _ in range(levels):
        entries.append((gap, int(count)))
        gap = gap * a
        count = count * m
    return FractalString(entries=tuple(entries))


def _merge_strings(strings: Sequence[FractalString]) -> FractalString:
    pool: dict[Fraction | float, int] = {}
    for s in strings:
        for length, mult in s.entries:
            pool[length] = pool.get(length, 0) + mult
    entries = tuple(sorted(pool.items(), key=lambda kv: kv[0], reverse=True))
    return FractalString(entries=entries)


def ordinate_min_gap(bases: Sequence[int], dim: float, band: float) -> float:
    """Smallest gap between distinct singularity ordinates n·2πD/ln(m_k) in
    [-band, band]: the poles on Re s = dim of the union of the C(m, m^{-1/dim}),
    where coinciding ordinates (m_i^{n_j} = m_j^{n_i}) are one pole."""
    descs = [geometry.cantor_set(m, float(m) ** (-1.0 / dim)) for m in bases]
    taus = _critical_poles(descs, dim, band).omega.imag
    if len(taus) < 2:
        raise ValueError(f"no ordinate gap: fewer than two distinct singularity ordinates "
                         f"in [-{band:g}, {band:g}]")
    return float(np.diff(taus).min())


def hyperfractal_truncation(dim: float, k: int,
                            m_seq: Sequence[int] = (2, 3, 5, 7, 11, 13),
                            c_seq: Sequence[Fraction | float] | None = None,
                            band: float = 20.0, levels: int = 12) -> HyperfractalTruncation:
    """First K stages of a construction whose critical line fills with
    singularities: component k is a ternary-type set of dimension ``dim``
    scaled by c_k, and the merged gap string drives the union's zeta.

    The m's must be pairwise multiplicatively independent (checked exactly);
    c defaults to 2^{-k}, and any positive summable sequence is accepted.
    """
    if not 0 < dim < 1:
        raise ValueError("dim must lie in (0, 1)")
    if k < 1 or k > len(m_seq):
        raise ValueError("need 1 <= K <= len(m_seq)")
    bases = tuple(int(m) for m in m_seq[:k])
    _check_multiplicative_independence(bases)
    if c_seq is None:
        scales: tuple[Fraction | float, ...] = tuple(Fraction(1, 2**i) for i in range(1, k + 1))
    else:
        scales = tuple(c_seq[:k])
        if len(scales) < k or any(float(c) <= 0 for c in scales):
            raise ValueError("need K positive scale factors")
    # any finite truncation sums; the flag reports whether the pattern shown
    # so far is consistent with a summable full sequence
    summable = all(float(scales[i + 1]) <= float(scales[i]) for i in range(k - 1))
    comps = tuple(_cantor_component_string(m, dim, c, levels) for m, c in zip(bases, scales))
    merged = _merge_strings(comps)
    periods = tuple(2.0 * math.pi * dim / math.log(m) for m in bases)
    gap = ordinate_min_gap(bases, dim, band)
    return HyperfractalTruncation(
        dim=dim, k=k, bases=bases, scales=scales, oscillatory_periods=periods,
        component_strings=comps, merged_string=merged, min_gap=gap, band=band,
        summable=summable,
    )
