"""Catalog of fractal sets and relative drums, with exact tube volumes and distances.

Every set here lives inside a reference region (unit interval, unit square or
cube, unit disk, or a cusp region) and is described by a ``SetDescriptor``.
The two primitives everything else is built on are

* ``tube_volume(desc, t)``   -- |A_t ∩ Ω| (inner/relative) or |A_t| (full),
* ``distance(desc, x)``      -- d(x, A) for points of the ambient space,

both computed from closed forms, so they can serve as independent oracles for
the zeta-function and tube-formula machinery.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from fractions import Fraction
from functools import cache, cached_property
from numbers import Integral
from typing import Callable, NamedTuple

import numpy as np

from . import flat

__all__ = [
    "FractalString",
    "SetDescriptor",
    "cantor_set",
    "carpet",
    "a_string",
    "a_string_set",
    "string_set",
    "fractal_nest",
    "flat_drum",
    "box_boundary",
    "scaled",
    "region_volume",
    "tube_volume",
    "log_tube_volume",
    "full_tube_volume",
    "distance",
    "distance_many",
    "tube_breakpoints",
    "saturation_threshold",
]

@dataclass(frozen=True)
class FractalString:
    """A nonincreasing sequence of lengths with multiplicities.

    Entries are ``(length, multiplicity)`` pairs, lengths strictly decreasing,
    multiplicities positive integers.  Lengths may be ``Fraction`` for exact
    work; arithmetic stays rational in that case.
    """

    entries: tuple[tuple[float | Fraction, int], ...]

    def __post_init__(self) -> None:
        prev = None
        for length, mult in self.entries:
            if not length > 0:
                raise ValueError("string lengths must be positive")
            if not (isinstance(mult, int) and mult > 0):
                raise ValueError("multiplicities must be positive integers")
            if prev is not None and length >= prev:
                raise ValueError("lengths must be strictly decreasing")
            prev = length

    @property
    def total(self) -> float | Fraction:
        """Total length Σ ℓ_j·mult_j, exact for rational entries."""
        tot = sum(l * m for l, m in self.entries)
        return tot

    def __len__(self) -> int:
        return sum(m for _, m in self.entries)

    @cached_property
    def _arrays(self) -> tuple[np.ndarray, np.ndarray]:
        # ascending lengths and their multiplicities
        lengths = np.array([float(l) for l, _ in self.entries])[::-1]
        mults = np.array([m for _, m in self.entries], dtype=float)[::-1]
        return lengths, mults

    def geometric_partial(self, s: complex) -> complex:
        """Partial sum Σ mult_j ℓ_j^s over the stored entries."""
        lengths, mults = self._arrays
        logs = np.log(lengths)
        vals = np.exp(np.multiply.outer(s, logs)) * mults
        return complex(vals.sum())


class _Holes(NamedTuple):
    """The tube of a drum as a sum over the holes of Ω \\ A.

    Row i: ``counts[i]`` holes of inradius ``radii[i]`` (``inf`` for the
    outer collar), each covering h_i(t) = Σ_m coeffs[i, m-1] t^m within t of
    its boundary for t <= radii[i], and h_i(radii[i]) beyond.  With
    ``ratios = (m, a)`` the last row heads a geometric family: its level
    j >= 0 holds counts[-1]·m^j holes of inradius radii[-1]·a^j.  A ladder
    (``cantor_set``, ``carpet``) is that head alone, and its table is the
    only statement of its family: the abscissa scan, the integrability
    probe and the CLI's pole window read (m, a) here.  The tube
    volume is Σ_i counts[i]·h_i(min(t, radii[i])) over all rows and levels;
    its kinks are the finite radii, and once they are all passed it is |Ω|.

    A homothety by x maps inradius ρ to xρ and multiplies the coefficient of
    t^m by x^{N-m}, so a row's coefficients are ρ^{N-m} times its shape's,
    those of the same hole at inradius 1.  A descriptor's ``holes`` holds
    shapes in place of coefficients, at unit scale (``_hole_table``).

    Every hole of a finite row is a cube, a gap, an annulus or a disk, and
    covers h(t) = h(ρ)(1 - (1 - t/ρ)^k) within t of its boundary, k being the
    degree of h: N for cubes, 1 for gaps and annuli, 2 for the nest's centre
    disk (``_degrees``).  A uniform point of it lies at distance ρ(1 - U^{1/k})
    from A, U uniform, and its distance zeta is one Beta term (``zeta._row_term``).
    """

    counts: np.ndarray
    radii: np.ndarray
    coeffs: np.ndarray
    ratios: tuple[int, float] | None = None


class _Region(NamedTuple):
    """Ω at unit scale: the box [0, size]^N, or with ``ball`` the ball of radius size about 0."""

    size: float
    ball: bool = False


@dataclass(frozen=True)
class SetDescriptor:
    """A catalog drum: a set A together with its reference region Ω.

    kind: ``cantor`` | ``carpet`` | ``aString`` | ``nest`` | ``flatDrum`` |
          ``customString`` | ``boxBoundary``, a label: only the flat drum and
          the infinite a-string are treated apart downstream.
    ambient_dim: dimension N of the ambient space.
    scale: homothety factor applied to the unit construction (A -> λA, Ω -> λΩ).
    m, a, J, K, string: the constructor's arguments, kept for equality, for
          the infinite a-string's closed-form tail and for the distance
          oracles, which recompute from them what they need (the ternary
          set's gap h = (1 - ma)/(m - 1)) rather than read the table.

    Each constructor builds, once and at unit scale, what every routine
    downstream reads: ``holes``, the hole table at δ = ∞ with shapes in
    place of coefficients (``_Holes``); ``region``, Ω as a box or a ball
    (``_Region``); ``oracle(desc, u)``, d(u, A) at unit scale; and ``dim``,
    the similarity dimension (``similarity_dim``).  Each is None where the
    drum has none (the flat drum has no holes and its cusp is no box); none
    takes part in eq or hash.
    """

    kind: str
    ambient_dim: int
    scale: float = 1.0
    m: int | None = None
    a: float | None = None
    J: int | None = None
    K: int | None = None
    string: FractalString | None = None
    holes: _Holes | None = field(default=None, compare=False, repr=False)
    region: _Region | None = field(default=None, compare=False)
    oracle: Callable | None = field(default=None, compare=False, repr=False)
    dim: float | None = field(default=None, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 < self.scale < math.inf:
            raise ValueError(f"scale must be positive and finite, not {self.scale}")

    @property
    def similarity_dim(self) -> float:
        if self.dim is None:
            raise AttributeError(f"no closed-form dimension for kind {self.kind!r}")
        return self.dim


# ---------------------------------------------------------------------------
# constructors


def _check_int(value, least: int, what: str) -> None:
    if not (isinstance(value, Integral) and value >= least):
        raise ValueError(f"{what} must be an integer >= {least}, not {value!r}")


def _check_exponent(a: float) -> None:
    if not 0.0 < a < math.inf:
        raise ValueError(f"exponent must be positive and finite, not {a!r}")


def _ladder_set(kind: str, ambient_dim: int, count: int, gap: float, ratios: tuple[int, float],
                oracle, **params) -> SetDescriptor:
    """A ladder drum in the unit box: ``count`` cube holes of side ``gap`` head
    the family of ratios (m, a), level j holding count·m^j holes of side gap·a^j."""
    m, a = ratios
    head = _Holes(np.array([float(count)]), np.array([gap / 2.0]), _cube_shape(ambient_dim), ratios)
    return SetDescriptor(kind=kind, ambient_dim=ambient_dim, holes=head, region=_Region(1.0),
                         oracle=oracle, dim=math.log(m) / math.log(1.0 / a), **params)


def cantor_set(m: int, a: float) -> SetDescriptor:
    """Generalized ternary set C(m, a): m blocks of ratio a in [0, 1].

    Requires an integer m >= 2 and 1/m > a > 0 so that m-1 gaps of width
    h = (1-ma)/(m-1) remain.  m = 2, a = 1/3 is the classical middle-thirds set.
    """
    _check_int(m, 2, "the block count m")
    if not 0 < a < 1.0 / m:
        raise ValueError("block ratio must satisfy 0 < a < 1/m")
    h = (1.0 - m * a) / (m - 1)
    return _ladder_set("cantor", 1, m - 1, h, (m, a), _cantor_distance_unit, m=m, a=a)


def carpet(ambient_dim: int) -> SetDescriptor:
    """Ternary carpet: middle-cell removal in [0,1]^N, N = 2 or 3.

    N=2 keeps 8 of 9 subsquares per step, N=3 keeps 26 of 27 subcubes.
    """
    if not (isinstance(ambient_dim, Integral) and ambient_dim in (2, 3)):
        raise ValueError("carpet is implemented for ambient dimension 2 and 3")
    keep = 3**ambient_dim - 1
    return _ladder_set("carpet", ambient_dim, 1, 1.0 / 3.0, (keep, 1.0 / 3.0), _carpet_distance_unit)


def _a_string_length(j: np.ndarray | float, a: float):
    # l_j = j^-a - (j+1)^-a, computed without cancellation for large j
    return j ** (-a) * (-np.expm1(-a * np.log1p(1.0 / j)))


def a_string(a: float, J: int) -> FractalString:
    """Explicit a-string: lengths ℓ_j = j^{-a} - (j+1)^{-a}, j = 1..J."""
    _check_exponent(a)
    _check_int(J, 1, "the number of lengths J")
    j = np.arange(1, J + 1, dtype=float)
    lengths = _a_string_length(j, a)
    entries = tuple((float(l), 1) for l in lengths)
    return FractalString(entries=entries)


def a_string_set(a: float, J: int | None = None) -> SetDescriptor:
    """The a-string as a bounded subset {0} ∪ {j^{-a}} of [0, 1].

    J = None uses the full infinite string (tube volumes in closed form);
    finite J truncates at the J-th gap, and its region is the box [0, |Ω|]
    that its gaps fill end to end.
    """
    _check_exponent(a)
    if J is not None:
        _check_int(J, 1, "the number of lengths J")
    lengths = _a_string_length(np.arange(1.0, _a_string_head(a) if J is None else J + 1.0), a)
    size, oracle = (1.0, _a_string_distance_unit) if J is None else \
        (float(lengths.sum()), _finite_a_string_distance)
    # a gap covers 2t within t of its ends: shape 2
    holes = _Holes(np.ones(len(lengths)), lengths / 2.0, np.full((len(lengths), 1), 2.0))
    return SetDescriptor(kind="aString", ambient_dim=1, a=a, J=J, holes=holes,
                         region=_Region(size), oracle=oracle, dim=1.0 / (1.0 + a))


def string_set(string: FractalString) -> SetDescriptor:
    """Wrap an explicit string as a 1-D descriptor (lengths laid end to end)."""
    lengths = np.array([float(l) for l, _ in string.entries])
    counts = np.array([float(mult) for _, mult in string.entries])
    holes = _Holes(counts, lengths / 2.0, np.full((len(lengths), 1), 2.0))
    return SetDescriptor(kind="customString", ambient_dim=1, string=string, holes=holes,
                         region=_Region(float((counts * lengths).sum())))


def fractal_nest(a: float, K: int) -> SetDescriptor:
    """Nest of K concentric circles of radii k^{-a} inside the unit disk."""
    _check_exponent(a)
    _check_int(K, 1, "the number of circles K")
    r = np.arange(1.0, K + 1.0) ** -a  # descending, r[0] = 1
    # r_k - r_{k+1} is the a-string gap ℓ_k, free of cancellation
    radii = np.append(_a_string_length(np.arange(1.0, K), a) / 2.0, r[-1])
    shapes = np.zeros((K, 2))
    shapes[:-1, 0] = 2.0 * math.pi * (r[:-1] + r[1:]) / radii[:-1]  # annuli
    shapes[-1] = (2.0 * math.pi, -math.pi)                          # centre disk
    return SetDescriptor(kind="nest", ambient_dim=2, a=a, K=K, dim=2.0 / (1.0 + a),
                         holes=_Holes(np.ones(K), radii, shapes), region=_Region(1.0, ball=True),
                         oracle=_nest_distance_unit)


def flat_drum() -> SetDescriptor:
    """The origin relative to the cusp region {(x, y): 0 < x < 1, 0 < y < e^{-1/x}}."""
    return SetDescriptor(kind="flatDrum", ambient_dim=2, oracle=_flat_distance_unit)


def box_boundary(ambient_dim: int = 2) -> SetDescriptor:
    """Boundary of the unit box [0,1]^N relative to the box itself."""
    _check_int(ambient_dim, 1, "the ambient dimension")
    holes = _Holes(np.ones(1), np.array([0.5]), _cube_shape(ambient_dim))
    return SetDescriptor(kind="boxBoundary", ambient_dim=ambient_dim, holes=holes,
                         region=_Region(1.0), dim=float(ambient_dim - 1),
                         oracle=_box_distance_unit if ambient_dim > 1 else None)


def scaled(desc: SetDescriptor, lam: float) -> SetDescriptor:
    """Homothety: both the set and its region scaled by λ, 0 < λ < ∞."""
    return replace(desc, scale=desc.scale * lam)


# ---------------------------------------------------------------------------
# hole tables


def _truncated(desc: SetDescriptor) -> bool:
    """True for the infinite a-string, whose table holds its leading gaps only."""
    return desc.kind == "aString" and desc.J is None


def _a_string_head(a: float, s: complex = 0.0) -> int:
    """J = max(⌈16(1 + a)⌉, ⌈(1 + a)|s|⌉): the gaps j < J of the infinite
    a-string that are held as rows, for sums of ℓ_j^s.

    Past J the gaps ℓ_j = a·j^{-1-a}·g(1/j) are summed in closed form, as a
    series in 1/j <= 1/J (``zeta._a_string_powers``).  J·r >= 13 for the
    radius r = sin(π/(3(1 + a))) on which that series is bounded, and
    J >= (1 + a)|s| keeps its Euler–Maclaurin terms, which grow like
    ((1 + a)|s|/(2πJ))^{2k}, small.
    """
    return max(math.ceil(16.0 * (1.0 + a)), math.ceil((1.0 + a) * abs(s)))


@cache
def _cube_shape(n: int) -> np.ndarray:
    """Coefficients of 2^n - (2 - 2t)^n in t^1..t^n, as one row: the shape of
    an n-cube of inradius 1."""
    return np.array([[(-1.0) ** (j + 1) * math.comb(n, j) * 2.0**n for j in range(1, n + 1)]])


def _ball_volume(j: int) -> float:
    """Volume ω_j of the unit ball of R^j."""
    return 1.0 if j == 0 else 2.0 if j == 1 else _ball_volume(j - 2) * 2.0 * math.pi / j


def _collar_coeffs(desc: SetDescriptor) -> list[float]:
    """Coefficients in t^1..t^N of the outer collar |A_t \\ Ω|.

    It is the Euclidean Steiner polynomial of the region: Σ_j C(N, j)
    L^{N-j} ω_j t^j around the box [0, L]^N (2t on a line), and
    ω_N((R + t)^N - R^N) around the ball of radius R.  The flat drum, a
    relative construction only, has no collar.
    """
    n, (size, ball) = desc.ambient_dim, desc.region
    size *= desc.scale
    return [math.comb(n, j) * size ** (n - j) * _ball_volume(n if ball else j)
            for j in range(1, n + 1)]


def _hole_table(desc: SetDescriptor, delta: float, full: bool = False) -> _Holes:
    """The holes of λΩ \\ λA, and with ``full`` the outer collar, as a ``_Holes``.

    The descriptor's unit table is scaled by λ.  A family head above δ
    becomes its levels with inradius above δ, rows of their own, then the
    first level at or below δ, heading the family of all narrower ones,
    which are all saturated for t >= δ.  The flat drum has no holes.
    """
    unit = desc.holes
    if unit is None:
        raise ValueError(f"no hole table for kind {desc.kind!r}")
    counts, radii, shapes = unit.counts, desc.scale * unit.radii, unit.coeffs
    if unit.ratios is not None and radii[-1] > delta:
        m, a, rho = *unit.ratios, radii[-1]
        # k, the first level whose inradius ρa^k is at most δ, from the logs
        # up to rounding; the radii then count the levels above δ exactly
        k = math.ceil((math.log(rho) - math.log(delta)) / -math.log(a))
        j = np.arange(k + 2.0)
        family = rho * a**j
        levels = np.count_nonzero(family > delta) + 1
        # the deepest level held: count·(its t^N coefficient) and ρ^N are normal
        # floats, 709.78 and -708.39 bounding the ln of the largest and least one
        deepest = math.floor(min((709.78 - math.log(counts[-1] * abs(shapes[-1, -1]))) / math.log(m),
                                 (math.log(rho) + 708.39 / desc.ambient_dim) / -math.log(a)))
        if levels > deepest + 1:
            raise ValueError(f"t = {delta:.4g} is below the smallest supported t, "
                             f"{rho * a**deepest:.4g}")
        counts = np.concatenate((counts[:-1], counts[-1] * float(m) ** j[:levels]))
        radii = np.concatenate((radii[:-1], family[:levels]))
        shapes = np.concatenate((shapes[:-1], np.repeat(shapes[-1:], levels, axis=0)))
    coeffs = shapes * np.power.outer(radii, desc.ambient_dim - np.arange(1.0, len(shapes.T) + 1.0))
    if full:
        counts = np.concatenate(([1.0], counts))
        radii = np.concatenate(([math.inf], radii))
        coeffs = np.concatenate(([_collar_coeffs(desc)], coeffs))
    return _Holes(counts, radii, coeffs, unit.ratios)


def _degrees(coeffs: np.ndarray) -> np.ndarray:
    """The degree k of each row's h: the power of its last nonzero coefficient."""
    return coeffs.shape[1] - np.argmax(coeffs[:, ::-1] != 0.0, axis=1)


def _poly(coeffs: np.ndarray | list[float], ts: np.ndarray) -> np.ndarray:
    """Σ_m coeffs[..., m-1]·t^m over the last axis of ``coeffs``."""
    return (coeffs * ts[..., None] ** np.arange(1, np.shape(coeffs)[-1] + 1)).sum(axis=-1)


def _saturated_volumes(holes: _Holes, n: int) -> np.ndarray:
    """count·h(ρ) for each row: the volume it covers once t >= ρ.

    The family head stands for its whole family, which is saturated for
    t >= δ and covers w₀/(1 - m·a^N), w₀ being the head's own volume.  The
    collar, with ρ = ∞, never saturates, and its entry is ∞.
    """
    vols = holes.counts * _poly(holes.coeffs, holes.radii)
    if holes.ratios is not None:
        count_ratio, a = holes.ratios
        vols[-1] /= 1.0 - count_ratio * a**n
    return vols


# ---------------------------------------------------------------------------
# regions and tube volumes


def region_volume(desc: SetDescriptor) -> float:
    """|Ω| of the reference region.

    A is Lebesgue-null, so |Ω| is the saturated total of the hole table.  The
    infinite a-string, whose table is truncated, fills [0, λ]; the flat drum,
    which has no holes, is λ²·E₂(1) (see :mod:`fractalzeta.flat`).
    """
    if desc.kind == "flatDrum":
        return desc.scale**2 * flat.region_volume()
    if _truncated(desc):
        return desc.scale
    return float(_saturated_volumes(_hole_table(desc, math.inf), desc.ambient_dim).sum())


def _a_string_count(a: float, u: np.ndarray) -> np.ndarray:
    """j* = #{ j >= 1 : ℓ_j > 2u } for the infinite a-string, for each u > 0 of
    an array; past 2^53 a float at most 2 ulp below it.  Raises ``ValueError``
    where j* would pass 2^1022, the float range: u below ℓ_{2^1022}/2, a < 0.048."""
    two_u, e = 2.0 * u, 1.0 / (1.0 + a)
    least = 0.5 * a * 2.0 ** (-1022.0 * (1.0 + a))  # ℓ_{2^1022}/2, 0.0 for a >= 0.048
    if least and (u < least).any():
        raise ValueError(f"t/λ = {u.min():.4g} is below the smallest supported t/λ, {least:.4g}")
    # a(j+1)^{-a-1} <= ℓ_j <= a j^{-a-1} puts j* near g = a^e/(2u)^e, 10² ulp off at u =
    # 1e-300; a step of the local law ℓ ∝ j^{-1/e} takes g within 0.12 (j* >= 1) or 2 ulp.
    # Widen g(1 ± 2^-50) ± 1/4 until ℓ_lo > 2u (ℓ_0 = ∞, so lo = 0 needs no test) and
    # ℓ_hi <= 2u hold in floating point, then bisect until hi - lo is 1, or 2 ulp where
    # floats are more than 1 apart
    guess = a**e / two_u**e
    guess *= (_a_string_length(np.maximum(guess, 1.0), a) / two_u) ** e
    lo = np.maximum(np.floor(guess * (1.0 - 2.0**-50) - 0.25), 0.0)
    hi = np.ceil(guess * (1.0 + 2.0**-50) + 0.25)
    while (short := _a_string_length(hi, a) > two_u).any():
        hi = np.where(short, 2.0 * hi, hi)
    while lo.any() and (wide := (lo > 0)
                        & (_a_string_length(np.maximum(lo, 1.0), a) <= two_u)).any():
        lo = np.where(wide, np.floor(0.5 * lo), lo)
    while (hi - lo > 1.0 + 2.0**-52 * hi).any():
        mid = np.floor(0.5 * (lo + hi))  # lo where hi - lo is 1: the step leaves it
        above = _a_string_length(np.maximum(mid, 1.0), a) > two_u
        lo, hi = np.where(above, mid, lo), np.where(above, hi, mid)
    return lo


def _table_tube(desc: SetDescriptor, ts: np.ndarray, delta: float, full: bool) -> np.ndarray:
    # rows sorted by inradius: those at or below t are saturated (a prefix
    # sum), those above it are polynomials in t (suffix sums of coefficients)
    holes = _hole_table(desc, delta, full)
    order = np.argsort(holes.radii)
    rows = len(order)
    saturated = np.zeros(rows + 1)
    np.cumsum(_saturated_volumes(holes, desc.ambient_dim)[order], out=saturated[1:])
    weights = holes.counts[:, None] * holes.coeffs
    unsaturated = np.zeros((rows + 1, weights.shape[1]))
    np.cumsum(weights[order[::-1]], axis=0, out=unsaturated[1:])
    k = np.searchsorted(holes.radii[order], ts, side="right")
    # once every row is saturated the polynomial is 0, which 0·t^m = 0·∞ would make nan
    return saturated[k] + _poly(unsaturated[rows - k], np.where(k < rows, ts, 0.0))


def _a_string_tube(desc: SetDescriptor, ts: np.ndarray, full: bool) -> np.ndarray:
    # 2t·j* + λ(j*+1)^{-a}: the j* gaps wider than 2t, then every narrower one
    lam, a = desc.scale, desc.a
    u = np.minimum(ts / lam, 1.0)  # j* = 0 from u = 1/2 on; 2u·j* would be ∞·0 past 2^1023
    j = _a_string_count(a, np.where(u > 0, u, 1.0))
    vols = np.where(u > 0, lam * (2.0 * u * j + (j + 1.0) ** (-a)), 0.0)
    return vols + _poly(_collar_coeffs(desc), ts) if full else vols


def tube_volume(desc: SetDescriptor, t: float | np.ndarray,
                full: bool = False) -> float | np.ndarray:
    """Tube volume at distance t: |A_t ∩ Ω| (default) or |A_t| with ``full``.

    ``t`` is a scalar, giving a float, or an array, giving an array of its
    shape.  The value is the sum of the hole table, built once at δ = min t
    and sorted by inradius: a prefix sum of the saturated holes, suffix sums
    of the coefficients of the others, and the closed-form volume of the
    geometric family below δ.  The infinite a-string, whose table is
    truncated, is 2t·j*(t) + λ(j*+1)^{-a} with j* = #{ j : λℓ_j > 2t }.  The
    flat drum has no holes; its value is exp(``log_tube_volume``), which
    underflows for t below ~1.4e-3 (use the log there).  Raises
    ``ValueError`` if any t is negative or not finite.
    """
    ts = np.asarray(t, dtype=float)
    delta = float(ts.min(initial=math.inf))
    if delta < 0 or not np.isfinite(ts).all():
        raise ValueError("t must be finite and nonnegative")
    if delta == 0:
        delta = float(ts.min(initial=math.inf, where=ts > 0))
    if desc.kind == "flatDrum":
        vols = np.exp(log_tube_volume(desc, ts, full=full))
    elif delta == math.inf:  # every t is 0
        vols = np.zeros(ts.shape)
    elif _truncated(desc):
        vols = _a_string_tube(desc, ts, full)
    else:
        vols = _table_tube(desc, ts, delta, full)
    return float(vols) if vols.ndim == 0 else vols


def full_tube_volume(desc: SetDescriptor, t: float | np.ndarray) -> float | np.ndarray:
    return tube_volume(desc, t, full=True)


_STRATUM_FLOOR = 64  # fewest samples that make a part of the tube a stratum of its own


class _Strata(NamedTuple):
    """A drum's distance law cut into strata, for Monte Carlo (``_hole_law``).

    Stratum h covers volume ``volumes[h]`` and takes ``samples[h]`` of the
    samples, the pool last.  ``draw(ids, counts, rng, out=None)`` writes log
    d(x, A) for counts[i] uniform points x of stratum ids[i], ids being
    consecutive, both lists of ints, one after another into ``out``, or a
    fresh array, and returns it.  ``cut`` is log δ when a drawn distance may
    exceed δ, which then weighs 0, +∞ when one may be 0, a point of A, and
    None when neither can happen.  ``bound`` bounds every finite |log d| drawn.
    """

    volumes: np.ndarray
    samples: np.ndarray
    draw: Callable[..., np.ndarray]
    cut: float | None
    bound: float


def _radial(u: np.ndarray, degree) -> np.ndarray:
    """log(d/r) from a uniform u in [0, 1), in place: log(1 - u^{1/k}) in a
    hole of degree k >= 1 and inradius r, log(1 - u)/j in the collar's power
    j = -k, r being δ there (see ``_hole_law``).  ``degree`` is a number, or
    an array of one per point.  u lies on numpy's 2^-53 grid, so 1 - u is
    exact and its log is taken directly, at half the cost of log1p(-u), and
    at k = 2 as log((1 - u)/(1 + √u)), cheaper than through expm1."""
    with np.errstate(divide="ignore"):
        if isinstance(degree, np.ndarray):
            k = np.abs(degree)
            u[...] = np.where(degree > 1, np.log(-np.expm1(np.log(u) / k)), np.log(1.0 - u) / k)
        elif degree == 1 or degree < 0:  # 1 - u^{1/1} is 1 - u
            np.log(np.subtract(1.0, u, out=u), out=u)
            if degree < -1:
                u /= -degree
        elif degree == 2:  # 1 - √u = (1 - u)/(1 + √u), without cancellation
            root = np.sqrt(u)
            np.log(np.divide(np.subtract(1.0, u, out=u), np.add(root, 1.0, out=root), out=u), out=u)
        else:
            np.log(u, out=u)
            u /= degree
            np.negative(np.expm1(u, out=u), out=u)
            np.log(u, out=u)
    return u


def _hole_law(desc: SetDescriptor, samples: int, delta: float | None) -> _Strata:
    """The law of log d(x, A) for x uniform in Ω, or with ``delta`` in A_δ,
    cut into strata for ``samples`` Monte Carlo samples.

    A is Lebesgue-null and each hole's boundary lies in A, so the law is read
    off the hole table: a row of holes covers count·h(ρ), and inside a hole
    the distance is ρ(1 - U^{1/k}) (see ``_Holes``), U uniform on [0, 1) and
    U = 0 the hole's centre, so every draw is finite.  In full mode the outer
    collar Σ_j c_j t^j (``_collar_coeffs``) adds a part c_j·δ^j for each
    power j, in which d = δ·V^{1/j}, V = 1 - U in (0, 1].  The box beyond δ
    weighs 0 and is not drawn; a hole wider than δ is drawn whole, and its
    points beyond δ weigh 0.

    The strata are, in this order, the collar's powers and the table's rows
    (a ladder's family levels, head first) whose proportional share of the
    samples, ⌊samples·V_h/V⌋, reaches ``_STRATUM_FLOOR``, then the pool.  The
    pool takes the other samples, at least 2, the largest stratum giving or
    taking the difference, and draws the unstratified law of the rest: a part
    by volume, then for a ladder's family a level j >= J by inversion, j = J
    + ⌊log(1 - U)/log p⌋ for p = m·a^N as P(j >= J + k) = p^k, and for the
    infinite a-string, whose table holds its gaps j < J only, a gap j >= J
    by inversion, j = ⌊J·V^{-1/a}⌋ as P(j >= k) = (J/k)^a; a j past the float
    range is a point of A, at distance 0.  Drawn in log space, nothing
    underflows however deep the level.
    """
    n, unit, lam = desc.ambient_dim, desc.holes, desc.scale
    coll = np.array([] if delta is None else _collar_coeffs(desc))
    powers = np.arange(1.0, len(coll) + 1.0)
    coll *= (delta or 1.0) ** powers  # the volume c_j·δ^j of each power
    holes = _hole_table(desc, math.inf)
    saturated = _saturated_volumes(holes, n)
    # |Ω| (see ``region_volume``), and the collar
    total = (lam if _truncated(desc) else float(saturated.sum())) + coll.sum()
    if unit.ratios is not None:
        # the family levels j whose share samples·w₀p^j/V reaches the floor
        # become rows: those above δ_s, half a level past the last of them
        m, a = unit.ratios
        log_p, log_a = math.log(m * a**n), math.log(a)
        share = samples * saturated[-1] * -math.expm1(log_p) / total
        if share >= _STRATUM_FLOOR:  # level 0's
            levels = math.floor(math.log(_STRATUM_FLOOR / share) / log_p) + 1
            holes = _hole_table(desc, lam * unit.radii[-1] * a ** (levels - 0.5))
            saturated = _saturated_volumes(holes, n)
    rows = len(holes.radii) - (unit.ratios is not None)  # the family head pools the rest
    vols = np.concatenate((coll, saturated))
    log_r = np.concatenate((np.full(len(coll), math.log(delta or 1.0)), np.log(holes.radii)))
    degrees = np.concatenate((-powers, _degrees(holes.coeffs)))
    strat = np.zeros(len(vols), bool)
    strat[:len(coll) + rows] = samples * vols[:len(coll) + rows] >= _STRATUM_FLOOR * total
    if _truncated(desc):  # the gaps j >= J, past the table, hold λJ^{-a}
        gap = len(holes.radii) + 1.0
        vols, log_r = np.append(vols, lam * gap**-desc.a), np.append(log_r, 0.0)
        degrees, strat = np.append(degrees, 1.0), np.append(strat, False)

        def tail(v):
            with np.errstate(over="ignore", divide="ignore"):
                j = np.floor(gap * v ** (-1.0 / desc.a))
                return np.log(lam * _a_string_length(j, desc.a) / 2.0)
    elif unit.ratios is not None:
        def tail(v):
            return np.floor(np.log(v) / log_p) * log_a
    else:
        tail = None
    counts = np.floor(samples * vols[strat] / total).astype(np.int64)
    rest = samples - int(counts.sum())
    pooled = 0 if strat.all() else max(rest, 2)
    if len(counts):
        counts[np.argmax(counts)] += rest - pooled
    cum, volumes = np.cumsum(vols[~strat]), vols[strat]
    if pooled:
        volumes, counts = np.append(volumes, cum[-1]), np.append(counts, pooled)
    s_log_r, s_deg = log_r[strat].tolist(), degrees[strat].tolist()
    last, p_log_r, p_deg = len(cum) - 1, log_r[~strat], degrees[~strat]

    def pool(count: int, rng: np.random.Generator, out: np.ndarray) -> None:
        if last:
            comp = np.minimum(np.searchsorted(cum, cum[-1] * rng.random(count), side="right"), last)
            r, k = p_log_r[comp], p_deg[comp]
        else:
            comp, r, k = 0, p_log_r[0], p_deg[0]
        if tail is not None:  # 1 - U is exact: U lies on the 2^-53 grid
            r = r + np.where(comp == last, tail(1.0 - rng.random(count)), 0.0)
        _radial(rng.random(out=out), k)
        out += r

    def draw(ids, counts, rng: np.random.Generator, out: np.ndarray | None = None) -> np.ndarray:
        in_pool = counts[-1] if ids[-1] == len(s_deg) else 0
        inner, size = len(ids) - (in_pool > 0), sum(counts)
        out = np.empty(size) if out is None else out
        # the strata before the pool take one uniform each, drawn at once, and
        # one pass per run of equal degrees: a ladder's levels share one
        u = rng.random(out=out[:size - in_pool])
        first = stop = 0
        for i in range(inner):
            stop += counts[i]
            if i + 1 == inner or s_deg[ids[i + 1]] != s_deg[ids[i]]:
                _radial(u[first:stop], s_deg[ids[i]])
                first = stop
        stop = 0
        for h, count in zip(ids[:inner], counts):
            stop += count
            u[stop - count:stop] += s_log_r[h]
        if in_pool:
            pool(in_pool, rng, out[size - in_pool:size])
        return out

    # a finite log d lies in [log r + log 2^-53 - ln N, log r] (U <= 1 - 2^-53, degree <= N),
    # the pool's tail taking it lower by its value at V = 2^-53 (the a-string's, the log of
    # a float, is >= -744.5); a hole of inradius r holds a ball: ω_N r^N <= total
    deepest = -744.5 if _truncated(desc) else 0.0 if tail is None else float(tail(2.0**-53))
    bound = max(36.8 + math.log(n) - float(log_r.min()) - deepest,
                math.log(delta or 1.0), math.log(total / _ball_volume(n)) / n)
    above = delta is not None and holes.radii.max() > delta
    return _Strata(volumes, counts, draw,
                   math.log(delta) if above else math.inf if _truncated(desc) else None, bound)


def log_tube_volume(desc: SetDescriptor, t: float | np.ndarray,
                    full: bool = False) -> float | np.ndarray:
    """log of the tube volume, -inf where it is 0.

    ``t`` is a scalar, giving a float, or an array, giving an array of its
    shape.  Every kind but the flat drum takes the log of one array
    ``tube_volume`` call; the flat drum, whose volume underflows for t below
    ~1.4e-3, evaluates its closed form in log space (see :mod:`fractalzeta.flat`).
    """
    if desc.kind == "flatDrum":
        if full:
            raise ValueError("the flat drum is a relative construction only")
        ts = np.asarray(t, dtype=float)
        logs = flat.log_tube(ts / desc.scale) + 2.0 * math.log(desc.scale)
    else:
        with np.errstate(divide="ignore"):
            logs = np.log(tube_volume(desc, t, full=full))
    return float(logs) if logs.ndim == 0 else logs


def saturation_threshold(desc: SetDescriptor) -> float:
    """sup_{x∈Ω} d(x, A), the largest inradius of the hole table: beyond this
    t the inner tube fills Ω."""
    if desc.kind == "flatDrum":
        return flat.SATURATION * desc.scale
    return float(_hole_table(desc, math.inf).radii.max())


def tube_breakpoints(desc: SetDescriptor, tmin: float, tmax: float) -> np.ndarray:
    """Kinks of t ↦ tube_volume in (tmin, tmax), ascending.

    These are the inradii of the hole table: half-gaps g_k/2 (ladders) and
    ℓ_j/2 (strings, every one of them for the infinite a-string), the nest's
    half annulus widths and its centre disk's radius.  The tube volume is
    piecewise polynomial between consecutive breakpoints; the flat drum's is
    smooth.
    """
    if tmin <= 0 or tmax <= tmin:
        raise ValueError("need 0 < tmin < tmax")
    if desc.kind == "flatDrum":
        return np.array([])
    if _truncated(desc):
        lo, hi = _a_string_count(desc.a, np.array([tmax, tmin]) / desc.scale)
        radii = desc.scale * _a_string_length(np.arange(lo + 1.0, hi + 1.0), desc.a) / 2.0
    else:
        radii = _hole_table(desc, tmin).radii
    return np.unique(radii[(radii > tmin) & (radii < tmax)])


# ---------------------------------------------------------------------------
# distances


def _cantor_distance_unit(desc: SetDescriptor, x: np.ndarray) -> np.ndarray:
    # the gap h = (1 - ma)/(m - 1) from the constructor's arguments, not the
    # hole table: the oracle is the one check of the table that does not read it
    m, a = desc.m, desc.a
    h = (1.0 - m * a) / (m - 1)
    span = a + h
    d = np.zeros_like(x)
    below = x < 0
    above = x > 1
    d[below] = -x[below]
    d[above] = x[above] - 1.0
    y = x.copy()
    active = ~(below | above)
    length = 1.0
    while active.any() and length > 1e-300:
        ya = y[active]
        j = np.minimum(np.floor(ya / span), m - 1)
        off = ya - j * span
        in_gap = off > a
        gap_off = off - a
        d_active = d[active]
        d_active[in_gap] = length * np.minimum(gap_off[in_gap], h - gap_off[in_gap])
        d[active] = d_active
        # recurse into blocks
        idx = np.flatnonzero(active)
        keep = idx[~in_gap]
        y[keep] = off[~in_gap] / a
        newactive = np.zeros_like(active)
        newactive[keep] = True
        active = newactive
        length *= a
    return d


def _carpet_distance_unit(desc: SetDescriptor, pts: np.ndarray) -> np.ndarray:
    n = desc.ambient_dim
    clamped = np.clip(pts, 0.0, 1.0)
    outside = np.linalg.norm(pts - clamped, axis=1)
    d = outside.copy()
    y = clamped.copy()
    active = outside == 0.0
    length = 1.0
    while active.any() and length > 1e-300:
        ya = y[active]
        g = np.minimum(np.floor(3.0 * ya), 2.0)
        mid = np.all(g == 1.0, axis=1)
        rel = 3.0 * ya - g
        # interior of the removed middle cell: distance to its own boundary
        if mid.any():
            face = np.minimum(rel[mid], 1.0 - rel[mid]).min(axis=1)
            d_active = d[active]
            d_active[mid] = (length / 3.0) * face
            d[active] = d_active
        idx = np.flatnonzero(active)
        keep = idx[~mid]
        y[keep] = rel[~mid]
        newactive = np.zeros_like(active)
        newactive[keep] = True
        active = newactive
        length /= 3.0
    return d


def _a_string_distance_unit(desc: SetDescriptor, x: np.ndarray) -> np.ndarray:
    a = desc.a
    d = np.zeros_like(x)
    d[x < 0] = -x[x < 0]
    d[x > 1] = x[x > 1] - 1.0
    inside = (x > 0) & (x < 1)
    if inside.any():
        u = x[inside]
        # j stays a float: u^{-1/a} passes 2^63 long before u reaches the
        # smallest double, and j = ∞ is a point of A
        with np.errstate(over="ignore"):
            j = np.maximum(np.floor(u ** (-1.0 / a)), 1.0)
        # u in [(j+1)^-a, j^-a]; guard rounding on both sides
        j[u > j ** (-a)] -= 1.0
        j = np.maximum(j, 1.0)
        j[u < (j + 1.0) ** (-a)] += 1.0
        hi = j ** (-a)
        lo = (j + 1.0) ** (-a)
        # u left outside [lo, hi] (j + 1 rounding to j, or the two powers to
        # one float) lies within rounding of A: its distance is below resolution
        d[inside] = np.maximum(np.minimum(u - lo, hi - u), 0.0)
        # points below the accumulation point 0 never occur (0 is in the set)
    return d


def _finite_a_string_distance(desc: SetDescriptor, x: np.ndarray) -> np.ndarray:
    raise ValueError("distances are implemented for the infinite a-string")


def _nest_distance_unit(desc: SetDescriptor, pts: np.ndarray) -> np.ndarray:
    rho = np.linalg.norm(pts, axis=1)
    r = (np.arange(1.0, desc.K + 1.0) ** -desc.a)[::-1]
    pos = np.searchsorted(r, rho)  # the nearest circles are r[pos - 1] and r[pos]
    return np.minimum(np.abs(rho - r[np.maximum(pos - 1, 0)]),
                      np.abs(rho - r[np.minimum(pos, len(r) - 1)]))


def _flat_distance_unit(desc: SetDescriptor, pts: np.ndarray) -> np.ndarray:
    return np.linalg.norm(pts, axis=1)  # A = {0}


def _box_distance_unit(desc: SetDescriptor, pts: np.ndarray) -> np.ndarray:
    interior = np.minimum(pts, 1.0 - pts).min(axis=1)
    outside = np.linalg.norm(pts - np.clip(pts, 0.0, 1.0), axis=1)
    inside = np.all((pts >= 0) & (pts <= 1), axis=1)
    return np.where(inside, np.maximum(interior, 0.0), outside)


def distance_many(desc: SetDescriptor, pts: np.ndarray) -> np.ndarray:
    """d(x, A) for an (n, N) array of points (or (n,) when N = 1), from the
    descriptor's oracle at unit scale."""
    if desc.oracle is None:
        raise ValueError(f"no distance oracle for kind {desc.kind!r}")
    lam, n = desc.scale, desc.ambient_dim
    u = np.asarray(pts, dtype=float).reshape((-1,) if n == 1 else (-1, n)) / lam
    return lam * desc.oracle(desc, u)


def distance(desc: SetDescriptor, x) -> float:
    """d(x, A) for a single point."""
    return float(distance_many(desc, np.asarray(x, dtype=float))[0])
