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
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.integrate import quad

__all__ = [
    "FractalString",
    "GapLadder",
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


@dataclass(frozen=True)
class GapLadder:
    """Geometric ladder of deleted holes: level k holds ``count_k`` congruent
    holes of diameter ``gap_k`` (intervals, squares, or cubes).

    count_k = first_count * count_ratio**(k-1),
    gap_k   = first_gap   * gap_ratio**(k-1),       k = 1, 2, ...
    """

    first_count: int
    count_ratio: int
    first_gap: float
    gap_ratio: float
    hole_dim: int

    def __post_init__(self) -> None:
        if not (self.first_count >= 1 and self.count_ratio >= 2):
            raise ValueError("a ladder needs first_count >= 1 and count_ratio >= 2")
        if not (0 < self.gap_ratio < 1 and self.first_gap > 0):
            raise ValueError("a ladder needs 0 < gap_ratio < 1 and first_gap > 0")
        # total deleted volume must converge
        if not self.count_ratio * self.gap_ratio**self.hole_dim < 1 + 1e-15:
            raise ValueError("the holes' total volume diverges (count_ratio·gap_ratio^N >= 1)")

    def gap(self, k: int) -> float:
        return self.first_gap * self.gap_ratio ** (k - 1)

    @property
    def volume_ratio(self) -> float:
        """Level-to-level ratio of deleted volume, count_ratio·gap_ratio^N."""
        return self.count_ratio * self.gap_ratio**self.hole_dim

    @property
    def total_volume(self) -> float:
        """Σ_k count_k · gap_k^hole_dim (volume of all holes)."""
        first = self.first_count * self.first_gap**self.hole_dim
        return first / (1.0 - self.volume_ratio)

    @property
    def similarity_dim(self) -> float:
        """log(count_ratio) / log(1/gap_ratio)."""
        return math.log(self.count_ratio) / math.log(1.0 / self.gap_ratio)

    @property
    def oscillation_period(self) -> float:
        """Multiplicative period log(1/gap_ratio) of the ladder."""
        return math.log(1.0 / self.gap_ratio)

    def depth_for(self, tmin: float) -> int:
        """Smallest depth k0 with gap_{k0+1} <= 2*tmin (holes below resolution)."""
        if 2.0 * tmin >= self.first_gap:
            return 0
        k = int(math.ceil(math.log(self.first_gap / (2.0 * tmin)) / math.log(1.0 / self.gap_ratio)))
        while self.gap(k + 1) > 2.0 * tmin:
            k += 1
        while k > 0 and self.gap(k + 1) <= 2.0 * tmin * self.gap_ratio:
            k -= 1
        return k


@dataclass(frozen=True)
class SetDescriptor:
    """A catalog set A together with its reference region Ω.

    kind: ``cantor`` | ``carpet`` | ``aString`` | ``nest`` | ``flatDrum`` |
          ``customString`` | ``boxBoundary``
    ambient_dim: dimension N of the ambient space.
    scale: homothety factor applied to the unit construction (A -> λA, Ω -> λΩ).
    """

    kind: str
    ambient_dim: int
    scale: float = 1.0
    m: int | None = None
    a: float | None = None
    J: int | None = None
    K: int | None = None
    ladder: GapLadder | None = None
    string: FractalString | None = None

    def __post_init__(self) -> None:
        if self.scale <= 0:
            raise ValueError("scale must be positive")

    @property
    def gap_width(self) -> float:
        """First-level gap h of a ternary-type set (unit scale)."""
        if self.kind != "cantor":
            raise AttributeError("gap_width is only defined for cantor descriptors")
        return (1.0 - self.m * self.a) / (self.m - 1)

    @property
    def similarity_dim(self) -> float:
        if self.ladder is not None:
            return self.ladder.similarity_dim
        if self.kind == "aString":
            return 1.0 / (1.0 + self.a)
        if self.kind == "nest":
            return 2.0 / (1.0 + self.a)
        if self.kind == "boxBoundary":
            return float(self.ambient_dim - 1)
        raise AttributeError(f"no closed-form dimension for kind {self.kind!r}")


# ---------------------------------------------------------------------------
# constructors


def cantor_set(m: int, a: float) -> SetDescriptor:
    """Generalized ternary set C(m, a): m blocks of ratio a in [0, 1].

    Requires 1/m > a > 0 so that m-1 gaps of width h = (1-ma)/(m-1) remain.
    m = 2, a = 1/3 is the classical middle-thirds set.
    """
    if m < 2:
        raise ValueError("need at least two blocks")
    if not 0 < a < 1.0 / m:
        raise ValueError("block ratio must satisfy 0 < a < 1/m")
    h = (1.0 - m * a) / (m - 1)
    ladder = GapLadder(first_count=m - 1, count_ratio=m, first_gap=h, gap_ratio=a, hole_dim=1)
    return SetDescriptor(kind="cantor", ambient_dim=1, m=m, a=a, ladder=ladder)


def carpet(ambient_dim: int) -> SetDescriptor:
    """Ternary carpet: middle-cell removal in [0,1]^N, N = 2 or 3.

    N=2 keeps 8 of 9 subsquares per step, N=3 keeps 26 of 27 subcubes.
    """
    if ambient_dim not in (2, 3):
        raise ValueError("carpet is implemented for ambient dimension 2 and 3")
    keep = 3**ambient_dim - 1
    ladder = GapLadder(first_count=1, count_ratio=keep, first_gap=1.0 / 3.0,
                       gap_ratio=1.0 / 3.0, hole_dim=ambient_dim)
    return SetDescriptor(kind="carpet", ambient_dim=ambient_dim, ladder=ladder)


def _a_string_length(j: np.ndarray | float, a: float):
    # l_j = j^-a - (j+1)^-a, computed without cancellation for large j
    return j ** (-a) * (-np.expm1(-a * np.log1p(1.0 / j)))


def a_string(a: float, J: int) -> FractalString:
    """Explicit a-string: lengths ℓ_j = j^{-a} - (j+1)^{-a}, j = 1..J."""
    if a <= 0:
        raise ValueError("exponent must be positive")
    if J < 1:
        raise ValueError("need at least one length")
    j = np.arange(1, J + 1, dtype=float)
    lengths = _a_string_length(j, a)
    entries = tuple((float(l), 1) for l in lengths)
    return FractalString(entries=entries)


def a_string_set(a: float, J: int | None = None) -> SetDescriptor:
    """The a-string as a bounded subset {0} ∪ {j^{-a}} of [0, 1].

    J = None uses the full infinite string (tube volumes in closed form);
    finite J truncates at the J-th gap.
    """
    if a <= 0:
        raise ValueError("exponent must be positive")
    return SetDescriptor(kind="aString", ambient_dim=1, a=a, J=J)


def string_set(string: FractalString) -> SetDescriptor:
    """Wrap an explicit string as a 1-D descriptor (lengths laid end to end)."""
    return SetDescriptor(kind="customString", ambient_dim=1, string=string)


def fractal_nest(a: float, K: int) -> SetDescriptor:
    """Nest of K concentric circles of radii k^{-a} inside the unit disk."""
    if a <= 0:
        raise ValueError("exponent must be positive")
    if K < 1:
        raise ValueError("need at least one circle")
    return SetDescriptor(kind="nest", ambient_dim=2, a=a, K=K)


def _nest_radii(desc: SetDescriptor) -> np.ndarray:
    k = np.arange(1, desc.K + 1, dtype=float)
    return k ** (-desc.a)


def flat_drum() -> SetDescriptor:
    """The origin relative to the cusp region {(x, y): 0 < x < 1, 0 < y < e^{-1/x}}."""
    return SetDescriptor(kind="flatDrum", ambient_dim=2)


def box_boundary(ambient_dim: int = 2) -> SetDescriptor:
    """Boundary of the unit box [0,1]^N relative to the box itself."""
    if ambient_dim < 1:
        raise ValueError("ambient dimension must be positive")
    return SetDescriptor(kind="boxBoundary", ambient_dim=ambient_dim)


def scaled(desc: SetDescriptor, lam: float) -> SetDescriptor:
    """Homothety: both the set and its region scaled by λ > 0."""
    if lam <= 0:
        raise ValueError("scaling factor must be positive")
    return SetDescriptor(
        kind=desc.kind, ambient_dim=desc.ambient_dim, scale=desc.scale * lam,
        m=desc.m, a=desc.a, J=desc.J, K=desc.K, ladder=desc.ladder, string=desc.string,
    )


# ---------------------------------------------------------------------------
# hole tables


class _Holes(NamedTuple):
    """The tube of a drum as a sum over the holes of Ω \\ A.

    Row i: ``counts[i]`` holes of inradius ``radii[i]`` (``inf`` for the
    outer collar), each covering h_i(t) = Σ_m coeffs[i, m-1] t^m within t of
    its boundary for t <= radii[i], and h_i(radii[i]) beyond.  With
    ``ratios = (m, a)`` the last row heads a geometric family: its level
    j >= 0 holds counts[-1]·m^j holes of inradius radii[-1]·a^j.  The tube
    volume is Σ_i counts[i]·h_i(min(t, radii[i])) over all rows and levels;
    its kinks are the finite radii, and once they are all passed it is |Ω|.

    Every hole of a finite row is a cube, a gap, an annulus or a disk, and
    covers h(t) = h(ρ)(1 - (1 - t/ρ)^k) within t of its boundary, k being the
    degree of h: N for cubes, 1 for gaps and annuli, 2 for the nest's centre
    disk.  The distance to A of a uniform point of such a hole is therefore
    ρ(1 - U^{1/k}) with U uniform, which ``_hole_log_distances`` draws.
    """

    counts: np.ndarray
    radii: np.ndarray
    coeffs: np.ndarray
    ratios: tuple[int, float] | None = None


# leading gaps of the infinite a-string held as holes; the rest is a tail model
_A_STRING_HOLES = 120_000


def _truncated(desc: SetDescriptor) -> bool:
    """True for the infinite a-string, whose table holds its leading gaps only."""
    return desc.kind == "aString" and desc.J is None


def _cube_coeffs(n: int, sides: np.ndarray) -> np.ndarray:
    """Coefficients of g^n - (g - 2t)^n in t^1..t^n, one row per side g."""
    factors = [-math.comb(n, j) * (-2.0) ** j for j in range(1, n + 1)]
    return np.power.outer(sides, np.arange(n - 1.0, -1.0, -1.0)) * factors


def _ball_volume(j: int) -> float:
    """Volume ω_j of the unit ball of R^j."""
    return 1.0 if j == 0 else 2.0 if j == 1 else _ball_volume(j - 2) * 2.0 * math.pi / j


def _collar_coeffs(desc: SetDescriptor) -> list[float]:
    """Coefficients in t^1..t^N of the outer collar |A_t \\ Ω|.

    It is a Euclidean Steiner polynomial: 2t for every kind on a line, the
    annulus around the nest's unit disk, and Σ_j C(N, j) λ^{N-j} ω_j t^j
    around the box λ[0,1]^N of ladder sets and box boundaries.  The flat
    drum, a relative construction only, has no collar.
    """
    lam, n = desc.scale, desc.ambient_dim
    if desc.kind == "nest":
        return [2.0 * math.pi * lam, math.pi]
    return [math.comb(n, j) * lam ** (n - j) * _ball_volume(j) for j in range(1, n + 1)]


def _hole_table(desc: SetDescriptor, delta: float, full: bool = False) -> _Holes:
    """The holes of Ω \\ A, and with ``full`` the outer collar, as a ``_Holes``.

    Ladder levels with gaps wider than 2δ are rows of their own; the level
    after them heads the geometric family of all narrower ones, whose holes
    are all saturated for t >= δ.  The infinite a-string holds its first
    ``_A_STRING_HOLES`` gaps only.  The flat drum has no holes.
    """
    lam = desc.scale
    n = desc.ambient_dim
    ratios = None
    if desc.ladder is not None:
        lad = desc.ladder
        ks = np.arange(lad.depth_for(delta / lam) + 1, dtype=float)
        counts = lad.first_count * float(lad.count_ratio) ** ks
        sides = lam * lad.first_gap * lad.gap_ratio**ks
        radii, coeffs = sides / 2.0, _cube_coeffs(n, sides)
        ratios = (lad.count_ratio, lad.gap_ratio)
    elif desc.kind == "boxBoundary":
        counts, radii, coeffs = np.ones(1), np.array([lam / 2.0]), _cube_coeffs(n, np.array([lam]))
    elif desc.kind == "nest":
        r = lam * _nest_radii(desc)  # descending, r[0] = λ
        counts = np.ones(len(r))
        # r_k - r_{k+1} is the a-string gap ℓ_k, free of cancellation
        widths = lam * _a_string_length(np.arange(1.0, len(r)), desc.a)
        radii = np.append(widths / 2.0, r[-1])
        coeffs = np.zeros((len(r), 2))
        coeffs[:-1, 0] = 2.0 * math.pi * (r[:-1] + r[1:])  # annuli
        coeffs[-1] = (2.0 * math.pi * r[-1], -math.pi)     # centre disk
    elif desc.kind in ("aString", "customString"):
        if desc.kind == "aString":
            j = np.arange(1, (_A_STRING_HOLES if desc.J is None else desc.J) + 1, dtype=float)
            lengths, counts = lam * _a_string_length(j, desc.a), np.ones(len(j))
        else:
            lengths = lam * np.array([float(l) for l, _ in desc.string.entries])
            counts = np.array([float(mult) for _, mult in desc.string.entries])
        radii, coeffs = lengths / 2.0, np.full((len(lengths), 1), 2.0)
    else:
        raise ValueError(f"no hole table for kind {desc.kind!r}")
    if full:
        counts = np.append(1.0, counts)
        radii = np.append(math.inf, radii)
        coeffs = np.vstack((_collar_coeffs(desc), coeffs))
    return _Holes(counts, radii, coeffs, ratios)


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


_FLAT_REGION_VOLUME: float | None = None


def _flat_region_volume() -> float:
    global _FLAT_REGION_VOLUME
    if _FLAT_REGION_VOLUME is None:
        val, err = quad(lambda x: math.exp(-1.0 / x), 0.0, 1.0,
                        limit=200, epsabs=0.0, epsrel=1e-13)
        if not err < 1e-12:
            raise RuntimeError(f"flat region volume error {err:.3g} above 1e-12")
        _FLAT_REGION_VOLUME = val
    return _FLAT_REGION_VOLUME


def region_volume(desc: SetDescriptor) -> float:
    """|Ω| of the reference region.

    A is Lebesgue-null, so |Ω| is the saturated total of the hole table.  The
    infinite a-string, whose table is truncated, fills [0, λ]; the flat drum,
    which has no holes, integrates its cusp.
    """
    if desc.kind == "flatDrum":
        return desc.scale**2 * _flat_region_volume()
    if _truncated(desc):
        return desc.scale
    return float(_saturated_volumes(_hole_table(desc, math.inf), desc.ambient_dim).sum())


def _a_string_count(a: float, u: np.ndarray) -> np.ndarray:
    """j* = #{ j >= 1 : ℓ_j > 2u } for the infinite a-string, for each u > 0."""
    two_u = 2.0 * np.asarray(u, dtype=float)
    # a(j+1)^{-a-1} <= ℓ_j <= a j^{-a-1} puts j* in [g - 2, g), g = ⌈(a/2u)^{1/(1+a)}⌉;
    # widen that bracket until ℓ_lo > 2u (ℓ_0 = ∞) and ℓ_hi <= 2u hold in
    # floating point, then bisect, ℓ_j being decreasing
    guess = np.ceil((a / two_u) ** (1.0 / (1.0 + a)))
    lo, hi = np.maximum(guess - 3.0, 0.0), guess + 1.0
    while (short := _a_string_length(hi, a) > two_u).any():
        hi = np.where(short, 2.0 * hi, hi)
    while (wide := (lo > 0) & (_a_string_length(np.maximum(lo, 1.0), a) <= two_u)).any():
        lo = np.where(wide, np.floor(0.5 * lo), lo)
    while (open_ := hi - lo > 1.0).any():
        mid = np.floor(0.5 * (lo + hi))
        above = _a_string_length(np.maximum(mid, 1.0), a) > two_u
        lo = np.where(open_ & above, mid, lo)
        hi = np.where(open_ & ~above, mid, hi)
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
    return saturated[k] + _poly(unsaturated[rows - k], ts)


def _a_string_tube(desc: SetDescriptor, ts: np.ndarray, full: bool) -> np.ndarray:
    # 2t·j* + λ(j*+1)^{-a}: the j* gaps wider than 2t, then every narrower one
    lam, a = desc.scale, desc.a
    u = ts / lam
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
    ``ValueError`` if any t < 0.
    """
    ts = np.asarray(t, dtype=float)
    delta = float(ts.min(initial=math.inf))
    if delta < 0:
        raise ValueError("t must be nonnegative")
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


def _flat_log_tube_unit(t: float) -> float:
    """log |B_t(0) ∩ Ω| for the cusp region, stable for tiny t.

    The tube is {(x,y): 0<x<1, 0<y<min(e^{-1/x}, sqrt(t²-x²))} for x < t plus
    nothing beyond (points with x >= t are at distance >= t).  Integration in
    u = 1/x - 1/t keeps every exponent nonpositive.
    """
    if t <= 0:
        return -math.inf
    inv_t = 1.0 / t

    def log_parts(x: float) -> tuple[float, float]:
        x2 = t * t - x * x
        if x2 <= 0.0:
            return -1.0 / x, -math.inf
        return -1.0 / x, 0.5 * math.log(x2)

    def integrand(u: float) -> float:
        x = 1.0 / (u + inv_t)
        cusp, circle = log_parts(x)
        if circle == -math.inf:
            return 0.0
        return math.exp(min(cusp, circle) + inv_t) / (u + inv_t) ** 2

    u_lo = max(0.0, 1.0 - inv_t)  # x <= 1 (the region ends there)
    u_hi = u_lo + 60.0
    # the integrand has a kink where the cusp graph meets the circle; split there
    kink = None
    glo, ghi = u_lo + 1e-13, u_hi
    def diff(u: float) -> float:
        cusp, circle = log_parts(1.0 / (u + inv_t))
        return cusp - circle
    if diff(glo) > 0 > diff(ghi):
        for _ in range(200):
            mid = 0.5 * (glo + ghi)
            if diff(mid) > 0:
                glo = mid
            else:
                ghi = mid
        kink = 0.5 * (glo + ghi)
    pts = [kink] if kink is not None else None
    val, _ = quad(integrand, u_lo, u_hi, limit=400, epsabs=0.0, epsrel=1e-11,
                  points=pts)
    if val <= 0.0:
        return -math.inf
    return math.log(val) - inv_t


def _hole_log_distances(desc: SetDescriptor, count: int,
                        rng: np.random.Generator) -> np.ndarray:
    """log d(x, A) for ``count`` uniform points x of Ω, drawn from its exact law.

    A is Lebesgue-null and each hole's boundary lies in A, so the law is read
    off the hole table at δ = ∞.  A point lies in row i with probability
    count_i·h_i(ρ_i)/|Ω|; a one-row table draws no row.  A family head, the
    only row of a ladder's table, stands for level j >= 0 with probability
    (1 - p)·p^j, p = m·a^N, and inradius ρ·a^j.  Inside its hole the distance
    is ρ(1 - U^{1/k}) (see ``_Holes``), U uniform on [0, 1) and U = 0 the
    hole's centre, so every draw is finite.  The infinite a-string, whose
    table is truncated, lies in gap j with probability ℓ_j, so
    P(j >= k) = k^{-a} and j = ⌊V^{-1/a}⌋ for V uniform on (0, 1]; a j past
    the float range is a point of A, at distance 0.  Drawn in log space,
    nothing underflows however deep the level.
    """
    if _truncated(desc):
        with np.errstate(over="ignore", divide="ignore"):
            j = np.floor((1.0 - rng.random(count)) ** (-1.0 / desc.a))
            log_r = np.log(desc.scale * _a_string_length(j, desc.a) / 2.0)
        degree = 1
    else:
        holes = _hole_table(desc, math.inf)
        degrees = holes.coeffs.shape[1] - np.argmax(holes.coeffs[:, ::-1] != 0.0, axis=1)
        if len(holes.radii) == 1:
            log_r, degree = math.log(holes.radii[0]), int(degrees[0])
        else:
            cum = np.cumsum(_saturated_volumes(holes, desc.ambient_dim))
            row = np.minimum(np.searchsorted(cum, cum[-1] * rng.random(count), side="right"),
                             len(cum) - 1)
            log_r, degree = np.log(holes.radii)[row], degrees[row]
        if holes.ratios is not None:  # at δ = ∞ the family head is the only row
            count_ratio, a = holes.ratios
            levels = rng.geometric(1.0 - count_ratio * a**desc.ambient_dim, size=count) - 1
            log_r = log_r + levels * math.log(a)
    with np.errstate(divide="ignore"):
        log_u = np.log(rng.random(count))
    return log_r + np.log(-np.expm1(log_u / degree))


def log_tube_volume(desc: SetDescriptor, t: float | np.ndarray,
                    full: bool = False) -> float | np.ndarray:
    """log of the tube volume, -inf where it is 0.

    ``t`` is a scalar, giving a float, or an array, giving an array of its
    shape.  Every kind but the flat drum takes the log of one array
    ``tube_volume`` call; the flat drum, whose volume underflows for t below
    ~1.4e-3, integrates each t in log space.
    """
    if desc.kind == "flatDrum":
        if full:
            raise ValueError("the flat drum is a relative construction only")
        ts = np.asarray(t, dtype=float)
        logs = np.array([_flat_log_tube_unit(x) for x in (ts / desc.scale).ravel()])
        logs = logs.reshape(ts.shape) + 2.0 * math.log(desc.scale)
    else:
        with np.errstate(divide="ignore"):
            logs = np.log(tube_volume(desc, t, full=full))
    return float(logs) if logs.ndim == 0 else logs


def saturation_threshold(desc: SetDescriptor) -> float:
    """sup_{x∈Ω} d(x, A), the largest inradius of the hole table: beyond this
    t the inner tube fills Ω."""
    if desc.kind == "flatDrum":
        return math.hypot(1.0, math.exp(-1.0)) * desc.scale
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
    m, a = desc.m, desc.a
    h = desc.gap_width
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


def _nest_distance_unit(desc: SetDescriptor, pts: np.ndarray) -> np.ndarray:
    rho = np.linalg.norm(pts, axis=1)
    r = _nest_radii(desc)[::-1]
    pos = np.searchsorted(r, rho)
    cands = []
    for p in (pos - 1, pos):
        pc = np.clip(p, 0, len(r) - 1)
        cands.append(np.abs(rho - r[pc]))
    return np.minimum(cands[0], cands[1])


def distance_many(desc: SetDescriptor, pts: np.ndarray) -> np.ndarray:
    """d(x, A) for an (n, N) array of points (or (n,) when N = 1)."""
    lam = desc.scale
    arr = np.asarray(pts, dtype=float)
    if desc.ambient_dim == 1:
        arr = arr.reshape(-1)
        u = arr / lam
        if desc.kind == "cantor":
            return lam * _cantor_distance_unit(desc, u)
        if desc.kind == "aString":
            if desc.J is not None:
                raise ValueError("distances are implemented for the infinite a-string")
            return lam * _a_string_distance_unit(desc, u)
        raise ValueError(f"no distance oracle for kind {desc.kind!r}")
    arr = arr.reshape(-1, desc.ambient_dim)
    u = arr / lam
    if desc.kind == "carpet":
        return lam * _carpet_distance_unit(desc, u)
    if desc.kind == "nest":
        return lam * _nest_distance_unit(desc, u)
    if desc.kind == "flatDrum":
        return lam * np.linalg.norm(u, axis=1)
    if desc.kind == "boxBoundary":
        interior = np.minimum(u, 1.0 - u).min(axis=1)
        clamped = np.clip(u, 0.0, 1.0)
        outside = np.linalg.norm(u - clamped, axis=1)
        inside = np.all((u >= 0) & (u <= 1), axis=1)
        return lam * np.where(inside, np.maximum(interior, 0.0), outside)
    raise ValueError(f"no distance oracle for kind {desc.kind!r}")


def distance(desc: SetDescriptor, x) -> float:
    """d(x, A) for a single point."""
    if desc.ambient_dim == 1:
        return float(distance_many(desc, np.array([float(x)]))[0])
    return float(distance_many(desc, np.array([x], dtype=float))[0])
