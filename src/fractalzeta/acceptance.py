"""The acceptance matrix: one self-contained check per shipped guarantee.

Each criterion builds its own inputs, runs the public API, and returns a
pass/fail verdict with a one-line detail string.  The pytest suite and the
``verify`` CLI command both run these records, so the numbers quoted in the
README come from exactly this code.
"""
from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

import numpy as np

from . import dims, geometry, quasi, spectrum, tubeformula, zeta
from .spectrum import PoleSet, Window

__all__ = ["CriterionResult", "CRITERIA", "SUITES", "run_criterion", "run_all", "format_report"]

LN2 = math.log(2.0)
LN3 = math.log(3.0)


@dataclass(frozen=True)
class CriterionResult:
    cid: str
    title: str
    passed: bool
    detail: str
    seconds: float


def _fmt(x: float) -> str:
    return f"{x:.3g}"


# --- 1: planar carpet tube formula vs exact hole sum -------------------------


def _crit01() -> tuple[bool, str]:
    desc = geometry.carpet(2)
    dcar = math.log(8.0) / LN3
    w = Window(-0.5, 1.95, (50 + 0.5) * 2.0 * math.pi / LN3)
    ts = (0.3, 0.1, 0.03, 0.01)
    tubeformula.truncated_tube(desc, 0.2, w)  # warmup outside the clock
    start = time.perf_counter()
    reports = [tubeformula.truncated_tube(desc, t, w) for t in ts]
    elapsed = time.perf_counter() - start
    worst = max(r.abs_error for r in reports)
    ok = worst <= 1e-6 and elapsed < 1.0
    return ok, (f"carpet(2), K=50, t in {ts}: max |formula-oracle| = {_fmt(worst)} "
                f"(<= 1e-06), {elapsed:.2f} s (< 1 s); D = {dcar:.4f}")


# --- 2: spatial carpet coefficients, residues, and formula --------------------


def _crit02() -> tuple[bool, str]:
    desc = geometry.carpet(3)
    form = zeta.catalog_form(desc)
    want_res = {0: Fraction(-24, 25), 1: Fraction(24, 23), 2: Fraction(-6, 17)}
    want_coef = {0: Fraction(-8, 25), 1: Fraction(12, 23), 2: Fraction(-6, 17)}
    exact_ok = True
    for k in (0, 1, 2):
        res = spectrum.residue_exact(form, k)
        coef = res / (3 - k)  # t^{3-k} coefficient of the tube expansion
        exact_ok &= res == want_res[k] and coef == want_coef[k]
    float_err = max(abs(spectrum.residue_analytic(form, k) - float(want_res[k]))
                    for k in (0, 1, 2))
    w = Window(-0.5, 2.98, (50 + 0.5) * 2.0 * math.pi / LN3)
    rep = tubeformula.truncated_tube(desc, 0.1, w)
    ok = exact_ok and float_err <= 1e-12 and rep.abs_error <= 1e-6
    return ok, (f"carpet(3): exact residues/coefficients {'match' if exact_ok else 'MISMATCH'} "
                f"(-24/25, 24/23, -6/17; t-coeffs -6/17, 12/23, -8/25), float residue err "
                f"{_fmt(float_err)} (<= 1e-12), |formula-oracle|(t=0.1) = {_fmt(rep.abs_error)}")


# --- 3: residue bounded by the content envelope -------------------------------


def _crit03() -> tuple[bool, str]:
    desc = geometry.carpet(2)
    d = math.log(8.0) / LN3
    res = spectrum.residue_analytic(zeta.catalog_form(desc), d).real
    lo = (2.0 - d) * 1.350670
    hi = (2.0 - d) * 1.355617
    ok = lo - 1e-4 <= res <= hi + 1e-4
    return ok, (f"carpet(2): res(zeta, D) = {res:.6f} in [(2-D)*1.350670, (2-D)*1.355617] "
                f"= [{lo:.6f}, {hi:.6f}] (tol 1e-04)")


# --- 4: string content two ways ------------------------------------------------


def _crit04() -> tuple[bool, str]:
    target = 2.0 * math.sqrt(2.0)
    desc = geometry.a_string_set(1.0)
    start = time.perf_counter()
    grid = dims.log_grid(1e-8, 1e-4)
    env = dims.relative_content_envelope(desc, 0.5, grid)
    res = zeta.tube_zeta_residue(desc, 0.5, delta=0.5)
    elapsed = time.perf_counter() - start
    env_err = max(abs(env.lower_est / target - 1.0), abs(env.upper_est / target - 1.0))
    res_err = abs(res / target - 1.0)
    ok = env_err <= 0.01 and res_err <= 0.01 and elapsed < 10.0
    return ok, (f"1/j string: envelope [{env.lower_est:.4f}, {env.upper_est:.4f}] and "
                f"res(tube zeta, 1/2) = {res:.4f} vs 2*sqrt(2) = {target:.4f}; "
                f"errors {_fmt(env_err)}, {_fmt(res_err)} (<= 0.01), {elapsed:.1f} s (< 10 s)")


# --- 5: convergence abscissa equals the dimension ------------------------------


def _crit05() -> tuple[bool, str]:
    cases: list[tuple[str, geometry.SetDescriptor, float]] = [
        ("cantor(2,1/3)", geometry.cantor_set(2, 1.0 / 3.0), LN2 / LN3),
        ("carpet(2)", geometry.carpet(2), math.log(8.0) / LN3),
    ]
    for a in (0.5, 1.0, 2.0):
        cases.append((f"string(a={a:g})", geometry.a_string_set(a), 1.0 / (1.0 + a)))
    errs = []
    for _, desc, want in cases:
        got = zeta.abscissa_of(desc)
        errs.append(abs(got - want))
    worst = max(errs)
    ok = worst <= 0.01
    pieces = ", ".join(f"{name} err {_fmt(e)}" for (name, _, _), e in zip(cases, errs))
    return ok, f"abscissa scan vs dimension: {pieces} (all <= 0.01)"


# --- 6: distance/tube zeta functional equation ---------------------------------


def _crit06() -> tuple[bool, str]:
    rng = np.random.default_rng(20260814)
    cases = [
        (geometry.cantor_set(2, 1.0 / 3.0), LN2 / LN3),
        (geometry.carpet(2), math.log(8.0) / LN3),
        (geometry.carpet(3), math.log(26.0) / LN3),
    ]
    worst = 0.0
    for desc, d in cases:
        for _ in range(10):
            s = complex(d + 0.2 + rng.uniform(0.0, 1.0), rng.uniform(-3.0, 3.0))
            worst = max(worst, zeta.functional_eq_residual(desc, s, delta=0.5))
    ok = worst <= 1e-7
    return ok, (f"functional equation at 10 random s per set (Re s > D + 0.2): "
                f"max residual {_fmt(worst)} (<= 1e-07)")


# --- 7: homothety scaling of the zeta ------------------------------------------


def _crit07() -> tuple[bool, str]:
    cantor = geometry.cantor_set(2, 1.0 / 3.0)
    carpet2 = geometry.carpet(2)
    worst_closed = 0.0
    for desc, d in ((cantor, LN2 / LN3), (carpet2, math.log(8.0) / LN3)):
        for lam in (1.0 / 3.0, 2.0):
            for s in (d + 0.3, complex(d + 0.4, 1.7)):
                worst_closed = max(worst_closed, zeta.scaling_check(desc, lam, s))
    worst_mc = 0.0
    for lam in (1.0 / 3.0, 2.0):
        worst_mc = max(worst_mc, zeta.scaling_check(
            cantor, lam, 0.9, method="mc", n=10**6, seed=20260814))
    ok = worst_closed <= 1e-13 and worst_mc <= 3.0
    return ok, (f"closed-form residual {_fmt(worst_closed)} (<= 1e-13, double-precision zero); "
                f"Monte Carlo residual {worst_mc:.2f} combined std errs (<= 3) at n = 1e6")


# --- 8: integrability threshold of the inverse distance -------------------------


def _crit08() -> tuple[bool, str]:
    desc = geometry.cantor_set(2, 1.0 / 3.0)
    conv = zeta.hp_integrability_probe(desc, 0.3)
    div = zeta.hp_integrability_probe(desc, 0.4)
    ok = conv.convergent and not div.convergent
    return ok, (f"cantor(2,1/3): gamma = 0.3 -> {'convergent' if conv.convergent else 'divergent'}, "
                f"gamma = 0.4 -> {'convergent' if div.convergent else 'divergent'} "
                f"(threshold 1 - log_3 2 = {1.0 - LN2 / LN3:.4f})")


# --- 9: scaling-equation roots, lattice and nonlattice ---------------------------


def _spray_defect(ratios: Sequence[float], omega: complex) -> float:
    return abs(sum(r**omega for r in np.asarray(ratios, dtype=complex)) - 1.0)


def _crit09() -> tuple[bool, str]:
    d = math.log(8.0) / LN3
    w_lat = Window(d - 0.5, d + 0.5, (10 + 0.5) * 2.0 * math.pi / LN3)
    lat = spectrum.spray_dims([1.0 / 3.0] * 8, w_lat)
    expected = sorted((complex(d, 2.0 * math.pi * k / LN3) for k in range(-10, 11)),
                      key=lambda z: z.imag)
    got = sorted(lat.omega.tolist(), key=lambda z: z.imag)
    lattice_err = (max(abs(a - b) for a, b in zip(got, expected))
                   if len(got) == len(expected) else math.inf)

    ratios = (0.5, 1.0 / 3.0)
    lo, hi = 0.5, 1.0
    for _ in range(200):  # bisection oracle for 2^-s + 3^-s = 1
        mid = 0.5 * (lo + hi)
        if 2.0**-mid + 3.0**-mid > 1.0:
            lo = mid
        else:
            hi = mid
    oracle = 0.5 * (lo + hi)
    non = spectrum.spray_dims(ratios, Window(0.0, 1.0, 20.0))
    reals = non.omega.real[np.abs(non.omega.imag) < 1e-9].tolist()
    real_err = min(abs(r - oracle) for r in reals) if reals else math.inf
    defect = max(
        [_spray_defect([1.0 / 3.0] * 8, w) for w in lat.omega.tolist()]
        + [_spray_defect(ratios, w) for w in non.omega.tolist()])
    ok = lattice_err <= 1e-10 and real_err <= 1e-5 and defect <= 1e-10
    return ok, (f"lattice (8 x 1/3): {len(got)} roots, max dev {_fmt(lattice_err)} (<= 1e-10); "
                f"nonlattice (1/2, 1/3): real root vs bisection {oracle:.5f} err {_fmt(real_err)} "
                f"(<= 1e-05); max |sum r^w - 1| = {_fmt(defect)} (<= 1e-10)")


# --- 10: residues from the tube function's Fourier coefficients ------------------


def _crit10() -> tuple[bool, str]:
    desc = geometry.cantor_set(2, 1.0 / 3.0)
    d = LN2 / LN3
    tau0 = math.log(6.0)  # capped tube is exactly log-periodic below t = 1/6
    coefs = spectrum.fourier_residues(
        lambda t: geometry.full_tube_volume(desc, t), 1, d, LN3, kmax=5, tau0=tau0)
    form = zeta.catalog_form(desc, full=True, delta=0.5)
    rel_err = 0.0
    c0 = None
    for k, ck in coefs:
        sk = complex(d, 2.0 * math.pi * k / LN3)
        want = spectrum.residue_analytic(form, sk) / (1.0 - sk)
        rel_err = max(rel_err, abs(ck - want) / abs(want))
        if k == 0:
            c0 = ck.real
    taus = tau0 + LN3 * np.arange(4096) / 4096
    g = geometry.full_tube_volume(desc, np.exp(-taus)) * np.exp((1.0 - d) * taus)
    strict = float(g.min()) < c0 < float(g.max())
    ok = rel_err <= 1e-3 and strict
    return ok, (f"cantor(2,1/3), |k| <= 5: max relative residue error {_fmt(rel_err)} (<= 1e-03); "
                f"average {c0:.5f} strictly inside envelope [{g.min():.5f}, {g.max():.5f}]: {strict}")


# --- 11: measurability from the principal poles ----------------------------------


def _crit11() -> tuple[bool, str]:
    desc = geometry.cantor_set(2, 1.0 / 3.0)
    d = LN2 / LN3
    w = Window(d - 0.01, d + 0.01, (2 + 0.5) * 2.0 * math.pi / LN3)
    principal = spectrum.poles(zeta.catalog_form(desc), w)
    v1 = tubeformula.measurability_check(principal, d)
    v2 = tubeformula.measurability_check(PoleSet([0.5], [2.0 * math.sqrt(2.0)]), 0.5)
    v3 = tubeformula.measurability_check(PoleSet([0.5, 0.5 + 4.0j], [1.0, 0.0]), 0.5)
    ok = (not v1.measurable) and v2.measurable and v3.measurable
    return ok, (f"cantor lattice ({len(principal)} poles) -> "
                f"{'non' if not v1.measurable else ''}measurable; single simple pole -> "
                f"{'measurable' if v2.measurable else 'NONMEASURABLE'}; zero-residue "
                f"companion ignored -> {'measurable' if v3.measurable else 'NONMEASURABLE'}")


# --- 12: quasiperiodic pair construction ------------------------------------------


def _brute_force_dependent(vectors: Sequence[Sequence[int]], bound: int = 10) -> bool:
    k = len(vectors)
    width = len(vectors[0])
    for coeffs in itertools.product(range(-bound, bound + 1), repeat=k):
        if all(c == 0 for c in coeffs):
            continue
        if all(sum(c * v[i] for c, v in zip(coeffs, vectors)) == 0 for i in range(width)):
            return True
    return False


def _crit12() -> tuple[bool, str]:
    rep = quasi.two_qp_set(2, 3, 0.5, band=4.0)
    a_ok = abs(rep.ratios[0] - 0.25) <= 1e-15 and abs(rep.ratios[1] - 1.0 / 9.0) <= 1e-15
    want = {complex(0.5, tau) for tau in
            (0.0, 2.0 * math.pi / math.log(9.0), -2.0 * math.pi / math.log(9.0))}
    got = set(rep.principal_dims)
    dims_ok = len(got) == len(want) and all(
        min(abs(g - w) for w in want) <= 1e-12 for g in got)
    try:
        quasi.two_qp_set(2, 4, 0.5)
        refused = False
        relation = "accepted (wrong)"
    except quasi.DependenceError as exc:
        refused = True
        relation = "2^(-2)*4^(1)=1" if tuple(exc.relation) else ""
    tests: list[list[list[int]]] = [
        [[1, 0], [0, 1]], [[1], [2]], [[1, 0], [1, 1]],
        [[2, 1, 0], [0, 1, 1], [2, 2, 1]], [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
        [[1, 2, 3], [2, 4, 6]], [[3, 1], [1, 3]], [[2, 3], [4, 6]],
        [[5]], [[0, 0]], [[1, 1], [1, -1], [2, 0]],
    ]
    agree = all(quasi.rationally_independent(v) == (not _brute_force_dependent(v))
                for v in tests)
    ok = a_ok and dims_ok and refused and agree
    return ok, (f"(2,3,1/2): a = (1/4, 1/9) {'ok' if a_ok else 'WRONG'}, principal dims in "
                f"|Im| <= 4 {'ok' if dims_ok else 'WRONG'}; (2,4,1/2) refused: {refused} "
                f"[{relation}]; independence matches brute force on {len(tests)} vector sets: {agree}")


# --- 13: critical-line densification -----------------------------------------------


def _crit13() -> tuple[bool, str]:
    gaps = [quasi.hyperfractal_truncation(0.5, k, m_seq=(2, 3, 5), band=20.0).min_gap
            for k in (1, 2, 3)]
    ok = gaps[0] > gaps[1] > gaps[2] > 0
    return ok, (f"minimal ordinate gap on [0, 20]: K=1 -> {gaps[0]:.5f}, K=2 -> {gaps[1]:.5f}, "
                f"K=3 -> {gaps[2]:.5f} (strictly decreasing)")


# --- 14: unboundedly negative relative dimension -------------------------------------


def _crit14() -> tuple[bool, str]:
    desc = geometry.flat_drum()
    fits = []
    for tmin in (1e-3, 10**-3.5):
        grid = dims.log_grid(tmin, tmin * 10.0, per_decade=24)
        fits.append(dims.relative_box_dim_fit(desc, grid).dest)
    ok = fits[0] < -5.0 and fits[1] < fits[0]
    return ok, (f"flat drum slope fit: dim estimate {fits[0]:.1f} at tMin = 1e-3 (< -5) and "
                f"{fits[1]:.1f} at tMin = 10^-3.5 (still decreasing)")


CRITERIA: tuple[tuple[str, str, Callable[[], tuple[bool, str]]], ...] = (
    ("A01", "planar carpet truncated tube formula matches the exact hole sum", _crit01),
    ("A02", "spatial carpet exact coefficients, residues, and tube formula", _crit02),
    ("A03", "carpet residue lies inside the content-envelope sandwich", _crit03),
    ("A04", "1/j-string content recovered by envelope and tube-zeta residue", _crit04),
    ("A05", "convergence abscissa equals the box dimension across the catalog", _crit05),
    ("A06", "distance/tube zeta functional equation residual", _crit06),
    ("A07", "homothety scaling identity, closed form and Monte Carlo", _crit07),
    ("A08", "inverse-distance integrability flips at the co-dimension", _crit08),
    ("A09", "scaling-equation roots: lattice ladder and nonlattice real root", _crit09),
    ("A10", "tube-zeta residues from Fourier coefficients of the tube profile", _crit10),
    ("A11", "Minkowski measurability verdict from principal poles", _crit11),
    ("A12", "quasiperiodic pair accepted/refused by exact independence", _crit12),
    ("A13", "singularity ordinates densify as components accumulate", _crit13),
    ("A14", "flat drum relative dimension diverges to minus infinity", _crit14),
)

SUITES: dict[str, tuple[str, ...]] = {
    "carpet-tube": ("A01",),
    "carpet3": ("A02",),
    "residue-sandwich": ("A03",),
    "string-content": ("A04",),
    "abscissa": ("A05",),
    "functional-equation": ("A06",),
    "scaling": ("A07",),
    "integrability": ("A08",),
    "spray": ("A09",),
    "fourier": ("A10",),
    "measurability": ("A11",),
    "quasiperiodic": ("A12",),
    "hyperfractal": ("A13",),
    "flat-drum": ("A14",),
    "all": tuple(cid for cid, _, _ in CRITERIA),
}


def run_criterion(cid: str) -> CriterionResult:
    for c, title, func in CRITERIA:
        if c == cid:
            start = time.perf_counter()
            try:
                passed, detail = func()
            except Exception as exc:  # a crash is a failure, not an error
                passed, detail = False, f"raised {type(exc).__name__}: {exc}"
            # some criteria return a numpy.bool, which json cannot write
            return CriterionResult(cid=c, title=title, passed=bool(passed),
                                   detail=detail, seconds=time.perf_counter() - start)
    raise KeyError(f"unknown criterion {cid!r}")


def run_all(cids: Sequence[str] | None = None) -> list[CriterionResult]:
    wanted = tuple(cids) if cids is not None else SUITES["all"]
    return [run_criterion(c) for c in wanted]


def format_report(results: Sequence[CriterionResult]) -> str:
    lines = []
    for r in results:
        status = "PASS" if r.passed else "FAIL"
        lines.append(f"{status} {r.cid} {r.title}: {r.detail} [{r.seconds:.2f} s]")
    bad = sum(not r.passed for r in results)
    lines.append(f"{len(results) - bad}/{len(results)} criteria passed")
    return "\n".join(lines)
