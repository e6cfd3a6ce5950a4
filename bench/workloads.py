"""The benchmark's workloads: operations built from a seed, with their checks.

An operation is either an in-process ``fractalzeta.cli.main`` call, whose JSON
artifact is validated against ``schema.json`` and then compared with an
independent reference from :mod:`refs`, or a direct call into the public API
where the CLI has no subcommand for it.  ``build(workload, seed)`` only
constructs inputs (argument lists and set descriptors); references are
computed separately by ``Op.prepare`` so that they stay out of set-up time.

An operation fails when it raises, when its artifact fails the schema, or
when it misses its tolerance.  ``check`` returns the operation's relative
error, or raises :class:`CheckFailed` with the reason (and the error, when
the output had one).
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass, field
from fractions import Fraction
from typing import Any, Callable

import mpmath as mp
import numpy as np

import refs

from fractalzeta import cli, geometry, spectrum, zeta

WORKLOADS = ("tube-zeta", "monte-carlo", "spectrum")

QUAD_TOL = 1e-10          # tube_zeta_quad's default, which the CLI uses
ROUNDOFF = 1e-13          # a quadrature bound is not tested below this share of |ref|
MC_SIGMAS = 5.0           # Monte Carlo values must lie within this many std errors
LN3 = math.log(3.0)


class CheckFailed(Exception):
    """An output missed its tolerance or its artifact failed the schema.

    ``err`` keeps the relative error when the output had one.
    """

    def __init__(self, reason: str, err: float | None = None):
        super().__init__(reason)
        self.err = err


@dataclass
class Op:
    label: str
    run: Callable[[], Any]
    check: Callable[[Any, Any], float]
    reference: Callable[[], Any]
    expect_fail: bool = False
    ref: Any = field(default=None, repr=False)

    def prepare(self) -> None:
        self.ref = self.reference()


# ---------------------------------------------------------------------------
# CLI plumbing


class CliResult:
    __slots__ = ("code", "text")

    def __init__(self, code: int, text: str):
        self.code, self.text = code, text


def _cli(argv: list[str]) -> Callable[[], CliResult]:
    def run() -> CliResult:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        return CliResult(code, buf.getvalue())
    return run


_VALIDATOR = None


def _artifact(res: CliResult) -> dict:
    """Parse a CLI artifact and validate it against the package schema."""
    global _VALIDATOR
    if _VALIDATOR is None:
        import jsonschema
        from pathlib import Path
        schema = json.loads((Path(cli.__file__).parent / "schema.json").read_text())
        _VALIDATOR = jsonschema.Draft202012Validator(schema)
    if res.code != 0:
        raise CheckFailed(f"exit code {res.code}")
    payload = json.loads(res.text)
    errors = list(_VALIDATOR.iter_errors(payload))
    if errors:
        raise CheckFailed(f"schema: {errors[0].message}")
    return payload


def _c(obj: dict) -> complex:
    return complex(obj["re"], obj["im"])


def _rel(got, want) -> float:
    want = complex(want)
    return abs(complex(got) - want) / abs(want)


def _need(ok: bool, what: str, err: float | None = None) -> None:
    if not ok:
        raise CheckFailed(what, err)


def _bounded(err: float, tol: float, what: str) -> float:
    _need(err <= tol, f"{what} off by {err:.3g}", err)
    return err


# ---------------------------------------------------------------------------
# checks shared by several workloads


def _check_quad(res: CliResult, ref) -> float:
    art = _artifact(res)
    v, bound = _c(art["value"]), art["quadErrBound"]
    err = abs(v - complex(ref))
    rel = err / abs(complex(ref))
    _need(bound <= QUAD_TOL * max(1.0, abs(v)),
          f"bound {bound:.3g} above the requested tol {QUAD_TOL:g}", rel)
    _need(err <= bound + ROUNDOFF * max(1.0, abs(complex(ref))),
          f"error {err:.3g} beyond the returned bound {bound:.3g}", rel)
    return rel


def _check_mc(n: int):
    def check(res: CliResult, ref) -> float:
        art = _artifact(res)
        v, se = _c(art["value"]), art["stdErr"]
        err = se / abs(complex(ref))
        _need(art["samples"] == n, "sample count", err)
        _need(abs(v - complex(ref)) <= MC_SIGMAS * se,
              f"{abs(v - complex(ref)) / se:.2f} std errors from the reference", err)
        return err
    return check


def _check_closed(res: CliResult, ref) -> float:
    rel = _rel(_c(_artifact(res)["value"]), ref)
    _need(rel <= 1e-12, f"closed form off by {rel:.3g}")
    return rel


# ---------------------------------------------------------------------------
# the ladder sets of the catalog


@dataclass(frozen=True)
class LadderSet:
    name: str
    flags: tuple[str, ...]         # CLI flags selecting the set
    lad: refs.Ladder
    desc: Callable[[], geometry.SetDescriptor]


LADDERS = {
    "cantor": LadderSet("cantor", ("--set", "cantor"), refs.cantor_ladder(2, Fraction(1, 3)),
                        lambda: geometry.cantor_set(2, 1.0 / 3.0)),
    "cantor5": LadderSet("cantor5", ("--set", "cantor", "--m", "5", "--a", "0.1"),
                         refs.cantor_ladder(5, Fraction(1, 10)),
                         lambda: geometry.cantor_set(5, 0.1)),
    "carpet2": LadderSet("carpet2", ("--set", "carpet2"), refs.carpet_ladder(2),
                         lambda: geometry.carpet(2)),
    "carpet3": LadderSet("carpet3", ("--set", "carpet3"), refs.carpet_ladder(3),
                         lambda: geometry.carpet(3)),
}


def _num(x: float) -> str:
    return repr(float(x))


def _quad_op(ls: LadderSet, s: complex, delta: float, full: bool = False,
             expect_fail: bool = False) -> Op:
    argv = ["zeta", *ls.flags, "--re", _num(s.real), "--im", _num(s.imag),
            "--method", "quad", "--delta", _num(delta)] + (["--full"] if full else [])
    label = f"quad {ls.name}{' full' if full else ''}{' near-critical' if expect_fail else ''}"
    return Op(label, _cli(argv), _check_quad, lambda: refs.tube_zeta(ls.lad, s, delta, full=full),
              expect_fail)


# ---------------------------------------------------------------------------
# tube-zeta: deterministic evaluations on the scalar tube-volume oracle

# Im s windows stay clear of the first oscillatory pole 2π/ln(1/a) of each set
QUAD_BOX = {"cantor": 3.0, "cantor5": 1.5, "carpet2": 3.0, "carpet3": 2.5}
QUAD_POINTS = 6
# near-critical ladder points: the fitted power-law tail misjudges the
# log-periodic part of V(t) there, so these fail on every run
NEAR_CRITICAL = (("cantor", 0.1, 5.8), ("carpet2", 0.05, 5.8))


def _tube_op(ls: LadderSet, tmin: float, tmax: float, full: bool, label: str) -> Op:
    argv = ["tube", *ls.flags, "--tmin", _num(tmin), "--tmax", _num(tmax),
            "--per-decade", "16", "--format", "json"] + (["--full"] if full else [])

    def reference():
        return [float(refs.tube_volume(ls.lad, float(t), full=full)) for t in _log_grid(tmin, tmax, 16)]

    def check(res: CliResult, ref) -> float:
        rows = _artifact(res)["rows"]
        _need(len(rows) == len(ref), "row count")
        err = max(abs(r["volume"] / v - 1) for r, v in zip(rows, ref))
        _need(err <= 1e-12, f"tube volume off by {err:.3g}")
        return err
    return Op(label, _cli(argv), check, reference)


def _log_grid(tmin: float, tmax: float, per_decade: int) -> np.ndarray:
    count = max(2, int(round(math.log10(tmax / tmin) * per_decade)) + 1)
    return np.exp(np.linspace(math.log(tmin), math.log(tmax), count))


def _dims_op(ls: LadderSet, tmin: float, tmax: float, per_decade: int, label: str) -> Op:
    lad, dim = ls.lad, ls.lad.dim
    argv = ["dims", *ls.flags, "--tmin", _num(tmin), "--tmax", _num(tmax),
            "--per-decade", str(per_decade), "--dim", _num(dim)]

    def reference():
        ts = _log_grid(tmin, tmax, per_decade)
        ts = ts[ts <= ts[0] * 100.0 * (1 + 1e-12)]      # the two-decade envelope window
        norm = [refs.tube_volume(lad, float(t)) / mp.power(t, lad.dim_n - dim) for t in ts]
        return float(min(norm)), float(max(norm))

    def check(res: CliResult, ref) -> float:
        art = _artifact(res)
        env = art["envelope"]
        _need(abs(art["dimEstimate"] - dim) <= 5e-3, f"dimension {art['dimEstimate']:.6f}")
        env_err = max(abs(env["lowerEst"] / ref[0] - 1), abs(env["upperEst"] / ref[1] - 1))
        _need(env_err <= 1e-9, f"envelope off by {env_err:.3g}")
        return abs(art["dimEstimate"] - dim) / dim
    return Op(label, _cli(argv), check, reference)


def _fourier_op(ls: LadderSet, kmax: int) -> Op:
    lad = ls.lad
    desc = ls.desc()
    period = math.log(1.0 / float(lad.a))
    tau0 = math.log(2.0 / float(lad.gap))   # below the half first gap V is log-periodic

    def run():
        return spectrum.fourier_residues(lambda t: geometry.full_tube_volume(desc, t),
                                         1, lad.dim, period, kmax=kmax, tau0=tau0)

    def check(got, ref) -> float:
        _need(len(got) == 2 * kmax + 1, "coefficient count")
        err = max(_rel(ck, ref[k]) for k, ck in got)
        _need(err <= 1e-4, f"Fourier residue off by {err:.3g}")
        return err
    return Op(f"fourier {ls.name}", run, check,
              lambda: {k: complex(refs.lattice_residues(lad, k)[1]) for k in range(-kmax, kmax + 1)})


def _abscissa_op(label: str, desc_fn, dim: float) -> Op:
    desc = desc_fn()

    def check(got, ref) -> float:
        _need(abs(got - ref) <= 1e-3, f"abscissa {got:.6f} vs {ref:.6f}")
        return abs(got - ref) / ref
    return Op(label, lambda: zeta.abscissa_of(desc), check, lambda: dim)


def _a_string_quad_op(a: float, s: complex) -> Op:
    argv = ["zeta", "--set", "astring", "--a", _num(a), "--re", _num(s.real),
            "--im", _num(s.imag), "--method", "quad", "--delta", "0.5"]
    return Op(f"quad astring a={a:g}", _cli(argv), _check_quad,
              lambda: refs.a_string_tube_zeta(a, s, 0.5))


def _tube_zeta_ops(rng: random.Random) -> list[Op]:
    ops: list[Op] = []
    # seeded well-conditioned points: Re s - D on fixed levels in [0.3, 1.2]
    # and a seeded Im s, so that every seed asks for the same quadrature work
    for name, box in QUAD_BOX.items():
        ls = LADDERS[name]
        for j in range(QUAD_POINTS):
            x = 0.3 + 0.9 * (j + 0.5) / QUAD_POINTS
            s = complex(ls.lad.dim + x, rng.uniform(-box, box))
            ops.append(_quad_op(ls, s, 0.5, full=j % 2 == 1))
    for name, x, y in NEAR_CRITICAL:
        ls = LADDERS[name]
        ops.append(_quad_op(ls, complex(ls.lad.dim + x, y), 0.5, expect_fail=True))
    # the a-string's segment route, and its tube-zeta residue (as in A04)
    for a in (0.5, 1.0, 2.0):
        s = complex(1.0 / (1.0 + a) + rng.uniform(0.3, 1.2), rng.uniform(-3.0, 3.0))
        ops.append(_a_string_quad_op(a, s))
    ops.append(Op("tube_zeta_residue astring", lambda: zeta.tube_zeta_residue(
        geometry.a_string_set(1.0), 0.5, delta=0.5),
        lambda got, ref: _bounded(abs(got / ref - 1), 1e-2, "residue"),
        lambda: float(refs.a_string_tube_residue(1.0))))
    # dimension fits and content envelopes on long log grids
    for name in LADDERS:
        tmin = 10.0 ** rng.uniform(-13.0, -12.0)
        ops.append(_dims_op(LADDERS[name], tmin, tmin * 1e10, 64, f"dims {name}"))
    for name in ("cantor", "cantor5"):
        ops.append(_fourier_op(LADDERS[name], rng.randint(3, 6)))
    for name, ls in LADDERS.items():
        ops.append(_abscissa_op(f"abscissa {name}", ls.desc, ls.lad.dim))
    ops.append(_abscissa_op("abscissa astring a=2", lambda: geometry.a_string_set(2.0), 1.0 / 3.0))
    # seeded tube grid, full mode
    tmin = 10.0 ** rng.uniform(-9.0, -7.0)
    ops.append(_tube_op(LADDERS["carpet2"], tmin, tmin * 1e6, True, "tube carpet2 full"))
    # the README examples
    ls = LADDERS["cantor"]
    ops.append(_tube_op(ls, 1e-4, 1e-1, False, "readme tube"))
    ops.append(_dims_op(ls, 1e-6, 1e-2, 32, "readme dims"))
    ops.append(Op("readme zeta closed", _cli(["zeta", "--set", "carpet2", "--re", "2.2", "--im", "1.0"]),
                  _check_closed, lambda: refs.distance_zeta(refs.carpet_ladder(2), 2.2 + 1.0j)))
    ops.append(Op("readme zeta quad", _cli(["zeta", "--set", "cantor", "--re", "0.9", "--im", "1.0",
                                            "--method", "quad", "--delta", "0.1666"]),
                  _check_quad, lambda: refs.tube_zeta(ls.lad, 0.9 + 1.0j, 0.1666)))
    return ops


# ---------------------------------------------------------------------------
# monte-carlo: seeded distance_zeta_mc on the finite-variance side


# (set, samples, relative/full, homothety) per operation of a pass
MC_PLAN = (
    ("cantor", 10**6, False, False), ("cantor", 10**6, True, False),
    ("cantor", 10**6, False, True), ("cantor", 5 * 10**5, True, True),
    ("carpet2", 10**6, False, False), ("carpet2", 3 * 10**5, True, False),
    ("carpet2", 2 * 10**5, False, True), ("carpet2", 3 * 10**5, True, True),
    ("carpet3", 10**5, False, False), ("carpet3", 10**5, True, False),
    ("carpet3", 10**5, False, True), ("carpet3", 10**5, True, True),
)


def _mc_ops(rng: random.Random) -> list[Op]:
    ops = []
    for i, (name, n, full, homothety) in enumerate(MC_PLAN):
        ls = LADDERS[name]
        big_n, dim = ls.lad.dim_n, ls.lad.dim
        # Re s = N - f (N - D)/2: f < 1 keeps the variance finite, f < 1/2
        # also the fourth moment, so the reported std error is itself steady.
        # s and δ/λ are fixed per operation, so that its relative std error
        # does not depend on the seed; the seed draws the samples and λ, which
        # scales value and std error alike
        f = -0.5 + 0.25 * (i % 4)
        s = complex(big_n - f * (big_n - dim) / 2.0, -2.5 + 1.5 * (i % 3))
        lam = math.exp(rng.uniform(math.log(1 / 3), math.log(3))) if homothety else 1.0
        delta = 0.45 * lam
        argv = ["zeta", *ls.flags, "--re", _num(s.real), "--im", _num(s.imag), "--method", "mc",
                "--n", str(n), "--seed", str(rng.randrange(2**31))]
        if full:
            argv += ["--full", "--delta", _num(delta)]
        if homothety:
            argv += ["--scale", _num(lam)]
        label = f"mc {name}{' full' if full else ''}{' scaled' if homothety else ''}"
        ops.append(Op(label, _cli(argv), _check_mc(n),
                      lambda lad=ls.lad, s=s, lam=lam, full=full, delta=delta:
                      refs.distance_zeta(lad, s, scale=lam, full=full, delta=delta)))
    ops.append(Op("readme zeta mc", _cli(["zeta", "--set", "carpet2", "--re", "1.95", "--method", "mc",
                                          "--n", "100000", "--seed", "11"]),
                  _check_mc(100000), lambda: refs.distance_zeta(refs.carpet_ladder(2), 1.95)))
    return ops


# ---------------------------------------------------------------------------
# spectrum: complex dimensions and tube formulas


def _window_arg(sl: float, sr: float, tau: float) -> str:
    return f"--window={sl!r}:{sr!r}:{tau!r}"


def _spray_poles_op(ratios: tuple[float, ...], sl: float, sr: float, tau: float, label: str) -> Op:
    argv = ["poles", "--ratios", ",".join(repr(r) for r in ratios), _window_arg(sl, sr, tau)]

    def reference():
        return refs.count_scaling_zeros(ratios, sl, sr, tau), float(refs.similarity_dim(ratios))

    def check(res: CliResult, ref) -> float:
        count, dim = ref
        roots = [(complex(p["re"], p["im"]), complex(p["res_re"], p["res_im"]))
                 for p in _artifact(res)["poles"]]
        _need(len(roots) == count, f"{len(roots)} roots, argument principle counts {count}")
        err = 0.0
        for w, r in roots:
            _need(sl - 1e-9 <= w.real <= sr + 1e-9 and abs(w.imag) <= tau + 1e-9, "root outside window")
            err = max(err, float(refs.scaling_defect(ratios, w)), _rel(r, refs.scaling_residue(ratios, w)))
        _need(err <= 1e-9, f"root residual or residue off by {err:.3g}")
        real = [w.real for w, _ in roots if w.imag == 0.0]
        _need(any(abs(x - dim) <= 1e-12 * dim for x in real), "similarity dimension missing")
        return err
    return Op(label, _cli(argv), check, reference)


def _catalog_poles_op(ls: LadderSet, sl: float, sr: float, tau: float, label: str,
                      readme_window: str | None = None) -> Op:
    lad = ls.lad
    kmax = int(tau / (2.0 * math.pi / math.log(1.0 / float(lad.a))))
    window = ["--window", readme_window] if readme_window else [_window_arg(sl, sr, tau)]
    argv = ["poles", *ls.flags, *window]

    def reference():
        want = {}
        for k in range(-kmax, kmax + 1):
            want[complex(refs.lattice_pole(lad, k))] = complex(refs.lattice_residues(lad, k)[0])
        for p, r in refs.integer_residues(lad).items():
            if sl <= p <= sr:
                want[complex(p)] = complex(float(r))
        return want

    def check(res: CliResult, ref) -> float:
        got = _artifact(res)["poles"]
        _need(len(got) == len(ref), f"{len(got)} poles, expected {len(ref)}")
        err = 0.0
        for p in got:
            w = complex(p["re"], p["im"])
            near = min(ref, key=lambda z: abs(z - w))
            _need(abs(near - w) <= 1e-9 * max(1.0, abs(w)), f"unexpected pole {w}")
            err = max(err, _rel(complex(p["res_re"], p["res_im"]), ref[near]))
        _need(err <= 1e-9, f"residue off by {err:.3g}")
        return err
    return Op(label, _cli(argv), check, reference)


def _truncated_tube_op(ls: LadderSet, t: float, kmax: int, label: str) -> Op:
    argv = ["tubeformula", *ls.flags, "--t", _num(t), "--kmax", str(kmax)]

    def check(res: CliResult, ref) -> float:
        art = _artifact(res)
        _need(art["truncationK"] == kmax, "truncation order")
        _need(abs(art["oracleValue"] / ref - 1) <= 1e-12, "exact tube volume")
        err = abs(art["formulaValue"] / ref - 1)
        _need(err <= 1e-6, f"tube formula off by {err:.3g}")
        return err
    return Op(label, _cli(argv), check, lambda: float(refs.tube_volume(ls.lad, t)))


def _spray_tube_op(gen: str, ratios: tuple[float, ...], t: float, sl: float, sr: float,
                   tau: float, label: str) -> Op:
    n = {"interval": 1, "square": 2}[gen]
    argv = ["tubeformula", "--ratios", ",".join(repr(r) for r in ratios), "--generator", gen,
            "--t", _num(t), _window_arg(sl, sr, tau)]

    def reference():
        return float(refs.spray_tube_volume(n, 1.0, ratios, t)), \
            refs.count_scaling_zeros(ratios, sl, sr, tau)

    def check(res: CliResult, ref) -> float:
        art = _artifact(res)
        vol, count = ref
        _need(art["truncationK"] == count, f"{art['truncationK']} scaling roots, expected {count}")
        _need(abs(art["oracleValue"] / vol - 1) <= 1e-12, "exact spray tube volume")
        err = abs(art["formulaValue"] / vol - 1)
        _need(err <= 1e-3, f"spray tube formula off by {err:.3g}")
        return err
    return Op(label, _cli(argv), check, reference)


def _qp_op(m1: int, m2: int, dim: float, band: float, label: str) -> Op:
    argv = ["quasi", "--m1", str(m1), "--m2", str(m2), "--dim", _num(dim), "--band", _num(band)]

    def reference():
        d = mp.mpf(dim)
        ratios = [mp.power(m, -1 / d) for m in (m1, m2)]
        qps = [mp.log(m) / d for m in (m1, m2)]
        periods = [2 * mp.pi / q for q in qps]
        taus = [float(k * p) for p in periods for k in range(1, int(band / p) + 1)]
        principal = [complex(dim, tau) for tau in sorted([0.0] + taus + [-tau for tau in taus])]
        return [float(x) for x in ratios], [float(x) for x in qps], [float(x) for x in periods], principal

    def check(res: CliResult, ref) -> float:
        art = _artifact(res)
        ratios, qps, periods, want = ref
        got = sorted((_c(z) for z in art["principalDims"]), key=lambda z: z.imag)
        _need(len(got) == len(want), f"{len(got)} principal dimensions, expected {len(want)}")
        err = max([abs(g - w) / abs(w) for g, w in zip(got, want)]
                  + [abs(x / y - 1) for x, y in zip(art["ratios"] + art["quasiperiods"]
                                                    + art["oscillatoryPeriods"], ratios + qps + periods)])
        _need(err <= 1e-12, f"quasiperiodic data off by {err:.3g}")
        return err
    return Op(label, _cli(argv), check, reference)


def _hyper_op(k: int, inv_dim: int, band: float, bases: tuple[int, ...], label: str) -> Op:
    argv = ["quasi", "--hyper", "--K", str(k), "--dim", _num(1.0 / inv_dim), "--band", _num(band),
            "--bases", ",".join(map(str, bases))]

    def reference():
        d = mp.mpf(1) / inv_dim
        ms = bases[:k]
        periods = [2 * mp.pi * d / mp.log(m) for m in ms]
        # prime bases never share an ordinate n 2πD/ln m apart from 0
        ords = sorted({mp.mpf(0)} | {j * p for p in periods for j in range(1, int(band / p + 1e-9) + 1)})
        gap = min(b - a for a, b in zip(ords, ords[1:]))
        lengths, total = set(), Fraction(0)
        for i, m in enumerate(ms, start=1):
            a, c = Fraction(1, m**inv_dim), Fraction(1, 2**i)
            h = (1 - m * a) / (m - 1)
            lengths |= {c * h * a**lvl for lvl in range(12)}
            total += c * (1 - (m * a) ** 12)
        return [float(p) for p in periods], float(gap), len(lengths), float(total)

    def check(res: CliResult, ref) -> float:
        art = _artifact(res)
        periods, gap, count, total = ref
        _need(art["mergedCount"] == count, f"merged count {art['mergedCount']}, expected {count}")
        _need(art["summable"], "summable flag")
        err = max([abs(x / y - 1) for x, y in zip(art["oscillatoryPeriods"], periods)]
                  + [abs(art["minGap"] / gap - 1), abs(art["mergedTotal"] / total - 1)]
                  + [abs(c - 2.0 ** -(i + 1)) / 2.0 ** -(i + 1) for i, c in enumerate(art["scales"])])
        _need(err <= 1e-12, f"hyperfractal data off by {err:.3g}")
        return err
    return Op(label, _cli(argv), check, reference)


QP_PAIRS = ((2, 3), (2, 5), (3, 5), (2, 7), (3, 7), (5, 7))


def _spectrum_ops(rng: random.Random) -> list[Op]:
    ops: list[Op] = []

    def jitter(x: float) -> float:
        return x - 0.5 * rng.random()

    # nonlattice scaling equations on windows up to |Im| = 200
    for ratios in ((0.5, 1 / 3), (0.5, 0.2), (0.4, 0.3, 0.2)):
        ops.append(_spray_poles_op(ratios, -1.0, 0.99, jitter(200.0), f"spray_dims {ratios}"))
    # lattice ones (companion-polynomial route) on wide windows; the top
    # edge sits between two ordinates of zeros
    ops.append(_spray_poles_op((1 / 3,) * 8, -1.0, 2.5, (174.5 - 0.2 * rng.random()) * 2 * math.pi / LN3,
                               "spray_dims 8x1/3"))
    ops.append(_spray_poles_op((0.5, 0.25, 0.25), -1.0, 2.0,
                               (88.25 - 0.1 * rng.random()) * 2 * math.pi / math.log(2), "spray_dims 1/2,1/4,1/4"))
    ops.append(_spray_tube_op("interval", (0.5, 1 / 3), 10.0 ** rng.uniform(-2.3, -1.3),
                              -1.0, 0.99, jitter(60.0), "spray_tube interval"))
    ops.append(_spray_tube_op("square", (0.4, 0.3), 10.0 ** rng.uniform(-2.3, -1.3),
                              -1.0, 1.99, jitter(60.0), "spray_tube square"))
    # catalog poles and truncated tube formulas at large K
    for name, sr in (("carpet2", 1.99), ("carpet3", 2.98)):
        ls = LADDERS[name]
        spacing = 2.0 * math.pi / LN3
        ops.append(_catalog_poles_op(ls, -0.5, sr, (400.5 - 0.2 * rng.random()) * spacing,
                                     f"poles {name}"))
        for j in range(3):
            t = 10.0 ** (-2.5 + 0.6 * (j + rng.random()))
            ops.append(_truncated_tube_op(ls, t, 300, f"tubeformula {name}"))
    m1, m2 = rng.choice(QP_PAIRS)
    ops.append(_qp_op(m1, m2, rng.uniform(0.3, 0.8), rng.uniform(10.0, 40.0), "quasi pair"))
    ops.append(_hyper_op(rng.randint(2, 4), rng.choice((2, 3)), rng.uniform(10.0, 30.0),
                         (2, 3, 5, 7), "quasi hyperfractal"))
    # the README examples
    ops.append(_catalog_poles_op(LADDERS["carpet2"], -0.5, 1.99, 12.0, "readme poles carpet2",
                                 readme_window="-0.5:1.99:12"))
    ops.append(_spray_poles_op((0.5, 0.25, 0.25), -0.5, 1.5, 10.0, "readme poles spray"))
    ops.append(_truncated_tube_op(LADDERS["carpet2"], 0.03, 50, "readme tubeformula carpet2"))
    ops.append(_spray_tube_op("interval", (0.5, 0.25), 0.01, -1.0, 0.99, 220.0, "readme tubeformula spray"))
    ops.append(_qp_op(2, 3, 0.5, 4.0, "readme quasi pair"))
    ops.append(_hyper_op(3, 2, 20.0, (2, 3, 5), "readme quasi hyperfractal"))
    return ops


def build(workload: str, seed: int) -> list[Op]:
    """The operations of one pass, made from the workload seed."""
    rng = random.Random(f"{workload}:{seed}")
    if workload == "tube-zeta":
        return _tube_zeta_ops(rng)
    if workload == "monte-carlo":
        return _mc_ops(rng)
    if workload == "spectrum":
        return _spectrum_ops(rng)
    raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
