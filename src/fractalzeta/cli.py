"""Command-line surface: catalog drums in, CSV/JSON artifacts out.

Artifacts are deterministic for a fixed invocation: JSON is emitted compact,
on one line with sorted keys, and CSV with 17 significant digits, Monte Carlo
requires an explicit seed, and the ``verify`` report written to files omits
wall-clock timings (stdout keeps them for the human reader).

Exit codes: 0 success, 1 acceptance failure, 2 configuration error.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from pathlib import Path
from typing import Sequence

from . import acceptance, dims, geometry, quasi, spectrum, tubeformula, zeta
from .spectrum import Window


class ConfigError(ValueError):
    """Bad flag combination or values; maps to exit code 2."""


def _fmt17(x: float) -> str:
    return f"{float(x):.17g}"


def _write_text(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8", newline="")


def _json_artifact(payload: dict) -> str:
    return json.dumps(payload, sort_keys=True, ensure_ascii=False, allow_nan=False) + "\n"


def _csv(header: Sequence[str], rows: Sequence[Sequence[float]]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_fmt17(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _emit_plot_data(path: str | None, xy: Sequence[tuple[float, float]]) -> None:
    if path is not None:
        _write_text(_csv(("x", "y"), xy), path)


def _complex_json(z: complex) -> dict:
    return {"im": float(z.imag), "re": float(z.real)}


# --- set construction --------------------------------------------------------

SET_CHOICES = ("cantor", "carpet2", "carpet3", "astring", "nest", "flat", "box")


def _build_set(args: argparse.Namespace) -> geometry.SetDescriptor:
    kind = args.set
    if kind is None:
        raise ConfigError("--set is required for this command")
    if kind == "cantor":
        desc = geometry.cantor_set(args.m if args.m is not None else 2,
                                   args.a if args.a is not None else 1.0 / 3.0)
    elif kind == "carpet2":
        desc = geometry.carpet(2)
    elif kind == "carpet3":
        desc = geometry.carpet(3)
    elif kind == "astring":
        desc = geometry.a_string_set(args.a if args.a is not None else 1.0, args.bigj)
    elif kind == "nest":
        desc = geometry.fractal_nest(args.a if args.a is not None else 0.5,
                                     args.bigk if args.bigk is not None else 1000)
    elif kind == "flat":
        desc = geometry.flat_drum()
    elif kind == "box":
        desc = geometry.box_boundary(args.ambient if args.ambient is not None else 2)
    else:
        raise ConfigError(f"unknown set {kind!r}")
    if args.scale is not None and args.scale != 1.0:
        desc = geometry.scaled(desc, args.scale)
    return desc


_WINDOW_RE = re.compile(r"^(-?[\d.eE+-]+):(-?[\d.eE+-]+):([\d.eE+-]+)$")


def _parse_window(text: str) -> Window:
    m = _WINDOW_RE.match(text)
    if m is None:
        raise ConfigError(f"window must be sigmaLeft:sigmaRight:tauMax, got {text!r}")
    try:
        return Window(float(m.group(1)), float(m.group(2)), float(m.group(3)))
    except ValueError as exc:
        raise ConfigError(str(exc)) from None


def _parse_floats(text: str, flag: str) -> list[float]:
    try:
        vals = [float(p) for p in text.split(",") if p]
    except ValueError:
        raise ConfigError(f"{flag} expects comma-separated numbers, got {text!r}") from None
    if not vals:
        raise ConfigError(f"{flag} is empty")
    return vals


def _t_grid(args: argparse.Namespace) -> list[float]:
    if args.t is not None:
        return _parse_floats(args.t, "--t")
    if args.tmin is not None and args.tmax is not None:
        return [float(v) for v in
                dims.log_grid(args.tmin, args.tmax, args.per_decade)]
    raise ConfigError("need --t or both --tmin and --tmax")


# --- subcommands ---------------------------------------------------------------


def _cmd_tube(args: argparse.Namespace) -> int:
    desc = _build_set(args)
    ts = _t_grid(args)
    rows = list(zip(ts, geometry.tube_volume(desc, ts, full=args.full).tolist()))
    if args.format == "csv":
        _write_text(_csv(("t", "volume"), rows), args.output)
    else:
        payload = {"artifact": "tube", "full": bool(args.full), "set": args.set,
                   "rows": [{"t": t, "volume": v} for t, v in rows]}
        _write_text(_json_artifact(payload), args.output)
    _emit_plot_data(args.emit_plot_data, rows)
    return 0


def _cmd_dims(args: argparse.Namespace) -> int:
    desc = _build_set(args)
    ts = _t_grid(args)
    fit = dims.relative_box_dim_fit(desc, ts)
    payload: dict = {
        "artifact": "dims", "set": args.set, "dimEstimate": fit.dest,
        "slopeStdErr": fit.slope_std_err, "pointsUsed": fit.points_used,
        "envelope": None,
    }
    if args.dim is not None:
        env = dims.relative_content_envelope(desc, args.dim, ts, full=args.full)
        payload["envelope"] = {"dim": env.dim, "lowerEst": env.lower_est,
                               "upperEst": env.upper_est,
                               "tRange": list(env.t_range)}
    _write_text(_json_artifact(payload), args.output)
    if args.emit_plot_data:
        lv = geometry.log_tube_volume(desc, ts, full=args.full)
        _emit_plot_data(args.emit_plot_data,
                        [(math.log10(t), v / math.log(10.0)) for t, v in zip(ts, lv.tolist())])
    return 0


def _cmd_zeta(args: argparse.Namespace) -> int:
    desc = _build_set(args)
    s = complex(args.re, args.im)
    payload: dict = {"artifact": "zeta", "method": args.method, "set": args.set,
                     "s": _complex_json(s), "samples": None, "stdErr": None,
                     "quadErrBound": None}
    if args.method == "closed":
        val = zeta.distance_zeta_closed(desc, s, delta=args.delta, full=args.full)
    elif args.method == "quad":
        est = zeta.tube_zeta_quad(desc, s, 0.5 if args.delta is None else args.delta,
                                  full=args.full)
        val = est.value
        payload["quadErrBound"] = est.quad_err_bound
    elif args.method == "mc":
        if args.seed is None:
            raise ConfigError("--seed is required for Monte Carlo runs")
        est = zeta.distance_zeta_mc(desc, s, args.n, args.seed,
                                    delta=args.delta, full=args.full)
        val = est.value
        payload["stdErr"] = est.std_err
        payload["samples"] = est.samples
    else:
        raise ConfigError(f"unknown method {args.method!r}")
    payload["value"] = _complex_json(complex(val))
    _write_text(_json_artifact(payload), args.output)
    return 0


def _cmd_poles(args: argparse.Namespace) -> int:
    w = _parse_window(args.window)
    if args.ratios is not None:
        data = spectrum.spray_dims(_parse_floats(args.ratios, "--ratios"), w)
        source = "spray"
    else:
        desc = _build_set(args)
        form = zeta.catalog_form(desc, full=args.full, delta=args.delta)
        data = spectrum.poles(form, w)
        source = args.set
    payload = {
        "artifact": "poles", "source": source,
        "window": {"sigmaLeft": w.sigma_left, "sigmaRight": w.sigma_right,
                   "tauMax": w.tau_max},
        "poles": [{"im": im, "order": 1, "re": re, "res_im": res_im, "res_re": res_re}
                  for re, im, res_re, res_im in zip(
                      data.omega.real.tolist(), data.omega.imag.tolist(),
                      data.residue.real.tolist(), data.residue.imag.tolist())],
    }
    _write_text(_json_artifact(payload), args.output)
    return 0


def _cmd_tubeformula(args: argparse.Namespace) -> int:
    if args.ratios is not None:
        ratios = _parse_floats(args.ratios, "--ratios")
        w = _parse_window(args.window) if args.window else Window(
            -0.5, float(args.ambient if args.ambient else 1) + 0.5, 60.0)
        rep = tubeformula.spray_tube(args.generator, args.side, ratios, args.t, w)
        source = f"spray:{args.generator}"
    else:
        desc = _build_set(args)
        ratios = desc.holes.ratios if desc.holes is not None else None
        # N - 0.01 keeps every catalog pole (carpet3 lattice sits at 2.9656)
        # while excluding the degenerate point s = N
        if args.window:
            w = _parse_window(args.window)
        elif ratios is not None:  # a ladder's poles repeat with period 2π/log q, q = 1/a
            w = Window(-0.5, desc.ambient_dim - 0.01,
                       (args.kmax + 0.5) * 2.0 * math.pi / math.log(1.0 / ratios[1]))
        else:
            w = Window(-0.5, desc.ambient_dim - 0.01, 60.0)
        rep = tubeformula.truncated_tube(desc, args.t, w, full=args.full, delta=args.delta)
        source = args.set
    payload = {
        "artifact": "tubeformula", "source": source, "t": rep.t,
        "truncationK": rep.truncation_k, "formulaValue": rep.formula_value,
        "oracleValue": rep.oracle_value, "absError": rep.abs_error,
        "imagResidual": rep.imag_residual,
    }
    _write_text(_json_artifact(payload), args.output)
    if args.emit_plot_data:
        xy = [(float(i), m) for i, m in enumerate(rep.term_magnitudes)]
        _emit_plot_data(args.emit_plot_data, xy)
    return 0


def _cmd_quasi(args: argparse.Namespace) -> int:
    if args.hyper:
        bases = [int(v) for v in _parse_floats(args.bases, "--bases")]
        rep = quasi.hyperfractal_truncation(args.dim, args.bigk or len(bases),
                                            m_seq=bases, band=args.band)
        payload = {
            "artifact": "quasi", "mode": "hyperfractal", "dim": rep.dim,
            "k": rep.k, "bases": list(rep.bases),
            "scales": [float(c) for c in rep.scales],
            "oscillatoryPeriods": list(rep.oscillatory_periods),
            "minGap": rep.min_gap, "band": rep.band, "summable": rep.summable,
            "mergedCount": len(rep.merged_string.entries),
            "mergedTotal": float(rep.merged_string.total),
        }
    else:
        if args.m1 is None or args.m2 is None:
            raise ConfigError("pair mode needs --m1 and --m2 (or use --hyper)")
        try:
            rep = quasi.two_qp_set(args.m1, args.m2, args.dim, band=args.band)
        except quasi.DependenceError as exc:
            raise ConfigError(str(exc)) from None
        payload = {
            "artifact": "quasi", "mode": "pair", "dim": rep.dim,
            "bases": list(rep.bases), "ratios": list(rep.ratios),
            "quasiperiods": list(rep.quasiperiods),
            "oscillatoryPeriods": list(rep.oscillatory_periods),
            "principalDims": [_complex_json(z) for z in rep.principal_dims],
            "independence": rep.independence,
        }
    _write_text(_json_artifact(payload), args.output)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    cids = acceptance.SUITES.get(args.suite)
    if cids is None:
        raise ConfigError(f"unknown suite {args.suite!r}; "
                          f"choose from {', '.join(sorted(acceptance.SUITES))}")
    results = acceptance.run_all(cids)
    ok = all(r.passed for r in results)
    if args.format == "json":
        payload = {
            "artifact": "verify", "suite": args.suite, "passed": ok,
            "results": [{"cid": r.cid, "detail": r.detail, "passed": r.passed,
                         "title": r.title} for r in results],
        }
        _write_text(_json_artifact(payload), args.output)
    else:
        sys.stdout.write(acceptance.format_report(results) + "\n")
        if args.output is not None:
            stable = "\n".join(
                f"{'PASS' if r.passed else 'FAIL'} {r.cid} {r.title}: {r.detail}"
                for r in results) + "\n"
            _write_text(stable, args.output)
    return 0 if ok else 1


# --- parser --------------------------------------------------------------------


def _add_common(p: argparse.ArgumentParser, with_set: bool = True) -> None:
    if with_set:
        p.add_argument("--set", choices=SET_CHOICES, help="catalog drum")
        p.add_argument("--m", type=int, help="cantor block count")
        p.add_argument("--a", type=float, help="cantor ratio / string or nest exponent")
        p.add_argument("--J", dest="bigj", type=int, help="string truncation (default: infinite)")
        p.add_argument("--K", dest="bigk", type=int, help="nest circle count / hyperfractal depth")
        p.add_argument("--ambient", type=int, choices=(1, 2, 3), help="box ambient dimension")
        p.add_argument("--scale", type=float, help="homothety factor applied to the set")
    p.add_argument("--output", help="write the artifact to this path instead of stdout")
    p.add_argument("--emit-plot-data", help="write an (x, y) CSV for external plotting")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fractalzeta",
        description="Fractal zeta functions, complex dimensions, and tube formulas.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("tube", help="tube volumes t -> |A_t ∩ Ω| (or |A_t|)")
    _add_common(p)
    p.add_argument("--t", help="comma-separated t values")
    p.add_argument("--tmin", type=float)
    p.add_argument("--tmax", type=float)
    p.add_argument("--per-decade", type=int, default=16)
    p.add_argument("--full", action="store_true", help="full tube |A_t| instead of relative")
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_tube)

    p = sub.add_parser("dims", help="box-dimension fit and content envelope")
    _add_common(p)
    p.add_argument("--t", help="comma-separated t values")
    p.add_argument("--tmin", type=float)
    p.add_argument("--tmax", type=float)
    p.add_argument("--per-decade", type=int, default=32)
    p.add_argument("--dim", type=float, help="normalize V/t^(N-dim) for the envelope")
    p.add_argument("--full", action="store_true")
    p.set_defaults(func=_cmd_dims)

    p = sub.add_parser("zeta", help="evaluate a zeta at one point")
    _add_common(p)
    p.add_argument("--re", type=float, required=True)
    p.add_argument("--im", type=float, default=0.0)
    p.add_argument("--method", choices=("closed", "quad", "mc"), default="closed")
    p.add_argument("--delta", type=float, help="neighborhood cutoff")
    p.add_argument("--full", action="store_true")
    p.add_argument("--n", type=int, default=10**5, help="Monte Carlo samples")
    p.add_argument("--seed", type=int, help="required for --method mc")
    p.set_defaults(func=_cmd_zeta)

    p = sub.add_parser("poles", help="complex dimensions in a window")
    _add_common(p)
    p.add_argument("--window", required=True, help="sigmaLeft:sigmaRight:tauMax")
    p.add_argument("--ratios", help="spray ratio list instead of a catalog set")
    p.add_argument("--full", action="store_true")
    p.add_argument("--delta", type=float)
    p.set_defaults(func=_cmd_poles)

    p = sub.add_parser("tubeformula", help="truncated residue tube formula vs oracle")
    _add_common(p)
    p.add_argument("--t", type=float, required=True)
    p.add_argument("--kmax", type=int, default=50, help="lattice truncation |k| <= kmax")
    p.add_argument("--window", help="sigmaLeft:sigmaRight:tauMax (overrides --kmax)")
    p.add_argument("--full", action="store_true")
    p.add_argument("--delta", type=float)
    p.add_argument("--ratios", help="spray ratios (with --generator)")
    p.add_argument("--generator", choices=("interval", "square", "cube"), default="interval")
    p.add_argument("--side", type=float, default=1.0)
    p.set_defaults(func=_cmd_tubeformula)

    p = sub.add_parser("quasi", help="quasiperiodic pair / hyperfractal truncation")
    _add_common(p, with_set=False)
    p.add_argument("--m1", type=int)
    p.add_argument("--m2", type=int)
    p.add_argument("--dim", type=float, required=True)
    p.add_argument("--band", type=float, default=20.0)
    p.add_argument("--hyper", action="store_true")
    p.add_argument("--bases", default="2,3,5", help="hyperfractal bases")
    p.add_argument("--K", dest="bigk", type=int, help="hyperfractal truncation depth")
    p.set_defaults(func=_cmd_quasi)

    p = sub.add_parser("verify", help="run the acceptance matrix")
    _add_common(p, with_set=False)
    p.add_argument("--suite", default="all")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=_cmd_verify)

    return parser


def _glue_window_values(argv: list[str]) -> list[str]:
    """Allow ``--window -1:3:20`` (argparse would eat the leading dash)."""
    out: list[str] = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok == "--window" and i + 1 < len(argv) and argv[i + 1].startswith("-") \
                and ":" in argv[i + 1]:
            out.append(f"--window={argv[i + 1]}")
            i += 2
            continue
        out.append(tok)
        i += 1
    return out


def main(argv: Sequence[str] | None = None) -> int:
    args_list = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    args = parser.parse_args(_glue_window_values(args_list))
    try:
        return args.func(args)
    except (ConfigError, ValueError, zeta.NonconvergenceError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 2


if __name__ == "__main__":
    sys.exit(main())
