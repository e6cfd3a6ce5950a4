"""Benchmark of fractalzeta: tube-zeta quadrature, Monte Carlo and complex dimensions.

    python3 bench/run.py --workload tube-zeta --seed 1 --seconds 25 --trace 0

runs one workload in this process and prints, as its last line, one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones, timed with no tracing;
with ``--trace 1`` they are the per-layer ones from wrapped layers.

    python3 bench/run.py --steady 5 --workload spectrum --seconds 25

runs the workload 2 x 5 times in fresh processes, with other seeds each
time, and prints each end-to-end metric's spread (interquartile range over
median) in each set and over both, and the drift between the two medians,
against the bounds in BENCHMARK.json.  See README.md in this
directory for the workloads and the layer-to-metric map.
"""
from __future__ import annotations

import argparse
import gc
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"

# measured passes per run = max(MIN_PASSES, round(seconds / nominal pass time)):
# a fixed pass count keeps the sample count, and so the tail percentile,
# the same on every run of a workload
NOMINAL_PASS_S = {"tube-zeta": 3.5, "monte-carlo": 6.5, "spectrum": 6.5}
MIN_PASSES = 3
SETUP_PROBES = 5
TAIL_BEYOND = 10


def _import_package():
    """Import fractalzeta from this checkout's source tree, and nothing else."""
    init = SRC / "fractalzeta" / "__init__.py"
    if not init.is_file():
        sys.stderr.write(f"error: no package source at {init.parent}\n")
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))
    import fractalzeta
    import fractalzeta.cli  # noqa: F401  (the package does not import its CLI)
    if Path(fractalzeta.__file__).resolve() != init.resolve():
        sys.stderr.write(f"error: fractalzeta imported from {fractalzeta.__file__}\n")
        raise SystemExit(2)
    return fractalzeta


def _load_workloads():
    sys.path.insert(0, str(BENCH))
    import workloads
    return workloads


def probe_setup(workload: str, seed: int) -> float:
    """Seconds to import the package and build the workload's inputs."""
    t0 = time.perf_counter()
    _import_package()
    t1 = time.perf_counter()
    wl = _load_workloads()        # benchmark code: not part of set-up
    t2 = time.perf_counter()
    wl.build(workload, seed)
    return (t1 - t0) + (time.perf_counter() - t2)


def measure_setup(workload: str, seed: int) -> float:
    """Median set-up time over fresh interpreter processes."""
    samples = []
    for _ in range(SETUP_PROBES):
        out = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--probe-setup",
                              "--workload", workload, "--seed", str(seed)],
                             capture_output=True, text=True, check=True, timeout=120)
        samples.append(float(out.stdout.strip().splitlines()[-1]))
    return statistics.median(samples)


def run_pass(ops, failures: dict, verdicts: dict) -> list[tuple[float, float | None, bool]]:
    """One pass over every operation: (latency s, relative error, failed).

    ``failures`` maps the index of each failed operation to its first reason.
    ``verdicts`` caches the check of each distinct output of an operation, so
    that passes repeating an output do not repeat its reference comparison.
    """
    wl = sys.modules["workloads"]
    gc.collect()
    out = []
    clock = time.perf_counter
    for i, op in enumerate(ops):
        t0 = clock()
        try:
            res = op.run()
        except (Exception, SystemExit) as exc:   # raising or exiting fails the operation
            out.append((clock() - t0, None, True))
            failures.setdefault(i, f"raised {type(exc).__name__}: {exc}")
            continue
        latency = clock() - t0
        key = (i, res.text if isinstance(res, wl.CliResult) else repr(res))
        if key not in verdicts:
            try:
                verdicts[key] = (op.check(res, op.ref), None)
            except wl.CheckFailed as exc:
                verdicts[key] = (exc.err, str(exc))
        err, reason = verdicts[key]
        if reason is not None:
            failures.setdefault(i, reason)
        out.append((latency, err, reason is not None))
    return out


def _metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(passes: list[list[tuple]], setup_s: float) -> tuple[dict, str]:
    lat = sorted(x[0] for p in passes for x in p)
    errs = [x[1] for p in passes for x in p if x[1] is not None]
    n = len(lat)
    tail = lat[max(0, n - 1 - TAIL_BEYOND)]
    digits = statistics.median(-math.log10(max(e, 1e-17)) for e in errs)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "pass_s": _metric(statistics.median(sum(x[0] for x in p) for p in passes), "s"),
        "op_p50_ms": _metric(1e3 * statistics.median(lat), "ms"),
        "op_tail_ms": _metric(1e3 * tail, "ms"),
        "peak_rss_mb": _metric(rss_mb, "MB"),
        "err_digits": _metric(digits, "digits"),
        "setup_s": _metric(setup_s, "s"),
    }
    note = (f"op_tail_ms is the p{100.0 * (n - TAIL_BEYOND) / n:.1f} latency of {n} operations "
            f"({TAIL_BEYOND} beyond it); {len(passes)} passes")
    return metrics, note


# (metric, unit, layer, quantity); quantities are per traced pass
PER_LAYER = (
    ("geometry.tube_volume.calls", "count", "geometry.tube_volume", "calls"),
    ("geometry.tube_volume.self_s", "s", "geometry.tube_volume", "self_s"),
    ("geometry.tube_volume.us_per_call", "us", "geometry.tube_volume", "us_per_call"),
    ("zeta.tube_zeta_quad.calls", "count", "zeta.tube_zeta_quad", "calls"),
    ("zeta.tube_zeta_quad.self_s", "s", "zeta.tube_zeta_quad", "self_s"),
    ("zeta.tube_zeta_quad.nodes", "count", "zeta.tube_zeta_quad", "nodes"),
    ("zeta.tube_zeta_quad.tol_met_ratio", "ratio", "zeta.tube_zeta_quad", "tol_met_ratio"),
    ("geometry.tube_breakpoints.self_s", "s", "geometry.tube_breakpoints", "self_s"),
    ("zeta.tube_zeta_residue.self_s", "s", "zeta.tube_zeta_residue", "self_s"),
    ("zeta.abscissa_of.self_s", "s", "zeta.abscissa_of", "self_s"),
    ("dims.relative_box_dim_fit.self_s", "s", "dims.relative_box_dim_fit", "self_s"),
    ("dims.relative_content_envelope.self_s", "s", "dims.relative_content_envelope", "self_s"),
    ("spectrum.fourier_residues.self_s", "s", "spectrum.fourier_residues", "self_s"),
    ("geometry.distance_many.points", "count", "geometry.distance_many", "points"),
    ("geometry.distance_many.self_s", "s", "geometry.distance_many", "self_s"),
    ("geometry.distance_many.ns_per_point", "ns", "geometry.distance_many", "ns_per_point"),
    ("zeta.distance_zeta_mc.samples", "count", "zeta.distance_zeta_mc", "samples"),
    ("zeta.distance_zeta_mc.self_s", "s", "zeta.distance_zeta_mc", "self_s"),
    ("zeta.distance_zeta_mc.samples_per_s", "1/s", "zeta.distance_zeta_mc", "samples_per_s"),
    ("spectrum.spray_dims.calls", "count", "spectrum.spray_dims", "calls"),
    ("spectrum.spray_dims.self_s", "s", "spectrum.spray_dims", "self_s"),
    ("spectrum.spray_dims.roots", "count", "spectrum.spray_dims", "roots"),
    ("spectrum.spray_dims.ms_per_root", "ms", "spectrum.spray_dims", "ms_per_root"),
    ("tubeformula.spray_tube.self_s", "s", "tubeformula.spray_tube", "self_s"),
    ("tubeformula.spray_tube_oracle.self_s", "s", "tubeformula.spray_tube_oracle", "self_s"),
    ("spectrum.poles.self_s", "s", "spectrum.poles", "self_s"),
    ("spectrum.poles.poles", "count", "spectrum.poles", "poles"),
    ("tubeformula.truncated_tube.self_s", "s", "tubeformula.truncated_tube", "self_s"),
    ("tubeformula.truncated_tube.terms", "count", "tubeformula.truncated_tube", "terms"),
    ("zeta.catalog_form.self_s", "s", "zeta.catalog_form", "self_s"),
    ("zeta.distance_zeta_closed.self_s", "s", "zeta.distance_zeta_closed", "self_s"),
    ("quasi.two_qp_set.self_s", "s", "quasi.two_qp_set", "self_s"),
    ("quasi.hyperfractal_truncation.self_s", "s", "quasi.hyperfractal_truncation", "self_s"),
    ("cli.main.self_s", "s", "cli.main", "self_s"),
)


def per_layer(tracer, traced: list, untraced: list) -> dict:
    k = len(traced)
    own = tracer.self_times()
    incl = tracer.inclusive_times()

    def ratio(num: float, den: float) -> float:
        return num / den if den else 0.0

    metrics = {}
    for metric, unit, layer, qty in PER_LAYER:
        c = tracer.counts.get(layer, {})
        self_s = own.get(layer, 0.0) / k
        calls = c.get("calls", 0) / k
        value = {
            "calls": calls, "self_s": self_s,
            "us_per_call": 1e6 * ratio(self_s, calls),
            "nodes": c.get("nodes", 0) / k,
            "tol_met_ratio": ratio(c.get("tol_met", 0), c.get("calls", 0)),
            "points": c.get("points", 0) / k,
            "ns_per_point": 1e9 * ratio(own.get(layer, 0.0), c.get("points", 0)),
            "samples": c.get("samples", 0) / k,
            "samples_per_s": ratio(c.get("samples", 0), incl.get(layer, 0.0)),
            "roots": c.get("roots", 0) / k,
            "ms_per_root": 1e3 * ratio(own.get(layer, 0.0), c.get("roots", 0)),
            "poles": c.get("poles", 0) / k,
            "terms": c.get("terms", 0) / k,
        }[qty]
        metrics[metric] = _metric(value, unit)
    pass_time = [sum(x[0] for x in p) for p in traced]
    base = [sum(x[0] for x in p) for p in untraced]
    metrics["trace.overhead_ratio"] = _metric(statistics.median(pass_time) / statistics.median(base),
                                              "ratio")
    return metrics


def run(workload: str, seed: int, seconds: float, trace: bool) -> int:
    pkg = _import_package()
    setup_s = None if trace else measure_setup(workload, seed)
    wl = _load_workloads()
    ops = wl.build(workload, seed)
    for op in ops:
        op.prepare()
    passes = max(MIN_PASSES, round(seconds / NOMINAL_PASS_S[workload]))
    failures: dict[int, str] = {}
    verdicts: dict = {}
    run_pass(ops, {}, verdicts)                        # warm-up, off the clock
    if trace:
        import spans
        tracer = spans.Tracer(pkg)
        untraced, traced = [], []
        for _ in range(max(2, (passes + 1) // 2)):
            untraced.append(run_pass(ops, failures, verdicts))
            tracer.install()
            try:
                traced.append(run_pass(ops, failures, verdicts))
            finally:
                tracer.uninstall()
        records = untraced + traced
        metrics = per_layer(tracer, traced, untraced)
        tracer.write(OUT / f"trace-{workload}-{seed}.npz")
        note = f"{len(traced)} traced and {len(untraced)} untraced passes"
    else:
        records = [run_pass(ops, failures, verdicts) for _ in range(passes)]
        metrics, note = end_to_end(records, setup_s)
    unexpected = [i for i in failures if not ops[i].expect_fail]
    for i, reason in sorted(failures.items()):
        kind = "counted failure" if ops[i].expect_fail else "FAILED"
        sys.stderr.write(f"{kind}: {ops[i].label}: {reason}\n")
    attempted = sum(len(p) for p in records)
    failed = sum(x[2] for p in records for x in p)
    for name, m in metrics.items():
        print(f"{workload:12s} {name:40s} {m['value']:.6g} {m['unit']}")
    print(f"{workload:12s} {note}; {failed}/{attempted} operations failed")
    print(json.dumps({"correct": not unexpected, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


def steady(workloads: list[str], runs: int, seconds: float) -> int:
    """Two sets of ``runs`` runs per workload: spread within a set, drift between sets."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    worst = 0.0
    for workload in workloads:
        sets = []
        for first in (1, 101):
            results = []
            for seed in range(first, first + runs):
                out = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                                      "--workload", workload, "--seed", str(seed),
                                      "--seconds", str(seconds), "--trace", "0"],
                                     capture_output=True, text=True, check=True, timeout=300)
                results.append(json.loads(out.stdout.strip().splitlines()[-1]))
            sets.append(results)
        for name, b in bounds.items():
            meds, spreads = [], []
            for results in sets + [sets[0] + sets[1]]:
                vals = [r["metrics"][name]["value"] for r in results]
                q = statistics.quantiles(vals, n=4)
                meds.append(statistics.median(vals))
                spreads.append((q[2] - q[0]) / meds[-1])
            sign = 1.0 if b["better"] == "lower" else -1.0
            drift = sign * (meds[1] - meds[0]) / meds[0]
            share = max(max(spreads) if name != "setup_s" else 0.0, drift) / b["bound"]
            worst = max(worst, share)
            print(f"{workload:12s} {name:12s} runs " + " / ".join(
                " ".join(f"{r['metrics'][name]['value']:.4g}" for r in results) for results in sets))
            print(f"{workload:12s} {name:12s} median {meds[0]:.6g} / {meds[1]:.6g}  "
                  f"spread {spreads[0]:.3f} / {spreads[1]:.3f}, all {spreads[2]:.3f}  "
                  f"drift {drift:+.3f}  bound {b['bound']}  ({100 * share:.0f}% of bound)")
        shares = {r["failed"] / r["attempted"] for results in sets for r in results}
        print(f"{workload:12s} failed share per run: {sorted(shares)}; "
              f"correct in every run: {all(r['correct'] for s in sets for r in s)}")
    print(f"largest spread or drift: {100 * worst:.0f}% of its bound")
    return 0


def main(argv: list[str] | None = None) -> int:
    # one BLAS/OpenMP thread, fixed before numpy is first imported; set-up
    # probes and steadiness runs inherit it
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
                "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
        os.environ[var] = "1"
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", choices=("tube-zeta", "monte-carlo", "spectrum"))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--steady", type=int, metavar="RUNS",
                   help="run two sets of RUNS runs and report spreads against the bounds")
    p.add_argument("--probe-setup", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.probe_setup:
        print(repr(probe_setup(args.workload, args.seed)))
        return 0
    if args.steady:
        chosen = [args.workload] if args.workload else list(NOMINAL_PASS_S)
        return steady(chosen, args.steady, args.seconds)
    if args.workload is None:
        p.error("--workload is required")
    return run(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
