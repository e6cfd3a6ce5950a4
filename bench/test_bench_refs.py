"""Tests of the benchmark's own reference code and failure accounting.

The references are checked against exact values, and a perturbed output must
be counted as a failed operation.
"""
from __future__ import annotations

import dataclasses
import json
import sys
from fractions import Fraction
from pathlib import Path

import mpmath as mp
import pytest

BENCH = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH.parent / "src"))
sys.path.insert(0, str(BENCH))

import refs  # noqa: E402


def test_carpet3_integer_residues_are_exact():
    assert refs.integer_residues(refs.carpet_ladder(3)) == {
        0: Fraction(-24, 25), 1: Fraction(24, 23), 2: Fraction(-6, 17)}


def test_one_over_j_string_residue_is_two_sqrt_two():
    assert abs(refs.a_string_tube_residue(1.0) - 2 * mp.sqrt(2)) < mp.mpf(10) ** -25


def test_a_string_sum_matches_closed_form():
    # a = 1: ℓ_j = 1/(j(j+1)), and Σ 1/(j(j+1))^2 = π²/3 - 3
    assert abs(refs.a_string_geometric(1.0, 2) - (mp.pi**2 / 3 - 3)) < mp.mpf(10) ** -25


def test_real_root_of_two_plus_three():
    root = refs.similarity_dim((0.5, 1 / 3))
    assert abs(root - 0.78788) < 5e-6
    assert refs.scaling_defect((0.5, 1 / 3), complex(root)) < 1e-15


@pytest.mark.parametrize("ratios, sigma_left, tau, count", [
    ((0.5, 1 / 3), -1.0, 20.0, 7),
    ((0.5, 1 / 3), -1.0, 200.0, 71),
    ((0.4, 0.3, 0.2), -2.0, 100.0, 51),
])
def test_argument_principle_counts(ratios, sigma_left, tau, count):
    assert refs.count_scaling_zeros(ratios, sigma_left, 0.99, tau) == count


def test_hole_sum_tube_volume_is_exact():
    lad = refs.cantor_ladder(2, Fraction(1, 3))
    # t = 1/18: the first gap is covered to 1/9, every later gap entirely
    assert abs(refs.tube_volume(lad, 1 / 18) - mp.mpf(7) / 9) < 1e-15
    assert abs(refs.tube_volume(lad, 0.2) - 1) < mp.mpf(10) ** -25


@pytest.mark.parametrize("lad", [refs.cantor_ladder(5, Fraction(1, 10)), refs.carpet_ladder(2),
                                 refs.carpet_ladder(3)])
def test_zeta_references_agree_through_the_functional_equation(lad):
    n, s, delta = lad.dim_n, mp.mpc(lad.dim + 0.7, 1.3), 0.4
    assert abs(refs.distance_zeta(lad, n) - 1) < mp.mpf(10) ** -25     # ∫_Ω d^0 = |Ω|
    for full in (False, True):
        volume = refs.tube_volume(lad, delta, full=True) if full else 1
        lhs = refs.distance_zeta(lad, s, full=full, delta=delta)
        rhs = mp.power(delta, s - n) * volume + (n - s) * refs.tube_zeta(lad, s, delta, full=full)
        assert abs(lhs - rhs) < mp.mpf(10) ** -20


def test_spray_enumeration_reproduces_the_carpet():
    for t in (0.1, 0.013):
        spray = refs.spray_tube_volume(2, 1 / 3, (1 / 3,) * 8, t)
        assert abs(spray / refs.tube_volume(refs.carpet_ladder(2), t) - 1) < 1e-13


@pytest.fixture(scope="module")
def bench():
    import run
    import workloads
    return run, workloads


def _perturbed(op, edit):
    """The operation with its output edited after the real call."""
    def run_edited():
        res = op.run()
        payload = json.loads(res.text)
        edit(payload)
        return type(res)(res.code, json.dumps(payload))
    return dataclasses.replace(op, run=run_edited)


def test_perturbed_outputs_count_as_failed(bench):
    run, wl = bench
    ls = wl.LADDERS["cantor"]
    quad = wl._quad_op(ls, complex(ls.lad.dim + 0.8, 1.0), 0.5)
    by_label = {op.label: op for op in wl.build("tube-zeta", 1) + wl.build("monte-carlo", 1)}
    mc, closed = by_label["readme zeta mc"], by_label["readme zeta closed"]
    ops = [quad, mc, closed]
    for op in ops:
        op.prepare()

    def nudge(payload):
        payload["value"]["re"] *= 1 + 1e-6

    def far(payload):
        payload["value"]["re"] = complex(mc.ref).real + 6 * payload["stdErr"]

    def extra_key(payload):
        payload["unexpected"] = 1

    bad = [_perturbed(quad, nudge), _perturbed(mc, far), _perturbed(closed, extra_key)]
    failures: dict = {}
    good = run.run_pass(ops, failures, {})
    assert [x[2] for x in good] == [False, False, False] and not failures
    worse = run.run_pass(bad, failures, {})
    assert [x[2] for x in worse] == [True, True, True]
    assert "schema" in failures[2]


def test_benchmark_json_names_every_metric(bench):
    run, _ = bench
    spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
    assert [m["name"] for m in spec["per_layer"]] == \
        [m for m, *_ in run.PER_LAYER] + ["trace.overhead_ratio"]
    metrics, _ = run.end_to_end([[(0.1, 1e-9, False)] * 12], 0.5)
    assert {m["name"] for m in spec["end_to_end"]} == set(metrics)
    assert {w["name"] for w in spec["workloads"]} == set(run.NOMINAL_PASS_S)
