"""Box-dimension slope fits and Minkowski content envelopes."""
import math

import numpy as np
import pytest

from fractalzeta import dims, geometry

LN2 = math.log(2.0)
LN3 = math.log(3.0)


def test_log_grid_count_and_spacing():
    ts = dims.log_grid(1e-4, 1e-1, per_decade=10)
    assert len(ts) == 31
    assert ts[0] == pytest.approx(1e-4) and ts[-1] == pytest.approx(1e-1)
    ratios = ts[1:] / ts[:-1]
    assert np.allclose(ratios, ratios[0])
    with pytest.raises(ValueError):
        dims.log_grid(1e-1, 1e-4)
    with pytest.raises(ValueError):
        dims.log_grid(0.0, 1e-1)


def test_box_dim_fit_recovers_exact_power_law():
    # V(t) = 3 t^{0.7} in the plane corresponds to dimension 2 - 0.7
    ts = dims.log_grid(1e-6, 1e-2)
    tube = lambda t: 3.0 * t ** 0.7
    fit = dims.box_dim_fit(tube, 2, ts)
    assert fit.dest == pytest.approx(1.3, abs=1e-9)
    assert fit.slope_std_err < 1e-9
    assert fit.points_used > 0


def test_content_envelope_on_exact_power_law():
    ts = dims.log_grid(1e-6, 1e-2)
    env = dims.content_envelope(lambda t: 3.0 * t ** 0.7, 2, 1.3, ts)
    assert env.lower_est == pytest.approx(3.0, rel=1e-9)
    assert env.upper_est == pytest.approx(3.0, rel=1e-9)
    assert env.dim == 1.3


def test_box_dim_fit_drops_top_decades():
    ts = dims.log_grid(1e-6, 1e-2)
    calls = []

    def tube(t):
        calls.append(t)
        return 2.0 * t ** 0.5

    dims.box_dim_fit(tube, 1, ts, drop_top_decades=1.0)
    # with one decade dropped out of four the fit may still evaluate the full
    # grid, but points above the cut must not influence the slope: corrupt
    # strictly above the cut (margin for the boundary point) and compare
    def tube_corrupt(t):
        return 2.0 * t ** 0.5 if t < 1.05e-3 else 50.0 * t ** 0.9

    fit = dims.box_dim_fit(tube_corrupt, 1, ts, drop_top_decades=1.0)
    assert fit.dest == pytest.approx(0.5, abs=1e-9)


def test_box_dim_fit_needs_enough_points():
    ts = np.array([1e-3, 2e-3])
    with pytest.raises(ValueError):
        dims.box_dim_fit(lambda t: t, 1, ts)


def test_content_envelope_rejects_nonpositive_volumes():
    ts = dims.log_grid(1e-4, 1e-2)
    with pytest.raises(ValueError):
        dims.content_envelope(lambda t: 0.0, 1, 0.5, ts)


def test_cantor_relative_fit_near_similarity_dim():
    desc = geometry.cantor_set(2, 1 / 3)
    ts = dims.log_grid(1e-6, 1e-2)
    fit = dims.relative_box_dim_fit(desc, ts)
    assert fit.dest == pytest.approx(LN2 / LN3, abs=0.01)


def test_cantor_envelope_brackets_average_content():
    desc = geometry.cantor_set(2, 1 / 3)
    d = LN2 / LN3
    ts = dims.log_grid(1e-6, 1e-2)
    env = dims.relative_content_envelope(desc, d, ts)
    assert env.lower_est < env.upper_est
    # lattice sets oscillate: the envelope must have real width
    assert (env.upper_est - env.lower_est) / env.lower_est > 1e-3
    # and bracket the mean of t^{d-1} V(t) over one period inside its window
    tau_lo = -math.log(env.t_range[1])
    taus = tau_lo + LN3 * np.arange(4096) / 4096
    g = np.array([geometry.tube_volume(desc, math.exp(-tau)) for tau in taus])
    g *= np.exp((1.0 - d) * taus)
    assert env.lower_est <= g.mean() <= env.upper_est


def test_nest_fit_matches_known_dimension():
    # gap widths 1/k - 1/(k+1) around radius 1/k circles give dim 4/3;
    # K = 4000 keeps the truncation scale well below the grid floor
    desc = geometry.fractal_nest(0.5, 4000)
    ts = dims.log_grid(1e-5, 1e-3)
    fit = dims.relative_box_dim_fit(desc, ts)
    assert fit.dest == pytest.approx(4.0 / 3.0, abs=0.02)


def test_a_string_fit_matches_known_dimension():
    desc = geometry.a_string_set(1.0)
    ts = dims.log_grid(1e-7, 1e-3)
    fit = dims.relative_box_dim_fit(desc, ts)
    assert fit.dest == pytest.approx(0.5, abs=0.01)


def test_flat_drum_fit_diverges_below_any_real_dimension():
    # relative dimension of the cusp region: slope estimates plunge without
    # bound as the grid floor decreases, the signature of dim = -infinity
    desc = geometry.flat_drum()
    fits = []
    for tmin in (1e-2, 1e-3):
        ts = dims.log_grid(tmin, 1e-1)
        fits.append(dims.relative_box_dim_fit(desc, ts).dest)
    assert fits[0] < -5.0
    assert fits[1] < fits[0] - 50.0


def test_relative_fit_uses_log_tube_for_flat_drum():
    # at t = 1e-3 the tube volume underflows to zero, so only a log-space
    # evaluation can support the fit at all
    desc = geometry.flat_drum()
    assert geometry.tube_volume(desc, 1e-3) == 0.0
    ts = dims.log_grid(1e-3, 1e-2)
    fit = dims.relative_box_dim_fit(desc, ts)
    assert math.isfinite(fit.dest)


_ARRAY_CHECK_KINDS = {
    "C(2,1/3)": lambda: geometry.cantor_set(2, 1 / 3),
    "C(5,1/10)": lambda: geometry.cantor_set(5, 1 / 10),
    "carpet2": lambda: geometry.carpet(2),
    "carpet3": lambda: geometry.carpet(3),
    "nest K=4000": lambda: geometry.fractal_nest(0.5, 4000),
    "a-string": lambda: geometry.a_string_set(1.0),
    "flat drum": geometry.flat_drum,
}


@pytest.mark.parametrize("name", list(_ARRAY_CHECK_KINDS))
def test_relative_estimators_match_scalar_tube_calls(name):
    # the relative variants evaluate the tube in one array call over the grid;
    # the generic estimators fed a scalar tube must give the same numbers
    desc = _ARRAY_CHECK_KINDS[name]()
    flat = name == "flat drum"
    ts = dims.log_grid(1e-3, 1e-1, 8) if flat else dims.log_grid(1e-9, 1e-2, 32)
    tube = lambda t: geometry.tube_volume(desc, t)
    log_tube = (lambda t: geometry.log_tube_volume(desc, t)) if flat else None
    fit = dims.relative_box_dim_fit(desc, ts)
    want = dims.box_dim_fit(tube, desc.ambient_dim, ts, log_tube=log_tube)
    assert fit.points_used == want.points_used
    assert fit.dest == pytest.approx(want.dest, rel=1e-12)
    if not flat:  # the flat drum's volumes underflow on any useful window
        dim = desc.similarity_dim
        env = dims.relative_content_envelope(desc, dim, ts)
        want = dims.content_envelope(tube, desc.ambient_dim, dim, ts)
        assert env.t_range == want.t_range
        assert (env.lower_est, env.upper_est) == pytest.approx(
            (want.lower_est, want.upper_est), rel=1e-12)
    # log_tube_volume takes an array of t, with -inf at t = 0
    ts = np.array([0.0, 1e-3, 0.02, 0.3])
    logs = geometry.log_tube_volume(desc, ts)
    assert isinstance(logs, np.ndarray) and logs.shape == ts.shape
    assert logs[0] == -math.inf and geometry.log_tube_volume(desc, 0.0) == -math.inf
    # an absolute error in log V is a relative error in V
    scalar = [geometry.log_tube_volume(desc, float(t)) for t in ts[1:]]
    assert logs[1:] == pytest.approx(scalar, rel=0.0, abs=1e-13)


def test_carpet_fit_below_the_float_range_names_the_cause():
    # the carpet's tube volumes are refused past its float range, and the fit
    # says so rather than finding "fewer than 3 usable grid points"
    with pytest.raises(ValueError, match="smallest supported t"):
        dims.relative_box_dim_fit(geometry.carpet(3), dims.log_grid(1e-120, 1e-100, 8))
