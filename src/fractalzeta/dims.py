"""Box-dimension fits and Minkowski-content envelopes from tube functions.

Both estimators consume a plain tube function t ↦ V(t), called once per grid
point; the ``relative_*`` variants evaluate a catalog descriptor's tube (in
log space for the fit, which keeps genuinely flat drums finite) in one array
call over the grid.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import geometry
from .geometry import SetDescriptor

__all__ = [
    "DimFit",
    "ContentEnvelope",
    "log_grid",
    "box_dim_fit",
    "content_envelope",
    "relative_box_dim_fit",
    "relative_content_envelope",
]


@dataclass(frozen=True)
class DimFit:
    """Least-squares dimension estimate from log V against log t."""

    dest: float
    slope_std_err: float
    points_used: int


@dataclass(frozen=True)
class ContentEnvelope:
    """Grid inf/sup of V(t)/t^{N-D} near t = 0."""

    dim: float
    lower_est: float
    upper_est: float
    t_range: tuple[float, float]


def log_grid(tmin: float, tmax: float, per_decade: int = 64) -> np.ndarray:
    """Geometric grid from tmin to tmax with ``per_decade`` points per decade."""
    if not 0 < tmin < tmax:
        raise ValueError("need 0 < tmin < tmax")
    decades = math.log10(tmax / tmin)
    count = max(2, int(round(decades * per_decade)) + 1)
    return np.exp(np.linspace(math.log(tmin), math.log(tmax), count))


def _fit(log_volumes: Callable[[np.ndarray], np.ndarray], ambient_dim: int,
         t_grid: Sequence[float] | np.ndarray, drop_top_decades: float) -> DimFit:
    """Least-squares fit of log V = c + (N-D) log t, with log V of the kept
    grid points from one ``log_volumes`` call; nonfinite values are dropped."""
    ts = np.sort(np.asarray(t_grid, dtype=float))
    cutoff = ts[-1] / 10.0**drop_top_decades
    ts = ts[ts <= cutoff * (1 + 1e-12)]
    logv = np.asarray(log_volumes(ts), dtype=float)
    ok = np.isfinite(logv)
    ts, logv = ts[ok], logv[ok]
    if len(ts) < 3:
        raise ValueError("fewer than 3 usable grid points for the dimension fit")
    x = np.log(ts)
    slope, intercept = np.polyfit(x, logv, 1)
    resid = logv - (slope * x + intercept)
    dof = len(ts) - 2
    sxx = float(np.sum((x - x.mean()) ** 2))
    stderr = math.sqrt(float(np.sum(resid**2)) / dof / sxx) if dof > 0 else math.inf
    return DimFit(dest=ambient_dim - slope, slope_std_err=stderr, points_used=len(ts))


def _envelope(volumes: Callable[[np.ndarray], np.ndarray], ambient_dim: int, dim: float,
              t_grid: Sequence[float] | np.ndarray, window_decades: float) -> ContentEnvelope:
    """inf/sup of V(t)/t^{N-D} over the window, with V from one ``volumes`` call."""
    ts = np.sort(np.asarray(t_grid, dtype=float))
    cut = ts[0] * 10.0**window_decades
    ts = ts[ts <= cut * (1 + 1e-12)]
    vols = np.asarray(volumes(ts), dtype=float)
    if np.any(vols <= 0):
        raise ValueError("tube volumes must be positive on the envelope window")
    norm = vols / ts ** (ambient_dim - dim)
    return ContentEnvelope(dim=dim, lower_est=float(norm.min()),
                           upper_est=float(norm.max()),
                           t_range=(float(ts[0]), float(ts[-1])))


def box_dim_fit(tube: Callable[[float], float], ambient_dim: int,
                t_grid: Sequence[float] | np.ndarray,
                log_tube: Callable[[float], float] | None = None,
                drop_top_decades: float = 0.5) -> DimFit:
    """Box dimension from the scaling of the tube: fit log V = c + (N-D) log t.

    The top ``drop_top_decades`` of the grid is discarded (pre-asymptotic),
    as are points whose tube volume degenerates (zero/nonfinite, typically
    the double-precision noise floor).  ``log_tube`` supplies log V directly
    when volumes underflow.  Either is called once per grid point with a float.
    """
    if log_tube is not None:
        return _fit(lambda ts: [log_tube(float(t)) for t in ts], ambient_dim, t_grid,
                    drop_top_decades)
    with np.errstate(divide="ignore", invalid="ignore"):
        return _fit(lambda ts: np.log([tube(float(t)) for t in ts]), ambient_dim, t_grid,
                    drop_top_decades)


def content_envelope(tube: Callable[[float], float], ambient_dim: int, dim: float,
                     t_grid: Sequence[float] | np.ndarray,
                     window_decades: float = 2.0) -> ContentEnvelope:
    """Sampled liminf/limsup of V(t)/t^{N-D} over the small end of the grid.

    Only the final ``window_decades`` decades (toward t = 0) enter the
    inf/sup, approximating the t → 0 envelope.  ``tube`` is called once per
    grid point with a float.
    """
    return _envelope(lambda ts: [tube(float(t)) for t in ts], ambient_dim, dim, t_grid,
                     window_decades)


def relative_box_dim_fit(desc: SetDescriptor, t_grid: Sequence[float] | np.ndarray,
                         drop_top_decades: float = 0.5) -> DimFit:
    """Dimension fit of a catalog drum's inner tube.

    log V comes from one array ``log_tube_volume`` call over the kept grid,
    which stays finite where the volume underflows (the flat drum).
    """
    return _fit(lambda ts: geometry.log_tube_volume(desc, ts), desc.ambient_dim, t_grid,
                drop_top_decades)


def relative_content_envelope(desc: SetDescriptor, dim: float,
                              t_grid: Sequence[float] | np.ndarray,
                              window_decades: float = 2.0,
                              full: bool = False) -> ContentEnvelope:
    """Content envelope of a catalog drum (inner tube by default), from one
    array ``tube_volume`` call over the window."""
    return _envelope(lambda ts: geometry.tube_volume(desc, ts, full=full), desc.ambient_dim,
                     dim, t_grid, window_decades)
