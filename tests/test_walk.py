"""The grid walker against slow pointwise and per-step references."""

import cmath
import math

import numpy as np
import pytest

from tscale import (
    Coefficient,
    ExpFamily,
    Grid,
    GridError,
    Scheme,
    exp_cayley,
    exp_evaluate_grid,
    exp_hilger,
    interval,
    isolated,
    solve_first_order,
    uniform,
    union,
)
from tscale.exponential import _hilger_product_point
from tscale.transforms import xi, zeta

from helpers import random_mixed

W = union(interval(0.0, 1.0), isolated(1.5, 2.25), interval(3.0, 4.0))
TOL = 1e-12

COEFFS = {
    "constant": Coefficient.constant(0.6 - 0.4j),
    "varying": Coefficient.from_function(lambda t: 0.6 - 0.4j + 0.3 * math.sin(3.0 * t)),
}

# (points, t0): make_grid grids, grids starting or ending mid-interval, grids
# stepping from a right-dense point across a gap, and an off-grid t0
GRIDS = {
    "make-grid": (W.make_grid(0.0, 4.0, 0.2).points, 0.0),
    "make-grid-mid-anchor": (W.make_grid(0.0, 4.0, 0.2).points, 2.25),
    "mid-interval-ends": (W.make_grid(0.35, 3.5, 0.1).points, 0.35),
    "off-grid-t0": (W.make_grid(1.5, 4.0, 0.25).points, 0.4),
    "across-gap-to-point": ((0.0, 0.5, 1.5, 2.25, 3.0, 3.5), 0.0),
    "across-gaps-mid-interval": ((0.0, 0.5, 3.25, 4.0), 3.25),
    "ends-mid-interval": ((0.0, 0.25, 0.5, 0.75), 0.75),
}

GRID_FAMILIES = {"cayley": ExpFamily.CAYLEY, "hilger": ExpFamily.HILGER_DELTA}


def _reference_logs(family, ts, coeff, t0, points):
    """Exponent integrals accumulated step by step from an on-grid t0 with
    the public operators: a step log at each scattered point, delta_integral
    over each step from a right-dense point."""

    def step(p, q):
        s = ts.sigma(p)
        if s > p:
            mu = s - p
            return mu * (xi(mu, coeff(p)) if family is ExpFamily.HILGER_DELTA else zeta(mu, coeff(p)))
        return ts.delta_integral(coeff.dense, p, q, TOL)

    anchor = points.index(t0)
    logs = [0j] * len(points)
    for k in range(anchor, len(points) - 1):
        logs[k + 1] = logs[k] + step(points[k], points[k + 1])
    for k in range(anchor, 0, -1):
        logs[k - 1] = logs[k] - step(points[k - 1], points[k])
    return logs


def _close(u, v, rtol):
    return abs(u - v) <= rtol * max(1.0, abs(v))


ON_GRID_T0 = sorted(name for name, (points, t0) in GRIDS.items() if t0 in points)


@pytest.mark.parametrize("grid_name", ON_GRID_T0)
@pytest.mark.parametrize("coeff_name", sorted(COEFFS))
@pytest.mark.parametrize("family_name", sorted(GRID_FAMILIES))
def test_grid_exponential_matches_per_step_reference_bitwise(grid_name, coeff_name, family_name):
    points, t0 = GRIDS[grid_name]
    family, coeff = GRID_FAMILIES[family_name], COEFFS[coeff_name]
    ev = exp_evaluate_grid(family, W, coeff, t0, Grid(points, 0.2), TOL)
    ref = _reference_logs(family, W, coeff, t0, points)
    assert ev.values == tuple(cmath.exp(L) for L in ref)


@pytest.mark.parametrize(
    "grid_name", [g for g in sorted(GRIDS) if not g.startswith("across")]
)
@pytest.mark.parametrize("coeff_name", sorted(COEFFS))
def test_grid_exponentials_match_pointwise(grid_name, coeff_name):
    points, t0 = GRIDS[grid_name]
    coeff, grid = COEFFS[coeff_name], Grid(points, 0.2)
    cay = exp_evaluate_grid(ExpFamily.CAYLEY, W, coeff, t0, grid, TOL)
    hil = exp_evaluate_grid(ExpFamily.HILGER_DELTA, W, coeff, t0, grid, TOL)
    for t, c, h in zip(points, cay.values, hil.values):
        assert _close(c, exp_cayley(W, coeff, t, t0, TOL), 1e-10)
        assert _close(h, exp_hilger(W, coeff, t, t0, TOL), 1e-10)
        assert _close(h, _hilger_product_point(W, coeff, t, t0, TOL), 1e-10)


@pytest.mark.parametrize("seed", range(4))
def test_grid_exponentials_match_pointwise_on_random_mixed_scales(seed):
    rng = np.random.default_rng(seed)
    ts = random_mixed(rng)
    grid = ts.make_grid(ts.inf, ts.sup, 0.15)
    t0 = grid.points[int(rng.integers(len(grid)))]
    a = complex(rng.uniform(-0.8, 0.8), rng.uniform(-0.8, 0.8))
    cay = exp_evaluate_grid(ExpFamily.CAYLEY, ts, a, t0, grid)
    hil = exp_evaluate_grid(ExpFamily.HILGER_DELTA, ts, a, t0, grid)
    for t, c, h in zip(grid.points, cay.values, hil.values):
        assert _close(c, exp_cayley(ts, a, t, t0), 1e-10)
        assert _close(h, exp_hilger(ts, a, t, t0), 1e-10)


SOLVER_PAIRS = {
    "explicit": (Scheme.EXPLICIT_DELTA, ExpFamily.HILGER_DELTA),
    "trapezoidal": (Scheme.TRAPEZOIDAL_CAYLEY, ExpFamily.CAYLEY),
    "exact": (Scheme.EXACT_DISC, ExpFamily.EXACT),
}


@pytest.mark.parametrize("grid_name", ON_GRID_T0)
@pytest.mark.parametrize("scheme_name", sorted(SOLVER_PAIRS))
def test_solver_matches_grid_exponential(grid_name, scheme_name):
    points, t0 = GRIDS[grid_name]
    scheme, family = SOLVER_PAIRS[scheme_name]
    coeff = COEFFS["constant"] if scheme is Scheme.EXACT_DISC else COEFFS["varying"]
    grid = Grid(points, 0.2)
    x = solve_first_order(scheme, W, coeff, 1.0, t0, grid, TOL)
    ev = exp_evaluate_grid(family, W, coeff, t0, grid, TOL)
    for u, v in zip(x.values, ev.values):
        assert _close(u, v, 1e-12)


def test_grid_skipping_a_forward_jump_raises_grid_error():
    ts = uniform(0.0, 1.0, 4)
    grid = Grid((0.0, 1.0, 3.0), 1.0)
    for t0 in (0.0, 3.0):  # forward and backward from the anchor
        with pytest.raises(GridError) as err:
            exp_evaluate_grid(ExpFamily.CAYLEY, ts, 0.5, t0, grid)
        assert str(err.value) == "grid skips the forward jump of 1.0: next sample 3.0, jump 2.0"
        with pytest.raises(GridError) as err:
            solve_first_order(Scheme.TRAPEZOIDAL_CAYLEY, ts, 0.5, 1.0, t0, grid)
        assert str(err.value) == "grid skips the forward jump of 1.0"


def test_walk_records():
    ts = union(interval(0.0, 1.0), isolated(1.5, 2.0))
    assert list(ts.walk((0.0, 0.5, 1.0, 1.5, 2.0))) == [
        (0.0, 0.5, 0.0, 0.0, (0.0, 0.5)),
        (0.5, 1.0, 0.5, 0.0, (0.5, 1.0)),
        (1.0, 1.5, 1.5, 0.5, None),
        (1.5, 2.0, 2.0, 0.5, None),
        (2.0, None, 2.0, None, None),  # left-scattered maximum: no graininess
    ]
    # a right-dense step that leaves its interval has no span
    assert list(ts.walk((0.5, 2.0)))[0] == (0.5, 2.0, 0.5, 0.0, None)
