"""The residual operators on one walk's jumps against the per-point code they
replaced (tests/helpers.py), bit for bit and errors included, and the
lookups they make."""

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tscale import (
    Coefficient,
    ExpFamily,
    Grid,
    SampledFunction,
    TimeScale,
    TrigFamily,
    TrigKind,
    TscaleError,
    average,
    check_sigma_shift,
    cli,
    delbis_relation_residual,
    delta_doubleprime,
    delta_prime,
    derivative_residual,
    double_average,
    interval,
    isolated,
    oscillator_residual_cayley,
    oscillator_residual_exact,
    trig_grid,
    uniform,
    union,
)
from tscale.exponential import _exp_runs, _memoized, _pointwise_runs

from helpers import (
    outcome,
    probe_points,
    random_scale,
    reference_average,
    reference_delbis,
    reference_delta_doubleprime,
    reference_delta_prime,
    reference_derivative_residual,
    reference_double_average,
    reference_oscillator_cayley,
    reference_oscillator_exact,
    reference_sigma_shift_residual,
    tight_scales,
)

W = union(interval(0.0, 1.0), isolated(1.5, 2.25), interval(3.0, 4.0))
FAR = union(interval(1e4, 10000.5), isolated(10001.0), interval(10001.5, 10002.5))
FIXED_SCALES = [
    W,
    FAR,
    uniform(0.0, 0.25, 12),
    uniform(1e4, 0.1, 15),
    isolated(0.0, 0.3, 1.0, 1.2, 2.0),
    interval(0.0, 2.0),
    union(interval(0.0, 2.0), isolated(2.3, 2.6), interval(3.0, 5.0)),
]
SCALES = (
    st.sampled_from(FIXED_SCALES)
    | st.integers(0, 2**32 - 1).map(lambda s: random_scale(np.random.default_rng(s)))
    | tight_scales()
)


@st.composite
def scale_grids(draw):
    """A scale and a grid of it: its make_grid grid, whole or a slice, with
    points nudged within 1e-12 of component ends (at 1e4 a nudge can leave
    the scale) or added there beside the end, points dropped (some jumps
    then unsampled) and sometimes a gap's midpoint, which is no member."""
    ts = draw(SCALES)
    pts = ts.make_grid(ts.inf, ts.sup, draw(st.sampled_from([0.05, 0.125, 0.3]))).points
    whole = st.just([0, len(pts) - 1])
    i, j = sorted(draw(whole | st.lists(st.integers(0, len(pts) - 1), min_size=2, max_size=2)))
    pts = list(pts[i : j + 1])
    ends = {e for c in ts.components for e in (c.left, c.right)}
    nudges = st.sampled_from([-1e-12, -4e-13, 4e-13, 1e-12])
    for k in draw(st.lists(st.integers(0, len(pts) - 1), max_size=4)):
        if pts[k] in ends:
            pts[k] += draw(nudges)
    for k in draw(st.lists(st.integers(0, len(pts) - 1), max_size=2)):
        if pts[k] in ends:  # a second point within the tolerance of the end
            pts.append(pts[k] + draw(nudges))
    for k in draw(st.lists(st.integers(0, len(pts) - 1), max_size=3)):
        if len(pts) > 1 and k < len(pts):
            del pts[k]
    gaps = [0.5 * (a.right + b.left) for a, b in zip(ts.components, ts.components[1:])]
    if gaps and draw(st.integers(0, 5)) == 0:
        pts.append(draw(st.sampled_from(gaps)))
    return ts, Grid(tuple(sorted(set(pts))), 0.1)


@st.composite
def sampled_grids(draw):
    """scale_grids with samples on the grid: the cosine-like values of a
    Cayley or Bohner-Peterson pair where the grid has them, else random
    complex values; and a few probe points off the grid."""
    ts, grid = draw(scale_grids())
    kind = draw(st.sampled_from(["cayley", "bp", "random"]))
    x = None
    if kind != "random":
        family = TrigFamily.CAYLEY if kind == "cayley" else TrigFamily.BOHNER_PETERSON
        try:
            x = SampledFunction(grid, trig_grid(family, ts, 2.5, grid.points[0], grid).c_values)
        except TscaleError:
            pass
    if x is None:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        n = len(grid.points)
        x = SampledFunction(grid, tuple(rng.normal(size=n) + 1j * rng.normal(size=n)))
    return ts, x, draw(st.lists(probe_points(ts), max_size=3))


def _report(rep):
    return rep.identity, rep.points, rep.residuals, rep.skipped


def _exact(result):
    return _report(result.phi_form), _report(result.sinc_form), result.form_agreement


# omega 1e200 overflows omega**2, so an error at an early point comes
# before the one at a later non-member
OMEGAS = st.sampled_from([0.5, 2.5, 40.0, 1e200])
_FAR_GRID = Grid((1e4, 10000.25, 10000.5, 10001.0 + 1e-12, 10001.5), 0.1)


@settings(max_examples=300, deadline=None)
@given(sampled_grids(), OMEGAS)
@example((FAR, SampledFunction(_FAR_GRID, (1.0, 2.0, 3.0, 4.0, 5.0)), []), 1e200)
def test_grid_residuals_match_the_per_point_references(case, omega):
    ts, x, probes = case
    grid = x.grid
    for kind in TrigKind:
        args = (ts, omega, x, grid, 1e-12, kind)
        want = outcome(lambda: _report(reference_oscillator_cayley(*args)))
        assert outcome(lambda: _report(oscillator_residual_cayley(*args))) == want
    args = (ts, omega, x, grid)
    want = outcome(lambda: _exact(reference_oscillator_exact(*args)))
    assert outcome(lambda: _exact(oscillator_residual_exact(*args))) == want
    want = outcome(lambda: _report(reference_delbis(*args)))
    assert outcome(lambda: _report(delbis_relation_residual(*args))) == want
    pairs = ((average, reference_average), (double_average, reference_double_average))
    for t in list(grid.points) + probes:
        for new, ref in pairs:
            assert outcome(new, x, ts, t) == outcome(ref, x, ts, t)
        assert outcome(delta_prime, 0.7 - 0.2j, ts, x, t) == outcome(
            reference_delta_prime, 0.7 - 0.2j, ts, x, t
        )
        assert outcome(delta_doubleprime, omega, ts, x, t) == outcome(
            reference_delta_doubleprime, omega, ts, x, t
        )


@settings(max_examples=100, deadline=None)
@given(scale_grids(), st.sampled_from([0.5, 2.5]), st.sampled_from(list(TrigKind)))
def test_derivative_residual_matches_the_per_point_reference(scale_grid, param, kind):
    ts, grid = scale_grid
    args = (TrigFamily.CAYLEY, kind, ts, param, Grid(grid.points[:40], 0.1))
    want = outcome(lambda: _report(reference_derivative_residual(*args)))
    assert outcome(lambda: _report(derivative_residual(*args))) == want


def _reference_sigma_shift_report(family, ts, coeff, grid, tol):
    from_t0 = _memoized(_exp_runs(family, ts, coeff, tol)(grid.points[0]))
    pts, residuals, skipped = [], [], []
    for t in grid.points:
        if not ts.in_kappa(t):
            skipped.append(t)
            continue
        pts.append(t)
        residuals.append(reference_sigma_shift_residual(family, ts, coeff, t, from_t0))
    return "sigma-shift", tuple(pts), tuple(residuals), tuple(skipped)


SHIFT_COEFFS = st.sampled_from(
    [
        Coefficient.constant(0.6 - 0.4j),
        Coefficient.constant(-4.0),  # 1 + mu*alpha = 0 at a gap of 0.25
        Coefficient.constant(8.0),  # mu*alpha = 2 there
        Coefficient.from_function(lambda t: 0.3 + 0.2j * t),
    ]
)


@settings(max_examples=300, deadline=None)
@given(scale_grids(), SHIFT_COEFFS, st.sampled_from(list(ExpFamily)), st.data())
def test_sigma_shift_matches_the_per_point_reference(scale_grid, coeff, family, data):
    ts, grid = scale_grid
    config = cli.RunConfig("identity", alpha=coeff)
    want = outcome(lambda: _reference_sigma_shift_report(family, ts, coeff, grid, 1e-12))
    assert outcome(lambda: _report(cli._sigma_shift_report(config, ts, grid, family)[0])) == want
    for t in list(grid.points[:6]) + data.draw(st.lists(probe_points(ts), max_size=3)):
        t0 = grid.points[0]
        from_t0 = _pointwise_runs(family, ts, coeff, 1e-12)(t0)
        want = outcome(reference_sigma_shift_residual, family, ts, coeff, t, from_t0)
        assert outcome(check_sigma_shift, family, ts, coeff, t, t0) == want


# -- lookups --------------------------------------------------------------------------


def _lookups(monkeypatch, fn):
    """fn()'s calls of TimeScale._locate and Grid.index_of."""
    calls = {"locate": 0, "index_of": 0}
    locate, index_of = TimeScale._locate, Grid.index_of

    def counted_locate(self, t):
        calls["locate"] += 1
        return locate(self, t)

    def counted_index_of(self, t):
        calls["index_of"] += 1
        return index_of(self, t)

    monkeypatch.setattr(TimeScale, "_locate", counted_locate)
    monkeypatch.setattr(Grid, "index_of", counted_index_of)
    fn()
    return calls


@pytest.mark.parametrize(
    "identity, scale, n",
    [
        ("oscillator-cayley", "uniform(0,1e-3,1000)", 1000),
        ("oscillator-exact", "uniform(0,1e-3,1000)", 1000),
        ("delbis", "uniform(0,1e-3,1000)", 1000),
        ("sigma-shift", "uniform(0,0.01,400)", 400),
    ],
)
def test_identity_reports_read_each_jump_from_one_walk(monkeypatch, identity, scale, n):
    """At most two component lookups per grid point (a grid exponential's
    walk, where the report takes one, and the jumps' walk) and one grid
    index search per point."""
    config = cli.RunConfig("identity", identity=identity, scale=scale, omega=2.5)
    calls = _lookups(monkeypatch, lambda: cli.cmd_identity(config))
    assert calls["locate"] <= 2 * n + 20
    assert calls["index_of"] <= n
