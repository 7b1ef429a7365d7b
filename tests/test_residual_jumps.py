"""The residual reports and operators, which gather their stencils by index
from one walk's jumps, against the per-point code they replaced
(tests/helpers.py), bit for bit and errors included; the lookups they make;
and how often they map each stencil formula."""

import math
from functools import cache

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
    dynamic,
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
from tscale.exponential import _exp_runs, _pointwise_runs
from tscale.transforms import REGRESSIVITY_MARGIN

from helpers import (
    outcome,
    probe_points,
    random_discrete,
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
    from_t0 = cache(_exp_runs(family, ts, coeff, tol)(grid.points[0]))
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


# -- the gathered stencils at every point ---------------------------------------------


def wave(t):
    return complex(math.cos(t), 0.5 * math.sin(t))


def _guard_breaking(gap):
    """The least omega with |omega * gap| at the pi guard of delta_doubleprime."""
    limit = math.pi - REGRESSIVITY_MARGIN
    omega = limit / gap
    while omega * gap < limit:
        omega = math.nextafter(omega, math.inf)
    return omega


@st.composite
def column_cases(draw):
    """A scale, samples on a grid of it and omega. Point, uniform and mixed
    scales (stretches between intervals), and uniform-like points with one
    gap planted a few 1e-13 wider; make_grid grids, whole, sliced or
    subsampled (some jumps then unsampled), with points nudged or added
    within the membership tolerance and points dropped. omega is a fixed
    value or the least that breaks the pi guard at one of the scale's
    gaps: on a planted scale the constant graininess, its first gap,
    passes the guard, and delbis raises at the first point of the wider
    gap, inside a stretch."""
    shape = draw(st.sampled_from(["uniform", "points", "mixed", "planted"]))
    h = draw(st.sampled_from([0.25, 0.1, 1e-3]))
    start = draw(st.sampled_from([0.0, -3.7, 1e4]))
    n = draw(st.integers(3, 60))
    if shape == "uniform":
        ts = uniform(start, h, n)
    elif shape == "points":
        ts = random_discrete(np.random.default_rng(draw(st.integers(0, 2**32 - 1))), 3, 40)
    elif shape == "mixed":
        a = start + n * h + 0.5
        m = draw(st.integers(2, 30))
        ts = union(uniform(start, h, n), interval(a, a + 1.0), uniform(a + 1.5, h, m))
    else:
        j = draw(st.integers(0, n - 2))
        wide = draw(st.sampled_from([2e-13, 5e-13, 9e-13]))
        ts = isolated(*(start + k * h + (wide if k > j else 0.0) for k in range(n)))
    pts = list(ts.make_grid(ts.inf, ts.sup, draw(st.sampled_from([0.05, 0.3]))).points)
    cut = draw(st.sampled_from(["whole", "slice", "subsampled"]))
    if cut == "slice":
        i, j = sorted(draw(st.lists(st.integers(0, len(pts) - 1), min_size=2, max_size=2)))
        pts = pts[i : j + 1]
    elif cut == "subsampled":
        pts = pts[draw(st.integers(0, 1)) :: draw(st.integers(2, 3))] or pts[:1]
    nudges = st.sampled_from([-1e-12, -4e-13, 4e-13, 1e-12])
    places = st.lists(st.integers(0, 2**30), max_size=3)  # spread over the grid
    for k in draw(places):
        pts[k % len(pts)] += draw(nudges)
    for k in draw(places):
        pts.append(pts[k % len(pts)] + draw(nudges))  # a second point within the tolerance
    for k in draw(places):
        if len(pts) > 1:
            del pts[k % len(pts)]  # an asymmetric dense stencil, or an unsampled jump
    grid = Grid(tuple(sorted(set(pts))), 0.1)
    if draw(st.booleans()):
        x = SampledFunction.sample(lambda t: wave(2.5 * t), grid)
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
        size = len(grid.points)
        x = SampledFunction(grid, tuple(rng.normal(size=size) + 1j * rng.normal(size=size)))
    values = [c.left for c in ts.components]
    gaps = sorted(set(b - a for a, b in zip(values, values[1:]) if b - a < 1.0))
    if gaps and draw(st.booleans()):
        omega = _guard_breaking(gaps[-1] if draw(st.booleans()) else draw(st.sampled_from(gaps)))
    else:
        omega = draw(st.sampled_from([0.5, 2.5, 40.0, 1e200]))
    return ts, x, omega


def _column_outcomes(ts, x, omega):
    grid = x.grid
    for kind in TrigKind:
        args = (ts, omega, x, grid, 1e-12, kind)
        yield (
            outcome(lambda: _report(oscillator_residual_cayley(*args))),
            outcome(lambda: _report(reference_oscillator_cayley(*args))),
        )
    args = (ts, omega, x, grid)
    yield (
        outcome(lambda: _exact(oscillator_residual_exact(*args))),
        outcome(lambda: _exact(reference_oscillator_exact(*args))),
    )
    yield (
        outcome(lambda: _report(delbis_relation_residual(*args))),
        outcome(lambda: _report(reference_delbis(*args))),
    )


# gap 20, from t = 5, is 5e-13 wider than the others
_PLANTED = isolated(*(0.25 * k + (5e-13 if k > 20 else 0.0) for k in range(40)))
_PLANTED_X = SampledFunction.sample(wave, _PLANTED.make_grid(0.0, _PLANTED.sup, 0.1))
# t = 1 is right-dense with grid steps of 0.1 on both sides, but left-scattered
_STEP_BELOW = union(isolated(0.9), interval(1.0, 2.0))
_STEP_BELOW_X = SampledFunction.sample(wave, _STEP_BELOW.make_grid(0.9, 2.0, 0.1))


@settings(max_examples=300, deadline=None)
@given(column_cases())
@example((_PLANTED, _PLANTED_X, _guard_breaking(0.25 + 5e-13)))
@example((_STEP_BELOW, _STEP_BELOW_X, 2.5))
def test_reports_match_the_per_point_operators_at_every_point(case):
    """Residuals, points, skipped, form_agreement and the first error's
    type and message, bit for bit."""
    for got, want in _column_outcomes(*case):
        assert got == want


def test_delbis_raises_the_guard_inside_a_stretch_at_the_wider_gap():
    ts, x = _PLANTED, _PLANTED_X
    omega = _guard_breaking(max(b.t - a.t for a, b in zip(ts.components, ts.components[1:])))
    assert ts.constant_graininess() * omega < math.pi - REGRESSIVITY_MARGIN
    got = outcome(delbis_relation_residual, ts, omega, x, x.grid)
    assert got[0] == "SingularError" and "must stay below pi" in got[1]
    assert got == outcome(reference_delbis, ts, omega, x, x.grid)
    # on the points before the wider gap, the relation holds
    head = Grid(x.grid.points[:21], 0.1)
    rep = delbis_relation_residual(ts, omega, SampledFunction(head, x.values[:21]), head)
    assert len(rep.points) == 20 and rep.skipped == (head.points[-1],)


FORMULAS = ("_quotients", "_halves", "_dense_second")


def _formula_calls(monkeypatch, report):
    """report()'s calls of each stencil formula, as dynamic names it."""
    counts = dict.fromkeys(FORMULAS, 0)
    for name in FORMULAS:

        def counted(*args, name=name, formula=getattr(dynamic, name)):
            counts[name] += 1
            return formula(*args)

        monkeypatch.setattr(dynamic, name, counted)
    report()
    monkeypatch.undo()
    return counts


@pytest.mark.parametrize(
    "scale_at, formula",
    [
        pytest.param(lambda n: (uniform(0.0, 1e-3, n), 0.1), "_quotients", id="stretch"),
        pytest.param(lambda n: (interval(0.0, 1.0), 1.0 / n), "_dense_second", id="run"),
    ],
)
def test_reports_call_each_formula_as_often_at_any_size(monkeypatch, scale_at, formula):
    """No stencil formula runs once per point: each report maps each
    formula over a whole column, as often at n = 100 as at n = 10,000."""
    omega, seen = 2.5, {}
    for n in (100, 10_000):
        ts, step = scale_at(n)
        grid = ts.make_grid(ts.inf, ts.sup, step)
        x = SampledFunction.sample(lambda t: wave(2.5 * t), grid)
        reports = [
            lambda: oscillator_residual_cayley(ts, omega, x, grid),
            lambda: oscillator_residual_exact(ts, omega, x, grid),
            lambda: delbis_relation_residual(ts, omega, x, grid),
        ]
        seen[n] = [_formula_calls(monkeypatch, report) for report in reports]
    assert seen[100] == seen[10_000]
    assert seen[100][0][formula] > 0  # the counters see the reports' calls
