"""The grid walker against slow pointwise and per-step references."""

import cmath
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tscale import (
    ClosedInterval,
    Coefficient,
    DomainError,
    ExpFamily,
    Grid,
    GridError,
    RegressivityError,
    Scheme,
    TimeScale,
    ToleranceError,
    TrigFamily,
    as_coefficient,
    exp_cayley,
    exp_evaluate_grid,
    exp_hilger,
    graininess_coefficient,
    hyp_grid,
    interval,
    isolated,
    solve_first_order,
    uniform,
    union,
)
from tscale import cli, exponential, timescale, transforms
from tscale.exponential import _STEP_RULES, _grid_log_integrals, _validate_regressive
from tscale.dynamic import _SCHEME_RULES
from tscale.timescale import IsolatedPoint, Run, Stretch, _Jumps, _adaptive_simpson
from tscale.transforms import _graininess_only, xi, zeta

from helpers import (
    any_scale,
    dense_piece,
    outcome,
    probe_points,
    random_discrete,
    random_mixed,
    reference_checked_walk,
    reference_grid_log_integrals,
    reference_product,
    reference_solve,
    reference_validated_logs,
    reference_walk,
    tight_scales,
    walk_outcome,
)

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
# every family: each runs the same fold on its own step rule
EXP_FAMILIES = {family.value: family for family in ExpFamily}

# each family's step log by the public cylinder maps
PUBLIC_STEP_LOGS = {
    ExpFamily.HILGER_DELTA: lambda mu, a: mu * xi(mu, a),
    ExpFamily.NABLA_CONST: lambda mu, a: -mu * xi(mu, -a),
    ExpFamily.CAYLEY: lambda mu, a: mu * zeta(mu, a),
    ExpFamily.EXACT: lambda mu, a: mu * a,
}


def _reference_logs(family, ts, coeff, t0, points):
    """Exponent integrals accumulated step by step from an on-grid t0 with
    the public operators: a step log at each scattered point, the dense
    view's dense_piece over a step inside one interval, and delta_integral
    over a step from a right-dense point across a jump."""

    def step(p, q):
        s = ts.sigma(p)
        if s > p:
            return PUBLIC_STEP_LOGS[family](s - p, coeff(p))
        if ts.scattered_points(p, q):
            return ts.delta_integral(coeff.dense, p, q, TOL)
        return dense_piece(coeff, p, q, TOL)

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
@pytest.mark.parametrize("family_name", sorted(EXP_FAMILIES))
def test_grid_exponential_matches_per_step_reference_bitwise(grid_name, coeff_name, family_name):
    points, t0 = GRIDS[grid_name]
    family, coeff = EXP_FAMILIES[family_name], COEFFS[coeff_name]
    if family is ExpFamily.NABLA_CONST and not coeff.is_constant:
        with pytest.raises(ValueError, match="^coefficient is not constant$"):
            exp_evaluate_grid(family, W, coeff, t0, Grid(points, 0.2), TOL)
        return
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
        assert _close(h, reference_product(W, coeff, t, t0, TOL), 1e-10)


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
    coeff = COEFFS["varying"]
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
        assert str(err.value) == "grid skips the forward jump of 1.0: next sample 3.0, jump 2.0"


@pytest.mark.parametrize("t0, first", [(1.5, 0.5), (math.nan, 0.5), (-0.5, -0.5)])
def test_grid_exponential_reports_the_lower_non_member_first(t0, first):
    """Of a non-member first grid point and a non-member t0 (NaN too), the
    lower is reported, as a scan from the range's lower end meets it."""
    ts = isolated(0.0, 1.0, 2.0)
    for family in EXP_FAMILIES.values():
        with pytest.raises(DomainError) as err:
            exp_evaluate_grid(family, ts, 0.5, t0, Grid((0.5, 1.0, 2.0), 1.0))
        assert str(err.value) == f"t={first!r} is not a member of the time scale"


@pytest.mark.parametrize("family, alpha", [(ExpFamily.HILGER_DELTA, -2.0), (ExpFamily.CAYLEY, 4.0)])
def test_an_off_grid_anchor_reports_its_stretch_before_the_grid(family, alpha):
    """Every gap degenerates: a t0 below the grid reports the first step of
    its stretch to the grid, as a scan from the range's lower end meets it,
    before any step of the grid's walk."""
    ts = isolated(0.0, 0.5, 1.0, 1.5, 2.0)
    args = (family, ts, alpha, 0.0, Grid((1.0, 1.5, 2.0), 0.5), TOL)
    got = outcome(lambda: exp_evaluate_grid(*args).values)
    assert got[0] == "RegressivityError" and got[2] == 0.0
    assert got == outcome(lambda: _reference_grid_values(*args))


def test_grid_point_just_below_an_interval_steps_into_it():
    # -5e-13 is located at the interval's lower end 0.0, whose forward jump
    # 0.0 lies above the raw point: the step is dense, not a skipped jump
    ts = union(interval(0.0, 1.0), isolated(1.5))
    grid = Grid((-5e-13, 0.5, 1.0, 1.5), 0.5)
    expected = [exp_cayley(ts, 0.5, p, 0.5) for p in grid.points]
    assert expected[0] == 0.7788007830714049
    ev = exp_evaluate_grid(ExpFamily.CAYLEY, ts, 0.5, 0.5, grid)
    x = solve_first_order(Scheme.TRAPEZOIDAL_CAYLEY, ts, 0.5, 1.0, 0.5, grid)
    assert ev.values[0] == x.values[0] == expected[0]
    for u, v, w in zip(ev.values, x.values, expected):
        assert _close(u, w, 1e-15) and _close(v, w, 1e-15)


def test_walk_records():
    ts = union(interval(0.0, 1.0), isolated(1.5, 2.0))
    assert list(ts.walk((0.0, 0.5, 1.0, 1.5, 2.0))) == [
        (0.0, 0.5, 0.0, 0.0, (0.0, 0.5), 0.0),
        (0.5, 1.0, 0.5, 0.0, (0.5, 1.0), 0.5),
        (1.0, 1.5, 1.5, 0.5, None, 1.0),
        (1.5, 2.0, 2.0, 0.5, None, 1.5),
        (2.0, None, 2.0, None, None, 2.0),  # left-scattered maximum: no graininess
    ]
    # a right-dense step that leaves its interval has no span
    assert list(ts.walk((0.5, 2.0)))[0] == (0.5, 2.0, 0.5, 0.0, None, 0.5)
    # a point within the tolerance of an isolated point is located at it
    assert list(ts.walk((1.5 - 4e-13,)))[0][1:] == (None, 2.0, 0.5, None, 1.5)


# -- the walker against a walk that locates every point ------------------------------


@st.composite
def walk_points(draw, ts):
    """Probe points, points of the intervals and points within 3e-12 of an
    interval's ends, ascending, as drawn or descending, with a point
    sometimes repeated."""
    intervals = [c for c in ts.components if isinstance(c, ClosedInterval)]

    def point():
        kind = draw(st.sampled_from(["probe", "inside", "near an end"]))
        if not intervals or kind == "probe":
            return draw(probe_points(ts))
        c = draw(st.sampled_from(intervals))
        if kind == "inside":
            return draw(st.floats(min_value=c.lo, max_value=c.hi))
        return draw(st.sampled_from([c.lo, c.hi])) + draw(st.floats(-3e-12, 3e-12))

    points = [point() for _ in range(draw(st.integers(1, 12)))]
    if draw(st.booleans()):
        k = draw(st.integers(0, len(points) - 1))
        points.insert(k, points[k])
    order = draw(st.sampled_from(["ascending", "as drawn", "descending"]))
    if order != "as drawn":
        points.sort(reverse=order == "descending")
    return points


@settings(max_examples=400, deadline=None)
@given(
    st.one_of(tight_scales(), tight_scales(intervals_only=True), any_scale()), st.data()
)
def test_walk_matches_locating_every_point(ts, data):
    """Records and the exception that ends the walk are those of a walk
    that locates every point, bit for bit."""
    points = data.draw(walk_points(ts))
    assert walk_outcome(ts.walk, points) == walk_outcome(reference_walk, ts, points)


_HOP_SCALES = st.sampled_from(
    [
        uniform(0.0, 1e-3, 40),
        uniform(1e4, 0.1, 30),  # an ulp of 1e4 is above the tolerance
        W,
        union(interval(0.0, 1.0), uniform(1.5, 0.25, 5), interval(3.0, 4.0)),
    ]
) | tight_scales() | st.integers(0, 2**32 - 1).map(
    lambda s: random_discrete(np.random.default_rng(s))
)


@st.composite
def _hop_points(draw):
    """A discrete or hybrid scale and its make_grid points, some nudged by
    up to 1e-12 or a few ulps and some dropped, so that a step lands on
    its jump exactly, near it, or past it."""
    ts = draw(_HOP_SCALES)
    points = list(ts.make_grid(ts.inf, ts.sup, draw(st.sampled_from([0.1, 0.3]))).points)
    for k in draw(st.lists(st.integers(0, len(points) - 1), max_size=4)):
        if draw(st.booleans()):
            points[k] += draw(st.sampled_from([-1e-12, -4e-13, 4e-13, 1e-12, 2e-12]))
        else:
            for _ in range(draw(st.integers(1, 3))):
                points[k] = math.nextafter(points[k], draw(st.sampled_from([-math.inf, math.inf])))
    for k in draw(st.lists(st.integers(0, len(points) - 1), max_size=3)):
        if len(points) > 1 and k < len(points):
            del points[k]
    return ts, points


@settings(max_examples=400, deadline=None)
@given(_hop_points())
def test_walk_steps_between_isolated_points_as_locating_each(scale_points):
    """A step that lands on its jump is taken as located at the next
    component, with no lookup; the records, and the exception that ends
    the walk, are those of a walk that locates every point."""
    ts, points = scale_points
    assert walk_outcome(ts.walk, points) == walk_outcome(reference_walk, ts, points)


# offsets from the interval ends, exact in binary: 4.5e-13 and 1.8e-12
_IN, _PAST = 2.0**-41, 2.0**-39
_EDGE = union(interval(0.0, 1.0), isolated(1.0 + _PAST), interval(2.0, 3.0))


@pytest.mark.parametrize(
    "ts, points",
    [
        (_EDGE, (0.5, 1.0 + _PAST, 2.0)),  # the point just past the tolerance
        (_EDGE, (0.5, 1.0 + _IN, 1.0 + _PAST)),  # within it: the end
        (_EDGE, (2.5, 3.0 + _IN, 3.0 + _PAST)),  # past it: no member
        (interval(-1.0, 0.0), (-0.5, 1.1e-12)),  # barely past it
        (_EDGE, (0.25, 0.5, 0.5, 0.75)),  # a repeated point
        (_EDGE, (0.75, 0.5, 0.25)),  # descending
        (_EDGE, (2.5, 1.0 + _PAST, 0.5)),  # descending across components
        (_EDGE, (0.5, math.nan)),
        (interval(1e4, 10001.0), (1e4 + 0.5, math.nextafter(10001.0, math.inf))),
        # accepted below lo but not snapped: its located value is outside
        (interval(-1.8151915633927285, -1.0), (-1.8151915633937286, -1.7, -1.5)),
        # a run's second point within the tolerance above lo: no slice
        (_EDGE, (0.0, _IN, 0.25, 0.5)),
        (_EDGE, (0.0, _IN, 2 * _IN, 0.5, 0.75)),
        # interior points within the tolerance below and above hi
        (_EDGE, (0.25, 0.5, 1.0 - _IN, 1.0 + _PAST)),
        (_EDGE, (0.25, 0.5, 0.75, 1.0 + _IN, 2.5)),
        (_EDGE, (0.25, 0.5, 1.0 - _PAST, 1.0 - _IN, 1.0)),
        (interval(0.0, 1.0), (0.5, 1.0 - 1e-12, math.nextafter(1.0 - 1e-12, 2.0))),
        (interval(1e4, 10001.0), (1e4, 1e4 + 0.5, 10001.0 - 1e-12, 10001.0)),
        # below hi - 1e-12 as rounded, but within the tolerance of hi near 0
        (interval(-1.0, 6.400778580338808e-13), (-0.5, -0.25, -3.599221419661192e-13)),
        # a run's first point just below lo, snapped to lo
        (_EDGE, (2.0 - _IN, 2.25, 2.5, 2.75)),
        (_EDGE, (-_IN, 0.25, 0.5, 1.0)),
        # a long ascending stretch, then a descent inside one interval
        (_EDGE, tuple(k / 64 for k in range(1, 60)) + (0.5, 0.75)),
        # a repeated interior point
        (_EDGE, (0.1, 0.2, 0.3, 0.3, 0.4, 0.5)),
        # a NaN after an interior stretch
        (_EDGE, (0.1, 0.2, 0.3, 0.4, math.nan, 0.5)),
    ],
)
def test_walk_matches_locating_every_point_at_tolerance_edges(ts, points):
    assert walk_outcome(ts.walk, points) == walk_outcome(reference_walk, ts, points)


def test_a_walk_snaps_only_near_the_ends_of_a_run(monkeypatch):
    """A run's interior is one slice: the _snap calls of a walk over a
    make_grid grid of one interval do not grow with its size."""
    ts = interval(0.0, 1.0)
    counts = []
    for step in (1e-3, 1e-4):
        points = ts.make_grid(0.0, 1.0, step).points
        snapped = []
        snap = timescale._snap
        monkeypatch.setattr(timescale, "_snap", lambda lo, hi, t: snapped.append(t) or snap(lo, hi, t))
        records = list(ts.walk_runs(points))
        monkeypatch.undo()
        assert len(records) == 2 and records[0] == Run(0, list(points))
        counts.append(len(snapped))
    assert counts[0] == counts[1] <= 4


def test_walk_locates_only_after_a_component_ends(monkeypatch):
    """Every step here ends a component at the next one's left end, which
    the walk takes as located there: only the first point is looked up."""
    ts = union(interval(0.0, 1.0), isolated(1.5), interval(2.0, 3.0))
    points = ts.make_grid(0.0, 3.0, 0.01).points
    located = []
    locate = TimeScale._locate
    monkeypatch.setattr(
        TimeScale, "_locate", lambda self, t: located.append(t) or locate(self, t)
    )
    records = list(ts.walk(points))
    assert located == [0.0]
    monkeypatch.undo()
    assert records == list(reference_walk(ts, points))


# -- constant coefficients on dense steps ---------------------------------------------


_VALUES = st.builds(
    complex, st.floats(-1e6, 1e6), st.floats(-1e6, 1e6)
) | st.sampled_from(
    [0j, complex(-0.0, -0.0), 1e10 + 0j, complex(3e5, -7.25), 3e307j, complex(-1e308, 1e308)]
)


@st.composite
def _spans(draw):
    """Zero-length, sub-ulp, few-ulp and wider spans at several magnitudes."""
    a = draw(st.sampled_from([0.0, -3.0, 1e4, -1e4]) | st.floats(-1e4, 1e4))
    kind = draw(st.sampled_from(["zero", "ulp", "ulps", "width"]))
    if kind == "zero":
        return a, a
    if kind in ("ulp", "ulps"):
        b = a
        for _ in range(1 if kind == "ulp" else draw(st.integers(2, 5))):
            b = math.nextafter(b, math.inf)
        return a, b
    return a, a + draw(st.sampled_from([1e-12, 1e-4, 0.5, 100.0]))


# rounding makes its first Simpson step over [1e4, 1e4 + 0.1] miss tol 1e-12
_REFINING = complex(831988.9607137693, -813456.2712951798)

_TOLS = st.sampled_from([1e-12, 1e-8, 1e-3, math.inf, math.nan, 0.0, -1.0])


def _exact_pieces(v, los, his, tol):
    """The integral of the constant v over each [a, b], exactly:
    v * (b - a) + 0j, in order, up to a ToleranceError at the first
    non-finite one; a tol that is not positive is a ValueError."""
    if not tol > 0:
        raise ValueError("tol must be positive")
    for a, b in zip(los, his):
        w = v * (b - a) + 0j
        if not cmath.isfinite(w):
            raise ToleranceError(f"quadrature overflows on [{a}, {b}]")
        yield w


def _pieces(integrals, *args):
    """The pieces integrals(*args) yields before any error, and its outcome."""
    got = []
    result = outcome(lambda: got.extend(integrals(*args)))
    return outcome(lambda: tuple(got)), result


def _constant_pieces(v, los, his, tol):
    return _pieces(Coefficient.constant(v).dense_integrals, los, his, tol)


def _near_simpson(w, v, a, b, tol):
    """w is within a few ulps of adaptive Simpson on the constant v over
    [a, b], wherever that converges."""
    try:
        simpson = _adaptive_simpson(lambda t: v, a, b, tol)
    except ToleranceError:
        return True
    # Simpson's (b - a) / 6 rounds to the subnormal grid on a tiny span
    bound = 8 * (math.ulp(abs(v) * (b - a)) + abs(v) * math.ulp(0.0))
    return abs(w - simpson) <= bound


@settings(max_examples=400, deadline=None)
@given(_VALUES, _spans(), _TOLS)
@example(_REFINING, (1e4, 1e4 + 0.1), 1e-12)  # Simpson refines; the integral is v*0.1
@example(1j, (0.0, 0.0), 1e-12)
@example(3e307j, (1e4, math.nextafter(1e4, math.inf)), 1e-12)
@example(complex(-1e308, 1e308), (0.0, 100.0), 1e-12)  # a non-finite piece
@example(1 + 0j, (1e4, 1e4 + 0.5), math.nan)
def test_constant_simpson_is_the_first_simpson_step(v, span, tol):
    """Simpson's rule is exact on a constant, and a constant dense view
    takes that exact value in one step: its integral over [a, b] is
    v * (b - a) + 0j bit for bit, a non-finite one a ToleranceError, and
    a tol that is not positive a ValueError."""
    a, b = span
    assert _constant_pieces(v, [a], [b], tol) == _pieces(_exact_pieces, v, [a], [b], tol)


@settings(max_examples=200, deadline=None)
@given(
    _VALUES,
    st.sampled_from([0.0, -3.0, 1e4, -1e4]) | st.floats(-1e4, 1e4),
    st.lists(st.sampled_from([0.0, 2.0**-40, 1e-12, 1e-4, 0.5]), min_size=1, max_size=12),
    _TOLS,
)
@example(_REFINING, 1e4, [0.1, 1e-4, 0.1], 1e-12)  # Simpson refines between pieces
@example(complex(-1e308, 1e308), 0.0, [1e-4, 100.0, 0.5], 1e-12)  # the 2nd piece overflows
def test_constant_simpson_of_a_run_is_each_step_alone(v, start, widths, tol):
    """A run's steps integrate in one dense_integrals call as each does
    alone, in order, up to the error of the first that fails."""
    xs = [start]
    for w in widths:
        xs.append(xs[-1] + w)
    got, result = _constant_pieces(v, xs[:-1], xs[1:], tol)
    assert (got, result) == _pieces(_exact_pieces, v, xs[:-1], xs[1:], tol)
    alone = []
    for a, b in zip(xs, xs[1:]):
        step = outcome(Coefficient.constant(v).dense_integral, a, b, tol)
        if isinstance(step[0], str) and step[0].endswith("Error"):
            assert result == step
            break
        alone.append(step)
    assert got == tuple(alone)


def test_constant_simpson_declines_a_refining_first_step(monkeypatch):
    """Where Simpson's first step over [a, b] misses tol and refines, a
    constant dense view still takes one step: v * (b - a) + 0j, within a
    few ulps of the refined Simpson value."""
    a, b, tol = 1e4, 1e4 + 0.1, 1e-12
    steps = []
    step = timescale._simpson_step
    monkeypatch.setattr(
        timescale, "_simpson_step", lambda *args: steps.append(args[1:3]) or step(*args)
    )
    _adaptive_simpson(lambda t: _REFINING, a, b, tol)
    assert len(steps) > 1
    steps.clear()
    w = Coefficient.constant(_REFINING).dense_integral(a, b, tol)
    assert steps == []
    assert outcome(lambda: w) == outcome(lambda: _REFINING * (b - a) + 0j)
    assert _near_simpson(w, _REFINING, a, b, tol)


@settings(max_examples=300, deadline=None)
@given(_VALUES, _spans(), _TOLS)
@example(_REFINING, (1e4, 1e4 + 0.1), 1e-12)
@example(1 + 0j, (1e4, 1e4 + 0.5), math.nan)
def test_constant_dense_integral_is_adaptive_simpson(v, span, tol):
    """A constant dense view's integral over [a, b] is within a few ulps of
    adaptive Simpson wherever that converges, and meets the same
    ValueError where tol is not positive."""
    coeff = Coefficient.constant(v)
    got = outcome(coeff.dense_integral, *span, tol)
    if not tol > 0:
        assert got == outcome(_adaptive_simpson, lambda t: v, *span, tol)
    elif cmath.isfinite(v * (span[1] - span[0])):
        assert _near_simpson(coeff.dense_integral(*span, tol), v, *span, tol)


def test_constant_simpson_overflow_is_a_tolerance_error(monkeypatch):
    """An infinite constant piece is the ToleranceError adaptive Simpson
    raises where its arithmetic overflows, after the pieces before it."""
    def overflowing_abs(x):
        raise OverflowError("absolute value too large")

    monkeypatch.setattr(timescale, "abs", overflowing_abs, raising=False)
    want = outcome(_adaptive_simpson, lambda t: 1j, 0.0, 1.0, 1e-12)
    assert want == ("ToleranceError", "quadrature overflows on [0.0, 1.0]", None)
    # the exact integral calls neither Simpson nor its abs
    assert Coefficient.constant(1j).dense_integral(0.0, 1.0, 1e-12) == 1j
    monkeypatch.undo()
    v = 3e307j
    los, his = [0.0, -1e4, 0.0], [1.0, -1e4 + 100.0, 0.5]
    assert _constant_pieces(v, los, his, 1e-12) == (
        outcome(lambda: (v,)),
        ("ToleranceError", "quadrature overflows on [-10000.0, -9900.0]", None),
    )
    assert outcome(Coefficient.constant(1e308 + 0j).dense_integral, 0.0, 10.0, 1e-12) == (
        "ToleranceError",
        "quadrature overflows on [0.0, 10.0]",
        None,
    )


def test_simpson_rejects_a_nan_tolerance():
    # no piece meets it: near 1e4 every piece would refine toward sub-ulp width
    with pytest.raises(ValueError, match="tol must be positive"):
        _adaptive_simpson(lambda t: 1 + 0j, 1e4, 1e4 + 0.5, math.nan)
    with pytest.raises(ValueError, match="tol must be positive"):
        Coefficient.constant(1 + 0j).dense_integral(1e4, 1e4 + 0.5, math.nan)


def _simpson_calls(monkeypatch):
    """The lower end of each adaptive Simpson quadrature from here on, in
    a delta integral or in a coefficient's dense integrals."""
    calls = []
    simpson = timescale._adaptive_simpson
    counted = lambda f, a, b, tol: calls.append(a) or simpson(f, a, b, tol)
    for module in (timescale, transforms):
        monkeypatch.setattr(module, "_adaptive_simpson", counted)
    return calls


@pytest.mark.parametrize("coeff_name", sorted(COEFFS))
def test_constant_coefficient_dense_steps_call_no_quadrature(monkeypatch, coeff_name):
    calls = _simpson_calls(monkeypatch)
    grid = W.make_grid(0.0, 4.0, 0.05)
    coeff = COEFFS[coeff_name]
    exp_evaluate_grid(ExpFamily.CAYLEY, W, coeff, 0.0, grid, TOL)
    solve_first_order(Scheme.TRAPEZOIDAL_CAYLEY, W, coeff, 1.0, 0.0, grid, TOL)
    dense_steps = sum(1 for r in W.walk(grid.points) if r[4] is not None)
    assert len(calls) == (0 if coeff.is_constant else 2 * dense_steps)


@pytest.mark.parametrize("family", [ExpFamily.CAYLEY, ExpFamily.HILGER_DELTA])
def test_graininess_coefficient_with_a_dense_value_calls_no_quadrature(monkeypatch, family):
    """The product law's combined coefficient: given its constant dense
    value, its grid exponential calls no quadrature, is bit for bit the
    per-step reference that integrates that value exactly, and is within
    rounding of the one whose dense view evaluates fn(0.0, t) under full
    Simpson."""
    a, b = 0.6 - 0.4j, -0.3 + 0.2j
    oplus = _STEP_RULES[family].oplus
    grid = W.make_grid(0.0, 4.0, 0.05)
    values = lambda coeff: exp_evaluate_grid(family, W, coeff, 0.0, grid, TOL).values
    plain = graininess_coefficient(W, lambda mu, s: oplus(mu, a, b))
    simpson = values(plain)
    calls = _simpson_calls(monkeypatch)
    fast = graininess_coefficient(W, lambda mu, s: oplus(mu, a, b), oplus(0.0, a, b))
    got = values(fast)
    assert calls == []
    want = _reference_grid_values(family, W, fast, 0.0, grid, TOL)
    assert outcome(lambda: got) == outcome(lambda: want)
    assert all(abs(u - w) <= 1e-14 * abs(w) for u, w in zip(got, simpson))
    assert fast.dense(0.5) == plain.dense(0.5) and fast(1.5) == plain(1.5)


def test_bohner_peterson_pair_of_a_dense_value_calls_no_quadrature(monkeypatch):
    """hyp_grid negates the coefficient for its minus exponential, and the
    negation keeps the constant dense view: neither side integrates by
    Simpson."""
    coeff = graininess_coefficient(W, lambda mu, s: 0.4 + mu, 0.4)
    grid = W.make_grid(0.0, 4.0, 0.05)
    calls = _simpson_calls(monkeypatch)
    pair = hyp_grid(TrigFamily.BOHNER_PETERSON, W, coeff, 0.0, grid, TOL)
    assert calls == []
    monkeypatch.undo()
    plain = graininess_coefficient(W, lambda mu, s: 0.4 + mu)
    want = hyp_grid(TrigFamily.BOHNER_PETERSON, W, plain, 0.0, grid, TOL)
    for got, simpson in zip(pair.c_values + pair.s_values, want.c_values + want.s_values):
        assert _close(got, simpson, 1e-14)


# -- the run walk against one record per step --------------------------------------


_FAR = union(interval(1e4, 10000.5), isolated(10001.0), interval(10001.5, 10002.5))
_RUN_SCALES = st.sampled_from(
    [W, union(interval(0.0, 2.0), isolated(2.3, 2.6), interval(3.0, 5.0)), _FAR]
) | st.integers(0, 2**32 - 1).map(lambda s: random_mixed(np.random.default_rng(s)))


def _raises_inside(t):
    if 0.3 < t % 1.0 < 0.35:
        raise ValueError(f"no coefficient at t={t!r}")
    return 0.4 - 0.2j


def _overflowing_then_raising(ts):
    # a dense step factor overflows before a later step's coefficient raises
    return Coefficient.from_function(lambda t: 1e5 * _raises_inside(t))


# coefficient builders, given the scale
_RUN_COEFFS = st.sampled_from(
    [
        lambda ts: 0.6 - 0.4j,
        lambda ts: -2.0,  # 1 + mu*alpha = 0 at a gap of 0.5
        lambda ts: 4.0,  # mu*alpha = 2 there
        lambda ts: 1e308,
        lambda ts: 1e308j,
        lambda ts: math.nan,
        lambda ts: _REFINING,  # first Simpson steps refine near 1e4
        lambda ts: COEFFS["varying"],
        lambda ts: Coefficient.from_function(_raises_inside),
        _overflowing_then_raising,
        lambda ts: Coefficient.piecewise([0.7, 3.5], [0.5, -1.0 + 0.5j, 0.25]),
        lambda ts: Coefficient.tabulated(
            [e for c in ts.components for e in (c.left, c.right)], [0.5] * 2 * len(ts.components)
        ),
        # a constant dense view on a function coefficient, finite or not
        lambda ts: graininess_coefficient(ts, lambda mu, s: 0.3 + mu, 0.3),
        lambda ts: graininess_coefficient(ts, lambda mu, s: 0.3 + mu, math.nan),
        lambda ts: graininess_coefficient(ts, lambda mu, s: 0.3 + mu, 1e308),
        # step values by gap, and one that degenerates at a gap of 0.5
        lambda ts: _graininess_only(graininess_coefficient(ts, lambda mu, s: 0.3 + mu, 0.3)),
        lambda ts: _graininess_only(graininess_coefficient(ts, lambda mu, s: -4.0 * mu, 0.0)),
    ]
)


@st.composite
def _run_grids(draw):
    """A scale and a grid of it: a slice of its make_grid grid, whole or
    starting and ending anywhere, with points nudged within 1e-12 of
    interval ends, points dropped (a step then crosses a gap or a
    component, or skips a jump), and an anchor on the grid, often inside a
    run, or off it."""
    ts = draw(_RUN_SCALES)
    pts = ts.make_grid(ts.inf, ts.sup, draw(st.sampled_from([0.05, 0.125, 0.3]))).points
    whole = st.just([0, len(pts) - 1])
    i, j = sorted(draw(whole | st.lists(st.integers(0, len(pts) - 1), min_size=2, max_size=2)))
    pts = list(pts[i : j + 1])
    ends = {e for c in ts.components if isinstance(c, ClosedInterval) for e in (c.lo, c.hi)}
    for k in draw(st.lists(st.integers(0, len(pts) - 1), max_size=4)):
        if pts[k] in ends:
            pts[k] += draw(st.sampled_from([-1e-12, -4e-13, 4e-13, 1e-12]))
    for k in draw(st.lists(st.integers(0, len(pts) - 1), max_size=3)):
        if len(pts) > 1 and k < len(pts):
            del pts[k]
    pts = sorted(set(pts))
    t0 = draw(st.sampled_from(pts) | probe_points(ts))
    return ts, Grid(tuple(pts), 0.1), t0


@settings(max_examples=300, deadline=None)
@given(_run_grids(), _RUN_COEFFS, st.sampled_from([1e-12, 1e-8, math.nan]))
@example((W, W.make_grid(0.0, 4.0, 0.125), 0.0), _overflowing_then_raising, 1e-12)
def test_run_walk_matches_one_record_per_step(scale_grid, make_coeff, tol):
    """The grid exponent, the grid exponential and the three solvers equal,
    bit for bit and errors included, the code that took one walk record
    (reference_walk) and one helpers.step_integral per step."""
    ts, grid, t0 = scale_grid
    alpha = make_coeff(ts)
    if not (isinstance(alpha, complex | float) and cmath.isnan(alpha)):
        coeff = as_coefficient(alpha)
        for family in EXP_FAMILIES.values():
            args = (family, ts, coeff, t0, grid, tol)
            want = outcome(lambda: tuple(reference_grid_log_integrals(*args)))
            assert outcome(lambda: tuple(_grid_log_integrals(*args))) == want
            want = outcome(lambda: _reference_grid_values(*args))
            assert outcome(lambda: exp_evaluate_grid(*args).values) == want
    for scheme, _ in SOLVER_PAIRS.values():
        args = (scheme, ts, alpha, 1.0 - 0.5j, t0, grid, tol)
        want = outcome(lambda: reference_solve(*args).values)
        assert outcome(lambda: solve_first_order(*args).values) == want


def test_a_graininess_only_step_off_its_located_point_reads_the_walks_mu():
    """A grid point 4e-13 below an interval's right end is located there:
    its step to the next point is h = 0.5000000000004 wide, but the
    coefficient is read at the walk's mu = 0.5. An earlier stretch has a
    gap of exactly h, so a gap memo keyed by h alone would hand this step
    the value read at h. Marked as a function of the gap, the coefficient
    gives the values, in hex, of the same coefficient read at every step,
    from either end."""
    p = 1.0 - 4e-13
    h = 1.5 - p
    ts = union(isolated(0.0, h), interval(0.75, 1.0), isolated(1.5))
    grid = Grid((0.0, h, 0.75, 0.875, p, 1.5), 0.125)
    *_, step, _ = ts.walk_runs(grid.points)
    assert step[:4] == (p, 1.5, 1.5, 0.5) and h != 0.5
    plain = lambda: graininess_coefficient(ts, lambda mu, s: 0.3 + mu, 0.3)
    hexes = lambda values: [(v.real.hex(), v.imag.hex()) for v in values]
    for t0 in (0.0, 1.5):
        for family in EXP_FAMILIES.values():
            if family is ExpFamily.NABLA_CONST:
                continue
            run = lambda c: hexes(exp_evaluate_grid(family, ts, c, t0, grid).values)
            assert run(_graininess_only(plain())) == run(plain())
        for scheme, _ in SOLVER_PAIRS.values():
            run = lambda c: hexes(solve_first_order(scheme, ts, c, 1.0, t0, grid).values)
            assert run(_graininess_only(plain())) == run(plain())


@settings(max_examples=300, deadline=None)
@given(
    st.one_of(tight_scales(), tight_scales(intervals_only=True), any_scale()).flatmap(
        lambda ts: walk_points(ts).map(lambda points: (ts, points))
    )
    | _run_grids().map(lambda scale_grid: (scale_grid[0], scale_grid[1].points))
)
def test_only_a_run_has_spans(scale_points):
    """Every item of walk_runs outside a run has no span, on probe, nudged,
    crowded and dropped points, and walk is the walk that locates every
    point."""
    ts, points = scale_points
    try:
        for item in ts.walk_runs(points):
            assert isinstance(item, (Run, Stretch)) or item[4] is None
    except DomainError:
        pass
    assert walk_outcome(ts.walk, points) == walk_outcome(reference_walk, ts, points)


def test_a_point_just_below_an_interval_starts_its_run():
    ts = union(interval(0.0, 1.0), isolated(1.5))
    points = (-5e-13, 0.5, 1.0, 1.5)
    assert list(ts.walk_runs(points)) == [
        Run(0, [0.0, 0.5, 1.0]),
        (1.0, 1.5, 1.5, 0.5, None, 1.0),
        (1.5, None, 1.5, None, None, 1.5),
    ]
    assert list(ts.walk(points))[0] == (-5e-13, 0.5, 0.0, 0.0, (0.0, 0.5), 0.0)


def _reference_grid_values(family, ts, coeff, t0, grid, tol):
    with mock.patch.object(exponential, "_validated_logs", reference_validated_logs):
        return exp_evaluate_grid(family, ts, coeff, t0, grid, tol).values


def test_constant_solve_evaluates_the_coefficient_per_scattered_step(monkeypatch):
    """A constant coefficient is evaluated for the factor of each scattered
    step (each distinct gap), and neither by the checks, which read its
    value once, nor at any dense point."""
    ts = union(interval(0.0, 2.0), isolated(2.3, 2.6), interval(3.0, 5.0))
    grid = ts.make_grid(0.0, 5.0, 1e-3)
    scattered = [r[0] for r in ts.walk(grid.points) if r[1] is not None and r[4] is None]
    assert scattered == [2.0, 2.3, 2.6] and len(grid) == 4004
    calls = []
    call = Coefficient.__call__
    monkeypatch.setattr(Coefficient, "__call__", lambda self, t: calls.append(t) or call(self, t))
    solve_first_order(Scheme.TRAPEZOIDAL_CAYLEY, ts, 0.6 - 0.4j, 1.0, 1.0, grid, TOL)
    assert calls == scattered


def test_function_grid_checks_evaluate_no_dense_run_point(monkeypatch):
    """Neither the grid exponential's walk nor the solver's checks a
    function coefficient at a point of a dense run, where a step of
    graininess zero cannot degenerate: on the 4,004-point hybrid grid each
    evaluates it at the 3 scattered steps alone, and the steps take those
    values again."""
    ts = union(interval(0.0, 2.0), isolated(2.3, 2.6), interval(3.0, 5.0))
    grid = ts.make_grid(0.0, 5.0, 1e-3)
    scattered = [r[0] for r in ts.walk(grid.points) if r[1] is not None and r[4] is None]
    assert scattered == [2.0, 2.3, 2.6] and len(grid) == 4004
    coeff = Coefficient.from_function(lambda t: 0.6 - 0.4j + 0.3 * math.sin(3.0 * t))
    runs = [lambda f=f: exp_evaluate_grid(f, ts, coeff, 1.0, grid) for f in GRID_FAMILIES.values()]
    runs += [
        lambda s=s: solve_first_order(s, ts, coeff, 1.0, 1.0, grid)
        for s in (Scheme.TRAPEZOIDAL_CAYLEY, Scheme.EXPLICIT_DELTA)
    ]
    calls = []
    call = Coefficient.__call__
    monkeypatch.setattr(Coefficient, "__call__", lambda self, t: calls.append(t) or call(self, t))
    for run in runs:
        calls.clear()
        run()
        assert calls == scattered


def test_a_step_from_the_left_scattered_maximum_is_a_zero_step():
    """A grid point within the membership tolerance above the
    left-scattered maximum is located at it: the step to it has no
    graininess (mu None), is checked by no rule, and multiplies by one
    in every scheme and exponential."""
    ts, grid = isolated(0.0, 1.0), Grid((0.0, 1.0, 1.0 + 4e-13), 0.1)
    got = {s: solve_first_order(s, ts, 0.5, 1.0, 0.0, grid).values for s in Scheme}
    assert got[Scheme.TRAPEZOIDAL_CAYLEY] == (1, 1.6666666666666667, 1.6666666666666667)
    assert got[Scheme.EXPLICIT_DELTA] == (1, 1.5, 1.5)
    for scheme, family in SOLVER_PAIRS.values():
        want = outcome(lambda: reference_solve(scheme, ts, 0.5, 1.0, 0.0, grid).values)
        assert outcome(lambda: got[scheme]) == want
        values = exp_evaluate_grid(family, ts, 0.5, 0.0, grid).values
        assert values == got[scheme]
        want = outcome(lambda: _reference_grid_values(family, ts, 0.5, 0.0, grid, TOL))
        assert outcome(lambda: values) == want


def test_constant_grid_checks_read_the_coefficient_once(monkeypatch):
    """The grid checks read a constant coefficient's value once, not at
    every scattered step: on uniform(0, 1e-3, 1000) a grid exponential and
    a solve evaluate it once per distinct gap (9), for the step logs or
    factors, where the checks made it 1,008 calls each."""
    ts = uniform(0.0, 1e-3, 1000)
    grid = ts.make_grid(ts.inf, ts.sup, 1e-3)
    pts = grid.points
    gaps = set(map(float.__sub__, pts[1:], pts[:-1]))
    assert len(gaps) == 9
    calls = []
    call = Coefficient.__call__
    monkeypatch.setattr(Coefficient, "__call__", lambda self, t: calls.append(t) or call(self, t))
    alpha = Coefficient.constant(0.5 - 0.2j)
    runs = [lambda f=f: exp_evaluate_grid(f, ts, alpha, 0.0, grid) for f in GRID_FAMILIES.values()]
    runs += [
        lambda s=s: solve_first_order(s, ts, alpha, 1.0, 0.0, grid)
        for s in (Scheme.TRAPEZOIDAL_CAYLEY, Scheme.EXPLICIT_DELTA)
    ]
    for run in runs:
        calls.clear()
        run()
        assert len(calls) == len(gaps)


@pytest.mark.parametrize(
    "family, scheme, alpha, message",
    [
        (ExpFamily.HILGER_DELTA, Scheme.EXPLICIT_DELTA, -4.0, "1 + mu*{} = 0j at t=0.2"),
        (
            ExpFamily.CAYLEY,
            Scheme.TRAPEZOIDAL_CAYLEY,
            8.0,
            "mu*{} = (2+0j) at t=0.2 is within margin of ±2",
        ),
    ],
)
def test_constant_grid_checks_report_the_first_degenerate_step(family, scheme, alpha, message):
    """Read once, a constant coefficient still fails its check at the
    first degenerate gap in order (0.2 to 0.45; 0.5 to 0.75 is the next),
    on the grid exponential and the solve of its family alike."""
    ts = isolated(0.0, 0.1, 0.2, 0.45, 0.5, 0.75, 0.8)
    grid = ts.make_grid(ts.inf, ts.sup, 0.1)
    name = _SCHEME_RULES[scheme][1]  # the explicit scheme's coefficient is beta
    for t0 in (0.0, 0.8):
        got = outcome(lambda: exp_evaluate_grid(family, ts, alpha, t0, grid))
        assert got == ("RegressivityError", message.format("alpha"), 0.2)
        got = outcome(lambda: solve_first_order(scheme, ts, alpha, 1.0, t0, grid))
        assert got == ("RegressivityError", message.format(name), 0.2)


def test_function_solve_evaluates_the_coefficient_once_per_scattered_step(monkeypatch):
    """The step factors take the values the regressivity checks read."""
    ts = uniform(0.0, 0.1, 50)
    grid = ts.make_grid(ts.inf, ts.sup, 0.1)
    coeff = Coefficient.from_function(lambda t: 0.6 - 0.4j + 0.3 * math.sin(3.0 * t))
    want = outcome(lambda: reference_solve(Scheme.TRAPEZOIDAL_CAYLEY, ts, coeff, 1.0, 2.5, grid).values)
    calls = []
    call = Coefficient.__call__
    monkeypatch.setattr(Coefficient, "__call__", lambda self, t: calls.append(t) or call(self, t))
    got = outcome(lambda: solve_first_order(Scheme.TRAPEZOIDAL_CAYLEY, ts, coeff, 1.0, 2.5, grid).values)
    assert calls == list(grid.points[:-1]) and len(calls) == 49
    assert got == want


def test_function_grid_exponent_evaluates_the_coefficient_once_per_scattered_step(monkeypatch):
    """The grid step logs take the values the regressivity checks read."""
    ts = uniform(0.0, 0.1, 50)
    grid = ts.make_grid(ts.inf, ts.sup, 0.1)
    coeff = Coefficient.from_function(lambda t: 0.6 - 0.4j + 0.3 * math.sin(3.0 * t))
    for family in GRID_FAMILIES.values():
        args = (family, ts, coeff, 2.5, grid, TOL)
        want = outcome(lambda: tuple(reference_grid_log_integrals(*args)))
        calls = []
        call = Coefficient.__call__
        monkeypatch.setattr(
            Coefficient, "__call__", lambda self, t: calls.append(t) or call(self, t)
        )
        got = outcome(lambda: tuple(exponential._validated_logs(*args)))
        monkeypatch.undo()
        assert calls == list(grid.points[:-1]) and len(calls) == 49
        assert got == want


def test_a_grid_point_takes_a_checked_value_only_if_it_is_the_checked_float():
    """The step logs take the value a check read at a scattered point only
    at a grid point that is that very float: -0.0 on the grid is not the
    scale's 0.0, nor is a point within the membership tolerance of 0.25,
    nor a point past an interval's end 1.0 within the membership
    tolerance, and each evaluates the coefficient on its own."""
    coeff = Coefficient.from_function(
        lambda t: 0.5 - 0.2j * t if math.copysign(1.0, t) > 0 else -0.25j
    )
    for ts, grid, t0 in [
        (isolated(0.0, 0.25, 0.5), Grid((-0.0, 0.25 + 5e-13, 0.5), 0.1), 0.5),
        # 1.000000000001 is located unsnapped, past the end 1.0 it jumps from
        (W, Grid((0.0, 0.5, 1.000000000001, 1.5, 2.25, 3.0, 4.0), 0.5), 0.0),
    ]:
        for family in GRID_FAMILIES.values():
            args = (family, ts, coeff, t0, grid, TOL)
            want = outcome(lambda: tuple(reference_grid_log_integrals(*args)))
            assert outcome(lambda: tuple(exponential._validated_logs(*args))) == want


def test_bohner_peterson_report_takes_mu_from_the_walk(monkeypatch):
    """The graininess coefficient of the Bohner-Peterson reference takes
    each step's graininess from the walk (Coefficient.at_step) and locates
    no point of its own: the report on 1,000 points makes at most 10
    lookups, where locating the point at each evaluation made 1,005 (once
    per scattered step), and 2,010 when validation and step logs
    evaluated it apart."""
    located = []
    locate = TimeScale._locate
    monkeypatch.setattr(
        TimeScale, "_locate", lambda self, t: located.append(t) or locate(self, t)
    )
    argv = ["identity", "--scale", "uniform(0,1e-3,1000)", "--identity", "pythagorean",
            "--family", "bp"]
    assert cli.main(argv) == 0
    assert len(located) <= 10


def test_step_memos_past_their_size_keep_every_value():
    """A constant coefficient's logs and factors on a grid with more
    distinct gaps than the memos keep, each gap recurring, equal the code
    that takes one per step."""
    gaps = [0.01 + 1e-4 * k for k in range(100)] * 3
    pts = [0.0]
    for g in gaps:
        pts.append(pts[-1] + g)
    ts = isolated(*pts)
    grid = ts.make_grid(ts.inf, ts.sup, 0.1)
    coeff = Coefficient.constant(0.6 - 0.4j)
    for family in EXP_FAMILIES.values():
        args = (family, ts, coeff, pts[150], grid, TOL)
        want = outcome(lambda: _reference_grid_values(*args))
        assert outcome(lambda: exp_evaluate_grid(*args).values) == want
    for scheme, _ in SOLVER_PAIRS.values():
        args = (scheme, ts, coeff, 1.0, pts[150], grid, TOL)
        want = outcome(lambda: reference_solve(*args).values)
        assert outcome(lambda: solve_first_order(*args).values) == want


# -- one walk per solve ---------------------------------------------------------------


def test_solver_walks_the_grid_once(monkeypatch):
    walks = []
    walk = TimeScale.walk_runs
    monkeypatch.setattr(
        TimeScale, "walk_runs", lambda self, pts: walks.append(pts) or walk(self, pts)
    )
    points, t0 = GRIDS["make-grid-mid-anchor"]
    solve_first_order(Scheme.TRAPEZOIDAL_CAYLEY, W, COEFFS["varying"], 1.0, t0, Grid(points, 0.2))
    assert walks == [points]


@pytest.mark.parametrize(
    "scheme, ts, alpha, points, t0, error",
    [
        # a non-member right after a non-regressive point: the walk locates
        # the next point before the point's own check
        (Scheme.EXPLICIT_DELTA, uniform(0.0, 0.5, 10), -2.0, (0.0, 0.25, 0.5), 0.0,
         (DomainError, "t=0.25 is not a member of the time scale")),
        (Scheme.EXPLICIT_DELTA, uniform(0.0, 0.5, 10), -2.0, (0.0, 0.5, 0.75), 0.0,
         (RegressivityError, "1 + mu*beta = 0j at t=0.0")),
        # validation ends before any step factor: a skipped jump before a
        # non-regressive point is not reported
        (Scheme.TRAPEZOIDAL_CAYLEY, uniform(0.0, 1.0, 5),
         Coefficient.piecewise([2.5], [0.5, -2.0]), (0.0, 1.0, 3.0, 4.0), 4.0,
         (RegressivityError, "mu*alpha = (-2+0j) at t=3.0 is within margin of ±2")),
        (Scheme.TRAPEZOIDAL_CAYLEY, uniform(0.0, 1.0, 5), 0.5, (0.0, 1.0, 3.0, 4.0), 2.0,
         (GridError, "t0=2.0 must be a grid point")),
        (Scheme.TRAPEZOIDAL_CAYLEY, uniform(0.0, 1.0, 5), 0.5, (0.0, 1.0, 3.0, 4.0), 3.0,
         (GridError, "grid skips the forward jump of 1.0: next sample 3.0, jump 2.0")),
    ],
)
def test_solver_first_error_with_one_walk(scheme, ts, alpha, points, t0, error):
    with pytest.raises(error[0]) as err:
        solve_first_order(scheme, ts, alpha, 1.0, t0, Grid(points, 1.0))
    assert str(err.value) == error[1]


# -- a stretch of scattered steps as one walk item ------------------------------------


def test_a_stretch_is_one_walk_item():
    """The steps between isolated points that each land on their jump are
    one Stretch, the component ends its steps leave; the record of its
    last point follows it, as a run's does."""
    ts = uniform(0.0, 0.25, 6)
    points = ts.make_grid(0.0, 1.25, 0.1).points
    assert list(ts.walk_runs(points)) == [
        Stretch(0, 0, 5, [0.25, 0.25, 0.25, 0.25, 0.25]),
        (1.25, None, 1.25, None, None, 1.25),
    ]
    assert list(ts.walk(points)) == list(reference_walk(ts, points))
    points = W.make_grid(0.0, 4.0, 0.5).points
    assert list(W.walk_runs(points)) == [
        Run(0, [0.0, 0.5, 1.0]),
        (1.0, 1.5, 1.5, 0.5, None, 1.0),  # an interval's end leaves no stretch
        Stretch(3, 1, 3, [0.75, 0.75]),  # 1.5 -> 2.25 -> 3.0, landing on the interval
        Run(5, [3.0, 3.5, 4.0]),
        (4.0, None, 4.0, 0.0, None, 4.0),
    ]
    assert list(W.walk(points)) == list(reference_walk(W, points))


def test_a_degenerate_gap_deep_in_a_stretch_raises_at_its_first_point():
    """A gap that degenerates only past the first slices the stretch is
    compared in raises at its first point, with the message of a check a
    step at a time, forward and back from the anchor."""
    values = [0.0]
    for gap in [0.25] * 40 + [0.5] + [0.25] * 10 + [0.5] + [0.25] * 3:
        values.append(values[-1] + gap)
    ts = isolated(*values)
    grid = ts.make_grid(ts.inf, ts.sup, 0.1)
    for t0 in (0.0, ts.sup):
        with pytest.raises(RegressivityError) as err:
            exp_evaluate_grid(ExpFamily.HILGER_DELTA, ts, -2.0, t0, grid)
        assert str(err.value) == "1 + mu*alpha = 0j at t=10.0" and err.value.t == 10.0
        with pytest.raises(RegressivityError) as err:
            solve_first_order(Scheme.EXPLICIT_DELTA, ts, -2.0, 1.0, t0, grid)
        assert str(err.value) == "1 + mu*beta = 0j at t=10.0"
    coeff = Coefficient.constant(-2.0)
    want = outcome(reference_checked_walk, _STEP_RULES[ExpFamily.HILGER_DELTA], "alpha", ts, coeff, grid.points)
    got = outcome(_validate_regressive, _STEP_RULES[ExpFamily.HILGER_DELTA], "alpha", ts, coeff, grid.points)
    assert got == want == ("RegressivityError", "1 + mu*alpha = 0j at t=10.0", 10.0)


def test_a_stretch_reads_no_coefficient_past_its_first_degenerate_step(monkeypatch):
    """A coefficient that is not constant is read along a stretch up to the
    first step that degenerates, and no further, as a check a step at a
    time reads it."""
    ts = uniform(0.0, 0.25, 40)
    grid = ts.make_grid(ts.inf, ts.sup, 0.1)
    coeff = Coefficient.from_function(lambda t: -4.0 if t == 5.0 else 0.5)
    calls = []
    call = Coefficient.__call__
    monkeypatch.setattr(Coefficient, "__call__", lambda self, t: calls.append(t) or call(self, t))
    with pytest.raises(RegressivityError, match=r"^1 \+ mu\*alpha = 0j at t=5.0$"):
        exp_evaluate_grid(ExpFamily.HILGER_DELTA, ts, coeff, 0.0, grid)
    assert calls == list(grid.points[:21])


@st.composite
def _stretch_scales(draw):
    """Point scales whose gaps repeat (a uniform scale, or a few gap values
    in any order), some with a gap of 0.5 that degenerates at alpha -2
    or 4, often deep in a stretch, and some meeting an interval before,
    after or between their points."""
    n = draw(st.integers(2, 60))
    start = draw(st.sampled_from([0.0, -3.0, 0.1, 1e4]))
    if draw(st.booleans()):
        values = [p.t for p in uniform(start, draw(st.sampled_from([0.25, 0.1, 1e-3])), n).components]
    else:
        values = [start]
        for gap in draw(st.lists(st.sampled_from([0.25, 0.3, 0.125, 1.0]), min_size=n - 1, max_size=n - 1)):
            values.append(values[-1] + gap)
    if draw(st.booleans()):
        k = draw(st.integers(0, n - 2))
        values = values[: k + 1] + [v - values[k + 1] + values[k] + 0.5 for v in values[k + 1 :]]
    comps = [IsolatedPoint(v) for v in values]
    where = draw(st.sampled_from(["none", "before", "after", "between"]))
    if where == "before":
        comps.insert(0, ClosedInterval(values[0] - 1.0, values[0] - 0.5))
    elif where == "after":
        comps.append(ClosedInterval(values[-1] + 0.5, values[-1] + 1.0))
    elif where == "between" and n > 2:
        k = draw(st.integers(0, n - 2))
        comps = comps[: k + 1] + [ClosedInterval(values[k] + 0.25, values[k] + 0.75)] + [
            IsolatedPoint(v + 1.0) for v in values[k + 1 :]
        ]
    return TimeScale(tuple(comps))


@st.composite
def _stretch_grids(draw):
    """A stretch scale and a grid of it: its make_grid grid, whole or a
    slice, with points dropped (a step then skips its jump, or lands past
    a component), points nudged within the tolerance of their member (a
    point then is not its located value), and an anchor on the grid or
    off it."""
    ts = draw(_stretch_scales())
    pts = list(ts.make_grid(ts.inf, ts.sup, 0.2).points)
    if draw(st.booleans()):
        i, j = sorted(draw(st.lists(st.integers(0, len(pts) - 1), min_size=2, max_size=2)))
        pts = pts[i : j + 1]
    for k in draw(st.lists(st.integers(0, len(pts) - 1), max_size=3)):
        if len(pts) > 1 and k < len(pts):
            del pts[k]
    for k in draw(st.lists(st.integers(0, len(pts) - 1), max_size=2)):
        pts[k] += draw(st.sampled_from([-4e-13, 4e-13]))
    pts = sorted(set(pts))
    t0 = draw(st.sampled_from(pts) | probe_points(ts))
    return ts, Grid(tuple(pts), 0.2), t0


def _reads(rule, name, ts, coeff, points):
    """The coefficient values _validate_regressive read, by grid point, in
    order (None for a coefficient whose step value is a function of the
    gap, a constant's among them)."""
    read = _validate_regressive(rule, name, ts, coeff, points)[1]
    return None if read is None else tuple(sorted(read.items()))


def _reference_reads(rule, name, ts, coeff, points):
    """_reads of reference_checked_walk, which reads the coefficient at each
    scattered step it checks."""
    records = reference_checked_walk(rule, name, ts, coeff, points)
    if coeff._gap_only:
        return None
    return tuple((p, coeff(p)) for p, q, s, _, _, tt in records if q is not None and s > tt)


@settings(max_examples=300, deadline=None)
@given(_stretch_grids(), _RUN_COEFFS)
@example((uniform(0.0, 0.5, 30), Grid(tuple(0.5 * k for k in range(30)), 0.2), 14.5), lambda ts: -2.0)
def test_stretch_walk_matches_one_record_per_step(scale_grid, make_coeff):
    """On scales of isolated points, alone or meeting an interval, the walk,
    the checked walk (its first error and the coefficient values it
    read), the grid exponent and exponential of every family, the three
    solvers and the jumps table equal, bit for bit and errors included,
    the code that took one walk record (reference_walk) per step."""
    ts, grid, t0 = scale_grid
    pts = grid.points
    assert walk_outcome(ts.walk, pts) == walk_outcome(reference_walk, ts, pts)
    alpha = make_coeff(ts)
    if not (isinstance(alpha, complex | float) and cmath.isnan(alpha)):
        coeff = as_coefficient(alpha)
        for rule, name in _SCHEME_RULES.values():
            want = outcome(_reference_reads, rule, name, ts, coeff, pts)
            assert outcome(_reads, rule, name, ts, coeff, pts) == want
        for family in EXP_FAMILIES.values():
            args = (family, ts, coeff, t0, grid, TOL)
            want = outcome(lambda: tuple(reference_grid_log_integrals(*args)))
            assert outcome(lambda: tuple(_grid_log_integrals(*args))) == want
            want = outcome(lambda: _reference_grid_values(*args))
            assert outcome(lambda: exp_evaluate_grid(*args).values) == want
    for scheme, _ in SOLVER_PAIRS.values():
        args = (scheme, ts, alpha, 1.0 - 0.5j, t0, grid, TOL)
        want = outcome(lambda: reference_solve(*args).values)
        assert outcome(lambda: solve_first_order(*args).values) == want
    try:
        records = list(reference_walk(ts, pts))
    except DomainError:
        return
    jumps = _Jumps(ts, pts, grid)
    assert outcome(lambda: tuple(jumps.sigma)) == outcome(lambda: tuple(r[2] for r in records))
    assert outcome(lambda: tuple(jumps.mu)) == outcome(lambda: tuple(r[3] for r in records))
    assert outcome(lambda: tuple(jumps.located)) == outcome(lambda: tuple(r[5] for r in records))
    assert jumps._spanned == [False] + [r[4] is not None for r in records]
    assert jumps.next == [None if r[2] is None else grid.index_of(r[2]) for r in records]
    whole = ts.make_grid(ts.inf, ts.sup, 0.2)  # a grid the points are not
    assert _Jumps(ts, pts, whole).next == [None if r[2] is None else whole.index_of(r[2]) for r in records]


def _searched_next(jumps):
    """_Jumps.next as one search per point: a stretch's given index, else
    own's where the jump is the point itself, else Grid.index_of."""
    col = []
    for k, (given, s) in enumerate(zip(jumps._next, jumps.sigma)):
        if given >= 0:
            col.append(given)
        elif s is None:
            col.append(None)
        else:
            col.append(jumps.own[k] if s == jumps.points[k] else jumps.grid.index_of(s))
    return col


@pytest.mark.parametrize(
    "ts, step, unaligned",
    [
        (interval(0.0, 1.0), 1e-4, False),
        (union(interval(0.0, 1.0), isolated(1.5, 2.0, 2.5), interval(3.0, 4.0)), 0.01, False),
        (union(interval(0.0, 1.0), isolated(1.5, 2.0, 2.5), interval(3.0, 4.0)), 0.01, True),
    ],
)
def test_the_jump_column_equals_a_search_at_each_point(ts, step, unaligned):
    """next takes a run's points' indices from at: the column is the one a
    search at every point gives, on a dense grid, a mixed grid, and points
    that are not the grid's own (nudged within the tolerance, with a
    non-member)."""
    grid = ts.make_grid(ts.inf, ts.sup, step)
    pts = grid.points
    if unaligned:
        pts = tuple(p + 5e-13 if k % 3 else p for k, p in enumerate(pts)) + (ts.sup + 1.0,)
    jumps = _Jumps(ts, pts, grid)
    assert jumps.next == _searched_next(jumps)
    assert None in jumps.sigma if unaligned else jumps.next[:3] == [0, 1, 2]
