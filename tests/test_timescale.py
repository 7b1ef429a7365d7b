import dataclasses
import math
import pickle
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tscale import (
    ClosedInterval,
    DomainError,
    Grid,
    IsolatedPoint,
    KappaError,
    OverlapError,
    ParseError,
    TimeScale,
    delta_derivative_numeric,
    exp_cayley,
    exp_hilger,
    interval,
    isolated,
    parse_scale,
    render,
    uniform,
    union,
)
from tscale import cli, timescale
from tscale.timescale import (
    MEMBERSHIP_TOL,
    _points,
    _uniform_scale,
    _uniform_values,
    _valid_points,
    normalize_components,
)

from helpers import (
    any_scale,
    linear_delta_integral,
    linear_dense_segments,
    linear_locate,
    linear_make_grid,
    linear_scattered_points,
    outcome,
    probe_points,
    random_discrete,
    reference_classify,
    reference_in_kappa,
    reference_mu,
    reference_normalize_components,
    reference_rho,
    reference_scale_state,
    relocates,
    scale_state,
    walk_records,
)

MIXED = union(interval(0.0, 1.0), isolated(2.0))


# -- jump operators ---------------------------------------------------------


@pytest.mark.parametrize(
    "ts, t, expected",
    [
        (interval(0, 1), 0.5, 0.5),
        (uniform(0, 1, 4), 2.0, 3.0),
        (MIXED, 1.0, 2.0),
        (MIXED, 2.0, 2.0),  # supremum convention
    ],
)
def test_sigma(ts, t, expected):
    assert ts.sigma(t) == expected


@pytest.mark.parametrize(
    "ts, t, expected",
    [
        (interval(0, 1), 0.5, 0.5),
        (MIXED, 2.0, 1.0),
        (uniform(0, 1, 3), 0.0, 0.0),  # infimum convention
    ],
)
def test_rho(ts, t, expected):
    assert ts.rho(t) == expected


@pytest.mark.parametrize(
    "ts, t, expected",
    [
        (interval(0, 1), 0.3, 0.0),
        (uniform(0, 0.5, 3), 0.0, 0.5),
        (union(interval(0, 1), isolated(2.5)), 1.0, 1.5),
    ],
)
def test_mu(ts, t, expected):
    assert ts.mu(t) == expected


def test_mu_rejects_left_scattered_maximum():
    with pytest.raises(KappaError):
        MIXED.mu(2.0)


def test_domain_error_for_non_members():
    with pytest.raises(DomainError):
        MIXED.sigma(1.5)
    with pytest.raises(DomainError):
        MIXED.mu(3.0)
    assert 1.5 not in MIXED
    assert 0.5 in MIXED


@pytest.mark.parametrize(
    "ts, t, right_dense, left_dense",
    [
        (interval(0, 1), 0.5, True, True),
        (uniform(0, 1, 2), 0.0, False, True),  # minimum is left-dense by convention
        (MIXED, 1.0, False, True),
        (MIXED, 2.0, True, False),
    ],
)
def test_classify(ts, t, right_dense, left_dense):
    pc = ts.classify(t)
    assert pc.right_dense is right_dense
    assert pc.left_dense is left_dense
    assert pc.right_scattered is (not right_dense)


def test_mu_zero_exactly_at_right_dense_points():
    ts = union(interval(0, 1), isolated(1.5, 2.0))
    for t in [0.0, 0.25, 1.0, 1.5]:
        if ts.classify(t).right_dense:
            assert ts.mu(t) == 0.0
        else:
            assert ts.mu(t) > 0.0


def test_sigma_rho_composition_on_isolated_points():
    ts = isolated(0.0, 0.7, 1.1, 4.0)
    for t in [0.0, 0.7, 1.1, 4.0]:
        assert ts.sigma(t) >= t
        assert ts.rho(t) <= t
        assert ts.sigma(ts.rho(ts.sigma(t))) == ts.sigma(t)


# -- construction ------------------------------------------------------------


def test_construction_rejects_overlap():
    with pytest.raises(ValueError):
        TimeScale((ClosedInterval(0, 1), ClosedInterval(0.5, 2)))


def test_construction_rejects_too_close_components():
    with pytest.raises(ValueError):
        TimeScale((IsolatedPoint(0.0), IsolatedPoint(5e-13)))


def test_construction_rejects_non_finite():
    with pytest.raises(ValueError):
        TimeScale((IsolatedPoint(math.inf),))
    with pytest.raises(ValueError):
        TimeScale((ClosedInterval(0.0, math.nan),))


def test_construction_rejects_empty_and_tiny_interval():
    for empty in (lambda: TimeScale(()), isolated, union):
        with pytest.raises(ValueError, match="needs at least one component"):
            empty()
    with pytest.raises(ValueError):
        TimeScale((ClosedInterval(0.0, 1e-13),))


class _Point(IsolatedPoint):
    """A subclass, which only the one-at-a-time checks take."""


# gaps to the component before: apart, within a few ulps of the tolerance,
# touching within it, and intersecting
_GAPS = st.sampled_from([0.25, 1.0, 2e-12, 0.0, 5e-13, 1e-12, -0.1, -1e-13]) | st.floats(
    min_value=1e-12, max_value=1.5e-12
)


@st.composite
def component_inputs(draw):
    """Component lists for construction: points only or mixed, sorted or
    shuffled, with gaps just past, at or within the tolerance, intersecting
    ones, zero-length and tiny intervals, a duplicate, a non-finite value,
    a subclass or a non-component, at magnitudes where the tolerance is
    below, near or above one ulp."""
    x = draw(st.sampled_from([0.0, -3.0, 4095.9, 1e4]) | st.floats(-1e4, 1e4))
    points_only = draw(st.booleans())
    comps = []
    for k in range(draw(st.integers(1, 8))):
        if k:
            x += draw(_GAPS)
            for _ in range(draw(st.integers(0, 2))):  # an ulp or two either way
                x = math.nextafter(x, draw(st.sampled_from([math.inf, -math.inf])))
        if points_only or draw(st.booleans()):
            comps.append(IsolatedPoint(x))
        else:
            hi = x + draw(st.sampled_from([0.0, 5e-13, 1.5e-12, 0.5]))
            comps.append(ClosedInterval(x, hi))
            x = hi
    change = draw(
        st.sampled_from(["none", "shuffle", "duplicate", "non-finite", "subclass", "other"])
    )
    k = draw(st.integers(0, len(comps) - 1))
    if change == "shuffle":
        comps = draw(st.permutations(comps))
    elif change == "duplicate":
        comps.insert(k, comps[k])
    elif change == "non-finite":
        bad = draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        comps[k] = draw(
            st.sampled_from([IsolatedPoint(bad), ClosedInterval(0.0, bad), ClosedInterval(bad, 0.0)])
        )
    elif change == "subclass":
        comps[k] = _Point(comps[k].left)
    elif change == "other":
        comps[k] = (comps[k].left, comps[k].right)
    return comps


def _state(build, comps):
    try:
        return build(comps)
    except Exception as exc:  # compared, not swallowed
        return type(exc).__name__, str(exc)


@settings(max_examples=600, deadline=None)
@given(component_inputs())
# a gap of exactly the tolerance, and gaps past an interval that pass
# b.left - hi > tol but not b.left > hi + tol
@example([IsolatedPoint(0.0), IsolatedPoint(1e-12)])
@example([ClosedInterval(0.0, 1.5e-12), IsolatedPoint(2.5000000000000003e-12)])
@example([ClosedInterval(9999.0, 1e4), IsolatedPoint(math.nextafter(1e4, math.inf))])
def test_bulk_construction_equals_the_checks_one_at_a_time(comps):
    """normalize_components and TimeScale, whose bulk tests take most
    inputs, give what the loops over every component give: the same
    components and lookup tables, or the same exception and message."""
    normal = _state(normalize_components, comps)
    assert repr(normal) == repr(_state(reference_normalize_components, comps))
    assert _state(scale_state, comps) == _state(reference_scale_state, comps)
    if isinstance(normal, tuple) and normal and isinstance(normal[0], IsolatedPoint | ClosedInterval):
        assert _state(scale_state, normal) == _state(reference_scale_state, normal)


def test_two_points_are_never_merged_into_an_interval():
    """An ulp past the tolerance, b - a > tol passes construction while
    a + tol < b fails the order test: the merge loop keeps two points, as
    construction does; at the tolerance they are one point given twice."""
    pair = (0.1, 0.10000000000100001)
    assert pair[1] - pair[0] > MEMBERSHIP_TOL and not pair[0] + MEMBERSHIP_TOL < pair[1]
    points = tuple(map(IsolatedPoint, pair))
    assert normalize_components(points[::-1]) == points
    assert union(isolated(pair[1]), isolated(pair[0])) == isolated(*pair)
    with pytest.raises(OverlapError, match="duplicate point"):
        normalize_components((IsolatedPoint(0.1), IsolatedPoint(0.1 + 5e-13)))


def test_components_already_in_order_are_kept():
    points = tuple(IsolatedPoint(0.001 * k) for k in range(1000))
    assert normalize_components(points) is points
    assert normalize_components(list(points)) == points
    unsorted = (IsolatedPoint(0.2), IsolatedPoint(0.1))
    assert normalize_components(unsorted) == unsorted[::-1]


# values where a point built in bulk could differ from one built alone: the
# signed zeros, subnormals, the ends of the float range and the ulps near 1e4
_POINT_VALUES = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1.7976931348623157e308,
     1e4, math.nextafter(1e4, math.inf), math.nextafter(1e4, 0.0), -1e4]
) | st.floats(allow_nan=False, allow_infinity=False)


def _same_point(bulk, alone):
    """The value-type contract of IsolatedPoint, compared in full."""
    assert type(bulk) is type(alone) is IsolatedPoint
    assert bulk == alone and hash(bulk) == hash(alone) and repr(bulk) == repr(alone)
    assert dataclasses.fields(bulk) == dataclasses.fields(alone)
    assert dataclasses.astuple(bulk) == dataclasses.astuple(alone)
    with pytest.raises(dataclasses.FrozenInstanceError):
        bulk.t = 1.0
    for p in (bulk, alone):
        back = pickle.loads(pickle.dumps(p))
        assert type(back) is IsolatedPoint and repr(back) == repr(alone) and back == alone


# IsolatedPoint(-0.0) at protocol 2 and IsolatedPoint(1e4) at protocol 4,
# pickled by the class before it had slots
_PICKLES_BEFORE_SLOTS = [
    (
        "800263747363616c652e74696d657363616c650a49736f6c61746564506f696e740a71002981"
        "71017d7102580100000074710347800000000000000073622e",
        -0.0,
    ),
    (
        "8004953a000000000000008c10747363616c652e74696d657363616c65948c0d49736f6c6174"
        "6564506f696e749493942981947d948c0174944740c388000000000073622e",
        1e4,
    ),
]


@pytest.mark.parametrize("data, t", _PICKLES_BEFORE_SLOTS)
def test_points_pickle_as_they_did_before_slots(data, t):
    """Both ways: a pickle written before the class had slots loads, and a
    point pickles to the very same bytes."""
    data = bytes.fromhex(data)
    assert repr(pickle.loads(data)) == repr(IsolatedPoint(t))
    assert pickle.dumps(_points([t])[0], protocol=data[1]) == data


@given(st.lists(_POINT_VALUES, max_size=12))
def test_points_built_in_bulk_are_the_points_built_one_at_a_time(values):
    pts = _points(values)
    assert len(pts) == len(values)
    for bulk, v in zip(pts, values):
        _same_point(bulk, IsolatedPoint(v))


@given(
    st.sampled_from([0.0, -0.0, 1e4, -1e4, 5e-324]) | st.floats(-1e6, 1e6),
    st.sampled_from([1e-3, 0.1, 2.0**-17]) | st.floats(1e-6, 1e3),
    st.integers(0, 50),
)
def test_uniform_points_are_start_plus_k_steps(start, step, count):
    pts = _points(_uniform_values(start, step, count))
    assert len(pts) == count
    for k, p in enumerate(pts):
        _same_point(p, IsolatedPoint(start + k * step))


def test_constructors_build_the_points_of_their_values():
    assert repr(uniform(0, 1, 3).components) == repr(
        tuple(IsolatedPoint(0 + k * 1) for k in range(3))
    )
    assert isolated(2, -0.0, 1e4).components == (
        IsolatedPoint(-0.0), IsolatedPoint(2.0), IsolatedPoint(1e4)
    )
    assert repr(isolated(-0.0).components) == "(IsolatedPoint(t=-0.0),)"


# -- scales made from values ------------------------------------------------------

# in and out of order, duplicated, within the tolerance and an ulp either side
# of it, and far from 0, where the tolerance is below an ulp
_SCALE_VALUES = st.sampled_from(
    [0.0, -0.0, 1e-12, 2e-12, 0.1, 0.10000000000100001, 0.3, 1e4, 1e4 + 2e-12, 1e8, -1.0]
) | st.floats(-1e6, 1e6)


def _parsed(make):
    """make(), with a ValueError raised as parse_scale raises it."""
    try:
        return make()
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


@st.composite
def made_from_values(draw):
    """A call that makes a scale of isolated points from values (uniform,
    isolated, parse_scale's points and uniform terms, or union), and the
    construction from point objects that it stands for."""
    kind = draw(st.sampled_from(["uniform", "isolated", "parse", "union"]))
    if kind == "uniform":
        start = draw(st.sampled_from([0.0, -0.0, 1e4, 1e8, -1e4]) | st.floats(-1e6, 1e6))
        step = draw(st.sampled_from([1e-13, 1e-12, 2e-12, 1e-3, 0.25]) | st.floats(1e-6, 1e3))
        count = draw(st.integers(1, 40))
        values = _uniform_values(start, step, count)
        return lambda: uniform(start, step, count), lambda: TimeScale(_points(values))
    chunk = st.lists(_SCALE_VALUES, min_size=1, max_size=5)
    chunks = draw(st.lists(chunk, min_size=1, max_size=3))
    if kind == "isolated":
        values = [v for chunk in chunks for v in chunk]
        return lambda: isolated(*values), lambda: TimeScale(_points(map(float, sorted(values))))
    if kind == "union":
        scales = lambda: (TimeScale(_points(map(float, sorted(c)))) for c in chunks)
        return (
            lambda: union(*(isolated(*c) for c in chunks)),
            lambda: TimeScale(normalize_components(c for ts in scales() for c in ts.components)),
        )
    terms, values = [], []
    for chunk in chunks:
        if draw(st.booleans()):
            terms.append("points(" + ",".join(map(repr, chunk)) + ")")
            values += chunk
        else:
            steps = st.sampled_from([1e-12, 2e-12, 1e-3, 0.25])
            start, step, count = chunk[0], draw(steps), len(chunk)
            terms.append(f"uniform({start!r},{step!r},{count})")
            values += _uniform_values(start, step, count)
    text = " + ".join(terms)
    return (
        lambda: parse_scale(text),
        lambda: _parsed(lambda: TimeScale(normalize_components(_points(values)))),
    )


def _answers(ts, probes):
    """Every query of ts, at each probe and each pair of probes."""
    out = [ts.inf, ts.sup, ts.constant_graininess(), ts.is_discrete(), ts._left_scattered_max]
    grid = ts.make_grid(ts.inf, ts.sup, 0.1)
    out.append(outcome(lambda: tuple(walk_records(ts, grid.points))))
    f = lambda t: complex(t, 1.0)
    for t in probes:
        for query in (ts._locate, ts.sigma, ts.rho, ts.mu, ts.classify, ts.in_kappa):
            out.append(outcome(query, t))
        out.append(t in ts)
        out.append(outcome(delta_derivative_numeric, ts, f, t))
        for u in probes:
            out += [
                outcome(ts.scattered_points, t, u),
                outcome(ts.dense_segments, t, u),
                outcome(ts.delta_integral, f, t, u),
                outcome(ts.make_grid, t, u, 0.1),
                outcome(exp_cayley, ts, complex(-0.5, 2.0), t, u),
                outcome(exp_hilger, ts, lambda s: complex(-0.5, s), t, u),
            ]
    return out


@settings(max_examples=300, deadline=None)
@given(made_from_values(), st.data())
def test_a_scale_made_from_values_answers_as_its_points(made, data):
    """uniform, isolated, parse_scale and union make the scale, or raise
    the error, that construction from point objects makes or raises, bit for
    bit. Every query answers as there without reading the components, which
    then give the same equality, hash, repr, rendering and pickle."""
    make, reference = made
    want = outcome(reference)
    if isinstance(want, tuple):  # the error
        assert outcome(make) == want
        return
    ts, want = make(), reference()
    lazy = "components" not in vars(ts)
    probes = data.draw(st.lists(probe_points(want), min_size=1, max_size=4))
    assert _answers(ts, probes) == _answers(want, probes)
    assert not lazy or "components" not in vars(ts)
    assert ts == want and hash(ts) == hash(want) and repr(ts) == repr(want)
    assert render(ts) == render(want) and parse_scale(render(ts)) == want
    assert pickle.dumps(ts) == pickle.dumps(want)
    assert repr(pickle.loads(pickle.dumps(ts))) == repr(want)


# TimeScale pickles written before a scale of points could be made from its
# values: uniform(0.0, 0.25, 3) at protocol 2, isolated(-0.0, 1e4) at
# protocol 4 and interval(0, 1) + points(2) at protocol 4
_SCALE_PICKLES = [
    (
        "800263747363616c652e74696d657363616c650a54696d655363616c650a7100298171017d710228580a"
        "000000636f6d706f6e656e7473710363747363616c652e74696d657363616c650a49736f6c6174656450"
        "6f696e740a7104298171057d7106580100000074710747000000000000000073626804298171087d7109"
        "6807473fd0000000000000736268042981710a7d710b6807473fe0000000000000736287710c58060000"
        "005f6c65667473710d470000000000000000473fd0000000000000473fe000000000000087710e580700"
        "00005f726967687473710f680e580d0000005f6c6f7765725f626f756e6473711047bd719799812dea11"
        "473fcfffffffff7343473fdfffffffffb9a2877111580a0000005f696e74657276616c73711229581300"
        "00005f6c6566745f7363617474657265645f6d617871134b0275622e",
        lambda: uniform(0.0, 0.25, 3),
    ),
    (
        "800495e8000000000000008c10747363616c652e74696d657363616c65948c0954696d655363616c6594"
        "93942981947d94288c0a636f6d706f6e656e74739468008c0d49736f6c61746564506f696e7494939429"
        "81947d948c017494478000000000000000736268072981947d94680a4740c3880000000000736286948c"
        "065f6c65667473944780000000000000004740c388000000000086948c075f72696768747394680f8c0d"
        "5f6c6f7765725f626f756e64739447bd719799812dea114740c387ffffffffff86948c0a5f696e746572"
        "76616c7394298c135f6c6566745f7363617474657265645f6d6178944b0175622e",
        lambda: isolated(-0.0, 1e4),
    ),
    (
        "80049522010000000000008c10747363616c652e74696d657363616c65948c0954696d655363616c6594"
        "93942981947d94288c0a636f6d706f6e656e74739468008c0e436c6f736564496e74657276616c949394"
        "2981947d94288c026c6f944700000000000000008c02686994473ff0000000000000756268008c0d4973"
        "6f6c61746564506f696e749493942981947d948c017494474000000000000000736286948c065f6c6566"
        "74739447000000000000000047400000000000000086948c075f72696768747394473ff0000000000000"
        "47400000000000000086948c0d5f6c6f7765725f626f756e64739447bd719799812dea11473fffffffff"
        "ffee6886948c0a5f696e74657276616c73944b0085948c135f6c6566745f7363617474657265645f6d61"
        "78944b0175622e",
        lambda: parse_scale("interval(0,1) + points(2)"),
    ),
]


@pytest.mark.parametrize("data, make", _SCALE_PICKLES, ids=["uniform", "isolated", "mixed"])
def test_scales_pickle_as_they_did_before_they_were_made_from_values(data, make):
    """Both ways: an older pickle loads equal, with the same lookup tables,
    and the scale pickles to the very same bytes."""
    data = bytes.fromhex(data)
    back, ts = pickle.loads(data), make()
    assert repr(back) == repr(ts) and back == ts and hash(back) == hash(ts)
    assert scale_state(back.components) == scale_state(ts.components)
    assert pickle.dumps(ts, protocol=data[1]) == data


# -- uniform scales valid by their step -------------------------------------------


def _scans(make):
    """The outcome of make() and the number of _valid_points calls it made."""
    with mock.patch.object(timescale, "_valid_points", wraps=_valid_points) as scan:
        got = outcome(make)
    return got, scan.call_count


@settings(max_examples=300, deadline=None)
@given(
    st.sampled_from([0.0, 1e4, -1e4, 1e8, 1e15, 1e16, 1e300, -1e300, math.nan, math.inf]),
    st.sampled_from([1e-13, 1e-12, math.nextafter(1e-12, 1.0), 2e-12, 1e-3, 1e300]),
    st.integers(1, 3000),
)
def test_a_uniform_scale_admitted_by_its_step_passes_the_scan(start, step, count):
    """Where _uniform_scale's bound admits the values with no scan, the
    scan admits them too, and the scale is the one the scan makes."""
    got, scans = _scans(lambda: _uniform_scale(start, step, count))
    if scans == 0:
        values = _uniform_values(start, step, count)
        assert _valid_points(values)
        assert got == outcome(timescale._of_values, values)


def test_uniform_scales_of_the_cli_and_converge_make_no_scan(capsys):
    """uniform, a lone uniform term and the 14 scales of a converge study on
    steps 2**-1 to 2**-14 are proven valid by their step; at 1e4 a step of
    2e-12 is not, and its points are scanned once."""
    assert _scans(lambda: uniform(0, 1e-3, 1000))[1] == 0
    assert _scans(lambda: parse_scale("uniform(0,0.001,1000)"))[1] == 0
    eps = ",".join(repr(2.0**-k) for k in range(1, 15))
    argv = ["converge", "--family", "cayley", "--alpha=-1", "--eps-list", eps]
    assert _scans(lambda: cli.main(argv)) == (0, 0)
    assert capsys.readouterr().out.count("\n") == 15
    assert _scans(lambda: uniform(1e4, 2e-12, 3))[1] == 1


@pytest.mark.parametrize("start", [0, 0.0, -0.0, 1, 1e4, -1e4, 5e-324, Fraction(0)])
@pytest.mark.parametrize("step", [1, 2, 0.5, 1e-3, 2e-12])
def test_uniform_values_are_start_plus_k_steps_with_their_types(start, step):
    """The values of uniform, int starts and steps among them, are start +
    k * step in value, sign of zero and type."""
    for count in (1, 2, 5, 40):
        want = tuple(start + k * step for k in range(count))
        got = _uniform_values(start, step, count)
        assert repr(got) == repr(want)
        assert list(map(type, got)) == list(map(type, want))
        assert repr(uniform(start, step, count)._lefts) == repr(want)


def test_uniform_checks_its_arguments_as_the_cli_term_does():
    """A NaN step is not positive, and a count is a positive integral value
    of any type (the CLI term reads it as a float)."""
    with pytest.raises(ValueError, match="step must be positive"):
        uniform(0.0, math.nan, 3)
    assert uniform(0.0, 0.5, 3.0) == uniform(0.0, 0.5, 3) == parse_scale("uniform(0,0.5,3)")
    for count in (2.5, 0.0, 0, -1, math.nan, math.inf):
        with pytest.raises(ValueError, match="count must be a positive integer"):
            uniform(0.0, 0.5, count)


# -- delta integral ------------------------------------------------------------


def test_delta_integral_discrete_sum():
    ts = uniform(0, 1, 4)
    assert ts.delta_integral(lambda s: s, 0, 3) == 3 + 0j


def test_delta_integral_interval_constant():
    ts = interval(0, 1)
    assert abs(ts.delta_integral(lambda s: 1.0, 0, 1) - 1.0) < 1e-12


def test_delta_integral_mixed_splits_jump():
    assert abs(MIXED.delta_integral(lambda s: 1.0, 0, 2) - 2.0) < 1e-12


def test_delta_integral_antisymmetric():
    val = MIXED.delta_integral(lambda s: s * s, 0, 2)
    assert MIXED.delta_integral(lambda s: s * s, 2, 0) == -val


@pytest.mark.parametrize("degree", range(6))
def test_delta_integral_polynomials_on_interval(degree):
    # analytic antiderivative oracle
    ts = interval(0.0, 1.3)
    expected = 1.3 ** (degree + 1) / (degree + 1)
    got = ts.delta_integral(lambda s, d=degree: s ** d, 0.0, 1.3, 1e-12)
    assert abs(got - expected) < 1e-12


@pytest.mark.parametrize(
    "triple", [(0.0, 0.5, 1.0), (0.0, 1.0, 2.0), (0.5, 1.0, 2.0)]
)
def test_delta_integral_additive(triple):
    t0, t1, t2 = triple
    f = lambda s: math.cos(s) + 1j * s
    tol = 1e-12
    lhs = MIXED.delta_integral(f, t0, t1, tol) + MIXED.delta_integral(f, t1, t2, tol)
    rhs = MIXED.delta_integral(f, t0, t2, tol)
    assert abs(lhs - rhs) <= 2 * tol


@pytest.mark.parametrize("seed", range(8))
def test_delta_integral_matches_naive_sum_bitwise(seed):
    rng = np.random.default_rng(seed)
    ts = random_discrete(rng)
    pts = [c.t for c in ts.components]
    vals = {p: complex(rng.standard_normal(), rng.standard_normal()) for p in pts}
    f = lambda s: vals[s]
    naive = 0j
    for a, b in zip(pts, pts[1:]):
        naive += (b - a) * f(a)
    assert ts.delta_integral(f, pts[0], pts[-1]) == naive


# -- numeric delta derivative ----------------------------------------------------


def test_delta_derivative_scattered_exact():
    ts = uniform(0, 1, 5)
    assert delta_derivative_numeric(ts, lambda t: t * t, 2.0) == 5.0


def test_delta_derivative_dense_matches_analytic():
    ts = interval(0, 1)
    got = delta_derivative_numeric(ts, lambda t: t * t, 0.5)
    assert abs(got - 1.0) < 1e-9
    got = delta_derivative_numeric(ts, math.sin, 0.25)
    assert abs(got - math.cos(0.25)) < 1e-9


def test_delta_derivative_dense_one_sided_at_endpoint():
    ts = interval(0, 1)
    got = delta_derivative_numeric(ts, lambda t: t * t, 0.0)
    assert abs(got) < 1e-7


def test_delta_derivative_mixed_boundary():
    assert delta_derivative_numeric(MIXED, lambda t: t, 1.0) == 1.0


def test_delta_derivative_kappa_error():
    with pytest.raises(KappaError):
        delta_derivative_numeric(MIXED, lambda t: t, 2.0)


# -- grids --------------------------------------------------------------------


@pytest.mark.parametrize(
    "ts, t0, t1, step, expected",
    [
        (uniform(0, 1, 3), 0, 2, 0.1, (0.0, 1.0, 2.0)),
        (interval(0, 1), 0, 1, 0.5, (0.0, 0.5, 1.0)),
        (MIXED, 0, 2, 0.5, (0.0, 0.5, 1.0, 2.0)),
    ],
)
def test_make_grid_examples(ts, t0, t1, step, expected):
    assert ts.make_grid(t0, t1, step).points == expected


def test_make_grid_deterministic_and_bounded():
    g1 = MIXED.make_grid(0, 2, 0.3)
    g2 = MIXED.make_grid(0, 2, 0.3)
    assert g1.points == g2.points
    for a, b in zip(g1.points, g1.points[1:]):
        assert b > a
        if b <= 1.0:  # inside the continuous component
            assert b - a <= 0.3 + 1e-15
    assert all(p in MIXED for p in g1.points)


def test_make_grid_rejects_reversed_range():
    with pytest.raises(DomainError):
        MIXED.make_grid(2, 0, 0.5)


@pytest.mark.parametrize("step", [math.nan, 0.0, -1.0])
def test_a_dense_step_that_is_not_positive_is_rejected(step):
    with pytest.raises(ValueError, match="dense_step must be positive"):
        interval(0, 1).make_grid(0, 1, step)
    with pytest.raises(ValueError, match="dense_step must be positive"):
        Grid((0.0, 1.0), step)


@pytest.mark.parametrize(
    "points", [(0.0, 0.5, 0.5, 1.0), (0.0, 1.0, 0.5), (0.0, math.nan, 1.0), (math.nan, 1.0)]
)
def test_grid_points_must_be_strictly_increasing(points):
    with pytest.raises(ValueError, match="grid points must be strictly increasing"):
        Grid(points, 0.5)


# -- structure queries -----------------------------------------------------------


def test_constant_graininess():
    assert uniform(0, 0.5, 5).constant_graininess() == 0.5
    assert interval(0, 2).constant_graininess() == 0.0
    assert MIXED.constant_graininess() is None
    assert isolated(0, 1, 2.5).constant_graininess() is None
    # below |t| = 2048 a gap may differ from the first by 1e-12, no more
    assert isolated(0, 0.1, 0.2 + 3e-12).constant_graininess() is None


@pytest.mark.parametrize("start", [1e4, 1e8, 1e12])
def test_constant_graininess_allows_the_rounding_of_large_t(start):
    # the points start + k*0.1 round to multiples of ulp(start), which passes
    # 1e-12 from 1e4 on; a gap off by a tenth of the step is still caught
    eps = uniform(start, 0.1, 1000).constant_graininess()
    assert eps == pytest.approx(0.1, abs=4 * math.ulp(start))
    assert isolated(start, start + 0.1, start + 0.21).constant_graininess() is None


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_membership_and_jumps_consistency(t):
    # inputs within the membership tolerance snap to the stored coordinate
    ts = union(interval(0.0, 1.0), isolated(1.5))
    assert ts.sigma(t) >= t - 1e-12
    assert ts.rho(t) <= t + 1e-12
    pc = ts.classify(t)
    assert pc.right_dense == (ts.sigma(t) <= t)


# -- locating against the linear scan ---------------------------------------------


@settings(max_examples=400, deadline=None)
@given(any_scale(), st.data())
def test_locate_matches_linear_scan(ts, data):
    for t in data.draw(st.lists(probe_points(ts), min_size=1, max_size=8)):
        assert outcome(ts._locate, t) == outcome(linear_locate, ts, t)


def _smooth(s):
    return complex(math.cos(s), 0.5 * s)


@settings(max_examples=300, deadline=None)
@given(any_scale(), st.data())
def test_range_scans_match_linear_scans(ts, data):
    """The scans from the located components find, bit for bit, what scans
    from component 0 find, with either end above the other."""
    ends = data.draw(st.lists(probe_points(ts), min_size=2, max_size=2))
    for t0, t1 in (ends, ends[::-1]):
        for indexed, linear in (
            (ts.scattered_points, linear_scattered_points),
            (ts.dense_segments, linear_dense_segments),
        ):
            assert outcome(indexed, t0, t1) == outcome(linear, ts, t0, t1)
        assert outcome(ts.delta_integral, _smooth, t0, t1) == outcome(
            linear_delta_integral, ts, _smooth, t0, t1
        )
        assert outcome(ts.make_grid, t0, t1, 0.3) == outcome(
            linear_make_grid, ts, t0, t1, 0.3
        )


def _rejected_with_a_valid_neighbour(comps):
    """Construction tests a gap as _locate does, so no component starts
    where the one below it would locate it. Checks that comps is rejected
    although the interval alone accepts the second component's value, and
    returns the scale with that component one ulp farther, which is valid."""
    a, b = comps[0], comps[1]
    assert linear_locate(TimeScale((a,)), b.left) == (0, b.left)
    with pytest.raises(ValueError, match="overlap or are closer than 1e-12"):
        TimeScale(comps)
    farther = IsolatedPoint(math.nextafter(b.left, math.inf))
    ts = TimeScale((a, farther, *comps[2:]))
    assert ts._locate(farther.t) == linear_locate(ts, farther.t) == (1, farther.t)
    assert ts.mu(a.right) == farther.t - a.right
    return ts


def test_locate_reaches_back_three_components():
    # one ulp (1.8e-12) above 1e4 exceeds the tolerance, yet the interval
    # below accepts the point, since 1e4 + 1e-12 rounds up: the scale is
    # rejected, so _locate never has to reach back past a third component
    point = math.nextafter(1e4, math.inf)
    lo = math.nextafter(math.nextafter(point, math.inf), math.inf)
    ts = _rejected_with_a_valid_neighbour(
        (ClosedInterval(9999.0, 1e4), IsolatedPoint(point), ClosedInterval(lo, 10001.0))
    )
    assert ts._locate(point) == linear_locate(ts, point) == (0, point)
    for t in (1e4, ts.components[1].t, lo, 10001.0):
        assert ts._locate(t) == linear_locate(ts, t)


def test_jump_queries_answer_for_the_located_component():
    # 2.5000000000000003e-12 is 1.0000000000000003e-12 past the interval,
    # which accepts it too (1.5e-12 + 1e-12 rounds up to it): as a point
    # its mu would be 0.0, so the scale is rejected
    ts = _rejected_with_a_valid_neighbour(
        (ClosedInterval(0.0, 1.5e-12), IsolatedPoint(2.5000000000000003e-12), IsolatedPoint(4e-12))
    )
    point = ts.components[1].t
    t = point + 4e-14
    assert ts._locate(t) == (1, point) and not relocates(ts, t)
    assert ts.mu(t) == reference_mu(ts, t) == ts.sigma(t) - point == 4e-12 - point
    assert ts.mu(t) == next(walk_records(ts, [t]))[3]
    assert ts.classify(t).right_dense is False


def test_locate_index_is_not_a_field():
    ts = union(interval(0.0, 1.0), isolated(1.5, 2.0))
    same = TimeScale(ts.components)
    assert [f.name for f in dataclasses.fields(ts)] == ["components"]
    assert ts == same and hash(ts) == hash(same)
    assert repr(ts) == f"TimeScale(components={ts.components!r})"


# -- one lookup per jump query ------------------------------------------------------

JUMP_QUERIES = {
    "mu": reference_mu,
    "in_kappa": reference_in_kappa,
    "rho": reference_rho,
    "classify": reference_classify,
}


@settings(max_examples=400, deadline=None)
@given(any_scale(), st.data())
def test_jump_queries_match_their_old_compositions(ts, data):
    """mu, in_kappa, rho and classify equal, errors included, the
    compositions of _locate, sigma and rho that located the point again:
    that second lookup finds the component t was located in."""
    for t in data.draw(st.lists(probe_points(ts), min_size=1, max_size=8)):
        assert not relocates(ts, t)
        for name, reference in JUMP_QUERIES.items():
            assert outcome(getattr(ts, name), t) == outcome(reference, ts, t), name


@pytest.mark.parametrize("name", list(JUMP_QUERIES))
def test_jump_query_locates_once(name, monkeypatch):
    calls = []
    locate = TimeScale._locate

    def counting(self, t):
        calls.append(t)
        return locate(self, t)

    monkeypatch.setattr(TimeScale, "_locate", counting)
    ts = union(interval(0.0, 1.0), isolated(1.5, 2.0), interval(3.0, 4.0), isolated(5.0))
    for t in (0.0, 0.5, 1.0, 1.5, 2.0, 3.0, 4.0, 5.0, 2.5, math.nan):
        calls.clear()
        outcome(getattr(ts, name), t)
        assert calls == [t]


@pytest.mark.parametrize(
    "ts, expected",
    [
        (isolated(1.0), -1),
        (interval(0.0, 1.0), -1),
        (union(isolated(0.5), interval(1.0, 2.0)), -1),
        (union(interval(0.0, 1.0), isolated(2.0)), 1),
        (uniform(0.0, 0.5, 4), 3),
    ],
)
def test_left_scattered_maximum_index(ts, expected):
    assert ts._left_scattered_max == expected
    assert [ts.in_kappa(c.right) for c in ts.components] == [
        i != expected for i in range(len(ts.components))
    ]
