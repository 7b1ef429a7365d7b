import math
import sys
from itertools import accumulate
from unittest import mock

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tscale import (
    Coefficient,
    ExpFamily,
    Grid,
    RegressivityError,
    SingularError,
    ToleranceError,
    TrigFamily,
    TrigKind,
    exact_trig_delta,
    exp_evaluate_grid,
    exp_hilger,
    graininess_coefficient,
    hyp,
    hyp_grid,
    interval,
    isolated,
    pythagorean_residual,
    derivative_residual,
    trig,
    trig_grid,
    uniform,
    union,
)

from tscale import transforms
from tscale.exponential import _hilger_grid_lenient
from tscale.transforms import zeta

from helpers import (
    any_scale,
    near_anchor,
    outcome,
    probe_points,
    reference_cayley_phase,
    reference_cayley_trig,
    reference_cayley_trig_grid,
    reference_hyp,
    reference_hyp_grid_values,
    reference_product,
    reference_pythagorean_residuals,
    reference_trig,
    reference_trig_grid_values,
)

Z = uniform(0, 1, 6)
MIXED = union(interval(0.0, 1.0), isolated(1.7, 2.3), interval(3.0, 3.8))


# -- pointwise pairs ------------------------------------------------------------


@pytest.mark.parametrize("family", list(TrigFamily))
def test_hyp_at_anchor(family):
    c, s = hyp(family, Z, 0.5, 0.0, 0.0)
    assert c == 1.0 and s == 0.0


def test_hyp_cayley_integer_scale():
    c, s = hyp(TrigFamily.CAYLEY, Z, 1.0, 1, 0)
    assert abs(c - 5.0 / 3.0) < 1e-14
    assert abs(s - 4.0 / 3.0) < 1e-14


def test_hyp_bp_boundary_is_permitted():
    # one exponential vanishes identically; the pair stays finite
    c, s = hyp(TrigFamily.BOHNER_PETERSON, Z, 1.0, 1, 0)
    assert abs(c - 1.0) < 1e-13 and abs(s - 1.0) < 1e-13
    c, s = hyp(TrigFamily.BOHNER_PETERSON, Z, 1.0, 3, 0)
    assert abs(c - 4.0) < 1e-13 and abs(s - 4.0) < 1e-13


def test_hyp_hilger_closed_form():
    # pair built from the forward-step exponential and its reciprocal
    c, s = hyp(TrigFamily.HILGER, Z, 1.0, 2, 0)
    assert abs(c - (4 + 0.25) / 2) < 1e-14
    assert abs(s - (4 - 0.25) / 2) < 1e-14


def test_hyp_exact_is_continuum_pair():
    c, s = hyp(TrigFamily.EXACT, MIXED, 0.7, 2.3, 0.0)
    assert c == math.cosh(0.7 * 2.3)
    assert s == math.sinh(0.7 * 2.3)


@pytest.mark.parametrize("family", list(TrigFamily))
def test_trig_at_anchor(family):
    c, s = trig(family, Z, 1.3, 0.0, 0.0)
    assert c == 1.0 and s == 0.0


def test_trig_cayley_integer_scale():
    c, s = trig(TrigFamily.CAYLEY, Z, 1.0, 1, 0)
    assert abs(c - 0.6) < 1e-15
    assert abs(s - 0.8) < 1e-15


def test_trig_exact_and_hilger_restriction():
    ts = interval(0, 1)
    c, s = trig(TrigFamily.EXACT, ts, math.pi, 0.5, 0.0)
    assert c == math.cos(math.pi * 0.5)
    assert s == 1.0
    assert trig(TrigFamily.HILGER, ts, math.pi, 0.5, 0.0) == (c, s)


def test_trig_values_are_python_floats():
    c, s = trig(TrigFamily.CAYLEY, MIXED, 0.9, 2.3, 0.0)
    assert isinstance(c, float) and isinstance(s, float)


def test_trig_grid_matches_pointwise():
    grid = MIXED.make_grid(0.0, 3.8, 0.25)
    pair = trig_grid(TrigFamily.CAYLEY, MIXED, 1.1, 0.0, grid)
    for t, c, s in zip(grid.points, pair.c_values, pair.s_values):
        pc, ps = trig(TrigFamily.CAYLEY, MIXED, 1.1, t, 0.0)
        assert abs(c - pc) < 1e-12
        assert abs(s - ps) < 1e-12


# -- circular and deformed identities -----------------------------------------------


def test_pythagorean_cayley_trig_integer_scale():
    grid = Z.make_grid(0, 5, 1.0)
    rep = pythagorean_residual(TrigFamily.CAYLEY, TrigKind.TRIGONOMETRIC, Z, 1.0, grid)
    assert rep.max_residual < 1e-12
    assert rep.passed


def test_pythagorean_exact_everywhere():
    grid = MIXED.make_grid(0.0, 3.8, 0.3)
    rep = pythagorean_residual(TrigFamily.EXACT, TrigKind.TRIGONOMETRIC, MIXED, 2.1, grid)
    assert rep.max_residual < 1e-15


@pytest.mark.parametrize("kind", [TrigKind.TRIGONOMETRIC, TrigKind.HYPERBOLIC])
def test_pythagorean_cayley_and_hilger_on_mixed_scale(kind):
    grid = MIXED.make_grid(0.0, 3.8, 0.25)
    param = 1.3 if kind is TrigKind.TRIGONOMETRIC else 0.8
    rep = pythagorean_residual(TrigFamily.CAYLEY, kind, MIXED, param, grid)
    assert rep.max_residual < 1e-12
    if kind is TrigKind.HYPERBOLIC:
        rep = pythagorean_residual(TrigFamily.HILGER, kind, MIXED, param, grid)
        assert rep.max_residual < 1e-12


def test_pythagorean_bp_matches_deformation_on_integer_scale():
    grid = Z.make_grid(0, 5, 1.0)
    rep = pythagorean_residual(TrigFamily.BOHNER_PETERSON, TrigKind.TRIGONOMETRIC, Z, 1.0, grid)
    assert rep.max_residual < 1e-10
    assert rep.reference is not None
    # the deformation factor on the unit-step scale is (1 + omega^2)^t
    assert abs(rep.reference[1] - 2.0) < 1e-12
    pair = trig_grid(TrigFamily.BOHNER_PETERSON, Z, 1.0, 0.0, grid)
    assert abs(pair.c_values[1] ** 2 + pair.s_values[1] ** 2 - 2.0) < 1e-12


@pytest.mark.parametrize("kind", [TrigKind.TRIGONOMETRIC, TrigKind.HYPERBOLIC])
def test_pythagorean_bp_on_mixed_scale(kind):
    grid = MIXED.make_grid(0.0, 3.8, 0.25)
    param = 1.0 if kind is TrigKind.TRIGONOMETRIC else 0.6
    rep = pythagorean_residual(TrigFamily.BOHNER_PETERSON, kind, MIXED, param, grid)
    assert rep.max_residual < 1e-10


def test_pythagorean_bp_hyp_deformation_matches_closed_form():
    grid = Z.make_grid(0, 5, 1.0)
    rep = pythagorean_residual(
        TrigFamily.BOHNER_PETERSON, TrigKind.HYPERBOLIC, Z, 0.5, grid
    )
    assert rep.max_residual < 1e-10
    for k, ref in enumerate(rep.reference):
        assert abs(ref - (1 - 0.25) ** k) < 1e-12


# -- grid pairs and residuals against their per-point values ----------------------------

# discrete, hybrid, near 1e4, and a gap of 0.5 on which the
# Bohner-Peterson factor 1 - mu*2 vanishes
MAP_FORM_SCALES = [
    (uniform(0.0, 1e-3, 400), 1e-3),
    (union(interval(0.0, 2.0), isolated(2.3, 2.6), interval(3.0, 5.0)), 0.01),
    (union(interval(1e4, 10000.5), isolated(10000.75, 10001.0)), 0.01),
    (uniform(0.0, 0.5, 10), 0.5),
]


@pytest.mark.parametrize("ts, step", MAP_FORM_SCALES)
@pytest.mark.parametrize("family", list(TrigFamily))
@pytest.mark.parametrize("anchor", [0, 3])
def test_grid_pairs_are_their_per_point_values(ts, step, family, anchor):
    """hyp_grid's half-sums and half-differences and trig_grid's real and
    imaginary parts, bit for bit, errors included, are those of a loop
    over the points of the exponentials each combines."""
    grid = ts.make_grid(ts.inf, ts.sup, step)
    t0 = grid.points[anchor]
    for alpha in (-0.3 + 0.2j, 2.0):
        want = outcome(reference_hyp_grid_values, family, ts, alpha, t0, grid)
        assert outcome(_pair_values, hyp_grid, family, ts, alpha, t0, grid) == want
    want = outcome(reference_trig_grid_values, family, ts, 2.5, t0, grid)
    assert outcome(_pair_values, trig_grid, family, ts, 2.5, t0, grid) == want


def _pair_values(pair_fn, *args):
    pair = pair_fn(*args)
    return pair.c_values, pair.s_values


@pytest.mark.parametrize("ts, step", MAP_FORM_SCALES)
@pytest.mark.parametrize("family", list(TrigFamily))
@pytest.mark.parametrize(
    "kind, param", [(TrigKind.HYPERBOLIC, -0.3 + 0.2j), (TrigKind.TRIGONOMETRIC, 2.5)]
)
def test_pythagorean_residuals_are_their_per_point_values(ts, step, family, kind, param):
    """The residuals, bit for bit, are those of a loop over the points of
    the report's pair and, for Bohner-Peterson, of the deformation values
    it folds last."""
    grid = ts.make_grid(ts.inf, ts.sup, step)
    folds = []
    fold = _hilger_grid_lenient
    with mock.patch.object(
        sys.modules["tscale.trig"], "_hilger_grid_lenient",
        lambda *args: folds.append(fold(*args)) or folds[-1],
    ):
        report = pythagorean_residual(family, kind, ts, param, grid)
    pair_of = hyp_grid if kind is TrigKind.HYPERBOLIC else trig_grid
    pair = pair_of(family, ts, param, grid.points[0], grid)
    reference = folds[-1] if family is TrigFamily.BOHNER_PETERSON else None
    want = reference_pythagorean_residuals(kind, pair.c_values, pair.s_values, reference)
    assert outcome(lambda: report.residuals) == outcome(lambda: want)


# -- derivative laws -----------------------------------------------------------------


def test_derivative_residual_cayley_trig_integer_scale():
    grid = Z.make_grid(0, 5, 1.0)
    rep = derivative_residual(TrigFamily.CAYLEY, TrigKind.TRIGONOMETRIC, Z, 1.0, grid)
    assert rep.max_residual < 1e-12
    assert 5.0 in rep.skipped  # supremum has no sampled forward jump


def test_derivative_residual_zero_parameter():
    grid = Z.make_grid(0, 5, 1.0)
    rep = derivative_residual(TrigFamily.CAYLEY, TrigKind.TRIGONOMETRIC, Z, 0.0, grid)
    assert rep.max_residual == 0.0


def test_derivative_residual_cayley_hyp_integer_scale():
    grid = Z.make_grid(0, 5, 1.0)
    rep = derivative_residual(TrigFamily.CAYLEY, TrigKind.HYPERBOLIC, Z, 1.0, grid)
    assert rep.max_residual < 1e-12


def test_derivative_residual_dense_points_numeric():
    ts = interval(0.0, 1.0)
    grid = ts.make_grid(0.0, 1.0, 0.25)
    rep = derivative_residual(TrigFamily.CAYLEY, TrigKind.TRIGONOMETRIC, ts, 1.2, grid)
    assert rep.max_residual < 1e-7  # Richardson estimate at dense points


def test_derivative_residual_requires_cayley():
    grid = Z.make_grid(0, 5, 1.0)
    with pytest.raises(ValueError):
        derivative_residual(TrigFamily.EXACT, TrigKind.TRIGONOMETRIC, Z, 1.0, grid)


def test_derivative_residual_at_a_point_just_below_an_interval_is_dense():
    # -5e-13 is located at 0.0, whose forward jump 0.0 lies above the raw
    # point: the residual is the dense one of the grid starting at 0.0
    ts = union(interval(0.0, 1.0), isolated(1.5))
    for start in (-5e-13, 0.0):
        grid = Grid((start, 0.5, 1.0, 1.5), 0.5)
        rep = derivative_residual(
            TrigFamily.CAYLEY, TrigKind.TRIGONOMETRIC, ts, 1.0, grid, t0=0.5
        )
        assert rep.residuals[0] == 8.260059303211165e-14


HYBRID = union(interval(0.0, 1.0), isolated(1.5, 2.25))
DERIVATIVE_CASES = [
    (Z, TrigKind.TRIGONOMETRIC, 1.0, 1.0),
    (Z, TrigKind.TRIGONOMETRIC, 0.0, 1.0),
    (Z, TrigKind.HYPERBOLIC, 1.0, 1.0),
    (interval(0.0, 1.0), TrigKind.TRIGONOMETRIC, 1.2, 0.25),
    (HYBRID, TrigKind.TRIGONOMETRIC, 1.2, 0.25),
    (HYBRID, TrigKind.HYPERBOLIC, 1.2, 0.25),
]


@pytest.mark.parametrize("ts, kind, param, step", DERIVATIVE_CASES)
def test_derivative_residual_evaluates_each_sample_pair_once(ts, kind, param, step):
    """Each Richardson sample's pair is evaluated once per report, and the
    report is bit for bit the one that evaluates the pair afresh for the
    cosine-like and the sine-like part, as each part once did."""
    module = sys.modules["tscale.trig"]
    point = module.hyp if kind is TrigKind.HYPERBOLIC else module.trig
    grid = ts.make_grid(ts.inf, ts.sup, step)

    def report(memoize):
        calls = []

        def counted(*args):
            calls.append(args[3])
            return point(*args)

        with mock.patch.object(module, point.__name__, counted), mock.patch.object(
            module, "cache", memoize
        ):
            rep = derivative_residual(TrigFamily.CAYLEY, kind, ts, param, grid)
        return outcome(lambda: (rep.points, rep.residuals, rep.skipped)), calls

    once, once_calls = report(module.cache)
    afresh, afresh_calls = report(lambda fn: fn)
    assert once == afresh
    assert sorted(once_calls) == sorted(set(afresh_calls))
    if ts is HYBRID:
        assert (len(once_calls), len(afresh_calls)) == (64, 144)


def test_first_derivative_values_match_averages():
    # one hand-checked point of the sine law on the unit-step scale
    grid = Z.make_grid(0, 5, 1.0)
    pair = trig_grid(TrigFamily.CAYLEY, Z, 1.0, 0.0, grid)
    d_sin = pair.s_values[1] - pair.s_values[0]
    avg_cos = 0.5 * (pair.c_values[0] + pair.c_values[1])
    assert abs(d_sin - avg_cos) < 1e-14
    assert abs(d_sin - 0.8) < 1e-14


# -- restricted-pair delta derivatives --------------------------------------------------


def test_exact_trig_delta_examples():
    cd, sd = exact_trig_delta(math.pi, 1.0, 0.0)
    assert abs(sd) < 1e-15
    assert abs(cd + 2.0) < 1e-15
    assert exact_trig_delta(0.0, 1.0, 0.3) == (0.0, 0.0)


def test_exact_trig_delta_continuum_limit():
    cd, sd = exact_trig_delta(1.0, 1e-8, 0.3)
    assert abs(cd + math.sin(0.3)) < 1e-7
    assert abs(sd - math.cos(0.3)) < 1e-7


def test_exact_trig_delta_requires_positive_mu():
    with pytest.raises(ValueError):
        exact_trig_delta(1.0, 0.0, 0.0)


def test_exact_trig_delta_matches_sample_quotient():
    eps, omega = 0.5, 1.3
    for t in (0.0, 0.5, 1.0):
        cd, sd = exact_trig_delta(omega, eps, t)
        assert abs(sd - (math.sin(omega * (t + eps)) - math.sin(omega * t)) / eps) < 1e-12
        assert abs(cd - (math.cos(omega * (t + eps)) - math.cos(omega * t)) / eps) < 1e-12


# -- qualitative family properties ----------------------------------------------------


@pytest.mark.parametrize("omega", [0.3, 1.0, 2.7, 5.0])
def test_reality_of_cayley_trig(omega):
    grid = MIXED.make_grid(0.0, 3.8, 0.3)
    pair = trig_grid(TrigFamily.CAYLEY, MIXED, omega, 0.0, grid)
    assert all(isinstance(v, float) for v in pair.c_values + pair.s_values)


def test_parity_in_the_parameter():
    grid = Z.make_grid(0, 5, 1.0)
    plus = trig_grid(TrigFamily.CAYLEY, Z, 0.7, 0.0, grid)
    minus = trig_grid(TrigFamily.CAYLEY, Z, -0.7, 0.0, grid)
    for cp, cm, sp, sm in zip(
        plus.c_values, minus.c_values, plus.s_values, minus.s_values
    ):
        assert abs(cp - cm) < 1e-12
        assert abs(sp + sm) < 1e-12


def test_family_agreement_rates_as_step_shrinks():
    # trigonometric pairs at t=1 approach the continuum pair; halving the
    # step divides the Cayley error by about four and the
    # forward-step-based error by about two
    omega = 1.0

    def errors(eps):
        ts = uniform(0.0, eps, round(1.0 / eps) + 1)
        e_c = abs(trig(TrigFamily.CAYLEY, ts, omega, 1.0, 0.0)[0] - math.cos(omega))
        e_bp = abs(
            trig(TrigFamily.BOHNER_PETERSON, ts, omega, 1.0, 0.0)[0] - math.cos(omega)
        )
        return e_c, e_bp

    c1, bp1 = errors(1.0 / 64)
    c2, bp2 = errors(1.0 / 128)
    assert 3.0 < c1 / c2 < 5.0
    assert 1.7 < bp1 / bp2 < 2.4
    ts = uniform(0.0, 0.25, 5)
    assert trig(TrigFamily.EXACT, ts, omega, 1.0, 0.0)[0] == math.cos(omega)


def test_hyp_grid_bp_boundary_vanishing_branch():
    grid = Z.make_grid(0, 5, 1.0)
    pair = hyp_grid(TrigFamily.BOHNER_PETERSON, Z, 1.0, 0.0, grid)
    for k in range(1, 6):
        ref = 2.0 ** k / 2.0
        assert abs(pair.c_values[k] - ref) < 1e-13 * ref
        assert pair.c_values[k] == pair.s_values[k]


def test_deformed_identity_reference_via_exp_hilger_oracle():
    # spot-check the reference against a direct evaluation
    grid = Z.make_grid(0, 4, 1.0)
    rep = pythagorean_residual(
        TrigFamily.BOHNER_PETERSON, TrigKind.TRIGONOMETRIC, Z, 0.8, grid
    )
    direct = exp_hilger(Z, 0.8 * 0.8, 3.0, 0.0)
    assert abs(rep.reference[3] - direct.real) < 1e-12 * abs(direct)


# -- the Cayley pair through hyp, against the direct formula ----------------------------

# (scale, grid step, omega, t0). The next to last is the oscillator-cayley
# identity on uniform(0,1e-3,1000). On it and on the last, the pair built
# from two exponentials had imaginary residues above 1e-13 (first at t=0.684
# and t=1.535); with purely imaginary step logs it has none.
CAYLEY_TRIG_CASES = [
    (Z, 1.0, 0.7, 0.0),
    (Z, 1.0, -2.5, 3.0),
    (MIXED, 0.3, 1.3, 0.0),
    (MIXED, 0.1, 5.0, 1.7),
    (MIXED, 0.25, 0.0, 0.5),
    (uniform(0, 1e-3, 1000), 0.1, 2.5, 0.0),
    (uniform(0, 1e-3, 2000), 0.1, 10.0, 0.0),
]


@pytest.mark.parametrize("ts, step, omega, t0", CAYLEY_TRIG_CASES)
def test_cayley_trig_grid_equals_direct_formula(ts, step, omega, t0):
    grid = ts.make_grid(ts.inf, ts.sup, step)

    def pair():
        p = trig_grid(TrigFamily.CAYLEY, ts, omega, t0, grid)
        return p.c_values, p.s_values

    assert outcome(pair) == outcome(reference_cayley_trig_grid, ts, omega, t0, grid)


@pytest.mark.parametrize("n, omega", [(1000, 2.5), (2000, 10.0)])
def test_cayley_trig_grid_stays_on_the_unit_circle(n, omega):
    """The two grids on which the pair, while it was the half-sum and
    half-difference of two exponentials, raised an imaginary residue above
    1e-13 (at t=0.684 and t=1.535): every step log is purely imaginary, and
    the pair is (cos, sin) of the phase that the log-ratio zeta folds. Each
    distinct (mu, omega) pair of the grid's steps takes exactly one log."""
    ts = uniform(0, 1e-3, n)
    grid = ts.make_grid(ts.inf, ts.sup, 0.1)
    pairs, logs = [], []

    def recorded(h, z):
        pairs.append((h, z))
        logs.append(zeta(h, z))
        return logs[-1]

    with mock.patch("tscale.transforms.zeta", recorded):
        pair = trig_grid(TrigFamily.CAYLEY, ts, omega, 0.0, grid)
    steps = {(q - p, 1j * omega) for p, q in zip(grid.points, grid.points[1:])}
    assert len(pairs) == len(set(pairs)) and set(pairs) == steps
    assert all(w.real == 0.0 for w in logs)
    cs, ss = pair.c_values, pair.s_values
    assert max(abs(c * c + s * s - 1.0) for c, s in zip(cs, ss)) <= 2.3e-16
    phase = reference_cayley_phase(ts, omega, 0.0, grid)
    assert [c.hex() for c in cs] == [math.cos(f).hex() for f in phase]
    assert [s.hex() for s in ss] == [math.sin(f).hex() for f in phase]


@pytest.mark.parametrize("ts, step, omega, t0", CAYLEY_TRIG_CASES)
def test_cayley_trig_equals_direct_formula(ts, step, omega, t0):
    points = ts.make_grid(ts.inf, ts.sup, step).points
    # every point of the small grids, 41 of the 1000-point one, and the probe's t
    for t in points[:: 1 + len(points) // 40] + (0.684,):
        if t in ts:
            assert outcome(trig, TrigFamily.CAYLEY, ts, omega, t, t0) == outcome(
                reference_cayley_trig, ts, omega, t, t0
            )


# -- pointwise pairs as one-point grid pairs, against their own family ladder ----------

# 1 + mu*alpha vanishes on the 1.0 gaps of tight scales for alpha = -1 (the
# Bohner-Peterson degenerate factor) and mu*alpha = 2 on them for alpha = 2
# (Cayley); omega = 40 turns through many periods on dense scales; 1e300
# overflows the exponential after a few scattered steps, and 1e154 brings the
# Bohner-Peterson exponential near the largest float in two steps of about 1.
# (At 1e308 the Simpson values on a dense piece are infinite and the
# quadrature refines without bound near |t| = 1e4, on the old ladder as on
# the grid.)
PAIR_PARAMETERS = [0.7 - 0.4j, -1.0, 2.0, -4.0, 1j, 1e300, math.nan]
TRIG_PARAMETERS = [0.0, 1.3, -2.5, 40.0, 1e154, 1e300, math.nan, math.inf]
VARYING = Coefficient.from_function(lambda t: 0.5 + 0.2 * math.sin(t))


def bp_half_sum_exception(fn, family, got, want) -> bool:
    """True where the Bohner-Peterson trig pair, (Re E, Im E) of the
    forward-step exponential E of 1j*omega, differs from the ladder's
    half-sum and half-difference of E and its conjugate in one of two named
    ways: Im E is -0.0 where the half-difference is +0.0 (the half-sum
    equal); or the half-sum (half-difference) overflows to inf (nan,
    through 0.5 times an infinite complex) where Re E (Im E) is finite. Any
    other part must match bit for bit."""
    if fn is not trig or family is not TrigFamily.BOHNER_PETERSON:
        return False
    if len(got) != 2 or len(want) != 2:  # an error on either side
        return False
    if got[0] == want[0] and (got[1], want[1]) == ((-0.0).hex(), (0.0).hex()):
        return True
    g, w = [float.fromhex(x) for x in got], [float.fromhex(x) for x in want]
    return all(
        x == y
        or (math.isfinite(u) and abs(u) > sys.float_info.max / 2 and not math.isfinite(v))
        for x, y, u, v in zip(got, want, g, w)
    )


@st.composite
def _pair_cases(draw):
    """A scale, t and t0 (probe points), a hyperbolic and a trigonometric
    parameter."""
    ts = draw(any_scale())
    t, t0 = draw(st.lists(probe_points(ts), min_size=2, max_size=2))
    alpha = draw(st.sampled_from(PAIR_PARAMETERS + [VARYING]))
    return ts, t, t0, alpha, draw(st.sampled_from(TRIG_PARAMETERS))


# Re E subnormal and Im E -0.0, the ladder's half-difference +0.0
_SIGNED_ZERO_DRAW = isolated(0.9577349002934001, 1.622915499852811, 2.4868565942609537)


@settings(max_examples=300, deadline=None)
@given(_pair_cases())
@example((_SIGNED_ZERO_DRAW, 0.9577349002934001, 2.4868565942609537, 0.7 - 0.4j, 1e154))
def test_pointwise_pairs_match_their_own_ladder(case):
    """hyp and trig equal, bit for bit and in their errors, the family
    ladder they replaced, for every family, with t on either side of t0.
    The exceptions: a t located apart from t0 but within the membership
    tolerance of it takes the anchor's value, as a grid point does; and the
    two Bohner-Peterson trig cases of bp_half_sum_exception."""
    ts, t, t0, alpha, omega = case
    for a, b in ((t, t0), (t0, t)):
        for family in TrigFamily:
            for fn, ref, param in ((hyp, reference_hyp, alpha), (trig, reference_trig, omega)):
                got = outcome(fn, family, ts, param, a, b)
                want = outcome(ref, family, ts, param, a, b)
                if got != want and near_anchor(ts, a, b):
                    want = outcome(ref, family, ts, param, ts._locate(b)[1], b)
                if got != want and bp_half_sum_exception(fn, family, got, want):
                    continue
                assert got == want, (fn.__name__, family)


@pytest.mark.parametrize(
    "ts, omega, t, t0",
    [
        # E underflows backward: (-0.0, -0.0) against the ladder's (-0.0, 0.0)
        (isolated(0.0, 1.0, 2.0), 1e300, 0.0, 2.0),
        # Re E = -1.44e308: the half-sum is -inf
        (isolated(0.0, 1.2, 2.4), 1e154, 2.4, 0.0),
        # Im E = -1.25e308: the half-difference is nan
        (isolated(0.0, 1.0, 2.0, 3.0), 5e102, 3.0, 0.0),
        # Re E subnormal, Im E -0.0: the half-difference is +0.0
        (_SIGNED_ZERO_DRAW, 1e154, 0.9577349002934001, 2.4868565942609537),
    ],
)
def test_bp_trig_half_sum_exceptions(ts, omega, t, t0):
    """Each named exception occurs, and the pair is (Re E, Im E) there."""
    got = outcome(trig, TrigFamily.BOHNER_PETERSON, ts, omega, t, t0)
    want = outcome(reference_trig, TrigFamily.BOHNER_PETERSON, ts, omega, t, t0)
    assert got != want and bp_half_sum_exception(trig, TrigFamily.BOHNER_PETERSON, got, want)
    assert got == outcome(exp_hilger, ts, 1j * omega, t, t0)


@pytest.mark.parametrize("family", list(TrigFamily))
def test_pointwise_pair_within_tolerance_of_the_anchor_takes_its_value(family):
    ts = interval(0.0, 1.0)
    t = 0.5 + 5e-13
    assert reference_hyp(family, ts, 1.0, t, 0.5)[1] != 0
    assert hyp(family, ts, 1.0, t, 0.5) == hyp(family, ts, 1.0, 0.5, 0.5) == (1, 0)
    pair = hyp_grid(family, ts, 1.0, 0.5, Grid((0.0, t, 1.0), 0.5))
    assert hyp(family, ts, 1.0, t, 0.5) == (pair.c_values[1], pair.s_values[1])


@pytest.mark.parametrize("family", list(TrigFamily))
def test_a_hyperbolic_pair_that_is_not_finite_raises(family):
    """An infinite coefficient makes a step log infinite and the pair NaN:
    hyp_grid and hyp raise ToleranceError at the first such grid point, as
    the reference pair does."""
    ts = uniform(0.0, 1.0, 2)
    coeff = Coefficient.from_function(lambda t: math.inf)
    error = ("ToleranceError", "non-finite hyperbolic pair at t=1.0: ((nan+nanj), (nan+nanj))", None)
    pair = lambda: hyp_grid(family, ts, coeff, 0.0, ts.make_grid(0.0, 1.0, 0.1))
    assert outcome(pair) == error
    assert outcome(hyp, family, ts, coeff, 1.0, 0.0) == error
    assert outcome(reference_hyp, family, ts, coeff, 1.0, 0.0) == error


def test_an_exact_hyperbolic_pair_that_overflows_is_a_tolerance_error():
    # cosh and sinh of the closed form raised a bare OverflowError here
    ts = uniform(0, 1, 3)
    with pytest.raises(ToleranceError, match=r"^exponential overflows at exponent \(1000\+0j\)$"):
        hyp_grid(TrigFamily.EXACT, ts, 1000, 0.0, Grid((0.0, 1.0, 2.0), 1.0))
    with pytest.raises(ToleranceError, match=r"^exponential overflows at exponent \(2000\+0j\)$"):
        hyp(TrigFamily.EXACT, ts, 1000, 2.0, 0.0)


def test_exact_hyperbolic_pair_of_a_varying_coefficient():
    # alpha(t) = t on an interval: cosh and sinh of t^2/2
    ts = interval(0.0, 1.0)
    pair = hyp_grid(TrigFamily.EXACT, ts, lambda t: t, 0.0, ts.make_grid(0.0, 1.0, 0.25))
    for p, c, s in zip(pair.grid.points, pair.c_values, pair.s_values):
        assert abs(c - math.cosh(0.5 * p * p)) <= 1e-15 and abs(s - math.sinh(0.5 * p * p)) <= 1e-15
    assert pair.parameter is None


@pytest.mark.parametrize("family", list(TrigFamily))
def test_pointwise_pairs_match_their_own_ladder_on_fixed_cases(family):
    # the BP degenerate factor (1 + 1*(-1) = 0 forward, backward through it),
    # regressivity, overflow, NaN, non-members on either side
    cases = [
        (Z, -1.0, 3.0, 0.0),
        (Z, -1.0, 0.0, 3.0),
        (Z, 2.0, 4.0, 1.0),
        (Z, 1e308, 2.0, 0.0),
        (MIXED, 0.7 - 0.4j, 3.5, 0.25),
        (MIXED, 0.7 - 0.4j, 0.25, 3.5),
        (MIXED, 1.0, math.nan, 0.0),
        (MIXED, 1.0, 0.0, math.nan),
        (MIXED, 1.0, 1.2, 2.0),
        (MIXED, 1.0, 2.0, 1.2),
        (MIXED, 1.0, 1.2, 2.9),
    ]
    for ts, param, t, t0 in cases:
        assert outcome(hyp, family, ts, param, t, t0) == outcome(
            reference_hyp, family, ts, param, t, t0
        )
        assert outcome(trig, family, ts, param, t, t0) == outcome(
            reference_trig, family, ts, param, t, t0
        )


# -- the Bohner-Peterson degenerate boundary against the step-factor product -----------

U = 2.0**-53


def _relative_bound(n: int, values) -> float:
    """Relative error allowed where the grid fold's exp(sum of step logs)
    stands in for the product of n steps' factors: 4 n u, times the largest
    exponent magnitude, since exp turns an exponent's absolute rounding
    into relative error."""
    return 4 * n * U * max([1.0] + [abs(math.log(abs(v))) for v in values if v])


@st.composite
def _degenerate_bp_cases(draw):
    """A discrete scale with a forward step factor 1 + mu*rate/mu within
    the regressivity margin of zero at step k (exactly zero on some gaps),
    a grid over a stretch of points holding step k and a t0 on or off it:
    the scale, its points and gaps, k, the grid, t0 and the factor's rate."""
    gap = st.sampled_from([0.125, 0.25, 0.5, 1.0]) | st.floats(0.1, 1.2)
    start = draw(st.floats(-5.0, 5.0))
    pts = list(accumulate(draw(st.lists(gap, min_size=2, max_size=30)), initial=start))
    mus = [q - p for p, q in zip(pts, pts[1:])]
    k = draw(st.integers(0, len(mus) - 1))
    i, j = draw(st.integers(0, k)), draw(st.integers(k + 1, len(pts) - 1))
    t0 = draw(st.sampled_from(pts))
    delta = draw(st.sampled_from([0.0, 3e-16, -3e-16, 1e-12, -1e-12, 5e-10, -5e-10]))
    rate = draw(st.sampled_from([-1.0, 1.0])) * (1.0 + delta)
    return isolated(*pts), pts, mus, k, Grid(tuple(pts[i : j + 1]), 1.0), t0, rate


def _products(ts, coeffs, grid, t0):
    """reference_product of each coefficient at every grid point in turn,
    or the SingularError the first backward evaluation through a zero
    factor raises."""
    try:
        return [[reference_product(ts, c, p, t0) for p in grid.points] for c in coeffs]
    except SingularError as exc:
        return exc


@settings(max_examples=300, deadline=None)
@given(_degenerate_bp_cases(), st.data())
def test_degenerate_bp_pair_agrees_with_the_step_factor_product(case, data):
    """hyp_grid(BOHNER_PETERSON) with factors of alpha or -alpha within the
    margin of zero agrees with the step-factor product to 4 n u times the
    exponent size, and raises the product's SingularError where it divides
    by a zero factor. Each of its exponentials is zero exactly where the
    product is."""
    ts, pts, mus, k, grid, t0, rate = case
    rates = [data.draw(st.floats(-0.9, 0.9)) for _ in mus]
    rates[k] = rate
    coeff = Coefficient.tabulated(pts, [r / mu for r, mu in zip(rates, mus)] + [0.0])
    want = _products(ts, (coeff, -coeff), grid, t0)
    if isinstance(want, SingularError):
        assert outcome(hyp_grid, TrigFamily.BOHNER_PETERSON, ts, coeff, t0, grid) == outcome(
            _raise, want
        )
        return
    plus, minus = want
    for c, values in zip((coeff, -coeff), want):
        got = _hilger_grid_lenient(ts, c, t0, grid, 1e-12)
        assert [v == 0 for v in got] == [v == 0 for v in values]
    pair = hyp_grid(TrigFamily.BOHNER_PETERSON, ts, coeff, t0, grid)
    bound = _relative_bound(len(grid), plus + minus)
    for c, s, p, m in zip(pair.c_values, pair.s_values, plus, minus):
        assert c == s if m == 0 else c == -s if p == 0 else True
        err = max(abs(c - 0.5 * (p + m)), abs(s - 0.5 * (p - m)))
        assert err <= bound * (abs(p) + abs(m))


@settings(max_examples=300, deadline=None)
@given(_degenerate_bp_cases(), st.booleans())
def test_degenerate_bp_pythagorean_agrees_with_the_step_factor_product(case, deformed):
    """pythagorean_residual(BOHNER_PETERSON, HYPERBOLIC) with a constant
    parameter that puts one factor of the pair (or, deformed, of the
    deformation -mu*param^2) within the margin of zero: its reference and
    residuals agree with those of the step-factor product to 4 n u times the
    exponent size, the reference is zero exactly where the product's is,
    and the product's SingularError is raised."""
    ts, pts, mus, k, grid, t0, rate = case
    param = math.sqrt(abs(rate) / mus[k]) if deformed else rate / mus[k]
    coeff = Coefficient.constant(param)
    p2 = complex(param) * complex(param)
    deform = graininess_coefficient(ts, lambda mu, s: -1.0 * mu * p2)
    report = lambda: pythagorean_residual(
        TrigFamily.BOHNER_PETERSON, TrigKind.HYPERBOLIC, ts, param, grid, 1e-12, t0
    )
    want = _products(ts, (coeff, -coeff, deform), grid, t0)
    if isinstance(want, SingularError):
        assert outcome(report) == outcome(_raise, want)
        return
    plus, minus, ref = want
    rep = report()
    bound = _relative_bound(len(grid), plus + minus + ref)
    for got, res, p, m, r in zip(rep.reference, rep.residuals, plus, minus, ref):
        assert (got == 0) == (r == 0)
        assert abs(got - r.real) <= bound * abs(r)
        c, s = 0.5 * (p + m), 0.5 * (p - m)
        want_res = abs(c * c - s * s - r)
        assert abs(res - want_res) <= bound * (abs(c) ** 2 + abs(s) ** 2 + abs(r))


def _raise(exc):
    raise exc


def test_degenerate_bp_point_located_at_the_zero_factor_keeps_its_value():
    # 1 + mu*alpha = 0 at t = 2; a grid point 5e-13 above 2 is located at 2
    coeff = Coefficient.piecewise([1.5, 2.5], [0.3, -1.0, 0.3])
    grid = Grid((0.0, 1.0, 2.0 + 5e-13, 3.0), 1.0)
    want = [reference_product(Z, coeff, p, 0.0) for p in grid.points]
    got = _hilger_grid_lenient(Z, coeff, 0.0, grid, 1e-12)
    assert got[3] == want[3] == 0
    assert abs(got[2] - want[2]) <= 4 * U * abs(want[2]) and want[2] != 0


def test_degenerate_bp_pair_costs_linear_coefficient_calls():
    """On the degenerate boundary hyp_grid makes a number of coefficient
    calls linear in the grid size: doubling the grid at most doubles them,
    where the per-point product made 125,500 and 500,750 (4x)."""
    spike = Coefficient.from_function(lambda t: 1000.0 if abs(t - 0.25) < 1e-9 else 0.1)
    calls = []
    for n in (500, 1000):
        ts = uniform(0.0, 1e-3, n)
        grid = ts.make_grid(ts.inf, ts.sup, 1e-3)
        with pytest.raises(RegressivityError):  # 1 - mu*1000 at t = 0.25
            exp_evaluate_grid(ExpFamily.HILGER_DELTA, ts, -spike, 0.0, grid)
        with mock.patch.object(
            Coefficient, "__call__", autospec=True, side_effect=Coefficient.__call__
        ) as call:
            hyp_grid(TrigFamily.BOHNER_PETERSON, ts, spike, 0.0, grid)
        calls.append(call.call_count)
    assert calls[1] <= 2 * calls[0]


_BP_HYBRID = union(interval(0.0, 2.0), isolated(2.3, 2.6), interval(3.0, 5.0))


@pytest.mark.parametrize(
    "kind, param, ts",
    [
        (TrigKind.TRIGONOMETRIC, 2.5, _BP_HYBRID),
        (TrigKind.HYPERBOLIC, 0.5 - 0.25j, _BP_HYBRID),
        # param**2 overflows: the dense view is NaN, a quadrature error
        (TrigKind.TRIGONOMETRIC, 1e160, interval(0.0, 2.0)),
    ],
)
def test_bp_deformation_integrates_its_dense_view_exactly(kind, param, ts):
    """The Bohner-Peterson deformation coefficient's dense view is its value
    at mu = 0, a zero (NaN where param**2 overflows), given as its
    dense_value: the report runs no adaptive Simpson, and its values and
    errors are, bit for bit, those of the deformation integrated by
    Simpson."""
    grid = ts.make_grid(ts.inf, ts.sup, 1e-3)
    report = lambda: pythagorean_residual(TrigFamily.BOHNER_PETERSON, kind, ts, param, grid)
    calls = []
    simpson = transforms._adaptive_simpson
    with mock.patch.object(transforms, "_adaptive_simpson", lambda *a: calls.append(a) or simpson(*a)):
        got = outcome(lambda: (report().residuals, report().reference))
    assert calls == []
    without_dense_value = lambda ts, fn, dense_value=None: graininess_coefficient(ts, fn)
    # the package exports the function trig under the module's name
    with mock.patch.object(sys.modules["tscale.trig"], "graininess_coefficient", without_dense_value):
        assert outcome(lambda: (report().residuals, report().reference)) == got
