import cmath
import collections
import dataclasses
import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from tscale import (
    ClosedInterval,
    Coefficient,
    DomainError,
    ExpEvaluation,
    ExpFamily,
    RegressivityError,
    SampledFunction,
    Scheme,
    SingularError,
    ToleranceError,
    TrigFamily,
    beta_of_alpha,
    check_semigroup,
    check_sigma_shift,
    delbis_relation_residual,
    exp_cayley,
    exp_evaluate_grid,
    exp_exact,
    exp_hilger,
    exp_nabla_const,
    graininess_coefficient,
    hyp_grid,
    interval,
    isolated,
    oplus_cayley,
    solve_first_order,
    uniform,
    union,
)

from tscale import cli, dynamic, exponential, transforms
from tscale.cli import parse_scale
from tscale.exponential import _Exponent, _Terms, _exp_point, _exp_runs, _log_integral_range

from helpers import (
    any_scale,
    clipped_pieces,
    max_graininess,
    outcome,
    probe_points,
    random_scale,
    reference_exp,
    reference_exp_point,
    reference_log_integral_range,
    reference_product,
)

MIXED = union(interval(0.0, 1.0), isolated(2.0))
Z4 = uniform(0, 1, 4)


# -- pointwise values ---------------------------------------------------------


def test_exp_hilger_integer_scale():
    assert abs(exp_hilger(Z4, 1, 2, 0) - 4.0) < 1e-14


def test_exp_hilger_at_anchor():
    assert exp_hilger(MIXED, 0.7, 0.5, 0.5) == 1.0


def test_exp_hilger_continuum():
    got = exp_hilger(interval(0, 1), 2.0, 1.0, 0.0)
    assert abs(got - math.e ** 2) < 1e-12 * math.e ** 2


def test_exp_hilger_regressivity_abort_reports_first_point():
    with pytest.raises(RegressivityError) as err:
        exp_hilger(Z4, -1, 3, 0)
    assert err.value.t == 0.0


def test_exp_cayley_integer_scale():
    assert abs(exp_cayley(Z4, 1, 2, 0) - 9.0) < 1e-13


def test_exp_cayley_at_anchor():
    assert exp_cayley(Z4, 1, 1, 1) == 1.0


def test_exp_cayley_imaginary_unit_modulus():
    got = exp_cayley(Z4, 1j, 1, 0)
    assert abs(got - (0.6 + 0.8j)) < 1e-15
    assert abs(abs(got) - 1.0) < 1e-15


def test_exp_cayley_rejects_boundary_coefficient():
    with pytest.raises(RegressivityError):
        exp_cayley(Z4, 2.0, 2, 0)


def test_exp_nabla_const():
    assert exp_nabla_const(1.0, 0.5, 1.0) == 2.0
    assert exp_nabla_const(1.0, 0.25, 0.0) == 1.0
    with pytest.raises(SingularError):
        exp_nabla_const(1.0, 1.0, 2.0)
    with pytest.raises(DomainError):
        exp_nabla_const(1.0, 0.5, 0.5)


def test_exp_exact():
    assert abs(exp_exact(1, 1, 0) - math.e) < 1e-15
    assert exp_exact(2.5, 3.0, 3.0) == 1.0
    assert abs(exp_exact(1j * math.pi, 1, 0) + 1.0) < 1e-15


@pytest.mark.parametrize("eps", [1.0, 0.5, 0.125])
@pytest.mark.parametrize("alpha", [1.0, -0.4, 0.3 + 0.2j])
def test_closed_forms_on_uniform_scales(eps, alpha):
    # closed-form power oracles for constant coefficients
    ts = uniform(0, eps, 9)
    for k in range(9):
        t = k * eps
        h = exp_hilger(ts, alpha, t, 0)
        c = exp_cayley(ts, alpha, t, 0)
        assert abs(h - (1 + alpha * eps) ** k) < 1e-12 * abs((1 + alpha * eps) ** k)
        ref = ((1 + 0.5 * alpha * eps) / (1 - 0.5 * alpha * eps)) ** k
        assert abs(c - ref) < 1e-12 * abs(ref)


# -- grid evaluation -------------------------------------------------------------


def test_grid_values_match_examples():
    grid = Z4.make_grid(0, 3, 0.5)
    cay = exp_evaluate_grid(ExpFamily.CAYLEY, Z4, 1, 0.0, grid)
    assert all(abs(v - r) < 1e-12 * r for v, r in zip(cay.values, (1, 3, 9, 27)))
    assert cay.values[0] == 1.0
    hil = exp_evaluate_grid(ExpFamily.HILGER_DELTA, Z4, 1, 0.0, grid)
    assert all(abs(v - r) < 1e-12 * r for v, r in zip(hil.values, (1, 2, 4, 8)))
    exa = exp_evaluate_grid(ExpFamily.EXACT, Z4, 1, 0.0, grid)
    assert all(
        abs(v - math.e ** k) < 1e-12 * math.e ** k for k, v in enumerate(exa.values)
    )


def test_grid_values_match_pointwise_on_mixed_scale():
    grid = MIXED.make_grid(0, 2, 0.25)
    ev = exp_evaluate_grid(ExpFamily.CAYLEY, MIXED, 0.8, 0.0, grid)
    for t, v in zip(grid.points, ev.values):
        ref = exp_cayley(MIXED, 0.8, t, 0.0)
        assert abs(v - ref) < 1e-12 * max(1.0, abs(ref))


def test_grid_anchor_mid_grid_is_exactly_one():
    grid = Z4.make_grid(0, 3, 0.5)
    ev = exp_evaluate_grid(ExpFamily.CAYLEY, Z4, 1, 2.0, grid)
    assert ev.value_at(2.0) == 1.0
    assert abs(ev.value_at(0.0) - 1.0 / 9.0) < 1e-13


U = 2.0**-53


def _fold_error(values, want) -> float:
    """Largest relative gap between a grid fold's values and a closed form."""
    return max(abs(v - w) / abs(w) for v, w in zip(values, want))


def test_grid_nabla_family():
    # the step logs -log(1 - mu*alpha) = log 2 summed: the powers of two to
    # an ulp per step; and a hybrid scale, the dense piece e^(alpha*1) then
    # the step factor 1/(1 - 1*alpha) = 2 at the interval's end
    ts = uniform(0, 1, 4)
    grid = ts.make_grid(0, 3, 1.0)
    ev = exp_evaluate_grid(ExpFamily.NABLA_CONST, ts, 0.5, 0.0, grid)
    assert _fold_error(ev.values, (1.0, 2.0, 4.0, 8.0)) <= 3 * 2 * U
    ev = exp_evaluate_grid(ExpFamily.NABLA_CONST, MIXED, 0.5, 0.0, MIXED.make_grid(0, 2, 0.5))
    assert ev.values[-1] == math.exp(0.5) * 2.0


@pytest.mark.parametrize(
    "ts, alpha, t0",
    [
        (uniform(0, 0.5, 12), 0.5 - 0.25j, 0.0),
        (uniform(0, 0.5, 12), -3.0, 2.5),
        (uniform(0, 0.25, 9), 1.0, 1.0),
        (uniform(1e4, 0.1, 100), 0.001, 1e4),
        (uniform(0, 0.5, 12), 2.0, 0.5),  # alpha*eps = 1
        (uniform(0, 0.5, 12), 0.5, 0.3),  # no point is t0 plus a multiple of eps
        (uniform(0, 0.5, 12), 2.0, 0.3),  # both: the first point's check wins
    ],
)
def test_grid_nabla_family_is_exp_nabla_const_per_point(ts, alpha, t0):
    """The backward-step fold agrees with the closed form per point to a few
    ulps per step. Where the closed form raises, the fold raises its own
    error: a RegressivityError at the first step for alpha*eps = 1, and a
    DomainError for a t0 that is not a member (no point is then t0 plus a
    multiple of eps)."""
    grid = ts.make_grid(ts.inf, ts.sup, 0.1)
    eps = ts.constant_graininess()

    def values():
        return exp_evaluate_grid(ExpFamily.NABLA_CONST, ts, alpha, t0, grid).values

    try:
        want = [exp_nabla_const(eps, alpha, p - t0) for p in grid.points]
    except SingularError:
        with pytest.raises(RegressivityError, match=r"^1 - mu\*alpha = 0j at t=0.0$"):
            values()
        return
    except DomainError:
        with pytest.raises(DomainError, match=f"^t={t0!r} is not a member"):
            values()
        return
    assert _fold_error(values(), want) <= 8 * len(want) * U


def test_grid_nabla_messages():
    ts = uniform(0, 0.5, 12)
    grid = ts.make_grid(0, 5.5, 0.1)
    with pytest.raises(DomainError) as exc:
        exp_evaluate_grid(ExpFamily.NABLA_CONST, ts, 2.0, 0.3, grid)
    assert str(exc.value) == "t=0.3 is not a member of the time scale"
    with pytest.raises(RegressivityError) as exc:
        exp_evaluate_grid(ExpFamily.NABLA_CONST, ts, 2.0, 0.5, grid)
    assert (str(exc.value), exc.value.t) == ("1 - mu*alpha = 0j at t=0.0", 0.0)
    # within the margin of a zero factor, not only at one
    with pytest.raises(RegressivityError) as exc:
        exp_evaluate_grid(ExpFamily.NABLA_CONST, ts, 2.0 + 1e-10, 0.5, grid)
    assert exc.value.t == 0.0
    with pytest.raises(ValueError, match="^coefficient is not constant$"):
        exp_evaluate_grid(ExpFamily.NABLA_CONST, ts, lambda t: 0.5, 0.5, grid)
    # the pointwise path checks the coefficient before it locates t0
    with pytest.raises(ValueError, match="^coefficient is not constant$"):
        check_semigroup(ExpFamily.NABLA_CONST, ts, lambda t: 0.5, 0.5, 0.3, 0.3)


def test_grid_exact_takes_any_coefficient():
    # alpha(t) = t: exp(t^2/2) on an interval (Simpson integrates t
    # exactly), and the product of the step factors e^(mu*alpha(p)) on a
    # discrete scale
    ts = interval(0.0, 1.0)
    grid = ts.make_grid(0.0, 1.0, 0.125)
    ev = exp_evaluate_grid(ExpFamily.EXACT, ts, lambda t: t, 0.0, grid)
    assert _fold_error(ev.values, [math.exp(0.5 * p * p) for p in grid.points]) <= 1e-15
    pts = (0.0, 0.5, 1.25, 2.0, 3.5)
    ts = isolated(*pts)
    ev = exp_evaluate_grid(ExpFamily.EXACT, ts, lambda t: t, 0.0, ts.make_grid(0.0, 3.5, 1.0))
    want = [1.0]
    for p, q in zip(pts, pts[1:]):
        want.append(want[-1] * cmath.exp((q - p) * p))
    assert _fold_error(ev.values, want) <= 4 * len(pts) * U


def test_grid_nabla_on_a_hybrid_scale():
    # e^a over [0, 1], then the backward steps of graininess 0.5 and 0.75
    a = 0.6 - 0.2j
    ts = union(interval(0.0, 1.0), isolated(1.5, 2.25))
    ev = exp_evaluate_grid(ExpFamily.NABLA_CONST, ts, a, 0.0, ts.make_grid(0.0, 2.25, 0.25))
    want = cmath.exp(a) / (1 - 0.5 * a) / (1 - 0.75 * a)
    assert abs(ev.value_at(2.25) - want) <= 1e-15 * abs(want)
    # the pointwise exponent sums the same terms in another order
    point = _exp_point(ExpFamily.NABLA_CONST, ts, a, 2.25, 0.0, 1e-12)
    assert abs(point - ev.value_at(2.25)) <= 4 * U * abs(want)


# The step is a power of two: every point of the scales is a float at all
# three offsets, so each gap is eps and the closed forms see the scale the
# fold does. The fold adds n step logs, of total magnitude up to |alpha| T
# over the span T, so its exponent carries up to about n u (1 + |alpha| T) of
# rounding, which exp turns into relative error. Measured at n = 1e5: at most
# 0.16 of that bound (exact) and 0.19 (nabla).
ORACLE_N = 10**5


@pytest.mark.parametrize("start", [0.0, 1e4, 1e8])
def test_grid_exact_and_nabla_against_their_closed_forms(start):
    eps = 2.0**-10
    ts = uniform(start, eps, ORACLE_N)
    grid = ts.make_grid(ts.inf, ts.sup, 1.0)
    for alpha in (2.4j, -0.3 + 0.4j):
        bound = ORACLE_N * U * (1 + abs(alpha) * (ts.sup - ts.inf))
        ev = exp_evaluate_grid(ExpFamily.EXACT, ts, alpha, start, grid)
        want = [exp_exact(alpha, p, start) for p in grid.points]
        assert _fold_error(ev.values, want) <= bound
        ev = exp_evaluate_grid(ExpFamily.NABLA_CONST, ts, alpha, start, grid)
        want = [exp_nabla_const(eps, alpha, k * eps) for k in range(ORACLE_N)]
        assert _fold_error(ev.values, want) <= bound


def test_exact_unit_circle_within_one_ulp():
    # mu*(1j*omega) and the dense pieces of 1j*omega are purely imaginary
    ts = union(interval(0.0, 2.0), isolated(2.3, 2.6), interval(3.0, 5.0))
    ev = exp_evaluate_grid(ExpFamily.EXACT, ts, 2.5j, 1.0, ts.make_grid(0.0, 5.0, 1e-3))
    assert max(abs(abs(v) - 1.0) for v in ev.values) <= 2.0**-52
    ts = uniform(0.0, 1e-3, 4000)
    ev = exp_evaluate_grid(ExpFamily.EXACT, ts, 2.5j, 0.0, ts.make_grid(ts.inf, ts.sup, 1.0))
    assert max(abs(abs(v) - 1.0) for v in ev.values) <= 2.0**-52


# -- family properties ---------------------------------------------------------------


def test_semigroup_examples():
    assert check_semigroup(ExpFamily.CAYLEY, Z4, 1, 3, 1, 0) < 1e-11
    assert check_semigroup(ExpFamily.HILGER_DELTA, Z4, 1, 2, 2, 2) == 0.0
    assert check_semigroup(ExpFamily.CAYLEY, MIXED, 1, 2, 1, 0) < 1e-12


def test_sigma_shift_examples():
    assert check_sigma_shift(ExpFamily.CAYLEY, Z4, 1, 1, 0) < 1e-13
    assert check_sigma_shift(ExpFamily.CAYLEY, MIXED, 1, 0.5, 0) == 0.0
    assert check_sigma_shift(ExpFamily.HILGER_DELTA, Z4, 1, 1, 0) < 1e-13
    with pytest.raises(ValueError):
        check_sigma_shift(ExpFamily.EXACT, Z4, 1, 1, 0)


@pytest.mark.parametrize("seed", range(6))
def test_inverse_and_conjugation(seed):
    rng = np.random.default_rng(seed)
    ts = random_scale(rng)
    mu_max = max_graininess(ts)
    bound = 1.6 / mu_max if mu_max > 0 else 4.0
    a = complex(rng.uniform(-bound, bound), rng.uniform(-bound, bound))
    t = ts.sup
    e_plus = exp_cayley(ts, a, t, ts.inf)
    e_minus = exp_cayley(ts, -a, t, ts.inf)
    assert abs(e_plus * e_minus - 1.0) < 1e-12
    e_conj = exp_cayley(ts, a.conjugate(), t, ts.inf)
    assert abs(e_plus.conjugate() - e_conj) < 1e-12 * max(1.0, abs(e_plus))


@pytest.mark.parametrize("seed", range(6))
def test_product_law_with_pointwise_addition(seed):
    rng = np.random.default_rng(100 + seed)
    ts = random_scale(rng)
    mu_max = max_graininess(ts)
    bound = 1.6 / mu_max if mu_max > 0 else 4.0
    a = float(rng.uniform(-bound, bound))
    b = float(rng.uniform(-bound, bound))
    combo = graininess_coefficient(ts, lambda mu, s: oplus_cayley(mu, a, b))
    t = ts.sup
    lhs = exp_cayley(ts, a, t, ts.inf) * exp_cayley(ts, b, t, ts.inf)
    rhs = exp_cayley(ts, combo, t, ts.inf)
    assert abs(lhs - rhs) < 1e-11 * max(1.0, abs(rhs))


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=-8, max_value=8, allow_nan=False))
def test_unit_circle(omega):
    ts = union(interval(0.0, 0.8), isolated(1.5, 2.1, 3.0))
    grid = ts.make_grid(ts.inf, ts.sup, 0.3)
    ev = exp_evaluate_grid(ExpFamily.CAYLEY, ts, 1j * omega, ts.inf, grid)
    for v in ev.values:
        assert abs(abs(v) - 1.0) < 1e-12


@pytest.mark.parametrize("alpha", [-1.8, -0.3, 0.0, 0.9, 1.9])
def test_positivity_for_positively_regressive(alpha):
    ts = union(interval(0.0, 1.0), isolated(2.0, 3.0))
    grid = ts.make_grid(0, 3, 0.25)
    ev = exp_evaluate_grid(ExpFamily.CAYLEY, ts, alpha, 0.0, grid)
    for v in ev.values:
        assert v.real > 0.0
        assert abs(v.imag) < 1e-13 * abs(v)


@pytest.mark.parametrize("seed", range(4))
def test_cayley_equals_hilger_with_corresponding_coefficient(seed):
    rng = np.random.default_rng(200 + seed)
    ts = random_scale(rng)
    mu_max = max_graininess(ts)
    bound = 1.5 / mu_max if mu_max > 0 else 3.0
    a = float(rng.uniform(-bound, bound))
    beta = graininess_coefficient(ts, lambda mu, s: beta_of_alpha(mu, a))
    grid = ts.make_grid(ts.inf, ts.sup, 0.3)
    ec = exp_evaluate_grid(ExpFamily.CAYLEY, ts, a, ts.inf, grid)
    eh = exp_evaluate_grid(ExpFamily.HILGER_DELTA, ts, beta, ts.inf, grid)
    for u, v in zip(ec.values, eh.values):
        assert abs(u - v) < 1e-11 * max(1.0, abs(u))


def test_piecewise_coefficient_end_to_end():
    # branch switches inside the gap, so the coefficient is continuous on
    # the continuous piece; hand-computed factor oracle
    ts = union(interval(0.0, 1.0), isolated(1.5, 2.0))
    coeff = Coefficient.piecewise([1.2], [0.5, 1.0])
    got = exp_hilger(ts, coeff, 2.0, 0.0)
    ref = math.exp(0.5) * (1 + 0.5 * 0.5) * (1 + 0.5 * 1.0)
    assert abs(got - ref) < 1e-13 * ref


def test_tabulated_coefficient_end_to_end():
    ts = uniform(0, 1, 3)
    coeff = Coefficient.tabulated([0.0, 1.0, 2.0], [0.5, 1.0, 9.9])
    got = exp_hilger(ts, coeff, 2.0, 0.0)
    assert abs(got - 1.5 * 2.0) < 1e-14


def test_quadrature_reports_non_convergence():
    from tscale import ToleranceError

    ts = interval(0.0, 1.0)
    step = lambda s: 0.0 if s < 1 / 3 else 1.0
    with pytest.raises(ToleranceError):
        ts.delta_integral(step, 0.0, 1.0, 1e-15)


def test_convergence_orders_quick():
    from tscale.cli import convergence_study, fit_loglog_slope

    eps = [2.0 ** -k for k in range(4, 9)]
    rows_c = convergence_study("cayley", 1.0, 1.0, eps)
    rows_h = convergence_study("hilger", 1.0, 1.0, eps)
    slope_c = fit_loglog_slope([e for e, _ in rows_c], [r for _, r in rows_c])
    slope_h = fit_loglog_slope([e for e, _ in rows_h], [r for _, r in rows_h])
    assert 1.9 < slope_c < 2.1
    assert 0.9 < slope_h < 1.1
    rows_e = convergence_study("exact", 1.0, 1.0, eps)
    assert all(err <= 1e-13 for _, err in rows_e)


# -- one validate-and-accumulate pass against the two-pass reference ------------------

POINTWISE = {ExpFamily.CAYLEY: exp_cayley, ExpFamily.HILGER_DELTA: exp_hilger}

# 1 + mu*alpha or mu*alpha = ±2 vanish on the 0.25 and 1.0 gaps of tight scales
PROPERTY_COEFFS = [
    Coefficient.constant(0.7 - 0.4j),
    Coefficient.constant(-1.0),
    Coefficient.constant(-4.0),
    Coefficient.constant(2.0),
    Coefficient.constant(-8.0),
    Coefficient.from_function(
        lambda t: 0.6 - 0.4j + 0.3 * math.sin(3.0 * t),
        dense_fn=lambda t: 0.6 - 0.4j + 0.3 * math.sin(3.0 * t),
    ),
]


@settings(max_examples=300, deadline=None)
@given(any_scale(), st.data())
def test_pointwise_exponentials_match_two_pass_reference(ts, data):
    """exp_cayley and exp_hilger equal, bit for bit, the
    validate-then-accumulate computation on linear scans, errors included,
    with t on either side of t0."""
    t, t0 = data.draw(st.lists(probe_points(ts), min_size=2, max_size=2))
    coeff = data.draw(st.sampled_from(PROPERTY_COEFFS))
    for a, b in ((t, t0), (t0, t)):
        for family, fn in POINTWISE.items():
            assert outcome(fn, ts, coeff, a, b) == outcome(
                reference_exp, family, ts, coeff, a, b
            )


@settings(max_examples=300, deadline=None)
@given(any_scale(), st.data(), st.floats(allow_nan=False, allow_infinity=False))
def test_cayley_exponential_of_an_imaginary_coefficient_is_unimodular(ts, data, omega):
    """The Cayley exponential of 1j*omega lies on the unit circle to one ulp
    at any finite omega and any step count, with t on either side of t0:
    its step logs are purely imaginary. A non-member t or t0 is a
    DomainError, and a phase that overflows on a dense piece a
    ToleranceError."""
    t, t0 = data.draw(st.lists(probe_points(ts), min_size=2, max_size=2))
    for a, b in ((t, t0), (t0, t)):
        try:
            e = exp_cayley(ts, 1j * omega, a, b)
        except (DomainError, ToleranceError):
            continue
        assert abs(abs(e) - 1.0) <= 2**-52


@settings(max_examples=100, deadline=None)
@given(
    st.integers(2, 2000),
    st.floats(min_value=1e-4, max_value=1.0),
    st.floats(allow_nan=False, allow_infinity=False),
)
def test_cayley_grid_exponential_of_an_imaginary_coefficient_is_unimodular(n, h, omega):
    """The same on the grid of a long uniform scale, where a real part of
    the step logs, were it kept, would add up over the steps."""
    ts = uniform(0.0, h, n)
    grid = ts.make_grid(0.0, ts.sup, 1.0)
    ev = exp_evaluate_grid(ExpFamily.CAYLEY, ts, 1j * omega, 0.0, grid)
    assert max(abs(abs(e) - 1.0) for e in ev.values) <= 2**-52


class _Counting:
    """A coefficient whose scattered and dense evaluations are counted."""

    def __init__(self, fn):
        self.scattered = self.dense = 0

        def at_scattered(t):
            self.scattered += 1
            return fn(t)

        def at_dense(t):
            self.dense += 1
            return fn(t)

        self.coeff = Coefficient.from_function(at_scattered, dense_fn=at_dense)


@pytest.mark.parametrize("family", list(POINTWISE))
def test_pointwise_exponential_calls_coefficient_once_per_step(family):
    ts = union(interval(0.0, 1.0), uniform(1.5, 0.25, 8), interval(4.0, 5.0))
    counting = _Counting(lambda t: 0.3 - 0.2j * t)
    for t, t0 in ((4.5, 0.5), (0.5, 4.5), (2.25, 1.5)):
        counting.scattered = 0
        POINTWISE[family](ts, counting.coeff, t, t0)
        assert counting.scattered == len(ts.scattered_points(t0, t))


@pytest.mark.parametrize(
    "family, alpha", [(ExpFamily.HILGER_DELTA, -4.0), (ExpFamily.CAYLEY, 8.0)]
)
def test_first_regressivity_error_is_the_validation_pass_error(family, alpha):
    # the coefficient degenerates at 2.25 and again at 2.75; the first in
    # ascending order is reported whichever end t0 is
    ts = uniform(1.5, 0.25, 8)
    bad = {2.25, 2.75}
    coeff = Coefficient.from_function(lambda t: alpha if t in bad else 0.1)
    for t, t0 in ((3.25, 1.5), (1.5, 3.25)):
        got = outcome(POINTWISE[family], ts, coeff, t, t0)
        assert got == outcome(reference_exp, family, ts, coeff, t, t0)
        assert got[0] == "RegressivityError" and got[2] == 2.25


# -- running exponents against the one-pass reference ---------------------------------

# the coefficients of the pairs property plus overflowing ones, whose dense
# pieces have an infinite quadrature estimate
RUNNING_COEFFS = PROPERTY_COEFFS + [Coefficient.constant(1e308), Coefficient.constant(1e308j)]


# an anchor an ulp past an interval's end, where the ulp exceeds the
# membership tolerance, followed by points; a target an ulp past the
# supremum, likewise; and a run across three intervals
_ULP_PAST = union(interval(1e4, 1e4 + 0.5), isolated(1e4 + 1.0, 1e4 + 1.25, 1e4 + 1.5))
_ULP_PAST_SUP = union(isolated(1e4 - 1.0, 1e4 - 0.5), interval(1e4, 1e4 + 0.5))
_INTERVALS = union(
    interval(0.0, 1.0), isolated(1.5), interval(2.0, 3.0), isolated(3.25, 3.5), interval(4.0, 5.0)
)


@settings(max_examples=300, deadline=None)
@given(
    any_scale().flatmap(lambda ts: st.tuples(st.just(ts), probe_points(ts), probe_points(ts))),
    st.sampled_from(RUNNING_COEFFS),
)
@example((_ULP_PAST, 1e4 + 1.5, math.nextafter(1e4 + 0.5, math.inf)), PROPERTY_COEFFS[0])
@example((_ULP_PAST_SUP, math.nextafter(1e4 + 0.5, math.inf), 1e4 - 1.0), PROPERTY_COEFFS[0])
@example((_INTERVALS, 4.5, 0.5), PROPERTY_COEFFS[0])
@example((_INTERVALS, 4.5, 0.5), PROPERTY_COEFFS[-1])
def test_log_integral_range_is_the_one_pass_fold(case, coeff):
    """_log_integral_range, one target of a running exponent, equals the
    one-pass fold bit for bit, errors included, with t on either side of t0."""
    ts, t, t0 = case
    for a, b in ((t, t0), (t0, t)):
        for family in POINTWISE:
            assert outcome(_log_integral_range, family, ts, coeff, a, b, 1e-12) == outcome(
                reference_log_integral_range, family, ts, coeff, a, b, 1e-12
            )


@settings(max_examples=200, deadline=None)
@given(any_scale(), st.data())
def test_running_exponents_equal_one_pass_per_target(ts, data):
    """Runs from several anchors over shared terms, their targets taken row
    by row as the semigroup report takes them: every value equals the
    one-pass fold from its anchor, errors included, and a run goes on past
    an error. Anchors and targets are grid points, interior points of
    intervals and interval ends nudged within the membership tolerance."""
    step = data.draw(st.sampled_from([0.1, 0.3, 1.0]))
    members = set(ts.make_grid(ts.inf, ts.sup, step).points)
    for p in data.draw(st.lists(probe_points(ts), max_size=6)):
        if p in ts:
            members.add(p)
    targets = sorted(members)[:40]
    family = data.draw(st.sampled_from(list(POINTWISE)))
    coeff = data.draw(st.sampled_from(RUNNING_COEFFS))
    terms = _Terms(family, ts, coeff, 1e-12)
    runs = []
    for x in targets:
        runs.append((x, _Exponent(terms, x)))
        for anchor, run in runs:
            assert outcome(run.to, x) == outcome(
                reference_log_integral_range, family, ts, coeff, anchor, x, 1e-12
            )


# a constant whose first Simpson step over [1e4, 1e4 + 0.1] refines at tol 1e-12
_REFINING = complex(831988.9607137693, -813456.2712951798)

# the cases of the dense pieces' one kernel call: a constant, one whose first
# step refines, one whose estimate overflows, a function and a step function
# (no constant dense view, adaptive Simpson for every piece)
PIECE_COEFFS = [
    Coefficient.constant(0.7 - 0.4j),
    Coefficient.constant(_REFINING),
    Coefficient.constant(1e308),
    PROPERTY_COEFFS[-1],
    Coefficient.piecewise([0.5, 1e4 + 0.25], [0.3 - 0.2j, -0.5 + 1j, 0.1j]),
]

PIECE_SCALES = [
    _INTERVALS,
    _ULP_PAST,
    _ULP_PAST_SUP,
    union(interval(1e4, 1e4 + 0.1), isolated(1e4 + 0.2), interval(1e4 + 0.3, 1e4 + 0.4)),
    union(*(interval(0.11 * k, 0.11 * k + 0.05) for k in range(8)), isolated(0.9)),
]


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.sampled_from(PIECE_SCALES), any_scale()), st.data())
def test_pointwise_exponentials_equal_the_per_piece_reference(ts, data):
    """exp_cayley and exp_hilger, and runs from several anchors over shared
    terms, equal the per-piece reference bit for bit, errors included: one
    adaptive Simpson quadrature per dense piece, no batched first step.
    Targets are interval ends, interior points, make_grid points and an ulp
    past the supremum; anchors lie at interval ends and inside intervals;
    a run goes on past an error."""
    family = data.draw(st.sampled_from(list(POINTWISE)))
    coeff = data.draw(
        st.sampled_from(
            PIECE_COEFFS
            + [graininess_coefficient(ts, lambda mu, s: 0.4 - 0.3j + mu, dense_value=0.4 - 0.3j)]
        )
    )
    tol = data.draw(st.sampled_from([1e-12, 1e-6, math.nan]))
    ends = {e for c in ts.components for e in (c.left, c.right)}
    inner = {0.5 * (c.lo + c.hi) for c in ts.components if isinstance(c, ClosedInterval)}
    grid = set(ts.make_grid(ts.inf, ts.sup, data.draw(st.sampled_from([0.05, 0.3]))).points)
    past = math.nextafter(ts.sup, math.inf)
    targets = sorted(t for t in ends | inner | grid | {past} if t in ts)[:30]
    anchors = data.draw(st.lists(st.sampled_from(sorted(ends | inner)), min_size=1, max_size=3))
    for t0 in anchors[:2]:
        for t in (targets[0], targets[-1], past):
            for a, b in ((t, t0), (t0, t)):
                assert outcome(POINTWISE[family], ts, coeff, a, b, tol) == outcome(
                    reference_exp_point, family, ts, coeff, a, b, tol
                )
    terms = _Terms(family, ts, coeff, tol)
    runs = [(t0, _Exponent(terms, t0)) for t0 in sorted(anchors)]
    for x in targets:
        for t0, run in runs:
            if x >= t0:
                assert outcome(run.to, x) == outcome(
                    reference_log_integral_range, family, ts, coeff, t0, x, tol
                )


def _periodic_union(pairs):
    """The benchmark library job's scale: an interval of length 0.05, a
    point 0.08 on, the next interval 0.03 on, pairs times."""
    comps, x = [], 0.0
    for _ in range(pairs):
        comps.append(interval(x, x + 0.05))
        x += 0.08
        comps.append(isolated(x))
        x += 0.03
    return union(*comps)


# scales that repeat their gaps: a few distinct ones near 0, more near 1e4,
# where the gaps carry the rounding of the points
REPEATED_GAP_SCALES = [
    uniform(0.0, 1e-3, 60),
    uniform(0.0, 0.25, 12),
    uniform(1e4, 0.1, 40),
    uniform(1e4, 1e-3, 40),
    _periodic_union(12),
]

# a constant, a varying function and two whose values repeat up to the
# sign of a zero
MEMO_COEFFS = [
    Coefficient.constant(-0.3 + 1.7j),
    Coefficient.from_function(lambda t: 0.6 - 0.4j + 0.3 * math.sin(3.0 * t)),
    Coefficient.from_function(
        lambda t: complex(
            math.copysign(0.0, math.sin(7.0 * t)), math.copysign(0.0, math.cos(5.0 * t))
        )
    ),
    Coefficient.from_function(lambda t: complex(-0.4, math.copysign(0.0, math.sin(7.0 * t)))),
]


@st.composite
def _degenerating_piecewise(draw, ts, family):
    """A piecewise coefficient that degenerates at one scattered step only,
    one whose gap an earlier step passed with."""
    steps = ts.scattered_points(ts.inf, ts.sup)
    seen, later = set(), []
    for j, (s, mu) in enumerate(steps[:-1]):
        if mu in seen:
            later.append(j)
        seen.add(mu)
    j = draw(st.sampled_from(later))
    (s, mu), (nxt, _) = steps[j], steps[j + 1]
    bad = -1.0 / mu if family is ExpFamily.HILGER_DELTA else 2.0 / mu
    return Coefficient.piecewise([s, nxt], [0.3 - 0.2j, bad, 0.3 - 0.2j])


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(REPEATED_GAP_SCALES), st.data())
def test_step_log_memo_is_the_one_pass_fold(ts, data):
    """On scales that repeat their gaps, runs over shared terms equal the
    one-pass fold bit for bit, errors included, so a memoized step log is
    the log a pass takes, and a degenerate step is caught however many
    steps of its gap passed before it."""
    family = data.draw(st.sampled_from(list(POINTWISE)))
    coeff = data.draw(
        st.one_of(st.sampled_from(MEMO_COEFFS), _degenerating_piecewise(ts, family))
    )
    members = ts.make_grid(ts.inf, ts.sup, 0.01).points
    anchors = sorted(data.draw(st.lists(st.sampled_from(members), min_size=1, max_size=3)))
    targets = sorted(data.draw(st.lists(st.sampled_from(members), min_size=1, max_size=8)))
    terms = _Terms(family, ts, coeff, 1e-12)
    for anchor in anchors:
        run = _Exponent(terms, anchor)
        for x in targets:
            if x < anchor:
                continue
            assert outcome(run.to, x) == outcome(
                reference_log_integral_range, family, ts, coeff, anchor, x, 1e-12
            )
        for a, b in ((anchor, ts.sup), (ts.sup, anchor)):
            assert outcome(_log_integral_range, family, ts, coeff, a, b, 1e-12) == outcome(
                reference_log_integral_range, family, ts, coeff, a, b, 1e-12
            )


def test_a_degenerate_step_after_passing_steps_of_its_gap_raises():
    # mu = 0.5 throughout; (0.5, 0.5) passes twice before (0.5, -2) degenerates
    coeff = Coefficient.piecewise([0.75], [0.5, -2])
    with pytest.raises(RegressivityError) as err:
        exp_hilger(uniform(0.0, 0.5, 4), coeff, 1.5, 0.0)
    assert err.value.t == 1.0


def test_a_constant_coefficient_reports_its_first_degenerate_step():
    """Each distinct m is checked once, in order of its first step: of two
    degenerate values, the one met first is reported, where it is met."""
    ts = isolated(0.0, 0.25, 0.7500000001, 1.2500000001, 1.5000000001)
    grid = ts.make_grid(ts.inf, ts.sup, 0.1)
    m = (0.7500000001 - 0.25) * complex(-2.0)
    with pytest.raises(RegressivityError) as err:
        exp_evaluate_grid(ExpFamily.HILGER_DELTA, ts, -2.0, 0.0, grid)
    assert err.value.t == 0.25
    assert str(err.value) == f"1 + mu*alpha = {1.0 + m!r} at t=0.25"


def test_a_uniform_scale_takes_its_one_step_log_once(monkeypatch):
    xis, calls = [], []
    xi, call = transforms.xi, Coefficient.__call__
    monkeypatch.setattr(transforms, "xi", lambda h, z: xis.append(h) or xi(h, z))
    monkeypatch.setattr(Coefficient, "__call__", lambda c, t: calls.append(t) or call(c, t))
    ts = uniform(0.0, 2**-10, 1025)
    got = exp_hilger(ts, 0.5, 1.0, 0.0)
    assert xis == [2**-10]
    assert len(calls) == 1
    assert got == reference_exp(ExpFamily.HILGER_DELTA, ts, Coefficient.constant(0.5), 1.0, 0.0)


def _distinct_gap_points(n, seed):
    """n random isolated points whose gaps are all distinct."""
    rng = np.random.default_rng(seed)
    pts = np.cumsum(rng.uniform(0.001, 0.002, n)).tolist()
    gaps = [b - a for a, b in zip(pts, pts[1:])]
    assert len(set(gaps)) == len(gaps)
    return pts


@pytest.mark.parametrize(
    "family, cylinder", [(ExpFamily.HILGER_DELTA, "xi"), (ExpFamily.CAYLEY, "zeta")]
)
def test_a_constant_coefficient_takes_one_log_per_distinct_gap(monkeypatch, family, cylinder):
    """On 2,000 points with every gap distinct, runs from three anchors
    over shared terms take one cylinder map per gap in all, and each value
    is the one-pass fold."""
    pts = _distinct_gap_points(2000, 11)
    ts, coeff = isolated(*pts), Coefficient.constant(-0.3 + 1.7j)
    cases = [(pts[0], pts[-1]), (pts[0], pts[700]), (pts[300], pts[1500]), (pts[300], pts[-1])]
    want = [reference_log_integral_range(family, ts, coeff, a, b, 1e-12) for a, b in cases]
    maps = []
    fn = getattr(transforms, cylinder)
    monkeypatch.setattr(transforms, cylinder, lambda h, z: maps.append(h) or fn(h, z))
    assert _log_integral_range(family, ts, coeff, pts[0], pts[-1], 1e-12) == want[0]
    assert len(maps) == len(set(maps)) == len(pts) - 1
    maps.clear()
    terms = _Terms(family, ts, coeff, 1e-12)
    first, second = _Exponent(terms, pts[0]), _Exponent(terms, pts[300])
    got = [first.to(pts[700]), second.to(pts[1500]), second.to(pts[-1]), first.to(pts[-1])]
    assert got == [want[1], want[2], want[3], want[0]]
    assert sorted(maps) == sorted(b - a for a, b in zip(pts, pts[1:]))


@pytest.mark.parametrize(
    "family, alpha", [(ExpFamily.HILGER_DELTA, -2.0), (ExpFamily.CAYLEY, 4.0)]
)
def test_a_degenerate_gap_deep_in_a_stretch_raises_at_its_first_step(family, alpha):
    """Gaps of 0.5 + 2**-32 and 0.5 degenerate the constant alpha, within
    the margin and exactly: the first is met at point 1500 of 2,001, the
    second at point 1600 and again at point 1800, every other gap distinct
    and passing. The error is raised at the first degenerate step, with
    the one-pass fold's message, on every path to it. The points are whole
    multiples of 2**-40, so every gap is exact."""
    units = (np.random.default_rng(12).permutation(np.arange(1000, 3000)) * 2**20).tolist()
    units[1500] = 2**39 + 2**8
    units[1600] = units[1800] = 2**39
    pts = [0.0]
    for u in units:
        pts.append(pts[-1] + u * 2**-40)
    ts, coeff = isolated(*pts), Coefficient.constant(alpha)
    want = outcome(reference_log_integral_range, family, ts, coeff, pts[0], pts[-1], 1e-12)
    assert want[0] == "RegressivityError" and want[2] == pts[1500]
    assert outcome(_log_integral_range, family, ts, coeff, pts[0], pts[-1], 1e-12) == want
    assert outcome(_log_integral_range, family, ts, coeff, pts[-1], pts[0], 1e-12) == want
    run = _Exponent(_Terms(family, ts, coeff, 1e-12), pts[0])
    assert outcome(run.to, pts[1400]) == outcome(
        reference_log_integral_range, family, ts, coeff, pts[0], pts[1400], 1e-12
    )
    assert outcome(run.to, pts[-1]) == want
    assert outcome(run.to, pts[1600]) == want  # the run goes on from pts[1400]


def test_running_exponent_rejects_a_descending_target():
    run = _Exponent(_Terms(ExpFamily.CAYLEY, Z4, Coefficient.constant(0.5), 1e-12), 1.0)
    assert run.to(3.0) == reference_log_integral_range(
        ExpFamily.CAYLEY, Z4, Coefficient.constant(0.5), 1.0, 3.0, 1e-12
    )
    with pytest.raises(ValueError, match="below the last target"):
        run.to(2.0)


@pytest.mark.parametrize(
    "spec", ["points(0,0.1,0.6,0.7)", "points(0,0.1,0.6,0.7)+interval(1,2)"]
)
def test_a_degenerate_gap_after_good_ones_is_reported_where_it_is_met(spec):
    """The gap 0.5 at t = 0.1 degenerates alpha = -2 for the forward step,
    after the passing gap 0.1 at t = 0 and before the distinct passing gap
    at t = 0.6. Every path raises the error a loop over the steps raises,
    whatever the order the gaps are first read in."""
    ts = parse_scale(spec)
    grid = ts.make_grid(ts.inf, ts.sup, 0.25)
    want = ("RegressivityError", "1 + mu*alpha = 0j at t=0.1", 0.1)
    assert outcome(exp_hilger, ts, -2.0, 0.1, 0.0) == outcome(
        reference_exp_point, ExpFamily.HILGER_DELTA, ts, Coefficient.constant(-2.0), 0.1, 0.0, 1e-12
    )
    for t, t0 in ((0.6, 0.0), (ts.sup, 0.0), (0.0, ts.sup), (0.7, 0.1)):
        assert outcome(exp_hilger, ts, -2.0, t, t0) == want
    assert outcome(exp_evaluate_grid, ExpFamily.HILGER_DELTA, ts, -2.0, 0.0, grid) == want
    assert outcome(solve_first_order, Scheme.EXPLICIT_DELTA, ts, -2.0, 1.0, 0.0, grid) == (
        "RegressivityError", "1 + mu*beta = 0j at t=0.1", 0.1
    )
    run = _exp_runs(ExpFamily.HILGER_DELTA, ts, Coefficient.constant(-2.0), 1e-12)(0.0)
    assert outcome(run, 0.1) == outcome(exp_hilger, ts, -2.0, 0.1, 0.0)
    assert outcome(run, 0.6) == want
    assert outcome(run, ts.sup) == want  # the run goes on from 0.1


def test_a_degenerate_delbis_gap_is_reported_as_before():
    """delbis takes each gap's oscillator step once; a gap with
    |omega*mu| >= pi raises the message it raised, at the first point."""
    ts = uniform(0.0, 0.5, 8)
    grid = ts.make_grid(ts.inf, ts.sup, 0.25)
    x = SampledFunction(grid, tuple(map(complex, range(8))))
    assert outcome(delbis_relation_residual, ts, 7.0, x, grid) == (
        "SingularError", "|omega*mu| = 3.5 must stay below pi", None
    )


def test_each_distinct_gap_is_checked_and_logged_once_per_terms(monkeypatch):
    """Over shared terms, runs from two anchors and their targets check
    each distinct gap and take its log once, in order of first occurrence,
    however the gaps repeat within and across the stretches an interval
    splits; every value is the one-pass fold."""
    gaps = [0.25, 0.5, 0.25, 0.125, 0.5, 0.125, 0.375, 0.25]
    pts = [0.0]
    for g in gaps + gaps[::-1]:
        pts.append(pts[-1] + g)
    ts = union(isolated(*pts[:9]), interval(3.0, 4.0), isolated(*[p + 2.0 for p in pts[9:]]))
    coeff = Coefficient.constant(-0.3 + 0.4j)
    cases = [(0.0, 1.0), (0.0, 2.375), (1.125, 3.5), (0.0, ts.sup), (1.125, ts.sup)]
    want = [
        reference_log_integral_range(ExpFamily.HILGER_DELTA, ts, coeff, a, x, 1e-12)
        for a, x in cases
    ]
    checks, logs = [], []
    rule = transforms.FORWARD_RULE
    counted = dataclasses.replace(
        rule,
        log=lambda mu, a: logs.append(mu) or rule.log(mu, a),
        degenerate=lambda m: checks.append(m) or rule.degenerate(m),
    )
    monkeypatch.setitem(exponential._STEP_RULES, ExpFamily.HILGER_DELTA, counted)
    terms = _Terms(ExpFamily.HILGER_DELTA, ts, coeff, 1e-12)
    runs = {a: _Exponent(terms, a) for a in (0.0, 1.125)}
    assert [runs[a].to(x) for a, x in cases] == want
    # 0.625: from the last point below the interval to it, and from it on
    assert logs == [0.25, 0.5, 0.125, 0.375, 0.625]
    assert len(checks) == len(logs)


@pytest.mark.parametrize(
    "argv, family, per_gap",
    [
        # the trig exponential of 1j*omega and the deformation
        (["--identity", "pythagorean", "--family", "bp"], ExpFamily.HILGER_DELTA, 2),
        # e_alpha, e_beta and the exponential of their circle-plus
        (["--identity", "product-law", "--family", "cayley", "--alpha=-0.25,0.35"],
         ExpFamily.CAYLEY, 3),
        (["--identity", "product-law", "--family", "hilger", "--alpha=-0.25,0.35"],
         ExpFamily.HILGER_DELTA, 3),
    ],
)
def test_graininess_only_coefficients_log_each_gap_once(monkeypatch, capsys, argv, family, per_gap):
    """The Bohner-Peterson deformation and the product law's circle-plus
    are functions of the gap alone: on uniform(0,1e-3,1000) each
    exponential of a report takes each distinct gap's step log once, 18
    logs (xi calls) for the pythagorean report and 27 (zeta or xi) for a
    product law, where a log at every step made 1,008 and 1,017."""
    scale = "uniform(0,1e-3,1000)"
    ts = parse_scale(scale)
    gaps = {mu for _, mu in ts.scattered_points(ts.inf, ts.sup)}
    logs = []
    rule = exponential._STEP_RULES[family]
    counted = dataclasses.replace(rule, log=lambda mu, a: logs.append(mu) or rule.log(mu, a))
    monkeypatch.setitem(exponential._STEP_RULES, family, counted)
    assert cli.main(["identity", "--scale", scale, *argv]) == 0
    assert collections.Counter(logs) == dict.fromkeys(gaps, per_gap)
    assert len(logs) == {2: 18, 3: 27}[per_gap]


def test_a_grid_fold_takes_each_gap_once_on_both_sides_of_its_anchor(monkeypatch):
    """A grid exponential and a solve anchored inside the grid fold forward
    and back from the anchor through one memo: on uniform(0,0.25,9) at
    t0 = 1.0 the one gap 0.25 has its Cayley step log taken once, and its
    trapezoidal factor once, where each side took its own."""
    ts = uniform(0.0, 0.25, 9)
    grid = ts.make_grid(ts.inf, ts.sup, 0.25)
    alpha = 0.5 - 0.25j
    evaluate = lambda: exp_evaluate_grid(ExpFamily.CAYLEY, ts, alpha, 1.0, grid).values
    solve = lambda: solve_first_order(Scheme.TRAPEZOIDAL_CAYLEY, ts, alpha, 1.0, 1.0, grid).values
    want = evaluate(), solve()
    logs, factors = [], []
    rule = transforms.CAYLEY_RULE
    counted = dataclasses.replace(
        rule,
        log=lambda mu, a: logs.append(mu) or rule.log(mu, a),
        factor=lambda mu, a: factors.append(mu) or rule.factor(mu, a),
    )
    monkeypatch.setitem(exponential._STEP_RULES, ExpFamily.CAYLEY, counted)
    monkeypatch.setitem(dynamic._SCHEME_RULES, Scheme.TRAPEZOIDAL_CAYLEY, (counted, "alpha"))
    assert (evaluate(), solve()) == want
    assert logs == [0.25] and factors == [0.25]


@pytest.mark.parametrize("spec", ["points(0,0.1,0.6,0.7)", "points(0,0.1,0.6,0.7)+interval(1,2)"])
def test_a_graininess_only_coefficient_fails_at_its_first_degenerate_gap(spec):
    """-4 mu passes the forward step's check at the gap 0.1 and degenerates
    it at the gap 0.5 from t = 0.1 (1 + 0.5 * -2 = 0). Marked as a function
    of the gap, every checked path raises the error it raises read at
    every step, at the same t."""
    ts = parse_scale(spec)
    grid = ts.make_grid(ts.inf, ts.sup, 0.25)
    plain = lambda: graininess_coefficient(ts, lambda mu, s: -4.0 * mu, 0.0)
    calls = [
        lambda c: exp_evaluate_grid(ExpFamily.HILGER_DELTA, ts, c, 0.0, grid),
        lambda c: exp_evaluate_grid(ExpFamily.HILGER_DELTA, ts, c, ts.sup, grid),
        lambda c: exp_hilger(ts, c, ts.sup, 0.0),
        lambda c: exp_hilger(ts, c, 0.0, ts.sup),
        lambda c: _exp_runs(ExpFamily.HILGER_DELTA, ts, c, 1e-12)(0.0)(0.7),
        lambda c: solve_first_order(Scheme.EXPLICIT_DELTA, ts, c, 1.0, 0.0, grid),
    ]
    got = [outcome(call, transforms._graininess_only(plain())) for call in calls]
    assert got == [outcome(call, plain()) for call in calls]
    want = ("RegressivityError", "1 + mu*alpha = 0j at t=0.1", 0.1)
    assert got[:-1] == [want] * 5
    assert got[-1] == ("RegressivityError", "1 + mu*beta = 0j at t=0.1", 0.1)


def test_no_reference_cycle_keeps_a_scale():
    """With the cyclic collector off, a scale dies with its last reference
    after a pointwise value, a grid evaluation and a running exponent:
    nothing they leave behind refers to it in a cycle."""
    calls = [
        lambda ts: exp_cayley(ts, 0.5j, 3.5, 0.0),
        lambda ts: exp_evaluate_grid(ExpFamily.CAYLEY, ts, 0.5j, 0.0, ts.make_grid(0, 4, 0.25)),
        lambda ts: _exp_runs(ExpFamily.CAYLEY, ts, Coefficient.constant(0.5j), 1e-12)(0.0)(3.5),
    ]
    gc.collect()
    gc.disable()
    try:
        for call in calls:
            ts = union(uniform(0.0, 0.125, 20), interval(3.0, 4.0))
            ref = weakref.ref(ts)
            call(ts)
            del ts
            assert ref() is None
    finally:
        gc.enable()


_PIECES_SCALE = union(interval(0, 1), isolated(1.5), interval(2, 3), isolated(3.5), interval(4, 5))


@pytest.mark.parametrize(
    "coeff",
    [Coefficient.constant(0.5 - 0.25j), Coefficient.from_function(lambda t: cmath.exp(1j * t))],
    ids=["constant", "function"],
)
@pytest.mark.parametrize(
    "anchor, targets",
    [
        (1.0, (4.5,)),  # at an interval's right end: its piece is empty
        (0.3, (2.5, 4.5)),  # inside an interval, then a target in the interval after
        (1.5, (4.5, 5.0)),  # at an isolated point
        (0.3, (0.7, 3.5, 5.0)),
    ],
)
def test_pieces_clip_only_the_first_interval(coeff, anchor, targets):
    """The passed intervals' pieces, taken whole but for the first clipped
    at the anchor, are the ones every interval clipped at both ends gave,
    bit for bit, and each target's exponent is the one-pass fold."""
    ts, family = _PIECES_SCALE, ExpFamily.CAYLEY
    terms = _Terms(family, ts, coeff, 1e-12)
    k, a = ts._locate(anchor)
    for x in targets:
        _, b = ts._locate(x)
        passed = [i for i in ts._intervals if i >= k and ts._rights[i] < b]
        if passed:
            got = tuple(terms.pieces(passed, a, b))
            assert outcome(lambda: got) == outcome(
                lambda: tuple(clipped_pieces(ts, coeff, passed, a, b, 1e-12))
            )
    run = _Exponent(_Terms(family, ts, coeff, 1e-12), anchor)
    for x in targets:
        assert outcome(run.to, x) == outcome(
            reference_log_integral_range, family, ts, coeff, anchor, x, 1e-12
        )


# -- non-finite coefficients and overflow ---------------------------------------------


@pytest.mark.parametrize("value", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_non_finite_constant_coefficient_is_rejected(value):
    ts = uniform(0.0, 1.0, 4)
    with pytest.raises(ValueError, match="not finite"):
        Coefficient.constant(value)
    with pytest.raises(ValueError, match="not finite"):
        exp_hilger(ts, value, 2.0, 0.0)
    with pytest.raises(ValueError, match="not finite"):
        exp_cayley(ts, value, 2.0, 0.0)
    with pytest.raises(ValueError, match="not finite"):
        exp_evaluate_grid(ExpFamily.HILGER_DELTA, ts, value, 0.0, ts.make_grid(0, 3, 1))


@pytest.mark.parametrize("value", [complex(math.nan, 0.0), complex(1.0, math.nan), math.inf])
def test_a_non_finite_grid_value_is_a_tolerance_error(value):
    ts = uniform(0.0, 1.0, 2)
    grid = ts.make_grid(0, 1, 1)
    alpha = Coefficient.constant(0.5)
    with pytest.raises(ToleranceError, match="non-finite exponential value on grid"):
        ExpEvaluation(ExpFamily.CAYLEY, ts, alpha, 0.0, grid, (1 + 0j, value), 1e-12)


def test_overflow_is_a_tolerance_error_on_both_paths():
    ts = uniform(0.0, 0.5, 10)
    grid = ts.make_grid(ts.inf, ts.sup, 0.1)
    with pytest.raises(ToleranceError, match="overflows"):
        exp_evaluate_grid(ExpFamily.HILGER_DELTA, ts, 1e308, 0.0, grid)
    with pytest.raises(ToleranceError, match="overflows"):
        exp_evaluate_grid(ExpFamily.EXACT, ts, 1e308, 0.0, grid)
    with pytest.raises(ToleranceError, match="overflows"):
        exp_hilger(ts, 1e308, 4.5, 0.0)
    with pytest.raises(ToleranceError, match="overflows"):
        check_sigma_shift(ExpFamily.HILGER_DELTA, ts, 1e308, 1.0, 0.0)
    # on the degenerate Bohner-Peterson boundary (a zero factor at t = 2)
    # the value (1e308)^2 at t = 2 overflows: the step-factor product gave
    # inf and nan there
    four = isolated(0, 1, 2, 3, 4)
    spike = Coefficient.piecewise([0.5, 1.5, 2.5, 3.5], [1e308, 1e308, -1.0, 1.0, 0.3])
    assert not cmath.isfinite(reference_product(four, spike, 2.0, 0.0))
    with pytest.raises(ToleranceError, match="exponential overflows"):
        hyp_grid(TrigFamily.BOHNER_PETERSON, four, spike, 0.0, four.make_grid(0, 4, 1))
    # the dense integral 1e308 is finite, and its exponential is not
    dense = interval(0.0, 1.0)
    with pytest.raises(ToleranceError, match="^exponential overflows at exponent"):
        exp_cayley(dense, 1e308, 1.0, 0.0)
    with pytest.raises(ToleranceError, match=r"^quadrature overflows on \[0.0, 2.0\]$"):
        exp_cayley(interval(0.0, 2.0), 1e308, 2.0, 0.0)


def test_a_pointwise_exponent_summed_to_an_infinite_real_part_raises():
    """cmath.exp raises only where a finite exponent overflows: an exponent
    summed to +inf made an infinite value, returned with no error by the
    pointwise exponentials and by the running exponent's values (the
    semigroup and sigma-shift reports). Each now raises ToleranceError."""
    cases = [
        (ExpFamily.CAYLEY, union(interval(0, 1), isolated(1.5), interval(2, 3)), 1e308, 3.0,
         "exponential overflows at exponent (inf+6.283185307179586j)"),
        (ExpFamily.CAYLEY, union(*[interval(2 * k, 2 * k + 1) for k in range(30)]), 1e307, 59.0,
         "exponential overflows at exponent (inf+91.10618695410406j)"),
        (ExpFamily.EXACT, Z4, 1e308, 3.0, "exponential overflows at exponent (inf+0j)"),
    ]
    for family, ts, alpha, t, message in cases:
        assert outcome(_exp_point, family, ts, alpha, t, 0.0, 1e-12) == ("ToleranceError", message, None)
        run = _exp_runs(family, ts, Coefficient.constant(alpha), 1e-12)(0.0)
        assert outcome(run, t) == ("ToleranceError", message, None)
    assert outcome(exp_cayley, *cases[0][1:4], 0.0) == ("ToleranceError", cases[0][4], None)
    with pytest.raises(ToleranceError, match=r"^exponential overflows at exponent \(inf\+0j\)$"):
        check_semigroup(ExpFamily.EXACT, Z4, 1e308, 3.0, 0.0, 1.0)


def test_infinite_quadrature_estimate_is_a_tolerance_error():
    # near |t| = 1e4 the pieces reach float resolution before Simpson's depth
    # limit, so refining a non-finite estimate walked the whole tree to a
    # NaN. A constant coefficient integrates exactly: 1e308j over the
    # interval is 1e301j, finite, and its exponential is on the unit circle
    ts = interval(1e4, 1e4 + 1e-7)
    w = exp_cayley(ts, 1e308j, 1e4 + 1e-7, 1e4)
    assert w == cmath.exp(1e308j * (ts.sup - ts.inf) + 0j)
    assert abs(abs(w) - 1) <= 2 * U
    with pytest.raises(ToleranceError, match="quadrature overflows"):
        ts.delta_integral(lambda t: complex(math.inf, 0.0), 1e4, 1e4 + 1e-7)
