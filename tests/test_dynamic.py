import cmath
import math

import numpy as np
import pytest

from tscale import (
    Coefficient,
    ConstantGraininessError,
    ExpFamily,
    Grid,
    GridError,
    RegressivityError,
    SampledFunction,
    Scheme,
    SingularError,
    ToleranceError,
    TrigFamily,
    TrigKind,
    average,
    beta_of_alpha,
    delbis_relation_residual,
    delta_doubleprime,
    delta_prime,
    double_average,
    exp_evaluate_grid,
    graininess_coefficient,
    interval,
    isolated,
    oscillator_residual_cayley,
    oscillator_residual_exact,
    phi,
    psi,
    sinc,
    solve_first_order,
    trig_grid,
    uniform,
    union,
)

from helpers import max_graininess, outcome, random_scale, reference_solve

Z12 = uniform(0, 1, 12)
G12 = Z12.make_grid(0, 11, 1.0)
MIXED = union(interval(0.0, 1.0), isolated(2.0))


def geometric_samples(ratio, n=12):
    return SampledFunction(G12, tuple(complex(ratio) ** k for k in range(n)))


# -- averaging ---------------------------------------------------------------


def test_average_right_dense_is_identity():
    ts = interval(0, 1)
    g = ts.make_grid(0, 1, 0.25)
    x = SampledFunction.sample(lambda t: t * t, g)
    assert average(x, ts, 0.5) == 0.25


def test_average_geometric():
    x = geometric_samples(3.0)
    assert average(x, Z12, 0.0) == 2.0


def test_average_constant():
    x = SampledFunction(G12, (5.0,) * 12)
    assert average(x, Z12, 4.0) == 5.0
    assert double_average(x, Z12, 4.0) == 5.0


def test_double_average_geometric():
    x = geometric_samples(2.0)
    assert double_average(x, Z12, 0.0) == 2.25


def test_double_average_right_dense():
    ts = interval(0, 1)
    g = ts.make_grid(0, 1, 0.25)
    x = SampledFunction.sample(lambda t: t, g)
    assert double_average(x, ts, 0.25) == 0.25


def test_average_requires_sampled_jump():
    g = Z12.make_grid(0, 10, 1.0)  # sigma(10) = 11 is not sampled
    x = SampledFunction.sample(lambda t: t, g)
    with pytest.raises(GridError):
        average(x, Z12, 10.0)


# -- first-order solver ----------------------------------------------------------


def test_solver_examples():
    zs = uniform(0, 1, 4)
    g = zs.make_grid(0, 3, 1.0)
    trap = solve_first_order(Scheme.TRAPEZOIDAL_CAYLEY, zs, 1, 1, 0.0, g)
    assert trap.values == (1.0, 3.0, 9.0, 27.0)
    expl = solve_first_order(Scheme.EXPLICIT_DELTA, zs, 1, 1, 0.0, g)
    assert expl.values == (1.0, 2.0, 4.0, 8.0)
    ex = solve_first_order(Scheme.EXACT_DISC, zs, 1, 1, 0.0, g)
    for k, v in enumerate(ex.values):
        assert abs(v - math.e ** k) < 1e-13 * math.e ** k


@pytest.mark.parametrize("scheme", [Scheme.EXACT_DISC, Scheme.TRAPEZOIDAL_CAYLEY])
@pytest.mark.parametrize(
    "points, alpha, t0, exponent",
    [
        # every piece's exponent is 800: solve --dense-step 1 on interval(0,4)
        ((0.0, 1.0, 2.0, 3.0, 4.0), 800, 0.0, "(800+0j)"),
        ((0.0, 1.0, 2.0, 3.0, 4.0), 800, 4.0, "(800+0j)"),
        # the first piece that overflows in walk order, from either end
        ((0.0, 0.5, 2.0, 3.0, 4.0), 800, 0.0, "(1200+0j)"),
        ((0.0, 0.5, 2.0, 3.0, 4.0), 800, 4.0, "(1200+0j)"),
        # pieces a generator yields: integrated by Simpson, or a finite
        # piece that overflows before a non-finite one
        ((0.0, 0.5, 2.0, 3.0, 4.0), Coefficient.from_function(lambda t: 800.0), 0.0, "(1200+0j)"),
        ((0.0, 1.0, 3.0, 4.0), 1e308, 0.0, "(1e+308+0j)"),
    ],
)
def test_an_overflowing_dense_piece_raises_at_the_first_in_walk_order(
    scheme, points, alpha, t0, exponent
):
    ts, grid = interval(0.0, 4.0), Grid(points, 1.0)
    with pytest.raises(ToleranceError) as err:
        solve_first_order(scheme, ts, alpha, 1.0, t0, grid)
    assert str(err.value) == f"exponential overflows at exponent {exponent}"
    want = outcome(lambda: reference_solve(scheme, ts, alpha, 1.0, t0, grid).values)
    assert outcome(lambda: solve_first_order(scheme, ts, alpha, 1.0, t0, grid).values) == want


@pytest.mark.parametrize("seed", range(5))
def test_solver_matches_exponential_families(seed):
    rng = np.random.default_rng(seed)
    ts = random_scale(rng)
    mu_max = max_graininess(ts)
    bound = 1.5 / mu_max if mu_max > 0 else 3.0
    a = float(rng.uniform(-bound, bound))
    grid = ts.make_grid(ts.inf, ts.sup, 0.2)
    t0 = grid.points[0]
    trap = solve_first_order(Scheme.TRAPEZOIDAL_CAYLEY, ts, a, 1, t0, grid)
    ec = exp_evaluate_grid(ExpFamily.CAYLEY, ts, a, t0, grid)
    for u, v in zip(trap.values, ec.values):
        assert abs(u - v) < 1e-12 * max(1.0, abs(v))
    expl = solve_first_order(Scheme.EXPLICIT_DELTA, ts, a, 1, t0, grid)
    eh = exp_evaluate_grid(ExpFamily.HILGER_DELTA, ts, a, t0, grid)
    for u, v in zip(expl.values, eh.values):
        assert abs(u - v) < 1e-12 * max(1.0, abs(v))


def test_solver_exact_matches_flow_on_mixed_scale():
    grid = MIXED.make_grid(0, 2, 0.25)
    a = 0.8 - 0.3j
    x = solve_first_order(Scheme.EXACT_DISC, MIXED, a, 1, 0.0, grid)
    for t, v in zip(grid.points, x.values):
        ref = cmath.exp(a * t)
        assert abs(v - ref) < 1e-12 * max(1.0, abs(ref))


def test_solver_coefficient_equivalence():
    # stepping with the trapezoidal coefficient equals stepping with the
    # corresponding forward-step coefficient
    ts = MIXED
    grid = ts.make_grid(0, 2, 0.25)
    a = 0.9
    beta = graininess_coefficient(ts, lambda mu, s: beta_of_alpha(mu, a))
    trap = solve_first_order(Scheme.TRAPEZOIDAL_CAYLEY, ts, a, 1, 0.0, grid)
    expl = solve_first_order(Scheme.EXPLICIT_DELTA, ts, beta, 1, 0.0, grid)
    for u, v in zip(trap.values, expl.values):
        assert abs(u - v) < 1e-12 * max(1.0, abs(v))


def test_solver_backward_fill():
    zs = uniform(0, 1, 4)
    g = zs.make_grid(0, 3, 1.0)
    x = solve_first_order(Scheme.TRAPEZOIDAL_CAYLEY, zs, 1, 9.0, 2.0, g)
    assert x.values == (1.0, 3.0, 9.0, 27.0)


def test_solver_validates_regressivity():
    zs = uniform(0, 1, 4)
    g = zs.make_grid(0, 3, 1.0)
    with pytest.raises(RegressivityError):
        solve_first_order(Scheme.EXPLICIT_DELTA, zs, -1.0, 1, 0.0, g)
    with pytest.raises(RegressivityError):
        solve_first_order(Scheme.TRAPEZOIDAL_CAYLEY, zs, 2.0, 1, 0.0, g)
    with pytest.raises(RegressivityError):
        solve_first_order(Scheme.TRAPEZOIDAL_CAYLEY, zs, -2.0, 1, 0.0, g)


def test_solver_exact_takes_any_coefficient():
    # the step factors e^(mu*alpha(p)) of alpha(t) = t multiply to e^(k(k-1)/2)
    g = Z12.make_grid(0, 11, 1.0)
    x = solve_first_order(Scheme.EXACT_DISC, Z12, lambda t: t, 1, 0.0, g)
    for k, v in enumerate(x.values):
        assert abs(v - math.exp(k * (k - 1) / 2)) <= 1e-14 * math.exp(k * (k - 1) / 2)
    ev = exp_evaluate_grid(ExpFamily.EXACT, Z12, lambda t: t, 0.0, g)
    for u, v in zip(x.values, ev.values):
        assert abs(u - v) <= 1e-12 * abs(v)


def test_solver_exact_steps_on_located_points():
    # 1.0 + 4e-13 is located at the member 1.0: a zero step, as in every
    # other scheme, not exp(alpha * 4e-13)
    grid = Grid((0.0, 1.0, 1.0 + 4e-13), 0.1)
    for scheme in Scheme:
        x = solve_first_order(scheme, isolated(0.0, 1.0), 0.5, 1, 0.0, grid)
        assert x.values[1] == x.values[2]
    x = solve_first_order(Scheme.EXACT_DISC, isolated(0.0, 1.0), 0.5, 1, 0.0, grid)
    assert x.values[1:] == (1.6487212707001282, 1.6487212707001282)


def test_solver_requires_anchor_on_grid():
    g = Z12.make_grid(0, 5, 1.0)
    with pytest.raises(GridError):
        solve_first_order(Scheme.EXPLICIT_DELTA, Z12, 1.0, 1, 7.0, g)


def test_a_grid_point_just_out_of_tolerance_of_the_one_before_is_sampled():
    # 1.000000000001 - 1e-12 rounds onto 1.0, which lies 1.0000000000000002e-12
    # below the point: the bisection lands on 1.0, the point after it matches
    grid = Grid((1.0, 1.000000000001, 2.0), 0.1)
    assert [grid.index_of(p) for p in grid.points] == [0, 1, 2]
    x = SampledFunction(grid, (1.0, 2.0, 3.0))
    assert [x.value_at(p) for p in grid.points] == [1.0, 2.0, 3.0]


HALVES = uniform(0.0, 0.5, 2000)


@pytest.mark.parametrize(
    "scheme, ts, alpha, t0, message",
    [
        # forward: the step factors stay finite, the product does not
        (Scheme.EXPLICIT_DELTA, HALVES, 1e300, 0.0, "solution overflows at t=1.0"),
        # backward: dividing by step factors near zero
        (Scheme.EXPLICIT_DELTA, HALVES, -1.999999, 999.5, "solution overflows at t=975.0"),
        (Scheme.EXACT_DISC, HALVES, 1e300, 0.0,
         "exponential overflows at exponent (5e+299+0j)"),
        (Scheme.EXACT_DISC, interval(0.0, 10.0), 1e300, 0.0,
         "exponential overflows at exponent (1e+300+0j)"),
        # 1 + mu*alpha is inf: forward it makes the solution inf, backward
        # it would make it zero
        (Scheme.EXPLICIT_DELTA, uniform(0.0, 4.0, 3), 1e308, 0.0,
         "solution overflows at t=4.0"),
        (Scheme.EXPLICIT_DELTA, uniform(0.0, 4.0, 3), 1e308, 8.0,
         "step factor (inf+0j) at t=4.0 is not finite"),
    ],
)
def test_solver_overflow_is_a_tolerance_error(scheme, ts, alpha, t0, message):
    grid = ts.make_grid(ts.inf, ts.sup, 1.0)
    with pytest.raises(ToleranceError) as err:
        solve_first_order(scheme, ts, alpha, 1.0, t0, grid)
    assert str(err.value) == message


def test_solver_non_finite_x0_is_a_value_error():
    with pytest.raises(ValueError, match="samples must be finite"):
        solve_first_order(Scheme.TRAPEZOIDAL_CAYLEY, Z12, 1.0, complex("inf"), 0.0, G12)
    for value in (math.inf, complex(0.0, math.nan)):
        with pytest.raises(ValueError, match="samples must be finite"):
            SampledFunction(G12, (1.0,) * 11 + (value,))


# -- correction factors -------------------------------------------------------------


def test_psi_values():
    assert psi(1.0, 0.0) == 1.0
    assert psi(0.0, 1.0) == 1.0
    assert abs(psi(1.0, 1.0) - 2.0 * math.tanh(0.5)) < 1e-15
    got = psi(1j * math.pi / 2, 1.0)
    assert abs(got - 4.0 / math.pi) < 1e-15


def test_psi_is_even_in_the_coefficient():
    assert psi(0.7, 1.3) == psi(-0.7, 1.3)


def test_psi_pole_guard():
    with pytest.raises(SingularError):
        psi(1j * math.pi, 1.0)


def test_psi_series_branch_is_smooth():
    a = 1.0
    assert abs(psi(a, 0.9e-4) - psi(a, 1.1e-4)) < 1e-9


def test_phi_values():
    assert phi(0.0) == 1.0
    assert abs(phi(math.pi / 2) - 4.0 / math.pi) < 1e-15
    assert phi(-math.pi / 2) == phi(math.pi / 2)
    with pytest.raises(SingularError):
        phi(math.pi)
    with pytest.raises(SingularError):
        phi(-3.0 * math.pi)


def test_sinc_values():
    assert sinc(0.0) == 1.0
    assert abs(sinc(math.pi)) < 1e-15
    assert abs(sinc(math.pi / 2) - 2.0 / math.pi) < 1e-15
    assert abs(sinc(1e-5) - math.sin(1e-5) / 1e-5) < 1e-15


def test_phi_sinc_relation():
    # sinc(x/2) = phi(x) * cos(x/2)
    for x in (0.3, 1.0, 2.5):
        assert abs(sinc(x / 2) - phi(x) * math.cos(x / 2)) < 1e-14


# -- modified quotients ----------------------------------------------------------------


def test_delta_prime_exact_flow_satisfies_trapezoidal_law():
    x = SampledFunction.sample(lambda t: math.e ** t, G12)
    got = delta_prime(1.0, Z12, x, 0.0)
    assert abs(got - (math.e - 1.0) / (2.0 * math.tanh(0.5))) < 1e-13
    assert abs(got - (1.0 + math.e) / 2.0) < 1e-13  # the averaged right side


def test_delta_prime_constant_samples():
    x = SampledFunction(G12, (2.5,) * 12)
    assert delta_prime(0.7, Z12, x, 3.0) == 0.0


def test_delta_prime_small_step_approaches_plain_quotient():
    eps = 1e-3
    ts = uniform(0, eps, 4)
    g = ts.make_grid(0, 3 * eps, eps)
    x = SampledFunction.sample(lambda t: math.e ** t, g)
    plain = (x.values[1] - x.values[0]) / eps
    assert abs(delta_prime(1.0, ts, x, 0.0) - plain) < 1e-6 * abs(plain)


def test_delta_doubleprime_restriction_property():
    # harmonic samples differentiate to their continuum derivative
    A, B, omega, eps = 1.3, -0.7, 1.1, 0.5
    ts = uniform(0, eps, 10)
    g = ts.make_grid(0, 4.5, eps)
    x = SampledFunction.sample(
        lambda t: A * math.cos(omega * t) + B * math.sin(omega * t), g
    )
    for t in g.points[:-1]:
        xdot = -A * omega * math.sin(omega * t) + B * omega * math.cos(omega * t)
        assert abs(delta_doubleprime(omega, ts, x, t) - xdot) < 1e-12


def test_delta_doubleprime_sine_at_origin():
    ts = uniform(0, 1, 4)
    g = ts.make_grid(0, 3, 1.0)
    w = math.pi / 2
    x = SampledFunction.sample(lambda t: math.sin(w * t), g)
    assert abs(delta_doubleprime(w, ts, x, 0.0) - w) < 1e-15


def test_delta_doubleprime_domain_guard():
    ts = uniform(0, 1, 4)
    g = ts.make_grid(0, 3, 1.0)
    x = SampledFunction.sample(lambda t: t, g)
    with pytest.raises(SingularError):
        delta_doubleprime(3.2, ts, x, 0.0)  # omega*mu above pi


# -- oscillator residuals ------------------------------------------------------------


def test_oscillator_cayley_trig_samples():
    pair = trig_grid(TrigFamily.CAYLEY, Z12, 1.0, 0.0, G12)
    for vals in (pair.c_values, pair.s_values):
        rep = oscillator_residual_cayley(Z12, 1.0, SampledFunction(G12, vals), G12)
        assert rep.max_residual < 1e-12
        assert len(rep.skipped) == 2


def test_oscillator_cayley_zero_samples():
    x = SampledFunction(G12, (0.0,) * 12)
    rep = oscillator_residual_cayley(Z12, 1.0, x, G12)
    assert rep.max_residual == 0.0


def test_oscillator_cayley_hyperbolic_variant():
    from tscale import hyp_grid

    pair = hyp_grid(TrigFamily.CAYLEY, Z12, 1.0, 0.0, G12)
    rep = oscillator_residual_cayley(
        Z12, 1.0, SampledFunction(G12, pair.c_values), G12, kind=TrigKind.HYPERBOLIC
    )
    assert rep.max_residual < 1e-10  # values reach ~3^11/2


def test_oscillator_cayley_on_mixed_scale_skips_bad_stencils():
    # dense interior points use a second-order central stencil, so the
    # residual there is truncation-limited and shrinks ~4x per halving
    def max_res(step):
        grid = MIXED.make_grid(0, 2, step)
        pair = trig_grid(TrigFamily.CAYLEY, MIXED, 1.0, 0.0, grid)
        rep = oscillator_residual_cayley(
            MIXED, 1.0, SampledFunction(grid, pair.s_values), grid
        )
        assert rep.skipped  # boundary points lack usable stencils
        return rep.max_residual

    r1, r2 = max_res(0.05), max_res(0.025)
    assert r1 < 1e-3
    assert 3.0 < r1 / r2 < 5.0


@pytest.mark.parametrize("eps, omega", [(1.0, 1.0), (0.5, 2.0), (0.25, 1.0)])
def test_oscillator_exact_both_forms(eps, omega):
    ts = uniform(0.0, eps, 14)
    g = ts.make_grid(0.0, 13 * eps, eps)
    for fn in (math.sin, math.cos):
        x = SampledFunction.sample(lambda t: fn(omega * t), g)
        res = oscillator_residual_exact(ts, omega, x, g)
        assert res.phi_form.max_residual < 1e-12
        assert res.sinc_form.max_residual < 1e-12
        assert res.form_agreement < 1e-12


def test_oscillator_exact_continuum_limit():
    ts = interval(0.0, 1.0)
    g = ts.make_grid(0.0, 1.0, 0.01)
    x = SampledFunction.sample(math.sin, g)
    res = oscillator_residual_exact(ts, 1.0, x, g)
    # second differences of exact samples carry an O(step^2) stencil error
    assert res.phi_form.max_residual < 1e-4
    assert res.form_agreement == 0.0


def test_oscillator_exact_rejects_varying_graininess():
    grid = MIXED.make_grid(0, 2, 0.5)
    x = SampledFunction.sample(math.sin, grid)
    with pytest.raises(ConstantGraininessError):
        oscillator_residual_exact(MIXED, 1.0, x, grid)


def test_oscillator_exact_rejects_large_frequency():
    x = SampledFunction.sample(math.sin, G12)
    with pytest.raises(SingularError):
        oscillator_residual_exact(Z12, 3.2, x, G12)


# -- quotient relation ------------------------------------------------------------------


def test_delbis_random_samples():
    rng = np.random.default_rng(42)
    x = SampledFunction(
        G12, tuple(complex(a, b) for a, b in rng.standard_normal((12, 2)))
    )
    rep = delbis_relation_residual(Z12, 1.0, x, G12)
    assert rep.max_residual < 1e-12
    assert len(rep.points) == 11


def test_delbis_small_frequency_reduces_to_plain_quotient():
    x = SampledFunction.sample(lambda t: math.sin(t) + 0.3 * t, G12)
    omega = 1e-6
    rep = delbis_relation_residual(Z12, omega, x, G12)
    for p, r in zip(rep.points, rep.residuals):
        d_plain = (x.value_at(p + 1.0) - x.value_at(p)) / 1.0
        d_double = delta_doubleprime(omega, Z12, x, p)
        assert abs(d_plain - d_double) < 1e-9
    assert rep.max_residual < 1e-12


def test_delbis_zero_samples():
    x = SampledFunction(G12, (0.0,) * 12)
    assert delbis_relation_residual(Z12, 1.0, x, G12).max_residual == 0.0


def test_delbis_rejects_varying_graininess():
    grid = MIXED.make_grid(0, 2, 0.5)
    x = SampledFunction.sample(math.sin, grid)
    with pytest.raises(ConstantGraininessError):
        delbis_relation_residual(MIXED, 1.0, x, grid)


# -- averaging commutes with the delta quotient --------------------------------------------


def test_averaging_commutes_with_delta_on_uniform_scale():
    rng = np.random.default_rng(7)
    vals = tuple(complex(a, b) for a, b in rng.standard_normal((12, 2)))
    x = SampledFunction(G12, vals)

    def q(v, i):  # forward quotient on the unit-step scale
        return v[i + 1] - v[i]

    avg = [0.5 * (vals[i] + vals[i + 1]) for i in range(11)]
    for i in range(10):
        lhs = avg[i + 1] - avg[i]
        rhs = 0.5 * (q(vals, i) + q(vals, i + 1))
        assert abs(lhs - rhs) < 1e-13


def test_doubleprime_double_application():
    # applying the oscillator-adapted quotient twice returns the negated
    # scaled samples for restricted harmonic data
    eps, omega = 0.5, 1.2
    ts = uniform(0.0, eps, 14)
    g = ts.make_grid(0.0, 13 * eps, eps)
    x = SampledFunction.sample(lambda t: math.sin(omega * t), g)
    first = [delta_doubleprime(omega, ts, x, p) for p in g.points[:-1]]
    g1 = ts.make_grid(0.0, 12 * eps, eps)
    y = SampledFunction(g1, tuple(first))
    for p in g1.points[:-1]:
        r = delta_doubleprime(omega, ts, y, p) + omega * omega * x.value_at(p)
        assert abs(r) < 1e-10
