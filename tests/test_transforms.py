import cmath
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tscale import (
    Coefficient,
    ExpFamily,
    RegressivityError,
    RegressivityKind,
    Scheme,
    SingularError,
    alpha_of_beta,
    as_coefficient,
    beta_of_alpha,
    cayley,
    check_regressivity,
    exp_cayley,
    exp_evaluate_grid,
    exp_hilger,
    graininess_coefficient,
    interval,
    isolated,
    ominus_mu,
    oplus_cayley,
    oplus_mu,
    solve_first_order,
    uniform,
    union,
    xi,
    zeta,
    zeta_inv,
)
from tscale.transforms import REGRESSIVITY_MARGIN, _graininess_only

finite_complex = st.builds(
    complex,
    st.floats(min_value=-5, max_value=5, allow_nan=False),
    st.floats(min_value=-5, max_value=5, allow_nan=False),
)


# -- cylinder maps -----------------------------------------------------------


def test_xi_examples():
    assert xi(0, 3 + 2j) == 3 + 2j
    assert abs(xi(1, 1) - math.log(2)) < 1e-15
    with pytest.raises(SingularError):
        xi(1, -1)
    with pytest.raises(ValueError):
        xi(-1, 1)


def test_zeta_examples():
    assert zeta(0, 1j) == 1j
    assert abs(zeta(1, 1) - math.log(3)) < 1e-15
    with pytest.raises(SingularError):
        zeta(1, 2)
    with pytest.raises(SingularError):
        zeta(1, -2)


def test_zeta_inv_examples():
    assert zeta_inv(0, 5) == 5
    got = zeta_inv(1, 1j * math.pi / 2)
    assert abs(got - 2j * math.tan(math.pi / 4)) < 1e-14
    assert abs(zeta_inv(2, math.log(3) / 2) - 0.5) < 1e-15


def test_zeta_inv_pole_guard():
    with pytest.raises(SingularError):
        zeta_inv(1.0, 1j * math.pi)


def test_zeta_small_h_series_is_continuous_across_cutoff():
    # the log-ratio form carries ~eps/|hz| cancellation noise near the
    # cutoff, which is exactly what the series branch removes; agreement
    # is only expected at that noise level
    z = 0.7 + 0.3j
    for h in (0.9e-4 / abs(z), 1.1e-4 / abs(z)):
        direct = cmath.log((1 + 0.5 * h * z) / (1 - 0.5 * h * z)) / h
        assert abs(zeta(h, z) - direct) < 5e-12


def test_zeta_series_exact_for_tiny_h():
    # below the cutoff the truncated odd series is the double-precision value
    z = 1.3 - 0.4j
    h = 1e-6
    expected = z + h * h * z ** 3 / 12.0 + h ** 4 * z ** 5 / 80.0
    assert zeta(h, z) == expected
    assert abs(zeta(h, z) - z) < 1e-12 * abs(z)


def test_cayley_examples():
    assert cayley(0, 0.7) == 1
    assert cayley(1, 0.5) == 3
    assert abs(cayley(1j, 0.5) - (0.6 + 0.8j)) < 1e-15
    with pytest.raises(SingularError):
        cayley(2, 0.5)


def test_cayley_matches_zeta_exponential():
    for h, z in [(1.0, 0.4), (0.5, 1.2 + 0.3j), (2.0, -0.6)]:
        assert abs(cmath.exp(h * zeta(h, z)) - cayley(z, 0.5 * h)) < 1e-13


# -- additions and the coefficient correspondence --------------------------------


def test_oplus_mu():
    assert oplus_mu(0, 1 + 1j, 2) == 3 + 1j
    assert oplus_mu(1, 1, 1) == 3
    assert oplus_mu(1, 1, -0.5) == 0


def test_ominus_mu_is_inverse_for_oplus_mu():
    a = 0.8 + 0.2j
    assert abs(oplus_mu(1.0, a, ominus_mu(1.0, a))) < 1e-15
    with pytest.raises(SingularError):
        ominus_mu(1.0, -1.0)


def test_oplus_cayley_examples():
    assert oplus_cayley(0, 1j, 2) == 2 + 1j
    assert oplus_cayley(2, 1, 1) == 1.0  # saturation at the boundary
    assert oplus_cayley(1, 1, -1) == 0


def test_oplus_cayley_non_closure_witness():
    with pytest.raises(SingularError):
        oplus_cayley(2.0, 0.5, -2.0)  # mu^2*a*b = -4 exactly
    with pytest.raises(SingularError):
        oplus_cayley(1.0, 1.5, -8.0 / 3.0)  # lands within the guard


def test_beta_alpha_correspondence():
    assert beta_of_alpha(0, 0.3 + 1j) == 0.3 + 1j
    assert beta_of_alpha(1, 1) == 2
    assert beta_of_alpha(1, -2) == -1
    assert alpha_of_beta(0, 4) == 4
    assert alpha_of_beta(1, 2) == 1
    with pytest.raises(SingularError):
        alpha_of_beta(1, -2)
    with pytest.raises(SingularError):
        beta_of_alpha(1, 2)


@settings(max_examples=100, deadline=None)
@given(finite_complex, st.floats(min_value=0.01, max_value=2.0))
def test_beta_alpha_roundtrip(a, mu):
    if abs(1 - 0.5 * mu * a) < 1e-6:
        return
    b = beta_of_alpha(mu, a)
    if abs(1 + 0.5 * mu * b) < 1e-6:
        return
    assert abs(alpha_of_beta(mu, b) - a) < 1e-9 * max(1.0, abs(a))


# -- zeta algebra properties --------------------------------------------------------


@settings(max_examples=100, deadline=None)
@given(finite_complex, st.floats(min_value=0.01, max_value=2.0))
def test_zeta_oddness_and_conjugation(a, mu):
    if abs(0.5 * mu * a) > 0.95:
        return
    assert abs(zeta(mu, -a) + zeta(mu, a)) < 1e-12
    assert abs(zeta(mu, a).conjugate() - zeta(mu, a.conjugate())) < 1e-12
    assert zeta(-mu, a) == zeta(mu, a)


@settings(max_examples=100, deadline=None)
@given(finite_complex, finite_complex, st.floats(min_value=0.01, max_value=2.0))
def test_zeta_addition_law(a, b, mu):
    if abs(0.5 * mu * a) > 0.9 or abs(0.5 * mu * b) > 0.9:
        return
    lhs = zeta(mu, a) + zeta(mu, b)
    rhs = zeta(mu, oplus_cayley(mu, a, b))
    assert abs(lhs - rhs) < 1e-12


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=-40.0, max_value=40.0, allow_nan=False),
    st.floats(min_value=0.05, max_value=3.0),
)
def test_zeta_maps_imaginary_axis_to_strip(omega, h):
    z = zeta(h, 1j * omega)
    assert abs(z.real) < 1e-12
    assert abs(z.imag) < math.pi / h


@settings(max_examples=100, deadline=None)
@given(
    st.floats(min_value=0.1, max_value=1.9),
    st.floats(min_value=0.0, max_value=2 * math.pi),
    st.floats(min_value=0.05, max_value=3.0),
)
def test_zeta_disc_strip_equivalence(r, angle, h):
    # |z| < 2/h holds exactly when |Im zeta| < pi/(2h); test both sides
    z = (r * 2.0 / h) * cmath.exp(1j * angle)
    if abs(abs(z) - 2.0 / h) < 1e-6:
        return
    inside_disc = abs(z) < 2.0 / h
    inside_strip = abs(zeta(h, z).imag) < math.pi / (2.0 * h)
    assert inside_disc == inside_strip


@settings(max_examples=100, deadline=None)
@given(finite_complex, st.floats(min_value=0.05, max_value=2.0))
def test_zeta_inv_roundtrip(w, h):
    if abs(h * w.imag) > 0.9 * math.pi:
        return
    z = zeta_inv(h, w)
    if abs(0.5 * h * z) > 1e6:
        return
    assert abs(zeta(h, z) - w) < 1e-9 * max(1.0, abs(w))


# -- group structure (full randomized sweep lives in the acceptance suite) ------------


def test_positively_regressive_group_axioms_sample():
    mu = 1.0
    triples = [(0.3, -1.2, 1.7), (1.9, -1.9, 0.1), (0.5, 0.5, 0.5)]
    for a, b, c in triples:
        ab = oplus_cayley(mu, a, b)
        assert abs(mu * ab) < 2.0  # closure
        assert oplus_cayley(mu, b, a) == ab  # commutativity, exact
        assert oplus_cayley(mu, a, -a) == 0  # inverse, exact
        lhs = oplus_cayley(mu, ab, c)
        rhs = oplus_cayley(mu, a, oplus_cayley(mu, b, c))
        assert abs(lhs - rhs) < 1e-12


# -- regressivity checks -----------------------------------------------------------


def test_check_regressivity_examples():
    zs = uniform(0, 1, 5)
    grid = zs.make_grid(0, 4, 1.0)
    res = check_regressivity(RegressivityKind.CAYLEY_REGRESSIVE, zs, 2.0, grid)
    assert not res
    assert res.first_violation == 0.0
    eps = uniform(0, 0.1, 5)
    assert check_regressivity(
        RegressivityKind.POSITIVELY_REGRESSIVE, eps, 1.0, eps.make_grid(0, 0.4, 0.1)
    )
    res = check_regressivity(RegressivityKind.MU_REGRESSIVE, zs, -1.0, grid)
    assert not res and res.first_violation == 0.0


def test_check_regressivity_messages():
    zs = uniform(0, 1, 3)
    grid = zs.make_grid(0, 2, 1.0)
    cases = [
        (RegressivityKind.MU_REGRESSIVE, -1.0, "1 + mu*alpha = 0j within margin of zero"),
        (RegressivityKind.CAYLEY_REGRESSIVE, -2.0, "mu*alpha = (-2+0j) within margin of ±2"),
        (RegressivityKind.POSITIVELY_REGRESSIVE, 0.5j, "mu*alpha = 0.5j is not real"),
        (RegressivityKind.POSITIVELY_REGRESSIVE, 2.0,
         "|mu*alpha| = 2.0 not below 2 with margin"),
    ]
    for kind, alpha, message in cases:
        assert check_regressivity(kind, zs, alpha, grid).message == message


def test_check_regressivity_skips_left_scattered_maximum():
    ts = isolated(0.0, 1.0)
    grid = ts.make_grid(0, 1, 1.0)
    assert check_regressivity(RegressivityKind.MU_REGRESSIVE, ts, 0.5, grid)


# The forward test is |1 + m| <= margin, the Cayley test |m -+ 2| <= margin:
# each m below sits exactly at a margin (an imaginary offset of the margin
# itself), one ulp inside it, or one ulp outside it.
_AT = REGRESSIVITY_MARGIN
_INSIDE = math.nextafter(_AT, 0.0)
_OUTSIDE = math.nextafter(_AT, 1.0)
_MARGIN_CASES = [
    (family, complex(centre, offset), offset != _OUTSIDE)
    for family, centres in (("forward", (-1.0,)), ("cayley", (2.0, -2.0)))
    for centre in centres
    for offset in (_AT, _INSIDE, _OUTSIDE)
]
_MARGIN_PATHS = {
    "forward": (RegressivityKind.MU_REGRESSIVE, exp_hilger, ExpFamily.HILGER_DELTA,
                Scheme.EXPLICIT_DELTA),
    "cayley": (RegressivityKind.CAYLEY_REGRESSIVE, exp_cayley, ExpFamily.CAYLEY,
               Scheme.TRAPEZOIDAL_CAYLEY),
}


def _failure(fn, *args):
    """(True, t) if fn raises RegressivityError at t, else (False, None)."""
    try:
        fn(*args)
    except RegressivityError as exc:
        return True, exc.t
    return False, None


@pytest.mark.parametrize("family, m, fails", _MARGIN_CASES)
def test_every_path_agrees_at_the_regressivity_margins(family, m, fails):
    # one step of graininess 0.5 at t=3.0, so alpha = 2m exactly and mu*alpha = m
    ts = isolated(3.0, 3.5)
    grid = ts.make_grid(3.0, 3.5, 1.0)
    alpha = 2.0 * m
    assert 0.5 * alpha == m
    kind, pointwise, exp_family, scheme = _MARGIN_PATHS[family]
    check = check_regressivity(kind, ts, alpha, grid)
    outcomes = {
        "check_regressivity": (not check, check.first_violation),
        "pointwise": _failure(pointwise, ts, alpha, 3.5, 3.0),
        "grid": _failure(exp_evaluate_grid, exp_family, ts, alpha, 3.0, grid),
        "solve": _failure(solve_first_order, scheme, ts, alpha, 1.0, 3.0, grid),
    }
    want = (True, 3.0) if fails else (False, None)
    assert outcomes == dict.fromkeys(outcomes, want)


def test_positively_regressive_rejects_complex():
    zs = uniform(0, 1, 3)
    grid = zs.make_grid(0, 2, 1.0)
    assert not check_regressivity(
        RegressivityKind.POSITIVELY_REGRESSIVE, zs, 0.5 + 0.5j, grid
    )


# -- coefficients ---------------------------------------------------------------------


def test_coefficient_constant_and_negation():
    c = Coefficient.constant(2 - 1j)
    assert c(0.0) == 2 - 1j and c.is_constant
    assert (-c)(3.0) == -2 + 1j


def test_coefficient_piecewise_right_continuous():
    c = Coefficient.piecewise([0.0, 1.0], [1, 2, 3])
    assert c(-0.5) == 1
    assert c(0.0) == 2
    assert c(0.7) == 2
    assert c(1.0) == 3
    with pytest.raises(ValueError):
        Coefficient.piecewise([0.0], [1])


def test_coefficient_tabulated():
    c = Coefficient.tabulated([0.0, 1.0], [5, 6])
    assert c(1.0) == 6
    with pytest.raises(ValueError):
        c(0.5)


def test_coefficient_from_function_and_coercion():
    c = as_coefficient(lambda t: t * 1j)
    assert c(2.0) == 2j
    assert as_coefficient(3)(0.0) == 3
    assert as_coefficient(c) is c
    with pytest.raises(TypeError):
        as_coefficient("nope")


def test_coefficient_scaled_piecewise_and_tabulated():
    p = Coefficient.piecewise([0.0], [1, 2]).scaled(2)
    assert p(-1.0) == 2 and p(0.5) == 4
    t = (-Coefficient.tabulated([1.0], [3]))(1.0)
    assert t == -3


def test_coefficient_scaled_keeps_a_constant_dense_view():
    c = Coefficient.constant(0.5 - 1j).scaled(3)
    assert c.dense_value == c.dense(0.7) == 1.5 - 3j
    ts = union(interval(0.0, 1.0), isolated(1.5))
    g = graininess_coefficient(ts, lambda mu, s: 2 + mu, 2)
    for scaled, factor in ((-g, -1), (g.scaled(3), 3)):
        assert scaled.dense_value == scaled.dense(0.5) == factor * 2
        assert scaled(1.0) == factor * 2.5  # the jump value, mu = 0.5
        assert scaled.dense_integral(0.25, 0.75, 1e-12) == factor * 2 * 0.5
    assert (-graininess_coefficient(ts, lambda mu, s: 2 + mu)).dense_value is None


def test_step_values_by_gap_are_those_of_constants_and_marked_graininess_coefficients():
    """A constant's step value is a function of the gap, and so is a
    graininess coefficient's once marked by _graininess_only, which scaling
    keeps; no other coefficient's is, a graininess coefficient's unmarked."""
    ts = union(interval(0.0, 1.0), isolated(1.5))
    plain = lambda: graininess_coefficient(ts, lambda mu, s: 2 + mu, 2)
    marked = _graininess_only(plain())
    assert marked(1.0) == 2.5
    by_gap = [Coefficient.constant(0.5), -Coefficient.constant(0.5), marked, -marked,
              marked.scaled(3)]
    assert all(c._gap_only for c in by_gap)
    others = [plain(), -plain(), Coefficient.from_function(lambda t: t),
              Coefficient.piecewise([0.5], [1, 2]), Coefficient.tabulated([1.0], [3])]
    assert not any(c._gap_only for c in others)
    assert (-marked).at_step(0.5, 1.0) == -2.5 and marked.scaled(3).at_step(0.25, 7.0) == 6.75


def _scan_piecewise(bps, vals, t):
    """The linear breakpoint scan that the bisection replaced."""
    i = 0
    while i < len(bps) and t >= bps[i]:
        i += 1
    return vals[i]


@pytest.mark.parametrize("bps", [(), (0.5,), (-1.0, 0.0, 2.5, 7.0)])
def test_piecewise_lookup_matches_linear_scan(bps):
    vals = tuple(complex(k, -k) for k in range(len(bps) + 1))
    coeff = Coefficient.piecewise(bps, vals)
    probes = [-math.inf, -1e9, math.inf, 1e9, math.nan, -0.0]
    for b in bps:
        probes += [b, math.nextafter(b, -math.inf), math.nextafter(b, math.inf)]
    for t in probes:
        assert coeff(t) == _scan_piecewise(bps, vals, t), t
    assert coeff(math.nan) == vals[0]
