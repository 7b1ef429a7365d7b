"""First-order solvers, averaging operators, modified delta derivatives and
second-order oscillator residuals.

The three stepping schemes mirror three exponential constructions:
forward stepping multiplies by 1 + mu*beta, trapezoidal stepping by the
Cayley factor (1 + mu*alpha/2)/(1 - mu*alpha/2), and exact stepping by
exp(alpha*mu). The factors and their regressivity tests are the step-rule
table's in transforms. Dense segments integrate the continuum equation:
every scheme steps there by the exponential of the coefficient's integral.

Cost: a residual report walks its grid once (timescale._Jumps, one walk per
report; the oscillator-cayley report shares one table between its two
passes) and reads each point's sigma, mu and the grid index of its jump by
index. Over the regular regions the walk marks (_Jumps.regular: a stretch
of scattered steps, the interior of a dense run with a symmetric stencil)
it computes the second differences, double averages and delbis quotients
as C-level maps over shifted slices of the value, point and mu columns,
with no Python call per point; delbis takes each distinct gap's cosine,
denominator and pi guard once (exponential._by_gap). Every other point
takes the per-point operators, of which the pointwise average,
double_average, delta_prime and delta_doubleprime are the one-point case.
Both apply the same stencil formulas, so the floats are the same.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum
from itertools import accumulate, compress, count, repeat
from operator import add, itemgetter, mul, sub, truediv
from typing import Callable

from .errors import (
    ConstantGraininessError,
    GridError,
    RegressivityError,
    SingularError,
    ToleranceError,
)
from .exponential import (
    _by_gap,
    _dense_integrals,
    _exp,
    _grid_steps,
    _split_steps,
    _validate_regressive,
)
from .timescale import DEFAULT_TOL, Grid, TimeScale, _asymmetric, _Jumps
from .transforms import (
    CAYLEY_RULE,
    EXACT_RULE,
    FORWARD_RULE,
    REGRESSIVITY_MARGIN,
    as_coefficient,
)
from .report import ResidualReport, collect
from .trig import TrigKind


class Scheme(Enum):
    EXPLICIT_DELTA = "explicit"  # x' = beta * x
    TRAPEZOIDAL_CAYLEY = "trapezoidal"  # x' = alpha * avg(x)
    EXACT_DISC = "exact"  # x' = alpha * psi(alpha, mu) * avg(x)


# Each scheme's step rule, and the name its messages give the coefficient.
_SCHEME_RULES = {
    Scheme.EXPLICIT_DELTA: (FORWARD_RULE, "beta"),
    Scheme.TRAPEZOIDAL_CAYLEY: (CAYLEY_RULE, "alpha"),
    Scheme.EXACT_DISC: (EXACT_RULE, "alpha"),
}


@dataclass(frozen=True)
class SampledFunction:
    """Grid-aligned complex samples of a function on a time scale."""

    grid: Grid
    values: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(map(complex, self.values)))
        if len(self.values) != len(self.grid.points):
            raise ValueError("values and grid must align")
        if not all(map(cmath.isfinite, self.values)):
            raise ValueError("samples must be finite")

    @classmethod
    def sample(cls, fn: Callable[[float], complex], grid: Grid) -> "SampledFunction":
        return cls(grid, tuple(complex(fn(p)) for p in grid.points))

    def value_at(self, t: float) -> complex:
        i = self.grid.index_of(t)
        if i is None:
            raise GridError(f"t={t!r} is not sampled")
        return self.values[i]


# -- averaging -------------------------------------------------------------------


def average(x: SampledFunction, ts: TimeScale, t: float) -> complex:
    """Forward average (x(t) + x(sigma(t))) / 2; plain x(t) at right-dense t."""
    return _average(_Jumps(ts, (t,), x.grid), 0, x)


def double_average(x: SampledFunction, ts: TimeScale, t: float) -> complex:
    """Iterated forward average; equals (x + 2 x^sigma + x^sigma^sigma)/4
    when both forward jumps scatter, and x(t) at right-dense points."""
    return _double_average(_Jumps(ts, (t,), x.grid), 0, x)


def _average(jumps, k: int, x: SampledFunction) -> complex:
    """average at point k of jumps, whose grid is x's."""
    v = x.values[jumps.located_index(k)]
    if not jumps.mu[k]:
        return v
    return _one(_halves, v, x.values[jumps.jump_index(k)])


def _double_average(jumps, k: int, x: SampledFunction) -> complex:
    """double_average at point k of jumps, whose grid is x's."""
    if not jumps.mu[k]:
        return x.values[jumps.located_index(k)]
    return _one(_halves, _average(jumps, k, x), _average(*jumps.jump(k), x))


# -- stencil formulas -------------------------------------------------------------------
# Each is written once, as a chain of C-level maps over columns: a report maps
# it over shifted slices of a regular region, a per-point operator applies it
# to one value each (_one), so both give the same floats.


def _one(formula, *values):
    """formula at one point: its columns of one value each."""
    return next(formula(*((v,) for v in values)))


def _halves(u, w):
    """0.5 * (u + w)."""
    return map(mul, repeat(0.5), map(add, u, w))


def _quotients(v, v_sigma, h):
    """(v_sigma - v) / h: the forward quotient of x over a step h, and of
    the forward quotients x'' over the first of two steps."""
    return map(truediv, map(sub, v_sigma, v), h)


def _dense_second(v0, v1, v2, hl, hr):
    """x'' from samples at t - hl, t and t + hr, a symmetric stencil."""
    top = map(add, map(sub, v2, map(mul, repeat(2.0), v1)), v0)
    return map(truediv, top, map(mul, hl, hr))


# -- first-order solver ------------------------------------------------------------


def solve_first_order(
    scheme: Scheme,
    ts: TimeScale,
    alpha,
    x0: complex,
    t0: float,
    grid: Grid,
    tol: float = DEFAULT_TOL,
) -> SampledFunction:
    """March the scheme along the grid from the anchor value x(t0) = x0.

    Grid points before t0 are filled by inverting the step factors, which
    the regressivity validation guarantees to be possible. The grid is
    walked once, by the checked walk of the grid exponentials
    (exponential._validate_regressive), and the step factors are taken
    from its items (exponential._grid_steps), a stretch of scattered steps
    with C-level maps; the values are marched forward and back from the
    anchor with C-level accumulates. A marched value or step factor that
    overflows raises ToleranceError.

    Every scheme steps from a right-dense point past its interval's
    unsampled upper end by the exponential of the dense view's delta
    integral, exp(mu * alpha) across the jump, not by its step factor.
    """
    coeff = as_coefficient(alpha)
    items, read = _validate_scheme(scheme, ts, coeff, grid)
    _, t0s = ts._locate(t0)
    anchor = grid.index_of(t0s)
    if anchor is None:
        raise GridError(f"t0={t0!r} must be a grid point")
    pts = grid.points
    values: list[complex] = [0j] * len(pts)
    values[anchor] = complex(x0)
    step = _SCHEME_RULES[scheme][0].factor
    dense = lambda ps, xs: map(_exp, _dense_integrals(ts, coeff, tol, ps, xs))
    before, after = _split_steps(items, anchor)
    steps = _grid_steps(pts, after, coeff, read, step, dense)
    values[anchor:] = accumulate(steps, mul, initial=values[anchor])  # values[k] * factor
    back = list(_grid_steps(pts, before, coeff, read, step, dense))
    if 0 in back or not all(map(cmath.isfinite, back)):
        # the first factor that cannot be inverted, marching down from the anchor
        k = max(k for k, f in enumerate(back) if f == 0 or not cmath.isfinite(f))
        if back[k] == 0:
            raise RegressivityError("zero step factor cannot be inverted")
        raise ToleranceError(f"step factor {back[k]!r} at t={pts[k]!r} is not finite")
    # values[k] = values[k + 1] / the step's factor, from the anchor down
    back = accumulate(reversed(back), truediv, initial=values[anchor])
    values[: anchor + 1] = reversed(list(back))
    # a non-finite x0 is the caller's, and SampledFunction reports it
    if cmath.isfinite(values[anchor]) and not all(map(cmath.isfinite, values)):
        bad = [k for k, v in enumerate(values) if not cmath.isfinite(v)]
        k = next((k for k in bad if k > anchor), bad[-1])  # first in marching order
        raise ToleranceError(f"solution overflows at t={pts[k]!r}")
    return SampledFunction(grid, tuple(values))


def _validate_scheme(scheme, ts, coeff, grid) -> tuple[list[tuple], dict | None]:
    """The one checked walk of the grid (exponential._validate_regressive)
    with the scheme's step rule and the name its messages give the
    coefficient."""
    return _validate_regressive(*_SCHEME_RULES[scheme], ts, coeff, grid.points)


# -- correction factors --------------------------------------------------------------


def psi(alpha: complex, mu: float) -> complex:
    """Trapezoidal correction tanh(alpha*mu/2) / (alpha*mu/2); one at mu=0.

    Multiplying the trapezoidal coefficient by this factor makes the
    stepping exact for the constant-coefficient flow. Guarded against the
    tanh pole with margin 1e-9.
    """
    alpha = complex(alpha)
    if mu == 0 or alpha == 0:
        return 1 + 0j
    w = 0.5 * alpha * mu
    if abs(w.real) < REGRESSIVITY_MARGIN and abs(math.cos(w.imag)) < REGRESSIVITY_MARGIN:
        raise SingularError(f"alpha*mu/2 = {w!r} is within guard distance of a tanh pole")
    if abs(w) < 1e-4:
        w2 = w * w
        return 1.0 - w2 / 3.0 + 2.0 * w2 * w2 / 15.0
    return cmath.tanh(w) / w


def phi(x: float) -> float:
    """Even correction tan(x/2) / (x/2); one at zero, singular at odd pi."""
    x = float(x)
    if x == 0:
        return 1.0
    if abs(abs(math.remainder(x, 2.0 * math.pi)) - math.pi) < REGRESSIVITY_MARGIN:
        raise SingularError(f"x={x!r} is within guard distance of an odd multiple of pi")
    if abs(x) < 1e-4:
        x2 = x * x
        return 1.0 + x2 / 12.0 + x2 * x2 / 120.0
    return math.tan(0.5 * x) / (0.5 * x)


def sinc(x: float) -> float:
    """Unnormalized sinc sin(x)/x with sinc(0) = 1."""
    x = float(x)
    if abs(x) < 1e-4:
        x2 = x * x
        return 1.0 - x2 / 6.0 + x2 * x2 / 120.0
    return math.sin(x) / x


# -- modified delta derivatives ---------------------------------------------------------


def delta_prime(alpha: complex, ts: TimeScale, x: SampledFunction, t: float) -> complex:
    """Modified quotient (x(sigma(t)) - x(t)) / ((2/alpha) tanh(alpha*mu/2)).

    Built so the exact flow of the constant-coefficient equation satisfies
    the plain trapezoidal law under it. At right-dense points falls back
    to an ordinary derivative estimate from neighboring samples.
    """
    jumps = _Jumps(ts, (t,), x.grid)
    mu = jumps.mu[0]
    if not mu:
        return _sample_derivative(jumps, 0, x)
    d = mu * psi(alpha, mu)
    if d == 0:
        raise SingularError(f"degenerate quotient denominator at t={t!r}")
    v_sigma = x.values[jumps.jump_index(0)]
    return _one(_quotients, x.values[jumps.located_index(0)], v_sigma, d)


def delta_doubleprime(omega: float, ts: TimeScale, x: SampledFunction, t: float) -> complex:
    """Oscillator-adapted quotient (x(sigma(t)) - x(t) cos(omega*mu)) * omega / sin(omega*mu).

    Restricts harmonic solutions to their continuum derivative at grid
    points. Requires |omega*mu| < pi; at right-dense points falls back to
    an ordinary derivative estimate from neighboring samples.
    """
    omega = float(omega)
    return _delta_doubleprime(omega, _Jumps(ts, (t,), x.grid), 0, x)


def _delta_doubleprime(omega: float, jumps, k: int, x: SampledFunction) -> complex:
    """delta_doubleprime at point k of jumps, whose grid is x's."""
    mu = jumps.mu[k]
    if not mu:
        return _sample_derivative(jumps, k, x)
    cos, den = _oscillator_step(omega, mu)
    v = x.values[jumps.jump_index(k)]
    return _one(_quotients, x.values[jumps.located_index(k)] * cos, v, den)


def _oscillator_step(omega: float, mu: float) -> tuple[float, float]:
    """cos(omega*mu) and the denominator mu * sinc(omega*mu) of
    delta_doubleprime for a gap mu, which must keep |omega*mu| below pi."""
    if abs(omega * mu) >= math.pi - REGRESSIVITY_MARGIN:
        raise SingularError(f"|omega*mu| = {abs(omega * mu)!r} must stay below pi")
    return math.cos(omega * mu), mu * sinc(omega * mu)


def _sample_derivative(jumps, k: int, x: SampledFunction) -> complex:
    i = jumps.located_index(k)
    pts, vals = x.grid.points, x.values
    if 0 < i < len(pts) - 1:
        return (vals[i + 1] - vals[i - 1]) / (pts[i + 1] - pts[i - 1])
    if i == 0:
        if len(pts) < 2:
            raise GridError("need at least two samples for a derivative estimate")
        return (vals[1] - vals[0]) / (pts[1] - pts[0])
    return (vals[i] - vals[i - 1]) / (pts[i] - pts[i - 1])


# -- second-order residuals ---------------------------------------------------------------


def _check_aligned(x: SampledFunction, grid: Grid) -> None:
    if grid.points != x.grid.points:
        raise GridError("samples and grid do not align")


def _second_delta(jumps, k: int, x: SampledFunction) -> complex | None:
    """x'' at point k of jumps, whose grid is x's, or None when the
    stencil is unavailable.

    Defined at points with two scattered forward jumps, and at interior
    right-and-left-dense points with a symmetric sampled stencil.
    """
    pts, vals, t = x.grid.points, x.values, jumps.points[k]
    i = jumps.index(k, t)
    if i is None:
        return None
    jumps.check(k)
    s = jumps.sigma[k]
    if s > t:
        j = jumps.next[k]
        if j is None:
            return None
        after, m = jumps.jump(k)
        s2, j2 = after.sigma[m], after.next[m]
        if s2 == s or j2 is None:
            return None
        d = _one(_quotients, vals[i], vals[j], s - t)
        d_sigma = _one(_quotients, vals[j], vals[j2], s2 - s)
        return _one(_quotients, d, d_sigma, s - t)
    if i == 0 or i == len(pts) - 1:
        return None
    if jumps.rho(k) < t:
        return None
    hl = pts[i] - pts[i - 1]
    hr = pts[i + 1] - pts[i]
    if _one(_asymmetric, hl, hr):
        return None
    return _one(_dense_second, vals[i - 1], vals[i], vals[i + 1], hl, hr)


def _second_order_report(identity: str, jumps, x: SampledFunction, form, tol: float):
    """The report of form(dd, da, xs), columns of x'', avg(avg(x)) and
    x(sigma), over the points of jumps, whose grid is x's, skipping points
    with no x'' stencil: the per-point operators at each point, and C-level
    maps over shifted slices of the columns on each regular region."""
    vals = x.values

    def residual(k):
        dd = _second_delta(jumps, k, x)
        if dd is None:
            return None
        da = _double_average(jumps, k, x)
        return _one(form, dd, da, vals[jumps.jump_index(k)])

    def region(a, b):
        if jumps.mu[a]:  # a stretch: point k's jumps are points k + 1 and k + 2
            v, mu = vals[a : b + 2], jumps.mu[a : b + 1]
            # the quotient and average at point k are those at the jump of k - 1
            d, avg = list(_quotients(v, v[1:], mu)), list(_halves(v, v[1:]))
            return form(_quotients(d, d[1:], mu), _halves(avg, avg[1:]), v[1:])
        pts, v1 = jumps.points, vals[a:b]  # a run's interior: each point its own jump
        hs = list(map(sub, pts[a : b + 1], pts[a - 1 : b]))
        dd = _dense_second(vals[a - 1 : b - 1], v1, vals[a + 1 : b + 1], hs, hs[1:])
        return form(dd, v1, v1)

    return collect(identity, jumps.points, residual, tol, jumps.regular(2), region)


def oscillator_residual_cayley(
    ts: TimeScale,
    param: complex,
    x: SampledFunction,
    grid: Grid,
    tol: float = DEFAULT_TOL,
    kind: TrigKind = TrigKind.TRIGONOMETRIC,
) -> ResidualReport:
    """Residual of x'' + omega^2 avg(avg(x)) = 0 over the grid.

    The hyperbolic variant checks x'' = alpha^2 avg(avg(x)) instead.
    Points without a usable second-derivative stencil are skipped and
    reported.
    """
    _check_aligned(x, grid)
    return _oscillator_cayley(_Jumps(ts, grid.points, grid), param, x, tol, kind)


def _oscillator_cayley(jumps, param, x, tol, kind=TrigKind.TRIGONOMETRIC) -> ResidualReport:
    """oscillator_residual_cayley over the points of jumps, whose grid is x's."""
    op = add if kind is TrigKind.TRIGONOMETRIC else sub

    def form(dd, da, _):
        return map(abs, map(op, dd, map(mul, repeat(complex(param) ** 2), da)))

    return _second_order_report(f"oscillator-cayley-{kind.value}", jumps, x, form, tol)


@dataclass(frozen=True)
class ExactOscillatorResult:
    """Both equivalent residual forms of the exact oscillator equation."""

    phi_form: ResidualReport  # x'' + omega^2 phi^2(omega*mu) avg(avg(x)) = 0
    sinc_form: ResidualReport  # x'' + omega^2 sinc^2(omega*mu/2) x(sigma(t)) = 0
    form_agreement: float  # max pointwise gap between the two left-hand sides

    @property
    def max_residual(self) -> float:
        return max(self.phi_form.max_residual, self.sinc_form.max_residual)


def oscillator_residual_exact(
    ts: TimeScale,
    omega: float,
    x: SampledFunction,
    grid: Grid,
    tol: float = DEFAULT_TOL,
) -> ExactOscillatorResult:
    """Residuals of the two equivalent constant-graininess oscillator forms.

    Requires a constant-graininess scale and |omega*mu| < pi. For samples
    of the restricted sin/cos both forms vanish and agree pointwise.
    """
    _check_aligned(x, grid)
    mu = ts.constant_graininess()
    if mu is None:
        raise ConstantGraininessError("scale does not have constant graininess")
    omega = float(omega)
    if abs(omega * mu) >= math.pi - REGRESSIVITY_MARGIN:
        raise SingularError(f"|omega*mu| = {abs(omega * mu)!r} must stay below pi")
    w2phi2 = omega * omega * phi(omega * mu) ** 2
    w2sinc2 = omega * omega * sinc(0.5 * omega * mu) ** 2
    phi_forms, sinc_forms = [], []  # both forms at each point that is not skipped

    def form(dd, da, xs):
        dd = list(dd)
        phis = list(map(add, dd, map(mul, repeat(w2phi2), da)))
        phi_forms.extend(phis)
        sinc_forms.extend(map(add, dd, map(mul, repeat(w2sinc2), xs)))
        return map(abs, phis)

    jumps = _Jumps(ts, grid.points, grid)
    phi_report = _second_order_report("oscillator-exact-phi", jumps, x, form, tol)
    sinc_r = tuple(map(abs, sinc_forms))
    return ExactOscillatorResult(
        phi_report,
        replace(phi_report, identity="oscillator-exact-sinc", residuals=sinc_r),
        max([0.0, *map(abs, map(sub, phi_forms, sinc_forms))]),
    )


def delbis_relation_residual(
    ts: TimeScale,
    omega: float,
    x: SampledFunction,
    grid: Grid,
    tol: float = DEFAULT_TOL,
) -> ResidualReport:
    """Residual of the pointwise relation between the plain quotient and
    the oscillator-adapted one, q:

        plain = sinc(omega*mu) * q - (mu/2) omega^2 sinc^2(omega*mu/2) x

    which holds algebraically at right-scattered points for arbitrary
    samples. Requires constant graininess; right-dense points are skipped
    (both quotients collapse to the same ordinary derivative there).
    """
    _check_aligned(x, grid)
    mu = ts.constant_graininess()
    if mu is None:
        raise ConstantGraininessError("scale does not have constant graininess")
    omega = float(omega)
    if mu > 0 and abs(omega * mu) >= math.pi - REGRESSIVITY_MARGIN:
        raise SingularError(f"|omega*mu| = {abs(omega * mu)!r} must stay below pi")
    corr = 0.5 * mu * omega * omega * sinc(0.5 * omega * mu) ** 2
    sinc_mu, vals = sinc(omega * mu), x.values
    jumps = _Jumps(ts, grid.points, grid)

    def form(v, v_sigma, h, q):
        rhs = map(sub, map(mul, repeat(sinc_mu), q), map(mul, repeat(corr), v))
        return map(abs, map(sub, _quotients(v, v_sigma, h), rhs))

    def residual(k):
        jumps.check(k)
        p, s, j = jumps.points[k], jumps.sigma[k], None
        if jumps.mu[k] is not None and s != p:
            j = jumps.next[k]
        if j is None:
            return None
        i = jumps.index(k, p)
        if i is None:
            raise GridError(f"t={p!r} is not sampled")
        q = _delta_doubleprime(omega, jumps, k, x)
        return _one(form, vals[i], vals[j], s - p, q)

    steps: dict = {}  # each gap's (cos, den), or the error of its guard

    def step(gap, _):
        try:
            return _oscillator_step(omega, gap)
        except SingularError as exc:
            return exc

    def region(a, b):
        if not jumps.mu[a]:  # a run's interior: each point right-dense
            return repeat(None, b - a)
        mus = jumps.mu[a:b]
        _by_gap(steps, mus, mus, step)
        at = list(map(steps.__getitem__, mus))
        cut = next(compress(count(), map(isinstance, at, repeat(SingularError))), len(at))
        v, v_sigma, at = vals[a : a + cut], vals[a + 1 : a + cut + 1], at[:cut]
        q = _quotients(map(mul, v, map(itemgetter(0), at)), v_sigma, map(itemgetter(1), at))
        residuals = list(form(v, v_sigma, mus, q))
        if cut < len(mus):
            raise steps[mus[cut]]  # at the first point that has the gap
        return residuals

    return collect("delbis", grid.points, residual, tol, jumps.regular(1), region)
