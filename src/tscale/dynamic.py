"""First-order solvers, averaging operators, modified delta derivatives and
second-order oscillator residuals.

The three stepping schemes mirror the three exponential constructions:
forward stepping multiplies by 1 + mu*beta, trapezoidal stepping by the
Cayley factor (1 + mu*alpha/2)/(1 - mu*alpha/2), and exact stepping by
exp(alpha*mu). The first two factors and their regressivity tests are the
step-rule table's in transforms. Dense segments integrate the continuum
equation; the exact scheme uses the closed-form flow there, never quadrature.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from enum import Enum
from itertools import accumulate
from operator import mul
from typing import Callable

from .errors import (
    ConstantGraininessError,
    GridError,
    RegressivityError,
    SingularError,
    ToleranceError,
)
from .exponential import _exp
from .timescale import DEFAULT_TOL, Grid, Run, TimeScale
from .transforms import CAYLEY_RULE, FORWARD_RULE, REGRESSIVITY_MARGIN, as_coefficient
from .report import ResidualReport
from .trig import TrigKind


class Scheme(Enum):
    EXPLICIT_DELTA = "explicit"  # x' = beta * x
    TRAPEZOIDAL_CAYLEY = "trapezoidal"  # x' = alpha * avg(x)
    EXACT_DISC = "exact"  # x' = alpha * psi * avg(x), constant alpha


# Each scheme's step rule, and the name its messages give the coefficient;
# the exact scheme has none: it steps by the continuum flow, which never
# degenerates.
_SCHEME_RULES = {
    Scheme.EXPLICIT_DELTA: (FORWARD_RULE, "beta"),
    Scheme.TRAPEZOIDAL_CAYLEY: (CAYLEY_RULE, "alpha"),
    Scheme.EXACT_DISC: (None, None),
}


@dataclass(frozen=True)
class SampledFunction:
    """Grid-aligned complex samples of a function on a time scale."""

    grid: Grid
    values: tuple[complex, ...]

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(complex(v) for v in self.values))
        if len(self.values) != len(self.grid.points):
            raise ValueError("values and grid must align")
        for v in self.values:
            if not (math.isfinite(v.real) and math.isfinite(v.imag)):
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
    _, tt = ts._locate(t)
    v = x.value_at(tt)
    s = ts.sigma(tt)
    if s == tt:
        return v
    return 0.5 * (v + x.value_at(s))


def double_average(x: SampledFunction, ts: TimeScale, t: float) -> complex:
    """Iterated forward average; equals (x + 2 x^sigma + x^sigma^sigma)/4
    when both forward jumps scatter, and x(t) at right-dense points."""
    _, tt = ts._locate(t)
    s = ts.sigma(tt)
    if s == tt:
        return x.value_at(tt)
    return 0.5 * (average(x, ts, tt) + average(x, ts, s))


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
    walked once: validation keeps the walk records, and the step factors
    are taken from them. A marched value or step factor that overflows
    raises ToleranceError.
    """
    coeff = as_coefficient(alpha)
    if scheme is Scheme.EXACT_DISC and not coeff.is_constant:
        raise ValueError("the exact scheme requires a constant coefficient")
    items = _validate_scheme(scheme, ts, coeff, grid)
    _, t0s = ts._locate(t0)
    anchor = grid.index_of(t0s)
    if anchor is None:
        raise GridError(f"t0={t0!r} must be a grid point")
    pts = grid.points
    values: list[complex] = [0j] * len(pts)
    values[anchor] = complex(x0)
    before, after = _split_steps(items, anchor)
    steps = _step_factors(scheme, ts, coeff, pts, after, tol)
    values[anchor:] = accumulate(steps, mul, initial=values[anchor])  # values[k] * factor
    back = list(_step_factors(scheme, ts, coeff, pts, before, tol))
    for k in range(anchor - 1, -1, -1):
        if back[k] == 0:
            raise RegressivityError("zero step factor cannot be inverted")
        if not cmath.isfinite(back[k]):
            raise ToleranceError(f"step factor {back[k]!r} at t={pts[k]!r} is not finite")
        values[k] = values[k + 1] / back[k]
    # a non-finite x0 is the caller's, and SampledFunction reports it
    if cmath.isfinite(values[anchor]) and not all(map(cmath.isfinite, values)):
        bad = [k for k, v in enumerate(values) if not cmath.isfinite(v)]
        k = next((k for k in bad if k > anchor), bad[-1])  # first in marching order
        raise ToleranceError(f"solution overflows at t={pts[k]!r}")
    return SampledFunction(grid, tuple(values))


def _validate_scheme(scheme, ts, coeff, grid) -> list[tuple]:
    """Check each step factor's regressivity along one walk of the grid, the
    last point's jump (no step of the solve) excepted; return the walk's
    items (TimeScale.walk_runs).

    A step of a run has mu = 0, where a constant coefficient's factor
    cannot degenerate, so only the other kinds are evaluated there; their
    evaluation can raise.
    """
    rule, name = _SCHEME_RULES[scheme]
    pts = grid.points
    items = []
    for item in ts.walk_runs(pts):
        items.append(item)
        if rule is None:
            continue
        if isinstance(item, Run):
            if not coeff.is_constant:
                k, xs = item
                for p in pts[k : k + len(xs) - 1]:
                    rule.check(p, 0.0 * coeff(p), name)
            continue
        p, q, _, mu, _ = item
        if q is not None:
            rule.check(p, mu * coeff(p), name)
    return items


def _split_steps(items, anchor):
    """The walk items of the steps before point anchor and of the steps
    from it on, a run across the anchor cut there; the last point's
    record, which has no step, is dropped."""
    k = 0  # the index of the item's first point
    for n, item in enumerate(items):
        end = k + len(item.points) - 1 if isinstance(item, Run) else k + 1
        if end > anchor:
            break
        k = end
    before, after = items[:n], items[n:-1]
    if k < anchor:
        xs = items[n].points
        before.append(Run(k, xs[: anchor - k + 1]))
        after[0] = Run(anchor, xs[anchor - k :])
    return before, after


def _step_factors(scheme, ts, coeff, pts, items, tol):
    """Step factor over each step of the walk items of the grid points pts."""
    rule = _SCHEME_RULES[scheme][0]
    for item in items:
        if isinstance(item, Run):
            k, xs = item
            if rule is None:
                a = coeff.constant_value
                steps = zip(pts[k : k + len(xs) - 1], pts[k + 1 : k + len(xs)])
                yield from (_exp(a * (q - p)) for p, q in steps)
            else:
                yield from map(_exp, coeff.dense_integrals(ts, xs, tol))
            continue
        p, q, s, _, span = item
        if s > p:
            if abs(s - q) > 1e-12:
                raise GridError(f"grid skips the forward jump of {p!r}")
            a = coeff(p)
            yield _exp(a * (s - p)) if rule is None else rule.factor(s - p, a)
        elif rule is None:
            yield _exp(coeff.constant_value * (q - p))
        else:
            yield _exp(coeff.dense_integral(ts, p, q, span, tol))


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
    _, tt = ts._locate(t)
    s = ts.sigma(tt)
    if s == tt:
        return _sample_derivative(x, tt)
    mu = s - tt
    d = mu * psi(alpha, mu)
    if d == 0:
        raise SingularError(f"degenerate quotient denominator at t={t!r}")
    return (x.value_at(s) - x.value_at(tt)) / d


def delta_doubleprime(omega: float, ts: TimeScale, x: SampledFunction, t: float) -> complex:
    """Oscillator-adapted quotient (x(sigma(t)) - x(t) cos(omega*mu)) * omega / sin(omega*mu).

    Restricts harmonic solutions to their continuum derivative at grid
    points. Requires |omega*mu| < pi; at right-dense points falls back to
    an ordinary derivative estimate from neighboring samples.
    """
    omega = float(omega)
    _, tt = ts._locate(t)
    s = ts.sigma(tt)
    if s == tt:
        return _sample_derivative(x, tt)
    mu = s - tt
    if abs(omega * mu) >= math.pi - REGRESSIVITY_MARGIN:
        raise SingularError(f"|omega*mu| = {abs(omega * mu)!r} must stay below pi")
    den = mu * sinc(omega * mu)
    return (x.value_at(s) - x.value_at(tt) * math.cos(omega * mu)) / den


def _sample_derivative(x: SampledFunction, t: float) -> complex:
    i = x.grid.index_of(t)
    if i is None:
        raise GridError(f"t={t!r} is not sampled")
    pts, vals = x.grid.points, x.values
    if 0 < i < len(pts) - 1:
        return (vals[i + 1] - vals[i - 1]) / (pts[i + 1] - pts[i - 1])
    if i == 0:
        if len(pts) < 2:
            raise GridError("need at least two samples for a derivative estimate")
        return (vals[1] - vals[0]) / (pts[1] - pts[0])
    return (vals[i] - vals[i - 1]) / (pts[i] - pts[i - 1])


# -- second-order residuals ---------------------------------------------------------------


def _second_delta(ts: TimeScale, x: SampledFunction, t: float) -> complex | None:
    """x'' at t, or None when the stencil is unavailable.

    Defined at points with two scattered forward jumps, and at interior
    right-and-left-dense points with a symmetric sampled stencil.
    """
    pts = x.grid.points
    i = x.grid.index_of(t)
    if i is None:
        return None
    s = ts.sigma(t)
    if s > t:
        j = x.grid.index_of(s)
        if j is None:
            return None
        s2 = ts.sigma(s)
        if s2 == s:
            return None
        k = x.grid.index_of(s2)
        if k is None:
            return None
        d1 = (x.values[j] - x.values[i]) / (s - t)
        d2 = (x.values[k] - x.values[j]) / (s2 - s)
        return (d2 - d1) / (s - t)
    if i == 0 or i == len(pts) - 1:
        return None
    if ts.rho(t) < t:
        return None
    hl = pts[i] - pts[i - 1]
    hr = pts[i + 1] - pts[i]
    if abs(hl - hr) > 1e-9 * max(hl, hr):
        return None
    return (x.values[i + 1] - 2.0 * x.values[i] + x.values[i - 1]) / (hl * hr)


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
    if grid.points != x.grid.points:
        raise GridError("samples and grid do not align")
    pts, residuals, skipped = [], [], []
    for p in grid.points:
        dd = _second_delta(ts, x, p)
        if dd is None:
            skipped.append(p)
            continue
        da = double_average(x, ts, p)
        if kind is TrigKind.TRIGONOMETRIC:
            r = abs(dd + complex(param) ** 2 * da)
        else:
            r = abs(dd - complex(param) ** 2 * da)
        pts.append(p)
        residuals.append(r)
    name = f"oscillator-cayley-{kind.value}"
    return ResidualReport(name, tuple(pts), tuple(residuals), tol, skipped=tuple(skipped))


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
    if grid.points != x.grid.points:
        raise GridError("samples and grid do not align")
    mu = ts.constant_graininess()
    if mu is None:
        raise ConstantGraininessError("scale does not have constant graininess")
    omega = float(omega)
    if abs(omega * mu) >= math.pi - REGRESSIVITY_MARGIN:
        raise SingularError(f"|omega*mu| = {abs(omega * mu)!r} must stay below pi")
    w2phi2 = omega * omega * phi(omega * mu) ** 2
    w2sinc2 = omega * omega * sinc(0.5 * omega * mu) ** 2
    pts, r_phi, r_sinc, skipped = [], [], [], []
    agreement = 0.0
    for p in grid.points:
        dd = _second_delta(ts, x, p)
        if dd is None:
            skipped.append(p)
            continue
        a_form = dd + w2phi2 * double_average(x, ts, p)
        b_form = dd + w2sinc2 * x.value_at(ts.sigma(p))
        pts.append(p)
        r_phi.append(abs(a_form))
        r_sinc.append(abs(b_form))
        agreement = max(agreement, abs(a_form - b_form))
    pts_t, skipped_t = tuple(pts), tuple(skipped)
    return ExactOscillatorResult(
        ResidualReport("oscillator-exact-phi", pts_t, tuple(r_phi), tol, skipped=skipped_t),
        ResidualReport("oscillator-exact-sinc", pts_t, tuple(r_sinc), tol, skipped=skipped_t),
        agreement,
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
    if grid.points != x.grid.points:
        raise GridError("samples and grid do not align")
    mu = ts.constant_graininess()
    if mu is None:
        raise ConstantGraininessError("scale does not have constant graininess")
    omega = float(omega)
    if mu > 0 and abs(omega * mu) >= math.pi - REGRESSIVITY_MARGIN:
        raise SingularError(f"|omega*mu| = {abs(omega * mu)!r} must stay below pi")
    pts, residuals, skipped = [], [], []
    corr = 0.5 * mu * omega * omega * sinc(0.5 * omega * mu) ** 2
    for p in grid.points:
        if not ts.in_kappa(p):
            skipped.append(p)
            continue
        s = ts.sigma(p)
        if s == p or x.grid.index_of(s) is None:
            skipped.append(p)
            continue
        lhs = (x.value_at(s) - x.value_at(p)) / (s - p)
        rhs = sinc(omega * mu) * delta_doubleprime(omega, ts, x, p) - corr * x.value_at(p)
        pts.append(p)
        residuals.append(abs(lhs - rhs))
    return ResidualReport(
        "delbis", tuple(pts), tuple(residuals), tol, skipped=tuple(skipped)
    )
