"""First-order solvers, averaging operators, modified delta derivatives and
second-order oscillator residuals.

The three stepping schemes mirror three exponential constructions:
forward stepping multiplies by 1 + mu*beta, trapezoidal stepping by the
Cayley factor (1 + mu*alpha/2)/(1 - mu*alpha/2), and exact stepping by
exp(alpha*mu). The factors and their regressivity tests are the step-rule
table's in transforms. Dense segments integrate the continuum equation:
every scheme steps there by the exponential of the coefficient's integral.

Cost: a residual report walks its grid once (timescale._Jumps; the
oscillator-cayley report shares one table between its two passes), gathers
each point's stencil by the table's grid index columns (timescale._gather)
and maps the stencil formulas (trig._quotients, trig._halves, _dense_second)
over them, no Python call per point; delbis takes each distinct gap's
cosine, denominator and pi guard once (exponential._GapMemo). The pointwise
operators apply the same formulas to a one-point table: the same floats.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace
from enum import Enum
from itertools import accumulate, compress, count, repeat
from operator import add, and_, is_not, itemgetter, mul, ne, sub, truediv
from typing import Callable, Iterator, Sequence

from .errors import (
    ConstantGraininessError,
    GridError,
    RegressivityError,
    SingularError,
    ToleranceError,
)
from .exponential import (
    _GapMemo,
    _dense_integrals,
    _exp,
    _exps,
    _grid_steps,
    _split_steps,
    _validate_regressive,
)
from .timescale import DEFAULT_TOL, Grid, TimeScale, _gather, _Jumps
from .transforms import (
    CAYLEY_RULE,
    EXACT_RULE,
    FORWARD_RULE,
    REGRESSIVITY_MARGIN,
    as_coefficient,
)
from .report import ResidualReport, collect
from .trig import TrigKind, _halves, _merged, _quotients


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
        return cls(grid, tuple(map(fn, grid.points)))

    def value_at(self, t: float) -> complex:
        i = self.grid.index_of(t)
        if i is None:
            raise GridError(f"t={t!r} is not sampled")
        return self.values[i]


# -- averaging -------------------------------------------------------------------


def average(x: SampledFunction, ts: TimeScale, t: float) -> complex:
    """Forward average (x(t) + x(sigma(t))) / 2; plain x(t) at right-dense t."""
    jumps = _Jumps(ts, (t,), x.grid)
    v = x.values[jumps.located_index(0)]
    return _one(_halves, v, x.values[jumps.jump_index(0)]) if jumps.mu[0] else v


def double_average(x: SampledFunction, ts: TimeScale, t: float) -> complex:
    """Iterated forward average; equals (x + 2 x^sigma + x^sigma^sigma)/4
    when both forward jumps scatter, and x(t) at right-dense points."""
    jumps, avg = _Jumps(ts, (t,), x.grid), average(x, ts, t)
    return _one(_halves, avg, average(x, ts, jumps.sigma[0])) if jumps.mu[0] else avg


# -- stencil formulas -------------------------------------------------------------------
# With trig._halves and trig._quotients, each is a chain of C-level maps over
# columns: of the values a report gathers, or of one value each (_one).


def _one(formula, *values):
    """formula at one point: its columns of one value each."""
    return next(formula(*((v,) for v in values)))


def _dense_second(v0, v1, v2, hl, hr):
    """x'' from samples at t - hl, t and t + hr, a symmetric stencil."""
    top = map(add, map(sub, v2, map(mul, repeat(2.0), v1)), v0)
    return map(truediv, top, map(mul, hl, hr))


def _slopes(x: SampledFunction, at: Sequence[int]) -> Iterator[complex]:
    """The ordinary derivative estimate at each grid index of at, from the
    samples beside it: the central difference, one-sided at the grid's ends."""
    pts, vals, last = x.grid.points, x.values, len(x.values) - 1
    if at and not last:
        raise GridError("need at least two samples for a derivative estimate")
    lo = tuple(map(max, map(sub, at, repeat(1)), repeat(0)))
    hi = tuple(map(min, map(add, at, repeat(1)), repeat(last)))
    h = map(sub, _gather(pts, hi), _gather(pts, lo))
    return _quotients(_gather(vals, lo), _gather(vals, hi), h)


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
    with C-level maps, and a run's dense pieces take their exponentials in
    one; the values are marched forward and back from the anchor with
    C-level accumulates. A marched value or step factor that overflows
    raises ToleranceError, as does a dense piece's exponential, at the
    first such piece in walk order.

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

    def dense(ps, xs):
        pieces = _dense_integrals(ts, coeff, tol, ps, xs)
        # a run's list of pieces takes one C-level map; a generator, which
        # _exps' fallback would read twice, takes each piece as it comes
        return _exps(pieces) if isinstance(pieces, (list, tuple)) else map(_exp, pieces)

    before, after = _split_steps(items, anchor)
    steps = _grid_steps(pts, coeff, read, step, dense)
    values[anchor:] = accumulate(steps(after), mul, initial=values[anchor])  # values[k] * factor
    back = list(steps(before))
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
        return next(_slopes(x, [jumps.located_index(0)]))
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
    jumps = _Jumps(ts, (t,), x.grid)
    mu = jumps.mu[0]
    if not mu:
        return next(_slopes(x, [jumps.located_index(0)]))
    step = _oscillator_step(float(omega), mu)
    if isinstance(step, SingularError):
        raise step
    v = x.values[jumps.jump_index(0)]
    return _one(_quotients, x.values[jumps.located_index(0)] * step[0], v, step[1])


def _oscillator_step(omega: float, mu: float) -> tuple[float, float] | SingularError:
    """cos(omega*mu) and the denominator mu * sinc(omega*mu) of
    delta_doubleprime for a gap mu; the error to raise at |omega*mu| >= pi."""
    if abs(omega * mu) >= math.pi - REGRESSIVITY_MARGIN:
        return SingularError(f"|omega*mu| = {abs(omega * mu)!r} must stay below pi")
    return math.cos(omega * mu), mu * sinc(omega * mu)


# -- second-order residuals ---------------------------------------------------------------


def _check_aligned(x: SampledFunction, grid: Grid) -> None:
    if grid.points != x.grid.points:
        raise GridError("samples and grid do not align")


def _constant_step(ts: TimeScale, omega: float, x: SampledFunction, grid: Grid):
    """The constant graininess mu and float omega; |omega*mu| must stay below pi."""
    _check_aligned(x, grid)
    mu = ts.constant_graininess()
    if mu is None:
        raise ConstantGraininessError("scale does not have constant graininess")
    omega = float(omega)
    if abs(omega * mu) >= math.pi - REGRESSIVITY_MARGIN:
        raise SingularError(f"|omega*mu| = {abs(omega * mu)!r} must stay below pi")
    return mu, omega


def _second_order_report(identity: str, jumps, x: SampledFunction, form, tol: float):
    """The report of form(dd, da, xs), columns of x'', avg(avg(x)) and
    x(sigma), over the points of jumps, whose grid is x's: quotients over a
    point's two jumps below its jump, the symmetric second difference over
    its grid neighbours where right-dense (a C-level sort puts the two in
    point order), else skipped. Raises the first error in point order."""
    pts, vals, e = jumps.points, x.values, jumps.stop
    (ks, js, j2, ss, s2), (ds, i, hl, hr) = jumps.stencils
    h = list(map(sub, ss, _gather(pts, ks)))
    vj, vj2 = _gather(vals, js), _gather(vals, j2)
    d = _quotients(_gather(vals, _gather(jumps.own, ks)), vj, h)
    dd = _quotients(d, _quotients(vj, vj2, map(sub, s2, ss)), h)
    da = _halves(_halves(_gather(vals, _gather(jumps.at, ks)), vj), _halves(vj, vj2))
    vl, vi, vr = (_gather(vals, map(add, i, repeat(off))) for off in (-1, 0, 1))
    dense = list(_dense_second(vl, vi, vr, hl, hr))
    cols = dd, da, vj
    if ds:  # the two kinds in point order
        order = sorted(range(len(ks) + len(ds)), key=(ks + ds).__getitem__)
        cols = (_gather([*u, *w], order) for u, w in ((dd, dense), (da, vi), (vj, vi)))
    residuals = list(_merged(e, (sorted(ks + ds), form(*cols) if ks or ds else ())))
    jumps.check(e)
    return collect(identity, pts, residuals, tol)


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
    mu, omega = _constant_step(ts, omega, x, grid)
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
    mu, omega = _constant_step(ts, omega, x, grid)
    corr, sinc_mu = 0.5 * mu * omega * omega * sinc(0.5 * omega * mu) ** 2, sinc(omega * mu)
    jumps = _Jumps(ts, grid.points, grid)
    pts, vals, e = jumps.points, x.values, jumps.stop
    # a point apart from its jump, off the left-scattered maximum
    apart = map(and_, map(is_not, jumps.mu[:e], repeat(None)), map(ne, jumps.sigma[:e], pts))
    ks, js = jumps.jumping(compress(range(e), apart))
    mus, failed = _gather(jumps.mu, ks), ()
    if mu:  # isolated points: each gap's cosine, denominator and pi guard once
        at = _GapMemo(lambda gap, _: _oscillator_step(omega, gap)).over(mus, mus)
        cut = next(compress(count(), map(isinstance, at, repeat(SingularError))), len(at))
        ks, js, at, failed = ks[:cut], js[:cut], at[:cut], at[cut:]
        vc = map(mul, _gather(vals, _gather(jumps.at, ks)), map(itemgetter(0), at))
        q = _quotients(vc, _gather(vals, js), map(itemgetter(1), at))
    else:  # one interval: the ordinary derivative estimate at a point located apart
        q = _slopes(x, _gather(jumps.at, ks))
    vi = _gather(vals, _gather(jumps.own, ks))
    h = map(sub, _gather(jumps.sigma, ks), _gather(pts, ks))
    plain = _quotients(vi, _gather(vals, js), h)
    rhs = map(sub, map(mul, repeat(sinc_mu), q), map(mul, repeat(corr), vi))
    residuals = list(_merged(e, (ks, map(abs, map(sub, plain, rhs)))))
    if failed:
        raise failed[0]  # at the first point that has the gap
    jumps.check(e)
    return collect("delbis", grid.points, residuals, tol)
