"""Exponential function families on time scales.

Four families share one evaluation core: an exponent integral is
accumulated along the scale (the family's step log at right-scattered
points, quadrature on continuous pieces) and exponentiated once per
requested point; the families differ only in their step rule. Accumulating
the exponent, rather than multiplying step factors, keeps the complex
phase unwrapped over long discrete products.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from enum import Enum
from functools import partial, reduce
from itertools import accumulate, chain, compress, count, islice, repeat, tee
from operator import add, eq, mul, sub
from typing import Sequence

from .errors import (
    DomainError,
    GridError,
    KappaError,
    RegressivityError,
    SingularError,
    ToleranceError,
)
from .timescale import DEFAULT_TOL, Grid, Run, Stretch, TimeScale, _Jumps
from .transforms import (
    BACKWARD_RULE,
    CAYLEY_RULE,
    EXACT_RULE,
    FORWARD_RULE,
    Coefficient,
    StepRule,
    _exp,
    as_coefficient,
)


class ExpFamily(Enum):
    HILGER_DELTA = "hilger"
    NABLA_CONST = "nabla"
    CAYLEY = "cayley"
    EXACT = "exact"


# Each family's step rule.
_STEP_RULES = {
    ExpFamily.HILGER_DELTA: FORWARD_RULE,
    ExpFamily.NABLA_CONST: BACKWARD_RULE,
    ExpFamily.CAYLEY: CAYLEY_RULE,
    ExpFamily.EXACT: EXACT_RULE,
}


def _family_rule(family: ExpFamily, coeff: Coefficient) -> StepRule:
    """The family's step rule, for a coefficient it takes."""
    rule = _STEP_RULES[family]
    if rule.constant_only and not coeff.is_constant:
        raise ValueError("coefficient is not constant")
    return rule


@dataclass(frozen=True)
class ExpEvaluation:
    """Grid evaluation of one exponential family; immutable and shareable."""

    family: ExpFamily
    ts: TimeScale
    alpha: Coefficient
    t0: float
    grid: Grid
    values: tuple[complex, ...]
    tol: float

    def __post_init__(self):
        if len(self.values) != len(self.grid.points):
            raise ValueError("values and grid must align")
        if not all(map(cmath.isfinite, self.values)):
            raise ToleranceError("non-finite exponential value on grid")

    def value_at(self, t: float) -> complex:
        i = self.grid.index_of(t)
        if i is None:
            raise GridError(f"t={t!r} is not a grid point")
        return self.values[i]


# -- exponent integral -----------------------------------------------------------


def _log_integral_range(
    family: ExpFamily, ts: TimeScale, coeff: Coefficient, t0: float, t1: float, tol: float
) -> complex:
    """Exponent integral from t0 to t1: one target of an _Exponent run from
    the lower end (step logs at scattered points plus quadrature of the
    coefficient's dense view on continuous pieces; the cylinder maps reduce
    to the identity at zero graininess there).
    """
    terms = _Terms(family, ts, coeff, tol)  # checks the coefficient first
    # the lower end is located first, as a separate validation pass over
    # [t0, t1] did: of two non-members the same one is reported
    if t0 < t1:
        (i, a), (j, b) = ts._locate(t0), ts._locate(t1)
    else:
        (j, b), (i, a) = ts._locate(t1), ts._locate(t0)
    if a == b:
        return 0j
    if b < a:  # the run from the lower end, negated
        return -1.0 * _Exponent(terms, b, (j, b)).to(a, (i, a))
    return _Exponent(terms, a, (i, a)).to(b, (j, b))


class _Terms:
    """The terms of one family's exponent of one coefficient on one scale:
    the step logs at the scattered right ends of components, and the
    integrals of the dense view over the finished pieces of intervals.
    Every _Exponent run over the same terms shares their step memo.

    Each distinct step is checked and its step log taken once: scales
    repeat their gaps, and a uniform one has a handful. This is bit for
    bit, since the check and the log are pure functions of (mu, alpha). A
    coefficient whose step value is a function of the gap
    (Coefficient._gap_only: a constant, or the Bohner-Peterson deformation
    and the product law's circle-plus) has its steps keyed by mu alone, and
    fold maps a stretch of them through a _GapMemo, as the grid walk does:
    the coefficient is evaluated once per distinct gap. Any other
    coefficient is evaluated at every step a fold reads (Coefficient.at_step,
    with the gap the fold holds), and its steps are keyed by (mu, alpha).
    Keys that compare equal differ at most in the sign of a zero: the abs
    tests of the check cannot tell them apart, and their logs differ at
    most in the sign of a zero, which the fold, started from 0j, erases. A
    NaN alpha matches only the very object it is, whose log is the same. A
    step that fails its check is never kept, so the first RegressivityError
    is raised at the same t. Each pointwise call builds its own terms: a
    scale is immutable, and keeps none."""

    def __init__(self, family: ExpFamily, ts: TimeScale, coeff: Coefficient, tol: float):
        self.ts, self.coeff, self.tol = ts, coeff, tol
        self._rule = rule = _family_rule(family, coeff)
        self._gap_only = coeff._gap_only
        # log by mu (not by a bound method of self, a cycle) or by (mu, alpha)
        self._steps = _GapMemo(partial(_checked_log, rule, coeff)) if self._gap_only else {}

    def fold(self, total: complex, lo: int, e: int) -> complex:
        """total plus the step logs at the right ends of components lo to
        e - 1, added in ascending order, each step checked before its log
        is first taken."""
        mus, steps = self.ts._gaps(lo, e), self._steps
        if not self._gap_only:
            return reduce(add, map(self._step_log, mus, self.ts._rights[lo:e]), total)
        try:  # every gap kept, as after the first target
            return reduce(add, map(steps.__getitem__, mus), total)
        except KeyError:  # a gap met for the first time
            return reduce(add, steps.over(mus, self.ts._rights, lo), total)

    def _step_log(self, mu: float, s: float) -> complex:
        """The step log of graininess mu at s for a coefficient whose step
        value is not a function of the gap, its (mu, alpha) checked for
        regressivity just before its log is first taken."""
        alpha = self.coeff.at_step(mu, s)
        w = self._steps.get((mu, alpha))
        if w is None:
            self._rule.check(s, mu * alpha, "alpha")
            w = self._steps[mu, alpha] = self._rule.log(mu, alpha)
        return w

    def pieces(self, passed: Sequence[int], a: float, b: float) -> list[complex]:
        """The integrals of the dense view over the pieces in [a, b] of the
        intervals passed (component indices, ascending), in order, as one
        Coefficient.dense_integrals call: the intervals, all below b's
        component, the first clipped at a and dropped if that empties it.
        A piece that raises leaves the ones after it uncomputed, as a loop
        would."""
        ts = self.ts
        los = list(map(ts._lefts.__getitem__, passed))
        his = list(map(ts._rights.__getitem__, passed))
        los[0] = max(los[0], a)  # each later interval starts above a
        if not los[0] < his[0]:
            del los[0], his[0]
        return list(self.coeff.dense_integrals(los, his, self.tol))


def _checked_log(rule: StepRule, coeff: Coefficient, mu: float, s: float) -> complex:
    """The step log of graininess mu at s, checked for regressivity."""
    alpha = coeff.at_step(mu, s)
    rule.check(s, mu * alpha, "alpha")
    return rule.log(mu, alpha)


class _GapMemo(dict):
    """fn(mu, p) by gap mu for the scattered steps of a coefficient whose
    step value is a function of the gap (Coefficient._gap_only), filled as
    over reads a stretch: once per distinct gap, in order of first
    occurrence, p the point its first step leaves (sought from the last
    gap filled on). The gaps are finite and above the membership tolerance
    (no NaN, no signed zero), so each step's value is the same bit for
    bit, and a fn that raises does so at the step a loop would. Outside
    over a missing gap raises KeyError."""

    def __init__(self, fn):
        self._fn, self._mus = fn, None

    def over(self, mus: list[float], ps: Sequence[float], k: int = 0) -> list:
        """The values of the gaps mus in one C-level map, mus[i] leaving ps[k + i]."""
        self._mus, self._ps, self._k, self._at = mus, ps, k, 0
        try:
            return list(map(self.__getitem__, mus))
        finally:
            self._mus = self._ps = None

    def __missing__(self, mu: float):
        if self._mus is None:
            raise KeyError(mu)
        i = self._at = self._mus.index(mu, self._at)
        w = self[mu] = self._fn(mu, self._ps[self._k + i])
        return w


class _Exponent:
    """Exponent integral from one anchor to targets taken in ascending order.

    Each target gets the fold of a separate pass over [anchor, target],
    bit for bit: the step logs summed from 0j in ascending order, each
    checked for regressivity just before its log is taken (so the first
    RegressivityError is the one that pass raises), then the dense pieces
    added one by one. The step-log sum and the finished pieces carry over
    from the last target, so a target adds its new step logs and finished
    pieces and integrates only its own partial piece. Its new scattered
    ends are one slice of the component ends and the intervals it has
    passed one slice of the scale's intervals, both found by bisection.
    _Terms.fold adds the step logs, _Terms.pieces integrates the passed
    intervals' pieces as a whole, and one reduce adds the finished pieces.
    A run over n targets on a discrete scale costs O(n) in all. With a
    coefficient whose step value is a function of the gap that is C-level
    work per component plus one coefficient call, check and log per
    distinct gap of the shared terms; with any other, one coefficient call
    per component of the run and one check and log per distinct
    (mu, alpha) of the shared terms.
    """

    def __init__(self, terms: _Terms, anchor: float, located=None):
        self._terms = terms
        self._k, self._a = located or terms.ts._locate(anchor)  # (component, value)
        self._b = self._a  # the last target
        self._sum = 0j  # the step logs in [anchor, last target)
        self._pieces: list[complex] = []  # the finished pieces' integrals

    def to(self, x: float, located=None) -> complex:
        terms, a, k = self._terms, self._a, self._k
        ts = terms.ts
        lefts, rights, intervals = ts._lefts, ts._rights, ts._intervals
        _, b = located or ts._locate(x)
        if b == a:
            return 0j
        if b < self._b:
            raise ValueError(f"target {x!r} is below the last target {self._b!r}")
        # the scattered right ends in [a, b) are those of components lo to
        # e - 1: b can lie an ulp past the supremum, which is not
        # right-scattered, and a an ulp past the end of the interval it is
        # located in
        e = bisect_left(rights, b, k, len(rights) - 1)
        lo = bisect_left(rights, a, k, e)
        total = terms.fold(self._sum, lo, e) if lo < e else self._sum
        pieces = self._pieces
        if intervals:
            passed = intervals[bisect_left(intervals, k) : bisect_left(intervals, e)]
            if passed:
                pieces = pieces + terms.pieces(passed, a, b)
        self._b, self._k, self._sum, self._pieces = b, e, total, pieces
        total = reduce(add, pieces, total)
        # empty at a point, whose ends are equal
        c, d = max(lefts[e], a), min(rights[e], b)
        if d > c:
            total += terms.coeff.dense_integral(c, d, terms.tol)
        return total


def _exps(ws: list[complex]) -> tuple[complex, ...]:
    """_exp of each exponent in order."""
    try:
        return tuple(map(cmath.exp, ws))
    except (OverflowError, ValueError):
        return tuple(map(_exp, ws))  # raises for the first exponent that overflows


# -- pointwise evaluation --------------------------------------------------------


def exp_hilger(ts: TimeScale, alpha, t: float, t0: float, tol: float = DEFAULT_TOL) -> complex:
    """Forward-step exponential: exp of the delta integral of the cylinder map.

    On a uniform discrete scale with constant alpha this equals
    (1 + alpha*eps) ** (t/eps).
    """
    return _exp_point(ExpFamily.HILGER_DELTA, ts, alpha, t, t0, tol)


def exp_cayley(ts: TimeScale, alpha, t: float, t0: float, tol: float = DEFAULT_TOL) -> complex:
    """Cayley exponential: exp of the delta integral of the Cayley cylinder map.

    On a uniform discrete scale with constant alpha this equals
    ((1 + alpha*eps/2) / (1 - alpha*eps/2)) ** (t/eps).
    """
    return _exp_point(ExpFamily.CAYLEY, ts, alpha, t, t0, tol)


def exp_nabla_const(eps: float, alpha: complex, t: float) -> complex:
    """Backward-step exponential on a uniform discrete scale, constant alpha.

    Defined as (1 - alpha*eps) ** (-t/eps); t must be an integer multiple
    of eps.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    alpha = complex(alpha)
    k = round(t / eps)
    if abs(t - k * eps) > 1e-9 * max(1.0, abs(t)):
        raise DomainError(f"t={t!r} is not an integer multiple of eps={eps!r}")
    base = 1.0 - alpha * eps
    if base == 0:
        raise SingularError(f"alpha*eps = 1 for alpha={alpha!r}, eps={eps!r}")
    return base ** (-k)


def exp_exact(alpha: complex, t: float, t0: float) -> complex:
    """Restriction of the continuum exponential: exp(alpha * (t - t0))."""
    return _exp(complex(alpha) * (t - t0))


# -- grid evaluation --------------------------------------------------------------


def exp_evaluate_grid(
    family: ExpFamily,
    ts: TimeScale,
    alpha,
    t0: float,
    grid: Grid,
    tol: float = DEFAULT_TOL,
) -> ExpEvaluation:
    """Evaluate one family at every grid point in linear total cost.

    The exponent integral is accumulated between consecutive grid points
    along the checked walk solve_first_order takes too
    (_validate_regressive), anchored at t0 so the value there is exactly
    one when t0 lies on the grid. The backward-step family takes a constant
    coefficient only.

    A step from a right-dense point past its interval's unsampled upper
    end integrates the dense view across the jump (mu * alpha), not the
    family's step log, unlike exp_cayley and exp_hilger.
    """
    coeff = as_coefficient(alpha)
    values = _exps(_validated_logs(family, ts, coeff, t0, grid, tol))
    return ExpEvaluation(family, ts, coeff, t0, grid, values, tol)


def _validated_logs(family, ts, coeff, t0, grid, tol) -> list[complex]:
    """_grid_log_integrals, each scattered step checked by the family's rule."""
    rule = _family_rule(family, coeff)
    return _grid_log_integrals(family, ts, coeff, t0, grid, tol, rule)


def _grid_log_integrals(
    family: ExpFamily,
    ts: TimeScale,
    coeff: Coefficient,
    t0: float,
    grid: Grid,
    tol: float,
    rule: StepRule | None = None,
) -> list[complex]:
    """Exponent integral from t0 to each grid point, reusing partial sums.

    t0 is located after the lower of it and the first grid point, as a
    scan from the range's lower end meets them. An off-grid t0 starts from
    the checked stretch to the first grid point (_log_integral_range). One
    walk (_validate_regressive, checking by rule unless it is None) is
    folded forward and back from the anchor, each a C-level accumulate:
    linear in the grid size.
    """
    pts = grid.points
    if not t0 <= pts[0]:  # a NaN t0 too
        ts._locate(pts[0])
    _, t0s = ts._locate(t0)
    anchor = grid.index_of(t0s)
    logs: list[complex] = [0j] * len(pts)
    if anchor is None:
        anchor = 0
        logs[0] = _log_integral_range(family, ts, coeff, t0s, pts[0], tol)
    items, read = _validate_regressive(rule, "alpha", ts, coeff, pts)
    before, after = _split_steps(items, anchor)
    log, dense = _STEP_RULES[family].log, partial(_dense_integrals, ts, coeff, tol)
    steps = _grid_steps(pts, coeff, read, log, dense)
    logs[anchor:] = accumulate(steps(after), initial=logs[anchor])  # logs[k] + the step's log
    back = list(steps(before))
    # logs[k] = logs[k + 1] - the step's log, from the anchor down
    logs[: anchor + 1] = reversed(list(accumulate(reversed(back), sub, initial=logs[anchor])))
    return logs


def _validate_regressive(
    rule: StepRule | None, name: str, ts: TimeScale, coeff: Coefficient, points
) -> tuple[list[tuple], dict[float, complex] | None]:
    """Walk the points once (TimeScale.walk_runs), raising at the first
    scattered step that degenerates by rule (none where rule is None), and
    return the walk's items and the coefficient value each check read, by
    grid point (None for a coefficient whose step value is a function of
    the gap, or where rule is None). A step of graininess zero cannot
    degenerate, and the left-scattered maximum takes none, so only
    scattered steps are checked; the coefficient is read there by
    Coefficient.at_step, with the graininess the walk holds, but for a
    constant, whose value is read once here.

    A stretch is checked as a whole, raising where a loop over its steps
    would, at the same t. The m = mu * alpha of a coefficient whose step
    value is a function of the gap (Coefficient._gap_only) is tested once
    per distinct gap of the stretch, at its first point (a _GapMemo). Any
    other coefficient is read and its m tested through one chain of
    C-level maps that stops at the first step that degenerates, reading no
    point past it.
    """
    gap_only = coeff._gap_only
    read = None if gap_only or rule is None else {}
    if coeff.is_constant:
        a = coeff.constant_value  # one object, read once
        at = lambda mu, p: a
    else:
        at = coeff.at_step
    items = []
    for item in ts.walk_runs(points):
        items.append(item)
        if rule is None or isinstance(item, Run):
            continue
        if isinstance(item, Stretch):
            k, _, _, mus = item
            if gap_only:
                _GapMemo(lambda mu, p: rule.check(p, mu * at(mu, p), name)).over(mus, points, k)
                continue
            ps = points[k : k + len(mus)]
            # read and tested a step at a time, lazily: no read past the
            # first step that degenerates
            reads, alphas = tee(map(coeff.at_step, mus, ps))
            ms = map(mul, mus, reads)
            bad = next(compress(count(), map(rule.degenerate, ms)), None)
            if bad is not None:
                rule.check(ps[bad], mus[bad] * list(islice(alphas, bad + 1))[-1], name)
            read.update(zip(ps, alphas))
            continue
        p, q, s, mu, _, tt = item
        if q is not None and s > tt:
            a = at(mu, p)
            if read is not None:
                read[p] = a
            rule.check(p, mu * a, name)
    return items, read


def _split_steps(items, anchor):
    """The walk items of the steps before point anchor and of the steps
    from it on, a run or stretch across the anchor cut there; the last
    point's record, which has no step, is dropped."""
    k = 0  # the index of the item's first point
    for n, item in enumerate(items):
        if isinstance(item, Run):
            end = k + len(item.points) - 1
        else:
            end = k + len(item.mus) if isinstance(item, Stretch) else k + 1
        if end > anchor:
            break
        k = end
    before, after = items[:n], items[n:-1]
    if k < anchor:
        item, j = items[n], anchor - k
        if isinstance(item, Run):
            before.append(Run(k, item.points[: j + 1]))
            after[0] = Run(anchor, item.points[j:])
        else:
            before.append(Stretch(k, item.lo, item.lo + j, item.mus[:j]))
            after[0] = Stretch(anchor, item.lo + j, item.stop, item.mus[j:])
    return before, after


def _grid_steps(pts, coeff, read, step, dense):
    """The increments over the steps of walk items of the grid points pts,
    a function of the items: step(mu, a) at a scattered point p (mu the
    gap to its jump, a the coefficient at p, from read where the walk's
    check read it), and dense(ps, xs) over the steps between consecutive
    grid points ps, xs being a run's located points or None for one step
    outside a run. Each item's increments are one iterable, chained at C
    level.

    The step of a coefficient whose step value is a function of the gap
    (Coefficient._gap_only) is a function of mu alone and is taken once
    per distinct mu, bit for bit, over every call of the function: a
    stretch's gaps are mapped through one _GapMemo, which a step outside a
    stretch shares where its gap h = s - p is the walk's mu (a point
    within the membership tolerance of its located value has another h,
    and its coefficient is read at mu). Any other coefficient's step is
    taken at every step, a stretch's with one map: two of its values that
    compare equal can differ in the sign of a zero part, which a fold
    from an off-grid anchor's exponent keeps.
    """
    memo = _GapMemo(lambda mu, p: step(mu, coeff.at_step(mu, p)))
    gap_only = coeff._gap_only

    def increments(items):
        for item in items:
            if isinstance(item, Run):
                k, xs = item
                yield dense(pts[k : k + len(xs)], xs)
                continue
            if isinstance(item, Stretch):
                k, _, _, mus = item
                if gap_only:
                    yield memo.over(mus, pts, k)
                else:
                    ps = pts[k : k + len(mus)]
                    if read is None:
                        alphas = map(coeff.at_step, mus, ps)
                    else:
                        alphas = map(read.__getitem__, ps)
                    yield map(step, mus, alphas)
                continue
            p, q, s, mu, _, tt = item
            if s <= tt:
                yield dense((p, q), None)
                continue
            if abs(s - q) > 1e-12:
                raise GridError(
                    f"grid skips the forward jump of {p!r}: next sample {q!r}, jump {s!r}"
                )
            h = s - p
            kept = gap_only and h == mu
            w = memo.get(h) if kept else None
            if w is None:
                w = step(h, coeff.at_step(mu, p) if read is None else read[p])
                if kept:
                    memo[h] = w
            yield (w,)

    return lambda items: chain.from_iterable(increments(items))


def _dense_integrals(ts: TimeScale, coeff: Coefficient, tol: float, ps, xs):
    """The dense view's delta integral over each step between consecutive
    grid points ps: a run's (located points xs) in one
    Coefficient.dense_integrals call, one step outside a run (xs None)
    by TimeScale.delta_integral."""
    if xs is None:
        return (ts.delta_integral(coeff.dense, ps[0], ps[1], tol),)
    return coeff.dense_integrals(xs, xs[1:], tol)


# -- degenerate-tolerant forward-step evaluation -----------------------------------


def _hilger_grid_lenient(
    ts: TimeScale, coeff: Coefficient, t0: float, grid: Grid, tol: float
) -> tuple[complex, ...]:
    """Grid values of the forward-step exponential, degenerate factors allowed.

    Where a factor lies within the margin of zero, the grid fold runs with
    no regressivity check (a factor not exactly zero has a finite log), an
    off-grid t0 joining the grid with the component ends between them. The
    value is exactly zero from the first zero factor at or above t0 on; one
    below t0 cannot be divided out.
    """
    try:
        return _exps(_validated_logs(ExpFamily.HILGER_DELTA, ts, coeff, t0, grid, tol))
    except RegressivityError:
        pass
    pts, (_, t0s) = grid.points, ts._locate(t0)
    steps = ts.scattered_points(min(pts[0], t0s), max(pts[-1], t0s))
    ss, mus = [s for s, _ in steps], [mu for _, mu in steps]
    # every step read, in order, before the first zero is sought: once per
    # distinct gap for a coefficient whose step value is a function of the gap
    if coeff._gap_only:
        factor = lambda mu, s: FORWARD_RULE.factor(mu, coeff.at_step(mu, s))
        factors = _GapMemo(factor).over(mus, ss)
    else:
        factors = map(FORWARD_RULE.factor, mus, list(map(coeff.at_step, mus, ss)))
    zero = next(compress(ss, map(eq, factors, repeat(0))), None)
    if zero is not None and zero < t0s:
        raise SingularError("cannot evaluate backward through a degenerate (zero) step factor")
    # the points located at or below the zero factor
    kept = pts if zero is None else pts[: bisect_right(pts, zero, key=lambda p: ts._locate(p)[1])]
    if not kept:
        return (0j,) * len(pts)
    added = set()
    if grid.index_of(t0s) is None:
        a, b = ts._locate(kept[0])[1], ts._locate(kept[-1])[1]
        ends = ts.make_grid(min(t0s, a), max(t0s, b), math.inf).points
        added = {x for x in ends if x < a or x > b} | {t0s}
    points = tuple(sorted(added.union(kept)))
    logs = _grid_log_integrals(
        ExpFamily.HILGER_DELTA, ts, coeff, t0, Grid(points, grid.dense_step), tol
    )
    values = _exps([w for x, w in zip(points, logs) if x not in added])
    return values + (0j,) * (len(pts) - len(kept))


# -- property residuals -------------------------------------------------------------


def _exp_point(family: ExpFamily, ts: TimeScale, coeff, t, t0, tol) -> complex:
    return _finite_exp(_log_integral_range(family, ts, as_coefficient(coeff), t0, t, tol))


def _finite_exp(w: complex) -> complex:
    """_exp of a pointwise exponent, with a value that is not finite (an
    exponent summed to an infinite real part, which cmath.exp does not
    reject) reported as the same overflow."""
    v = _exp(w)
    if not cmath.isfinite(v):
        raise ToleranceError(f"exponential overflows at exponent {w!r}")
    return v


def check_semigroup(
    family: ExpFamily, ts: TimeScale, alpha, t, t0, t1, tol: float = DEFAULT_TOL
) -> float:
    """Residual |E(t,t0) E(t0,t1) - E(t,t1)| of the two-point composition law."""
    exp_from = _pointwise_runs(family, ts, as_coefficient(alpha), tol)
    return _semigroup_residual(exp_from(t0), exp_from(t1), t, t0)


def check_sigma_shift(
    family: ExpFamily, ts: TimeScale, alpha, t, t0, tol: float = DEFAULT_TOL
) -> float:
    """Residual of the one-jump shift law E(sigma(t), t0) = factor * E(t, t0).

    The factor is the family's step factor: (1 + mu*alpha/2)/(1 - mu*alpha/2)
    for the Cayley family, 1 + mu*alpha for the forward-step family. At a
    right-dense point the residual is identically zero.
    """
    coeff = as_coefficient(alpha)
    from_t0 = _pointwise_runs(family, ts, coeff, tol)(t0)
    _shift_rule(family)  # before t is located
    return _sigma_shift_residual(family, coeff, _Jumps(ts, (t,)), 0, from_t0)


def _pointwise_runs(family: ExpFamily, ts: TimeScale, coeff, tol):
    """anchor -> (x -> E(x, anchor)), each value evaluated on its own."""
    return lambda anchor: lambda x: _exp_point(family, ts, coeff, x, anchor, tol)


def _exp_runs(family: ExpFamily, ts: TimeScale, coeff: Coefficient, tol):
    """anchor -> (x -> E(x, anchor)) for x ascending from the anchor.

    The values are those of _pointwise_runs, errors included. One
    _Exponent runs per anchor, and all the anchors of one returned function
    share one step memo (_Terms).
    """
    terms = _Terms(family, ts, coeff, tol)

    def exp_from(anchor):
        to = _Exponent(terms, anchor).to
        return lambda x: _finite_exp(to(x))

    return exp_from


def _semigroup_residual(from_t0, from_t1, t, t0) -> float:
    """|E(t,t0) E(t0,t1) - E(t,t1)|, with E(., t0) and E(., t1) given as
    from_t0 and from_t1 and evaluated in that order."""
    return abs(from_t0(t) * from_t1(t0) - from_t1(t))


def _shift_rule(family):
    rule = _STEP_RULES.get(family)
    if rule is None or rule.oplus is None:
        raise ValueError("shift law check supports the Cayley and forward-step families")
    return rule


def _sigma_shift_residual(family, coeff, jumps, k, from_t0) -> float:
    """check_sigma_shift at point k of jumps, with E(., t0) given as from_t0."""
    rule = _shift_rule(family)
    jumps.check(k)
    t, mu = jumps.located[k], jumps.mu[k]
    if mu is None:
        raise KappaError(f"t={t!r} is the left-scattered maximum")
    factor = rule.factor(mu, coeff(t))
    et = from_t0(t)
    es = from_t0(jumps.sigma[k])
    return abs(es - factor * et)
