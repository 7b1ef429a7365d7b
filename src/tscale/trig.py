"""Hyperbolic and trigonometric function families and their identity residuals.

Each hyperbolic pair is the half-sum and half-difference of two
exponentials. Each trigonometric pair is the real and imaginary part of
one exponential of 1j*omega: for real omega the exponential of -1j*omega
is its conjugate, so these are the half-sum and half-difference over 1j
of the two, real by construction. The Cayley and exact exponentials map
the imaginary axis into the unit circle, so their pairs satisfy the
circular identity on any supported scale; the forward-step-based family
satisfies a deformed identity instead, with the deformation itself an
exponential that this module evaluates for comparison.
"""

from __future__ import annotations

import cmath
import math
from collections import deque
from dataclasses import dataclass
from enum import Enum
from itertools import compress, repeat
from operator import add, attrgetter, gt, is_not, mul, neg, not_, sub, truediv
from typing import Iterator

from .errors import ToleranceError
from .timescale import DEFAULT_TOL, Grid, TimeScale, _gather, _Jumps, delta_derivative_numeric
from .transforms import _graininess_only, as_coefficient, graininess_coefficient
from .exponential import (
    ExpFamily,
    _exps,
    _hilger_grid_lenient,
    _memoized,
    _validated_logs,
    exp_evaluate_grid,
)
from .report import ResidualReport, collect


class TrigFamily(Enum):
    HILGER = "hilger"
    BOHNER_PETERSON = "bp"
    CAYLEY = "cayley"
    EXACT = "exact"


class TrigKind(Enum):
    HYPERBOLIC = "hyp"
    TRIGONOMETRIC = "trig"


# The families whose hyperbolic pair is one exponential and its reciprocal.
_EXP_FAMILY_OF = {
    TrigFamily.HILGER: ExpFamily.HILGER_DELTA,
    TrigFamily.CAYLEY: ExpFamily.CAYLEY,
    TrigFamily.EXACT: ExpFamily.EXACT,
}

# The exponential of 1j*omega whose real and imaginary parts are each
# family's trigonometric pair. The Hilger construction reduces to the
# restricted continuum functions for a constant frequency, the exact family's.
_TRIG_EXP_FAMILY = {
    **_EXP_FAMILY_OF,
    TrigFamily.HILGER: ExpFamily.EXACT,
    TrigFamily.BOHNER_PETERSON: ExpFamily.HILGER_DELTA,
}


@dataclass(frozen=True)
class TrigPair:
    """Grid-aligned cosine-like and sine-like values of one family."""

    family: TrigFamily
    kind: TrigKind
    parameter: complex
    grid: Grid
    c_values: tuple
    s_values: tuple


# -- pointwise pairs ---------------------------------------------------------------


def hyp(family: TrigFamily, ts: TimeScale, alpha, t, t0, tol: float = DEFAULT_TOL):
    """Hyperbolic pair (cosh-like, sinh-like) of the given family at t: the
    one-point grid pair of hyp_grid. As at a grid point, a t within the
    membership tolerance of the located t0 takes the value at t0."""
    pair = hyp_grid(family, ts, alpha, t0, Grid((t,), 1.0), tol)
    return pair.c_values[0], pair.s_values[0]


def trig(family: TrigFamily, ts: TimeScale, omega: float, t, t0, tol: float = DEFAULT_TOL):
    """Trigonometric pair (cos-like, sin-like) of the given family at t: the
    one-point grid pair of trig_grid."""
    pair = trig_grid(family, ts, omega, t0, Grid((t,), 1.0), tol)
    return pair.c_values[0], pair.s_values[0]


# -- grid pairs ----------------------------------------------------------------------


def hyp_grid(
    family: TrigFamily, ts: TimeScale, alpha, t0, grid: Grid, tol: float = DEFAULT_TOL
) -> TrigPair:
    """Hyperbolic pair sampled on a grid: half the sum and half the
    difference of two exponentials, linear in the grid size, since the
    exponents come from one walk of the grid (TimeScale.walk_runs).

    The two exponentials combined are: the forward-step exponential and
    its reciprocal (Hilger family), the forward-step exponentials of
    alpha and -alpha (Bohner-Peterson), the Cayley exponentials of alpha
    and -alpha, or the exact exponential and its reciprocal. The
    Bohner-Peterson family is the one definition that stays on the
    degenerate boundary where one exponential vanishes identically; there
    its fold skips the regressivity check instead of rejecting the step.
    An exponential that overflows, or a pair that is not finite at some
    grid point, raises ToleranceError at the first such point.
    """
    coeff = as_coefficient(alpha)
    param = coeff.constant_value if coeff.is_constant else None
    if family in _EXP_FAMILY_OF:
        # the reciprocal is exactly the exponential of the negated exponent
        logs = _validated_logs(_EXP_FAMILY_OF[family], ts, coeff, t0, grid, tol)
        plus, minus = _exps(logs), _exps(list(map(neg, logs)))
    elif family is TrigFamily.BOHNER_PETERSON:
        plus = _hilger_grid_lenient(ts, coeff, t0, grid, tol)
        minus = _hilger_grid_lenient(ts, -coeff, t0, grid, tol)
    else:
        raise ValueError(f"unknown family {family!r}")
    cs = tuple(_halves(plus, minus))
    ss = tuple(map(mul, repeat(0.5), map(sub, plus, minus)))
    if not all(map(cmath.isfinite, cs + ss)):
        k = next(k for k, cv in enumerate(zip(cs, ss)) if not all(map(cmath.isfinite, cv)))
        raise ToleranceError(
            f"non-finite hyperbolic pair at t={grid.points[k]!r}: ({cs[k]!r}, {ss[k]!r})"
        )
    return TrigPair(family, TrigKind.HYPERBOLIC, param, grid, cs, ss)


def trig_grid(
    family: TrigFamily, ts: TimeScale, omega: float, t0, grid: Grid, tol: float = DEFAULT_TOL
) -> TrigPair:
    """Trigonometric pair sampled on a grid, as real floats.

    Each pair is the real and imaginary part of one exp_evaluate_grid of
    1j*omega (_TRIG_EXP_FAMILY), real by construction and linear in the
    grid size. The Cayley and exact pairs lie on the unit circle at any
    step count, since their step logs and dense pieces are purely imaginary
    (transforms.zeta, mu*alpha).
    """
    omega = float(omega)
    exp_family = _TRIG_EXP_FAMILY.get(family)
    if exp_family is None:
        raise ValueError(f"unknown family {family!r}")
    values = exp_evaluate_grid(exp_family, ts, 1j * omega, t0, grid, tol).values
    cs, ss = tuple(map(attrgetter("real"), values)), tuple(map(attrgetter("imag"), values))
    return TrigPair(family, TrigKind.TRIGONOMETRIC, omega, grid, cs, ss)


# -- identity residuals -----------------------------------------------------------------


def pythagorean_residual(
    family: TrigFamily,
    kind: TrigKind,
    ts: TimeScale,
    param,
    grid: Grid,
    tol: float = DEFAULT_TOL,
    t0: float | None = None,
) -> ResidualReport:
    """Residual of c^2 - s^2 (hyperbolic) or c^2 + s^2 (trigonometric).

    For the Hilger, Cayley and exact families the reference is the
    constant one. For Bohner-Peterson the identity is deformed: the
    reference is the forward-step exponential of -mu*param^2 (hyperbolic)
    or +mu*param^2 (trigonometric), degenerate factors allowed as in
    hyp_grid, and the report carries those values.
    """
    if t0 is None:
        t0 = grid.points[0]
    if kind is TrigKind.HYPERBOLIC:
        pair, combine = hyp_grid(family, ts, as_coefficient(param), t0, grid, tol), sub
    else:
        pair, combine = trig_grid(family, ts, float(param), t0, grid, tol), add
    cs, ss = pair.c_values, pair.s_values
    # complex() leaves a hyperbolic pair's complex squares as they are
    squares = list(map(complex, map(combine, map(mul, cs, cs), map(mul, ss, ss))))
    name = f"pythagorean-{family.value}-{kind.value}"
    if family is not TrigFamily.BOHNER_PETERSON:
        residuals = tuple(map(abs, map(sub, squares, repeat(1.0))))
        return ResidualReport(name, grid.points, residuals, tol)
    p2 = complex(param) * complex(param)
    sign = -1.0 if kind is TrigKind.HYPERBOLIC else 1.0
    # its value along continuous pieces, where mu = 0: a zero, which
    # integrates exactly, or NaN where p2 overflows, which raises as before
    deform = graininess_coefficient(ts, lambda mu, s: sign * mu * p2, sign * 0.0 * p2)
    reference = _hilger_grid_lenient(ts, _graininess_only(deform), t0, grid, tol)
    residuals = tuple(map(abs, map(sub, squares, reference)))
    return ResidualReport(
        name, grid.points, residuals, tol, reference=tuple(r.real for r in reference)
    )


def derivative_residual(
    family: TrigFamily,
    kind: TrigKind,
    ts: TimeScale,
    param,
    grid: Grid,
    tol: float = DEFAULT_TOL,
    t0: float | None = None,
) -> ResidualReport:
    """Residual of the Cayley pair's first-derivative laws on the grid.

    Checks cosh' = param * avg(sinh) and sinh' = param * avg(cosh), or
    cos' = -omega * avg(sin) and sin' = omega * avg(cos), with the exact
    difference quotient at right-scattered points and a Richardson
    estimate at right-dense points (accuracy there is limited to roughly
    1e-8 for smooth data). Points whose forward jump is not sampled are
    skipped and reported.
    """
    if family is not TrigFamily.CAYLEY:
        raise ValueError("derivative law residuals are defined for the Cayley family")
    if t0 is None:
        t0 = grid.points[0]
    if kind is TrigKind.HYPERBOLIC:
        coeff = as_coefficient(param)
        pair = hyp_grid(family, ts, coeff, t0, grid, tol)
        c_rate = s_rate = coeff.constant_value
        pair_at = _memoized(lambda u: hyp(family, ts, coeff, u, t0, tol))
    else:
        w = float(param)
        pair = trig_grid(family, ts, w, t0, grid, tol)
        c_rate, s_rate = -w, w
        pair_at = _memoized(lambda u: trig(family, ts, w, u, t0, tol))
    cs, ss = pair.c_values, pair.s_values
    jumps, pts = _Jumps(ts, grid.points, grid), grid.points
    # off the left-scattered maximum, a point below its jump takes the
    # quotients over it and a right-dense point Richardson estimates
    on = list(compress(range(len(pts)), map(is_not, jumps.mu, repeat(None))))
    below = list(map(gt, _gather(jumps.sigma, on), _gather(jumps.located, on)))
    ks, js = jumps.jumping(compress(on, below))
    mus = list(map(sub, _gather(jumps.sigma, ks), _gather(pts, ks)))
    ck, cj, sk, sj = (_gather(v, c) for v in (cs, ss) for c in (ks, js))
    dc, ds = _quotients(ck, cj, mus), _quotients(sk, sj, mus)
    avg_c, avg_s = _halves(ck, cj), _halves(sk, sj)
    c_law = map(abs, map(sub, dc, map(mul, repeat(c_rate), avg_s)))
    s_law = map(abs, map(sub, ds, map(mul, repeat(s_rate), avg_c)))

    def dense(k):
        p = pts[k]
        dc = delta_derivative_numeric(ts, lambda u: pair_at(u)[0], p)
        ds = delta_derivative_numeric(ts, lambda u: pair_at(u)[1], p)
        return max(abs(dc - c_rate * ss[k]), abs(ds - s_rate * cs[k]))

    right_dense = list(compress(on, map(not_, below)))
    laws = (ks, map(max, c_law, s_law)), (right_dense, map(dense, right_dense))
    residuals = _merged(len(pts), *laws)
    return collect(f"derivative-{family.value}-{kind.value}", pts, residuals, tol)


# -- stencil formulas --------------------------------------------------------------------
# Each is written once, as a chain of C-level maps over columns of the values
# a residual report gathers; a one-point operator maps it over one value each.


def _halves(u, w):
    """0.5 * (u + w)."""
    return map(mul, repeat(0.5), map(add, u, w))


def _quotients(v, v_sigma, h):
    """(v_sigma - v) / h: the forward quotient of x over a step h, and of
    the forward quotients x'' over the first of two steps."""
    return map(truediv, map(sub, v_sigma, v), h)


def _merged(n: int, *columns) -> Iterator:
    """A column of n points from (positions, values) columns: the next of a
    column's values at each of its positions, ascending, None at a point no
    column has. C-level maps that take the values, and meet any error
    computing them, in point order."""
    if len(columns) == 1:  # the values in order, each at its position
        col = [None] * n
        deque(map(col.__setitem__, *columns[0]), 0)
        return iter(col)
    kind = [0] * n
    for mark, (ks, _) in enumerate(columns, 1):
        deque(map(kind.__setitem__, ks, repeat(mark)), 0)
    its = (repeat(None), *(iter(values) for _, values in columns))
    return map(next, map(its.__getitem__, kind))


def exact_trig_delta(omega: float, mu: float, t: float) -> tuple[float, float]:
    """Delta derivatives of the restricted cos/sin at a right-scattered point.

    Returns (cos_delta, sin_delta) for graininess mu > 0:
    sin' = (sin(omega*mu)/mu) cos(omega*t) + ((cos(omega*mu) - 1)/mu) sin(omega*t)
    and the matching expression for cos'.
    """
    if mu <= 0:
        raise ValueError("mu must be positive at a right-scattered point")
    omega = float(omega)
    sp = math.sin(omega * mu) / mu
    cm = (math.cos(omega * mu) - 1.0) / mu
    c, s = math.cos(omega * t), math.sin(omega * t)
    return cm * c - sp * s, sp * c + cm * s
