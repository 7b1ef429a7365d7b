"""Pointwise scalar maps and the regressive-coefficient algebra.

Cylinder transforms, the Cayley transform, both circle-plus additions,
the correspondence between trapezoidal and forward-step coefficients,
the regressivity predicates and the step-rule table that names them per
family. Everything here is a pure function of its arguments.
"""

from __future__ import annotations

import cmath
import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from itertools import repeat
from operator import add, sub
from typing import Callable, Iterable, Iterator, Sequence

from .errors import RegressivityError, SingularError, ToleranceError
from .timescale import Grid, TimeScale, _adaptive_simpson

# Margin below which regressivity predicates report failure instead of
# letting downstream exponentials lose all precision.
REGRESSIVITY_MARGIN = 1e-9

# Below this |h*z| the log-ratio form of the Cayley cylinder cancels badly;
# a short odd series is exact to double precision there.
_SERIES_CUTOFF = 1e-4


def _principal_log(w: complex) -> complex:
    """Principal-branch log with the negative real axis taken from above."""
    if w == 0:
        raise SingularError("log of zero")
    if w.imag == 0.0:
        w = complex(w.real, 0.0)  # clears a negative zero below the cut
    return cmath.log(w)


def _exp(w: complex) -> complex:
    """cmath.exp, with overflow reported as a ToleranceError, as is an
    exponent whose imaginary part has overflowed (cmath's domain error)."""
    try:
        return cmath.exp(w)
    except (OverflowError, ValueError):
        raise ToleranceError(f"exponential overflows at exponent {w!r}") from None


def xi(h: float, z: complex) -> complex:
    """Cylinder transform: the exponent whose forward step factor is 1 + z*h.

    xi(0, z) = z; otherwise log(1 + z*h) / h on the principal branch.
    """
    if h < 0:
        raise ValueError("h must be nonnegative")
    z = complex(z)
    if h == 0:
        return z
    w = 1.0 + z * h
    if w == 0:
        raise SingularError(f"1 + z*h vanishes for z={z!r}, h={h!r}")
    return _principal_log(w) / h


def zeta(h: float, z: complex) -> complex:
    """Cayley cylinder transform, the exponent of the Cayley step factor.

    zeta(0, z) = z; otherwise log((1 + z*h/2) / (1 - z*h/2)) / h on the
    principal branch. Even in h. For small |h*z| the series
    z + h^2 z^3 / 12 + h^4 z^5 / 80 is used to avoid cancellation.
    For purely imaginary z the step factor is unimodular and the value
    purely imaginary: the log's real part, rounding only, is dropped.
    """
    h = abs(h)
    z = complex(z)
    if h == 0:
        return z
    if abs(h * z) < _SERIES_CUTOFF:
        z2 = z * z
        return z + (h * h) * (z2 * z) / 12.0 + (h ** 4) * (z2 * z2 * z) / 80.0
    num = 1.0 + 0.5 * h * z
    den = 1.0 - 0.5 * h * z
    if num == 0 or den == 0:
        raise SingularError(f"z*h/2 = ±1 for z={z!r}, h={h!r}")
    w = _principal_log(num / den) / h
    return complex(0.0, w.imag) if z.real == 0 else w


def zeta_inv(h: float, w: complex) -> complex:
    """Inverse of the Cayley cylinder: (2/h) tanh(h*w/2), identity at h = 0."""
    h = abs(h)
    w = complex(w)
    if h == 0:
        return w
    u = 0.5 * h * w
    if abs(u.real) < REGRESSIVITY_MARGIN and abs(math.cos(u.imag)) < REGRESSIVITY_MARGIN:
        raise SingularError(f"h*w/2 = {u!r} is within guard distance of a tanh pole")
    return (2.0 / h) * cmath.tanh(u)


def cayley(z: complex, a: complex) -> complex:
    """Cayley transform (1 + a*z) / (1 - a*z)."""
    z, a = complex(z), complex(a)
    den = 1.0 - a * z
    if den == 0:
        raise SingularError(f"a*z = 1 for z={z!r}, a={a!r}")
    return (1.0 + a * z) / den


def oplus_mu(mu: float, a: complex, b: complex) -> complex:
    """Forward-step addition a + b + mu*a*b (exponent product law)."""
    return complex(a) + complex(b) + mu * complex(a) * complex(b)


def ominus_mu(mu: float, a: complex) -> complex:
    """Forward-step additive inverse -a / (1 + mu*a)."""
    a = complex(a)
    den = 1.0 + mu * a
    if den == 0:
        raise SingularError(f"1 + mu*a vanishes for a={a!r}, mu={mu!r}")
    return -a / den


def oplus_cayley(mu: float, a: complex, b: complex) -> complex:
    """Lorentz-style addition (a + b) / (1 + mu^2 a b / 4).

    Raises SingularError when the denominator vanishes (mu^2 a b near -4,
    the documented non-closure of the regressive set).
    """
    a, b = complex(a), complex(b)
    den = 1.0 + 0.25 * mu * mu * a * b
    if abs(den) < 1e-12:
        raise SingularError(
            f"mu^2*a*b = {mu * mu * a * b!r} is too close to -4: sum not regressive"
        )
    return (a + b) / den


def beta_of_alpha(mu: float, a: complex) -> complex:
    """Forward-step coefficient equivalent to trapezoidal coefficient a."""
    a = complex(a)
    den = 1.0 - 0.5 * mu * a
    if den == 0:
        raise SingularError(f"mu*a = 2 for a={a!r}, mu={mu!r}")
    return a / den


def alpha_of_beta(mu: float, b: complex) -> complex:
    """Trapezoidal coefficient equivalent to forward-step coefficient b."""
    b = complex(b)
    den = 1.0 + 0.5 * mu * b
    if den == 0:
        raise SingularError(f"mu*b = -2 for b={b!r}, mu={mu!r}")
    return b / den


# -- coefficients ---------------------------------------------------------------


class Coefficient:
    """Scalar coefficient on a time scale, evaluated pointwise as alpha(t).

    Kinds: "constant", "piecewise" (right-continuous steps), "tabulated"
    (values pinned to known abscissae) and "function" (an in-memory
    callable; not serializable). Evaluation is pure and caches nothing.

    A coefficient that depends on the pointwise graininess takes a jump
    value at the scattered right endpoint of a continuous piece while its
    limit along the piece uses zero graininess; `dense` exposes that limit
    evaluator so quadrature sees a continuous integrand. For plain
    coefficients the two evaluators coincide. dense_value, when not None,
    is the dense evaluator's value at every t. Such a coefficient also
    takes its value at a scattered step from the graininess the caller
    holds (at_step), with no lookup of its own.

    The value of a constant, or of a coefficient marked by _graininess_only,
    at a scattered step is a function of the step's graininess alone
    (_gap_only): a fold reads it, checks the step and takes its step log
    once per distinct gap.
    """

    __slots__ = ("kind", "_eval", "_dense", "payload", "dense_value", "_jump", "_gap_only")

    def __init__(self, kind, eval_fn, payload, dense_fn=None, dense_value=None):
        self.kind = kind
        self._eval = eval_fn
        self._dense = dense_fn if dense_fn is not None else eval_fn
        self.payload = payload
        self.dense_value = dense_value
        self._jump = None  # fn(mu, t) of a coefficient defined through the graininess
        self._gap_only = kind == "constant"  # the value at a step is a function of mu

    @classmethod
    def constant(cls, value: complex) -> "Coefficient":
        v = complex(value)
        if not (math.isfinite(v.real) and math.isfinite(v.imag)):
            raise ValueError(f"coefficient value {v!r} is not finite")
        return cls("constant", lambda t: v, v, dense_value=v)

    @classmethod
    def piecewise(cls, breakpoints, values) -> "Coefficient":
        """Step function: values[i] on [breakpoints[i-1], breakpoints[i])."""
        bps = tuple(float(b) for b in breakpoints)
        vals = tuple(complex(v) for v in values)
        if len(vals) != len(bps) + 1:
            raise ValueError("need len(values) == len(breakpoints) + 1")
        if any(b >= c for b, c in zip(bps, bps[1:])):
            raise ValueError("breakpoints must be strictly increasing")

        def ev(t, _bps=bps, _vals=vals):
            # NaN compares false with every breakpoint, so it takes the
            # first value, where bisect_right would give the last
            return _vals[0 if math.isnan(t) else bisect_right(_bps, t)]

        return cls("piecewise", ev, (bps, vals))

    @classmethod
    def tabulated(cls, points, values) -> "Coefficient":
        pts = tuple(float(p) for p in points)
        vals = tuple(complex(v) for v in values)
        if len(pts) != len(vals):
            raise ValueError("points and values must have equal length")

        def ev(t, _pts=pts, _vals=vals):
            for p, v in zip(_pts, _vals):
                if abs(t - p) <= 1e-12:
                    return v
            raise ValueError(f"t={t!r} is not a tabulated abscissa")

        return cls("tabulated", ev, (pts, vals))

    @classmethod
    def from_function(
        cls,
        fn: Callable[[float], complex],
        dense_fn: Callable[[float], complex] | None = None,
    ):
        wrapped_dense = None if dense_fn is None else (lambda t: complex(dense_fn(t)))
        return cls("function", lambda t: complex(fn(t)), None, wrapped_dense)

    def __call__(self, t: float) -> complex:
        return self._eval(t)

    def at_step(self, mu: float, t: float) -> complex:
        """The value at t, a point of graininess mu: self(t), which a
        coefficient defined through the graininess takes from mu."""
        return self(t) if self._jump is None else self._jump(mu, t)

    @property
    def dense(self) -> Callable[[float], complex]:
        """Evaluator for points of continuous pieces (zero-graininess limit)."""
        return self._dense

    def dense_integral(self, a: float, b: float, tol: float) -> complex:
        """Integral of the dense view over [a, b], inside one closed
        interval: the one-piece case of dense_integrals."""
        (w,) = self.dense_integrals((a,), (b,), tol)
        return w

    def dense_integrals(
        self, los: Sequence[float], his: Sequence[float], tol: float
    ) -> Iterable[complex]:
        """Integral of the dense view over each [lo, hi] of zip(los, his),
        each inside one closed interval, in order: the steps of a run (its
        points and the points after each), or the finished pieces of a
        running exponent.

        A constant dense view integrates exactly: v * (hi - lo) + 0j for
        each piece, built with C-level maps, no integrand called. Any other
        dense view goes through _adaptive_simpson piece by piece. Either way
        an error comes as the returned iterator reaches the piece it belongs
        to: a non-finite piece is a ToleranceError, a tol that is not
        positive a ValueError. A caller that raises between pieces meets its
        own error where a loop over the pieces would.
        """
        v = self.dense_value
        # + 0j as in delta_integral, whose zero jump sum turns -0.0 into 0.0
        if v is None or not tol > 0:  # _adaptive_simpson rejects the tol
            f = self.dense
            return (_adaptive_simpson(f, a, b, tol) + 0j for a, b in zip(los, his))
        ws = list(map(add, map(v.__mul__, map(sub, his, los)), repeat(0j)))
        return ws if all(map(cmath.isfinite, ws)) else _finite_pieces(ws, los, his)

    @property
    def is_constant(self) -> bool:
        return self.kind == "constant"

    @property
    def constant_value(self) -> complex:
        if not self.is_constant:
            raise ValueError("coefficient is not constant")
        return self.payload

    def scaled(self, factor: complex) -> "Coefficient":
        factor = complex(factor)
        if self.kind == "constant":
            return Coefficient.constant(factor * self.payload)
        if self.kind == "piecewise":
            bps, vals = self.payload
            return Coefficient.piecewise(bps, tuple(factor * v for v in vals))
        if self.kind == "tabulated":
            pts, vals = self.payload
            return Coefficient.tabulated(pts, tuple(factor * v for v in vals))
        inner, inner_dense = self._eval, self._dense
        scaled = Coefficient.from_function(
            lambda t: factor * inner(t),
            dense_fn=(
                None if inner_dense is inner else (lambda t: factor * inner_dense(t))
            ),
        )
        if self.dense_value is not None:
            scaled.dense_value = factor * self.dense_value
        if self._jump is not None:
            inner_jump = self._jump
            scaled._jump = lambda mu, t: factor * inner_jump(mu, t)
        scaled._gap_only = self._gap_only
        return scaled

    def __neg__(self) -> "Coefficient":
        return self.scaled(-1.0)

    def __repr__(self):
        return f"Coefficient({self.kind}, {self.payload!r})"


def _finite_pieces(ws, los, his) -> Iterator[complex]:
    """ws in order, up to a ToleranceError at the first non-finite one."""
    for w, a, b in zip(ws, los, his):
        if not cmath.isfinite(w):
            raise ToleranceError(f"quadrature overflows on [{a}, {b}]")
        yield w


def as_coefficient(alpha) -> Coefficient:
    """Coerce a Coefficient, scalar, or bare callable to a Coefficient."""
    if isinstance(alpha, Coefficient):
        return alpha
    if isinstance(alpha, (int, float, complex)):
        return Coefficient.constant(alpha)
    if callable(alpha):
        return Coefficient.from_function(alpha)
    raise TypeError(f"cannot interpret {alpha!r} as a coefficient")


def graininess_coefficient(ts: TimeScale, fn, dense_value=None) -> Coefficient:
    """Coefficient defined through the pointwise graininess: fn(mu, t).

    At scattered points the scale's graininess is used; the dense
    evaluator fixes mu = 0 since the graininess vanishes identically
    along continuous pieces. This keeps quadrature integrands continuous
    on closed segments even though the jump value at a segment's
    scattered right endpoint differs. A dense_value, the value of
    fn(0.0, t) when it does not depend on t, stands in for the dense
    evaluator, and a continuous piece [a, b] then integrates exactly to
    dense_value * (b - a), with no integrand called. A walk that holds a
    step's graininess passes it in (Coefficient.at_step), and the point is
    not located again.
    """
    v = None if dense_value is None else complex(dense_value)
    coeff = Coefficient(
        "function",
        lambda t: complex(fn(ts.mu(t), t)),
        None,
        (lambda t: complex(fn(0.0, t))) if v is None else (lambda t: v),
        v,
    )
    coeff._jump = lambda mu, t: complex(fn(mu, t))
    return coeff


def _graininess_only(coeff: Coefficient) -> Coefficient:
    """coeff, a graininess_coefficient whose fn(mu, t) reads mu alone,
    marked as such: its value at a scattered step is a function of the
    step's gap (Coefficient._gap_only), so a fold reads it, checks the step
    and takes its step log once per distinct gap, as it does a constant's."""
    coeff._gap_only = True
    return coeff


# -- step rules and regressivity ---------------------------------------------------


@dataclass(frozen=True)
class StepRule:
    """One family's scattered step of graininess mu with coefficient a.

    The solvers multiply factor(mu, a); the exponentials sum log(mu, a),
    its exponent taken through the cylinder map, not from factor, so the
    two stay independent. degenerate(m) tests m = mu*a, and message(t, m,
    name) says why it failed. oplus is the product law's circle-plus, None
    where the identities check no shift or product law. A constant_only rule
    reads the coefficient at the jump's far end, which is the value read at
    the step only for a constant coefficient.
    """

    factor: Callable[[float, complex], complex]
    log: Callable[[float, complex], complex]
    degenerate: Callable[[complex], bool]
    message: Callable[[float, complex, str], str]
    oplus: Callable[[float, complex, complex], complex] | None = None
    constant_only: bool = False

    def check(self, t: float, m: complex, name: str) -> None:
        """Raise RegressivityError at t if m = mu*name degenerates."""
        if self.degenerate(m):
            raise RegressivityError(self.message(t, m, name), t=t)


# The rows call xi, zeta and cayley through this module's globals, so a
# wrapper installed on those names sees every step.
FORWARD_RULE = StepRule(  # the forward-step (Hilger) exponential, explicit scheme
    factor=lambda mu, a: 1.0 + mu * a,
    log=lambda mu, a: mu * xi(mu, a),
    degenerate=lambda m: abs(1.0 + m) <= REGRESSIVITY_MARGIN,
    message=lambda t, m, name: f"1 + mu*{name} = {1.0 + m!r} at t={t!r}",
    oplus=oplus_mu,
)
CAYLEY_RULE = StepRule(  # the Cayley exponential, trapezoidal scheme
    factor=lambda mu, a: cayley(a, 0.5 * mu),
    log=lambda mu, a: mu * zeta(mu, a),
    degenerate=lambda m: min(abs(m - 2.0), abs(m + 2.0)) <= REGRESSIVITY_MARGIN,
    message=lambda t, m, name: f"mu*{name} = {m!r} at t={t!r} is within margin of ±2",
    oplus=oplus_cayley,
)
EXACT_RULE = StepRule(  # the exact-discretization exponential, exact scheme
    factor=lambda mu, a: _exp(mu * a),
    log=lambda mu, a: mu * a,
    degenerate=lambda m: False,
    message=lambda t, m, name: f"mu*{name} = {m!r} at t={t!r}",
)
BACKWARD_RULE = StepRule(  # the backward-step (nabla) exponential
    factor=lambda mu, a: 1.0 / (1.0 - mu * a),
    log=lambda mu, a: -mu * xi(mu, -a),
    degenerate=lambda m: abs(1.0 - m) <= REGRESSIVITY_MARGIN,
    message=lambda t, m, name: f"1 - mu*{name} = {1.0 - m!r} at t={t!r}",
    constant_only=True,
)


class RegressivityKind(Enum):
    MU_REGRESSIVE = "mu"  # 1 + mu*alpha != 0
    CAYLEY_REGRESSIVE = "cayley"  # mu*alpha != ±2
    POSITIVELY_REGRESSIVE = "positive"  # alpha real, |mu*alpha| < 2


def _not_positive(m: complex) -> str | None:
    if abs(m.imag) > 1e-13:
        return f"mu*alpha = {m!r} is not real"
    if abs(m.real) >= 2.0 - REGRESSIVITY_MARGIN:
        return f"|mu*alpha| = {abs(m.real)!r} not below 2 with margin"
    return None


# Why m = mu*alpha fails each kind, or None; the first two take their test
# from the step rules.
_KIND_FAILURES = {
    RegressivityKind.MU_REGRESSIVE: lambda m: (
        f"1 + mu*alpha = {1.0 + m!r} within margin of zero"
        if FORWARD_RULE.degenerate(m) else None
    ),
    RegressivityKind.CAYLEY_REGRESSIVE: lambda m: (
        f"mu*alpha = {m!r} within margin of ±2" if CAYLEY_RULE.degenerate(m) else None
    ),
    RegressivityKind.POSITIVELY_REGRESSIVE: _not_positive,
}


@dataclass(frozen=True)
class RegressivityCheck:
    """Outcome of a regressivity scan; truthiness mirrors ok."""

    ok: bool
    kind: RegressivityKind
    first_violation: float | None = None
    message: str | None = None

    def __bool__(self) -> bool:
        return self.ok


def check_regressivity(
    kind: RegressivityKind, ts: TimeScale, alpha, grid: Grid
) -> RegressivityCheck:
    """Check the predicate at every grid point with margin 1e-9.

    Points outside the differentiation domain (a left-scattered maximum)
    are skipped since graininess is undefined there.
    """
    coeff = as_coefficient(alpha)
    failure = _KIND_FAILURES.get(kind)
    if failure is None:
        raise ValueError(f"unknown regressivity kind: {kind!r}")
    for t in grid.points:
        if not ts.in_kappa(t):
            continue
        bad = failure(ts.mu(t) * coeff(t))
        if bad is not None:
            return RegressivityCheck(False, kind, first_violation=t, message=bad)
    return RegressivityCheck(True, kind)
