"""Time scales as finite unions of closed intervals and isolated points.

Supplies jump operators, graininess, point classification, grid
enumeration and the delta integral. All values are immutable and all
operations are pure, so scales and grids can be shared across threads.

Scales with accumulation points are not representable: construction
requires a finite component list with gaps larger than the membership
tolerance, which keeps the jump operators and the integral exact.

Cost model, for a scale of C components: every query reads the tables of
component ends, not the components. A scale of isolated points is its
values: uniform, isolated, the CLI's points and uniform terms and a union
of discrete scales test the values with a few C-level maps and index them
(_of_values), making no point object. uniform and a lone CLI uniform term
test none where a float step proves them valid (_uniform_scale): the
values never decrease, and a bound on the rounding of each gap, from the
step and the larger end, puts every gap above the tolerance, O(1) work
past making the values. Reading components (equality,
hashing, repr, render, pickling) makes the points once, with two C-level
maps (_points). Construction and normalize_components test isolated points
already in order with a few C-level maps over their values, and check or
merge one component at a time any other input. Locating a point costs
O(log C), since a bisection over the component left endpoints picks the
few neighbouring components whose membership tests decide. A jump
operator, graininess, classification or membership query is one lookup.
TimeScale.walk_runs over a grid of N points takes the steps inside one
closed interval as one run, and the steps between consecutive isolated
points that each land on their forward jump as one stretch; it takes a
point that is the forward jump of the one before as located at the next
component, and locates every other point. On ascending points (checked
once per walk, at its first run) a run's interior is one slice found by bisection, C-level
work a point; only the points within the membership tolerance of an
interval end are compared and snapped one at a time, a few float
comparisons each, with no lookup, record or call. A stretch is the grid
compared with the component left ends at C level, a slice at a time, and
yields no record. On a grid such as make_grid gives, only the first point
is looked up, so a walk costs O(N + log C) plus O(log N) per interval it
enters, plus the quadrature of its dense steps, and grid evaluations,
solvers and jump tables built on it are linear in N, C-level work a point
on a discrete scale. Each walks its grid once
(exponential._validate_regressive), checking a stretch with C-level maps:
the m = mu * alpha of a coefficient whose step value is a function of the
gap (a constant, Coefficient._gap_only) once per distinct gap, any other
coefficient read with one map (Coefficient.at_step, with the graininess
the walk holds) and each step tested up to the first that fails. It takes
the first kind's step log or factor once per distinct gap, a stretch's
gaps mapped through a memo that fills as it is read
(exponential._GapMemo, which the running exponent shares), and evaluates
any other coefficient once per scattered step, reusing the value read. A
constant dense view integrates a run exactly (Coefficient.dense_integrals):
each dense step is the value times its width, C-level maps over the run's
points and no call. A query over a range [t0, t1] (scattered_points,
dense_segments, make_grid) locates both ends and scans only the K
components from the one holding the lower end to the one after the upper
end, O(log C + K), taking a stretch of isolated points as one slice of
their ends; so does delta_integral, which runs the first two, plus the
quadrature of its dense pieces. A running exponent from one anchor
(exponential._Exponent) locates each target once and bisects for the
scattered ends and the intervals it has passed since the last. The
step logs of a coefficient whose step value is a function of the gap
over such a stretch are C-level maps over its gaps, the coefficient
evaluated and each distinct gap checked and its log taken once over all
targets; any other coefficient is evaluated once per component, and
each distinct (mu, alpha) step checked and its log taken once. Each
dense piece is integrated once over all targets. The intervals a target has passed since the last are
taken as a whole: their pieces' ends are C-level maps over the interval
ends, the pieces not yet integrated are one Coefficient.dense_integrals
call (for a constant dense view, C-level maps over the pairs of ends),
and the target adds all its finished pieces with one C-level reduce.
"""

from __future__ import annotations

import cmath
import math
import operator
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import chain, compress, count, islice, repeat
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence, Union

from .errors import DomainError, GridError, KappaError, OverlapError, ToleranceError

# Absolute tolerance for locating a time value inside a component.
MEMBERSHIP_TOL = 1e-12

# Default absolute tolerance for tolerance-driven quadrature.
DEFAULT_TOL = 1e-12

_MAX_SIMPSON_DEPTH = 40


@dataclass(frozen=True)
class ClosedInterval:
    """A continuous component [lo, hi] with lo < hi."""

    lo: float
    hi: float

    @property
    def left(self) -> float:
        return self.lo

    @property
    def right(self) -> float:
        return self.hi


@dataclass(frozen=True, slots=True)
class IsolatedPoint:
    """A single isolated time value."""

    t: float

    @property
    def left(self) -> float:
        return self.t

    @property
    def right(self) -> float:
        return self.t


# A point pickles its state as the dict {"t": value}, the form a point
# without slots has, so the pickles of releases before slots load and the
# bytes stay the same. Set here, not in the class body: dataclasses installs
# its own pair on a frozen class with slots.
IsolatedPoint.__getstate__ = lambda self: {"t": self.t}
IsolatedPoint.__setstate__ = lambda self, state: IsolatedPoint.t.__set__(self, state["t"])

Component = Union[ClosedInterval, IsolatedPoint]

_T = operator.attrgetter("t")
_LEFT = operator.attrgetter("left")
_RIGHT = operator.attrgetter("right")


def _points(values: Iterable[float]) -> tuple[IsolatedPoint, ...]:
    """IsolatedPoint(v) for each value, in order, made with two C-level
    maps and no Python call per point: object.__new__ makes each point and
    the slot's own descriptor stores its value, as the frozen class's
    __init__ stores it, past its __setattr__."""
    values = tuple(values)
    pts = tuple(map(object.__new__, repeat(IsolatedPoint, len(values))))
    any(map(IsolatedPoint.t.__set__, pts, values))  # each returns None
    return pts


def _uniform_values(start: float, step: float, count: int) -> tuple[float, ...]:
    """The values start + k * step for k in range(count). With a float
    step and a zero start of type int or float, the sums are the products,
    bit for bit and of the same type: each k * step is a float at or above
    +0.0, and 0 + y and either zero + y are y there."""
    products = map(operator.mul, range(count), repeat(step))
    if start == 0 and type(step) is float and type(start) in (int, float):
        return tuple(products)
    return tuple(map(operator.add, repeat(start), products))


def _point_values(comps: tuple) -> tuple | None:
    """The values of components that are all isolated points (not a
    subclass), read with one C-level map; None for any other input."""
    if set(map(type, comps)) != {IsolatedPoint}:
        return None
    return tuple(map(_T, comps))


def _valid_points(values: tuple) -> bool:
    """Whether TimeScale's checks pass points of these values, tested with
    C-level maps: each finite, and each past the one before by more than
    the tolerance (b - a > tol, as the checks test a gap after a point)."""
    gaps = map(operator.sub, islice(values, 1, None), values)
    return all(map(math.isfinite, values)) and all(
        map(operator.gt, gaps, repeat(MEMBERSHIP_TOL))
    )


@dataclass(frozen=True)
class PointClass:
    """Density classification of a point, one flag per side."""

    right_dense: bool
    left_dense: bool

    @property
    def right_scattered(self) -> bool:
        return not self.right_dense

    @property
    def left_scattered(self) -> bool:
        return not self.left_dense


@dataclass(frozen=True)
class Grid:
    """Ordered sample points of a scale plus the step used inside intervals."""

    points: tuple[float, ...]
    dense_step: float

    def __post_init__(self):
        pts = tuple(map(float, self.points))
        object.__setattr__(self, "points", pts)
        if not self.dense_step > 0:  # NaN too
            raise ValueError("dense_step must be positive")
        if not pts:
            raise ValueError("grid must contain at least one point")
        if not all(map(operator.gt, pts[1:], pts)):
            raise ValueError("grid points must be strictly increasing")

    def __len__(self) -> int:
        return len(self.points)

    def __iter__(self):
        return iter(self.points)

    def index_of(self, t: float) -> int | None:
        """Index of the grid point equal to t within the membership tolerance."""
        i = bisect_left(self.points, t - MEMBERSHIP_TOL)
        # t - MEMBERSHIP_TOL may round onto a point just out of tolerance
        for j in (i, i + 1):
            if j < len(self.points) and abs(self.points[j] - t) <= MEMBERSHIP_TOL:
                return j
        return None


class Run(NamedTuple):
    """Consecutive grid points inside one closed interval, taken by
    TimeScale.walk_runs: the index of the first, and the located points."""

    start: int
    points: list[float]


class Stretch(NamedTuple):
    """Consecutive grid points that are consecutive points of the scale,
    each step landing on its forward jump, taken by TimeScale.walk_runs:
    the index of the first; the components lo to stop - 1, whose right
    ends the steps' points are located at; and the graininess there
    (TimeScale._gaps). The point after the last step is the left end of
    component stop."""

    start: int
    lo: int
    stop: int
    mus: list[float]


@dataclass(frozen=True)
class TimeScale:
    """Finite union of closed intervals and isolated points, strictly ordered."""

    components: tuple[Component, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        object.__setattr__(self, "components", comps)
        if not comps:
            raise ValueError("a time scale needs at least one component")
        values = _point_values(comps)
        if values is not None and _valid_points(values):
            self._index(values, values, ())
            return
        self._check_each(comps)  # raises the first error in order, if any
        self._index(
            tuple(map(_LEFT, comps)),
            tuple(map(_RIGHT, comps)),
            tuple(compress(count(), map(isinstance, comps, repeat(ClosedInterval)))),
        )

    def _index(self, lefts: tuple, rights: tuple, intervals: tuple) -> None:
        # The component ends, the left ends less the membership tolerance,
        # for bisection in _locate and the range queries, and the indices of
        # the intervals, between two of which lies a stretch of points. Every
        # query reads these: component i is an interval exactly when its ends
        # differ, since construction requires hi - lo > MEMBERSHIP_TOL. Not
        # fields: equality, hashing and repr see only the components.
        object.__setattr__(self, "_lefts", lefts)
        object.__setattr__(self, "_rights", rights)
        object.__setattr__(
            self, "_lower_bounds", tuple(map(operator.sub, lefts, repeat(MEMBERSHIP_TOL)))
        )
        object.__setattr__(self, "_intervals", intervals)
        # Index of the left-scattered maximum, the one point outside the
        # differentiation domain: an isolated last component with a member
        # below it. -1 when the scale has none.
        last = len(lefts) - 1
        lsm = last if last > 0 and lefts[-1] == rights[-1] else -1
        object.__setattr__(self, "_left_scattered_max", lsm)

    def __getattr__(self, name: str):
        """The components of a scale made from values (_of_values), made
        when first read and kept."""
        if name != "components":
            raise AttributeError(f"'TimeScale' object has no attribute {name!r}")
        comps = _points(self._lefts)
        object.__setattr__(self, "components", comps)
        return comps

    def __getstate__(self) -> dict:
        # components first, as construction stores them: the pickle of a
        # scale made from values is the one its components would make
        return {"components": self.components, **vars(self)}

    @staticmethod
    def _check_each(comps: tuple) -> None:
        """The component checks one at a time, in order."""
        for c in comps:
            if isinstance(c, ClosedInterval):
                if not (math.isfinite(c.lo) and math.isfinite(c.hi)):
                    raise ValueError("interval endpoints must be finite")
                if not c.hi - c.lo > MEMBERSHIP_TOL:
                    raise ValueError(
                        f"interval [{c.lo}, {c.hi}] is empty or ill-conditioned"
                    )
            elif isinstance(c, IsolatedPoint):
                if not math.isfinite(c.t):
                    raise ValueError("isolated points must be finite")
            else:
                raise TypeError(f"not a component: {c!r}")
        for a, b in zip(comps, comps[1:]):
            # b must fail the test _locate accepts a member of a with, as
            # _locate rounds it: past an interval end, b.left - hi > tol
            # and b.left > hi + tol can disagree by an ulp
            if isinstance(a, ClosedInterval):
                apart = b.left > a.hi + MEMBERSHIP_TOL
            else:
                apart = b.left - a.t > MEMBERSHIP_TOL
            if not apart:
                raise ValueError(
                    f"components {a!r} and {b!r} overlap or are closer than "
                    f"{MEMBERSHIP_TOL}"
                )

    # -- membership -------------------------------------------------------

    @property
    def inf(self) -> float:
        return self._lefts[0]

    @property
    def sup(self) -> float:
        return self._rights[-1]

    def __contains__(self, t: float) -> bool:
        try:
            self._locate(t)
        except DomainError:
            return False
        return True

    def _locate(self, t: float) -> tuple[int, float]:
        """Component index and canonically snapped value for a member t.

        The lowest-indexed component whose tolerance test accepts t wins,
        as in a scan in ascending order. Components whose lower bound lies
        above t cannot accept it. Since each component starts past the
        tolerance test of the one below, rounded as here, of the others at
        most the last two can, so only those two are tested.
        """
        if not math.isfinite(t):
            raise DomainError(f"t={t!r} is not finite")
        stop = bisect_right(self._lower_bounds, t)
        lefts, rights = self._lefts, self._rights
        for i in range(max(0, stop - 2), stop):
            lo, hi = lefts[i], rights[i]
            if lo == hi:
                if abs(t - lo) <= MEMBERSHIP_TOL:
                    return i, lo
            elif t <= hi + MEMBERSHIP_TOL:
                return i, _snap(lo, hi, t)
        raise DomainError(f"t={t!r} is not a member of the time scale")

    # -- jump operators ----------------------------------------------------

    def sigma(self, t: float) -> float:
        """Forward jump: least member above t, or t itself at the supremum."""
        return self._sigma_at(*self._locate(t))

    def _sigma_at(self, i: int, tt: float) -> float:
        """Forward jump of tt, located in component i (a point is located
        at its own value, its right end)."""
        if tt < self._rights[i]:
            return tt
        if i + 1 < len(self._lefts):
            return self._lefts[i + 1]
        return tt

    def rho(self, t: float) -> float:
        """Backward jump: greatest member below t, or t itself at the infimum."""
        return self._rho_at(*self._locate(t))

    def _rho_at(self, i: int, tt: float) -> float:
        """Backward jump of tt, located in component i."""
        if tt > self._lefts[i]:
            return tt
        if i > 0:
            return self._rights[i - 1]
        return tt

    def in_kappa(self, t: float) -> bool:
        """True unless t is a left-scattered maximum of the scale."""
        i, _ = self._locate(t)
        return i != self._left_scattered_max

    def mu(self, t: float) -> float:
        """Graininess sigma(t) - t; undefined at a left-scattered maximum."""
        i, tt = self._locate(t)
        if i == self._left_scattered_max:
            raise KappaError(f"t={t!r} is the left-scattered maximum")
        return self._sigma_at(i, tt) - tt

    def classify(self, t: float) -> PointClass:
        i, tt = self._locate(t)
        return PointClass(
            right_dense=self._sigma_at(i, tt) == tt,
            left_dense=self._rho_at(i, tt) == tt,
        )

    # -- structure queries --------------------------------------------------

    def is_discrete(self) -> bool:
        return not self._intervals

    def constant_graininess(self) -> float | None:
        """Constant graininess value, or None when graininess varies.

        A single interval has graininess identically zero; a uniformly
        spaced set of isolated points has the spacing. Anything else mixes
        zero and positive values. A gap may differ from the first by
        MEMBERSHIP_TOL or four ulps of the largest |t|, whichever is more:
        the points carry the rounding of their own magnitude.
        """
        if len(self._lefts) == 1 and self._intervals:
            return 0.0
        if not self.is_discrete():
            return None
        pts = self._lefts
        if len(pts) < 2:
            return None
        eps = pts[1] - pts[0]
        tol = max(MEMBERSHIP_TOL, 4 * math.ulp(max(abs(pts[0]), abs(pts[-1]))))
        # each gap's distance from the first, tested with C-level maps
        off = map(abs, map(operator.sub, self._gaps(0, len(pts) - 1), repeat(eps)))
        return None if any(map(operator.gt, off, repeat(tol))) else eps

    def _scan(self, i: int, j: int) -> range:
        """Indices of the components that a scan from a to b meets, for
        a <= b located in components i and j.

        Every component before i ends below a, and component j + 1 starts
        at or above b, so a scan over these indices that stops at the first
        component starting above b finds what a scan from component 0 finds.
        """
        return range(i, min(j + 2, len(self._lefts)))

    def _gaps(self, lo: int, stop: int) -> list[float]:
        """The graininess at the right ends of components lo to stop - 1,
        each the gap to the next component's left end: one C-level map."""
        return list(map(operator.sub, self._lefts[lo + 1 : stop + 1], self._rights[lo:stop]))

    def scattered_points(self, t0: float, t1: float) -> tuple[tuple[float, float], ...]:
        """Right-scattered members s in [t0, t1) with their graininess, ascending.

        These are the right ends in [t0, t1) of the components that are not
        the last; the right ends ascend, so they are one slice of them,
        found by bisection within the components a scan from t0 meets.
        """
        i, a = self._locate(t0)
        j, b = self._locate(t1)
        if b < a:
            i, a, j, b = j, b, i, a
        rights = self._rights
        # b can lie an ulp past the supremum, which is not right-scattered
        stop = min(self._scan(i, j).stop, len(rights) - 1)
        lo = bisect_left(rights, a, i, stop)
        hi = bisect_left(rights, b, lo, stop)
        return tuple(zip(rights[lo:hi], self._gaps(lo, hi)))

    def dense_segments(self, t0: float, t1: float) -> tuple[tuple[float, float], ...]:
        """Nondegenerate interval pieces of the scale clipped to [t0, t1]."""
        i, a = self._locate(t0)
        j, b = self._locate(t1)
        if b < a:
            i, a, j, b = j, b, i, a
        lefts, rights = self._lefts, self._rights
        out = []
        for i in self._scan(i, j):
            if lefts[i] > b:
                break
            # empty at a point, whose ends are equal
            c, d = max(lefts[i], a), min(rights[i], b)
            if d > c:
                out.append((c, d))
        return tuple(out)

    # -- integration ---------------------------------------------------------

    def delta_integral(
        self,
        f: Callable[[float], complex],
        t0: float,
        t1: float,
        tol: float = DEFAULT_TOL,
    ) -> complex:
        """Delta integral of f from t0 to t1.

        Applies adaptive Simpson quadrature (absolute tolerance tol) on the
        continuous pieces (dense_segments) and sums mu(s)*f(s) over the
        right-scattered s in [t0, t1) (scattered_points), each in its own
        accumulator. Antisymmetric in (t0, t1). The scattered sum is
        accumulated in plain ascending order so that on purely discrete
        scales the result is bit-identical to the naive finite sum.

        Quadrature samples f on each closed continuous piece, so f must
        extend continuously to the piece's endpoints; integrands whose
        jump value differs at a scattered right endpoint (anything built
        from the pointwise graininess) belong in the coefficient
        machinery, which integrates their zero-graininess view instead.
        """
        _, a = self._locate(t0)
        _, b = self._locate(t1)
        if a == b:
            return 0j
        if b < a:
            return -self.delta_integral(f, t1, t0, tol)
        riemann = 0j
        for c, d in self.dense_segments(a, b):
            riemann += _adaptive_simpson(f, c, d, tol)
        jumps = 0j
        for s, mu in self.scattered_points(a, b):
            jumps += mu * f(s)
        return riemann + jumps

    # -- grids ----------------------------------------------------------------

    def walk(self, points: Sequence[float]) -> Iterator[tuple]:
        """One record per point of an ascending sequence of members, locating
        each point once (walk_runs says which take no lookup).

        Yields (p, q, sigma, mu, span, tt): p as given, the next point q
        (None at the last), the forward jump sigma(p), the graininess mu(p)
        (None at a left-scattered maximum), span, and the value tt that p
        is located at. span is the located pair (tt, uu) of p and q when
        lo <= tt < uu <= hi in the closed interval [lo, hi] holding p,
        which makes p right-dense; it is None otherwise. The delta integral
        over a step with a span is one quadrature over the span
        (Coefficient.dense_integral).

        These are the records of walk_runs, each run and stretch expanded
        into the records of its steps: (p, q, x, 0.0, (x, y), x) for
        consecutive located points x, y of a run, and (p, q, s, s - x,
        None, x) for a stretch's step from the right end x of a component
        to the next one's left end s.
        """
        lefts, rights = self._lefts, self._rights
        for item in self.walk_runs(points):
            if isinstance(item, Run):
                k, xs = item
                for j in range(len(xs) - 1):
                    x = xs[j]
                    yield points[k + j], points[k + j + 1], x, 0.0, (x, xs[j + 1]), x
            elif isinstance(item, Stretch):
                k, lo, _, mus = item
                for j, mu in enumerate(mus):
                    p, q = points[k + j], points[k + j + 1]
                    yield p, q, lefts[lo + j + 1], mu, None, rights[lo + j]
            else:
                yield item

    def walk_runs(self, points: Sequence[float]) -> Iterator[tuple]:
        """The records of walk, with the steps inside a closed interval
        taken a run at a time and the steps between isolated points a
        stretch at a time.

        A run is a maximal stretch of consecutive points whose steps each
        have a span (_extend_run decides each step), starting at any point
        located in a closed interval at or above its lower end. It is
        reported as one Run(start, points): the index of its first point
        and the located points, one more than its steps, in one closed
        interval, each above the one before. Whether the points ascend is
        checked once per walk, at its first run; if they do, a run's
        interior is taken as one slice, and only its points within the
        membership tolerance of an interval end are compared and snapped
        one at a time, a few float comparisons each, with no lookup and no
        record.

        A stretch starts at a point equal to the isolated point it is
        located at, when the next point is that point's forward jump, the
        next component's left end. It runs on while each next point is the
        next component's left end and each point a step leaves is an
        isolated point: one Stretch(start, lo, stop, mus), found by
        comparing the points with the component left ends a slice at a
        time, at C level (_matched), each slice twice the last, so that a
        stretch of m steps costs O(m) C-level work and no record. The next
        interval, found by bisection, bounds it.

        The record of a run's or stretch's last point follows it. Every
        other point's record is reported as walk reports it, with span
        None. The point after it is located with _locate, unless it is the
        record's forward jump to the next component: _locate would find it
        in that component at its left end, so it is taken as located there.
        """
        lefts, rights, intervals = self._lefts, self._rights, self._intervals
        last, lsm = len(lefts) - 1, self._left_scattered_max
        n = len(points)
        # checked once per walk, at the first run: a run's interior is
        # sliced only from ascending points, so a run never needs its order
        # checked again
        ascending = None
        located = self._locate(points[0])
        k = 0
        while True:
            i, tt = located
            p = points[k]
            lo, hi = lefts[i], rights[i]
            dense = lo != hi
            s = tt if tt < hi else lefts[i + 1] if i < last else tt  # _sigma_at
            mu = None if i == lsm else s - tt
            if k + 1 == n:
                yield p, None, s, mu, None, tt
                return
            q = points[k + 1]
            if dense:
                if lo <= tt:
                    if ascending is None:
                        ascending = all(map(operator.lt, points, points[1:]))
                    xs = [tt]
                    end = _extend_run(points, k, lo, hi, xs, ascending)
                    if end > k:
                        yield Run(k, xs)
                        k, located = end, (i, xs[-1])
                        continue
            elif q == s > tt and p == tt:
                # the steps between isolated points up to the next interval
                # (or the last component), which a stretch may land on
                nxt = bisect_right(intervals, i)
                bound = intervals[nxt] if nxt < len(intervals) else last
                m = _matched(points, k + 1, lefts, i + 1, min(bound - i, n - 1 - k))
                yield Stretch(k, i, i + m, self._gaps(i, i + m))
                k, located = k + m, (i + m, lefts[i + m])
                continue
            # a jump to the next component's left end is located there:
            # construction keeps it out of component i, so _locate finds it
            # in component i + 1 and snaps it to that end
            located = (i + 1, s) if q == s > tt else self._locate(q)
            yield p, q, s, mu, None, tt
            k += 1

    def make_grid(self, t0: float, t1: float, dense_step: float) -> Grid:
        """Deterministic grid on [t0, t1] covering all endpoints in range.

        Every isolated point and every interval endpoint inside the range
        is included; interval interiors are sampled uniformly with spacing
        at most dense_step.
        """
        if not dense_step > 0:  # NaN too
            raise ValueError("dense_step must be positive")
        i, a = self._locate(t0)
        j, b = self._locate(t1)
        if b < a:
            raise DomainError(f"range reversed: {t0!r} > {t1!r}")
        lefts, rights, intervals = self._lefts, self._rights, self._intervals
        pts: list[float] = []
        stop = self._scan(i, j).stop
        while i < stop:
            lo, hi = lefts[i], rights[i]
            if lo == hi:
                # a stretch of points, up to the next interval, ascends:
                # those in [a, b] are one slice, and one past b ends the scan
                nxt = bisect_right(intervals, i)
                end = min(intervals[nxt], stop) if nxt < len(intervals) else stop
                e = bisect_right(lefts, b, i, end)
                pts.extend(lefts[bisect_left(lefts, a, i, e) : e])
                if e < end:
                    break
                i = end
                continue
            i += 1
            if lo > b:
                break
            if hi < a:
                continue
            c, d = max(lo, a), min(hi, b)
            if d <= c:
                pts.append(c)
                continue
            span = d - c
            n = max(1, math.ceil(span / dense_step))
            pts.append(c)
            pts.extend([c + k * span / n for k in range(1, n)])
            pts.append(d)
        return Grid(tuple(pts), dense_step)


class _Jumps:
    """The forward jump of each of ascending points, read by index from one
    TimeScale.walk_runs: sigma, mu (None at the left-scattered maximum) and
    the located value, a run's and a stretch's filled from slices. Past a
    non-member the points are walked one at a time; stop is the first point
    whose locating raised (the number of points where none did), and
    check(k) raises point k's error, where a loop locating each point would
    meet it. One walk per report; the oscillator-cayley report shares one.

    Against a sample grid it has grid index columns, None where unsampled:
    own, at and next, of each point, its located value and sigma. Over the
    grid's own points a point's index is its position, unless a grid point
    lies within the membership tolerance below it; a stretch gives each
    jump's, and a run's point, whose jump is its located value, at's; any
    other value is searched for (Grid.index_of). jumping and stencils
    gather the indices of a stencil by C-level maps.
    """

    def __init__(self, ts: TimeScale, points: Sequence[float], grid: Grid | None = None):
        self.ts, self.points, self.grid = ts, points, grid
        self._aligned = grid is not None and points is grid.points
        self.sigma, self.mu, self.located = [], [], []
        self._spanned = [False]  # whether the step to each point has a span
        self._next: list[int] = []  # next where a stretch gives it, else -1
        self._runs: list[slice] = []  # where the runs' points lie
        self._errors: dict[int, DomainError] = {}
        try:
            self._add(ts.walk_runs(points))
        except DomainError:  # locating a point loses the record before it
            for p in points[len(self.sigma) :]:
                try:
                    self._add(ts.walk_runs((p,)))
                except DomainError as exc:
                    self._errors[len(self.sigma)] = exc
                    self._add([(p,) + (None,) * 5])
        self.stop = min(self._errors, default=len(points))

    def _add(self, items) -> None:
        ts = self.ts
        for item in items:
            if isinstance(item, Run):
                xs = item.points[:-1]
                self._runs.append(slice(len(self.sigma), len(self.sigma) + len(xs)))
                self.sigma += xs
                self.mu += [0.0] * len(xs)
                self.located += xs
                self._spanned += [True] * len(xs)
                self._next += [-1] * len(xs)
            elif isinstance(item, Stretch):
                k, lo, stop, mus = item
                m = len(mus)
                self.sigma += ts._lefts[lo + 1 : stop + 1]
                self.mu += mus
                self.located += ts._rights[lo:stop]
                self._spanned += [False] * m
                # each jump is the next point, more than the tolerance above
                # the point: Grid.index_of finds it there and nowhere below
                self._next += range(k + 1, k + 1 + m) if self._aligned else [-1] * m
            else:
                _, _, s, mu, span, tt = item
                self.sigma.append(s)
                self.mu.append(mu)
                self.located.append(tt)
                self._spanned.append(span is not None)
                self._next.append(-1)

    def check(self, k: int) -> None:
        if k in self._errors:
            raise self._errors[k]

    @cached_property
    def own(self) -> list[int | None]:
        pts = self.points
        if self._aligned:
            own = list(range(len(pts)))
            tops = map(operator.sub, pts[1:], repeat(MEMBERSHIP_TOL))
            crowded = compress(count(1), map(operator.ge, pts, tops))
        else:
            own, crowded = [None] * len(pts), range(len(pts))
        for k in crowded:
            own[k] = self.grid.index_of(pts[k])
        return own

    @cached_property
    def at(self) -> list[int | None]:
        return self._indices(self.located, self.own, map(operator.ne, self.located, self.points))

    @cached_property
    def next(self) -> list[int | None]:
        # a run's point jumps to its located value, whose index is at's
        missing = list(map(operator.lt, self._next, repeat(0)))
        for run in self._runs:
            missing[run] = [False] * (run.stop - run.start)
        col = self._indices(self.sigma, self._next, missing)
        for run in self._runs:
            col[run] = self.at[run]
        return col

    def _indices(self, values, given, missing) -> list[int | None]:
        """The grid index of each of values, one a point: given's, but where
        missing says, own's where the value is the point, else a search."""
        col, pts = list(given), self.points
        for k in compress(count(), missing):
            t = values[k]
            col[k] = self.own[k] if t == pts[k] else None if t is None else self.grid.index_of(t)
        return col

    def located_index(self, k: int) -> int:
        """at[k]; point k's error, or GridError as a sample lookup raises it, where None."""
        self.check(k)
        if self.at[k] is None:
            raise GridError(f"t={self.located[k]!r} is not sampled")
        return self.at[k]

    def jump_index(self, k: int) -> int:
        """next[k]; point k's error, or GridError as a sample lookup raises it, where None."""
        self.check(k)
        if self.next[k] is None:
            raise GridError(f"t={self.sigma[k]!r} is not sampled")
        return self.next[k]

    def jumping(self, ks) -> list[list[int]]:
        """The points of ks whose jump is sampled, and the jumps' next."""
        ks = list(ks)
        js = _gather(self.next, ks)
        sampled = list(map(operator.is_not, js, repeat(None)))
        return [list(compress(ks, sampled)), list(compress(js, sampled))]

    @cached_property
    def stencils(self) -> tuple[list[list], list[list]]:
        """The points before stop with a second-difference stencil, on a
        table over its own grid. Below its jump, a point whose jump and whose
        jump's jump are sampled and apart (read at the jump if that is a
        point): columns of the points, both jumps' next and both jumps.
        Right-dense, one with no backward jump below, an interior own index
        i, steps i - 1 to i to i + 1 within 1e-9 of the larger: ks, i, hl, hr."""
        pts, sub, e = self.points, operator.sub, self.stop
        below = list(map(operator.gt, self.sigma[:e], pts))
        ks, js = self.jumping(compress(range(e), below))
        ss, s2 = _gather(self.sigma, ks), list(_gather(self.sigma, js))
        j2 = list(_gather(self.next, js))
        for m in compress(count(), map(operator.ne, _gather(pts, js), ss)):
            jumps = _Jumps(self.ts, (ss[m],), self.grid)
            s2[m], j2[m] = jumps.sigma[0], jumps.next[0]
        apart = map(operator.ne, s2, ss)
        kept = list(map(operator.and_, apart, map(operator.is_not, j2, repeat(None))))
        forward = [list(compress(c, kept)) for c in (ks, js, j2, ss, s2)]
        ks = list(compress(range(e), map(operator.not_, below)))
        i = _gather(self.own, ks)
        inner = list(map(operator.and_, map(bool, i), map(operator.lt, i, repeat(len(pts) - 1))))
        ks, i = list(compress(ks, inner)), list(compress(i, inner))
        # the backward jump: the located value where the step to the point has a span
        rho = list(_gather(self.located, ks))
        for m in compress(count(), map(operator.not_, _gather(self._spanned, ks))):
            rho[m] = self.ts.rho(pts[ks[m]])
        left, mid, right = (_gather(pts, map(operator.add, i, repeat(d))) for d in (-1, 0, 1))
        hl, hr = list(map(sub, mid, left)), list(map(sub, right, mid))
        tols = map(operator.mul, repeat(1e-9), map(max, hl, hr))
        symmetric = map(operator.le, map(abs, map(sub, hl, hr)), tols)
        kept = list(map(operator.and_, map(operator.ge, rho, _gather(pts, ks)), symmetric))
        return forward, [list(compress(c, kept)) for c in (ks, i, hl, hr)]


def _gather(values: Sequence, indices: Iterable[int]) -> tuple:
    """values[i] for each i of indices, by one C-level call."""
    indices = tuple(indices)
    if len(indices) == 1:
        return (values[indices[0]],)
    return operator.itemgetter(*indices)(values) if indices else ()


def _extend_run(
    points: Sequence[float], k: int, lo: float, hi: float, xs: list[float], ascending: bool
) -> int:
    """Append to the located points xs of a run, which end at point k, the
    points after it while each step has a span; the index of the last.
    This is the one place a step is given a span.

    The step from point k, located at xs[-1] in the closed interval
    [lo, hi], has a span when the next point is above it and within its
    upper tolerance (so the interval accepts it, as _locate would find),
    and once snapped lies above xs[-1] and no higher than hi. The first
    point can lie within the tolerance below lo, located at lo. A point of
    a run past its first is its own located value: _snap gives lo, hi or
    the point itself, the point lies above lo, and no step from hi has a
    span.

    When the walk's points are ascending, the run's interior is one slice:
    the points after k below hi - MEMBERSHIP_TOL, found by bisection. If
    the first lies above xs[-1] and more than the tolerance above lo, and
    the last more than the tolerance below hi, then so does every point
    between (fl(q - lo) and fl(hi - q) are monotone in q), so each step to
    them has a span and _snap returns each unchanged. Only the points
    within the tolerance of an end are compared and snapped one at a time,
    or the whole run where a guard fails.
    """
    if ascending:
        e = bisect_left(points, hi - MEMBERSHIP_TOL, k + 1)
        if (
            e > k + 1
            and xs[-1] < points[k + 1]
            and points[k + 1] - lo > MEMBERSHIP_TOL
            and hi - points[e - 1] > MEMBERSHIP_TOL
        ):
            xs.extend(points[k + 1 : e])
            k = e - 1
    top = hi + MEMBERSHIP_TOL
    for k in range(k, len(points) - 1):
        q = points[k + 1]
        if not points[k] < q <= top:
            return k
        u = _snap(lo, hi, q)
        if not xs[-1] < u <= hi:
            return k
        xs.append(u)
    return len(points) - 1


def _matched(a: Sequence[float], i: int, b: tuple, j: int, limit: int) -> int:
    """The length of the longest common prefix of a[i:] and the tuple
    b[j:], at most limit: compared a slice at a time at C level, each slice
    twice the last, so linear in the length found."""
    n, size = 0, 16
    while n < limit:
        end = min(n + size, limit)
        xs, ys = tuple(a[i + n : i + end]), b[j + n : j + end]
        if xs != ys:
            return next(compress(count(n), map(operator.ne, xs, ys)))
        n, size = end, 2 * size
    return limit


def _snap(lo: float, hi: float, t: float) -> float:
    """Canonical value of a t that the closed interval [lo, hi] accepts: an
    endpoint within the membership tolerance of t, or t itself."""
    if abs(t - lo) <= MEMBERSHIP_TOL:
        return lo
    if abs(t - hi) <= MEMBERSHIP_TOL:
        return hi
    return t


# -- constructors -------------------------------------------------------------


def interval(lo: float, hi: float) -> TimeScale:
    return TimeScale((ClosedInterval(float(lo), float(hi)),))


def isolated(*ts: float) -> TimeScale:
    return _of_values(tuple(map(float, sorted(ts))))


def uniform(start: float, step: float, count: int) -> TimeScale:
    """count isolated points start, start+step, ... (_uniform_values).

    count is a positive integer, of any numeric type (3.0 is 3), and step
    is positive, as the CLI's uniform term takes them; any other count or
    step, NaN included, raises ValueError. The scale is made by
    _uniform_scale, with no gap scanned where the step proves it valid.
    """
    if not count >= 1 or count % 1:  # NaN, and infinity, whose % 1 is NaN
        raise ValueError(f"count must be a positive integer, got {count!r}")
    if not step > 0:  # NaN too
        raise ValueError("step must be positive")
    return _uniform_scale(start, step, int(count))


def normalize_components(components: Iterable[Component]) -> tuple[Component, ...]:
    """Sort components, merge ones that touch, reject ones that intersect.

    Touching means boundary contact within the membership tolerance; a
    duplicate point or any interior intersection raises OverlapError. Two
    isolated points are never merged: they are one point given twice
    (OverlapError) or two points, as construction's gap test b - a > tol
    decides.

    Isolated points (not a subclass) that are already in order are
    returned as they are: each more than the tolerance past the one before,
    as a few C-level maps test, they keep their places in the sort and the
    merge loop copies them unchanged. Any other input takes the loop,
    which raises the errors.
    """
    comps = tuple(components)
    values = _point_values(comps)
    if values is not None and _in_order(values):
        return comps
    comps = sorted(comps, key=lambda c: (c.left, c.right))
    merged: list[list[float]] = []  # [lo, hi] pairs, point when lo == hi
    for c in comps:
        lo, hi = c.left, c.right
        if merged and lo <= merged[-1][1] + MEMBERSHIP_TOL:
            plo, phi = merged[-1]
            if plo == phi and lo == hi:
                if not lo - phi > MEMBERSHIP_TOL:
                    raise OverlapError(f"duplicate point {lo!r}")
                merged.append([lo, hi])
                continue
            if lo < phi - MEMBERSHIP_TOL:
                raise OverlapError(
                    f"components intersect near {lo!r}: "
                    f"[{plo!r}, {phi!r}] and [{lo!r}, {hi!r}]"
                )
            merged[-1][1] = max(phi, hi)
        else:
            merged.append([lo, hi])
    out: list[Component] = []
    for lo, hi in merged:
        if hi > lo:
            out.append(ClosedInterval(lo, hi))
        else:
            out.append(IsolatedPoint(lo))
    return tuple(out)


def _in_order(values: tuple) -> bool:
    """normalize_components' test that isolated points of these values are
    in order, with C-level maps: each past the one before by more than the
    tolerance (a + tol < b, as its merge loop tests a touch)."""
    after = map(operator.add, values, repeat(MEMBERSHIP_TOL))
    return all(map(operator.lt, after, islice(values, 1, None)))


def _of_values(values: tuple, normalize: bool = False) -> TimeScale:
    """TimeScale(_points(values)), or with normalize the scale of
    normalize_components(_points(values)), made with no point object where
    the values pass construction's checks, under which
    normalize_components keeps the points as they are: the scale is then
    its ends tables, and reading its components makes the points. Any
    other values take the construction they stand for, which raises the
    errors."""
    if values and _valid_points(values):
        return _indexed(values)
    points = _points(values)
    return TimeScale(normalize_components(points) if normalize else points)


def _indexed(values: tuple) -> TimeScale:
    """The scale of isolated points of values that pass construction's
    checks: its ends tables, and no point object."""
    ts = object.__new__(TimeScale)
    ts._index(values, values, ())
    return ts


def _uniform_scale(start: float, step: float, count: int, normalize: bool = False) -> TimeScale:
    """_of_values(_uniform_values(start, step, count), normalize), for a
    positive step and a count of at least 1, with no value tested where a
    float step proves the values pass construction's checks.

    Write fl for one rounding, u = 2**-53 and n = count. The values are
    v_k = fl(s + fl(k * step)), s the start (an int or Fraction start is
    converted first, one more rounding of a constant). Rounding is
    monotone, so the v_k never decrease: all are finite when v_0 and
    v_(n-1) are, and |v_k| <= M = max(|v_0|, |v_(n-1)|). With k * step off
    by at most u * k * step (k * step >= step is normal here) and a sum
    off by at most u / (1 - u) of its rounded value (a sum that is
    subnormal is exact), every exact gap v_(k+1) - v_k is at least
    step * (1 - 2 n u) - 2 u M / (1 - u). Rounding the subtraction is
    monotone too, so every computed gap exceeds MEMBERSHIP_TOL when that
    bound is at least the tolerance's float successor. The test below asks
    step - 1e-15 * (n * step + M) > 2 * MEMBERSHIP_TOL: 1e-15 is over four
    times 2u, and 2 * MEMBERSHIP_TOL nearly twice the successor, slack enough
    for the test's own roundings. A product n * step that overflows fails
    it. Any other input, a step of any other type among them, takes
    _of_values, which tests the values and raises the errors."""
    values = _uniform_values(start, step, count)
    a, b = values[0], values[-1]
    if (
        type(step) is float
        and math.isfinite(a)
        and math.isfinite(b)
        and step - 1e-15 * (count * step + max(abs(a), abs(b))) > 2 * MEMBERSHIP_TOL
    ):
        return _indexed(values)
    return _of_values(values, normalize)


def union(*scales: TimeScale) -> TimeScale:
    if not any(s._intervals for s in scales):
        return _of_values(tuple(chain.from_iterable(s._lefts for s in scales)), normalize=True)
    return TimeScale(normalize_components(chain.from_iterable(s.components for s in scales)))


# -- numeric delta derivative --------------------------------------------------


def delta_derivative_numeric(
    ts: TimeScale, f: Callable[[float], complex], t: float, h0: float = 1e-2
) -> complex:
    """Delta derivative estimate at t.

    At right-scattered points this is the exact difference quotient
    (f(sigma(t)) - f(t)) / mu(t). At right-dense points the ordinary
    derivative is estimated by Richardson extrapolation of difference
    quotients starting from step h0 (clipped to the containing interval);
    for smooth f the estimate is typically accurate to about 1e-9. Meant
    as a test and diagnostics utility, not a production differentiator.
    """
    if h0 <= 0:
        raise ValueError("h0 must be positive")
    i, tt = ts._locate(t)
    if not ts.in_kappa(tt):
        raise KappaError(f"t={t!r} is the left-scattered maximum")
    s = ts.sigma(tt)
    if s > tt:
        return (complex(f(s)) - complex(f(tt))) / (s - tt)
    lo, hi = ts._lefts[i], ts._rights[i]
    if lo == hi:
        raise DomainError(f"no neighboring members around t={t!r}")
    hl, hr = tt - lo, hi - tt
    if hl > 0 and hr > 0:
        h = min(h0, hl, hr)
        return _richardson(
            lambda hh: (complex(f(tt + hh)) - complex(f(tt - hh))) / (2 * hh), h, 4.0
        )
    if hr > 0:
        h = min(h0, hr)
        return _richardson(lambda hh: (complex(f(tt + hh)) - complex(f(tt))) / hh, h, 2.0)
    h = min(h0, hl)
    return _richardson(lambda hh: (complex(f(tt)) - complex(f(tt - hh))) / hh, h, 2.0)


def _richardson(quotient, h0: float, factor: float, levels: int = 8) -> complex:
    """Neville extrapolation of quotient(h) over h0, h0/2, ...; best estimate wins."""
    row = [quotient(h0)]
    best = row[0]
    best_gap = math.inf
    h = h0
    for _ in range(levels):
        h /= 2
        new = [quotient(h)]
        fac = factor
        for prev in row:
            new.append(new[-1] + (new[-1] - prev) / (fac - 1.0))
            fac *= factor
        gap = abs(new[-1] - row[-1])
        if gap < best_gap:
            best, best_gap = new[-1], gap
        row = new
    return best


# -- quadrature ----------------------------------------------------------------


def _adaptive_simpson(
    f: Callable[[float], complex], a: float, b: float, tol: float
) -> complex:
    if not tol > 0:  # NaN too: no piece meets it, so every piece refines
        raise ValueError("tol must be positive")
    if a == b:
        return 0j
    m = 0.5 * (a + b)
    fa, fm, fb = complex(f(a)), complex(f(m)), complex(f(b))
    whole = (b - a) / 6.0 * (fa + 4.0 * fm + fb)
    try:
        # complex arithmetic overflows to inf or nan without raising, and
        # every piece of a non-finite estimate would refine
        if cmath.isfinite(whole):
            return _simpson_step(f, a, b, fa, fm, fb, whole, tol, _MAX_SIMPSON_DEPTH)
    except OverflowError:
        pass
    raise ToleranceError(f"quadrature overflows on [{a}, {b}]")


def _simpson_step(f, a, b, fa, fm, fb, whole, tol, depth) -> complex:
    m = 0.5 * (a + b)
    lm, rm = 0.5 * (a + m), 0.5 * (m + b)
    flm, frm = complex(f(lm)), complex(f(rm))
    left = (m - a) / 6.0 * (fa + 4.0 * flm + fm)
    right = (b - m) / 6.0 * (fm + 4.0 * frm + fb)
    delta = left + right - whole
    # lm == a or rm == b means the interval is below float resolution
    if abs(delta) <= 15.0 * tol or lm <= a or rm >= b:
        return left + right + delta / 15.0
    if depth == 0:
        raise ToleranceError(
            f"quadrature failed to reach tol={tol} on [{a}, {b}]"
        )
    half = 0.5 * tol
    return _simpson_step(f, a, m, fa, flm, fm, left, half, depth - 1) + _simpson_step(
        f, m, b, fm, frm, fb, right, half, depth - 1
    )
