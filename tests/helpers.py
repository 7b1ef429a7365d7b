"""Shared scale generators and slow reference paths for randomized tests."""

import cmath
import math
from unittest import mock

import numpy as np
from hypothesis import strategies as st

from tscale import (
    ClosedInterval,
    Coefficient,
    ConstantGraininessError,
    DomainError,
    ExactOscillatorResult,
    ExpFamily,
    Grid,
    GridError,
    IsolatedPoint,
    KappaError,
    OverlapError,
    PointClass,
    RegressivityError,
    ResidualReport,
    SampledFunction,
    Scheme,
    SingularError,
    TimeScale,
    ToleranceError,
    TrigFamily,
    TrigKind,
    delta_derivative_numeric,
    exp_cayley,
    exp_evaluate_grid,
    exp_exact,
    exp_hilger,
    exp_nabla_const,
    hyp,
    hyp_grid,
    interval,
    isolated,
    trig,
    trig_grid,
    uniform,
    union,
)
from tscale.exponential import (
    _STEP_RULES,
    _exp,
    _exps,
    _hilger_grid_lenient,
    _memoized,
    _grid_log_integrals,
    _log_integral_range,
    _validated_logs,
)
from tscale.dynamic import (
    _SCHEME_RULES,
    phi,
    psi,
    sinc,
)
from tscale.timescale import MEMBERSHIP_TOL, _adaptive_simpson
from tscale.transforms import (
    REGRESSIVITY_MARGIN,
    _SERIES_CUTOFF,
    _principal_log,
    as_coefficient,
)


def random_discrete(rng: np.random.Generator, n_min=3, n_max=10) -> TimeScale:
    n = int(rng.integers(n_min, n_max + 1))
    start = float(rng.uniform(-5.0, 5.0))
    gaps = rng.uniform(0.1, 1.2, size=n - 1)
    pts = [start]
    for g in gaps:
        pts.append(pts[-1] + float(g))
    return isolated(*pts)


def random_interval(rng: np.random.Generator) -> TimeScale:
    a = float(rng.uniform(-5.0, 5.0))
    return interval(a, a + float(rng.uniform(0.5, 3.0)))


def random_mixed(rng: np.random.Generator) -> TimeScale:
    a = float(rng.uniform(-5.0, 0.0))
    b = a + float(rng.uniform(0.5, 1.5))
    p1 = b + float(rng.uniform(0.2, 1.0))
    p2 = p1 + float(rng.uniform(0.2, 1.0))
    c = p2 + float(rng.uniform(0.2, 1.0))
    d = c + float(rng.uniform(0.5, 1.5))
    return union(interval(a, b), isolated(p1, p2), interval(c, d))


def random_scale(rng: np.random.Generator) -> TimeScale:
    return [random_discrete, random_interval, random_mixed][int(rng.integers(3))](rng)


def max_graininess(ts: TimeScale) -> float:
    jumps = ts.scattered_points(ts.inf, ts.sup)
    return max((mu for _, mu in jumps), default=0.0)


def linear_locate(ts: TimeScale, t: float) -> tuple[int, float]:
    """Slow reference for TimeScale._locate: scan every component in order."""
    if not math.isfinite(t):
        raise DomainError(f"t={t!r} is not finite")
    for i, comp in enumerate(ts.components):
        if t < comp.left - MEMBERSHIP_TOL:
            break
        if isinstance(comp, IsolatedPoint):
            if abs(t - comp.t) <= MEMBERSHIP_TOL:
                return i, comp.t
        else:
            if t <= comp.hi + MEMBERSHIP_TOL:
                if abs(t - comp.lo) <= MEMBERSHIP_TOL:
                    return i, comp.lo
                if abs(t - comp.hi) <= MEMBERSHIP_TOL:
                    return i, comp.hi
                return i, t
    raise DomainError(f"t={t!r} is not a member of the time scale")


def reference_walk(ts: TimeScale, points):
    """Slow reference for TimeScale.walk: locate every point with _locate."""
    last = len(ts.components) - 1
    located = ts._locate(points[0])
    for k, p in enumerate(points):
        i, tt = located
        comp = ts.components[i]
        s = ts._sigma_at(i, tt)
        left_scattered_max = i == last > 0 and isinstance(comp, IsolatedPoint)
        mu = None if left_scattered_max else s - tt
        q = span = None
        if k + 1 < len(points):
            q = points[k + 1]
            located = ts._locate(q)
            j, uu = located
            same_interval = j == i and isinstance(comp, ClosedInterval)
            if same_interval and comp.lo <= tt < uu <= comp.hi:
                span = (tt, uu)
        yield p, q, s, mu, span, tt


# -- jump queries as compositions of the public operators, each locating
#    its point again


def relocates(ts: TimeScale, t: float) -> bool:
    """True when locating t's snapped value finds another component.
    Construction rules it out: it tests each gap as _locate tests
    membership, so no component starts inside the one below it."""
    try:
        i, tt = ts._locate(t)
    except DomainError:
        return False
    return ts._locate(tt) != (i, tt)


def reference_rho(ts: TimeScale, t: float) -> float:
    i, tt = ts._locate(t)
    comp = ts.components[i]
    if isinstance(comp, ClosedInterval) and tt > comp.lo:
        return tt
    if i > 0:
        return ts.components[i - 1].right
    return tt


def reference_in_kappa(ts: TimeScale, t: float) -> bool:
    _, tt = ts._locate(t)
    return not (tt == ts.sup and reference_rho(ts, tt) < tt)


def reference_mu(ts: TimeScale, t: float) -> float:
    if not reference_in_kappa(ts, t):
        raise KappaError(f"t={t!r} is the left-scattered maximum")
    _, tt = ts._locate(t)
    return ts.sigma(tt) - tt


def reference_classify(ts: TimeScale, t: float) -> PointClass:
    _, tt = ts._locate(t)
    return PointClass(
        right_dense=ts.sigma(tt) == tt, left_dense=reference_rho(ts, tt) == tt
    )


def walk_outcome(walk, *args):
    """The records a walk yields, as hex, and the exception that ends it,
    if any (see outcome)."""
    records = []
    try:
        for record in walk(*args):
            records.append(_hexed(record))
    except Exception as exc:  # compared, not swallowed
        return records, outcome(_raise, exc)
    return records, None


def _raise(exc):
    raise exc


# -- construction one component at a time, as before the bulk checks ------------


def reference_normalize_components(components):
    """timescale.normalize_components as the sort and merge loop alone."""
    comps = sorted(components, key=lambda c: (c.left, c.right))
    merged: list[list[float]] = []  # [lo, hi] pairs, point when lo == hi
    for c in comps:
        lo, hi = c.left, c.right
        if merged and lo <= merged[-1][1] + MEMBERSHIP_TOL:
            plo, phi = merged[-1]
            if plo == phi and lo == hi:  # two points: one given twice, or two
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
    out: list = []
    for lo, hi in merged:
        if hi > lo:
            out.append(ClosedInterval(lo, hi))
        else:
            out.append(IsolatedPoint(lo))
    return tuple(out)


def reference_scale_state(components):
    """TimeScale(components) with its checks one component at a time: the
    error they raise first, or the scale's repr with the lookup tables built
    from each component's properties (see scale_state)."""
    comps = tuple(components)
    if not comps:
        raise ValueError("a time scale needs at least one component")
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
        if isinstance(a, ClosedInterval):
            apart = b.left > a.hi + MEMBERSHIP_TOL
        else:
            apart = b.left - a.t > MEMBERSHIP_TOL
        if not apart:
            raise ValueError(
                f"components {a!r} and {b!r} overlap or are closer than "
                f"{MEMBERSHIP_TOL}"
            )
    last = len(comps) - 1
    return repr(
        (
            TimeScale.__name__ + f"(components={comps!r})",
            tuple(c.left for c in comps),
            tuple(c.right for c in comps),
            tuple(c.left - MEMBERSHIP_TOL for c in comps),
            tuple(k for k, c in enumerate(comps) if isinstance(c, ClosedInterval)),
            last if last > 0 and isinstance(comps[-1], IsolatedPoint) else -1,
        )
    )


def scale_state(components):
    """TimeScale(components)'s repr with its lookup tables, as
    reference_scale_state gives them."""
    ts = TimeScale(components)
    return repr(
        (
            repr(ts),
            ts._lefts,
            ts._rights,
            ts._lower_bounds,
            ts._intervals,
            ts._left_scattered_max,
        )
    )


# -- linear component scans, as before the index ----------------------------------
#
# Each scans from component 0 and stops at the first component starting
# above the upper end, exactly as the library did before its scans started
# at the located components.


def _linear_ends(ts, t0, t1):
    _, a = linear_locate(ts, t0)
    _, b = linear_locate(ts, t1)
    return (b, a) if b < a else (a, b)


def linear_scattered_points(ts: TimeScale, t0: float, t1: float):
    a, b = _linear_ends(ts, t0, t1)
    out = []
    for i, comp in enumerate(ts.components):
        if comp.left > b:
            break
        end = comp.right
        if a <= end < b and i + 1 < len(ts.components):
            out.append((end, ts.components[i + 1].left - end))
    return tuple(out)


def linear_dense_segments(ts: TimeScale, t0: float, t1: float):
    a, b = _linear_ends(ts, t0, t1)
    out = []
    for comp in ts.components:
        if comp.left > b:
            break
        if isinstance(comp, ClosedInterval):
            c, d = max(comp.lo, a), min(comp.hi, b)
            if d > c:
                out.append((c, d))
    return tuple(out)


def linear_delta_integral(ts: TimeScale, f, t0: float, t1: float, tol: float = 1e-12):
    _, a = linear_locate(ts, t0)
    _, b = linear_locate(ts, t1)
    if a == b:
        return 0j
    if b < a:
        return -linear_delta_integral(ts, f, t1, t0, tol)
    jumps = 0j
    riemann = 0j
    for i, comp in enumerate(ts.components):
        if comp.left > b:
            break
        if isinstance(comp, ClosedInterval):
            c, d = max(comp.lo, a), min(comp.hi, b)
            if d > c:
                riemann += _adaptive_simpson(f, c, d, tol)
        end = comp.right
        # b can lie an ulp past the supremum, which is not right-scattered
        if a <= end < b and i + 1 < len(ts.components):
            jumps += (ts.components[i + 1].left - end) * f(end)
    return riemann + jumps


def linear_make_grid(ts: TimeScale, t0: float, t1: float, dense_step: float) -> Grid:
    _, a = linear_locate(ts, t0)
    _, b = linear_locate(ts, t1)
    if b < a:
        raise DomainError(f"range reversed: {t0!r} > {t1!r}")
    pts = []
    for comp in ts.components:
        if comp.left > b:
            break
        if comp.right < a:
            continue
        if isinstance(comp, IsolatedPoint):
            pts.append(comp.t)
            continue
        c, d = max(comp.lo, a), min(comp.hi, b)
        if d <= c:
            pts.append(c)
            continue
        n = max(1, math.ceil((d - c) / dense_step))
        pts.append(c)
        pts.extend(c + k * (d - c) / n for k in range(1, n))
        pts.append(d)
    return Grid(tuple(pts), dense_step)


def reference_exp(family: ExpFamily, ts: TimeScale, coeff, t: float, t0: float, tol=1e-12):
    """exp_cayley / exp_hilger as a validation pass over the scattered steps
    followed by a separate accumulation pass, on the linear scans, with each
    dense piece integrated by the delta integral."""
    rule = _STEP_RULES[family]
    for s, mu in linear_scattered_points(ts, min(t, t0), max(t, t0)):
        rule.check(s, mu * coeff(s), "alpha")
    _, a = linear_locate(ts, t0)
    _, b = linear_locate(ts, t)
    if a == b:
        return cmath.exp(0j)
    sign = 1.0
    if b < a:
        a, b, sign = b, a, -1.0
    total = 0j
    for s, mu in linear_scattered_points(ts, a, b):
        total += rule.log(mu, coeff(s))
    for c, d in linear_dense_segments(ts, a, b):
        total += dense_piece(coeff, c, d, tol)
    return cmath.exp(sign * total)


def reference_log_integral_range(family: ExpFamily, ts: TimeScale, coeff, t0, t1, tol):
    """exponential._log_integral_range as one pass over [t0, t1], before it
    became one target of a running exponent: the step logs summed from 0j
    in ascending order, each checked just before its log is taken, then the
    dense pieces added one by one, each its own dense_piece."""
    if t0 < t1:
        (_, a), (_, b) = ts._locate(t0), ts._locate(t1)
    else:
        (_, b), (_, a) = ts._locate(t1), ts._locate(t0)
    if a == b:
        return 0j
    reverse = b < a  # then the pass from the lower end, negated
    if reverse:
        a, b = b, a
    rule = _STEP_RULES[family]
    total = 0j
    for s, mu in ts.scattered_points(a, b):
        alpha = coeff(s)
        rule.check(s, mu * alpha, "alpha")
        total += rule.log(mu, alpha)
    for c, d in ts.dense_segments(a, b):
        total += dense_piece(coeff, c, d, tol)
    return -1.0 * total if reverse else total


def clipped_pieces(ts: TimeScale, coeff, passed, a: float, b: float, tol: float) -> list:
    """_Terms.pieces as it clipped every passed interval: each interval's
    ends clipped at a and b, the empty pieces dropped, and the rest
    integrated by one Coefficient.dense_integrals call, in order."""
    los = [max(ts._lefts[i], a) for i in passed]
    his = [min(ts._rights[i], b) for i in passed]
    pairs = [(lo, hi) for lo, hi in zip(los, his) if lo < hi]
    return list(coeff.dense_integrals([lo for lo, _ in pairs], [hi for _, hi in pairs], tol))


def reference_exp_point(family: ExpFamily, ts: TimeScale, coeff, t, t0, tol):
    """exp_cayley / exp_hilger as the exp of reference_log_integral_range,
    overflow, or a value that is not finite, a ToleranceError."""
    w = reference_log_integral_range(family, ts, coeff, t0, t, tol)
    try:
        v = cmath.exp(w)
    except OverflowError:
        v = math.inf
    if not cmath.isfinite(v):
        raise ToleranceError(f"exponential overflows at exponent {w!r}")
    return v


# -- slow references for the grid exponent and the solver: one walk record
#    and one step_integral per step, each point located on its own


def dense_piece(coeff, a: float, b: float, tol: float) -> complex:
    """The integral of coeff's dense view over [a, b], inside one closed
    interval: v * (b - a) for a constant dense view v, which is what the
    integral of a constant is, a non-finite one a ToleranceError; adaptive
    Simpson for any other dense view, or for a tol that is not positive,
    which it rejects. + 0j as delta_integral adds its zero jump sum, which
    turns -0.0 into 0.0."""
    v = coeff.dense_value
    if v is None or not tol > 0:
        return _adaptive_simpson(coeff.dense, a, b, tol) + 0j
    w = v * (b - a) + 0j
    if not cmath.isfinite(w):
        raise ToleranceError(f"quadrature overflows on [{a}, {b}]")
    return w


def step_integral(ts: TimeScale, coeff, p: float, q: float, span, tol: float) -> complex:
    """The dense view's delta integral from p to q over one step of
    reference_walk: its dense_piece over the step's span, if it has one,
    else delta_integral, which integrates by adaptive Simpson."""
    if span is None:
        return ts.delta_integral(coeff.dense, p, q, tol)
    return dense_piece(coeff, span[0], span[1], tol)


def reference_step_logs(family: ExpFamily, ts: TimeScale, coeff, points, tol):
    """Exponent increment over each step of reference_walk: a step log at a
    scattered point, the dense view's step_integral over any other step."""
    log = _STEP_RULES[family].log
    for p, q, s, _, span, tt in reference_walk(ts, points):
        if q is None:
            return
        if s > tt:
            if abs(s - q) > 1e-12:
                raise GridError(
                    f"grid skips the forward jump of {p!r}: next sample {q!r}, jump {s!r}"
                )
            yield log(s - p, coeff(p))
        else:
            yield step_integral(ts, coeff, p, q, span, tol)


def reference_grid_log_integrals(family: ExpFamily, ts: TimeScale, coeff, t0, grid: Grid, tol):
    """exponential._grid_log_integrals, unchecked, on reference_step_logs,
    which evaluate the coefficient at every step."""
    pts = grid.points
    _, t0s = ts._locate(t0)
    anchor = grid.index_of(t0s)
    logs = [0j] * len(pts)
    if anchor is None:
        anchor = 0
        logs[0] = _log_integral_range(family, ts, coeff, t0s, pts[0], tol)
    for k, inc in enumerate(reference_step_logs(family, ts, coeff, pts[anchor:], tol), anchor):
        logs[k + 1] = logs[k] + inc
    back = list(reference_step_logs(family, ts, coeff, pts[: anchor + 1], tol))
    for k in range(anchor - 1, -1, -1):
        logs[k] = logs[k + 1] - back[k]
    return logs


def reference_checked_walk(rule, name, ts: TimeScale, coeff, points):
    """reference_walk's records, each scattered step's regressivity checked
    by rule (if it is not None) as the walk reaches it."""
    records = []
    for record in reference_walk(ts, points):
        records.append(record)
        p, q, s, mu, _, tt = record
        if q is not None and s > tt and rule is not None:
            rule.check(p, mu * coeff(p), name)
    return records


def reference_validated_logs(family: ExpFamily, ts: TimeScale, coeff, t0, grid: Grid, tol):
    """exponential._validated_logs on the slow paths: the lower of t0 and
    the first grid point located, then t0; the off-grid stretch
    (reference_log_integral_range); each scattered step of
    reference_checked_walk checked; then reference_grid_log_integrals. A
    constant_only rule's coefficient is checked first."""
    if _STEP_RULES[family].constant_only and not coeff.is_constant:
        raise ValueError("coefficient is not constant")
    pts = grid.points
    ts._locate(min(pts[0], t0))
    _, t0s = ts._locate(t0)
    if grid.index_of(t0s) is None:
        reference_log_integral_range(family, ts, coeff, t0s, pts[0], tol)
    reference_checked_walk(_STEP_RULES[family], "alpha", ts, coeff, pts)
    return reference_grid_log_integrals(family, ts, coeff, t0, grid, tol)


def reference_solve(scheme: Scheme, ts: TimeScale, alpha, x0, t0, grid: Grid, tol=1e-12):
    """dynamic.solve_first_order on reference_walk's records: each scattered
    step's regressivity checked, then each step's factor taken, a record at
    a time."""
    coeff = as_coefficient(alpha)
    rule, name = _SCHEME_RULES[scheme]
    records = reference_checked_walk(rule, name, ts, coeff, grid.points)
    _, t0s = ts._locate(t0)
    anchor = grid.index_of(t0s)
    if anchor is None:
        raise GridError(f"t0={t0!r} must be a grid point")
    pts = grid.points
    values = [0j] * len(pts)
    values[anchor] = complex(x0)

    def factors(records):
        for p, q, s, _, span, tt in records:
            if s > tt:
                if abs(s - q) > 1e-12:
                    raise GridError(
                        f"grid skips the forward jump of {p!r}: next sample {q!r}, jump {s!r}"
                    )
                yield rule.factor(s - p, coeff(p))
            else:
                yield _exp(step_integral(ts, coeff, p, q, span, tol))

    for k, f in enumerate(factors(records[anchor:-1]), anchor):
        values[k + 1] = values[k] * f
    back = list(factors(records[:anchor]))
    for k in range(anchor - 1, -1, -1):
        if back[k] == 0:
            raise RegressivityError("zero step factor cannot be inverted")
        if not cmath.isfinite(back[k]):
            raise ToleranceError(f"step factor {back[k]!r} at t={pts[k]!r} is not finite")
        values[k] = values[k + 1] / back[k]
    if cmath.isfinite(values[anchor]) and not all(map(cmath.isfinite, values)):
        bad = [k for k, v in enumerate(values) if not cmath.isfinite(v)]
        k = next((k for k in bad if k > anchor), bad[-1])
        raise ToleranceError(f"solution overflows at t={pts[k]!r}")
    return SampledFunction(grid, tuple(values))


def reference_product(ts: TimeScale, coeff, t: float, t0: float, tol=1e-12):
    """The degenerate-tolerant forward-step product on the linear scans."""
    _, a = linear_locate(ts, t0)
    _, b = linear_locate(ts, t)
    backward = b < a
    lo, hi = (b, a) if backward else (a, b)
    prod = 1 + 0j
    for s, mu in linear_scattered_points(ts, lo, hi):
        prod *= 1.0 + mu * coeff(s)
    for c, d in linear_dense_segments(ts, lo, hi):
        prod *= cmath.exp(dense_piece(coeff, c, d, tol))
    if backward:
        if prod == 0:
            raise SingularError(
                "cannot evaluate backward through a degenerate (zero) step factor"
            )
        return 1.0 / prod
    return prod


# -- the Cayley trigonometric pair and the convergence study, as written before
#    they were routed through hyp/hyp_grid and _exp_point

# The references' values are real floats; a larger imaginary residue is
# raised, as trig_grid raised it while it combined two exponentials.
_IMAG_RESIDUE_TOL = 1e-13


def _require_real(v: complex, t) -> float:
    if abs(v.imag) >= _IMAG_RESIDUE_TOL:
        raise ToleranceError(
            f"imaginary residue {v.imag!r} at t={t!r} exceeds {_IMAG_RESIDUE_TOL}"
        )
    return v.real


def _log_ratio_zeta(h: float, z: complex) -> complex:
    """transforms.zeta as it was before it dropped the real part of the log
    of a unimodular step factor: that real part is rounding only."""
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
    return _principal_log(num / den) / h


def reference_cayley_phase(ts: TimeScale, omega: float, t0, grid: Grid, tol=1e-12):
    """The phase of the Cayley exponential of 1j*omega at each grid point:
    the imaginary part of the grid fold of the step logs taken with the
    log-ratio zeta, which keeps their rounding in the real part."""
    coeff = Coefficient.constant(1j * float(omega))
    with mock.patch("tscale.transforms.zeta", _log_ratio_zeta):
        logs = _grid_log_integrals(ExpFamily.CAYLEY, ts, coeff, t0, grid, tol)
    return [L.imag for L in logs]


def reference_cayley_trig(ts: TimeScale, omega: float, t, t0, tol=1e-12):
    """trig(CAYLEY, ...) by the direct formula: with e the Cayley exponential
    of 1j*omega and einv the exponential of its negated exponent, the pair
    (e + einv)/2, (e - einv)/2j, each checked for an imaginary residue."""
    coeff = Coefficient.constant(1j * float(omega))
    L = reference_log_integral_range(ExpFamily.CAYLEY, ts, coeff, t0, t, tol)
    e, einv = cmath.exp(L), cmath.exp(-L)
    return _require_real(0.5 * (e + einv), t), _require_real((e - einv) / 2j, t)


def reference_cayley_trig_grid(ts: TimeScale, omega: float, t0, grid: Grid, tol=1e-12):
    """The (cos, sin) values of trig_grid(CAYLEY, ...) by the direct formula,
    the residues checked point by point, cosine first."""
    coeff = Coefficient.constant(1j * float(omega))
    lo, hi = min(grid.points[0], t0), max(grid.points[-1], t0)
    for s, mu in ts.scattered_points(lo, hi):
        _STEP_RULES[ExpFamily.CAYLEY].check(s, mu * coeff(s), "alpha")
    logs = _grid_log_integrals(ExpFamily.CAYLEY, ts, coeff, t0, grid, tol)
    cs, ss = [], []
    for L, p in zip(logs, grid.points):
        e, einv = cmath.exp(L), cmath.exp(-L)
        cs.append(_require_real(0.5 * (e + einv), p))
        ss.append(_require_real((e - einv) / 2j, p))
    return tuple(cs), tuple(ss)


_PAIR_EXP_FAMILY = {
    TrigFamily.HILGER: ExpFamily.HILGER_DELTA,
    TrigFamily.CAYLEY: ExpFamily.CAYLEY,
    TrigFamily.EXACT: ExpFamily.EXACT,
}


def reference_hyp(family: TrigFamily, ts: TimeScale, alpha, t, t0, tol=1e-12):
    """trig.hyp with its own family ladder: the exponentials of t from t0
    through reference_log_integral_range, Bohner-Peterson falling back to
    reference_bp_fold when a factor degenerates. A pair that is not finite
    raises ToleranceError."""
    ch, sh = _reference_pair(family, ts, alpha, t, t0, tol)
    if not (cmath.isfinite(ch) and cmath.isfinite(sh)):
        raise ToleranceError(f"non-finite hyperbolic pair at t={float(t)!r}: ({ch!r}, {sh!r})")
    return ch, sh


def _reference_pair(family: TrigFamily, ts: TimeScale, alpha, t, t0, tol):
    """reference_hyp's half-sum and half-difference, finite or not."""
    e_plus, e_minus = _reference_exps(family, ts, as_coefficient(alpha), t, t0, tol)
    return 0.5 * (e_plus + e_minus), 0.5 * (e_plus - e_minus)


def _reference_exps(family: TrigFamily, ts: TimeScale, coeff, t, t0, tol):
    """The two exponentials that reference_hyp's pair combines."""
    if family is TrigFamily.BOHNER_PETERSON:
        return tuple(_bp_exp(ts, c, t, t0, tol) for c in (coeff, -coeff))
    L = reference_log_integral_range(_PAIR_EXP_FAMILY[family], ts, coeff, t0, t, tol)
    return _exp(L), _exp(-L)


def _bp_exp(ts, coeff, t, t0, tol):
    try:
        L = reference_log_integral_range(ExpFamily.HILGER_DELTA, ts, coeff, t0, t, tol)
        return _exp(L)
    except RegressivityError:
        return reference_bp_fold(ts, coeff, t0, Grid((t,), 1.0), tol)[0]


def reference_bp_fold(ts: TimeScale, coeff, t0, grid: Grid, tol=1e-12):
    """The forward-step exponential on a grid with no regressivity check,
    on the linear scans: reference_grid_log_integrals over the grid points
    up to the first exactly zero step factor, joined by an off-grid t0 and
    the component ends between it and them, and exactly zero above that
    factor. A zero factor below t0 raises."""
    pts = grid.points
    _, t0s = linear_locate(ts, t0)
    lo, hi = min(pts[0], t0s), max(pts[-1], t0s)
    zero = next(
        (s for s, mu in linear_scattered_points(ts, lo, hi) if 1.0 + mu * coeff(s) == 0), None
    )
    if zero is not None and zero < t0s:
        raise SingularError("cannot evaluate backward through a degenerate (zero) step factor")
    kept = [p for p in pts if zero is None or linear_locate(ts, p)[1] <= zero]
    added = []
    if kept and grid.index_of(t0s) is None:
        a, b = linear_locate(ts, kept[0])[1], linear_locate(ts, kept[-1])[1]
        ends = linear_make_grid(ts, min(t0s, a), max(t0s, b), math.inf).points
        added = [x for x in ends if (x < a or x > b) and x != t0s] + [t0s]
    points = sorted(kept + added)
    values = []
    if kept:
        grid = Grid(tuple(points), grid.dense_step)
        logs = reference_grid_log_integrals(ExpFamily.HILGER_DELTA, ts, coeff, t0, grid, tol)
        values = [_exp(L) for x, L in zip(points, logs) if x not in added]
    return tuple(values) + (0j,) * (len(pts) - len(kept))


def reference_trig(family: TrigFamily, ts: TimeScale, omega, t, t0, tol=1e-12):
    """trig.trig with its own family ladder, on reference_hyp's pair,
    finite or not, of an exponential of 1j*omega that is finite (a grid
    exponential raises ToleranceError otherwise); the Hilger pair is the
    exact family's."""
    omega = float(omega)
    if family is TrigFamily.HILGER:
        family = TrigFamily.EXACT
    coeff = Coefficient.constant(1j * omega)
    e_plus, e_minus = _reference_exps(family, ts, coeff, t, t0, tol)
    if not cmath.isfinite(e_plus):
        raise ToleranceError("non-finite exponential value on grid")
    ch, sh = 0.5 * (e_plus + e_minus), 0.5 * (e_plus - e_minus)
    return _require_real(ch, t), _require_real(sh / 1j, t)


def near_anchor(ts: TimeScale, t, t0) -> bool:
    """True when t and t0 are members located apart, yet t lies within the
    membership tolerance of t0's located value, so that a grid holding t
    is anchored at t."""
    try:
        _, a = ts._locate(t0)
        _, b = ts._locate(t)
    except DomainError:
        return False
    return b != a and Grid((t,), 1.0).index_of(a) is not None


def reference_convergence_study(family_name, alpha, target_t, eps_list, tol=1e-12):
    """cli.convergence_study with its four-way ladder over the family name."""
    alpha = complex(alpha)
    exact_value = cmath.exp(alpha * target_t)
    rows = []
    for eps in eps_list:
        k = round(target_t / eps)
        if abs(target_t - k * eps) > 1e-9 or k < 1:
            raise ValueError(
                f"target t={target_t!r} is not a positive integer multiple of eps={eps!r}"
            )
        ts = uniform(0.0, eps, k + 1)
        if family_name == "hilger":
            val = exp_hilger(ts, alpha, target_t, 0.0, tol)
        elif family_name == "cayley":
            val = exp_cayley(ts, alpha, target_t, 0.0, tol)
        elif family_name == "nabla":
            val = exp_nabla_const(eps, alpha, target_t)
        elif family_name == "exact":
            val = exp_exact(alpha, target_t, 0.0)
        else:
            raise ValueError(f"unknown family {family_name!r}")
        rows.append((eps, abs(val - exact_value)))
    return rows


def outcome(fn, *args):
    """A call's value (complex parts, tuples or a grid, as hex where float)
    or its exception (type, message and, for regressivity, the point)."""
    try:
        v = fn(*args)
    except Exception as exc:  # compared, not swallowed
        return type(exc).__name__, str(exc), getattr(exc, "t", None)
    return _hexed(v)


def _hexed(v):
    if isinstance(v, complex):
        return v.real.hex(), v.imag.hex()
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, Grid):
        return _hexed(v.points), v.dense_step.hex()
    if isinstance(v, tuple):
        return tuple(_hexed(x) for x in v)
    return v


# -- the per-point loops of the CSV rows, the grid pairs and the residual
#    reports, as they were before they became C-level maps


def reference_rows_text(points, values) -> str:
    """The CSV text of eval and solve: a header, then one .17g f-string per
    (t, value) row, each line ended by LF."""
    lines = ["t,re,im"]
    lines += [f"{t:.17g},{v.real:.17g},{v.imag:.17g}" for t, v in zip(points, values)]
    return "\n".join(lines) + "\n"


def reference_hyp_grid_values(family: TrigFamily, ts: TimeScale, alpha, t0, grid: Grid, tol=1e-12):
    """trig.hyp_grid's (c_values, s_values), finite or not: the half-sum
    and half-difference, point by point, of its two exponentials, the grid
    exponential and its reciprocal (each log negated point by point) or the
    lenient Bohner-Peterson folds of alpha and -alpha."""
    coeff = as_coefficient(alpha)
    if family is TrigFamily.BOHNER_PETERSON:
        plus = _hilger_grid_lenient(ts, coeff, t0, grid, tol)
        minus = _hilger_grid_lenient(ts, -coeff, t0, grid, tol)
    else:
        logs = _validated_logs(_PAIR_EXP_FAMILY[family], ts, coeff, t0, grid, tol)
        plus, minus = _exps(logs), _exps([-L for L in logs])
    cs = tuple(0.5 * (a + b) for a, b in zip(plus, minus))
    return cs, tuple(0.5 * (a - b) for a, b in zip(plus, minus))


def reference_trig_grid_values(family: TrigFamily, ts: TimeScale, omega, t0, grid: Grid, tol=1e-12):
    """trig.trig_grid's (c_values, s_values): the real and the imaginary
    part, point by point, of the grid exponential of 1j*omega (the exact
    family's for Hilger, the forward-step one for Bohner-Peterson)."""
    exp_family = {
        **_PAIR_EXP_FAMILY,
        TrigFamily.HILGER: ExpFamily.EXACT,
        TrigFamily.BOHNER_PETERSON: ExpFamily.HILGER_DELTA,
    }[family]
    values = exp_evaluate_grid(exp_family, ts, 1j * float(omega), t0, grid, tol).values
    return tuple(v.real for v in values), tuple(v.imag for v in values)


def reference_pythagorean_residuals(kind: TrigKind, c_values, s_values, reference=None):
    """pythagorean_residual's residuals from its pair, point by point: the
    distance of c^2 - s^2 (hyperbolic) or c^2 + s^2 (trigonometric) from
    one, or from each value of the Bohner-Peterson deformation."""
    if kind is TrigKind.HYPERBOLIC:
        squares = [c * c - s * s for c, s in zip(c_values, s_values)]
    else:
        squares = [complex(c * c + s * s) for c, s in zip(c_values, s_values)]
    if reference is None:
        return tuple(abs(q - 1.0) for q in squares)
    return tuple(abs(q - r) for q, r in zip(squares, reference))


def reference_product_law_residuals(ea, eb, eab):
    """The product law's |E_a * E_b - E_(a circle-plus b)| at each point."""
    return tuple(abs(x * y - z) for x, y, z in zip(ea, eb, eab))


def reference_unit_circle_residuals(values):
    """||E| - 1| at each point."""
    return tuple(abs(abs(v) - 1.0) for v in values)


# -- the residual operators as they were before they read one walk's jumps:
#    each finds a point's neighbours again through sigma, rho, in_kappa and
#    Grid.index_of


def reference_average(x: SampledFunction, ts: TimeScale, t: float) -> complex:
    _, tt = ts._locate(t)
    v = x.value_at(tt)
    s = ts.sigma(tt)
    if s == tt:
        return v
    return 0.5 * (v + x.value_at(s))


def reference_double_average(x: SampledFunction, ts: TimeScale, t: float) -> complex:
    _, tt = ts._locate(t)
    s = ts.sigma(tt)
    if s == tt:
        return x.value_at(tt)
    return 0.5 * (reference_average(x, ts, tt) + reference_average(x, ts, s))


def reference_delta_prime(alpha, ts: TimeScale, x: SampledFunction, t: float) -> complex:
    _, tt = ts._locate(t)
    s = ts.sigma(tt)
    if s == tt:
        return _reference_sample_derivative(x, tt)
    mu = s - tt
    d = mu * psi(alpha, mu)
    if d == 0:
        raise SingularError(f"degenerate quotient denominator at t={t!r}")
    return (x.value_at(s) - x.value_at(tt)) / d


def reference_delta_doubleprime(omega, ts: TimeScale, x: SampledFunction, t: float) -> complex:
    omega = float(omega)
    _, tt = ts._locate(t)
    s = ts.sigma(tt)
    if s == tt:
        return _reference_sample_derivative(x, tt)
    mu = s - tt
    if abs(omega * mu) >= math.pi - REGRESSIVITY_MARGIN:
        raise SingularError(f"|omega*mu| = {abs(omega * mu)!r} must stay below pi")
    den = mu * sinc(omega * mu)
    return (x.value_at(s) - x.value_at(tt) * math.cos(omega * mu)) / den


def _reference_sample_derivative(x: SampledFunction, t: float) -> complex:
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


def reference_second_delta(ts: TimeScale, x: SampledFunction, t: float):
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


def reference_oscillator_cayley(ts, param, x, grid, tol=1e-12, kind=TrigKind.TRIGONOMETRIC):
    if grid.points != x.grid.points:
        raise GridError("samples and grid do not align")
    pts, residuals, skipped = [], [], []
    for p in grid.points:
        dd = reference_second_delta(ts, x, p)
        if dd is None:
            skipped.append(p)
            continue
        da = reference_double_average(x, ts, p)
        if kind is TrigKind.TRIGONOMETRIC:
            r = abs(dd + complex(param) ** 2 * da)
        else:
            r = abs(dd - complex(param) ** 2 * da)
        pts.append(p)
        residuals.append(r)
    name = f"oscillator-cayley-{kind.value}"
    return ResidualReport(name, tuple(pts), tuple(residuals), tol, skipped=tuple(skipped))


def reference_oscillator_exact(ts, omega, x, grid, tol=1e-12):
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
        dd = reference_second_delta(ts, x, p)
        if dd is None:
            skipped.append(p)
            continue
        a_form = dd + w2phi2 * reference_double_average(x, ts, p)
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


def reference_delbis(ts, omega, x, grid, tol=1e-12):
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
        rhs = sinc(omega * mu) * reference_delta_doubleprime(omega, ts, x, p) - corr * x.value_at(p)
        pts.append(p)
        residuals.append(abs(lhs - rhs))
    return ResidualReport("delbis", tuple(pts), tuple(residuals), tol, skipped=tuple(skipped))


def reference_derivative_residual(family, kind, ts, param, grid, tol=1e-12, t0=None):
    if family is not TrigFamily.CAYLEY:
        raise ValueError("derivative law residuals are defined for the Cayley family")
    if t0 is None:
        t0 = grid.points[0]
    if kind is TrigKind.HYPERBOLIC:
        coeff = as_coefficient(param)
        pair = hyp_grid(family, ts, coeff, t0, grid, tol)
        a = coeff.constant_value
        c_rhs = lambda avg_c, avg_s: a * avg_s
        s_rhs = lambda avg_c, avg_s: a * avg_c
        pair_at = _memoized(lambda u: hyp(family, ts, coeff, u, t0, tol))
    else:
        w = float(param)
        pair = trig_grid(family, ts, w, t0, grid, tol)
        c_rhs = lambda avg_c, avg_s: -w * avg_s
        s_rhs = lambda avg_c, avg_s: w * avg_c
        pair_at = _memoized(lambda u: trig(family, ts, w, u, t0, tol))
    pts, residuals, skipped = [], [], []
    for i, p in enumerate(grid.points):
        if not ts.in_kappa(p):
            skipped.append(p)
            continue
        s = ts.sigma(p)
        if s > ts._locate(p)[1]:
            j = grid.index_of(s)
            if j is None:
                skipped.append(p)
                continue
            mu = s - p
            dc = (pair.c_values[j] - pair.c_values[i]) / mu
            ds = (pair.s_values[j] - pair.s_values[i]) / mu
            avg_c = 0.5 * (pair.c_values[i] + pair.c_values[j])
            avg_s = 0.5 * (pair.s_values[i] + pair.s_values[j])
        else:
            dc = delta_derivative_numeric(ts, lambda u: pair_at(u)[0], p)
            ds = delta_derivative_numeric(ts, lambda u: pair_at(u)[1], p)
            avg_c, avg_s = pair.c_values[i], pair.s_values[i]
        r = max(abs(dc - c_rhs(avg_c, avg_s)), abs(ds - s_rhs(avg_c, avg_s)))
        pts.append(p)
        residuals.append(r)
    name = f"derivative-{family.value}-{kind.value}"
    return ResidualReport(name, tuple(pts), tuple(residuals), tol, skipped=tuple(skipped))


def reference_sigma_shift_residual(family, ts, coeff, t, from_t0) -> float:
    """check_sigma_shift with E(., t0) given as from_t0."""
    rule = _STEP_RULES.get(family)
    if rule is None or rule.oplus is None:
        raise ValueError("shift law check supports the Cayley and forward-step families")
    _, tt = ts._locate(t)
    factor = rule.factor(ts.mu(tt), coeff(tt))
    et = from_t0(tt)
    es = from_t0(ts.sigma(tt))
    return abs(es - factor * et)


# -- Hypothesis strategies for scales and probe points ------------------------------


@st.composite
def tight_scales(draw, intervals_only=False):
    """Scales whose gaps and interval lengths sit just above the membership
    tolerance, at magnitudes where it is below, near or above one ulp; with
    intervals_only, scales of closed intervals alone."""
    x = draw(
        st.sampled_from([0.0, -3.0, 1.0, 4095.9, 8191.7, 1e4, -1e4])
        | st.floats(min_value=-1e4, max_value=1e4)
    )
    comps = []
    for _ in range(draw(st.integers(1, 8))):
        if comps:
            gap = draw(
                st.floats(min_value=1e-12, max_value=2e-12, exclude_min=True)
                | st.sampled_from([0.25, 1.0])
            )
            lo = x + gap
            # as close as TimeScale accepts: past the tolerance test that
            # _locate accepts a member of the component below with
            after_interval = isinstance(comps[-1], ClosedInterval)
            while not (lo > x + MEMBERSHIP_TOL if after_interval else lo - x > MEMBERSHIP_TOL):
                lo = math.nextafter(lo, math.inf)
            x = lo
        if intervals_only or draw(st.booleans()):
            hi = x + draw(st.sampled_from([1.5e-12, 3e-12, 1e-6, 0.5]))
            while not hi - x > MEMBERSHIP_TOL:
                hi = math.nextafter(hi, math.inf)
            comps.append(ClosedInterval(x, hi))
            x = hi
        else:
            comps.append(IsolatedPoint(x))
    return TimeScale(tuple(comps))


def any_scale():
    """Tight scales and the numpy-drawn random scales."""
    return st.one_of(
        tight_scales(),
        st.integers(0, 2**32 - 1).map(lambda s: random_scale(np.random.default_rng(s))),
    )


@st.composite
def probe_points(draw, ts):
    """Endpoints nudged by up to 1e-12 or a few ulps, gap midpoints (not
    members), arbitrary values around the scale, and non-finite values."""
    ends = [e for c in ts.components for e in (c.left, c.right)]
    e = draw(st.sampled_from(ends))
    kind = draw(st.integers(0, 4))
    if kind == 0:
        return e + draw(st.floats(min_value=-1e-12, max_value=1e-12))
    if kind == 1:
        for _ in range(draw(st.integers(1, 3))):
            e = math.nextafter(e, draw(st.sampled_from([math.inf, -math.inf])))
        return e
    if kind == 2:
        gaps = [
            0.5 * (a.right + b.left) for a, b in zip(ts.components, ts.components[1:])
        ]
        return draw(st.sampled_from(gaps or [ts.sup + 1.0]))
    if kind == 3:
        return draw(st.floats(min_value=ts.inf - 1.0, max_value=ts.sup + 1.0))
    return draw(st.sampled_from([math.inf, -math.inf, math.nan]))
