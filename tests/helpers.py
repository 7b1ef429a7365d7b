"""Shared scale generators and slow reference paths for randomized tests."""

import math

import numpy as np

from tscale import DomainError, IsolatedPoint, TimeScale, interval, isolated, union
from tscale.timescale import MEMBERSHIP_TOL


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
