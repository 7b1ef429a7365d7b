"""Per-point residual records with a max-norm summary."""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import compress, repeat
from operator import is_not, not_

from .errors import ToleranceError


@dataclass(frozen=True)
class ResidualReport:
    """Residuals of one identity over grid points.

    points and residuals align; skipped lists points where the identity's
    stencil was unavailable (for example a missing second forward jump).
    reference optionally carries the right-hand side values the residuals
    were measured against, for deformed identities. A residual or reference
    value that is not finite raises ToleranceError naming the first point
    that has one.
    """

    identity: str
    points: tuple[float, ...]
    residuals: tuple[float, ...]
    tol: float
    skipped: tuple[float, ...] = ()
    reference: tuple[float, ...] | None = None

    def __post_init__(self):
        if len(self.points) != len(self.residuals):
            raise ValueError("points and residuals must align")
        # a NaN compares false with every residual, so max_residual and
        # passed would read it as no residual at all. A row's sum is a
        # quick test: finite values have a finite sum, unless it overflows,
        # which the scan for the first non-finite value tells apart.
        rows = {"residual": self.residuals}
        if self.reference is not None:
            rows["reference"] = self.reference
        if all(math.isfinite(sum(row)) for row in rows.values()):
            return
        columns = enumerate(zip(*rows.values()))
        k = next((k for k, vs in columns if not all(map(math.isfinite, vs))), None)
        if k is not None:
            values = ", ".join(f"{name} {row[k]!r}" for name, row in rows.items())
            raise ToleranceError(
                f"{self.identity}: non-finite value at t={self.points[k]!r}: {values}"
            )

    @property
    def max_residual(self) -> float:
        return max(self.residuals, default=0.0)

    @property
    def argmax_t(self) -> float | None:
        if not self.residuals:
            return None
        # the first maximal point: no residual is NaN, and -0.0 == 0.0
        return self.points[self.residuals.index(self.max_residual)]

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tol


def collect(identity: str, points, residuals, tol: float) -> ResidualReport:
    """The report of a column of residuals over the points, None where a
    point is skipped."""
    rs = list(residuals)
    kept = list(map(is_not, rs, repeat(None)))
    return ResidualReport(
        identity,
        tuple(compress(points, kept)),
        tuple(compress(rs, kept)),
        tol,
        skipped=tuple(compress(points, map(not_, kept))),
    )
