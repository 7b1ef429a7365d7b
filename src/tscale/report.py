"""Per-point residual records with a max-norm summary."""

from __future__ import annotations

import math
from dataclasses import dataclass

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
        k = max(range(len(self.residuals)), key=lambda i: self.residuals[i])
        return self.points[k]

    @property
    def passed(self) -> bool:
        return self.max_residual < self.tol


def collect(identity: str, points, residual, tol: float) -> ResidualReport:
    """The report of residual(k) over the points, skipping point k where
    it is None."""
    pts, residuals, skipped = [], [], []
    for k, p in enumerate(points):
        r = residual(k)
        if r is None:
            skipped.append(p)
        else:
            pts.append(p)
            residuals.append(r)
    return ResidualReport(identity, tuple(pts), tuple(residuals), tol, skipped=tuple(skipped))
