"""Per-point residual records with a max-norm summary."""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class ResidualReport:
    """Residuals of one identity over grid points.

    points and residuals align; skipped lists points where the identity's
    stencil was unavailable (for example a missing second forward jump).
    reference optionally carries the right-hand side values the residuals
    were measured against, for deformed identities.
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
