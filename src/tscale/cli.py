"""Command-line front end.

Subcommands: eval (sample an exponential family on a grid), solve (march a
first-order scheme), identity (residual checks, JSON report), converge
(error-vs-step study with a fitted slope). Output is deterministic:
identical configurations produce byte-identical CSV or JSON, with a dot
decimal separator, 17 significant digits and LF line endings.

Exit codes: 0 success or identity pass, 1 identity fail, 2 regressivity
failure, 3 parse or configuration error (non-finite alpha, beta, omega or
t0, a non-finite or non-positive tol or dense-step, and a family the
identity does not accept, included), 4 internal tolerance failure or
float overflow.
"""

from __future__ import annotations

import argparse
import cmath
import functools
import json
import math
import re
import sys
from dataclasses import dataclass, field, replace
from itertools import chain, repeat
from operator import add, attrgetter, mul, sub

from .errors import DomainError, OverlapError, ParseError, RegressivityError, TscaleError
from .timescale import (
    ClosedInterval,
    Grid,
    IsolatedPoint,
    TimeScale,
    _Jumps,
    _of_values,
    _points,
    _uniform_scale,
    _uniform_values,
    normalize_components,
)
from .transforms import _graininess_only, as_coefficient, graininess_coefficient
from .exponential import (
    _STEP_RULES,
    ExpFamily,
    _exp_point,
    _exp_runs,
    _memoized,
    _semigroup_residual,
    _sigma_shift_residual,
    exp_evaluate_grid,
    exp_exact,
    exp_nabla_const,
)
from .trig import TrigFamily, TrigKind, pythagorean_residual, trig_grid
from .dynamic import (
    SampledFunction,
    Scheme,
    _oscillator_cayley,
    delbis_relation_residual,
    oscillator_residual_exact,
    solve_first_order,
)
from .report import ResidualReport, collect

SCHEMA = "tscale/1"

EXIT_OK = 0
EXIT_IDENTITY_FAIL = 1
EXIT_REGRESSIVITY = 2
EXIT_CONFIG = 3
EXIT_TOLERANCE = 4

# -- scale-spec mini language -------------------------------------------------------

_UNSIGNED = r"(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?"
_NUMBER = re.compile(rf"[-+]?{_UNSIGNED}")
_NAME = re.compile(r"[a-z]+")


class _Scanner:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def _coords(self, pos: int) -> tuple[int, int]:
        before = self.text[:pos]
        line = before.count("\n") + 1
        column = pos - (before.rfind("\n") + 1) + 1
        return line, column

    def fail(self, message: str, pos: int | None = None):
        line, column = self._coords(self.pos if pos is None else pos)
        raise ParseError(message, line, column)

    def skip_ws(self):
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def at_end(self) -> bool:
        self.skip_ws()
        return self.pos >= len(self.text)

    def expect(self, ch: str):
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            self.fail(f"expected {ch!r}")
        self.pos += 1

    def peek(self, ch: str) -> bool:
        self.skip_ws()
        return self.pos < len(self.text) and self.text[self.pos] == ch

    def name(self) -> str:
        self.skip_ws()
        m = _NAME.match(self.text, self.pos)
        if not m:
            self.fail("expected a term name (interval, points or uniform)")
        self.pos = m.end()
        return m.group(0)

    def number(self) -> float:
        self.skip_ws()
        m = _NUMBER.match(self.text, self.pos)
        if not m:
            self.fail("expected a number")
        self.pos = m.end()
        return float(m.group(0))


def parse_scale(text: str) -> TimeScale:
    """Parse 'interval(a,b) + points(p,...) + uniform(start,step,count)' text.

    Components are normalized: sorted, merged when touching. Intersecting
    or duplicate components raise OverlapError; malformed text raises
    ParseError with the source position. A lone uniform term is made by
    timescale._uniform_scale, with no gap scanned where its step proves
    the points valid.
    """
    sc = _Scanner(text)
    # (name, term): an interval, a points term's values, or a uniform
    # term's (start, step, count), whose values are made once all parse
    terms: list = []
    if sc.at_end():
        sc.fail("empty scale spec")
    while True:
        terms.append(_parse_term(sc))
        if sc.at_end():
            break
        sc.expect("+")
        if sc.at_end():
            sc.fail("dangling '+'")
    try:
        if len(terms) == 1 and terms[0][0] == "uniform":
            return _uniform_scale(*terms[0][1], normalize=True)
        terms = [_uniform_values(*t) if name == "uniform" else t for name, t in terms]
        if not any(isinstance(t, ClosedInterval) for t in terms):
            return _of_values(tuple(chain.from_iterable(terms)), normalize=True)
        comps = ((t,) if isinstance(t, ClosedInterval) else _points(t) for t in terms)
        return TimeScale(normalize_components(chain.from_iterable(comps)))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


def _parse_term(sc: _Scanner) -> tuple[str, ClosedInterval | tuple]:
    start = sc.pos
    name = sc.name()
    sc.expect("(")
    if name == "interval":
        lo = sc.number()
        sc.expect(",")
        hi = sc.number()
        sc.expect(")")
        if not hi > lo:
            sc.fail(f"interval needs lo < hi, got ({lo!r}, {hi!r})", start)
        return name, ClosedInterval(lo, hi)
    if name == "points":
        vals = [sc.number()]
        while sc.peek(","):
            sc.expect(",")
            vals.append(sc.number())
        sc.expect(")")
        return name, tuple(vals)
    if name == "uniform":
        first = sc.number()
        sc.expect(",")
        step = sc.number()
        sc.expect(",")
        count = sc.number()
        sc.expect(")")
        if not count.is_integer() or count < 1:
            sc.fail(f"uniform count must be a positive integer, got {count!r}", start)
        if step <= 0:
            sc.fail(f"uniform step must be positive, got {step!r}", start)
        return name, (first, step, int(count))
    sc.fail(f"unknown term {name!r}", start)


def render(ts: TimeScale) -> str:
    """Scale-spec text that parses back to an identical scale."""
    parts: list[str] = []
    run: list[float] = []
    for c in ts.components:
        if isinstance(c, IsolatedPoint):
            run.append(c.t)
            continue
        if run:
            parts.append("points(" + ",".join(repr(v) for v in run) + ")")
            run = []
        parts.append(f"interval({c.lo!r},{c.hi!r})")
    if run:
        parts.append("points(" + ",".join(repr(v) for v in run) + ")")
    return " + ".join(parts)


# -- configuration ---------------------------------------------------------------------


@dataclass
class RunConfig:
    command: str
    scale: str | None = None
    family: str = "cayley"
    scheme: str = "trapezoidal"
    identity: str = "pythagorean"
    kind: str = "trig"
    alpha: complex = 1.0 + 0j
    beta: complex = 0.5 + 0j
    omega: float = 1.0
    x0: complex = 1.0 + 0j
    t0: float = 0.0
    range_: tuple[float, float] | None = None
    dense_step: float = 0.1
    tol: float = 1e-12
    fmt: str = "csv"
    out: str | None = None
    target_t: float = 1.0
    eps_list: tuple[float, ...] = field(
        default_factory=lambda: tuple(2.0 ** -k for k in range(1, 11))
    )

    def validate(self):
        for name, value in (("tol", self.tol), ("dense-step", self.dense_step)):
            if value <= 0:
                raise ValueError(f"{name} must be positive")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"unknown format {self.fmt!r}")
        for name in ("alpha", "beta", "omega", "t0"):
            value = getattr(self, name)
            if not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")


# The command-line names are the enums' values.
_EXP_FAMILIES = {family.value: family for family in ExpFamily}
_TRIG_FAMILIES = {family.value: family for family in TrigFamily}
_LAW_FAMILIES = {f.value: f for f, rule in _STEP_RULES.items() if rule.oplus is not None}
_SCHEMES = {scheme.value: scheme for scheme in Scheme}


def _identity_family(config: RunConfig, families: dict | None):
    """The family named by --family, among those the identity accepts; None
    for an identity that reads no family."""
    if families is None:
        return None
    if config.family not in families:
        raise ValueError(
            f"--family {config.family!r} is not accepted by identity {config.identity}; "
            f"choose from {', '.join(sorted(families))}"
        )
    return families[config.family]


def _scale_and_grid(config: RunConfig) -> tuple[TimeScale, Grid]:
    if not config.scale:
        raise ValueError("--scale is required")
    ts = parse_scale(config.scale)
    a, b = config.range_ if config.range_ is not None else (ts.inf, ts.sup)
    return ts, ts.make_grid(a, b, config.dense_step)


def _fmt17(v: float) -> str:
    return f"{v:.17g}"


def _csv(lines: list[str]) -> str:
    return "\n".join(lines) + "\n"


def _json_text(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def _rows_text(config: RunConfig, header: dict, points, values) -> str:
    """The (t, value) rows of eval and solve: CSV, or JSON with header.

    The CSV rows are one %-format of a row template repeated per point
    over one flat tuple of cells, the same bytes as a .17g format per cell.
    """
    if config.fmt == "json":
        rows = [{"t": t, "re": v.real, "im": v.imag} for t, v in zip(points, values)]
        return _json_text({"schema": SCHEMA, **header, "rows": rows})
    rows = zip(points, map(attrgetter("real"), values), map(attrgetter("imag"), values))
    cells = tuple(chain.from_iterable(rows))
    return "t,re,im\n" + "%.17g,%.17g,%.17g\n" * (len(cells) // 3) % cells


def fit_loglog_slope(xs, ys) -> float:
    """Least-squares slope of log(y) against log(x), ignoring zero errors."""
    pts = [(math.log(x), math.log(y)) for x, y in zip(xs, ys) if y > 0]
    if len(pts) < 2:
        return 0.0
    n = len(pts)
    mx = sum(p[0] for p in pts) / n
    my = sum(p[1] for p in pts) / n
    sxx = sum((p[0] - mx) ** 2 for p in pts)
    sxy = sum((p[0] - mx) * (p[1] - my) for p in pts)
    return sxy / sxx


# -- commands -------------------------------------------------------------------------


def cmd_eval(config: RunConfig) -> tuple[int, str]:
    config.validate()
    ts, grid = _scale_and_grid(config)
    family = _EXP_FAMILIES[config.family]
    ev = exp_evaluate_grid(family, ts, config.alpha, config.t0, grid, config.tol)
    header = {"command": "eval", "family": config.family}
    return EXIT_OK, _rows_text(config, header, grid.points, ev.values)


def cmd_solve(config: RunConfig) -> tuple[int, str]:
    config.validate()
    ts, grid = _scale_and_grid(config)
    scheme = _SCHEMES[config.scheme]
    t0 = config.t0 if grid.index_of(config.t0) is not None else grid.points[0]
    x = solve_first_order(scheme, ts, config.alpha, config.x0, t0, grid, config.tol)
    header = {"command": "solve", "scheme": config.scheme}
    return EXIT_OK, _rows_text(config, header, grid.points, x.values)


def cmd_identity(config: RunConfig) -> tuple[int, str]:
    """Run one identity through its row of _IDENTITIES, the single list of
    identities and of the families each accepts."""
    config.validate()
    if config.identity not in _IDENTITIES:
        raise ValueError(f"unknown identity {config.identity!r}")
    build, families = _IDENTITIES[config.identity]
    ts, grid = _scale_and_grid(config)
    family = _identity_family(config, families)
    report, extra = build(config, ts, grid, family)
    payload = {
        "schema": SCHEMA,
        "identity": config.identity,
        "max_residual": report.max_residual,
        "argmax_t": report.argmax_t,
        "pass": report.passed,
        "n_points": len(report.points),
        "n_skipped": len(report.skipped),
        **extra,
    }
    code = EXIT_OK if report.passed else EXIT_IDENTITY_FAIL
    return code, _json_text(payload)


# Identity report builders: (config, ts, grid, family) -> (ResidualReport,
# extra JSON fields), family being None for an identity that reads none.


def _pythagorean_report(config, ts, grid, family):
    hyperbolic = config.kind == "hyp"
    kind = TrigKind.HYPERBOLIC if hyperbolic else TrigKind.TRIGONOMETRIC
    param = config.alpha if hyperbolic else config.omega
    report = pythagorean_residual(family, kind, ts, param, grid, config.tol)
    extra = {} if report.reference is None else {"reference": list(report.reference)}
    return report, extra


def _semigroup_report(config, ts, grid, family):
    """check_semigroup over every pair t_j <= t_i of grid points, t1 the
    first, in the order of a loop of per-pair checks. E(., t_j) runs from
    each t_j along the rows (_exp_runs), and each E(x, t1) is computed
    once per report."""
    exp_from = _exp_runs(family, ts, as_coefficient(config.alpha), config.tol)
    from_t1 = _memoized(exp_from(grid.points[0]))
    from_anchors, residuals = [], []
    for t in grid.points:
        from_anchors.append(exp_from(t))
        worst = 0.0
        for from_tj, tj in zip(from_anchors, grid.points):
            worst = max(worst, _semigroup_residual(from_tj, from_t1, t, tj))
        residuals.append(worst)
    return ResidualReport("semigroup", grid.points, tuple(residuals), config.tol), {}


def _sigma_shift_report(config, ts, grid, family):
    """check_sigma_shift at every grid point in the differentiation domain,
    t0 the first; each E(x, t0) is computed once, along one run from t0."""
    coeff = as_coefficient(config.alpha)
    from_t0 = _memoized(_exp_runs(family, ts, coeff, config.tol)(grid.points[0]))
    jumps = _Jumps(ts, grid.points, grid)

    def residual(k):
        jumps.check(k)
        if jumps.mu[k] is None:
            return None
        return _sigma_shift_residual(family, coeff, jumps, k, from_t0)

    residuals = map(residual, range(len(grid.points)))
    return collect("sigma-shift", grid.points, residuals, config.tol), {}


def _product_law_report(config, ts, grid, family):
    a, b = config.alpha, config.beta
    t0 = grid.points[0]
    ea = exp_evaluate_grid(family, ts, a, t0, grid, config.tol)
    eb = exp_evaluate_grid(family, ts, b, t0, grid, config.tol)
    oplus = _STEP_RULES[family].oplus
    # the dense view is constant: its quadrature calls no integrand
    combo = graininess_coefficient(ts, lambda mu, s: oplus(mu, a, b), oplus(0.0, a, b))
    eab = exp_evaluate_grid(family, ts, _graininess_only(combo), t0, grid, config.tol)
    residuals = tuple(map(abs, map(sub, map(mul, ea.values, eb.values), eab.values)))
    return ResidualReport("product-law", grid.points, residuals, config.tol), {}


def _unit_circle_report(config, ts, grid, family):
    ev = exp_evaluate_grid(
        ExpFamily.CAYLEY, ts, 1j * config.omega, grid.points[0], grid, config.tol
    )
    residuals = tuple(map(abs, map(sub, map(abs, ev.values), repeat(1.0))))
    return ResidualReport("unit-circle", grid.points, residuals, config.tol), {}


def _oscillator_cayley_report(config, ts, grid, family):
    omega = config.omega
    pair = trig_grid(TrigFamily.CAYLEY, ts, omega, grid.points[0], grid, config.tol)
    jumps = _Jumps(ts, grid.points, grid)  # one walk for both passes
    rep_c, rep_s = (
        _oscillator_cayley(jumps, omega, SampledFunction(grid, v), config.tol)
        for v in (pair.c_values, pair.s_values)
    )
    residuals = tuple(map(max, rep_c.residuals, rep_s.residuals))
    return replace(rep_c, identity="oscillator-cayley", residuals=residuals), {}


def _oscillator_exact_report(config, ts, grid, family):
    omega = config.omega
    x = SampledFunction(grid, tuple(map(math.sin, map(mul, repeat(omega), grid.points))))
    result = oscillator_residual_exact(ts, omega, x, grid, config.tol)
    # pass requires both forms and their mutual agreement below tol
    phi, sinc = result.phi_form.residuals, result.sinc_form.residuals
    residuals = tuple(map(max, phi, sinc, repeat(result.form_agreement)))
    report = replace(result.phi_form, identity="oscillator-exact", residuals=residuals)
    extra = {
        "phi_form_max": result.phi_form.max_residual,
        "sinc_form_max": result.sinc_form.max_residual,
        "form_agreement": result.form_agreement,
    }
    return report, extra


def _delbis_report(config, ts, grid, family):
    # sin(t) + 0.5 * cos(2.0 * t) + 0.25 * t, in that order of operations
    pts = grid.points
    waves = map(mul, repeat(0.5), map(math.cos, map(mul, repeat(2.0), pts)))
    ramp = map(mul, repeat(0.25), pts)
    x = SampledFunction(grid, tuple(map(add, map(add, map(math.sin, pts), waves), ramp)))
    return delbis_relation_residual(ts, config.omega, x, grid, config.tol), {}


# The single list of identities, in --help order: each name's report builder
# and the --family names it accepts, or None when it reads no family. The
# shift law steps by the family's step factor and the product law combines
# exponents with its circle-plus: both accept the families whose rule has one.
_IDENTITIES = {
    "pythagorean": (_pythagorean_report, _TRIG_FAMILIES),
    "semigroup": (_semigroup_report, _EXP_FAMILIES),
    "sigma-shift": (_sigma_shift_report, _LAW_FAMILIES),
    "product-law": (_product_law_report, _LAW_FAMILIES),
    "unit-circle": (_unit_circle_report, None),
    "oscillator-cayley": (_oscillator_cayley_report, None),
    "oscillator-exact": (_oscillator_exact_report, None),
    "delbis": (_delbis_report, None),
}


def cmd_converge(config: RunConfig) -> tuple[int, str]:
    config.validate()
    rows = convergence_study(
        config.family, config.alpha, config.target_t, config.eps_list, config.tol
    )
    errs = [e for _, e in rows]
    tail = rows[-5:] if len(rows) >= 5 else rows
    slope = fit_loglog_slope([x for x, _ in tail], [y for _, y in tail])
    if config.fmt == "json":
        return EXIT_OK, _json_text(
            {
                "schema": SCHEMA,
                "command": "converge",
                "family": config.family,
                "rows": [{"eps": x, "error": y} for x, y in rows],
                "slope": slope,
            }
        )
    lines = ["eps,error,slope"]
    lines += [f"{_fmt17(x)},{_fmt17(y)},{_fmt17(slope)}" for x, y in rows]
    return EXIT_OK, _csv(lines)


def convergence_study(family_name, alpha, target_t, eps_list, tol=1e-12):
    """Error of one family against the continuum exponential at target_t.

    For each step eps, target_t must be an integer multiple of eps. The
    forward-step and Cayley families are evaluated on the uniform discrete
    scale covering [0, target_t]; the backward-step and exact families take
    their closed forms, with eps itself and no step, so neither builds one.
    """
    from .timescale import uniform as uniform_scale

    if family_name not in _EXP_FAMILIES:
        raise ValueError(f"unknown family {family_name!r}")
    family = _EXP_FAMILIES[family_name]
    alpha = complex(alpha)
    exact_value = cmath.exp(alpha * target_t)
    rows = []
    for eps in eps_list:
        k = round(target_t / eps)
        if abs(target_t - k * eps) > 1e-9 or k < 1:
            raise ValueError(
                f"target t={target_t!r} is not a positive integer multiple of eps={eps!r}"
            )
        if family is ExpFamily.NABLA_CONST:
            # the step is eps: a scale's gaps would carry the rounding of k*eps
            val = exp_nabla_const(eps, alpha, target_t)
        elif family is ExpFamily.EXACT:
            val = exp_exact(alpha, target_t, 0.0)
        else:
            ts = uniform_scale(0.0, eps, k + 1)
            val = _exp_point(family, ts, alpha, target_t, 0.0, tol)
        rows.append((eps, abs(val - exact_value)))
    return rows


# -- argument parsing -------------------------------------------------------------------


# A number, or a pair such as re,im or a,b, that starts with '-'.
_NEGATIVE_VALUE = re.compile(rf"-{_UNSIGNED}(?:,[-+]?{_UNSIGNED})?\Z")


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse takes any other word starting with '-' for an option, so
        # "--t0 -1e-3" or "--alpha -0.5,0.25" would lose their value
        self._negative_number_matcher = _NEGATIVE_VALUE

    def error(self, message):  # keep exit-code policy in main()
        raise ValueError(message)


def _floats(text: str, count: int, syntax: str) -> list[float]:
    """The count comma-separated numbers of text. argparse prints the
    message of an ArgumentTypeError, and only the type's name for any
    other error, so a malformed value names the syntax."""
    try:
        values = [float(part) for part in text.split(",")]
    except ValueError:
        values = []
    if len(values) != count:
        raise argparse.ArgumentTypeError(f"expected {syntax}, got {text!r}")
    return values


def _complex_arg(text: str) -> complex:
    if "," not in text:
        return complex(*_floats(text, 1, "re or re,im"), 0.0)
    return complex(*_floats(text, 2, "re or re,im"))


def _range_arg(text: str) -> tuple[float, float]:
    a, b = _floats(text, 2, "a,b")
    return a, b


def _eps_list_arg(text: str) -> tuple[float, ...]:
    vals = tuple(float(p) for p in text.split(","))
    if not vals or any(v <= 0 for v in vals):
        raise ValueError("eps list must be positive numbers")
    return vals


def _add_common(p: _Parser):
    p.add_argument("--scale", help="scale spec, e.g. 'interval(0,1) + points(2)'")
    p.add_argument("--t0", type=float)
    p.add_argument("--range", dest="range_", type=_range_arg)
    p.add_argument("--dense-step", dest="dense_step", type=float)
    _add_output(p)


def _add_output(p: _Parser):
    p.add_argument("--tol", type=float)
    p.add_argument("--format", dest="fmt", choices=("csv", "json"))
    p.add_argument("--out")


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process: parse_args reads it
    and changes none of its state, so every call can share it."""
    parser = _Parser(prog="tscale", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    # every default lives in RunConfig: an omitted option sets no attribute
    def add_command(name, summary):
        return sub.add_parser(name, help=summary, argument_default=argparse.SUPPRESS)

    p = add_command("eval", "sample an exponential family on a grid")
    _add_common(p)
    p.add_argument("--family", choices=sorted(_EXP_FAMILIES))
    p.add_argument("--alpha", type=_complex_arg)

    p = add_command("solve", "march a first-order scheme along the grid")
    _add_common(p)
    p.add_argument("--scheme", choices=sorted(_SCHEMES))
    p.add_argument("--alpha", type=_complex_arg)
    p.add_argument("--x0", type=_complex_arg)

    p = add_command("identity", "run one identity check, emit a JSON report")
    _add_common(p)
    p.add_argument("--identity", choices=_IDENTITIES, required=True)
    p.add_argument("--family")
    p.add_argument("--kind", choices=("trig", "hyp"))
    p.add_argument("--alpha", type=_complex_arg)
    p.add_argument("--beta", type=_complex_arg)
    p.add_argument("--omega", type=float)

    p = add_command("converge", "error against the continuum exponential")
    p.add_argument("--family", choices=sorted(_EXP_FAMILIES))
    p.add_argument("--alpha", type=_complex_arg)
    p.add_argument("--target-t", dest="target_t", type=float)
    p.add_argument("--eps-list", dest="eps_list", type=_eps_list_arg)
    _add_output(p)
    return parser


_COMMANDS = {
    "eval": cmd_eval,
    "solve": cmd_solve,
    "identity": cmd_identity,
    "converge": cmd_converge,
}


def main(argv=None) -> int:
    try:
        config = RunConfig(**vars(build_parser().parse_args(argv)))
        code, text = _COMMANDS[config.command](config)
    except (ParseError, OverlapError, ValueError, DomainError) as exc:
        print(f"tscale: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except RegressivityError as exc:
        print(f"tscale: regressivity failure: {exc}", file=sys.stderr)
        return EXIT_REGRESSIVITY
    except TscaleError as exc:
        print(f"tscale: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    except OverflowError as exc:  # from a site that raises no ToleranceError of its own
        print(f"tscale: numeric overflow: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    if config.out:
        with open(config.out, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return code


if __name__ == "__main__":
    raise SystemExit(main())
