import hashlib
import json
import math
import os
import subprocess
import sys
from unittest import mock

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

import tscale
from tscale import cli, timescale, transforms

from tscale import (
    ClosedInterval,
    IsolatedPoint,
    OverlapError,
    ParseError,
    TimeScale,
    ToleranceError,
    check_semigroup,
    check_sigma_shift,
    interval,
    isolated,
    parse_scale,
    render,
    uniform,
    union,
)
from tscale.cli import (
    EXIT_CONFIG,
    EXIT_IDENTITY_FAIL,
    EXIT_OK,
    EXIT_REGRESSIVITY,
    EXIT_TOLERANCE,
    convergence_study,
    fit_loglog_slope,
    main,
)
from tscale.report import ResidualReport
from tscale.timescale import MEMBERSHIP_TOL

from helpers import (
    outcome,
    reference_convergence_study,
    reference_product_law_residuals,
    reference_rows_text,
    reference_unit_circle_residuals,
)


# -- scale-spec parsing --------------------------------------------------------


def test_parse_interval_plus_point():
    ts = parse_scale("interval(0,1) + points(2)")
    assert ts.components == (ClosedInterval(0.0, 1.0), IsolatedPoint(2.0))


def test_parse_uniform():
    ts = parse_scale("uniform(0,0.5,5)")
    assert ts.components == tuple(IsolatedPoint(0.5 * k) for k in range(5))


_STARTS = st.sampled_from([0.0, -0.0, 1e4, -1e4, 5e-324, 0.1]) | st.floats(-1e6, 1e6)
_STEPS = st.sampled_from([1e-3, 0.1, 0.25, 2.0**-17]) | st.floats(1e-6, 1e3)


@given(_STARTS, _STEPS, st.integers(1, 300))
def test_parsed_uniform_term_is_timescale_uniform(start, step, count):
    """The uniform term and timescale.uniform make the same points, bit for
    bit (repr tells -0.0 from 0.0)."""
    ts = parse_scale(f"uniform({start!r},{step!r},{count})")
    assert repr(ts.components) == repr(uniform(start, step, count).components)


@given(st.lists(_STARTS, min_size=1, max_size=30, unique=True))
def test_parsed_points_term_is_timescale_isolated(values):
    """The points term and timescale.isolated make the same points, bit
    for bit, in any order of the values."""
    ordered = sorted(values)
    assume(all(b - a > 1e-9 for a, b in zip(ordered, ordered[1:])))
    ts = parse_scale("points(" + ",".join(map(repr, values)) + ")")
    assert repr(ts.components) == repr(isolated(*values).components)


def _parse_twice(values):
    """The scale of a points term as normalize_components and then
    construction made it, each reading the values and testing each gap."""
    try:
        return TimeScale(timescale.normalize_components(timescale._points(values)))
    except ValueError as exc:
        raise ParseError(str(exc)) from exc


@given(
    st.lists(
        st.sampled_from([0.0, 1e-12, 2e-12, 0.1, 0.10000000000100001, 0.3, 1e4, 1e4 + 2e-12, -1.0]),
        min_size=1,
        max_size=6,
    )
)
def test_parse_reads_a_point_scale_once_with_the_same_errors(values):
    """The points term, read once, makes the scale, or raises the error,
    that normalize_components and then construction made or raised, bit
    for bit, on values in and out of order, duplicated, within the
    tolerance and an ulp either side of it."""
    text = "points(" + ",".join(map(repr, values)) + ")"
    want = outcome(lambda: repr(_parse_twice(values)))
    assert outcome(lambda: repr(parse_scale(text))) == want


def test_parse_reads_the_values_of_ordered_points_once(monkeypatch):
    calls = []
    read = timescale._point_values
    monkeypatch.setattr(timescale, "_point_values", lambda comps: calls.append(1) or read(comps))
    ts = parse_scale("uniform(0,1e-3,1000)")
    assert calls == []
    monkeypatch.undo()
    assert vars(ts) == vars(uniform(0, 1e-3, 1000))
    # an ulp from the tolerance the two gap tests disagree: b - a > tol
    # passes construction, and a + tol < b fails the order test, whose
    # merge loop keeps two isolated points apart, as construction does
    pair = (0.1, 0.10000000000100001)
    assert pair[1] - pair[0] > MEMBERSHIP_TOL and not pair[0] + MEMBERSHIP_TOL < pair[1]
    ts = parse_scale("points(0.1,0.10000000000100001)")
    assert ts == isolated(*pair) and ts.components == tuple(map(IsolatedPoint, pair))


def test_parse_duplicate_point_is_overlap():
    with pytest.raises(OverlapError):
        parse_scale("points(1,1)")


def test_parse_rejects_intersecting_intervals():
    with pytest.raises(OverlapError):
        parse_scale("interval(0,1) + interval(0.5,2)")
    with pytest.raises(OverlapError):
        parse_scale("interval(0,1) + points(0.5)")


def test_parse_merges_touching_components():
    ts = parse_scale("interval(0,1) + interval(1,2)")
    assert ts.components == (ClosedInterval(0.0, 2.0),)
    ts = parse_scale("points(1) + interval(0,1)")
    assert ts.components == (ClosedInterval(0.0, 1.0),)


def test_parse_sorts_terms():
    ts = parse_scale("points(5) + interval(0,1)")
    assert ts.components == (ClosedInterval(0.0, 1.0), IsolatedPoint(5.0))


def test_parse_error_carries_position():
    with pytest.raises(ParseError) as err:
        parse_scale("interval(0,1) + bogus(2)")
    assert err.value.line == 1
    assert err.value.column == 17
    with pytest.raises(ParseError):
        parse_scale("interval(0 1)")
    with pytest.raises(ParseError):
        parse_scale("")
    with pytest.raises(ParseError):
        parse_scale("interval(0,1) +")
    with pytest.raises(ParseError):
        parse_scale("uniform(0,0.5,0)")
    with pytest.raises(ParseError):
        parse_scale("interval(3,1)")


@pytest.mark.parametrize(
    "spec, count",
    [
        ("uniform(0,1,1e400)", "inf"),
        ("uniform(0,1,-1e400)", "-inf"),
        ("uniform(0,1,1e400)+points(9)", "inf"),
        ("uniform(0,1,2.5)", "2.5"),
    ],
)
def test_a_uniform_count_that_is_no_positive_integer_is_a_config_error(capsys, spec, count):
    # an infinite count overflowed int() and exited 4 as a numeric overflow
    assert main(["eval", "--scale", spec]) == EXIT_CONFIG
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"tscale: uniform count must be a positive integer, got {count} (line 1, column 1)\n"


@pytest.mark.parametrize(
    "ts",
    [
        interval(0, 1),
        isolated(-3.0, 0.1, 7.25),
        uniform(0, 0.125, 9),
        union(interval(-2.5, -1.0), isolated(0.3), interval(1.0, 4.0)),
        isolated(1e-3, 2.5e6),
    ],
)
def test_render_parse_roundtrip(ts):
    assert parse_scale(render(ts)) == ts


# -- eval and solve -------------------------------------------------------------


def test_cmd_eval_csv(capsys):
    code = main(
        ["eval", "--scale", "uniform(0,1,4)", "--family", "cayley", "--alpha", "1"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "t,re,im"
    assert lines[1] == "0,1,0"
    assert lines[2].startswith("1,3") and lines[2].endswith(",0")
    assert lines[4].startswith("3,27")


def test_cmd_eval_exact_zero_coefficient(capsys):
    code = main(["eval", "--scale", "uniform(0,1,4)", "--family", "exact", "--alpha", "0"])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    for row in out.splitlines()[1:]:
        assert row.endswith(",1,0")


def test_cmd_eval_regressivity_exit(capsys):
    code = main(
        ["eval", "--scale", "uniform(0,1,4)", "--family", "hilger", "--alpha=-1"]
    )
    assert code == EXIT_REGRESSIVITY


def test_cmd_eval_parse_failure_exit(capsys):
    assert main(["eval", "--scale", "points(1,1)"]) == EXIT_CONFIG
    assert main(["eval", "--scale", "nope(1)"]) == EXIT_CONFIG
    assert main(["eval"]) == EXIT_CONFIG


@pytest.mark.parametrize(
    "option, value, message",
    [
        ("--alpha=2.5j", "", "argument --alpha: expected re or re,im, got '2.5j'"),
        ("--alpha", "1,2,3", "argument --alpha: expected re or re,im, got '1,2,3'"),
        ("--x0", "1,x", "argument --x0: expected re or re,im, got '1,x'"),
        ("--range", "0.5", "argument --range: expected a,b, got '0.5'"),
    ],
)
def test_malformed_values_name_their_syntax(capsys, option, value, message):
    argv = ["solve", "--scale", "uniform(0,0.5,12)", option] + ([value] if value else [])
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"tscale: {message}\n"


@pytest.mark.parametrize("value", ["abc", "0.5,-1", "0.5,,0.25", "1e-400", "0", "nan", "0.5,inf"])
def test_malformed_eps_lists_name_their_syntax(capsys, value):
    """A step list that is not positive finite numbers, each above zero
    once read as a float, names the syntax, not the parsing function."""
    assert main(["converge", "--eps-list", value]) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"tscale: argument --eps-list: expected comma-separated positive finite steps, "
        f"got {value!r}\n"
    )


@pytest.mark.parametrize(
    "argv, option, value",
    [
        (["eval", "--scale", "interval(-1,1)", "--dense-step", "0.5"], "--alpha", "-0.5,0.25"),
        (["eval", "--scale", "interval(-1,1)", "--dense-step", "0.5"], "--alpha", "-1"),
        (["solve", "--scale", "interval(-1,1)", "--dense-step", "0.5"], "--alpha", "0.5,-2e-1"),
        (["eval", "--scale", "uniform(-0.002,0.001,5)"], "--t0", "-1e-3"),
        (["eval", "--scale", "interval(-2,2)", "--dense-step", "0.5"], "--range", "-1,1"),
        (["solve", "--scale", "interval(-2,2)", "--dense-step", "0.5"], "--x0", "-.5,-1E0"),
        (["converge", "--eps-list", "0.5,0.25"], "--alpha", "-0.5,0.25"),
    ],
)
def test_negative_option_values_in_both_spellings(capsys, argv, option, value):
    assert main([*argv, option, value]) == EXIT_OK
    spaced = capsys.readouterr()
    assert main([*argv, f"{option}={value}"]) == EXIT_OK
    joined = capsys.readouterr()
    assert spaced.err == joined.err == ""
    assert spaced.out == joined.out and spaced.out.count("\n") > 1


def test_cmd_eval_json_deterministic(capsys):
    argv = [
        "eval",
        "--scale",
        "interval(0,1) + points(2)",
        "--family",
        "cayley",
        "--alpha",
        "0.5,0.25",
        "--dense-step",
        "0.25",
        "--format",
        "json",
    ]
    assert main(argv) == EXIT_OK
    first = capsys.readouterr().out
    assert main(argv) == EXIT_OK
    second = capsys.readouterr().out
    assert first == second
    payload = json.loads(first)
    assert payload["schema"] == "tscale/1"
    assert payload["rows"][0] == {"t": 0.0, "re": 1.0, "im": 0.0}


def test_cmd_eval_out_file(tmp_path, capsys):
    path = tmp_path / "rows.csv"
    code = main(
        ["eval", "--scale", "uniform(0,1,3)", "--family", "hilger", "--out", str(path)]
    )
    assert code == EXIT_OK
    data = path.read_bytes()
    assert data.endswith(b"\n") and b"\r" not in data
    assert data.decode().splitlines()[0] == "t,re,im"


def test_cmd_solve(capsys):
    code = main(
        ["solve", "--scale", "uniform(0,1,4)", "--scheme", "trapezoidal", "--alpha", "1"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert out.splitlines()[3] == "2,9,0"


def _csv_rows(out):
    return [[float(x) for x in line.split(",")] for line in out.splitlines()[1:]]


@pytest.mark.parametrize(
    "scheme, family, alpha", [("explicit", "hilger", "-2"), ("trapezoidal", "cayley", "4")]
)
def test_solve_checks_only_the_steps_it_takes(capsys, scheme, family, alpha):
    """The last grid point's jump is no step of a solve: a step factor that
    degenerates there is not checked, and the solve equals the exponential.
    The same step inside the grid is taken, and rejected."""
    args = ["--scale", "points(0,0.1,0.2,0.7)", f"--alpha={alpha}"]
    code, out, err = _run(capsys, ["solve", "--scheme", scheme, *args, "--range", "0,0.2"])
    assert (code, err) == (EXIT_OK, "")
    code, ref, _ = _run(capsys, ["eval", "--family", family, *args, "--range", "0,0.2"])
    assert code == EXIT_OK
    rows, ref_rows = _csv_rows(out), _csv_rows(ref)
    assert [r[0] for r in rows] == [r[0] for r in ref_rows] == [0.0, 0.1, 0.2]
    for (_, re, im), (_, ref_re, ref_im) in zip(rows, ref_rows):
        assert re == pytest.approx(ref_re, rel=1e-10) and im == ref_im == 0.0
    code, _, err = _run(capsys, ["solve", "--scheme", scheme, *args, "--range", "0,0.7"])
    assert code == EXIT_REGRESSIVITY and "at t=0.2" in err


def test_csv_uses_17_significant_digits(capsys):
    main(["eval", "--scale", "uniform(0,1,2)", "--family", "exact", "--alpha", "1"])
    out = capsys.readouterr().out
    assert f"{math.e:.17g}" in out


# .17g switches to exponent form below 1e-4 and from 1e17 on
_CELLS = (
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308, 1e16,
         9999999999999998.0, 1e17, 99999999999999984.0, 1e-4, 9.9999999999999991e-05, 1e-5]
    )
    | st.floats(-2.2250738585072014e-308, 2.2250738585072014e-308)
    | st.floats(1e-6, 1e-3)
    | st.floats(-1e-3, -1e-6)
    | st.floats(1e15, 1e18)
    | st.floats(-1e18, -1e15)
    | st.floats(allow_nan=True, allow_infinity=True)
)


@given(st.lists(st.tuples(_CELLS, _CELLS, _CELLS), max_size=8))
@example([(-0.0, -0.0, 5e-324)])
@example([(1e-5, 1e16, -1e308)])
def test_csv_rows_are_the_bytes_of_the_per_row_renderer(rows):
    points = tuple(t for t, _, _ in rows)
    values = tuple(complex(re, im) for _, re, im in rows)
    got = cli._rows_text(cli.RunConfig("eval"), {"command": "eval"}, points, values)
    assert got == reference_rows_text(points, values)


@pytest.mark.parametrize(
    "options, digest",
    [
        ([], "be7174d77932573a6291a7780c608ba8663235d2fb73e7fddd0aed065f17e4a8"),
        (
            ["--alpha=-0.3,0.4", "--t0", "1"],
            "48b601c5ad4223286fb74eb4584793a9f581e7ebabbec0f2e05c9852d3c746fd",
        ),
    ],
)
def test_hybrid_dense_eval_csv_is_pinned(capsys, options, digest):
    # 40,004 rows at dense step 1e-4, as the per-row renderer wrote them
    argv = ["eval", "--scale", "interval(0,2)+points(2.3,2.6)+interval(3,5)", "--dense-step", "1e-4"]
    assert main([*argv, *options]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.count("\n") == 40005
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- identity reports -------------------------------------------------------------


def run_identity(capsys, *extra):
    code = main(["identity", *extra, "--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_identity_pythagorean_cayley(capsys):
    code, payload = run_identity(
        capsys,
        "--scale",
        "uniform(0,1,8)",
        "--identity",
        "pythagorean",
        "--family",
        "cayley",
        "--omega",
        "1",
    )
    assert code == EXIT_OK
    assert payload["pass"] is True
    assert payload["max_residual"] < 1e-12
    assert payload["identity"] == "pythagorean"


def test_identity_pythagorean_cayley_holds_over_many_steps(capsys):
    # the Cayley pair stays on the unit circle to rounding at any step count
    code, payload = run_identity(
        capsys,
        "--scale",
        "uniform(0,1e-3,20000)",
        "--identity",
        "pythagorean",
        "--family",
        "cayley",
    )
    assert code == EXIT_OK
    assert payload["pass"] is True
    assert payload["max_residual"] <= 2.3e-16


def test_identity_unit_circle_zero_frequency(capsys):
    code, payload = run_identity(
        capsys,
        "--scale",
        "interval(0,1) + points(2)",
        "--identity",
        "unit-circle",
        "--omega",
        "0",
    )
    assert code == EXIT_OK
    assert payload["max_residual"] == 0.0


def test_identity_pythagorean_bp_reports_deformation(capsys):
    code, payload = run_identity(
        capsys,
        "--scale",
        "uniform(0,1,6)",
        "--identity",
        "pythagorean",
        "--family",
        "bp",
        "--omega",
        "1",
        "--tol",
        "1e-10",
    )
    assert code == EXIT_OK
    assert payload["reference"][1] == pytest.approx(2.0, abs=1e-12)


def test_identity_semigroup_and_shift_and_product(capsys):
    for name in ("semigroup", "sigma-shift", "product-law"):
        code, payload = run_identity(
            capsys,
            "--scale",
            "interval(0,1) + points(1.5,2.25)",
            "--identity",
            name,
            "--alpha",
            "0.4",
            "--beta",
            "0.3",
            "--tol",
            "1e-11",
        )
        assert code == EXIT_OK, name
        assert payload["pass"] is True


@pytest.mark.parametrize(
    "scale, step",
    [("uniform(0,1e-3,1000)", "0.1"), ("interval(0,1)+points(1.5,2,2.5)+interval(3,4)", "0.01")],
)
def test_report_samples_equal_the_pointwise_lambdas(monkeypatch, scale, step):
    """The oscillator-exact and delbis reports sample x with chains of
    C-level maps; the floats are a per-point lambda's, bit for bit."""
    omega, seen = 2.5, {}
    lambdas = {
        "oscillator_residual_exact": lambda t: math.sin(omega * t),
        "delbis_relation_residual": lambda t: math.sin(t) + 0.5 * math.cos(2.0 * t) + 0.25 * t,
    }
    for name in lambdas:

        def captured(ts, omega, x, *args, name=name, report=getattr(cli, name)):
            seen[name] = x
            return report(ts, omega, x, *args)

        monkeypatch.setattr(cli, name, captured)
    for identity in ("oscillator-exact", "delbis"):  # the hybrid scale then exits 3
        main(["identity", "--identity", identity, "--omega", repr(omega), "--scale", scale,
              "--dense-step", step])
    for name, fn in lambdas.items():
        pts = seen[name].grid.points
        want = [(v.real.hex(), v.imag.hex()) for v in (complex(fn(p)) for p in pts)]
        assert [(v.real.hex(), v.imag.hex()) for v in seen[name].values] == want


def test_identity_oscillators_and_delbis(capsys):
    code, payload = run_identity(
        capsys,
        "--scale",
        "uniform(0,0.5,12)",
        "--identity",
        "oscillator-cayley",
        "--omega",
        "1.2",
    )
    assert code == EXIT_OK and payload["pass"]
    code, payload = run_identity(
        capsys,
        "--scale",
        "uniform(0,0.5,12)",
        "--identity",
        "oscillator-exact",
        "--omega",
        "1.2",
        "--tol",
        "1e-10",
    )
    assert code == EXIT_OK and payload["pass"]
    assert payload["form_agreement"] < 1e-12
    code, payload = run_identity(
        capsys,
        "--scale",
        "uniform(0,0.5,12)",
        "--identity",
        "delbis",
        "--omega",
        "0.9",
    )
    assert code == EXIT_OK and payload["pass"]


def test_identity_fail_exit_code(capsys):
    code, payload = run_identity(
        capsys,
        "--scale",
        "uniform(0,1,8)",
        "--identity",
        "pythagorean",
        "--family",
        "cayley",
        "--omega",
        "1",
        "--tol",
        "1e-30",
    )
    assert code == EXIT_IDENTITY_FAIL
    assert payload["pass"] is False


@pytest.mark.parametrize(
    "scale", ["uniform(0,0.5,12)", "interval(0,2)+points(2.3,2.6)+interval(3,5)"]
)
def test_an_exponent_summed_to_an_infinite_phase_exits_4(capsys, scale):
    """Finite steps of 5e307j (exact family) or dense pieces of 1e307j sum
    to an infinite imaginary exponent, whose exp is cmath's domain error:
    it once escaped as a ValueError with the configuration exit code 3."""
    argv = ["eval", "--family", "exact", "--alpha=0,1e308", "--scale", scale]
    assert main(argv) == EXIT_TOLERANCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "tscale: exponential overflows at exponent infj\n"


def test_identity_with_a_non_finite_residual_is_a_tolerance_error(capsys):
    """omega**2 overflows in the Bohner-Peterson deformation, whose step log
    is then infinite: the residual and the reference at t=1.0 are NaN. A
    NaN compares false with every residual, so it once passed as zero with
    exit 0 and a NaN (not JSON) in the reference."""
    argv = ["identity", "--identity", "pythagorean", "--family", "bp", "--kind", "trig",
            "--omega", "1e160", "--scale", "uniform(0,1,2)"]
    assert main(argv) == EXIT_TOLERANCE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        "tscale: pythagorean-bp-trig: non-finite value at t=1.0: residual nan, reference nan\n"
    )


@pytest.mark.parametrize(
    "residuals, reference, message",
    [
        ((0.0, math.nan, math.inf), None, "non-finite value at t=0.5: residual nan"),
        ((0.0, math.inf), (1.0, 2.0), "non-finite value at t=0.5: residual inf, reference 2.0"),
        ((0.0, 0.0), (-math.inf, 2.0), "non-finite value at t=0.0: residual 0.0, reference -inf"),
    ],
)
def test_residual_report_rejects_non_finite_values(residuals, reference, message):
    points = (0.0, 0.5, 1.0)[: len(residuals)]
    with pytest.raises(ToleranceError, match=f"^x: {message}$"):
        ResidualReport("x", points, residuals, 1e-12, reference=reference)


def test_residual_report_takes_finite_values_whose_sum_overflows():
    report = ResidualReport("x", (0.0, 1.0), (1e308, 1e308), 1e-12, reference=(1e308, 1e308))
    assert report.max_residual == 1e308 and not report.passed


def test_identity_unknown_name_is_config_error(capsys):
    assert (
        main(["identity", "--scale", "uniform(0,1,4)", "--identity", "nope"])
        == EXIT_CONFIG
    )


# -- convergence ------------------------------------------------------------------


def test_cmd_converge_slopes(capsys):
    code = main(["converge", "--family", "cayley", "--alpha", "1", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert code == EXIT_OK
    assert 1.9 < out["slope"] < 2.1
    code = main(["converge", "--family", "hilger", "--alpha", "1", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert 0.9 < out["slope"] < 1.1
    code = main(["converge", "--family", "exact", "--alpha", "1", "--format", "json"])
    out = json.loads(capsys.readouterr().out)
    assert all(row["error"] <= 1e-13 for row in out["rows"])


def test_cmd_converge_csv_layout(capsys):
    code = main(
        ["converge", "--family", "cayley", "--alpha", "1", "--eps-list", "0.5,0.25,0.125"]
    )
    out = capsys.readouterr().out
    assert code == EXIT_OK
    lines = out.splitlines()
    assert lines[0] == "eps,error,slope"
    assert len(lines) == 4


def test_cmd_converge_bad_eps(capsys):
    assert (
        main(["converge", "--family", "cayley", "--eps-list", "0.3", "--target-t", "1.0"])
        == EXIT_CONFIG
    )


@pytest.mark.parametrize("family", ["hilger", "cayley", "nabla", "exact"])
@pytest.mark.parametrize(
    "alpha, target_t, eps_list",
    [
        (1.0, 1.0, [2.0 ** -k for k in range(1, 11)]),
        (complex(-0.5, 0.25), 2.0, [0.5, 0.25, 0.125, 0.0625]),
        (2.5j, 1.0, [0.1, 0.05, 0.02]),
        (-3.0, 1.5, [0.5, 0.3]),
        # k*eps rounds past the scale's 1e-12 uniformity tolerance
        (0.001, 20000.0, [0.1]),
    ],
)
def test_convergence_study_equals_the_family_ladder(family, alpha, target_t, eps_list):
    def hexed(rows):
        return [(e.hex(), err.hex()) for e, err in rows]

    got = outcome(lambda: hexed(convergence_study(family, alpha, target_t, eps_list)))
    want = outcome(
        lambda: hexed(reference_convergence_study(family, alpha, target_t, eps_list))
    )
    assert got == want


def test_convergence_study_unknown_family():
    with pytest.raises(ValueError, match="^unknown family 'foo'$"):
        convergence_study("foo", 1.0, 1.0, [0.5])


def test_convergence_study_nabla_first_order():
    rows = convergence_study("nabla", 1.0, 1.0, [2.0 ** -k for k in range(4, 9)])
    slope = fit_loglog_slope([e for e, _ in rows], [r for _, r in rows])
    assert 0.9 < slope < 1.1


def test_convergence_study_builds_a_scale_for_the_step_families_only(monkeypatch):
    built = []
    uniform_scale = timescale.uniform
    monkeypatch.setattr(
        timescale, "uniform", lambda *args: built.append(args) or uniform_scale(*args)
    )
    for family in ("nabla", "exact", "hilger", "cayley"):
        convergence_study(family, 0.5, 1.0, [0.5, 0.25])
    assert built == [(0.0, 0.5, 3), (0.0, 0.25, 5)] * 2


def test_discrete_commands_make_no_point_objects(monkeypatch, capsys):
    """A scale of isolated points made from values is queried through its
    ends tables alone: converge, and eval, solve and every identity on a
    uniform scale, make no IsolatedPoint."""
    calls = []
    make = timescale._points
    counting = lambda values: calls.append(1) or make(values)
    monkeypatch.setattr(timescale, "_points", counting)
    monkeypatch.setattr(cli, "_points", counting)
    scale = ["--scale", "uniform(0,1e-3,1000)"]
    main(["converge"])
    main(["converge", "--family", "hilger"])
    main(["eval", *scale])
    main(["solve", *scale])
    for identity in cli._IDENTITIES:
        # the semigroup report is quadratic in the points
        small = ["--scale", "uniform(0,0.05,60)"] if identity == "semigroup" else scale
        main(["identity", "--identity", identity, *small])
    capsys.readouterr()
    assert calls == []
    main(["eval", "--scale", "points(0,1)", "--format", "json"])
    assert calls == []
    parse_scale("uniform(0,0.5,3)").components
    assert calls == [1]


@pytest.mark.parametrize(
    "family, code", [("cayley", EXIT_CONFIG), ("hilger", EXIT_CONFIG), ("nabla", EXIT_OK), ("exact", EXIT_OK)]
)
def test_converge_at_a_step_within_the_membership_tolerance(capsys, family, code):
    """A uniform scale of step 1e-12 is rejected, so the step families exit
    3; the backward-step and exact families build no scale and print their
    row."""
    argv = ["converge", "--family", family, "--target-t", "1e-11", "--eps-list", "1e-12"]
    assert main(argv) == code
    out, err = capsys.readouterr()
    if code == EXIT_OK:
        assert out.startswith("eps,error,slope\n9.9999999999999998e-13,") and err == ""
    else:
        assert out == "" and "overlap or are closer than 1e-12" in err


def test_fit_loglog_slope_handles_zero_errors():
    assert fit_loglog_slope([0.5, 0.25], [0.0, 0.0]) == 0.0


# -- the law reports against their per-point residuals ----------------------------------

MAP_FORM_SCALES = [
    ("uniform(0,1e-3,400)", 1e-3),
    ("interval(0,2)+points(2.3,2.6)+interval(3,5)", 0.01),
    ("interval(1e4,10000.5)+points(10000.75,10001)", 0.01),
]


@pytest.mark.parametrize("scale, step", MAP_FORM_SCALES)
@pytest.mark.parametrize("family", ["cayley", "hilger"])
def test_law_residuals_are_their_per_point_values(monkeypatch, scale, step, family):
    """The product-law and unit-circle residuals, bit for bit, are those of
    a loop over the points of the exponentials each report evaluates."""
    config = cli.RunConfig(
        "identity", scale=scale, dense_step=step, family=family, alpha=-0.25 + 0.35j,
        beta=0.5 - 0.1j, omega=2.5,
    )
    ts, grid = cli._scale_and_grid(config)
    evaluated = []
    evaluate = cli.exp_evaluate_grid
    monkeypatch.setattr(
        cli, "exp_evaluate_grid", lambda *args: evaluated.append(evaluate(*args)) or evaluated[-1]
    )
    report, _ = cli._product_law_report(config, ts, grid, cli._LAW_FAMILIES[family])
    want = reference_product_law_residuals(*(ev.values for ev in evaluated))
    assert len(evaluated) == 3 and outcome(lambda: report.residuals) == outcome(lambda: want)
    evaluated.clear()
    report, _ = cli._unit_circle_report(config, ts, grid, None)
    want = reference_unit_circle_residuals(evaluated[0].values)
    assert outcome(lambda: report.residuals) == outcome(lambda: want)


# -- pointwise identity reports against per-pair checks --------------------------------


def _report_or_error(report_fn, config, ts, grid):
    def fields():
        report = report_fn(config, ts, grid)
        return report.points, report.residuals, report.skipped

    return outcome(fields)


def _pairwise_semigroup(config, ts, grid):
    """The semigroup report as one check_semigroup call per pair."""
    family = cli._EXP_FAMILIES[config.family]
    residuals = []
    for i, t in enumerate(grid.points):
        worst = 0.0
        for j in range(i + 1):
            r = check_semigroup(
                family, ts, config.alpha, t, grid.points[j], grid.points[0], config.tol
            )
            worst = max(worst, r)
        residuals.append(worst)
    return ResidualReport("semigroup", grid.points, tuple(residuals), config.tol)


def _pointwise_sigma_shift(config, ts, grid):
    """The sigma-shift report as one check_sigma_shift call per point."""
    family = cli._EXP_FAMILIES[config.family]
    pts, residuals, skipped = [], [], []
    for t in grid.points:
        if not ts.in_kappa(t):
            skipped.append(t)
            continue
        pts.append(t)
        residuals.append(
            check_sigma_shift(family, ts, config.alpha, t, grid.points[0], config.tol)
        )
    return ResidualReport(
        "sigma-shift", tuple(pts), tuple(residuals), config.tol, skipped=tuple(skipped)
    )


REPORT_SCALES = [
    ("uniform(0,0.05,14)", 0.1),
    ("interval(0,0.3) + points(0.4,0.55,0.7) + interval(0.8,1)", 0.05),
    ("points(1,2)", 0.1),
]


@pytest.mark.parametrize("scale, step", REPORT_SCALES)
@pytest.mark.parametrize("family", ["cayley", "hilger", "nabla", "exact"])
@pytest.mark.parametrize(
    # the last two are not regressive on the 0.05 and 0.1 steps
    "alpha", [complex(-0.4, 0.3), complex(1.5, -2.0), -20.0, 40.0, -10.0],
)
def test_memoized_reports_equal_per_pair_checks(scale, step, family, alpha):
    config = cli.RunConfig("identity", scale=scale, family=family, alpha=alpha, dense_step=step)
    _assert_reports_equal_per_pair_checks(config, *cli._scale_and_grid(config))


def _assert_reports_equal_per_pair_checks(config, ts, grid):
    """The semigroup and sigma-shift reports equal their per-pair and
    per-point check references, errors included."""
    family = cli._EXP_FAMILIES[config.family]
    for report, reference in (
        (cli._semigroup_report, _pairwise_semigroup),
        (cli._sigma_shift_report, _pointwise_sigma_shift),
    ):
        got = _report_or_error(lambda *args: report(*args, family)[0], config, ts, grid)
        assert got == _report_or_error(reference, config, ts, grid)


@st.composite
def _report_cases(draw):
    """A mixed scale of intervals and points, a grid whose first point (the
    anchor t1 or t0) may lie inside an interval and whose points include
    interval ends, a family, and an alpha that is ordinary, regressive at
    one of the scale's jumps for the forward-step or Cayley step rule, or
    large enough to overflow."""
    comps, x = [], 0.0
    for _ in range(draw(st.integers(3, 7))):
        x += draw(st.sampled_from([0.05, 0.1, 0.25]))
        if draw(st.booleans()):
            hi = x + draw(st.sampled_from([0.1, 0.2, 0.3]))
            comps.append(ClosedInterval(x, hi))
            x = hi
        else:
            comps.append(IsolatedPoint(x))
    ts = TimeScale(tuple(comps))
    step = draw(st.sampled_from([0.1, 0.15]))
    full = ts.make_grid(ts.inf, ts.sup, step).points
    start = draw(st.sampled_from(full[: len(full) // 2 + 1]))
    if draw(st.booleans()):  # an anchor at the middle of an interval
        inner = [0.5 * (c.lo + c.hi) for c in comps if isinstance(c, ClosedInterval)]
        start = draw(st.sampled_from(inner or [start]))
    end = ts.sup if draw(st.booleans()) else draw(st.sampled_from(full[len(full) // 2 :]))
    end = max(start, end)
    grid = ts.make_grid(start, end, step)
    mus = [mu for _, mu in ts.scattered_points(ts.inf, ts.sup)] or [1.0]
    alpha = draw(
        st.complex_numbers(max_magnitude=5.0, allow_nan=False, allow_infinity=False)
        | st.sampled_from(mus).flatmap(lambda mu: st.sampled_from([-1 / mu, 2 / mu, -2 / mu]))
        | st.sampled_from([1e308, 1e308j, 3000.0, -3000.0, 800.0])
    )
    family = draw(st.sampled_from(sorted(cli._EXP_FAMILIES)))
    return ts, grid, family, complex(alpha)


@settings(max_examples=200, deadline=None)
@given(_report_cases())
def test_running_reports_equal_per_pair_checks_on_mixed_scales(case):
    ts, grid, family, alpha = case
    config = cli.RunConfig("identity", family=family, alpha=alpha)
    _assert_reports_equal_per_pair_checks(config, ts, grid)


@pytest.mark.parametrize("identity", ["semigroup", "sigma-shift"])
@pytest.mark.parametrize("family, step_log", [("cayley", "zeta"), ("hilger", "xi")])
def test_reports_take_each_step_log_once(monkeypatch, identity, family, step_log):
    """On uniform(0,1e-3,n) each distinct gap of the n-1 jumps gets one
    step log, however many jumps, pairs or shifts read it."""
    n = 60
    comps = uniform(0, 1e-3, n).components
    gaps = {b.left - a.right for a, b in zip(comps, comps[1:])}
    calls = []
    log = getattr(transforms, step_log)
    monkeypatch.setattr(transforms, step_log, lambda mu, a: calls.append(mu) or log(mu, a))
    config = cli.RunConfig(
        "identity", scale=f"uniform(0,1e-3,{n})", identity=identity, family=family
    )
    code, _ = cli.cmd_identity(config)
    assert code == EXIT_OK
    assert len(calls) == len(set(calls))
    assert set(calls) == gaps


# -- overflow and non-finite parameters ------------------------------------------------


# what the installed tscale script runs
_SCRIPT = "import sys; from tscale.cli import main; sys.exit(main())"


def _run_script(*argv, runner=("-c", _SCRIPT)):
    """Run the CLI in a fresh interpreter, as the installed script does, or
    as python -m with runner ("-m", "tscale"); a run that hangs fails."""
    src = os.path.dirname(os.path.dirname(tscale.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    return subprocess.run(
        [sys.executable, *runner, *argv], env=env, capture_output=True, text=True, timeout=60
    )


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--family", "hilger"],
        ["identity", "--identity", "sigma-shift", "--family", "hilger"],
    ],
)
def test_overflow_exits_4_without_traceback(argv):
    proc = _run_script(*argv, "--scale", "uniform(0,0.5,10)", "--alpha", "1e308")
    assert proc.returncode == EXIT_TOLERANCE
    assert proc.stdout == ""
    assert proc.stderr.startswith("tscale: exponential overflows")
    assert proc.stderr.count("\n") == 1 and "Traceback" not in proc.stderr


def test_degenerate_bp_overflow_exits_4(capsys):
    # 1 - mu*alpha vanishes at t = 400 (mu = 0.25), and the deformation
    # exponential overflows before it: the step-factor product wrote
    # Infinity and NaN into the JSON report and exited 1
    argv = ["identity", "--identity", "pythagorean", "--family", "bp", "--kind", "hyp"]
    assert main([*argv, "--alpha", "4", "--scale", "uniform(0,1,401)+points(400.25)"]) == (
        EXIT_TOLERANCE
    )
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("tscale: exponential overflows")


def test_degenerate_bp_hyp_report_on_its_lenient_path_is_unchanged(capsys):
    # the deformation's factor 1 - mu^2 * alpha^2 at the gap 1.001 from
    # t = 3.999 is 2.2e-16, within the regressivity margin: its checked fold
    # raises, and it is folded unchecked (exponential._hilger_grid_lenient);
    # the bytes are those of the deformation read at every step
    argv = ["identity", "--identity", "pythagorean", "--family", "bp", "--kind", "hyp",
            "--alpha=0.999000999000999", "--scale", "uniform(0,0.001,4000)+points(5)"]
    assert main(argv) == EXIT_OK
    out, err = capsys.readouterr()
    assert err == "" and out.endswith(',2.2116018739631653e-16],"schema":"tscale/1"}\n')
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "3b57607396f2adf398d633257640bc8ccd0d398a806486354b87cefab6bc9eed"
    )


def test_degenerate_bp_hyp_report_reads_each_gap_once_on_its_lenient_path(capsys):
    # the minus exponential and the deformation, both functions of the gap
    # alone, take the lenient fold, which seeks the first zero factor: each
    # is read, and its factor taken, once per distinct gap, where each of
    # the 4,000 scattered steps was read (8,048 reads in all)
    argv = ["identity", "--identity", "pythagorean", "--family", "bp", "--kind", "hyp",
            "--alpha=0.999000999000999", "--scale", "uniform(0,0.001,4000)+points(5)"]
    at_step = transforms.Coefficient.at_step
    with mock.patch.object(
        transforms.Coefficient, "at_step", autospec=True, side_effect=at_step
    ) as read:
        assert main(argv) == EXIT_OK
    assert read.call_count == 72
    assert capsys.readouterr().out.endswith(',2.2116018739631653e-16],"schema":"tscale/1"}\n')


def test_infinite_integrand_exits_4_without_hanging():
    # refining the quadrature of an infinite coefficient near 1e4 never
    # ended; the first step's exponent, 1e308 * 0.1, is finite and its
    # exponential is not
    proc = _run_script(
        "eval", "--scale", "interval(1e4,10000.5)", "--t0", "1e4", "--alpha", "1e308"
    )
    assert proc.returncode == EXIT_TOLERANCE
    assert proc.stdout == ""
    assert proc.stderr == (
        "tscale: exponential overflows at exponent (1.000000000003638e+307+0j)\n"
    )


def test_an_infinite_dense_integral_exits_4():
    # 1e308 over the dense step [0, 2] is infinite
    proc = _run_script("eval", "--scale", "interval(0,4)", "--dense-step", "2", "--alpha", "1e308")
    assert (proc.returncode, proc.stdout) == (EXIT_TOLERANCE, "")
    assert proc.stderr == "tscale: quadrature overflows on [0.0, 2.0]\n"


def test_a_huge_imaginary_coefficient_over_a_tiny_interval_is_on_the_unit_circle():
    # the exponent 1e308j * 1e-7 is finite: the exponential has modulus 1
    proc = _run_script(
        "eval", "--scale", "interval(1e4,10000.0000001)", "--alpha", "0,1e308", "--t0", "1e4"
    )
    assert (proc.returncode, proc.stderr) == (EXIT_OK, "")
    rows = [line.split(",") for line in proc.stdout.splitlines()[1:]]
    assert rows[0] == ["10000", "1", "0"]
    assert all(abs(abs(complex(float(re), float(im))) - 1) <= 4 * 2.0**-53 for _, re, im in rows)


def test_python_m_tscale_runs_the_cli_without_warnings(capsys):
    argv = ["eval", "--scale", "uniform(0,0.5,4)", "--family", "hilger"]
    proc = _run_script(*argv, runner=("-m", "tscale"))
    assert main(argv) == EXIT_OK
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, capsys.readouterr().out, "")


@pytest.mark.parametrize(
    "argv, message",
    [
        (["eval", "--alpha", "nan"], "alpha must be finite, got (nan+0j)"),
        (["eval", "--family", "hilger", "--alpha", "1,nan"], "alpha must be finite, got (1+nanj)"),
        (["solve", "--alpha", "inf"], "alpha must be finite, got (inf+0j)"),
        (["identity", "--identity", "unit-circle", "--omega", "inf"],
         "omega must be finite, got inf"),
        (["identity", "--identity", "delbis", "--omega", "nan"], "omega must be finite, got nan"),
        (["identity", "--identity", "product-law", "--beta", "nan"],
         "beta must be finite, got (nan+0j)"),
        (["converge", "--family", "nabla", "--alpha", "nan"], "alpha must be finite, got (nan+0j)"),
        # once an overflow (exit 4) and a float-to-integer error naming no option
        (["converge", "--target-t", "inf"], "target-t must be finite, got inf"),
        (["converge", "--target-t=-inf"], "target-t must be finite, got -inf"),
        (["converge", "--target-t", "nan"], "target-t must be finite, got nan"),
        # once "samples must be finite"
        (["solve", "--x0", "nan"], "x0 must be finite, got (nan+0j)"),
        (["solve", "--x0", "1,inf"], "x0 must be finite, got (1+infj)"),
    ],
)
def test_non_finite_parameters_are_config_errors(capsys, argv, message):
    scale = [] if argv[0] == "converge" else ["--scale", "uniform(0,0.5,10)"]
    assert main([*argv, *scale]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"tscale: {message}\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (["solve", "--scheme", "explicit"], "tscale: solution overflows at t=1.0\n"),
        (["solve", "--scheme", "exact"],
         "tscale: exponential overflows at exponent (5e+299+0j)\n"),
    ],
)
def test_solver_overflow_exits_4_without_traceback(argv, message):
    proc = _run_script(*argv, "--scale", "uniform(0,0.5,2000)", "--alpha", "1e300")
    assert proc.returncode == EXIT_TOLERANCE
    assert proc.stdout == ""
    assert proc.stderr == message


@pytest.mark.parametrize(
    "argv, message",
    [
        # a dense scale used to run Simpson to depth 40 and exit 4
        (["eval", "--scale", "interval(0,1)", "--tol", "nan"], "tol must be finite, got nan"),
        # a discrete scale used to ignore the NaN and exit 0
        (["eval", "--scale", "uniform(0,0.5,10)", "--tol", "nan"], "tol must be finite, got nan"),
        # inf used to turn the quadrature check off
        (["solve", "--scale", "interval(0,1)", "--tol", "inf"], "tol must be finite, got inf"),
        (["converge", "--tol", "nan"], "tol must be finite, got nan"),
        (["eval", "--scale", "interval(0,1)", "--dense-step", "nan"],
         "dense-step must be finite, got nan"),
        (["identity", "--scale", "interval(0,1)", "--identity", "unit-circle",
          "--dense-step", "inf"], "dense-step must be finite, got inf"),
        (["eval", "--scale", "interval(0,1)", "--tol=-inf"], "tol must be positive"),
    ],
)
def test_non_finite_tol_and_dense_step_are_config_errors(capsys, argv, message):
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err == f"tscale: {message}\n"


@pytest.mark.parametrize("name", ["tol", "dense_step"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_run_config_rejects_non_finite_tol_and_dense_step(name, value):
    config = cli.RunConfig(command="eval", scale="interval(0,1)")
    setattr(config, name, value)
    with pytest.raises(ValueError, match="must be finite"):
        config.validate()


def test_installed_script_rejects_nan_tol_without_traceback():
    proc = _run_script("eval", "--scale", "interval(0,1)", "--tol", "nan")
    assert proc.returncode == EXIT_CONFIG
    assert proc.stdout == "" and proc.stderr == "tscale: tol must be finite, got nan\n"


# -- non-finite t0 and identity families ------------------------------------------------


def _config_error(capsys, argv) -> str:
    """main(argv) exits 3 with nothing on stdout and one stderr line; that line."""
    assert main(argv) == EXIT_CONFIG
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.count("\n") == 1
    assert "Traceback" not in captured.err
    return captured.err


@pytest.mark.parametrize("command", ["eval", "solve", "identity"])
@pytest.mark.parametrize("t0", ["nan", "inf", "-inf"])
def test_non_finite_t0_is_a_config_error(capsys, command, t0):
    # solve used to anchor a NaN t0 at the first grid point and exit 0
    argv = [command, "--scale", "uniform(0,0.1,3)", f"--t0={t0}"]
    if command == "identity":
        argv += ["--identity", "unit-circle"]
    assert _config_error(capsys, argv) == f"tscale: t0 must be finite, got {float(t0)!r}\n"


def test_solve_off_grid_finite_t0_still_anchors_at_the_first_point(capsys):
    outs = []
    for t0 in ("0", "0.05"):
        assert main(["solve", "--scale", "uniform(0,0.1,3)", "--t0", t0]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "identity, family, accepted",
    [
        ("pythagorean", "nabla", "bp, cayley, exact, hilger"),
        ("pythagorean", "foo", "bp, cayley, exact, hilger"),
        ("semigroup", "bp", "cayley, exact, hilger, nabla"),
        ("sigma-shift", "foo", "cayley, hilger"),
        ("product-law", "bp", "cayley, hilger"),
        ("product-law", "exact", "cayley, hilger"),
        ("product-law", "nabla", "cayley, hilger"),
    ],
)
def test_unknown_identity_family_is_named(capsys, identity, family, accepted):
    argv = ["identity", "--scale", "uniform(0,0.1,3)", "--identity", identity,
            "--family", family]
    assert _config_error(capsys, argv) == (
        f"tscale: --family {family!r} is not accepted by identity {identity}; "
        f"choose from {accepted}\n"
    )


@pytest.mark.parametrize("family", ["exact", "nabla"])
@pytest.mark.parametrize("range_", [None, "1,1"])
def test_sigma_shift_rejects_a_family_without_a_step_factor(capsys, family, range_):
    # a range of left-scattered maxima alone used to exit 0 with no points
    argv = ["identity", "--scale", "points(0,1)", "--identity", "sigma-shift",
            "--family", family]
    if range_ is not None:
        argv += ["--range", range_]
    assert _config_error(capsys, argv) == (
        f"tscale: --family {family!r} is not accepted by identity sigma-shift; "
        "choose from cayley, hilger\n"
    )


@pytest.mark.parametrize(
    "identity", ["unit-circle", "oscillator-cayley", "oscillator-exact", "delbis"]
)
def test_identities_that_read_no_family_ignore_it(capsys, identity):
    argv = ["identity", "--scale", "uniform(0,0.1,3)", "--identity", identity]
    assert main([*argv, "--family", "foo"]) == EXIT_OK
    assert main(argv) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    assert out[0] == out[1]


def _run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.mark.parametrize(
    "identity, option, value",
    [
        ("unit-circle", "--omega", "1"),
        ("pythagorean", "--omega", "1"),
        ("oscillator-cayley", "--omega", "1"),
        ("oscillator-exact", "--omega", "1"),
        ("delbis", "--omega", "1"),
        ("product-law", "--beta", "0.5"),
    ],
)
def test_omitted_omega_and_beta_take_their_defaults(capsys, identity, option, value):
    argv = ["identity", "--scale", "uniform(0,0.5,12)",
            "--identity", identity, "--kind", "trig", "--tol", "1e-9"]
    omitted = _run(capsys, argv)
    assert omitted[0] in (EXIT_OK, EXIT_IDENTITY_FAIL) and omitted[1]
    assert omitted == _run(capsys, [*argv, option, value])


def test_cmd_identity_rejects_an_unknown_name():
    config = cli.RunConfig("identity", scale="uniform(0,0.1,3)", identity="nope")
    with pytest.raises(ValueError, match="unknown identity 'nope'"):
        cli.cmd_identity(config)


@pytest.mark.parametrize(
    "argv",
    [
        ["--scale", "uniform(0,0.1,200001)", "--alpha", "0.001", "--range", "0,0.3"],
        ["--scale", "uniform(1e4,0.1,1000)", "--alpha", "0.001", "--t0", "1e4",
         "--range", "1e4,10000.3"],
    ],
)
def test_nabla_eval_on_long_and_far_uniform_scales(capsys, argv):
    code, out, err = _run(capsys, ["eval", "--family", "nabla", *argv])
    assert (code, err) == (EXIT_OK, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    assert [float(re) for _, re, _ in rows] == pytest.approx(
        [(1 - 0.001 * 0.1) ** -k for k in range(4)], rel=1e-12
    )


def test_nabla_eval_far_from_zero(capsys):
    # the first gap of uniform(1e8, 0.1, n) is 0.0999999940...: the fold
    # needs no lattice test. Each point carries up to half an ulp of 1e8
    # (7.5e-9) of rounding, so alpha*(t - t0) is off by up to 7.5e-12
    code, out, err = _run(capsys, ["eval", "--family", "nabla", "--alpha", "0.001",
                                   "--t0", "1e8", "--scale", "uniform(1e8,0.1,1000)"])
    assert (code, err) == (EXIT_OK, "")
    rows = [line.split(",") for line in out.splitlines()[1:]]
    ts, values = [float(t) for t, _, _ in rows], [float(re) for _, re, _ in rows]
    assert len(values) == 1000
    assert values == pytest.approx([(1 - 1e-4) ** -k for k in range(1000)], rel=1e-11)
    want = [1.0]
    for p, q in zip(ts, ts[1:]):
        want.append(want[-1] / (1 - 0.001 * (q - p)))
    assert values == pytest.approx(want, rel=4 * 1000 * 2.0**-53)


@pytest.mark.parametrize("alpha", ["2", "2.0000000001"])
def test_nabla_step_within_the_margin_is_a_regressivity_failure(capsys, alpha):
    code, _, err = _run(capsys, ["eval", "--family", "nabla", "--alpha", alpha,
                                 "--scale", "uniform(0,0.5,4)"])
    assert code == EXIT_REGRESSIVITY
    assert err.startswith("tscale: regressivity failure: 1 - mu*alpha = ")
    assert err.endswith(" at t=0.0\n")


@pytest.mark.parametrize(
    "scale, step",
    [
        ("interval(0,2)+points(2.3,2.6)+interval(3,5)", "1e-3"),
        ("uniform(0,1e-3,1000)", "0.1"),
        ("points(0,0.1,0.35,0.5,1.2)", "0.1"),
    ],
)
def test_exact_solve_equals_exact_eval(capsys, scale, step):
    common = ["--scale", scale, "--dense-step", step, "--alpha=-0.5,0.25", "--t0", "0.5"]
    code, solved, _ = _run(capsys, ["solve", "--scheme", "exact", *common])
    assert code == EXIT_OK
    code, evaluated, _ = _run(capsys, ["eval", "--family", "exact", *common])
    assert code == EXIT_OK
    pairs = list(zip(solved.splitlines()[1:], evaluated.splitlines()[1:]))
    assert len(pairs) == len(evaluated.splitlines()) - 1 > 1
    for a, b in pairs:
        ta, *xa = a.split(",")
        tb, *xb = b.split(",")
        u, v = complex(*map(float, xa)), complex(*map(float, xb))
        assert ta == tb and abs(u - v) <= 1e-12 * abs(v)


def test_exact_hyperbolic_overflow_exits_4(capsys):
    code, _, err = _run(capsys, ["identity", "--identity", "pythagorean", "--family", "exact",
                                 "--kind", "hyp", "--alpha", "1000", "--scale", "uniform(0,1,3)"])
    assert (code, err) == (EXIT_TOLERANCE, "tscale: exponential overflows at exponent (1000+0j)\n")


def test_key_error_is_not_a_config_error(monkeypatch):
    def broken(config):
        raise KeyError("internal")

    monkeypatch.setitem(cli._COMMANDS, "eval", broken)
    with pytest.raises(KeyError):
        main(["eval", "--scale", "uniform(0,0.1,3)"])


def test_installed_script_rejects_nan_t0_without_traceback():
    proc = _run_script("solve", "--scale", "uniform(0,0.1,3)", "--t0", "nan")
    assert proc.returncode == EXIT_CONFIG
    assert proc.stdout == "" and proc.stderr == "tscale: t0 must be finite, got nan\n"


# -- defaults: RunConfig holds every one -------------------------------------------


def _parsed(parser, argv):
    try:
        return vars(parser.parse_args(argv))
    except ValueError as exc:
        return "error", str(exc)


def test_one_parser_parses_as_a_fresh_one_each_time():
    """build_parser builds the parser once per process, and parse_args
    leaves it as it was, after errors too."""
    assert cli.build_parser() is cli.build_parser()
    argvs = [
        ["eval", "--scale", "uniform(0,1e-3,10)", "--alpha=-0.5,0.25", "--t0", "-1e-3"],
        ["eval", "--family", "bogus"],
        ["solve", "--scheme", "exact", "--x0", "3", "--range", "0,1"],
        ["identity"],
        ["identity", "--identity", "semigroup", "--family", "hilger", "--omega", "2"],
        ["converge", "--eps-list", "0.5,0.25", "--alpha", "2.5j"],
        ["converge", "--target-t", "2"],
        [],
        ["eval", "--tol", "1e-9"],
    ]
    for argv in argvs * 2:
        assert _parsed(cli.build_parser(), argv) == _parsed(cli.build_parser.__wrapped__(), argv)


@pytest.mark.parametrize(
    "argv",
    [["eval"], ["solve"], ["identity", "--identity", "delbis"], ["converge"]],
)
def test_omitted_options_take_runconfig_defaults(argv):
    ns = cli.build_parser().parse_args(argv)
    given = {"command": argv[0], **({"identity": "delbis"} if len(argv) > 1 else {})}
    assert vars(ns) == given
    assert cli.RunConfig(**vars(ns)) == cli.RunConfig(**given)


@pytest.mark.parametrize(
    "argv",
    [
        ["eval", "--scale", "interval(0,1)", "--t0", "0.5", "--range", "0,1",
         "--dense-step", "0.2", "--tol", "1e-9", "--format", "json", "--out", "x",
         "--family", "hilger", "--alpha", "2,1"],
        ["solve", "--scale", "interval(0,1)", "--t0", "0.5", "--range", "0,1",
         "--dense-step", "0.2", "--tol", "1e-9", "--format", "json", "--out", "x",
         "--scheme", "exact", "--alpha", "2,1", "--x0", "3"],
        ["identity", "--scale", "interval(0,1)", "--t0", "0.5", "--range", "0,1",
         "--dense-step", "0.2", "--tol", "1e-9", "--format", "json", "--out", "x",
         "--identity", "semigroup", "--family", "hilger", "--kind", "hyp",
         "--alpha", "2,1", "--beta", "3", "--omega", "4"],
        ["converge", "--family", "hilger", "--alpha", "2,1", "--target-t", "2",
         "--eps-list", "0.5,0.25", "--tol", "1e-9", "--format", "json", "--out", "x"],
    ],
)
def test_every_option_sets_a_runconfig_field(argv):
    ns = cli.build_parser().parse_args(argv)
    config = cli.RunConfig(**vars(ns))
    defaults = cli.RunConfig(command=argv[0])
    changed = {k for k in vars(ns) if getattr(config, k) != getattr(defaults, k)}
    assert changed == set(vars(ns)) - {"command"}
