"""Layer spans recorded from outside the package.

Wrappers are installed on the class attributes of ``TimeScale`` and
``Coefficient`` and on the module globals of every ``tscale`` module that
holds the wrapped function (``trig`` imports ``_grid_log_integrals``, the
package re-exports ``exp_cayley``, and so on), then removed again. Each
wrapped call is a span with a start, an end and the enclosing span as its
parent. Spans are folded into per-layer totals as they close (calls and
self time, which is the duration minus the time of the child spans), so
memory stays flat however many spans a pass makes.
"""

from __future__ import annotations

import sys
import time
from contextlib import contextmanager

# Layer name -> attributes whose calls open a span of that layer.
# "module:Class.attr" names a class attribute, "module:func" a function.
LAYERS = {
    "timescale.locate": ("timescale:TimeScale._locate",),
    "timescale.jump": ("timescale:TimeScale.sigma", "timescale:TimeScale.rho",
                       "timescale:TimeScale.mu", "timescale:TimeScale.in_kappa"),
    "timescale.scan": ("timescale:TimeScale.scattered_points",
                       "timescale:TimeScale.dense_segments"),
    "timescale.integral": ("timescale:TimeScale.delta_integral",),
    "timescale.simpson": ("timescale:_adaptive_simpson",),
    "timescale.simpson.step": ("timescale:_simpson_step",),
    "timescale.grid": ("timescale:TimeScale.make_grid",),
    "transforms.coeff": ("transforms:Coefficient.__call__", "transforms:Coefficient.dense"),
    "transforms.cylinder": ("transforms:xi", "transforms:zeta", "transforms:zeta_inv",
                            "transforms:cayley"),
    "exponential.validate": ("exponential:_validate_regressive",),
    "exponential.accumulate": ("exponential:_grid_log_integrals",),
    "exponential.grid": ("exponential:exp_evaluate_grid",),
    "exponential.pointwise": ("exponential:exp_hilger", "exponential:exp_cayley"),
    "trig.grid": ("trig:hyp_grid", "trig:trig_grid"),
    "trig.residual": ("trig:pythagorean_residual", "trig:derivative_residual"),
    "dynamic.validate": ("dynamic:_validate_scheme",),
    "dynamic.solve": ("dynamic:solve_first_order",),
    "dynamic.residual": ("dynamic:oscillator_residual_cayley",
                         "dynamic:oscillator_residual_exact",
                         "dynamic:delbis_relation_residual"),
    "cli.parse": ("cli:parse_scale", "cli:build_parser", "cli:_Parser.parse_args"),
    "cli.format": ("cli:_fmt17", "cli:_csv", "cli:_json_text"),
    "cli.command": ("cli:cmd_eval", "cli:cmd_solve", "cli:cmd_identity", "cli:cmd_converge"),
}

_ABSENT = object()


class Tracer:
    """Per-layer span totals: name -> [calls, self time]."""

    def __init__(self):
        self.totals: dict[str, list] = {name: [0, 0.0] for name in LAYERS}
        self.job_calls: dict[str, dict[str, int]] = {}  # job -> layer -> calls
        self._stack: list[list[float]] = []
        self._patches: list[tuple[object, str, object]] = []

    def wrap(self, layer: str, fn):
        totals = self.totals[layer]
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [0.0]  # time of child spans
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += dur
                totals[0] += 1
                totals[1] += dur - frame[0]

        traced.__wrapped__ = fn
        return traced

    @contextmanager
    def job(self, name: str):
        """Root span of one job; records the calls each layer made in it."""
        before = {layer: t[0] for layer, t in self.totals.items()}
        self._stack.append([0.0])
        try:
            yield
        finally:
            self._stack.pop()
            self.job_calls[name] = {
                layer: t[0] - before[layer] for layer, t in self.totals.items()
            }

    # -- installation ----------------------------------------------------------

    def install(self) -> None:
        if self._patches:
            raise RuntimeError("tracer already installed")
        try:
            for layer, targets in LAYERS.items():
                for target in targets:
                    self._install_one(layer, target)
        except BaseException:
            self.uninstall()
            raise

    def _install_one(self, layer: str, target: str) -> None:
        module_name, attr = target.split(":")
        module = sys.modules[f"tscale.{module_name}"]
        if "." in attr:
            cls_name, name = attr.split(".")
            owner = getattr(module, cls_name)
            original = owner.__dict__.get(name, _ABSENT)
            if isinstance(original, property):
                getter = original.fget
                patched = property(lambda obj: self.wrap(layer, getter(obj)))
            else:
                patched = self.wrap(layer, getattr(owner, name))
            self._patch(owner, name, original, patched)
            return
        original = getattr(module, attr)
        patched = self.wrap(layer, original)
        for mod in list(sys.modules.values()):
            mod_name = getattr(mod, "__name__", "")
            if mod_name != "tscale" and not mod_name.startswith("tscale."):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patch(mod, key, original, patched)
                elif isinstance(value, dict):  # dispatch tables such as cli._COMMANDS
                    for k, v in list(value.items()):
                        if v is original:
                            self._patch(value, k, original, patched)

    def _patch(self, owner, name, original, patched) -> None:
        if isinstance(owner, dict):
            owner[name] = patched
        else:
            setattr(owner, name, patched)
        self._patches.append((owner, name, original))

    def uninstall(self) -> None:
        while self._patches:
            owner, name, original = self._patches.pop()
            if isinstance(owner, dict):
                owner[name] = original
            elif original is _ABSENT:
                delattr(owner, name)
            else:
                setattr(owner, name, original)

    @property
    def installed(self) -> bool:
        return bool(self._patches)

    def span_count(self) -> int:
        return sum(t[0] for t in self.totals.values())
