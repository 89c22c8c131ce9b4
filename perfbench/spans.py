"""Span tracing installed from outside the program.

A :class:`Tracer` replaces public functions and methods of the ``admmq``
modules with wrappers that time each call.  Spans nest: a wrapper called
while another is running is that span's child, so every span knows how much
of its duration its children covered (its self time is the rest).  Spans are
kept in memory; the first ``LOG_LIMIT`` are also kept one by one, with their
parent, and written out by :meth:`Tracer.write_log` when the run ends.

Counters (iterations, rows, computed flops and bytes) are taken at the same
boundaries, from the arguments and results of the wrapped calls.

Nothing under ``src/`` knows about this module.  A target the program no
longer has is skipped, so a later refactor of the program leaves the
benchmark running; the metrics of a skipped target read 0 and are listed in
:attr:`Tracer.missing`.
"""

from __future__ import annotations

import contextlib
import json
import sys
from collections import defaultdict
from time import perf_counter

# Solver methods, in the order the metrics list them.
METHODS = ("admm-q", "iadmm-q", "admm-r", "admm-s", "pgd", "gd-proj")
ITERATING = ("admm-q", "iadmm-q", "admm-r", "admm-s", "pgd")
# Spans kept one by one (with their parent) for the span log; all spans
# are counted in the per-name totals.
LOG_LIMIT = 200_000
# A run counts as frozen when y stays unchanged for at least this share of
# its budget (2900 of 3000 iterations).
FROZEN_SHARE = 29 / 30

STEP_FUNCTIONS = {
    "admm_q_step": "admm-q",
    "iadmm_q_step": "iadmm-q",
    "admm_r_step": "admm-r",
    "admm_s_step": "admm-s",
    "pgd_step": "pgd",
    "gd_then_project": "gd-proj",
}


class _Stat:
    __slots__ = ("calls", "total", "child")

    def __init__(self):
        self.calls = 0
        self.total = 0.0
        self.child = 0.0


def _arg(args, kwargs, index, name):
    if name in kwargs:
        return kwargs[name]
    return args[index] if len(args) > index else None


class Tracer:
    """Wraps admmq's public functions; records spans and counters."""

    def __init__(self, run_only: bool = False):
        self.stats: dict[str, _Stat] = defaultdict(_Stat)
        self.count: dict[str, float] = defaultdict(float)
        self.log: list[tuple] = []
        self.run_only = run_only
        self.missing: list[str] = []
        self._stack: list[list] = []  # [span id, child seconds] per open span
        self._next_id = 0
        self._patches: list[tuple] = []

    # -- spans -------------------------------------------------------------

    def _enter(self):
        sid = self._next_id
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else -1
        frame = [sid, 0.0]
        self._stack.append(frame)
        return sid, parent, frame, perf_counter()

    def _exit(self, name, sid, parent, frame, t0):
        t1 = perf_counter()
        self._stack.pop()
        d = t1 - t0
        if self._stack:
            self._stack[-1][1] += d
        st = self.stats[name]
        st.calls += 1
        st.total += d
        st.child += frame[1]
        if len(self.log) < LOG_LIMIT:
            self.log.append((sid, parent, name, t0, t1))
        return d

    @contextlib.contextmanager
    def span(self, name: str):
        """A span recorded by the benchmark itself around a group of calls."""
        entry = self._enter()
        try:
            yield
        finally:
            self._exit(name, *entry)

    def wrap(self, name: str, fn, after=None):
        """``fn`` timed under ``name``; ``after(args, kwargs, result, exc, seconds)``
        runs once the call has returned or raised."""

        def wrapper(*args, **kwargs):
            entry = self._enter()
            try:
                out = fn(*args, **kwargs)
            except Exception as exc:
                d = self._exit(name, *entry)
                if after is not None:
                    after(args, kwargs, None, exc, d)
                raise
            d = self._exit(name, *entry)
            if after is not None:
                after(args, kwargs, out, None, d)
            return out

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ------------------------------------------------------

    def _patch_function(self, module, attr: str, name: str, after=None):
        """Replace ``module.attr`` in every admmq module that imported it."""
        original = getattr(module, attr, None)
        if original is None:
            self.missing.append(name)
            return
        wrapper = self.wrap(name, original, after)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "admmq" or mod_name.startswith("admmq.")):
                continue
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, key, original))
                    setattr(mod, key, wrapper)

    def _patch_method(self, cls, attr: str, name: str, after=None):
        original = cls.__dict__.get(attr, getattr(cls, attr, None))
        if original is None:
            self.missing.append(name)
            return
        self._patches.append((cls, attr, cls.__dict__.get(attr)))
        setattr(cls, attr, self.wrap(name, original, after))

    def install(self):
        """Install the wrappers; ``run_only`` wraps ``solvers.run`` alone."""
        from admmq import analysis, cli, experiments, objectives, sets, solvers

        self._patch_function(solvers, "run", "solvers.run", self._after_run)
        if self.run_only:
            return self
        dps = sets.DiscreteProductSet
        self._patch_method(dps, "project", "sets.project")
        self._patch_method(dps, "project_many", "sets.project_many", self._rows("project_many"))
        self._patch_method(dps, "enumerate_members", "sets.enumerate_members", self._after_enum)
        self._patch_method(dps, "soft_indicator", "sets.soft_indicator")
        self._patch_method(dps, "contains", "sets.contains")

        for cls in (objectives.QuadraticObjective, objectives.LogisticObjective):
            self._patch_method(cls, "__init__", "objectives.construct")
            self._patch_method(cls, "value", "objectives.value")
            self._patch_method(cls, "gradient", "objectives.gradient")
            self._patch_method(cls, "value_many", "objectives.value_many", self._rows("value_many"))
            self._patch_method(
                cls, "gradient_many", "objectives.gradient_many", self._rows("gradient_many")
            )
        self._patch_function(objectives, "synthetic_logistic", "objectives.synthetic_logistic")

        self._patch_function(solvers, "build_x_update", "solvers.build_x_update", self._after_build)
        self._patch_function(solvers, "initial_state", "solvers.initial_state")
        self._patch_function(solvers, "augmented_lagrangian", "solvers.augmented_lagrangian")
        for attr, method in STEP_FUNCTIONS.items():
            self._patch_function(solvers, attr, f"solvers.step.{method}")

        self._patch_function(analysis, "is_rho_stationary", "analysis.is_rho_stationary")
        self._patch_function(analysis, "brute_force_minimize", "analysis.brute_force_minimize")
        self._patch_function(
            analysis,
            "enumerate_stationary_points",
            "analysis.enumerate_stationary_points",
            self._after_stationary,
        )

        self._patch_function(experiments, "generate_instance", "experiments.generate_instance")
        self._patch_function(
            experiments, "run_protocol", "experiments.run_protocol", self._after_protocol
        )

        self._patch_function(cli, "main", "cli.main")
        self._patch_function(cli, "cmd_solve", "cli.solve")
        self._patch_function(cli, "cmd_generate", "cli.generate")
        # the one private target: the CLI's JSON parse plus from_dict
        self._patch_function(cli, "_load_instance", "cli.load_instance")
        return self

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            if original is None:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._patches.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # -- counters ----------------------------------------------------------

    def _after_run(self, args, kwargs, result, exc, seconds):
        method = _arg(args, kwargs, 0, "method")
        config = _arg(args, kwargs, 3, "config")
        budget = getattr(config, "max_iters", 0)
        if method == "gd-proj":
            budget = min(budget, 1)
        c = self.count
        c[f"run.runs.{method}"] += 1
        c[f"run.s.{method}"] += seconds
        if exc is not None:
            iters = max(int(getattr(exc, "iteration", 0) or 0), 0)
            c["run.diverged" if type(exc).__name__ == "DivergenceError" else "run.errors"] += 1
        else:
            iters = budget
            stable = int(getattr(result, "y_stable_iters", 0))
            c[f"run.budget.{method}"] += budget
            c[f"run.stable.{method}"] += stable
            if method in ITERATING and budget > 0 and stable >= FROZEN_SHARE * budget:
                c[f"run.frozen.{method}"] += 1
        c[f"run.iters.{method}"] += iters

    def _after_build(self, args, kwargs, updater, exc, seconds):
        if updater is None or not hasattr(updater, "solve"):
            return
        from admmq.objectives import LogisticObjective, QuadraticObjective

        f = _arg(args, kwargs, 0, "f")
        inner = _arg(args, kwargs, 2, "inner")
        gamma = _arg(args, kwargs, 3, "gamma") or 0.0
        mode = getattr(inner, "mode", "auto")
        # Flops and bytes are computed from the sizes, not measured:
        # a Cholesky solve is two triangular solves over the d x d factor;
        # a gradient evaluation is two passes over Q or the data matrix.
        if isinstance(f, QuadraticObjective):
            d = f.dim
            per_grad = (2.0 * d * d, 8.0 * d * d)
            cholesky = gamma == 0 and mode in ("auto", "closed-form")
        elif isinstance(f, LogisticObjective):
            n, d = f.features.shape
            per_grad = (4.0 * n * d, 16.0 * n * d)
            cholesky = False
        else:
            per_grad, cholesky = (0.0, 0.0), False
        count = self.count

        def after_solve(a, k, out, e, s):
            if e is not None:
                return
            inner_iters = int(out[1])
            count["x_update.inner_iters"] += inner_iters
            if cholesky:
                count["x_update.flops"] += per_grad[0]
                count["x_update.bytes"] += per_grad[1]
            else:  # one gradient per inner iteration plus the accepting one
                count["x_update.flops"] += (inner_iters + 1) * per_grad[0]
                count["x_update.bytes"] += (inner_iters + 1) * per_grad[1]

        updater.solve = self.wrap("solvers.x_update", updater.solve, after_solve)

    def _rows(self, name: str):
        """Counter of the rows an (n, dim) batch call processed."""

        def after(args, kwargs, out, exc, seconds):
            if out is not None:
                self.count[f"rows.{name}"] += len(out)

        return after

    def _after_enum(self, args, kwargs, out, exc, seconds):
        if out is not None:
            self.count["enum.rows"] += out.shape[0]
            self.count["enum.bytes"] += out.nbytes

    def _after_stationary(self, args, kwargs, out, exc, seconds):
        if out is not None:
            self.count["stationary_points"] += len(out)

    def _after_protocol(self, args, kwargs, out, exc, seconds):
        if out is not None:
            self.count["protocol.tasks"] += len(out.records)

    # -- output ------------------------------------------------------------

    def write_log(self, path):
        """Write the kept spans as JSON lines: id, parent, name, start, end."""
        with open(path, "w") as fh:
            for sid, parent, name, t0, t1 in self.log:
                fh.write(json.dumps([sid, parent, name, t0, t1]) + "\n")


def _per_call(tracer: Tracer, name: str, scale: float = 1.0) -> float:
    st = tracer.stats.get(name)
    return st.total / st.calls * scale if st is not None and st.calls else 0.0


def _calls(tracer: Tracer, name: str) -> int:
    st = tracer.stats.get(name)
    return st.calls if st is not None else 0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(runs: Tracer, full: Tracer, extra: dict) -> dict:
    """Per-layer metrics as ``{name: (value, unit)}``.

    ``runs`` is a tracer that wrapped ``solvers.run`` alone, so its per-run
    timings carry no cost from inner wrappers; ``full`` wrapped every layer.
    ``extra`` holds the figures measured by the workload itself: worker
    scaling, worker mismatch and tracing overhead.
    """
    rc = runs.count
    fc = full.count
    st = full.stats
    m: dict[str, tuple[float, str]] = {}

    m["sets.project.calls"] = (_calls(full, "sets.project"), "count")
    m["sets.project.us_per_call"] = (_per_call(full, "sets.project", 1e6), "us")
    pm = st.get("sets.project_many")
    m["sets.project_many.rows_per_s"] = (
        _ratio(fc["rows.project_many"], pm.total if pm else 0.0),
        "1/s",
    )
    m["sets.enumerate_members.s"] = (_per_call(full, "sets.enumerate_members"), "s")
    m["sets.enumerate_members.computed_bytes"] = (
        _ratio(fc["enum.bytes"], _calls(full, "sets.enumerate_members")),
        "B",
    )

    m["objectives.gradient.calls"] = (_calls(full, "objectives.gradient"), "count")
    m["objectives.gradient.us_per_call"] = (_per_call(full, "objectives.gradient", 1e6), "us")
    for name in ("value_many", "gradient_many"):
        span = st.get(f"objectives.{name}")
        m[f"objectives.{name}.rows_per_s"] = (
            _ratio(fc[f"rows.{name}"], span.total if span else 0.0),
            "1/s",
        )
    m["objectives.construct.s"] = (_per_call(full, "objectives.construct"), "s")

    m["solvers.run.iters"] = (sum(rc[f"run.iters.{k}"] for k in METHODS), "count")
    for k in METHODS:
        m[f"solvers.run.us_per_iter.{k}"] = (
            _ratio(rc[f"run.s.{k}"], rc[f"run.iters.{k}"]) * 1e6,
            "us",
        )
    run_span = st.get("solvers.run")
    m["solvers.run.self_share"] = (
        _ratio(run_span.total - run_span.child, run_span.total) if run_span else 0.0,
        "ratio",
    )
    for k in METHODS:
        m[f"solvers.step.us_per_call.{k}"] = (_per_call(full, f"solvers.step.{k}", 1e6), "us")
    m["solvers.build_x_update.ms"] = (_per_call(full, "solvers.build_x_update", 1e3), "ms")
    xu_calls = _calls(full, "solvers.x_update")
    m["solvers.x_update.us_per_call"] = (_per_call(full, "solvers.x_update", 1e6), "us")
    m["solvers.x_update.inner_iters"] = (fc["x_update.inner_iters"], "count")
    m["solvers.x_update.computed_flops"] = (_ratio(fc["x_update.flops"], xu_calls), "flop")
    m["solvers.x_update.computed_bytes"] = (_ratio(fc["x_update.bytes"], xu_calls), "B")
    m["solvers.run.trailing_stable_frac"] = (
        _ratio(
            sum(rc[f"run.stable.{k}"] for k in ITERATING),
            sum(rc[f"run.budget.{k}"] for k in ITERATING),
        ),
        "ratio",
    )
    for k in ITERATING:
        m[f"solvers.run.trailing_stable_frac.{k}"] = (
            _ratio(rc[f"run.stable.{k}"], rc[f"run.budget.{k}"]),
            "ratio",
        )
    for k in METHODS:
        m[f"solvers.run.runs.{k}"] = (rc[f"run.runs.{k}"], "count")
    for k in ITERATING:
        m[f"solvers.run.frozen_runs.{k}"] = (rc[f"run.frozen.{k}"], "count")
    m["solvers.run.diverged"] = (rc["run.diverged"], "count")

    m["analysis.brute_force_minimize.s"] = (_per_call(full, "analysis.brute_force_minimize"), "s")
    m["analysis.enumerate_stationary_points.s"] = (
        _per_call(full, "analysis.enumerate_stationary_points"),
        "s",
    )
    m["analysis.is_rho_stationary.us_per_call"] = (
        _per_call(full, "analysis.is_rho_stationary", 1e6),
        "us",
    )
    m["analysis.stationary_points"] = (fc["stationary_points"], "count")

    m["experiments.generate_instance.ms"] = (
        _per_call(full, "experiments.generate_instance", 1e3),
        "ms",
    )
    m["experiments.run_protocol.tasks"] = (fc["protocol.tasks"], "count")
    m["experiments.run_protocol.scaling_eff"] = (extra.get("scaling_eff", 0.0), "ratio")
    m["experiments.aggregate.s"] = (_per_call(full, "experiments.aggregate"), "s")
    m["experiments.worker_mismatch"] = (extra.get("worker_mismatch", 0), "count")

    m["cli.load_instance.s"] = (_per_call(full, "cli.load_instance"), "s")
    # the solve span minus its children: load, run and the stationarity check
    solve = st.get("cli.solve")
    m["cli.solve.overhead_ms"] = (
        _ratio(solve.total - solve.child, solve.calls) * 1e3 if solve else 0.0,
        "ms",
    )
    m["trace.overhead_frac"] = (extra.get("overhead_frac", 0.0), "ratio")
    return m
