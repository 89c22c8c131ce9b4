"""The benchmark's four workloads.

Each workload draws its inputs from a fixed pool of cases, so that every
output can be checked against a reference stored in ``reference/``.  The
seed picks which pool members a run uses and in what order; the same seed
gives the same inputs.

An *operation* is one solver run (a sweep task, a CLI solve, a logistic
run) or one oracle call.  A *unit* is what one latency sample times: one
sweep of one instance with its output files, one CLI solve, one logistic
run, or one verification of one boxed instance (two oracle sweeps over every
member plus two stationarity checks of the argmin).  *Members* count the
set members a unit evaluates: one per solver iteration (the objective at y),
and every enumerated member for the oracles.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import itertools
import json
import math
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from admmq import analysis, cli, experiments, objectives, sets, solvers

REL_TOL = 1e-9


@dataclass(frozen=True)
class Unit:
    key: str  # the reference case
    ops: int
    args: tuple


def rel_close(a, b, tol: float = REL_TOL) -> bool:
    if a is None or b is None:
        return a is b
    if math.isnan(a) or math.isnan(b):
        return math.isnan(a) and math.isnan(b)
    return abs(a - b) <= tol * max(abs(a), abs(b), 1e-12)


def _rng(seed: int) -> np.random.Generator:
    return np.random.default_rng(seed % 2**63)


def _cycle(rng: np.random.Generator, items: list):
    """Endless walk through ``items``, reshuffled every round."""
    while True:
        for i in rng.permutation(len(items)):
            yield items[i]


def _span(tracer, name: str):
    return tracer.span(name) if tracer is not None else contextlib.nullcontext()


class Workload:
    name = ""
    sizes: dict = {}
    uses_pool = False  # runs a process pool whose worker count can vary
    cycle = 1  # a run ends on a multiple of this many units
    calibration = ""  # the calibrate.py kernel that shares its bottleneck

    def __init__(self, size: str, seed: int, workdir: Path, reference: dict | None):
        self.p = self.sizes[size]
        self.seed = seed
        self.rng = _rng(seed)
        self.workdir = workdir
        self.reference = reference

    # -- to be provided by each workload ------------------------------------

    def setup(self):
        """Build every input from scratch; timed as set-up."""
        raise NotImplementedError

    def units(self):
        """The seeded, endless sequence of units."""
        raise NotImplementedError

    def all_units(self) -> list[Unit]:
        """Every case of the pool members this object covers."""
        raise NotImplementedError

    def execute(self, unit: Unit, tracer=None, workers: int = 1):
        raise NotImplementedError

    def expected(self, unit: Unit, out) -> dict:
        """The reference record of an output (see make_reference.py)."""
        raise NotImplementedError

    def compare(self, unit: Unit, out, ref: dict) -> list[str]:
        """Mismatches against the reference and the workload's invariants."""
        raise NotImplementedError

    def describe(self) -> dict:
        """The inputs, for the detail line."""
        return dict(self.p)

    def output_rows(self, out) -> list[str]:
        """Rows of an output that must not depend on the worker count."""
        return []

    # -- shared ---------------------------------------------------------------

    @classmethod
    def reference_objects(cls, size: str, workdir: Path) -> list["Workload"]:
        """Objects that together cover every pool case (for make_reference)."""
        return [cls(size, 0, workdir, None)]

    def members(self, unit: Unit) -> int:
        return int(self.reference["cases"].get(unit.key, {}).get("members", 0))

    def check(self, unit: Unit, out) -> int:
        """Failed operations of one executed unit; reasons go to stderr."""
        ref = self.reference["cases"].get(unit.key)
        problems = ["no reference case"] if ref is None else self.compare(unit, out, ref)
        for p in problems:
            print(f"check failed: {self.name} {unit.key}: {p}", file=sys.stderr)
        return min(len(problems), unit.ops)

    @property
    def trace_units(self) -> int:
        return self.p["trace_units"]


class OneMember(Workload):
    """A workload whose run uses one pool member, picked by the seed."""

    def __init__(self, size, seed, workdir, reference, member=None):
        super().__init__(size, seed, workdir, reference)
        pool = self.p["pool"]
        self.member = member if member is not None else pool[self.rng.integers(len(pool))]

    @classmethod
    def reference_objects(cls, size, workdir):
        return [cls(size, 0, workdir, None, member=m) for m in cls.sizes[size]["pool"]]

    def describe(self):
        return {**super().describe(), "member": self.member, "L_f": self.lipschitz}


# ---------------------------------------------------------------------------


class SweepD16(Workload):
    """``run_protocol`` sweeps of (8Z)^16 instances, written out as ``admmq sweep`` does."""

    name = "sweep-d16"
    calibration = "admm-d16"
    uses_pool = True
    algorithms = ("admm-q", "admm-r", "admm-s", "pgd", "gd-proj")
    sizes = {
        "full": {
            # few instances, so that every run holds whole rounds of them
            "pool": (1, 2, 3, 4),
            "d": 16,
            # rho 0.1 and 10 lie below L_f (about 100 to 400 here), 1e3 and
            # 1e5 above it: the divergent and the frozen regime
            "protocol": dict(
                n_inits=1,
                iters_admm=3000,
                iters_pgd=10000,
                window=50,
                rho_grid=(1e-1, 1e1, 1e3, 1e5),
                beta_grid=(1.0,),
                p_grid=(0.9,),
                seed=0,
            ),
            "trace_units": 2,
        },
        "tiny": {
            "pool": (1, 2),
            "d": 16,
            "protocol": dict(
                n_inits=1,
                iters_admm=200,
                iters_pgd=300,
                window=20,
                rho_grid=(1e1, 1e3),
                beta_grid=(1.0,),
                p_grid=(0.9,),
                seed=0,
            ),
            "trace_units": 1,
        },
    }

    def setup(self):
        self.protocol = experiments.ProtocolSpec(**self.p["protocol"])
        self.instances = {
            s: experiments.generate_instance(
                experiments.InstanceSpec(d=self.p["d"], v=8.0, sigma_q_sq=30.0, seed=s)
            )
            for s in self.p["pool"]
        }
        self.n_tasks = sum(
            len(self.protocol.grid_for(a)) * self.protocol.n_inits for a in self.algorithms
        )

    @property
    def cycle(self) -> int:
        return len(self.p["pool"])

    def _unit(self, s) -> Unit:
        return Unit(key=str(s), ops=self.n_tasks, args=(s,))

    def units(self):
        for s in _cycle(self.rng, list(self.p["pool"])):
            yield self._unit(s)

    def all_units(self):
        return [self._unit(s) for s in self.p["pool"]]

    def describe(self):
        return {**super().describe(), "algorithms": self.algorithms, "tasks": self.n_tasks}

    def execute(self, unit, tracer=None, workers=1):
        inst = self.instances[unit.args[0]]
        result = experiments.run_protocol(inst, self.algorithms, self.protocol, max_workers=workers)
        out_dir = self.workdir / f"sweep-w{workers}"
        with _span(tracer, "experiments.aggregate"):
            self._write(result, out_dir)
        return result, out_dir

    def _write(self, result, out_dir: Path):
        """The files ``admmq sweep`` writes: runs.csv, summary.json, histograms."""
        out_dir.mkdir(parents=True, exist_ok=True)
        merged = experiments.SweepResult.merge([result])
        merged.to_csv(out_dir / "runs.csv")
        merged.to_summary_json(out_dir / "summary.json")
        for i, alg_a in enumerate(self.algorithms):
            for alg_b in self.algorithms[i + 1 :]:
                objs_a = merged.best_objectives(alg_a)
                objs_b = merged.best_objectives(alg_b)
                shared = sorted(set(objs_a) & set(objs_b))
                if not shared:
                    continue
                edges, counts = experiments.pairwise_histogram(
                    {k: objs_a[k] for k in shared}, {k: objs_b[k] for k in shared}
                )
                experiments.write_histogram_csv(
                    edges, counts, out_dir / f"hist_{alg_a}_minus_{alg_b}.csv"
                )

    def output_rows(self, out):
        with open(out[1] / "runs.csv") as fh:
            return fh.read().splitlines()

    def expected(self, unit, out):
        result, _ = out
        return {
            "rows": [
                [r.algorithm, r.hyper, r.init, r.best_objective, r.diverged]
                for r in result.records
            ],
            "best": {alg: agg.hyper for (_, alg), agg in sorted(result.best.items())},
        }

    def compare(self, unit, out, ref):
        result, out_dir = out
        problems = []
        rows = ref["rows"]
        if len(result.records) != len(rows):
            return [f"{len(result.records)} records, reference has {len(rows)}"] * unit.ops
        for r, (alg, hyper, init, obj, diverged) in zip(result.records, rows):
            where = f"{r.algorithm} {r.hyper} init {r.init}"
            if (r.algorithm, r.hyper, r.init) != (alg, hyper, init):
                problems.append(f"task order differs at {where}")
            elif r.diverged != diverged:
                problems.append(f"{where}: diverged={r.diverged}, reference {diverged}")
            elif not rel_close(r.best_objective, obj):
                problems.append(f"{where}: objective {r.best_objective!r}, reference {obj!r}")
        best = {alg: agg.hyper for (_, alg), agg in sorted(result.best.items())}
        if best != ref["best"]:
            problems.append(f"best grid points {best}, reference {ref['best']}")
        with open(out_dir / "runs.csv") as fh:
            if sum(1 for _ in fh) != len(rows) + 1:
                problems.append("runs.csv row count differs from the records")
        return problems


class SolveD1024(OneMember):
    """In-process ``admmq solve`` calls on one d=1024 instance file."""

    name = "solve-d1024"
    calibration = "cholesky-d1024"
    methods = ("admm-q", "admm-r", "admm-s", "pgd")
    # One cycle of (method, half): every method meets both halves, and the
    # halves alternate.  "small" is rho < L_f, forced past the CLI's gate
    # (pgd diverges there); "large" is rho >= 1.5 L_f, which passes it.
    order = (
        ("admm-q", "small"),
        ("admm-r", "large"),
        ("admm-s", "small"),
        ("pgd", "large"),
        ("admm-q", "large"),
        ("admm-r", "small"),
        ("admm-s", "large"),
        ("pgd", "small"),
    )
    sizes = {
        "full": {
            "pool": (1, 2, 3),
            "d": 1024,
            "iters": 400,
            "factors": {"small": (0.01, 0.1), "large": (1.5, 10.0)},
            "solve_seeds": (0, 1),
            "trace_units": 8,
        },
        "tiny": {
            "pool": (1,),
            "d": 48,
            "iters": 30,
            "factors": {"small": (0.1,), "large": (1.5,)},
            "solve_seeds": (0,),
            "trace_units": 8,
        },
    }

    def setup(self):
        d, s = self.p["d"], self.member
        self.path = self.workdir / f"instance-d{d}-s{s}.json"
        argv = ["generate", "--d", str(d), "--v", "8", "--sigma-q-sq", "30",
                "--seed", str(s), "--out", str(self.path)]
        if cli.main(argv) != 0:
            raise RuntimeError(f"admmq generate failed: {argv}")
        with open(self.path) as fh:
            inst = experiments.GeneratedInstance.from_dict(json.load(fh))
        self.lipschitz = inst.objective.lipschitz_L

    def _variants(self, half):
        return [(f, s) for f in self.p["factors"][half] for s in self.p["solve_seeds"]]

    def _unit(self, method, factor, solve_seed) -> Unit:
        return Unit(
            key=f"{self.member}/{method}/{factor!r}/{solve_seed}",
            ops=1,
            args=(method, factor, solve_seed),
        )

    def units(self):
        first = int(self.rng.integers(len(self.order)))
        for i in itertools.count(first):
            method, half = self.order[i % len(self.order)]
            variants = self._variants(half)
            factor, solve_seed = variants[self.rng.integers(len(variants))]
            yield self._unit(method, factor, solve_seed)

    def all_units(self):
        return [
            self._unit(m, f, s)
            for m in self.methods
            for half in ("small", "large")
            for f, s in self._variants(half)
        ]

    def execute(self, unit, tracer=None, workers=1):
        method, factor, solve_seed = unit.args
        argv = ["solve", "--instance", str(self.path), "--algorithm", method,
                "--rho", repr(factor * self.lipschitz), "--iters", str(self.p["iters"]),
                "--seed", str(solve_seed), "--format", "json"]
        if factor < 1.0:
            argv.append("--force")
        if method == "admm-r":
            argv += ["--p", "0.9"]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        payload = json.loads(out.getvalue()) if code == 0 else None
        return {"exit": code, "payload": payload, "stderr": err.getvalue()}

    def expected(self, unit, out):
        p = out["payload"] or {}
        return {
            "exit": out["exit"],
            "final_objective": p.get("final_objective"),
            "stationary": p.get("stationary"),
            "converged": p.get("converged"),
        }

    def compare(self, unit, out, ref):
        if out["exit"] != ref["exit"]:
            return [f"exit code {out['exit']}, reference {ref['exit']}: {out['stderr'].strip()}"]
        p = out["payload"]
        if p is None:
            return []  # a divergence the reference records as well
        problems = []
        if not rel_close(p["final_objective"], ref["final_objective"]):
            problems.append(
                f"objective {p['final_objective']!r}, reference {ref['final_objective']!r}"
            )
        for key in ("stationary", "converged"):
            if p[key] != ref[key]:
                problems.append(f"{key}={p[key]}, reference {ref[key]}")
        # the CLI checks stationarity only for points on the set, so a
        # projecting method that reports none returned a y off the set
        if unit.args[0] != "admm-s" and p["stationary"] is None:
            problems.append("returned y is not a member of the set")
        return problems


class LogisticGrid(Workload):
    """iadmm-q and admm-r on synthetic logistic data over grids and binaries.

    Run times differ by a factor of 40 between cases, so a run ends on a
    complete round of all cases: every run then has the same case mix, and
    the seed sets the order.
    """

    name = "logistic-grid"
    calibration = "logistic"
    methods = ("iadmm-q", "admm-r")
    set_names = ("grid16", "binary")
    sizes = {
        "full": {
            # one data set: 12 cases, so that a round takes about 2 s and
            # every run holds many whole rounds
            "pool": (1,),
            "n": 2000,
            "dim": 64,
            "iters": 30,
            "window": 10,
            "factors": (0.01, 0.1, 1.0),
            "solve_seeds": (0,),
            "trace_units": 24,
        },
        "tiny": {
            "pool": (1,),
            "n": 200,
            "dim": 8,
            "iters": 8,
            "window": 4,
            "factors": (0.1, 1.0),
            "solve_seeds": (0,),
            "trace_units": 8,
        },
    }
    gamma = 0.05
    mask_prob = 0.9

    def setup(self):
        dim = self.p["dim"]
        self.objectives = {
            s: objectives.synthetic_logistic(self.p["n"], dim, seed=s) for s in self.p["pool"]
        }
        grid = sets.ExplicitGrid(tuple(np.linspace(-1.0, 1.0, 16)))
        self.sets = {
            "grid16": sets.DiscreteProductSet(coords=(grid,) * dim),
            "binary": sets.binary_set(dim),
        }

    def all_units(self):
        return [
            Unit(key=f"{d}/{m}/{s}/{fac!r}/{seed}", ops=1, args=(d, m, s, fac, seed))
            for d in self.p["pool"]
            for m in self.methods
            for s in self.set_names
            for fac in self.p["factors"]
            for seed in self.p["solve_seeds"]
        ]

    @property
    def cycle(self) -> int:
        return len(self.all_units())

    def units(self):
        yield from _cycle(self.rng, self.all_units())

    def describe(self):
        lipschitz = {s: f.lipschitz_L for s, f in self.objectives.items()}
        return {**super().describe(), "L_f": lipschitz, "cases": self.cycle}

    def execute(self, unit, tracer=None, workers=1):
        data_seed, method, set_name, factor, solve_seed = unit.args
        f = self.objectives[data_seed]
        config = solvers.SolverConfig(
            rho=factor * f.lipschitz_L,
            gamma=self.gamma if method == "iadmm-q" else 0.0,
            mask_prob=self.mask_prob if method == "admm-r" else 1.0,
            max_iters=self.p["iters"],
            window=self.p["window"],
            seed=solve_seed,
            trace_stride=self.p["iters"],
        )
        return solvers.run(method, f, self.sets[set_name], config)

    def expected(self, unit, out):
        return {"best_objective": out.best_objective, "final_objective": out.final_objective}

    def compare(self, unit, out, ref):
        problems = []
        if not rel_close(out.best_objective, ref["best_objective"]):
            problems.append(
                f"objective {out.best_objective!r}, reference {ref['best_objective']!r}"
            )
        y = out.state.y
        if not self.sets[unit.args[2]].contains(y):
            problems.append("returned y is not a member of the set")
        # f(y) from the formula, not from the objective class
        f = self.objectives[unit.args[0]]
        margins = f.labels * (f.features @ y)
        f_y = float(np.mean(np.logaddexp(0.0, -margins)))
        if not rel_close(f_y, out.final_objective):
            problems.append(f"final objective {out.final_objective!r} but f(y)={f_y!r}")
        return problems


class VerifyBox(Workload):
    """Brute-force and stationary-point oracles on boxed d=8 lattices."""

    name = "verify-box"
    calibration = "box-scan"
    sizes = {
        # [-24, 24] holds 7 multiples of 8, so the box has 7^8 = 5 764 801 members
        "full": {"pool": tuple(range(1, 9)), "d": 8, "bound": 24.0, "rho_factor": 0.1,
                 "trace_units": 2},
        "tiny": {"pool": (1, 2), "d": 4, "bound": 24.0, "rho_factor": 0.1, "trace_units": 1},
    }

    def setup(self):
        d, bound = self.p["d"], self.p["bound"]
        self.instances = {
            s: experiments.generate_instance(
                experiments.InstanceSpec(d=d, v=8.0, sigma_q_sq=30.0, seed=s)
            )
            for s in self.p["pool"]
        }
        self.box = sets.uniform_lattice(d, 8.0, -bound, bound)
        self.cardinality = int(self.box.cardinality())

    def _unit(self, s) -> Unit:
        return Unit(key=str(s), ops=4, args=(s,))

    def units(self):
        for s in _cycle(self.rng, list(self.p["pool"])):
            yield self._unit(s)

    def all_units(self):
        return [self._unit(s) for s in self.p["pool"]]

    def members(self, unit):
        return 2 * self.cardinality + 2

    def describe(self):
        return {**super().describe(), "members": self.cardinality}

    def execute(self, unit, tracer=None, workers=1):
        f = self.instances[unit.args[0]].objective
        lf = f.lipschitz_L
        rho = self.p["rho_factor"] * lf
        argmin, value = analysis.brute_force_minimize(f, self.box)
        points = analysis.enumerate_stationary_points(f, self.box, rho)
        at_lf = analysis.is_rho_stationary(f, self.box, argmin, lf).is_stationary
        at_rho = analysis.is_rho_stationary(f, self.box, argmin, rho).is_stationary
        return {"argmin": argmin, "value": value, "points": points, "at_lf": at_lf,
                "at_rho": at_rho}

    @staticmethod
    def _digest(points: np.ndarray) -> str:
        return hashlib.sha256(np.ascontiguousarray(points, dtype=float).tobytes()).hexdigest()

    def expected(self, unit, out):
        return {
            "argmin": out["argmin"].tolist(),
            "value": out["value"],
            "stationary_points": len(out["points"]),
            "points_sha256": self._digest(out["points"]),
            "argmin_stationary_at_L_f": out["at_lf"],
            "argmin_stationary_at_rho": out["at_rho"],
        }

    def compare(self, unit, out, ref):
        problems = []
        argmin, points = out["argmin"], out["points"]
        if argmin.tolist() != ref["argmin"]:
            problems.append(f"argmin {argmin.tolist()}, reference {ref['argmin']}")
        if not rel_close(out["value"], ref["value"]):
            problems.append(f"minimum {out['value']!r}, reference {ref['value']!r}")
        if len(points) != ref["stationary_points"] or self._digest(points) != ref["points_sha256"]:
            problems.append(f"{len(points)} stationary points differ from the reference "
                            f"({ref['stationary_points']})")
        # invariants that hold whatever the reference says
        f = self.instances[unit.args[0]].objective
        if not self.box.contains(argmin):
            problems.append("argmin is not a member of the box")
        value = float(0.5 * argmin @ f.Q @ argmin + f.b @ argmin + f.c)
        if not rel_close(value, out["value"]):
            problems.append(f"minimum {out['value']!r} but f(argmin)={value!r}")
        if not out["at_lf"]:
            problems.append("a global minimizer must be L_f-stationary")
        in_points = bool(np.any(np.all(points == argmin, axis=1))) if len(points) else False
        if out["at_rho"] != in_points:
            problems.append("the two oracles disagree on the argmin's stationarity")
        return problems


WORKLOADS = {cls.name: cls for cls in (SweepD16, SolveD1024, LogisticGrid, VerifyBox)}
