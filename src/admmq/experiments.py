"""Quadratic-lattice benchmark protocol.

Instances are random convex quadratics ``1/2 x'Qx + b'x`` over the unbounded
lattice ``(v Z)^d``, with ``Q = Qt'Qt + qt qt'`` (entries of ``Qt`` standard
normal, entries of ``qt`` centered normal with variance ``sigma_q_sq``).
Each algorithm runs from ``n_inits`` shared seeded starts per grid point;
the recorded score of a run is the best objective over its trailing window.
Grid points are aggregated by median / quartiles over non-divergent runs and
the best grid point per algorithm is selected by median.
"""

from __future__ import annotations

import dataclasses
import json
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .objectives import QuadraticObjective
from .rng import RunRng, derive_seed
from .sets import DiscreteProductSet, uniform_lattice
from .solvers import METHODS, SolverConfig, SolverError, run_lanes

__all__ = [
    "InstanceSpec",
    "GeneratedInstance",
    "generate_instance",
    "ProtocolSpec",
    "RunRecord",
    "GridAggregate",
    "SweepResult",
    "run_protocol",
    "pairwise_histogram",
    "write_histogram_csv",
    "DEFAULT_RHO_GRID",
    "DEFAULT_BETA_GRID",
    "DEFAULT_P_GRID",
]

DEFAULT_RHO_GRID = tuple(10.0**k for k in range(-2, 7))
DEFAULT_BETA_GRID = tuple(10.0 ** (k / 2.0) for k in range(-10, 11))
DEFAULT_P_GRID = (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)


@dataclass(frozen=True)
class InstanceSpec:
    """Parameters of one random quadratic-lattice instance."""

    d: int
    v: float = 8.0
    sigma_q_sq: float = 30.0
    b_scale: Optional[float] = None  # None: sqrt(d * sigma_q_sq)
    seed: int = 0

    def __post_init__(self):
        if self.d < 1:
            raise ValueError("d must be positive")
        if not (0 < self.v < math.inf):
            raise ValueError(f"v must be positive and finite, got {self.v}")
        if not (0 <= self.sigma_q_sq < math.inf):
            raise ValueError(f"sigma_q_sq must be non-negative and finite, got {self.sigma_q_sq}")
        if self.b_scale is not None and not math.isfinite(self.b_scale):
            raise ValueError(f"b_scale must be finite, got {self.b_scale}")

    @property
    def effective_b_scale(self) -> float:
        if self.b_scale is not None:
            return float(self.b_scale)
        return math.sqrt(self.d * self.sigma_q_sq)

    def to_dict(self) -> dict:
        return {
            "d": self.d,
            "v": self.v,
            "sigma_q_sq": self.sigma_q_sq,
            "b_scale": self.b_scale,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class GeneratedInstance:
    instance_id: str
    objective: QuadraticObjective
    dset: DiscreteProductSet
    spec: InstanceSpec

    def to_dict(self) -> dict:
        d = {"id": self.instance_id}
        d.update(self.objective.to_dict())
        d["set"] = self.dset.to_dict()
        d["spec"] = self.spec.to_dict()
        return d

    @classmethod
    def from_dict(cls, d: dict) -> "GeneratedInstance":
        spec_d = d.get("spec")
        if spec_d is not None:
            spec = InstanceSpec(
                d=spec_d["d"],
                v=spec_d["v"],
                sigma_q_sq=spec_d["sigma_q_sq"],
                b_scale=spec_d.get("b_scale"),
                seed=spec_d["seed"],
            )
        else:
            spec = InstanceSpec(d=len(d["b"]))
        return cls(
            instance_id=d.get("id", "instance"),
            objective=QuadraticObjective.from_dict(d),
            dset=DiscreteProductSet.from_dict(d["set"]),
            spec=spec,
        )


def generate_instance(spec: InstanceSpec) -> GeneratedInstance:
    """Draw (Q, b) from the documented stream and pair with the lattice set.

    Draw order: Qt row-major, then qt, then b. Q is symmetrized exactly, so
    it is PSD by construction.
    """
    rng = RunRng(spec.seed)
    d = spec.d
    qt_mat = rng.normal(d * d).reshape(d, d)
    qt_vec = math.sqrt(spec.sigma_q_sq) * rng.normal(d)
    Q = qt_mat.T @ qt_mat + np.outer(qt_vec, qt_vec)
    Q = 0.5 * (Q + Q.T)
    b = spec.effective_b_scale * rng.normal(d)
    objective = QuadraticObjective(Q=Q, b=b)
    dset = uniform_lattice(d, spec.v)
    return GeneratedInstance(
        instance_id=f"d{d}-v{spec.v:g}-s{spec.seed}",
        objective=objective,
        dset=dset,
        spec=spec,
    )


@dataclass(frozen=True)
class ProtocolSpec:
    """Sweep protocol: initialization count, budgets, and hyper-grids.

    Defaults are the reduced desk-scale budget; :meth:`paper` gives the
    full-scale one (50 inits, 30000 ADMM / 100000 PGD iterations).
    """

    n_inits: int = 20
    iters_admm: int = 3000
    iters_pgd: int = 10000
    window: int = 50
    rho_grid: tuple[float, ...] = DEFAULT_RHO_GRID
    beta_grid: tuple[float, ...] = DEFAULT_BETA_GRID
    p_grid: tuple[float, ...] = DEFAULT_P_GRID
    gamma: float = 0.05
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.n_inits, numbers.Integral) or self.n_inits < 1:
            raise ValueError(f"n_inits must be a positive integer, got {self.n_inits}")
        for name in ("rho_grid", "beta_grid", "p_grid"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must be non-empty")
        # every other value is checked where it is used: in a run's SolverConfig
        for algorithm in METHODS:
            for hyper in self.grid_for(algorithm):
                _make_config(algorithm, hyper, self, seed=0)

    @classmethod
    def paper(cls, **overrides) -> "ProtocolSpec":
        base = dict(n_inits=50, iters_admm=30000, iters_pgd=100000)
        base.update(overrides)
        return cls(**base)

    def grid_for(self, algorithm: str) -> list[dict]:
        if algorithm in ("admm-q", "pgd"):
            return [{"rho": r} for r in self.rho_grid]
        if algorithm == "iadmm-q":
            return [{"rho": r, "gamma": self.gamma} for r in self.rho_grid]
        if algorithm == "admm-s":
            return [{"rho": r, "beta": b} for r in self.rho_grid for b in self.beta_grid]
        if algorithm == "admm-r":
            return [{"rho": r, "p": p} for r in self.rho_grid for p in self.p_grid]
        if algorithm == "gd-proj":
            return [{}]
        raise ValueError(f"unknown algorithm {algorithm!r}")

    def iters_for(self, algorithm: str) -> int:
        if algorithm == "pgd":
            return self.iters_pgd
        if algorithm == "gd-proj":
            return 1
        return self.iters_admm


@dataclass(frozen=True)
class RunRecord:
    instance_id: str
    algorithm: str
    hyper: str  # JSON-encoded hyper-parameter dict
    init: int
    best_objective: float  # nan when diverged
    diverged: bool


@dataclass(frozen=True)
class GridAggregate:
    instance_id: str
    algorithm: str
    hyper: str
    median: float
    q25: float
    q75: float
    n_runs: int
    n_diverged: int
    infeasible: bool  # more than half the runs diverged

    def to_dict(self) -> dict:
        return {
            "instance_id": self.instance_id,
            "algorithm": self.algorithm,
            "hyper": json.loads(self.hyper),
            "median": self.median,
            "q25": self.q25,
            "q75": self.q75,
            "n_runs": self.n_runs,
            "n_diverged": self.n_diverged,
            "infeasible": self.infeasible,
        }


def _make_config(algorithm: str, hyper: dict, protocol: ProtocolSpec, seed: int) -> SolverConfig:
    iters = protocol.iters_for(algorithm)
    return SolverConfig(
        rho=hyper.get("rho", 1.0),
        gamma=hyper.get("gamma", 0.0),
        beta=hyper.get("beta", 1.0),
        mask_prob=hyper.get("p", 1.0),
        max_iters=iters,
        window=protocol.window,
        seed=seed,
        trace_stride=max(1, iters),  # sweeps keep only the endpoints
    )


def init_seed(protocol: ProtocolSpec, instance: GeneratedInstance, init_index: int) -> int:
    """Per-initialization sub-seed, shared by every algorithm and grid point."""
    return derive_seed(protocol.seed, instance.spec.seed, init_index)


def _hyper_key(hyper: dict) -> str:
    """The JSON text that names a grid point in records and runs.csv."""
    return json.dumps(hyper, sort_keys=True)


def _execute_task(task) -> list[RunRecord]:
    """Run a block of lanes of one algorithm; a lane's ``SolverError`` marks it diverged."""
    instance, algorithm, lanes, protocol = task
    configs = [
        _make_config(algorithm, hyper, protocol, init_seed(protocol, instance, init_index))
        for hyper, init_index in lanes
    ]
    outcomes = run_lanes(algorithm, instance.objective, instance.dset, configs)
    records = []
    for (hyper, init_index), out in zip(lanes, outcomes):
        failed = isinstance(out, SolverError)
        records.append(
            RunRecord(
                instance.instance_id,
                algorithm,
                _hyper_key(hyper),
                init_index,
                math.nan if failed else out.best_objective,
                failed,
            )
        )
    return records


def _chunks(items: list, k: int) -> list[list]:
    """``items`` cut into at most ``k`` contiguous pieces of near-equal length."""
    n = len(items)
    k = min(max(k, 1), n)
    return [items[i * n // k:(i + 1) * n // k] for i in range(k)]


class SweepResult:
    """Records of a sweep plus per-grid-point aggregates and best selections."""

    def __init__(self, records: Sequence[RunRecord], n_inits: int):
        self.records = list(records)
        self.n_inits = n_inits
        self.aggregates = self._aggregate()
        self.best = self._select_best()

    def _aggregate(self) -> list[GridAggregate]:
        groups: dict[tuple[str, str, str], list[RunRecord]] = {}
        for rec in self.records:
            groups.setdefault((rec.instance_id, rec.algorithm, rec.hyper), []).append(rec)
        aggregates = []
        for key, recs in groups.items():
            vals = np.array([r.best_objective for r in recs if not r.diverged])
            n_div = sum(r.diverged for r in recs)
            if vals.size:
                q25, med, q75 = np.percentile(vals, [25, 50, 75])
            else:
                q25 = med = q75 = math.nan
            aggregates.append(
                GridAggregate(
                    instance_id=key[0],
                    algorithm=key[1],
                    hyper=key[2],
                    median=float(med),
                    q25=float(q25),
                    q75=float(q75),
                    n_runs=len(recs),
                    n_diverged=n_div,
                    infeasible=n_div * 2 > len(recs),
                )
            )
        return aggregates

    def _select_best(self) -> dict[tuple[str, str], GridAggregate]:
        best: dict[tuple[str, str], GridAggregate] = {}
        for agg in self.aggregates:
            if agg.infeasible or math.isnan(agg.median):
                continue
            key = (agg.instance_id, agg.algorithm)
            if key not in best or agg.median < best[key].median:
                best[key] = agg
        return best

    def best_objectives(self, algorithm: str) -> dict[tuple[str, int], float]:
        """Per-(instance, init) scores at the algorithm's best grid point."""
        out: dict[tuple[str, int], float] = {}
        chosen = {
            iid: agg.hyper for (iid, alg), agg in self.best.items() if alg == algorithm
        }
        for rec in self.records:
            if rec.algorithm != algorithm or rec.diverged:
                continue
            if chosen.get(rec.instance_id) == rec.hyper:
                out[(rec.instance_id, rec.init)] = rec.best_objective
        return out

    def instance_ids(self) -> list[str]:
        return list(dict.fromkeys(rec.instance_id for rec in self.records))

    @classmethod
    def merge(cls, results: Sequence["SweepResult"]) -> "SweepResult":
        records: list[RunRecord] = []
        for res in results:
            records.extend(res.records)
        n_inits = max((res.n_inits for res in results), default=0)
        return cls(records, n_inits)

    def to_csv(self, path):
        with open(path, "w") as fh:
            fh.write("instance_id,algorithm,hyper_json,init,best_objective,diverged\n")
            for r in self.records:
                hyper = r.hyper.replace('"', '""')
                fh.write(
                    f'{r.instance_id},{r.algorithm},"{hyper}",{r.init},'
                    f"{r.best_objective!r},{int(r.diverged)}\n"
                )

    def summary_dict(self) -> dict:
        return {
            "n_inits": self.n_inits,
            "best": [
                {"instance_id": iid, "algorithm": alg, **agg.to_dict()}
                for (iid, alg), agg in sorted(self.best.items())
            ],
            "aggregates": [a.to_dict() for a in self.aggregates],
        }

    def to_summary_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.summary_dict(), fh, indent=1)


def run_protocol(
    instance: GeneratedInstance,
    algorithms: Sequence[str],
    protocol: ProtocolSpec,
    max_workers: int = 1,
) -> SweepResult:
    """Execute the full grid x initialization sweep for one instance.

    A plan names, for each (algorithm, grid point), the run whose records it
    takes. That is its own run, except at an admm-s grid point whose radius
    ``beta / rho`` exceeds the set's covering radius: there every soft step
    lands on the projection, so the point takes admm-q's records at the same
    rho, and admm-q runs even when the sweep does not include it.

    Each source algorithm's runs, in grid order, are the lanes of
    :func:`~admmq.solvers.run_lanes`. With ``max_workers > 1`` they are cut
    into one contiguous block per worker and the blocks go to a process
    pool; records are read back by (algorithm, grid point, init), so results
    do not depend on scheduling.
    """
    for alg in algorithms:
        if alg not in METHODS:
            raise ValueError(f"unknown algorithm {alg!r}")
    # a hair above the radius, so that rounding in a distance cannot reach it
    reach = instance.dset.covering_radius() * (1.0 + 1e-9)
    plan = []  # (algorithm, grid point, source algorithm, source grid point), as record keys
    for alg in algorithms:
        for hyper in protocol.grid_for(alg):
            src, src_hyper = alg, hyper
            if alg == "admm-s" and hyper["beta"] / hyper["rho"] > reach:
                src, src_hyper = "admm-q", {"rho": hyper["rho"]}
            plan.append((alg, _hyper_key(hyper), src, _hyper_key(src_hyper)))

    wanted = {(src, key) for _, _, src, key in plan}
    tasks = []
    for src in dict.fromkeys(src for _, _, src, _ in plan):
        lanes = [
            (hyper, init_index)
            for hyper in protocol.grid_for(src)
            if (src, _hyper_key(hyper)) in wanted
            for init_index in range(protocol.n_inits)
        ]
        tasks += [(instance, src, block, protocol) for block in _chunks(lanes, max_workers)]
    if max_workers > 1:
        with ProcessPoolExecutor(max_workers=max_workers) as pool:
            outputs = list(pool.map(_execute_task, tasks, chunksize=1))
    else:
        outputs = [_execute_task(t) for t in tasks]

    ran = {(rec.algorithm, rec.hyper, rec.init): rec for recs in outputs for rec in recs}
    records = [
        dataclasses.replace(ran[(src, src_key, init_index)], algorithm=alg, hyper=key)
        for alg, key, src, src_key in plan
        for init_index in range(protocol.n_inits)
    ]
    return SweepResult(records, protocol.n_inits)


def pairwise_histogram(
    objs_a: Mapping[tuple[str, int], float],
    objs_b: Mapping[tuple[str, int], float],
    bins: int = 40,
) -> tuple[np.ndarray, np.ndarray]:
    """Histogram of per-initialization objective differences (a minus b).

    Both mappings must cover exactly the same (instance, init) pairs.
    Returns (bin_edges, counts).
    """
    if set(objs_a.keys()) != set(objs_b.keys()):
        raise ValueError("mismatched run sets: the two results cover different pairs")
    keys = sorted(objs_a.keys())
    diffs = np.array([objs_a[k] - objs_b[k] for k in keys])
    counts, edges = np.histogram(diffs, bins=bins)
    return edges, counts


def write_histogram_csv(edges: np.ndarray, counts: np.ndarray, path):
    with open(path, "w") as fh:
        fh.write("bin_left,bin_right,count\n")
        for i in range(len(counts)):
            fh.write(f"{edges[i]!r},{edges[i + 1]!r},{int(counts[i])}\n")
