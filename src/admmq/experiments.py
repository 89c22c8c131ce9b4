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

import contextlib
import ctypes
import dataclasses
import functools
import json
import math
import numbers
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from .objectives import QuadraticObjective
from .rng import RunRng, check_count, check_real, derive_seed
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
    "check_algorithms",
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

# The least work, runs x d x max(1, d // 64), that a sweep's block must hold
# for a process pool to pay: a d=16 lane step is mostly fixed cost, so a
# block of half the runs takes almost as long as all of them, while from
# d=128 on a lane's triangular solves grow like d^2. Set from the crossover
# table of BENCH_19.json, where two blocks of this much work broke even at
# d=16 to 64, and a 2-worker pool won at d=256 with 5 runs.
_MIN_BLOCK_WORK = 1024


@dataclass(frozen=True)
class InstanceSpec:
    """Parameters of one random quadratic-lattice instance."""

    d: int
    v: float = 8.0
    sigma_q_sq: float = 30.0
    b_scale: Optional[float] = None  # None: sqrt(d * sigma_q_sq)
    seed: int = 0

    def __post_init__(self):
        if not isinstance(self.d, numbers.Number):  # a file's "d": "abc" is malformed
            raise TypeError(f"d must be a number, got {self.d!r}")
        check_count(self.d, "d", least=1)
        check_real(self.v, "v", positive=True)
        check_real(self.sigma_q_sq, "sigma_q_sq")
        if self.b_scale is not None and not math.isfinite(self.b_scale):
            raise ValueError(f"b_scale must be finite, got {self.b_scale}")
        check_count(self.seed, "seed")

    @property
    def effective_b_scale(self) -> float:
        if self.b_scale is not None:
            return float(self.b_scale)
        return math.sqrt(self.d * self.sigma_q_sq)

    def to_dict(self) -> dict:
        return dataclasses.asdict(self)


@dataclass(frozen=True)
class GeneratedInstance:
    instance_id: str
    objective: QuadraticObjective
    dset: DiscreteProductSet
    spec: InstanceSpec

    def __post_init__(self):
        if self.dset.dim != self.objective.dim:
            raise ValueError(
                f"the set has dimension {self.dset.dim} but Q has {self.objective.dim}"
            )

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
        check_count(self.n_inits, "n_inits", least=1)
        check_count(self.iters_admm, "iters_admm")
        check_count(self.iters_pgd, "iters_pgd")
        check_count(self.window, "window", least=1)
        check_count(self.seed, "seed")
        check_real(self.gamma, "gamma")
        for name in ("rho_grid", "beta_grid", "p_grid"):
            if len(getattr(self, name)) == 0:
                raise ValueError(f"{name} must be non-empty")
            for value in getattr(self, name):
                if name == "p_grid" and not 0 < value <= 1:
                    raise ValueError(f"p_grid value must be in (0, 1], got {value}")
                check_real(value, f"{name} value", positive=True)

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
        return {**dataclasses.asdict(self), "hyper": json.loads(self.hyper)}


def _make_config(algorithm: str, hyper: dict, protocol: ProtocolSpec, seed: int) -> SolverConfig:
    """The run of one grid point and init; what the grid point leaves out keeps its default."""
    iters = protocol.iters_for(algorithm)
    return SolverConfig(
        **{"mask_prob" if k == "p" else k: v for k, v in hyper.items()},
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
    """Run a block of lanes, of any methods, in one ``run_lanes`` call on one OpenBLAS thread.

    A lane is an (algorithm, grid point, init); a ``SolverError`` marks it diverged.
    """
    instance, lanes, protocol = task
    configs = [
        _make_config(algorithm, hyper, protocol, init_seed(protocol, instance, init_index))
        for algorithm, hyper, init_index in lanes
    ]
    methods = [algorithm for algorithm, _, _ in lanes]
    with _one_blas_thread():
        outcomes = run_lanes(methods, instance.objective, instance.dset, configs)
    records = []
    for (algorithm, hyper, init_index), out in zip(lanes, outcomes):
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


def _deal(items: list, k: int) -> list[list]:
    """``items`` dealt round-robin into at most ``k`` pieces of near-equal length."""
    k = min(max(k, 1), len(items))
    return [items[i::k] for i in range(k)]


@functools.cache
def _openblas() -> tuple:
    """``(get_num_threads, set_num_threads)`` of each OpenBLAS library the kernel calls.

    They are looked up through the two extension modules that call OpenBLAS,
    numpy's ``_multiarray_umath`` (matmul) and scipy's ``_flapack`` (the
    x-solve's ``dpotrf``/``dpotrs``): ``dlsym`` on a module's handle searches
    the libraries it links. A library both modules link is kept once.
    """
    from scipy.linalg import _flapack  # at the top, it raised the import's peak RSS by 1.3 MB
    pairs = {}  # keyed by the address of set_num_threads: one pair per library
    for module in (np._core._multiarray_umath, _flapack):
        lib = ctypes.CDLL(module.__file__)
        for name in ("openblas_{}", "scipy_openblas_{}", "scipy_openblas_{}64_"):
            get = getattr(lib, name.format("get_num_threads"), None)
            put = getattr(lib, name.format("set_num_threads"), None)
            if get is not None and put is not None:
                get.argtypes, get.restype = [], ctypes.c_int
                put.argtypes, put.restype = [ctypes.c_int], None
                pairs.setdefault(ctypes.cast(put, ctypes.c_void_p).value, (get, put))
                break
    return tuple(pairs.values())


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with one OpenBLAS thread, then restore each library's count.

    Every sweep block runs in it, in a pool worker or in this process.
    OpenBLAS runs a triangular solve of many right-hand sides on several
    threads, and with a block on every core those threads mostly wait for
    one another: the default sweep of the README took 109 s at
    ``--workers 2`` on a 2-vCPU host with the default threads, and 21 s with
    one thread per worker. A single in-process block took the same wall
    time on one thread as on two, with half the CPU. Only the libraries that
    :func:`_openblas` finds are set; any other BLAS keeps its threads.
    """
    libs = _openblas()
    before = [get() for get, _ in libs]
    for _, put in libs:
        put(1)
    try:
        yield
    finally:
        for (_, put), count in zip(libs, before):
            put(count)


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
            "best": [self.best[key].to_dict() for key in sorted(self.best)],
            "aggregates": [a.to_dict() for a in self.aggregates],
        }

    def to_summary_json(self, path):
        with open(path, "w") as fh:
            json.dump(self.summary_dict(), fh, indent=1)


def check_algorithms(algorithms: Sequence[str]):
    """Raise ValueError at the first unknown or repeated algorithm name."""
    for i, alg in enumerate(algorithms):
        if alg not in METHODS or alg in algorithms[:i]:
            raise ValueError(f"{'repeated' if alg in METHODS else 'unknown'} algorithm {alg!r}")


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

    The runs are the lanes of :func:`~admmq.solvers.run_lanes` calls. All n
    runs, in plan order, are dealt round-robin into as many blocks as their
    work fills, ``n * d * max(1, d // 64) // _MIN_BLOCK_WORK``, but at least
    one and at most ``max_workers``; one call each, so that each block mixes
    the methods and grid points and the blocks take about equally long.
    With more than one block the blocks go to a process pool of one worker
    per block; a single block runs in this process. Either way a block runs
    on one OpenBLAS thread (:func:`_one_blas_thread`). Records are read back by
    (algorithm, grid point, init), so results do not depend on scheduling.
    An unknown or repeated algorithm raises ValueError before anything runs.
    """
    check_algorithms(algorithms)
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
    runs = [  # every run the plan needs, in plan order
        (src, hyper, init_index)
        for src in dict.fromkeys(src for _, _, src, _ in plan)
        for hyper in protocol.grid_for(src)
        if (src, _hyper_key(hyper)) in wanted
        for init_index in range(protocol.n_inits)
    ]
    d = instance.objective.dim
    blocks = min(max_workers, len(runs) * d * max(1, d // 64) // _MIN_BLOCK_WORK)
    tasks = [(instance, block, protocol) for block in _deal(runs, blocks)]
    workers = len(tasks)  # at most max_workers
    if workers > 1:
        with ProcessPoolExecutor(workers) as pool:
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
