import ctypes
import json
import math
import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
import scipy

from admmq.experiments import (
    DEFAULT_BETA_GRID,
    DEFAULT_P_GRID,
    DEFAULT_RHO_GRID,
    GeneratedInstance,
    InstanceSpec,
    ProtocolSpec,
    SweepResult,
    generate_instance,
    pairwise_histogram,
    run_protocol,
    write_histogram_csv,
)
from admmq import experiments
from admmq.experiments import _make_config, init_seed
from admmq.rng import RunRng
from admmq.sets import DiscreteProductSet, ExplicitGrid, ScaledLattice, binary_set
from admmq.solvers import METHODS, SolverConfig, SolverError, run, run_lanes


def tiny_protocol(**kw):
    base = dict(
        n_inits=3,
        iters_admm=15,
        iters_pgd=25,
        window=10,
        rho_grid=(5.0, 50.0),
        beta_grid=(1.0,),
        p_grid=(0.5, 1.0),
        seed=42,
    )
    base.update(kw)
    return ProtocolSpec(**base)


class TestGenerateInstance:
    def test_deterministic(self):
        spec = InstanceSpec(d=4, v=8.0, sigma_q_sq=30.0, seed=9)
        a = generate_instance(spec)
        b = generate_instance(spec)
        np.testing.assert_array_equal(a.objective.Q, b.objective.Q)
        np.testing.assert_array_equal(a.objective.b, b.objective.b)

    def test_psd_by_construction(self):
        for seed in range(8):
            inst = generate_instance(InstanceSpec(d=6, seed=seed))
            eigs = np.linalg.eigvalsh(inst.objective.Q)
            assert eigs[0] >= -1e-8 * np.abs(inst.objective.Q).max()
            assert inst.objective.weak_convexity_mu == 0.0

    def test_matches_documented_stream(self):
        spec = InstanceSpec(d=3, sigma_q_sq=2.0, b_scale=1.5, seed=4)
        inst = generate_instance(spec)
        rng = RunRng(4)
        qt = rng.normal(9).reshape(3, 3)
        qv = math.sqrt(2.0) * rng.normal(3)
        Q = qt.T @ qt + np.outer(qv, qv)
        np.testing.assert_allclose(inst.objective.Q, 0.5 * (Q + Q.T), rtol=0, atol=0)
        np.testing.assert_array_equal(inst.objective.b, 1.5 * rng.normal(3))

    def test_sigma_zero_drops_rank_one_term(self):
        inst = generate_instance(InstanceSpec(d=3, sigma_q_sq=0.0, seed=2))
        rng = RunRng(2)
        qt = rng.normal(9).reshape(3, 3)
        np.testing.assert_array_equal(inst.objective.Q, qt.T @ qt)

    def test_default_b_scale(self):
        spec = InstanceSpec(d=16, sigma_q_sq=30.0)
        assert spec.effective_b_scale == pytest.approx(math.sqrt(16 * 30.0))
        assert InstanceSpec(d=16, b_scale=2.0).effective_b_scale == 2.0

    def test_set_is_unbounded_lattice(self):
        inst = generate_instance(InstanceSpec(d=2, v=8.0, seed=0))
        assert math.isinf(inst.dset.cardinality())
        np.testing.assert_array_equal(inst.dset.project([11.0, -3.0]), [8.0, -0.0])

    def test_round_trip_dict(self):
        inst = generate_instance(InstanceSpec(d=3, seed=7))
        again = GeneratedInstance.from_dict(inst.to_dict())
        assert again.instance_id == inst.instance_id
        np.testing.assert_array_equal(again.objective.Q, inst.objective.Q)
        assert again.dset == inst.dset
        assert again.spec == inst.spec

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            InstanceSpec(d=0)
        with pytest.raises(ValueError):
            InstanceSpec(d=2, v=0.0)
        with pytest.raises(ValueError):
            InstanceSpec(d=2, sigma_q_sq=-1.0)
        for bad in (dict(v=math.inf), dict(sigma_q_sq=math.nan), dict(b_scale=math.inf)):
            with pytest.raises(ValueError):
                InstanceSpec(d=2, **bad)
        for d in (True, 2.5):
            with pytest.raises(ValueError, match="^d "):
                InstanceSpec(d=d)
        with pytest.raises(TypeError):  # what a file's "d": "abc" gives; it reads as malformed
            InstanceSpec(d="abc")
        assert InstanceSpec(d=np.int64(3)).d == 3


class TestProtocolSpec:
    def test_default_grids_match_protocol(self):
        assert DEFAULT_RHO_GRID == tuple(10.0**k for k in range(-2, 7))
        assert len(DEFAULT_BETA_GRID) == 21
        assert DEFAULT_BETA_GRID[0] == pytest.approx(1e-5)
        assert DEFAULT_BETA_GRID[-1] == pytest.approx(1e5)
        assert DEFAULT_BETA_GRID[1] == pytest.approx(10**-4.5)
        assert DEFAULT_P_GRID == (0.01, 0.1, 0.3, 0.5, 0.7, 0.9, 0.99)

    def test_reduced_defaults_and_paper_scale(self):
        reduced = ProtocolSpec()
        assert (reduced.n_inits, reduced.iters_admm, reduced.iters_pgd) == (
            20,
            3000,
            10000,
        )
        paper = ProtocolSpec.paper()
        assert (paper.n_inits, paper.iters_admm, paper.iters_pgd) == (
            50,
            30000,
            100000,
        )
        assert paper.window == 50

    def test_grid_shapes(self):
        p = ProtocolSpec()
        assert len(p.grid_for("admm-q")) == 9
        assert len(p.grid_for("pgd")) == 9
        assert len(p.grid_for("admm-s")) == 9 * 21
        assert len(p.grid_for("admm-r")) == 9 * 7
        assert p.grid_for("gd-proj") == [{}]
        with pytest.raises(ValueError):
            p.grid_for("newton")

    def test_iters_for(self):
        p = ProtocolSpec()
        assert p.iters_for("pgd") == 10000
        assert p.iters_for("admm-q") == 3000
        assert p.iters_for("gd-proj") == 1

    def test_validation(self):
        with pytest.raises(ValueError):
            ProtocolSpec(n_inits=0)
        with pytest.raises(ValueError):
            ProtocolSpec(rho_grid=())

    @pytest.mark.parametrize(
        "bad",
        [
            dict(rho_grid=(1.0, -1.0)),
            dict(rho_grid=(0.0,)),
            dict(rho_grid=(math.nan,)),
            dict(beta_grid=(0.0,)),
            dict(p_grid=(0.0,)),
            dict(p_grid=(1.5,)),
            dict(gamma=-0.1),
            dict(iters_admm=-1),
            dict(iters_pgd=-1),
            dict(window=0),
            dict(iters_admm=10.5),
            dict(iters_pgd=100.0),
            dict(n_inits=2.5),
            dict(window=math.inf),
            dict(gamma=math.nan),
            dict(rho_grid=(math.inf,)),
            dict(seed=-1),
            dict(seed=1.5),
        ],
    )
    def test_validation_of_values(self, bad):
        (key,) = bad  # the message names the key that was given
        with pytest.raises(ValueError, match=f"^{key} "):
            ProtocolSpec(**bad)

    def test_boundary_values_accepted(self):
        ProtocolSpec(p_grid=(1.0,), gamma=0.0, iters_admm=0, iters_pgd=0, window=1)


class TestRunProtocol:
    def test_record_counts(self):
        inst = generate_instance(InstanceSpec(d=2, sigma_q_sq=4.0, seed=5))
        protocol = tiny_protocol()
        res = run_protocol(inst, ["admm-q", "admm-r", "gd-proj"], protocol)
        # admm-q: 2 rhos, admm-r: 2 rhos x 2 ps, gd-proj: 1; times 3 inits
        assert len(res.records) == (2 + 4 + 1) * 3

    @pytest.mark.parametrize("algorithms, message", [
        (["admm-q", "admm-q"], "repeated algorithm 'admm-q'"),
        (["pgd", "admm-s", "pgd"], "repeated algorithm 'pgd'"),
        (["admm-q", "nope"], "unknown algorithm 'nope'"),
    ])
    def test_bad_algorithm_list_raises(self, monkeypatch, algorithms, message):
        inst = generate_instance(InstanceSpec(d=2, sigma_q_sq=4.0, seed=5))
        monkeypatch.setattr(experiments, "_execute_task", None)  # nothing may run
        with pytest.raises(ValueError, match=f"^{message}$"):
            run_protocol(inst, algorithms, tiny_protocol())

    def test_quantile_ordering(self):
        inst = generate_instance(InstanceSpec(d=2, sigma_q_sq=4.0, seed=5))
        res = run_protocol(inst, ["admm-q", "pgd"], tiny_protocol())
        for agg in res.aggregates:
            if not math.isnan(agg.median):
                assert agg.q25 <= agg.median <= agg.q75

    def test_deterministic(self):
        inst = generate_instance(InstanceSpec(d=2, sigma_q_sq=4.0, seed=6))
        a = run_protocol(inst, ["admm-r"], tiny_protocol())
        b = run_protocol(inst, ["admm-r"], tiny_protocol())
        assert a.records == b.records

    def test_parallel_matches_serial(self, real_pool):
        inst = generate_instance(InstanceSpec(d=2, sigma_q_sq=4.0, seed=7))
        serial = run_protocol(inst, ["admm-q", "pgd"], tiny_protocol())
        parallel = run_protocol(inst, ["admm-q", "pgd"], tiny_protocol(), max_workers=2)
        assert real_pool == [2]
        assert serial.records == parallel.records

    def test_zero_iterations_share_initial_objective(self):
        inst = generate_instance(InstanceSpec(d=3, sigma_q_sq=4.0, seed=8))
        protocol = tiny_protocol(iters_admm=0, iters_pgd=0, rho_grid=(5.0,))
        res = run_protocol(inst, ["admm-q", "admm-r", "admm-s", "pgd"], protocol)
        by_init: dict[int, set[float]] = {}
        for rec in res.records:
            by_init.setdefault(rec.init, set()).add(rec.best_objective)
        for values in by_init.values():
            assert len(values) == 1

    def test_admm_r_full_mask_matches_admm_q(self):
        inst = generate_instance(InstanceSpec(d=3, sigma_q_sq=4.0, seed=9))
        protocol = tiny_protocol(p_grid=(1.0,), rho_grid=(40.0,))
        res = run_protocol(inst, ["admm-q", "admm-r"], protocol)
        a = res.best_objectives("admm-q")
        b = res.best_objectives("admm-r")
        assert a.keys() == b.keys() and len(a) == protocol.n_inits
        edges, counts = pairwise_histogram(a, b, bins=11)
        mids = 0.5 * (edges[:-1] + edges[1:])
        assert counts.sum() == len(a)
        assert np.all(counts[np.abs(mids) > 1e-12] == 0)

    def test_divergent_grid_points_are_counted_and_skipped(self):
        inst = generate_instance(InstanceSpec(d=4, sigma_q_sq=30.0, seed=10))
        protocol = tiny_protocol(
            iters_pgd=200, rho_grid=(1e-4, 10 * inst.objective.lipschitz_L)
        )
        res = run_protocol(inst, ["pgd"], protocol)
        diverged = [a for a in res.aggregates if a.n_diverged > 0]
        assert diverged and all(a.infeasible for a in diverged)
        best = res.best[(inst.instance_id, "pgd")]
        assert json.loads(best.hyper)["rho"] == pytest.approx(
            10 * inst.objective.lipschitz_L
        )

    def test_best_selection_by_median(self):
        inst = generate_instance(InstanceSpec(d=2, sigma_q_sq=4.0, seed=11))
        res = run_protocol(inst, ["admm-q"], tiny_protocol())
        best = res.best[(inst.instance_id, "admm-q")]
        medians = [a.median for a in res.aggregates if not a.infeasible]
        assert best.median == min(medians)

    def test_unknown_algorithm_rejected(self):
        inst = generate_instance(InstanceSpec(d=2, seed=0))
        with pytest.raises(ValueError, match="unknown algorithm"):
            run_protocol(inst, ["sgd"], tiny_protocol())

    def test_admm_best_median_hits_brute_force_optimum_on_toy(self):
        from admmq.analysis import brute_force_minimize
        from admmq.sets import uniform_lattice

        inst = generate_instance(
            InstanceSpec(d=2, v=8.0, sigma_q_sq=4.0, b_scale=60.0, seed=21)
        )
        bounded = uniform_lattice(2, 8.0, a=-160.0, b=160.0)
        argmin, f_min = brute_force_minimize(inst.objective, bounded)
        assert np.all(np.abs(argmin) < 160.0)  # optimum interior to the box
        protocol = tiny_protocol(
            n_inits=10, iters_admm=300, rho_grid=(0.1, 1.0, 10.0, 100.0), seed=2
        )
        res = run_protocol(inst, ["admm-q"], protocol)
        best = res.best[(inst.instance_id, "admm-q")]
        assert best.median == pytest.approx(f_min, rel=1e-12)


def fresh_record(instance, algorithm, hyper_json, init, protocol):
    """(best objective, diverged) of the record's run on its own."""
    hyper = json.loads(hyper_json)
    config = SolverConfig(
        rho=hyper.get("rho", 1.0),
        gamma=hyper.get("gamma", 0.0),
        beta=hyper.get("beta", 1.0),
        mask_prob=hyper.get("p", 1.0),
        max_iters=protocol.iters_for(algorithm),
        window=protocol.window,
        seed=init_seed(protocol, instance, init),
    )
    try:
        result = run(algorithm, instance.objective, instance.dset, config)
    except SolverError:
        return math.nan, True
    return result.best_objective, False


def assert_records_fresh(res, instance, protocol):
    for rec in res.records:
        best, diverged = fresh_record(instance, rec.algorithm, rec.hyper, rec.init, protocol)
        assert (repr(rec.best_objective), rec.diverged) == (repr(best), diverged), rec


@pytest.fixture
def fake_pool(monkeypatch) -> list:
    """Run the sweep's pool in this process; the list collects each pool's worker count."""
    started = []

    class InProcessPool:
        def __init__(self, max_workers):
            started.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks, chunksize=1):
            return map(fn, tasks)

    monkeypatch.setattr(experiments, "ProcessPoolExecutor", InProcessPool)
    return started


@pytest.fixture
def real_pool(monkeypatch) -> list:
    """Give every sweep of two or more runs a pool of real processes.

    The list collects each pool's worker count.
    """
    started = []

    class CountedPool(ProcessPoolExecutor):
        def __init__(self, max_workers):
            started.append(max_workers)
            super().__init__(max_workers)

    monkeypatch.setattr(experiments, "_MIN_BLOCK_WORK", 1)
    monkeypatch.setattr(experiments, "ProcessPoolExecutor", CountedPool)
    return started


def openblas_threads() -> list:
    """The thread count of each OpenBLAS this process has loaded."""
    return [get() for get, _ in experiments._openblas()]


@pytest.mark.skipif(not experiments._openblas(), reason="no OpenBLAS found")
@pytest.mark.skipif(multiprocessing.get_start_method() != "fork",
                    reason="the workers inherit the test's patches by fork")
def test_pool_blocks_run_on_one_blas_thread_however_many_cores(monkeypatch, real_pool, tmp_path):
    inst = generate_instance(InstanceSpec(d=3, sigma_q_sq=30.0, seed=12))
    seen = tmp_path / "threads.jsonl"

    def spy(*args):  # runs in a worker: it reports through the file
        with open(seen, "a") as fh:
            fh.write(json.dumps(openblas_threads()) + "\n")
        return run_lanes(*args)

    # four cores: room for two BLAS threads in each of the two workers
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(4)))
    monkeypatch.setattr(experiments, "run_lanes", spy)
    run_protocol(inst, ["admm-q", "pgd"], tiny_protocol(), max_workers=2)
    assert real_pool == [2]
    blocks = [json.loads(line) for line in seen.read_text().splitlines()]
    assert blocks == [[1] * len(experiments._openblas())] * 2


@pytest.mark.skipif(not experiments._openblas(), reason="no OpenBLAS found")
def test_in_process_sweep_runs_on_one_blas_thread(monkeypatch):
    libs = experiments._openblas()
    inst = generate_instance(InstanceSpec(d=3, sigma_q_sq=30.0, seed=12))
    inside = []

    def spy(*args):
        inside.append(openblas_threads())
        if len(inside) == 2:
            raise RuntimeError("a failed block")
        return run_lanes(*args)

    monkeypatch.setattr(experiments, "run_lanes", spy)
    before = openblas_threads()
    try:
        for _, put in libs:
            put(2)
        run_protocol(inst, ["admm-q", "pgd"], tiny_protocol(), max_workers=2)
        after = openblas_threads()
        with pytest.raises(RuntimeError, match="a failed block"):
            run_protocol(inst, ["admm-q"], tiny_protocol())
        after_failure = openblas_threads()
    finally:
        for (_, put), count in zip(libs, before):
            put(count)
    assert inside == [[1] * len(libs)] * 2  # one in-process block per sweep
    assert after == after_failure == [2] * len(libs)


class _DlInfo(ctypes.Structure):
    _fields_ = [("dli_fname", ctypes.c_char_p), ("dli_fbase", ctypes.c_void_p),
                ("dli_sname", ctypes.c_char_p), ("dli_saddr", ctypes.c_void_p)]


def _file_of(function) -> str:
    """The shared object that holds a ctypes function, by ``dladdr``."""
    dladdr = ctypes.CDLL(None).dladdr
    dladdr.argtypes, dladdr.restype = [ctypes.c_void_p, ctypes.POINTER(_DlInfo)], ctypes.c_int
    info = _DlInfo()
    assert dladdr(ctypes.cast(function, ctypes.c_void_p), ctypes.byref(info))
    return os.path.realpath(info.dli_fname.decode())


@pytest.mark.skipif(not os.path.exists("/proc/self/maps"), reason="reads Linux's mapped files")
def test_openblas_reaches_each_library_numpy_and_scipy_mapped_once():
    # the oracle: every OpenBLAS file mapped from numpy's or scipy's own
    # directories (numpy/, numpy.libs/, scipy/, scipy.libs/)
    roots = tuple(os.path.dirname(os.path.realpath(m.__file__)) for m in (np, scipy))
    mapped = set()
    with open("/proc/self/maps") as fh:
        for line in fh:
            fields = line.rstrip("\n").split(None, 5)
            path = os.path.realpath(fields[5]) if len(fields) == 6 else ""
            if "openblas" in os.path.basename(path) and path.startswith(roots):
                mapped.add(path)
    if not mapped:
        pytest.skip("numpy and scipy map no OpenBLAS of their own")
    libs = experiments._openblas()
    assert sorted(_file_of(put) for _, put in libs) == sorted(mapped)
    before = openblas_threads()
    try:
        for get, put in libs:
            put(1)
            assert get() == 1
    finally:
        for (_, put), count in zip(libs, before):
            put(count)
    assert openblas_threads() == before
    with experiments._one_blas_thread():
        assert openblas_threads() == [1] * len(libs)
    assert openblas_threads() == before


def test_one_blas_thread_without_openblas_leaves_the_threads(monkeypatch):
    libs = experiments._openblas()
    before = openblas_threads()
    monkeypatch.setattr(experiments, "_openblas", lambda: ())
    with experiments._one_blas_thread():
        assert [get() for get, _ in libs] == before


@pytest.fixture
def fresh_openblas_scan():
    """Look OpenBLAS up anew in the test, and again after it."""
    experiments._openblas.cache_clear()
    yield
    experiments._openblas.cache_clear()


def test_openblas_scan_is_cached(fresh_openblas_scan, monkeypatch):
    first = experiments._openblas()
    monkeypatch.setattr(experiments.ctypes, "CDLL", None)  # a second lookup would raise
    assert experiments._openblas() is first


class TestLaneSweep:
    """Grid points and inits of every method run as the lanes of one kernel call per block."""

    def test_records_equal_single_runs(self):
        inst = generate_instance(InstanceSpec(d=4, sigma_q_sq=30.0, seed=10))
        lf = inst.objective.lipschitz_L
        protocol = tiny_protocol(
            iters_admm=60, iters_pgd=80, rho_grid=(1e-3, 0.5, 10 * lf),
            beta_grid=(0.5, 1e4), p_grid=(0.1, 0.9), gamma=0.5,
        )
        res = run_protocol(inst, METHODS, protocol)
        assert [(r.algorithm, r.hyper, r.init) for r in res.records] == [
            (alg, json.dumps(h, sort_keys=True), i)
            for alg in METHODS
            for h in protocol.grid_for(alg)
            for i in range(protocol.n_inits)
        ]
        assert_records_fresh(res, inst, protocol)
        # failed lanes sit next to finished ones in the same kernel call
        for alg in ("iadmm-q", "pgd"):
            flags = {r.diverged for r in res.records if r.algorithm == alg}
            assert flags == {True, False}, alg

    def test_runs_csv_bytes_independent_of_workers(self, tmp_path, real_pool):
        inst = generate_instance(InstanceSpec(d=4, sigma_q_sq=30.0, seed=11))
        protocol = tiny_protocol(
            iters_admm=40, iters_pgd=60, rho_grid=(1e-3, 1.0, 30.0, 1e4),
            beta_grid=(0.5, 1e5), p_grid=(0.1, 0.9),
        )
        algorithms = ["admm-q", "admm-s", "admm-r", "pgd", "gd-proj"]
        texts = []
        for workers in (1, 2, 3):
            path = tmp_path / f"runs-{workers}.csv"
            run_protocol(inst, algorithms, protocol, max_workers=workers).to_csv(path)
            texts.append(path.read_bytes())
        assert real_pool == [2, 3]
        assert texts[0] == texts[1] == texts[2]

    @pytest.mark.parametrize(
        "algorithms", [["admm-q", "admm-s"], ["admm-s"], ["admm-s", "pgd", "admm-q"]]
    )
    def test_admm_s_beyond_covering_radius_equals_fresh_runs(self, algorithms):
        inst = generate_instance(InstanceSpec(d=3, v=8.0, sigma_q_sq=30.0, seed=12))
        radius = inst.dset.covering_radius()  # 4 sqrt(3)
        protocol = tiny_protocol(
            iters_admm=80, rho_grid=(0.5, 5.0, 500.0), beta_grid=(1.0, 30.0, 1e4)
        )
        res = run_protocol(inst, algorithms, protocol)
        softened = [r for r in res.records if r.algorithm == "admm-s"]
        assert len(softened) == 9 * protocol.n_inits
        reused = {r.hyper for r in softened if json.loads(r.hyper)["beta"] / json.loads(r.hyper)["rho"] > radius}
        assert 0 < len(reused) < 9
        assert_records_fresh(res, inst, protocol)

    @staticmethod
    def spy_lanes(monkeypatch) -> list:
        """Wrap the sweep's ``run_lanes``; the list collects each call's (method, config) pairs."""
        calls = []

        def spy(method, f, dset, configs):
            methods = [method] * len(configs) if isinstance(method, str) else method
            calls.append(list(zip(methods, configs, strict=True)))
            return run_lanes(method, f, dset, configs)

        monkeypatch.setattr(experiments, "run_lanes", spy)
        return calls

    @pytest.mark.parametrize(
        "algorithms", [["admm-s", "admm-q"], ["admm-s"], ["admm-q", "admm-s"]]
    )
    def test_plan_runs_each_needed_lane_once(self, monkeypatch, algorithms):
        inst = generate_instance(InstanceSpec(d=3, v=8.0, sigma_q_sq=30.0, seed=12))
        radius = inst.dset.covering_radius()  # 4 sqrt(3)
        # beta 1 never reaches the radius; beta 1e4 does at every rho
        protocol = tiny_protocol(rho_grid=(0.5, 5.0, 500.0), beta_grid=(1.0, 30.0, 1e4))
        calls = self.spy_lanes(monkeypatch)
        run_protocol(inst, algorithms, protocol, max_workers=1)
        lanes = [lane for call in calls for lane in call]
        soft = [c for method, c in lanes if method == "admm-s"]
        assert soft and all(c.beta / c.rho <= radius for c in soft)
        inits = [init_seed(protocol, inst, i) for i in range(protocol.n_inits)]
        assert [(c.rho, c.seed) for method, c in lanes if method == "admm-q"] == [
            (rho, seed) for rho in protocol.rho_grid for seed in inits
        ]
        assert len(calls) == 1  # one block, one kernel call

    @staticmethod
    def planned_lanes(inst, protocol, algorithms) -> list:
        """(method, config) of every lane the sweep needs, in plan order."""
        return [
            (alg, _make_config(alg, hyper, protocol, init_seed(protocol, inst, i)))
            for alg in algorithms
            for hyper in protocol.grid_for(alg)
            for i in range(protocol.n_inits)
        ]

    def test_lanes_are_each_grid_times_inits_in_order(self, monkeypatch):
        inst = generate_instance(InstanceSpec(d=3, sigma_q_sq=30.0, seed=12))
        protocol = tiny_protocol(gamma=0.5)
        algorithms = ["pgd", "admm-r", "admm-q", "gd-proj", "iadmm-q"]
        calls = self.spy_lanes(monkeypatch)
        run_protocol(inst, algorithms, protocol, max_workers=1)
        # one kernel call for every method's lanes
        assert calls == [self.planned_lanes(inst, protocol, algorithms)]

    @pytest.mark.parametrize("max_workers", [2, 3])
    def test_lanes_are_dealt_round_robin(self, monkeypatch, fake_pool, max_workers):
        inst = generate_instance(InstanceSpec(d=3, sigma_q_sq=30.0, seed=12))
        protocol = tiny_protocol(gamma=0.5)
        algorithms = ["pgd", "admm-r", "admm-q", "gd-proj", "iadmm-q"]
        calls = self.spy_lanes(monkeypatch)
        lanes = self.planned_lanes(inst, protocol, algorithms)
        k = max_workers
        # 33 runs at d=3 are 99 of work, which fills k blocks of 99 // k
        monkeypatch.setattr(experiments, "_MIN_BLOCK_WORK", len(lanes) * 3 // k)
        run_protocol(inst, algorithms, protocol, max_workers=max_workers)
        assert calls == [lanes[j::k] for j in range(k)]
        assert fake_pool == [k]

    @pytest.mark.parametrize("algorithms, n_inits, max_workers, started", [
        (["gd-proj"], 1, 4, []),  # every sweep here is too small for two blocks
        (["admm-q", "gd-proj"], 1, 4, []),
        (["admm-q", "admm-s"], 3, 4, []),
        (["admm-q", "admm-s"], 3, 1, []),
    ])
    def test_pool_starts_one_worker_per_task(self, fake_pool, algorithms, n_inits,
                                             max_workers, started):
        inst = generate_instance(InstanceSpec(d=3, sigma_q_sq=30.0, seed=12))
        protocol = tiny_protocol(n_inits=n_inits, rho_grid=(5.0,))
        res = run_protocol(inst, algorithms, protocol, max_workers=max_workers)
        assert fake_pool == started
        assert_records_fresh(res, inst, protocol)

    @pytest.mark.parametrize("block_work, algorithms, n_inits, max_workers, started", [
        (1, ["gd-proj"], 1, 4, []),  # one run is one block
        (1, ["admm-q", "gd-proj"], 1, 4, [2]),
        (1, ["admm-q", "admm-s"], 3, 4, [4]),
        (6, ["admm-q", "admm-s"], 3, 4, [3]),  # 6 runs at d=3 are 18 of work
        (7, ["admm-q", "admm-s"], 3, 4, [2]),
        (10, ["admm-q", "admm-s"], 3, 4, []),
        (1, ["admm-q", "admm-s"], 3, 1, []),
    ])
    def test_pool_starts_one_worker_per_filled_block(self, monkeypatch, fake_pool, block_work,
                                                     algorithms, n_inits, max_workers, started):
        monkeypatch.setattr(experiments, "_MIN_BLOCK_WORK", block_work)
        inst = generate_instance(InstanceSpec(d=3, sigma_q_sq=30.0, seed=12))
        protocol = tiny_protocol(n_inits=n_inits, rho_grid=(5.0,))
        res = run_protocol(inst, algorithms, protocol, max_workers=max_workers)
        assert fake_pool == started
        assert_records_fresh(res, inst, protocol)

    def test_small_d16_sweep_starts_no_pool(self, monkeypatch, fake_pool):
        # the benchmark's sweep: 4 rhos for each of four methods, and gd-proj
        inst = generate_instance(InstanceSpec(d=16, v=8.0, sigma_q_sq=30.0, seed=1))
        protocol = tiny_protocol(n_inits=1, rho_grid=(0.1, 10.0, 1e3, 1e5),
                                 beta_grid=(1.0,), p_grid=(0.9,))
        algorithms = ["admm-q", "admm-r", "admm-s", "pgd", "gd-proj"]
        calls = self.spy_lanes(monkeypatch)
        run_protocol(inst, algorithms, protocol, max_workers=2)
        assert fake_pool == []
        assert calls == [self.planned_lanes(inst, protocol, algorithms)]
        assert len(calls[0]) * 16 < experiments._MIN_BLOCK_WORK

    @pytest.mark.parametrize("d, n_inits, started", [
        (256, 5, [2]),  # 5 x 256 x 4 = 5120 of work: a lane's solves grow like d^2
        (64, 17, []),  # 17 x 64 = 1088 of work, one block
        (16, 17, []),
    ])
    def test_block_work_grows_like_d_squared_from_d128(self, fake_pool, d, n_inits, started):
        inst = generate_instance(InstanceSpec(d=d, v=8.0, sigma_q_sq=30.0, seed=1))
        run_protocol(inst, ["gd-proj"], tiny_protocol(n_inits=n_inits), max_workers=2)
        assert fake_pool == started

    @pytest.mark.parametrize("blocks, max_workers, started_below, started_at", [
        (2, 2, [], [2]), (2, 1, [], []), (3, 2, [2], [2]), (3, 4, [2], [3]),
    ])
    def test_pool_starts_at_two_filled_blocks(self, fake_pool, blocks, max_workers,
                                              started_below, started_at):
        inst = generate_instance(InstanceSpec(d=16, v=8.0, sigma_q_sq=30.0, seed=1))
        n = blocks * experiments._MIN_BLOCK_WORK // 16  # gd-proj runs: one per init
        for n_inits, started in ((n - 1, started_below), (n, started_at)):
            fake_pool.clear()
            run_protocol(inst, ["gd-proj"], tiny_protocol(n_inits=n_inits), max_workers)
            assert fake_pool == started, n_inits

    def test_binary_sets_equal_fresh_runs(self):
        inst = generate_instance(InstanceSpec(d=3, sigma_q_sq=30.0, seed=13))
        binary = GeneratedInstance(inst.instance_id, inst.objective, binary_set(3), inst.spec)
        protocol = tiny_protocol(rho_grid=(0.5, 50.0), beta_grid=(1e-3, 1e6))
        res = run_protocol(binary, ["admm-s"], protocol)
        assert_records_fresh(res, binary, protocol)

    def test_a_grid_coordinate_keeps_every_admm_s_point(self, monkeypatch):
        inst = generate_instance(InstanceSpec(d=2, sigma_q_sq=30.0, seed=13))
        dset = DiscreteProductSet((ScaledLattice(8.0), ExplicitGrid((-8.0, 0.0, 5.0))))
        assert dset.covering_radius() == math.inf
        mixed = GeneratedInstance(inst.instance_id, inst.objective, dset, inst.spec)
        protocol = tiny_protocol(rho_grid=(0.5, 50.0), beta_grid=(1e-3, 1e6))
        calls = self.spy_lanes(monkeypatch)
        res = run_protocol(mixed, ["admm-s"], protocol)
        methods = [method for call in calls for method, _ in call]
        assert methods == ["admm-s"] * 4 * protocol.n_inits  # beta/rho up to 2e6 runs its own
        assert_records_fresh(res, mixed, protocol)


class TestSweepOutputs:
    def test_csv_layout(self, tmp_path):
        inst = generate_instance(InstanceSpec(d=2, sigma_q_sq=4.0, seed=12))
        res = run_protocol(inst, ["admm-q"], tiny_protocol())
        path = tmp_path / "runs.csv"
        res.to_csv(path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "instance_id,algorithm,hyper_json,init,best_objective,diverged"
        assert len(lines) == len(res.records) + 1

    def test_summary_structure(self):
        inst = generate_instance(InstanceSpec(d=2, sigma_q_sq=4.0, seed=13))
        res = run_protocol(inst, ["admm-q", "gd-proj"], tiny_protocol())
        summary = res.summary_dict()
        assert summary["n_inits"] == 3
        algorithms = {entry["algorithm"] for entry in summary["best"]}
        assert algorithms == {"admm-q", "gd-proj"}

    def test_merge_pools_instances(self):
        insts = [
            generate_instance(InstanceSpec(d=2, sigma_q_sq=4.0, seed=s)) for s in (1, 2)
        ]
        protocol = tiny_protocol(rho_grid=(40.0,))
        results = [run_protocol(i, ["admm-q"], protocol) for i in insts]
        merged = SweepResult.merge(results)
        assert len(merged.records) == sum(len(r.records) for r in results)
        assert len(merged.best_objectives("admm-q")) == 2 * protocol.n_inits
        assert merged.instance_ids() == [i.instance_id for i in insts]


class TestPairwiseHistogram:
    def test_self_difference_is_single_spike_at_zero(self):
        objs = {("i", k): float(k) for k in range(10)}
        edges, counts = pairwise_histogram(objs, objs, bins=21)
        assert counts.sum() == 10
        assert np.count_nonzero(counts) == 1
        idx = int(np.flatnonzero(counts)[0])
        assert edges[idx] <= 0.0 <= edges[idx + 1]

    def test_mismatched_runs_rejected(self):
        a = {("i", 0): 1.0}
        b = {("i", 1): 1.0}
        with pytest.raises(ValueError, match="mismatched"):
            pairwise_histogram(a, b)

    def test_csv_output(self, tmp_path):
        edges, counts = pairwise_histogram(
            {("i", 0): 1.0, ("i", 1): 3.0}, {("i", 0): 0.0, ("i", 1): 1.0}, bins=4
        )
        path = tmp_path / "hist.csv"
        write_histogram_csv(edges, counts, path)
        lines = path.read_text().strip().splitlines()
        assert lines[0] == "bin_left,bin_right,count"
        assert len(lines) == 5
        total = sum(int(line.split(",")[2]) for line in lines[1:])
        assert total == 2
