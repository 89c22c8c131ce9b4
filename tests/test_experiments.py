import json
import math

import numpy as np
import pytest

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
from admmq.sets import binary_set
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
        ],
    )
    def test_validation_of_values(self, bad):
        with pytest.raises(ValueError):
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

    def test_parallel_matches_serial(self):
        inst = generate_instance(InstanceSpec(d=2, sigma_q_sq=4.0, seed=7))
        serial = run_protocol(inst, ["admm-q", "pgd"], tiny_protocol())
        parallel = run_protocol(inst, ["admm-q", "pgd"], tiny_protocol(), max_workers=2)
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


class TestLaneSweep:
    """Each algorithm's grid points and inits run as the lanes of one kernel call."""

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

    def test_runs_csv_bytes_independent_of_workers(self, tmp_path):
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
        """Wrap the sweep's ``run_lanes``; the list collects (method, config) per lane."""
        lanes = []

        def spy(method, f, dset, configs):
            lanes.extend((method, c) for c in configs)
            return run_lanes(method, f, dset, configs)

        monkeypatch.setattr(experiments, "run_lanes", spy)
        return lanes

    @pytest.mark.parametrize(
        "algorithms", [["admm-s", "admm-q"], ["admm-s"], ["admm-q", "admm-s"]]
    )
    def test_plan_runs_each_needed_lane_once(self, monkeypatch, algorithms):
        inst = generate_instance(InstanceSpec(d=3, v=8.0, sigma_q_sq=30.0, seed=12))
        radius = inst.dset.covering_radius()  # 4 sqrt(3)
        # beta 1 never reaches the radius; beta 1e4 does at every rho
        protocol = tiny_protocol(rho_grid=(0.5, 5.0, 500.0), beta_grid=(1.0, 30.0, 1e4))
        lanes = self.spy_lanes(monkeypatch)
        run_protocol(inst, algorithms, protocol, max_workers=1)
        soft = [c for method, c in lanes if method == "admm-s"]
        assert soft and all(c.beta / c.rho <= radius for c in soft)
        inits = [init_seed(protocol, inst, i) for i in range(protocol.n_inits)]
        assert [(c.rho, c.seed) for method, c in lanes if method == "admm-q"] == [
            (rho, seed) for rho in protocol.rho_grid for seed in inits
        ]

    def test_lanes_are_each_grid_times_inits_in_order(self, monkeypatch):
        inst = generate_instance(InstanceSpec(d=3, sigma_q_sq=30.0, seed=12))
        protocol = tiny_protocol(gamma=0.5)
        algorithms = ["pgd", "admm-r", "admm-q", "gd-proj", "iadmm-q"]
        lanes = self.spy_lanes(monkeypatch)
        run_protocol(inst, algorithms, protocol, max_workers=1)
        assert lanes == [
            (alg, _make_config(alg, hyper, protocol, init_seed(protocol, inst, i)))
            for alg in algorithms
            for hyper in protocol.grid_for(alg)
            for i in range(protocol.n_inits)
        ]

    def test_binary_sets_equal_fresh_runs(self):
        inst = generate_instance(InstanceSpec(d=3, sigma_q_sq=30.0, seed=13))
        binary = GeneratedInstance(inst.instance_id, inst.objective, binary_set(3), inst.spec)
        protocol = tiny_protocol(rho_grid=(0.5, 50.0), beta_grid=(1e-3, 1e6))
        res = run_protocol(binary, ["admm-s"], protocol)
        assert_records_fresh(res, binary, protocol)


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
