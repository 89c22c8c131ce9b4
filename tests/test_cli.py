import contextlib
import csv
import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from admmq.cli import main
from admmq.solvers import METHODS

INT_LATTICE = {"coords": [{"kind": "lattice", "v": 1.0, "a": None, "b": None}]}

DEMO_1D = {
    "id": "demo",
    "Q": [[1.0]],
    "b": [-0.4],
    "c": 0.08,
    "set": INT_LATTICE,
}
HALF_PARABOLA_1D = {"id": "c1", "Q": [[1.0]], "b": [-0.5], "set": INT_LATTICE}
QUAD_2D = {
    "id": "q2",
    "Q": [[2.0, 0.0], [0.0, 2.0]],
    "b": [-1.2, 2.6],
    "set": {"coords": [{"kind": "lattice", "v": 1.0, "a": None, "b": None}] * 2},
}


@pytest.fixture
def demo_path(tmp_path):
    p = tmp_path / "demo.json"
    p.write_text(json.dumps(DEMO_1D))
    return str(p)


@pytest.fixture
def c1_path(tmp_path):
    p = tmp_path / "c1.json"
    p.write_text(json.dumps(HALF_PARABOLA_1D))
    return str(p)


@pytest.fixture
def quad2_path(tmp_path):
    p = tmp_path / "q2.json"
    p.write_text(json.dumps(QUAD_2D))
    return str(p)


def solve_json(capsys, *argv):
    code = main(["solve", *argv, "--format", "json"])
    assert code == 0
    return json.loads(capsys.readouterr().out)


class TestParser:
    def test_help_exits_zero(self):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0

    def test_unknown_flag_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main(["generate", "--bogus", "1"])
        assert info.value.code == 2

    def test_missing_subcommand_exits_two(self):
        with pytest.raises(SystemExit) as info:
            main([])
        assert info.value.code == 2


class TestGenerate:
    def test_writes_instance(self, tmp_path):
        out = tmp_path / "inst.json"
        code = main(
            ["generate", "--d", "2", "--v", "8", "--sigma-q-sq", "30", "--seed", "1",
             "--out", str(out)]
        )
        assert code == 0
        payload = json.loads(out.read_text())
        Q = np.array(payload["Q"])
        assert Q.shape == (2, 2)
        np.testing.assert_array_equal(Q, Q.T)
        assert payload["set"]["coords"][0] == {"kind": "lattice", "v": 8.0, "a": None, "b": None}

    def test_byte_identical_rerun(self, tmp_path):
        args = ["generate", "--d", "3", "--seed", "7"]
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_rejects_nonpositive_dimension(self, tmp_path):
        code = main(["generate", "--d", "0", "--out", str(tmp_path / "x.json")])
        assert code == 2

    @pytest.mark.parametrize(
        "flag", [["--sigma-q-sq", "nan"], ["--b-scale", "inf"], ["--v", "inf"]],
        ids=["sigma-nan", "b-scale-inf", "v-inf"],
    )
    def test_rejects_non_finite_parameters(self, tmp_path, capsys, flag):
        out = tmp_path / "x.json"
        assert main(["generate", "--d", "2", *flag, "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_rejects_negative_seed(self, tmp_path, capsys):
        out = tmp_path / "x.json"
        assert main(["generate", "--d", "2", "--seed", "-3", "--out", str(out)]) == 2
        assert "error: seed must be a non-negative integer" in capsys.readouterr().err
        assert not out.exists()


class TestSolve:
    def test_demo_fixed_point(self, demo_path, capsys):
        payload = solve_json(
            capsys,
            "--instance", demo_path, "--algorithm", "admm-q",
            "--rho", "2", "--iters", "200", "--init-scale", "1e-6",
        )
        assert payload["final_objective"] == pytest.approx(0.08)
        assert payload["stationary"] is True
        assert payload["converged"] is True

    def test_text_format(self, demo_path, capsys):
        code = main(
            ["solve", "--instance", demo_path, "--algorithm", "admm-q",
             "--rho", "2", "--iters", "200", "--init-scale", "1e-6"]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "final_objective 0.08" in out
        assert "stationary True" in out

    def test_text_out_file_equals_stdout(self, demo_path, tmp_path, capsys):
        argv = ["solve", "--instance", demo_path, "--algorithm", "admm-s",
                "--rho", "2", "--beta", "0.3", "--iters", "50"]
        assert main(argv) == 0
        stdout = capsys.readouterr().out
        out = tmp_path / "solve.txt"
        assert main(argv + ["--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_text() == stdout

    def test_admm_r_full_mask_matches(self, demo_path, capsys):
        base = ["--instance", demo_path, "--rho", "2", "--iters", "100", "--seed", "5"]
        a = solve_json(capsys, *base, "--algorithm", "admm-q")
        b = solve_json(capsys, *base, "--algorithm", "admm-r", "--p", "1")
        assert a["final_objective"] == b["final_objective"]
        assert a["final_f_y"] == b["final_f_y"]

    def test_flag_consistency(self, demo_path):
        base = ["solve", "--instance", demo_path, "--rho", "2"]
        assert main(base + ["--algorithm", "admm-q", "--beta", "1"]) == 2
        assert main(base + ["--algorithm", "admm-q", "--p", "0.5"]) == 2
        assert main(base + ["--algorithm", "admm-s", "--gamma", "0.1"]) == 2

    def test_infeasible_parameters_exit_four(self, demo_path):
        code = main(
            ["solve", "--instance", demo_path, "--algorithm", "admm-q",
             "--rho", "0.5", "--iters", "10"]
        )
        assert code == 4

    def test_force_overrides_gate(self, demo_path, capsys):
        payload = solve_json(
            capsys,
            "--instance", demo_path, "--algorithm", "admm-q",
            "--rho", "0.5", "--iters", "10", "--force",
        )
        assert "final_objective" in payload

    def test_divergence_exits_three(self, tmp_path):
        inst = tmp_path / "stiff.json"
        assert main(["generate", "--d", "4", "--sigma-q-sq", "30", "--seed", "3",
                     "--out", str(inst)]) == 0
        code = main(
            ["solve", "--instance", str(inst), "--algorithm", "pgd",
             "--rho", "1e-6", "--iters", "2000", "--force"]
        )
        assert code == 3

    def test_overflowing_start_exits_three(self, tmp_path, capsys):
        inst = tmp_path / "d16-s3.json"
        assert main(["generate", "--d", "16", "--seed", "3", "--out", str(inst)]) == 0
        code = main(["solve", "--instance", str(inst), "--algorithm", "admm-q",
                     "--rho", "1000", "--init-scale", "1e308"])
        assert code == 3
        assert capsys.readouterr().err == "error: run diverged: non-finite start at iteration 0\n"

    def test_trace_written(self, demo_path, tmp_path, capsys):
        trace = tmp_path / "trace.csv"
        solve_json(
            capsys,
            "--instance", demo_path, "--algorithm", "admm-q",
            "--rho", "2", "--iters", "10", "--trace", str(trace),
        )
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "r,lagrangian,f_y,residual,inner_iters"
        assert len(lines) == 12  # initial row + 10 iterations + header

    def test_missing_instance_exits_two(self, tmp_path):
        code = main(
            ["solve", "--instance", str(tmp_path / "nope.json"),
             "--algorithm", "admm-q", "--rho", "2"]
        )
        assert code == 2

    @pytest.mark.parametrize("field", ["Q", "b"])
    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_non_finite_instance_exits_two(self, tmp_path, capsys, field, bad):
        inst = dict(DEMO_1D)
        inst[field] = [[bad]] if field == "Q" else [bad]
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(inst))  # json writes NaN / Infinity tokens
        code = main(["solve", "--instance", str(path), "--algorithm", "admm-q", "--rho", "2"])
        assert code == 2
        err = capsys.readouterr().err
        assert f"cannot load instance: {field} must be finite" in err

    @pytest.mark.parametrize("algorithm", ["admm-q", "iadmm-q"])
    def test_overflowing_condition_is_usage_error(self, tmp_path, capsys, algorithm):
        path = tmp_path / "big.json"
        path.write_text(json.dumps(dict(DEMO_1D, Q=[[1e200]])))
        assert main(["solve", "--instance", str(path), "--algorithm", algorithm]) == 2
        assert capsys.readouterr().err.startswith(
            "error: the parameter condition overflows a double")

    def test_deterministic_given_seed(self, demo_path, capsys):
        argv = ["--instance", demo_path, "--algorithm", "admm-r",
                "--rho", "2", "--p", "0.5", "--iters", "50", "--seed", "9"]
        assert solve_json(capsys, *argv) == solve_json(capsys, *argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--algorithm", "admm-q", "--rho", "0"],
        ["solve", "--algorithm", "admm-q", "--rho", "-5"],
        ["solve", "--algorithm", "admm-q", "--rho", "2", "--iters", "-1"],
        ["solve", "--algorithm", "admm-q", "--rho", "2", "--trace-stride", "0"],
        ["solve", "--algorithm", "admm-r", "--rho", "2", "--p", "1.5"],
        ["solve", "--algorithm", "admm-s", "--rho", "2", "--beta", "0"],
        ["solve", "--algorithm", "admm-q", "--rho", "inf", "--force"],
        ["solve", "--algorithm", "iadmm-q", "--rho", "2", "--gamma", "nan", "--force"],
        ["solve", "--algorithm", "admm-q", "--rho", "2", "--seed", "-1"],
        ["solve", "--algorithm", "admm-q", "--rho", "2", "--init-scale", "inf"],
        ["solve", "--algorithm", "admm-q", "--rho", "2", "--init-scale", "nan"],
        ["solve", "--algorithm", "admm-q", "--rho", "2", "--init-scale", "-1"],
        ["verify-conditions", "--Lf", "1", "--rho", "0"],
        ["verify-conditions", "--Lf", "nan", "--rho", "2"],
        ["verify-conditions", "--Lf", "1", "--mu", "inf", "--rho", "2"],
        ["verify-conditions", "--Lf", "1", "--rho", "2", "--gamma", "nan"],
        ["verify-conditions", "--Lf", "-1", "--rho", "2"],
        ["verify-conditions", "--Lf", "1", "--mu", "-3", "--rho", "2"],
        ["verify-conditions", "--Lf", "1", "--rho", "2", "--gamma", "-0.1"],
        ["check-stationary", "--point", "[0]", "--rho", "inf"],
        ["check-stationary", "--point", "[0]", "--rho", "1", "--tol", "nan"],
        ["check-stationary", "--point", "[0]", "--rho", "1", "--tol", "inf"],
        ["check-stationary", "--point", "[0]", "--rho", "1", "--tol", "-1"],
        ["check-stationary", "--point", '{"a": 1}', "--rho", "1"],
        ["verify-conditions", "--Lf", "1e308", "--mu", "1e308", "--rho", "1e308",
         "--gamma", "2"],
        ["verify-conditions", "--Lf", "1e100", "--rho", "1e-300"],
    ],
    ids=["rho-zero", "rho-negative", "iters-negative", "stride-zero", "p-above-one",
         "beta-zero", "rho-inf", "gamma-nan", "seed-negative", "init-scale-inf",
         "init-scale-nan", "init-scale-negative", "verify-rho-zero", "verify-Lf-nan",
         "verify-mu-inf", "verify-gamma-nan", "verify-Lf-negative", "verify-mu-negative",
         "verify-gamma-negative", "stationary-rho-inf", "stationary-tol-nan",
         "stationary-tol-inf", "stationary-tol-negative", "stationary-point-object",
         "verify-square-overflows", "verify-value-overflows"],
)
def test_bad_parameter_is_usage_error(demo_path, capsys, argv):
    if argv[0] in ("solve", "check-stationary"):
        argv = [*argv, "--instance", demo_path]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert "error:" in err and out == ""


LOADING_COMMANDS = ["solve", "sweep", "bruteforce", "check-stationary"]


def load_edited_instance(tmp_path, command, edit):
    """Run ``command`` on a generated d=3 instance whose JSON ``edit`` returns; its exit code."""
    inst_dir = tmp_path / "instances"
    inst_dir.mkdir()
    path = inst_dir / "edited.json"
    assert main(["generate", "--d", "3", "--seed", "1", "--out", str(path)]) == 0
    path.write_text(json.dumps(edit(json.loads(path.read_text()))))
    argv = {
        "solve": ["--instance", str(path), "--algorithm", "admm-q", "--rho", "2"],
        "sweep": ["--instances", str(inst_dir), "--out", str(tmp_path / "out")],
        "bruteforce": ["--instance", str(path), "--bounds", "-8", "8"],
        "check-stationary": ["--instance", str(path), "--point", "[0, 0, 0]", "--rho", "1"],
    }[command]
    return main([command, *argv])


def put(inst, keys, value):
    """``inst`` with the entry at the path ``keys`` set to ``value``; the empty path replaces it."""
    if not keys:
        return value
    target = inst
    for key in keys[:-1]:
        target = target[key]
    target[keys[-1]] = value
    return inst


@pytest.mark.parametrize("command", LOADING_COMMANDS)
def test_set_dimension_mismatch_is_usage_error(tmp_path, capsys, command):
    def cut(inst):
        return put(inst, ("set", "coords"), inst["set"]["coords"][:2])

    assert load_edited_instance(tmp_path, command, cut) == 2
    assert "the set has dimension 2 but Q has 3" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


MALFORMED = {  # a path into the instance JSON and the value put there
    "spec-d-string": (("spec", "d"), "abc"),
    "set-number": (("set",), 5),
    "coordinate-number": (("set", "coords", 0), 5),
    "spec-number": (("spec",), 7),
    "top-level-list": ((), []),
    "lattice-bound-string": (("set", "coords", 0, "a"), "0"),
}


@pytest.mark.parametrize("command", LOADING_COMMANDS)
@pytest.mark.parametrize("keys, value", MALFORMED.values(), ids=MALFORMED)
def test_malformed_instance_is_usage_error(tmp_path, capsys, command, keys, value):
    assert load_edited_instance(tmp_path, command, lambda inst: put(inst, keys, value)) == 2
    out, err = capsys.readouterr()
    assert "error:" in err and "malformed instance" in err and out == ""
    assert not (tmp_path / "out").exists()


class TestCheckStationary:
    def test_nonexistence_at_half(self, c1_path, capsys):
        code = main(
            ["check-stationary", "--instance", c1_path, "--point", "[0]",
             "--rho", "0.5"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["is_stationary"] is False

    def test_tie_point_at_one(self, c1_path, capsys):
        code = main(
            ["check-stationary", "--instance", c1_path, "--point", "[0]",
             "--rho", "1.0"]
        )
        assert code == 0
        assert json.loads(capsys.readouterr().out)["is_stationary"] is True

    def test_off_lattice_point_is_usage_error(self, c1_path):
        code = main(
            ["check-stationary", "--instance", c1_path, "--point", "[0.4]",
             "--rho", "1.0"]
        )
        assert code == 2


class TestBruteforce:
    def test_bounded_enumeration(self, quad2_path, capsys):
        code = main(
            ["bruteforce", "--instance", quad2_path, "--bounds", "-3", "3"]
        )
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["argmin"] == [1.0, -1.0]
        assert payload["value"] == pytest.approx(-1.8)

    def test_unbounded_is_usage_error(self, quad2_path):
        assert main(["bruteforce", "--instance", quad2_path]) == 2


class TestVerifyConditions:
    def test_decrease_true(self, capsys):
        code = main(["verify-conditions", "--Lf", "1", "--mu", "0", "--rho", "1.5"])
        assert code == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["decrease"] is True
        assert payload["rho_geq_Lf"] is True

    def test_decrease_false(self, capsys):
        main(["verify-conditions", "--Lf", "1", "--mu", "0", "--rho", "1.2"])
        assert json.loads(capsys.readouterr().out)["decrease"] is False

    def test_iadmm_block(self, capsys):
        main(
            ["verify-conditions", "--Lf", "2", "--mu", "2", "--rho", "12",
             "--gamma", "0.1"]
        )
        payload = json.loads(capsys.readouterr().out)
        assert payload["iadmm"] is True
        assert payload["iadmm_value"] == pytest.approx(-2 * 301.0 / 300.0)

    def test_csv_format(self, capsys):
        main(["verify-conditions", "--Lf", "1", "--rho", "1.5", "--format", "csv"])
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "key,value"
        assert any(line.startswith("decrease,") for line in out)


class TestSweep:
    def run_sweep(self, tmp_path, out_name):
        inst_dir = tmp_path / "instances"
        inst_dir.mkdir(exist_ok=True)
        assert main(["generate", "--d", "2", "--sigma-q-sq", "4", "--seed", "2",
                     "--out", str(inst_dir / "a.json")]) == 0
        protocol = tmp_path / "protocol.json"
        protocol.write_text(json.dumps({
            "n_inits": 2,
            "iters_admm": 10,
            "iters_pgd": 15,
            "window": 5,
            "rho_grid": [5.0, 50.0],
            "beta_grid": [1.0],
            "p_grid": [1.0],
            "seed": 3,
        }))
        out = tmp_path / out_name
        code = main(
            ["sweep", "--instances", str(inst_dir), "--protocol", str(protocol),
             "--algorithms", "admm-q,pgd,gd-proj", "--out", str(out)]
        )
        assert code == 0
        return out

    def test_outputs_and_determinism(self, tmp_path):
        out1 = self.run_sweep(tmp_path, "out1")
        out2 = self.run_sweep(tmp_path, "out2")
        runs = (out1 / "runs.csv").read_text()
        assert runs == (out2 / "runs.csv").read_text()
        lines = runs.strip().splitlines()
        # (2 rho admm-q) + (2 rho pgd) + (1 gd-proj), times 2 inits, plus header
        assert len(lines) == 5 * 2 + 1
        summary = json.loads((out1 / "summary.json").read_text())
        for agg in summary["aggregates"]:
            assert agg["q25"] <= agg["median"] <= agg["q75"]
        hist = out1 / "hist_admm-q_minus_pgd.csv"
        assert hist.exists()
        assert hist.read_text().splitlines()[0] == "bin_left,bin_right,count"

    def test_non_finite_instance_fails(self, tmp_path, capsys):
        inst_dir = tmp_path / "instances"
        inst_dir.mkdir()
        (inst_dir / "bad.json").write_text(json.dumps(dict(DEMO_1D, b=[float("nan")])))
        code = main(["sweep", "--instances", str(inst_dir), "--out", str(tmp_path / "out")])
        assert code == 2
        assert "b must be finite" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_empty_instance_dir_fails(self, tmp_path):
        (tmp_path / "empty").mkdir()
        code = main(["sweep", "--instances", str(tmp_path / "empty"),
                     "--out", str(tmp_path / "out")])
        assert code == 2

    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["--generate", "0"],
            ["--generate", "-2"],
            ["--generate", "1", "--algorithms", ","],
            ["--generate", "1", "--bins", "0"],
            ["--instances", "instances", "--generate", "2"],
            ["--generate", "1", "--sigma-q-sq", "nan"],
            ["--generate", "1", "--seed", "-3"],
        ],
        ids=[
            "no-instances",
            "generate-zero",
            "generate-negative",
            "no-algorithms",
            "bins-zero",
            "instances-and-generate",
            "sigma-nan",
            "seed-negative",
        ],
    )
    def test_nothing_to_sweep_is_usage_error(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        assert main(["sweep", *argv, "--out", str(out)]) == 2
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "protocol",
        [{"rho_grid": [-1]}, {"window": 0}, {"p_grid": [0]}, {"rho_grid": 5}, {"seed": -1},
         {"seed": 1.5}],
        ids=["rho-negative", "window-zero", "p-zero", "grid-not-a-list", "seed-negative",
             "seed-fraction"],
    )
    def test_bad_protocol_is_usage_error(self, tmp_path, capsys, protocol):
        path = tmp_path / "protocol.json"
        path.write_text(json.dumps(protocol))
        out = tmp_path / "out"
        argv = ["sweep", "--generate", "1", "--d", "2", "--protocol", str(path), "--out", str(out)]
        assert main(argv) == 2
        assert "error: bad protocol:" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["0", "-3"])
    def test_workers_below_one_is_usage_error(self, tmp_path, capsys, workers):
        out = tmp_path / "out"
        assert main(["sweep", "--generate", "1", "--d", "2", "--workers", workers,
                     "--out", str(out)]) == 2
        assert "error: --workers" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("instance_id", ["same", None], ids=["same-id", "no-id"])
    def test_repeated_instance_id_is_usage_error(self, tmp_path, capsys, instance_id):
        inst_dir = tmp_path / "instances"
        inst_dir.mkdir()
        inst = {k: v for k, v in QUAD_2D.items() if k != "id"}
        if instance_id is not None:
            inst["id"] = instance_id
        for name in ("a.json", "b.json"):
            (inst_dir / name).write_text(json.dumps(inst))
        out = tmp_path / "out"
        assert main(["sweep", "--instances", str(inst_dir), "--out", str(out)]) == 2
        repeated = instance_id or "instance"  # the id of an instance file without one
        assert capsys.readouterr().err == (
            f"error: instance id {repeated!r} is in both {inst_dir / 'a.json'} "
            f"and {inst_dir / 'b.json'}\n"
        )
        assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [["bruteforce", "--bounds", "-3", "3"],
     ["check-stationary", "--point", "[1, -1]", "--rho", "1"]],
    ids=["bruteforce", "check-stationary"],
)
def test_csv_values_read_back_as_json(quad2_path, capsys, argv):
    assert main([*argv, "--instance", quad2_path, "--format", "csv"]) == 0
    rows = list(csv.reader(io.StringIO(capsys.readouterr().out)))
    assert rows[0] == ["key", "value"]
    assert all(len(row) == 2 for row in rows)
    values = {key: json.loads(value) for key, value in rows[1:]}
    if argv[0] == "bruteforce":
        assert values["argmin"] == [1.0, -1.0]
    if argv[0] == "check-stationary":
        assert len(values["candidate"]) == 2


UNWRITABLE = {  # every output path of every command; OUT stands for the path
    "generate-out": ["generate", "--d", "2", "--out", "OUT"],
    "solve-out": ["solve", "--algorithm", "admm-q", "--rho", "2", "--iters", "5", "--out", "OUT"],
    "solve-trace": ["solve", "--algorithm", "admm-q", "--rho", "2", "--iters", "5",
                    "--trace", "OUT"],
    "check-stationary-out": ["check-stationary", "--point", "[0]", "--rho", "1", "--out", "OUT"],
    "bruteforce-out": ["bruteforce", "--bounds", "-3", "3", "--out", "OUT"],
    "verify-conditions-out": ["verify-conditions", "--Lf", "1", "--rho", "2", "--out", "OUT"],
    "sweep-out": ["sweep", "--generate", "1", "--d", "2", "--out", "OUT"],
}


@pytest.mark.parametrize(
    "name, parent",
    [(name, parent) for name in UNWRITABLE for parent in ("file", "missing")
     if not (name == "sweep-out" and parent == "missing")],  # sweep makes missing parents
)
def test_unwritable_output_is_usage_error(tmp_path, capsys, demo_path, name, parent):
    (tmp_path / "file").write_text("a regular file\n")
    out = str(tmp_path / parent / "out")
    argv = [out if a == "OUT" else a for a in UNWRITABLE[name]]
    if argv[0] in ("solve", "check-stationary", "bruteforce"):
        argv += ["--instance", demo_path]
    assert main(argv) == 2
    stdout, stderr = capsys.readouterr()
    assert stdout == ""
    assert len(stderr.splitlines()) == 1 and stderr.startswith("error: ")


FUZZ_FLOATS = (["2", "0.5", "1000"], ["0", "1e-300", "-1", "1e100", "1e308", "nan", "inf", "-inf"])
FUZZ_COUNTS = (["1", "2", "3"], ["0", "-1", "-2"])


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Good and bad inputs for :func:`test_main_reports_bad_input`."""
    root = tmp_path_factory.mktemp("fuzz")
    (root / "file").write_text("a regular file\n")
    (root / "inst.json").write_text(json.dumps(QUAD_2D))
    (root / "big.json").write_text(json.dumps(dict(QUAD_2D, Q=[[1e200, 0.0], [0.0, 1.0]])))
    (root / "nan.json").write_text(json.dumps(dict(QUAD_2D, b=[float("nan"), 0.0])))
    (root / "broken.json").write_text("{")
    for name, files in (("good", ["inst.json"]), ("twice", ["inst.json", "inst.json"]),
                        ("big", ["big.json"])):
        (root / name).mkdir()
        for i, f in enumerate(files):
            (root / name / f"{i}.json").write_text((root / f).read_text())
    tiny = {"n_inits": 1, "iters_admm": 3, "iters_pgd": 3, "window": 2, "rho_grid": [10.0],
            "beta_grid": [1.0], "p_grid": [0.5]}
    (root / "tiny.json").write_text(json.dumps(tiny))
    (root / "bad-values.json").write_text(json.dumps(dict(tiny, rho_grid=[-1], window=0)))
    (root / "list.json").write_text("[1, 2]")
    return root


def fuzz_argv(root, draw):
    """An argv for a random subcommand; each value is bad with probability 1/4."""
    def pick(good, bad):
        return draw(st.sampled_from(bad if draw(st.integers(0, 3)) == 0 else good))

    def flags(*names, values=FUZZ_FLOATS, optional=True):
        return [f"{f}={pick(*values)}" for f in names if not optional or draw(st.booleans())]

    def path(good, *bad):
        return str(root / pick([good], bad))

    instance = ["--instance", path("inst.json", "big.json", "nan.json", "broken.json",
                                   "missing.json", "file/x.json")]
    out = path("out", "file/out", "missing/out")
    maybe_out = draw(st.sampled_from([[], ["--out", out]]))
    command = draw(st.sampled_from(["solve", "sweep", "check-stationary", "bruteforce",
                                    "verify-conditions", "generate"]))
    if command == "generate":
        return ["generate", *flags("--d", values=FUZZ_COUNTS, optional=False),
                *flags("--v", "--sigma-q-sq", "--b-scale"), "--out", out]
    if command == "solve":
        algorithm = draw(st.sampled_from(METHODS))
        own = {"admm-s": "--beta", "admm-r": "--p", "iadmm-q": "--gamma"}.get(algorithm)
        extra = pick([own], ["--beta", "--p", "--gamma"])  # a flag of another algorithm
        return ["solve", *instance, "--algorithm", algorithm, *flags("--rho", "--init-scale"),
                *flags(*filter(None, [extra])), *flags("--seed", values=FUZZ_COUNTS),
                *flags("--iters", "--trace-stride", values=FUZZ_COUNTS),
                *draw(st.sampled_from([[], ["--force"]])),
                *draw(st.sampled_from([[], ["--trace", out]])),
                "--format", draw(st.sampled_from(["text", "json"])), *maybe_out]
    if command == "sweep":
        source = draw(st.sampled_from([
            ["--instances", path("good", "twice", "big", "missing", "file")],
            [*flags("--generate", "--d", values=FUZZ_COUNTS, optional=False),
             *flags("--seed", values=FUZZ_COUNTS), *flags("--sigma-q-sq")],
        ]))
        protocol = path("tiny.json", "bad-values.json", "list.json", "broken.json",
                        "missing.json")
        algorithms = pick(["admm-q", "admm-s,pgd,gd-proj"], [",", "nope"])
        return ["sweep", *source, "--protocol", protocol, "--algorithms", algorithms,
                "--workers", pick(["1"], ["0", "-1"]), *flags("--bins", values=FUZZ_COUNTS),
                "--out", out]
    if command == "check-stationary":
        point = pick(["[1, -1]", "[0, 0]"], ["[0]", "[NaN, 0]", "[1e308, 0]", "{", '{"a": 1}'])
        return ["check-stationary", *instance, f"--point={point}",
                *flags("--rho", optional=False), *flags("--tol"),
                "--format", draw(st.sampled_from(["json", "csv"])), *maybe_out]
    if command == "bruteforce":
        bound = (["-3", "3", "0"], ["-2.5", "1e308", "nan", "inf"])  # "-inf" reads as a flag
        return ["bruteforce", *instance, "--bounds", pick(*bound), pick(*bound),
                *flags("--limit", values=(["50", "100"], ["0", "-1", "3"])),
                "--format", draw(st.sampled_from(["json", "csv"])), *maybe_out]
    return ["verify-conditions", *flags("--Lf", "--rho", optional=False),
            *flags("--mu", "--gamma"), "--format", draw(st.sampled_from(["json", "csv"])),
            *maybe_out]


def strict_json(text):
    """``text`` parsed as JSON that holds no NaN or Infinity."""
    def reject(token):
        raise AssertionError(f"{token} in {text!r}")

    return json.loads(text, parse_constant=reject)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(data=st.data())
def test_main_reports_bad_input(fuzz_dir, data):
    """``main`` never raises: it exits 0 with finite output or prints one ``error:`` line."""
    argv = fuzz_argv(fuzz_dir, data.draw)
    stdout, stderr = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        code = main(argv)
    assert code in (0, 2, 3, 4)
    if code:
        errors = [line for line in stderr.getvalue().splitlines() if line.startswith("error:")]
        assert len(errors) == 1, argv
        assert stdout.getvalue() == "", argv
    elif "json" in argv:
        strict_json(stdout.getvalue() or "null")
    elif "csv" in argv:
        for _, value in list(csv.reader(io.StringIO(stdout.getvalue())))[1:]:
            strict_json(value)
