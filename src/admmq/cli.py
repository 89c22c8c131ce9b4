"""Command-line front end: instance generation, solves, sweeps, and checks.

Exit codes: 0 success; 2 usage error, an input that cannot be read or an
output that cannot be written; 3 divergence; 4 infeasible parameters (the
run's decrease condition fails and --force was not given) or another solver
failure. Commands raise, and ``main`` alone turns an error into its code and
one ``error:`` line.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from .analysis import (
    brute_force_minimize,
    check_decrease_condition,
    check_iadmm_condition,
    decrease_condition_value,
    iadmm_condition_value,
    is_rho_stationary,
)
from .experiments import (
    GeneratedInstance,
    InstanceSpec,
    ProtocolSpec,
    SweepResult,
    generate_instance,
    pairwise_histogram,
    run_protocol,
    write_histogram_csv,
)
from .sets import DiscreteProductSet, ScaledLattice
from .solvers import METHODS, DivergenceError, SolverConfig, SolverError, run

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_DIVERGED = 3
EXIT_INFEASIBLE = 4

def _fmt(v: float) -> str:
    return format(float(v), ".12g")


def _round12(v):
    if isinstance(v, float):
        return float(format(v, ".12g"))
    return v


def _write_payload(payload: dict, out: str | None, fmt: str = "json"):
    """Write ``payload`` as json, csv or ``key value`` text to ``out`` or stdout."""
    if fmt == "text":
        rows = [f"{k} {_fmt(v) if isinstance(v, float) else v}\n" for k, v in payload.items()]
        text = "".join(rows)
    elif fmt == "csv":  # csv quotes the commas of a list value
        buf = io.StringIO()
        rows = [(k, json.dumps(_round12(v))) for k, v in payload.items()]
        csv.writer(buf, lineterminator="\n").writerows([("key", "value"), *rows])
        text = buf.getvalue()
    else:
        text = json.dumps({k: _round12(v) for k, v in payload.items()}) + "\n"
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text)


def _fail(message: str, code: int) -> int:
    print(f"error: {message}", file=sys.stderr)
    return code


@contextlib.contextmanager
def _prefixed(prefix: str, kinds=(OSError, ValueError)):
    """Re-raise an error of ``kinds`` as a ValueError whose text starts with ``prefix``."""
    try:
        yield
    except kinds as exc:
        raise ValueError(f"{prefix}: {exc}") from exc


def _load_instance(path: str) -> GeneratedInstance:
    """The instance in the JSON file at ``path``; a malformed one raises ValueError."""
    with open(path) as fh:
        data = json.load(fh)
    try:
        return GeneratedInstance.from_dict(data)
    except (AttributeError, KeyError, TypeError) as exc:
        raise ValueError(f"malformed instance: {type(exc).__name__}: {exc}") from exc


def cmd_generate(args) -> int:
    spec = InstanceSpec(
        d=args.d, v=args.v, sigma_q_sq=args.sigma_q_sq, b_scale=args.b_scale, seed=args.seed
    )
    inst = generate_instance(spec)
    Path(args.out).write_text(json.dumps(inst.to_dict(), sort_keys=True, indent=1) + "\n")
    return EXIT_OK


def _check_flags(args):
    for flag, value, alg in (("--beta", args.beta, "admm-s"), ("--p", args.p, "admm-r"),
                             ("--gamma", args.gamma, "iadmm-q")):
        if value is not None and args.algorithm != alg:
            raise ValueError(f"{flag} applies only to {alg}")


_OVERFLOW = "the parameter condition overflows a double"


def _feasibility_gate(alg: str, config: SolverConfig, L_f: float, mu: float) -> bool:
    """True when the run's parameter condition holds."""
    if alg == "pgd":
        return config.rho >= L_f
    if alg == "gd-proj":
        return True
    with _prefixed(_OVERFLOW, (OverflowError,)):
        if alg == "iadmm-q":
            return check_iadmm_condition(L_f, mu, config.rho, config.gamma)
        return check_decrease_condition(L_f, mu, config.rho)


def cmd_solve(args) -> int:
    _check_flags(args)
    given = {"gamma": args.gamma, "beta": args.beta, "mask_prob": args.p}
    config = SolverConfig(
        **{k: v for k, v in given.items() if v is not None},
        rho=args.rho,
        max_iters=args.iters,
        seed=args.seed,
        init_scale=args.init_scale,
        trace_stride=args.trace_stride,
    )
    with _prefixed("cannot load instance"):
        inst = _load_instance(args.instance)
    L_f, mu = inst.objective.lipschitz_L, inst.objective.weak_convexity_mu
    if not args.force and not _feasibility_gate(args.algorithm, config, L_f, mu):
        return _fail(
            f"parameters infeasible for {args.algorithm} (L_f={_fmt(L_f)}, mu={_fmt(mu)}, "
            f"rho={_fmt(args.rho)}); pass --force to run anyway",
            EXIT_INFEASIBLE,
        )
    result = run(args.algorithm, inst.objective, inst.dset, config)

    y = result.state.y  # the reported point; pgd and gd-proj keep y equal to x
    stationary = None  # admm-s's y may lie off the set
    if inst.dset.contains(y, tol=1e-6):
        report = is_rho_stationary(inst.objective, inst.dset, y, args.rho, membership_tol=1e-6)
        stationary = report.is_stationary

    if args.trace:
        result.trace.to_csv(args.trace)
    payload = {
        "algorithm": args.algorithm,
        "rho": args.rho,
        "iterations": config.max_iters,
        "final_objective": result.best_objective,
        "final_f_y": result.final_objective,
        "residual": float(np.linalg.norm(result.state.x - result.state.y)),
        "stationary": stationary,
        "converged": result.converged,
    }
    _write_payload(payload, args.out, args.format)
    return EXIT_OK


def cmd_sweep(args) -> int:
    if args.generate < 0 or bool(args.instances) == bool(args.generate):
        raise ValueError("pass either --instances DIR or --generate N with N >= 1")
    if args.bins < 1:
        raise ValueError(f"--bins must be positive, got {args.bins}")
    if args.workers < 1:
        raise ValueError(f"--workers must be positive, got {args.workers}")
    instances = []
    if args.instances:
        paths = sorted(Path(args.instances).glob("*.json"))
        if not paths:
            raise ValueError(f"no instance files in {args.instances}")
        files = {}  # instance id -> the file that gave it
        for p in paths:
            with _prefixed(f"cannot load {p}"):
                inst = _load_instance(p)
            first = files.setdefault(inst.instance_id, p)
            if first != p:
                raise ValueError(f"instance id {inst.instance_id!r} is in both {first} and {p}")
            instances.append(inst)
    else:
        specs = [
            InstanceSpec(d=args.d, v=args.v, sigma_q_sq=args.sigma_q_sq, seed=args.seed + i)
            for i in range(args.generate)
        ]
        instances = [generate_instance(spec) for spec in specs]

    overrides = {}
    if args.protocol:
        with _prefixed("cannot load protocol"), open(args.protocol) as fh:
            overrides = json.load(fh)
    with _prefixed("bad protocol", (TypeError, ValueError)):
        for key in ("rho_grid", "beta_grid", "p_grid"):
            if key in overrides:
                overrides[key] = tuple(overrides[key])
        protocol = (
            ProtocolSpec.paper(**overrides) if args.paper_scale else ProtocolSpec(**overrides)
        )

    algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
    if not algorithms:
        raise ValueError("--algorithms names no algorithm")
    for alg in algorithms:
        if alg not in METHODS:
            raise ValueError(f"unknown algorithm {alg!r}")

    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    results = []
    for inst in instances:
        print(f"sweeping {inst.instance_id} ...", file=sys.stderr)
        results.append(run_protocol(inst, algorithms, protocol, max_workers=args.workers))
    merged = SweepResult.merge(results)
    merged.to_csv(out_dir / "runs.csv")
    merged.to_summary_json(out_dir / "summary.json")

    best = {alg: merged.best_objectives(alg) for alg in algorithms}
    for i, alg_a in enumerate(algorithms):
        for alg_b in algorithms[i + 1 :]:
            objs_a, objs_b = best[alg_a], best[alg_b]
            shared = sorted(set(objs_a) & set(objs_b))
            if not shared:
                continue
            edges, counts = pairwise_histogram(
                {k: objs_a[k] for k in shared},
                {k: objs_b[k] for k in shared},
                bins=args.bins,
            )
            name = f"hist_{alg_a}_minus_{alg_b}.csv".replace("/", "-")
            write_histogram_csv(edges, counts, out_dir / name)
    print(f"wrote {out_dir}/runs.csv and summary.json", file=sys.stderr)
    return EXIT_OK


def cmd_check_stationary(args) -> int:
    with _prefixed("bad inputs", (OSError, TypeError, ValueError)):
        inst = _load_instance(args.instance)
        point = np.asarray(json.loads(args.point), dtype=float)
    report = is_rho_stationary(inst.objective, inst.dset, point, args.rho, tol=args.tol)
    payload = report.to_dict()
    payload["rho"] = args.rho
    _write_payload(payload, args.out, args.format)
    return EXIT_OK


def _bounded_set(dset: DiscreteProductSet, bounds) -> DiscreteProductSet:
    if bounds is None:
        return dset
    lo, hi = bounds
    coords = []
    for c in dset.coords:
        if isinstance(c, ScaledLattice):
            a = lo if c.a is None else max(c.a, lo)
            b = hi if c.b is None else min(c.b, hi)
            coords.append(ScaledLattice(c.v, a, b))
        else:
            coords.append(c)
    return DiscreteProductSet(coords=tuple(coords))


def cmd_bruteforce(args) -> int:
    with _prefixed("bad inputs"):
        inst = _load_instance(args.instance)
        dset = _bounded_set(inst.dset, args.bounds)
    argmin, value = brute_force_minimize(inst.objective, dset, limit=args.limit)
    _write_payload(
        {"argmin": [_round12(v) for v in argmin.tolist()], "value": value},
        args.out,
        args.format,
    )
    return EXIT_OK


def cmd_verify_conditions(args) -> int:
    # SolverConfig holds the rules for rho and gamma
    SolverConfig(rho=args.rho, gamma=0.0 if args.gamma is None else args.gamma)
    for flag, value in (("--Lf", args.Lf), ("--mu", args.mu)):
        if not (0 <= value < math.inf):
            raise ValueError(f"{flag} must be non-negative and finite, got {value}")
    with _prefixed(_OVERFLOW, (OverflowError,)):
        payload = {
            "L_f": args.Lf,
            "mu": args.mu,
            "rho": args.rho,
            "decrease": check_decrease_condition(args.Lf, args.mu, args.rho),
            "decrease_value": decrease_condition_value(args.Lf, args.mu, args.rho),
            "rho_geq_Lf": args.rho >= args.Lf,
        }
        if args.gamma is not None:
            payload["gamma"] = args.gamma
            payload["iadmm"] = check_iadmm_condition(args.Lf, args.mu, args.rho, args.gamma)
            payload["iadmm_value"] = iadmm_condition_value(args.Lf, args.mu, args.rho, args.gamma)
    if not all(map(math.isfinite, payload.values())):
        raise ValueError(_OVERFLOW)
    _write_payload(payload, args.out, args.format)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="admmq",
        description="Minimize smooth functions over discrete product sets "
        "and benchmark the solver family.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("generate", help="generate a random quadratic-lattice instance")
    p.add_argument("--d", type=int, required=True, help="dimension")
    p.add_argument("--v", type=float, default=8.0, help="lattice spacing")
    p.add_argument("--sigma-q-sq", type=float, default=30.0, dest="sigma_q_sq")
    p.add_argument("--b-scale", type=float, default=None, dest="b_scale")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", required=True, help="output instance JSON path")
    p.set_defaults(func=cmd_generate)

    p = sub.add_parser("solve", help="run one algorithm on an instance")
    p.add_argument("--instance", required=True)
    p.add_argument("--algorithm", required=True, choices=METHODS)
    p.add_argument("--rho", type=float, default=1.0)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--beta", type=float, default=None)
    p.add_argument("--p", type=float, default=None)
    p.add_argument("--iters", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument(
        "--init-scale",
        type=float,
        default=None,
        dest="init_scale",
        help="std-dev of the Gaussian start (default: lattice spacing)",
    )
    p.add_argument("--trace", default=None, help="write per-iteration CSV here")
    p.add_argument("--trace-stride", type=int, default=1, dest="trace_stride")
    p.add_argument("--force", action="store_true", help="run despite infeasible parameters")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("sweep", help="run the benchmark protocol over instances")
    p.add_argument("--instances", default=None, help="directory of instance JSON files")
    p.add_argument("--generate", type=int, default=0, help="generate this many instances")
    p.add_argument("--d", type=int, default=16)
    p.add_argument("--v", type=float, default=8.0)
    p.add_argument("--sigma-q-sq", type=float, default=30.0, dest="sigma_q_sq")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--protocol", default=None, help="JSON file overriding protocol fields")
    p.add_argument("--paper-scale", action="store_true", dest="paper_scale")
    p.add_argument(
        "--algorithms", default="admm-q,admm-s,admm-r,pgd,gd-proj", help="comma-separated"
    )
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--bins", type=int, default=40)
    p.add_argument("--out", required=True, help="output directory")
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("check-stationary", help="stationarity verdict for a point")
    p.add_argument("--instance", required=True)
    p.add_argument("--point", required=True, help="JSON array, e.g. '[0, 8]'")
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_check_stationary)

    p = sub.add_parser("bruteforce", help="exact minimum by enumeration")
    p.add_argument("--instance", required=True)
    p.add_argument(
        "--bounds",
        type=float,
        nargs=2,
        default=None,
        metavar=("LO", "HI"),
        help="box unbounded lattice coordinates to [LO, HI] before enumerating",
    )
    p.add_argument("--limit", type=int, default=10_000_000)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_bruteforce)

    p = sub.add_parser("verify-conditions", help="evaluate the parameter conditions")
    p.add_argument("--Lf", type=float, required=True)
    p.add_argument("--mu", type=float, default=0.0)
    p.add_argument("--rho", type=float, required=True)
    p.add_argument("--gamma", type=float, default=None)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", default=None)
    p.set_defaults(func=cmd_verify_conditions)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except DivergenceError as exc:
        return _fail(f"run diverged: {exc}", EXIT_DIVERGED)
    except SolverError as exc:
        return _fail(f"solver failure: {exc}", EXIT_INFEASIBLE)
    except (OSError, ValueError) as exc:
        return _fail(str(exc), EXIT_USAGE)


def entrypoint():
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
