"""Command-line interface: calibrate, simulate, experiment, certify.

Exit codes: 0 success (certified where applicable), 2 completed but not
certified, 1 error, including a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import qcqp, sim, solver
from .errors import CalibrationError, ParseError
from .geom import RotationMatrix, Transform
from .problem import (
    check_observability,
    dump_measurements,
    dump_trajectory,
    ingest_rotations,
    load_measurements,
    parse_pose,
)

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_NOT_CERTIFIED = 2


def _at_least(kind, low, strict=False):
    """An argparse type: a finite `kind` parsed from text, >= low (> low if strict)."""
    rule = "finite" if low == -np.inf else f"> {low}" if strict else f">= {low}"

    def parse(text):
        value = kind(text)
        if not (value > low if strict else value >= low) or not np.isfinite(value):
            raise argparse.ArgumentTypeError(f"must be {rule}, got {text}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid int value"
    return parse


def build_parser() -> argparse.ArgumentParser:
    count, motions, seed = _at_least(int, 1), _at_least(int, 2), _at_least(int, 0)
    sigma = _at_least(float, 0.0)
    parser = argparse.ArgumentParser(
        prog="egocal",
        description="Certifiably globally optimal extrinsic calibration from egomotion pairs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    cal = sub.add_parser("calibrate", help="calibrate from a JSON-lines measurement file")
    cal.add_argument("--input", required=True, help="measurement JSON-lines file")
    cal.add_argument("--output", default=None, help="where to write the JSON report (default stdout)")
    cal.add_argument(
        "--constraint-set",
        default="r+c+h",
        choices=list(qcqp.CONSTRAINT_KINDS),
        help="SO(3) constraint set for the dual",
    )

    simp = sub.add_parser("simulate", help="generate synthetic measurements from a terrain path")
    simp.add_argument("--output", required=True, help="output prefix (writes <prefix>.jsonl etc.)")
    simp.add_argument("--seed", type=seed, required=True)
    simp.add_argument("--n-motions", type=motions, default=50)
    simp.add_argument("--radius", type=_at_least(float, 0.0, strict=True), default=10.0)
    simp.add_argument("--amplitude", type=_at_least(float, -np.inf), default=1.0)
    simp.add_argument("--sigma-r", type=sigma, default=0.0)
    simp.add_argument("--sigma-t", type=sigma, default=0.0)

    exp = sub.add_parser("experiment", help="run one of the benchmark protocols")
    exp.add_argument("kind", choices=["ablation", "noise-sweep", "heatmap", "runtime"])
    exp.add_argument("--output", required=True, help="output prefix for CSV + JSON summary")
    exp.add_argument("--seed", type=seed, required=True)
    exp.add_argument("--jobs", type=count, default=1)
    exp.add_argument("--n-trials", type=count, default=100)
    exp.add_argument("--n-motions", type=motions, default=50)
    exp.add_argument("--n-axes", type=count, default=100)
    exp.add_argument("--translation-variant", action="store_true",
                     help="ablation only: perturb a translation at fixed pi/2 rotation error")
    exp.add_argument("--n-list", type=motions, nargs="+", default=[10, 100, 1000])
    exp.add_argument("--n-runs", type=count, default=20)
    exp.add_argument("--n-inits", type=count, default=64)
    exp.add_argument("--sigma-r", type=sigma, nargs="+", default=[0.01, 0.05, 0.1])
    exp.add_argument("--sigma-t", type=sigma, nargs="+", default=[0.01, 0.05, 0.1])

    cert = sub.add_parser("certify", help="certify a candidate extrinsic against measurements")
    cert.add_argument("--input", required=True, help="measurement JSON-lines file")
    cert.add_argument("--theta", required=True, help="candidate extrinsic JSON file")
    cert.add_argument("--output", default=None)
    cert.add_argument(
        "--constraint-set", default="r+c+h", choices=list(qcqp.CONSTRAINT_KINDS)
    )

    return parser


def _write_report(report: dict, output) -> None:
    text = json.dumps(report, indent=2) + "\n"
    if output:
        Path(output).write_text(text)
    else:
        sys.stdout.write(text)


def cmd_calibrate(args) -> int:
    with open(args.input, "rb") as fp:
        measurements = load_measurements(fp)
    result = solver.calibrate(measurements, args.constraint_set)
    _write_report(result.to_dict(), args.output)
    return EXIT_OK if result.certificate.certified else EXIT_NOT_CERTIFIED


def cmd_simulate(args) -> int:
    prefix = args.output
    path, theta, clean, noisy = sim.terrain_instance(
        np.random.default_rng(args.seed), args.n_motions, args.sigma_r, args.sigma_t,
        radius=args.radius, amplitude=args.amplitude,
    )
    report = check_observability(clean)

    with open(f"{prefix}.jsonl", "w", encoding="utf-8") as fp:
        dump_measurements(noisy, fp)
    truth = {
        "schema_version": 1,
        "theta": {"R": theta.rotation.m.tolist(), "t": theta.translation.tolist()},
        "noise": {"sigma_r": args.sigma_r, "sigma_t": args.sigma_t},
        "path_params": path.params,
        "observability": report.to_dict(),
    }
    _write_report(truth, f"{prefix}_truth.json")
    with open(f"{prefix}_path.csv", "w", encoding="utf-8", newline="") as fp:
        fp.write("step,x,y,z\n")
        for i, (x, y, z) in enumerate(path.positions):
            fp.write(f"{i},{x},{y},{z}\n")
    with open(f"{prefix}_trajectory_b.jsonl", "w", encoding="utf-8") as fp:
        dump_trajectory((path.rotations, path.positions), fp)
    return EXIT_OK


def cmd_experiment(args) -> int:
    if args.kind == "ablation":
        if args.translation_variant:
            rows, summary = sim.ablation_experiment(
                translation_magnitudes=[0.1, 1.0, 10.0],
                jobs=args.jobs,
            )
        else:
            rows, summary = sim.ablation_experiment(n_axes=args.n_axes, jobs=args.jobs)
    elif args.kind == "noise-sweep":
        rows, summary = sim.noise_sweep(
            sigmas_r=tuple(args.sigma_r),
            sigmas_t=tuple(args.sigma_t),
            n_trials=args.n_trials,
            n_motions=args.n_motions,
            seed=args.seed,
            jobs=args.jobs,
        )
    elif args.kind == "heatmap":
        rows, summary = sim.init_heatmap(
            n_inits=args.n_inits,
            n_motions=args.n_motions,
            seed=args.seed,
            jobs=args.jobs,
        )
    else:
        rows, summary = sim.runtime_bench(
            n_list=tuple(args.n_list), n_runs=args.n_runs, seed=args.seed
        )
    with open(f"{args.output}.csv", "w", encoding="utf-8", newline="") as fp:
        sim.write_rows_csv(rows, fp)
    with open(f"{args.output}.json", "w", encoding="utf-8") as fp:
        sim.write_summary_json(summary, fp)
    return EXIT_OK


def _load_theta(path) -> Transform:
    try:
        obj = json.loads(Path(path).read_text())
        r, t = parse_pose(obj.get("theta", obj) if isinstance(obj, dict) else obj)
    except (ValueError, RecursionError) as exc:  # RecursionError: nested too deeply
        raise ParseError(f"{path}: invalid JSON: {exc}") from None
    return Transform(RotationMatrix(ingest_rotations(r[None, None], lambda _: path)[0, 0]), t)


def cmd_certify(args) -> int:
    with open(args.input, "rb") as fp:
        measurements = load_measurements(fp)
    candidate = _load_theta(args.theta)
    relaxation = solver.relax(measurements, args.constraint_set)
    cost = solver.evaluate_cost(measurements, candidate)
    certificate = solver.certify(relaxation, candidate.rotation, cost)
    report = {
        "schema_version": 1,
        "candidate_cost": certificate.cost,
        "dual_lower_bound": certificate.lower_bound,
        "gap": certificate.gap,
        "certified": certificate.certified,
        "sdp_status": relaxation.solution.status,
        "certificate": certificate.to_dict(),
    }
    _write_report(report, args.output)
    return EXIT_OK if certificate.certified else EXIT_NOT_CERTIFIED


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 after --help, 2 on a usage error
        return EXIT_ERROR if exc.code else EXIT_OK
    handlers = {
        "calibrate": cmd_calibrate,
        "simulate": cmd_simulate,
        "experiment": cmd_experiment,
        "certify": cmd_certify,
    }
    try:
        return handlers[args.command](args)
    except CalibrationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR


if __name__ == "__main__":
    sys.exit(main())
