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
    ingest_rotations,
    json_numbers,
    load_measurements,
    parse_pose,
    translation_gram,
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
    protocols = exp.add_subparsers(dest="protocol", required=True)

    def protocol(name, run, help, seeded=True, parallel=True):
        """The subcommand that runs `run`. Each option sets the keyword of `run` named by
        its dest; one left out keeps run's default. Any other option is a usage error."""
        cmd = protocols.add_parser(name, help=help, argument_default=argparse.SUPPRESS)
        cmd.add_argument("--output", required=True, help="output prefix for CSV + JSON summary")
        if seeded:
            cmd.add_argument("--seed", type=seed, required=True)
        if parallel:
            cmd.add_argument("--jobs", type=count)
        cmd.set_defaults(run=run)
        return cmd

    abl = protocol("ablation", sim.ablation_experiment, "certified fraction per constraint set",
                   seeded=False)
    variant = abl.add_mutually_exclusive_group()
    variant.add_argument("--n-axes", type=count)
    variant.add_argument("--translation-variant", dest="translation_magnitudes",
                         action="store_const", const=[0.1, 1.0, 10.0],
                         help="perturb a translation at fixed pi/2 rotation error")
    sweep = protocol("noise-sweep", sim.noise_sweep, "convex vs local accuracy over a noise grid")
    sweep.add_argument("--n-trials", type=count)
    sweep.add_argument("--n-motions", type=motions)
    sweep.add_argument("--sigma-r", dest="sigmas_r", type=sigma, nargs="+")
    sweep.add_argument("--sigma-t", dest="sigmas_t", type=sigma, nargs="+")
    heat = protocol("heatmap", sim.init_heatmap, "local solver error from offset starts")
    heat.add_argument("--n-inits", type=count)
    heat.add_argument("--n-motions", type=motions)
    runtime = protocol("runtime", sim.runtime_bench, "wall time against the number of motions",
                       parallel=False)
    runtime.add_argument("--n-list", type=motions, nargs="+")
    runtime.add_argument("--n-runs", type=count)

    cert = sub.add_parser("certify", help="certify a candidate extrinsic against measurements")
    cert.add_argument("--input", required=True, help="measurement JSON-lines file")
    cert.add_argument("--theta", required=True, help="candidate extrinsic JSON file")
    cert.add_argument("--output", default=None)
    cert.add_argument(
        "--constraint-set", default="r+c+h", choices=list(qcqp.CONSTRAINT_KINDS)
    )

    for command in [*sub.choices.values(), *protocols.choices.values()]:
        command.set_defaults(parser=command)  # whose usage `main` prints on a usage error
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
    report = check_observability(translation_gram(clean))

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
    return EXIT_OK


def cmd_experiment(args) -> int:
    cli_only = ("command", "protocol", "output", "run", "parser")
    rows, summary = args.run(**{k: v for k, v in vars(args).items() if k not in cli_only})
    with open(f"{args.output}.csv", "w", encoding="utf-8", newline="") as fp:
        sim.write_rows_csv(rows, fp)
    _write_report(summary, f"{args.output}.json")
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
    dm = qcqp.assemble(measurements)
    cost = solver.evaluate_cost(measurements, candidate)
    solution, _, _, certificate = solver.settle(dm, args.constraint_set, lambda _: (candidate, cost))
    numbers = dict(candidate_cost=certificate.cost, dual_lower_bound=certificate.lower_bound,
                   gap=certificate.gap)
    report = {
        "schema_version": 1,
        **json_numbers(numbers),
        "certified": certificate.certified,
        "sdp_status": solution.status,
        "sdp_tolerance": solution.tolerance,
        "certificate": certificate.to_dict(),
    }
    _write_report(report, args.output)
    return EXIT_OK if certificate.certified else EXIT_NOT_CERTIFIED


def main(argv=None) -> int:
    try:
        # argparse hands a subcommand's unknown arguments up to the root parser,
        # whose error would print the root's usage; report them with the
        # subcommand's usage, which lists the options it does take.
        args, unknown = build_parser().parse_known_args(argv)
        if unknown:
            args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
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
