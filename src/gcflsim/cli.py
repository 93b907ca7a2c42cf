"""Command line entry points.

Subcommands: ``analyze-properties`` (property statistics with random-null
significance), ``analyze-hetero`` (pairwise structure/feature heterogeneity),
``run`` (federated experiments from a config file), and ``calibrate``
(eps1 and eps2 from a FedAvg probe: ``harness.MEAN_MARGIN`` times its final
mean-update norm and ``harness.MAX_MARGIN`` times its final largest client
update norm). Exit status is 0 on success; on failure the named
error class is printed to stderr and a class-specific nonzero code returned.
An output location that cannot be written is refused before any work.
"""

from __future__ import annotations

import argparse
import logging
import sys
from pathlib import Path

from .errors import (
    ArgumentError,
    ConfigurationError,
    CorruptDatasetError,
    DivergenceError,
    GcflSimError,
    IngestionError,
    UndefinedEmbeddingError,
)
from . import harness
from .hetero import (
    dataset_pools,
    enumerate_anonymous_walks,
    pairwise_heterogeneity,
    write_heterogeneity_csv,
)
from .outputs import check_writable, write_csv
from .properties import PROPERTY_NAMES, property_significance

logger = logging.getLogger(__name__)

EXIT_CODES = {
    ArgumentError: 2,
    ConfigurationError: 3,
    IngestionError: 4,
    CorruptDatasetError: 5,
    UndefinedEmbeddingError: 7,
    DivergenceError: 8,
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gcflsim",
        description="Deterministic clustered federated learning over graph datasets",
    )
    parser.add_argument("-v", "--verbose", action="store_true", help="debug logging")
    sub = parser.add_subparsers(dest="command", required=True)

    props = sub.add_parser("analyze-properties",
                           help="graph property statistics vs G(n,m) random nulls")
    props.add_argument("--data-root", required=True)
    props.add_argument("--dataset", required=True)
    props.add_argument("--seed", type=int, default=0)
    props.add_argument("--out", default="properties.csv")

    het = sub.add_parser("analyze-hetero",
                         help="pairwise structure/feature heterogeneity of two datasets")
    het.add_argument("--data-root", required=True)
    het.add_argument("--set-a", required=True)
    het.add_argument("--set-b", required=True)
    het.add_argument("--awe-length", type=int, default=4)
    het.add_argument("--bins", type=int, default=20)
    het.add_argument("--pair-budget", type=int, default=2000)
    het.add_argument("--seed", type=int, default=0)
    het.add_argument("--out", default="hetero_pairs.csv")

    run = sub.add_parser("run", help="run federated experiments from a config file")
    run.add_argument("--config", required=True, help="key = value config file")
    run.add_argument("--set", action="append", default=[], metavar="KEY=VALUE",
                     help="override a config entry (repeatable)")

    cal = sub.add_parser("calibrate",
                         help="set eps1/eps2 from a FedAvg probe's update norms")
    cal.add_argument("--config", required=True)
    cal.add_argument("--set", action="append", default=[], metavar="KEY=VALUE")
    cal.add_argument("--rounds", type=int, default=50, help="probe rounds")
    cal.add_argument("--out", default="calibration.csv")
    return parser


def cmd_analyze_properties(args) -> int:
    check_writable(args.out)
    dataset = harness.load_dataset(args.data_root, args.dataset)  # no property reads features
    report = property_significance(dataset, args.seed)
    report.write_csv(args.out)
    print(f"{args.dataset}: {len(dataset)} graphs")
    for prop in PROPERTY_NAMES:
        stat = report.rows[prop]
        p = "not computed" if stat.p_value is None else f"{stat.p_value:.3g}"
        print(f"  {prop:24s} real {stat.real:10.4f}  random {stat.random:10.4f}  p {p}")
    print(f"wrote {args.out}")
    return 0


def cmd_analyze_hetero(args) -> int:
    enumerate_anonymous_walks(args.awe_length)  # its range check, before any set is read
    for flag, value in (("--bins", args.bins), ("--pair-budget", args.pair_budget)):
        if value < 1:
            raise ArgumentError(f"{flag} must be >= 1, got {value}")
    check_writable(args.out)
    set_a = harness.load_dataset_for_federation(args.data_root, args.set_a)
    set_b = set_a if args.set_b == args.set_a else \
        harness.load_dataset_for_federation(args.data_root, args.set_b)
    report = pairwise_heterogeneity(
        *dataset_pools(set_a, set_b, args.awe_length, args.bins, args.seed), args.pair_budget)
    write_heterogeneity_csv(args.out, [report])
    print(f"{report.set_a} vs {report.set_b}: "
          f"structure {report.structure_mean:.4f} (+/-{report.structure_std:.4f})  "
          f"feature {report.feature_mean:.4f} (+/-{report.feature_std:.4f})")
    print(f"wrote {args.out}")
    return 0


def cmd_run(args) -> int:
    config = harness.ExperimentConfig.from_file(args.config).with_overrides(args.set)
    for algorithm, seed, m in harness.run_experiment(config):
        print(f"{algorithm:10s} seed {seed}: avg acc {m.average:.4f}  min gain {m.min_gain:+.4f}  "
              f"improved {m.improved}/{m.total}")
    print(f"wrote CSV outputs to {Path(config.out_dir).resolve()}")
    return 0


def cmd_calibrate(args) -> int:
    config = harness.ExperimentConfig.from_file(args.config).with_overrides(
        args.set + [f"rounds={args.rounds}"])  # rounds checked as a config, before any data
    check_writable(args.out)
    seed = config.seeds[0]
    eps1, eps2, delta_mean, delta_max = harness.auto_epsilons(
        harness.build_clients(config, seed), harness.make_run_config(config, seed), config.rounds)
    write_csv(args.out, ["eps1", "eps2", "delta_mean", "delta_max"],
              [[repr(eps1), repr(eps2), repr(delta_mean), repr(delta_max)]])
    print(f"probe over {config.rounds} rounds: delta_mean={delta_mean:g} delta_max={delta_max:g}")
    print(f"--set eps1={eps1!r} --set eps2={eps2!r} (wrote {args.out})")
    return 0


COMMANDS = {
    "analyze-properties": cmd_analyze_properties,
    "analyze-hetero": cmd_analyze_hetero,
    "run": cmd_run,
    "calibrate": cmd_calibrate,
}


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.DEBUG if args.verbose else logging.INFO,
                        format="%(levelname)s %(name)s: %(message)s")
    try:
        if getattr(args, "seed", 0) < 0:  # SeedSequence would reject it only after loading data
            raise ArgumentError(f"--seed must be >= 0, got {args.seed}")
        return COMMANDS[args.command](args)
    except GcflSimError as exc:
        print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
        return next((EXIT_CODES[cls] for cls in type(exc).__mro__ if cls in EXIT_CODES), 1)


if __name__ == "__main__":
    sys.exit(main())
