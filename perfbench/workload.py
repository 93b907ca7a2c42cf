"""One workload process: set up, call the program, check what it wrote.

Usage (``run.py`` starts this; it is not meant to be run by hand)::

    python3 perfbench/workload.py WORKLOAD --seed N --work DIR --spawned T [--setup-only] [--trace]

``T`` is the wall-clock time at which the parent started this process, so
``setup_s`` counts interpreter start, ``import gcflsim`` and building the
inputs. The last line of standard output is one JSON object.

Workloads (why each exists is recorded in ``BENCHMARK.json`` and README.md):

* ``fed-synth``: ``run_experiment`` on the synthetic two-group clients with
  all five algorithms and the calibrated recovery split configuration.
* ``hetero-synth``: the same clients, ``gcfl`` just past its split round, with
  the per-cluster heterogeneity report.
* ``analysis-tu``: ``gcflsim analyze-properties`` on a molecule-shaped and a
  social-shaped TU set, and ``analyze-hetero`` across and within them.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import os
import resource
import sys
import time
import traceback
from pathlib import Path

THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)  # numpy is imported later, so it reads these

WORKLOADS = ("fed-synth", "hetero-synth", "analysis-tu")

# The calibrated recovery configuration of the acceptance suite: the split
# fires right after warm-up, at round 10, and weight decay is off so the
# shared decay pull does not mask the group structure in the updates. The GIN
# is smaller than the default (hidden 32, 2 layers) and the run stops one
# round after the split, so that one run of the program takes a few seconds
# and a benchmark run holds several program processes.
SYNTH_CONFIG = dict(setting="synthetic", num_clients=8, eps1=0.05, eps2=0.01,
                    min_split_size=5, warmup_rounds=10, weight_decay=0.0, hidden=32,
                    num_layers=2, rounds=11)
FED_ALGORITHMS = ["selftrain", "fedavg", "fedprox", "gcfl", "gcflplus"]
HETERO_PAIR_BUDGET = 25
TU_PAIR_BUDGET = 5

# Layers the traced run must see called on each workload.
MOST_ON = {
    "fed-synth": ("gnn.loss_and_grad", "gnn.forward", "gnn.adam_step", "gnn.load_flat",
                  "fed.local_train", "fed.evaluate_client", "fed.run_federation",
                  "clustering.aggregate", "clustering.delta_stats", "clustering.cosine_matrix",
                  "clustering.bipartition", "dtwseries.push_norms", "dtwseries.dtw_matrix",
                  "harness.build_clients", "harness.run_experiment"),
    "hetero-synth": ("hetero.awe_sampled", "hetero.pairwise", "hetero.feature_hist",
                     "hetero.js", "harness.build_clients", "harness.hetero_report"),
    "analysis-tu": ("hetero.awe_exact", "hetero.walk_count", "hetero.pairwise",
                    "hetero.feature_hist", "hetero.js", "properties.significance",
                    "properties.shortest_path", "properties.components",
                    "properties.clustering_coeff", "properties.welch", "graphs.load_tu",
                    "graphs.gnm", "cli.main"),
}

OUTPUT_CSVS = ("rounds.csv", "clusters.csv", "splits.csv", "summary.csv", "hetero.csv",
               "windows.csv")


def _read_csv(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _non_finite(rows: list[dict]) -> list[str]:
    """Cells (or ';'-joined items) that parse as numbers but are not finite."""
    bad = []
    for row in rows:
        for key, cell in row.items():
            for item in cell.split(";"):
                try:
                    value = float(item)
                except ValueError:
                    continue
                if not math.isfinite(value):
                    bad.append(f"{key}={item}")
    return bad


def _sha256(paths) -> dict[str, str]:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in paths if p.exists()}


def _synthetic_config(workload: str, seed: int, out_dir: Path):
    from gcflsim.harness import ExperimentConfig

    if workload == "fed-synth":
        extra = dict(algorithms=FED_ALGORITHMS, hetero_report=False)
    else:
        extra = dict(algorithms=["gcfl"], hetero_report=True, pair_budget=HETERO_PAIR_BUDGET)
    return ExperimentConfig(**SYNTH_CONFIG, **extra, seeds=[seed], out_dir=str(out_dir))


def _planted_groups(clients) -> set[frozenset]:
    """The two planted client groups, read off the inputs: sparse versus dense graphs."""
    density = {c.id: sum(g.num_edges for g in c.train_graphs) / len(c.train_graphs)
               for c in clients}
    cut = (min(density.values()) + max(density.values())) / 2
    return {frozenset(c for c, d in density.items() if d < cut),
            frozenset(c for c, d in density.items() if d >= cut)}


def _split_findings(out: Path, algorithm: str, planted) -> tuple[list[str], bool]:
    """Problems with one clustered algorithm's splits, and whether it recovered the groups.

    Every split must divide its parent cluster's members exactly. Recovery
    means one split, into exactly the planted groups.
    """
    events = [r for r in _read_csv(out / "splits.csv") if r["algorithm"] == algorithm]
    members = {(r["round"], r["cluster_id"]): set(r["client_ids"].split(";"))
               for r in _read_csv(out / "clusters.csv") if r["algorithm"] == algorithm}
    problems = [] if events else [f"{algorithm}: no split"]
    sides = []
    for ev in events:
        a, b = set(ev["members_a"].split(";")), set(ev["members_b"].split(";"))
        sides = {frozenset(int(x) for x in a), frozenset(int(x) for x in b)}
        if a & b or a | b != members.get((ev["round"], ev["parent"])):
            problems.append(f"{algorithm}: round {ev['round']} split does not divide its parent")
    return problems, len(events) == 1 and sides == planted


def check_synthetic(workload: str, config, out: Path, clients) -> dict:
    algorithms = ["selftrain"] + [a for a in config.algorithms if a != "selftrain"]
    tables = {name: _read_csv(out / name) for name in OUTPUT_CSVS}
    problems = [f"{name}: non-finite {cells[:3]}" for name, rows in tables.items()
                if (cells := _non_finite(rows))]
    want = config.rounds * len(clients) * len(algorithms)
    if len(tables["rounds.csv"]) != want:
        problems.append(f"rounds.csv: {len(tables['rounds.csv'])} rows, expected {want}")
    planted = _planted_groups(clients)
    recovered = {}
    for algorithm in ("gcfl", "gcflplus"):
        if algorithm in algorithms:
            found, recovered[algorithm] = _split_findings(out, algorithm, planted)
            problems += found
    if workload == "hetero-synth":
        rows = tables["hetero.csv"]
        if len(rows) < 3 or rows[0]["cluster_id"] != "all":
            problems.append(f"hetero.csv: {len(rows)} rows, expected the baseline and clusters")
        elif recovered["gcfl"]:
            # acceptance criterion 7a, which holds where the planted groups were recovered
            baseline = float(rows[0]["structure_mean"])
            problems += [f"hetero.csv: cluster {r['cluster_id']} structure_mean "
                         f"{r['structure_mean']} not below baseline {baseline!r}"
                         for r in rows[1:] if not float(r["structure_mean"]) < baseline]
    return {"problems": problems, "recovered": recovered,
            "sha256": _sha256(out / name for name in OUTPUT_CSVS)}


def _tu_commands(root: Path, out: Path, seed: int) -> list[tuple[str, list[str]]]:
    from tudata import MOLECULE_SET, SOCIAL_SET

    common = ["--data-root", str(root), "--seed", str(seed)]
    hetero = ["--pair-budget", str(TU_PAIR_BUDGET)]
    return [
        ("props_mol", ["analyze-properties", *common, "--dataset", MOLECULE_SET,
                       "--out", str(out / "props_mol.csv")]),
        ("props_social", ["analyze-properties", *common, "--dataset", SOCIAL_SET,
                          "--out", str(out / "props_social.csv")]),
        ("hetero_cross", ["analyze-hetero", *common, *hetero, "--set-a", MOLECULE_SET,
                          "--set-b", SOCIAL_SET, "--out", str(out / "hetero_cross.csv")]),
        ("hetero_same", ["analyze-hetero", *common, *hetero, "--set-a", MOLECULE_SET,
                         "--set-b", MOLECULE_SET, "--out", str(out / "hetero_same.csv")]),
    ]


def check_tu(out: Path) -> dict[str, list[str]]:
    """Problems per command output of the analysis-tu workload."""
    from gcflsim.properties import PROPERTY_NAMES

    found: dict[str, list[str]] = {}
    for key in ("props_mol", "props_social"):
        rows = _read_csv(out / f"{key}.csv")
        problems = [] if [r["property"] for r in rows] == list(PROPERTY_NAMES) else \
            [f"{key}.csv: properties {[r['property'] for r in rows]}"]
        if key == "props_mol" and not problems:
            lcc = next(r["real"] for r in rows if r["property"] == "largest_component_pct")
            if float(lcc) != 100.0:
                problems.append(f"props_mol.csv: largest_component_pct {lcc}, expected 100")
        found[key] = problems
    means = {}
    for key in ("hetero_cross", "hetero_same"):
        rows = _read_csv(out / f"{key}.csv")
        found[key] = [] if len(rows) == 1 and not _non_finite(rows) else [f"{key}.csv: {rows}"]
        means[key] = float(rows[0]["structure_mean"]) if not found[key] else math.nan
    if not means["hetero_cross"] > means["hetero_same"]:
        found["hetero_cross"].append(
            f"cross-set structure {means['hetero_cross']!r} not above "
            f"same-set {means['hetero_same']!r}")
    return found


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", type=Path, required=True)
    parser.add_argument("--spawned", type=float, required=True)
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)
    checkout = Path(__file__).resolve().parent.parent
    sys.path.insert(0, str(checkout / "src"))

    import gcflsim

    if not Path(gcflsim.__file__).resolve().is_relative_to(checkout / "src"):
        raise SystemExit(f"gcflsim imported from {gcflsim.__file__}, not from this checkout")
    tracer = None
    if args.trace:
        from spans import Tracer

        tracer = Tracer()
        tracer.install()
    from gcflsim import cli, graphs, harness

    out = args.work / ("trace" if args.trace else "plain")
    if args.workload == "analysis-tu":
        from tudata import MOLECULE_SET, SOCIAL_SET

        inputs = [graphs.load_tu_dataset(args.work / "tu", name)
                  for name in (MOLECULE_SET, SOCIAL_SET)]
    else:
        config = _synthetic_config(args.workload, args.seed, out)
        inputs = harness.build_clients(config, args.seed)
    result = {"setup_s": time.time() - args.spawned}
    if args.setup_only:
        print(json.dumps(result))
        return 0

    out.mkdir(parents=True, exist_ok=True)
    attempted, failed, problems = 0, 0, []
    if args.workload == "analysis-tu":
        commands = _tu_commands(args.work / "tu", out, args.seed)
        codes = {}
        start, cpu = time.perf_counter(), time.process_time()
        for key, cli_args in commands:
            try:
                codes[key] = cli.main(cli_args)
            except Exception:
                codes[key] = traceback.format_exc(limit=3)
        result["run_s"] = time.perf_counter() - start
        result["run_cpu_s"] = time.process_time() - cpu
        findings = check_tu(out) if all(c == 0 for c in codes.values()) else \
            {key: [] if c == 0 else [f"{key}: exit {c}"] for key, c in codes.items()}
        for key, found in findings.items():
            attempted += 1
            failed += bool(found)
            problems += found
        result["sha256"] = _sha256(sorted(out.glob("*.csv")))
        result["work"] = {"graphs": sum(len(ds) for ds in inputs), "commands": len(commands)}
    else:
        attempted = 1
        start, cpu = time.perf_counter(), time.process_time()
        try:
            harness.run_experiment(config)
        except Exception:
            problems.append(traceback.format_exc(limit=3))
        result["run_s"] = time.perf_counter() - start
        result["run_cpu_s"] = time.process_time() - cpu
        if not problems:
            checked = check_synthetic(args.workload, config, out, inputs)
            problems = checked.pop("problems")
            result.update(checked)
        failed = int(bool(problems))
        algorithms = len(set(config.algorithms) | {"selftrain"})
        result["work"] = {"client_rounds": config.rounds * len(inputs) * algorithms}
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    if tracer is not None:
        layers = tracer.metrics()
        idle = [name for name in MOST_ON[args.workload]
                if not tracer.is_absent(f"{name}.calls") and not layers.get(f"{name}.calls")]
        attempted += 1
        failed += bool(idle)
        if idle:
            problems.append(f"traced layers with no calls: {idle}")
        result["layers"] = layers
        result["absent"] = sorted(tracer.absent)
    result.update(attempted=attempted, failed=failed, problems=problems)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
