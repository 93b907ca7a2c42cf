"""Benchmark of gcflsim: run one workload for a fixed time and report its metrics.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fed-synth --seed 1 --seconds 40 --trace 0

The benchmark drives gcflsim from outside, through its public API and CLI,
on inputs generated from ``--seed``. Each run of the program happens in a new
single-threaded process (BLAS threads pinned to 1) that sets up its inputs,
calls the program and checks what it wrote; this script starts such processes
until ``--seconds`` have passed (at least three), then a few processes that
only set up, and reports medians.

With ``--trace 0`` it reports the end-to-end metrics of ``BENCHMARK.json``:
``setup_s`` (process start to inputs in memory), ``run_s`` (the calls into
the program, CSV writing included) and ``peak_rss_mb``. With ``--trace 1``
it alternates plain and traced processes and reports the per-layer metrics:
self time, calls and counts at the public functions of each module (see
``spans.py``), and ``trace.overhead_s``, traced minus plain ``run_s``.

Lines starting with ``#`` describe the run; the last line of standard output
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``. Details (environment, per-process values, output hashes) go to
``.perfbench/<workload>-seed<seed>-trace<0|1>.json`` in the checkout.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from spans import span_of
from workload import THREAD_ENV, WORKLOADS  # importing workload pins the BLAS threads

HERE = Path(__file__).resolve().parent
CHECKOUT = HERE.parent
MIN_RUNS = 3
MIN_SETUPS = 5
TIME_LIMIT_S = 170.0  # every process this script starts has ended by then


def _seed(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("the seed must be >= 0")
    return value


def _spawn(workload: str, seed: int, work: Path, deadline: float, **flags) -> dict:
    """Start one workload process, wait for it, and return its JSON result."""
    cmd = [sys.executable, str(HERE / "workload.py"), workload, "--seed", str(seed),
           "--work", str(work)] + [f"--{k.replace('_', '-')}" for k, on in flags.items() if on]
    env = {**os.environ, **THREAD_ENV}
    started = time.perf_counter()
    try:
        proc = subprocess.run(cmd + ["--spawned", repr(time.time())], env=env, cwd=CHECKOUT,
                              capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.perf_counter()))
        lines = proc.stdout.strip().splitlines()
        result = json.loads(lines[-1]) if proc.returncode == 0 and lines else None
        why = proc.stderr.strip().splitlines()[-3:]
    except subprocess.TimeoutExpired:
        result, why = None, ["timed out"]
    if result is None:
        result = {"attempted": 1, "failed": 1, "problems": [f"process failed: {why}"]}
    result["wall_s"] = time.perf_counter() - started
    return result


def _environment() -> dict:
    import numpy
    import scipy

    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numpy_config": numpy.show_config(mode="dicts"),
        "scipy_config": scipy.show_config(mode="dicts"),
    }


def _blas(env: dict) -> str:
    blas = env["numpy_config"].get("Build Dependencies", {}).get("blas", {})
    return f"{blas.get('name', '?')} {blas.get('version', '?')}"


def _layer_metrics(traced: list[dict], plain: list[dict], names: list[str]):
    """Per-layer values (medians of times, counts that must repeat) and problems."""
    absent = set().union(*(r.get("absent", []) for r in traced))
    values, problems = {}, []
    for name in names:
        if name == "trace.overhead_s":
            values[name] = (statistics.median(r["run_s"] for r in traced)
                            - statistics.median(r["run_s"] for r in plain))
        elif span_of(name) in absent:
            values[name] = None
        elif name.endswith("_s"):
            values[name] = statistics.median(r["layers"].get(name, 0.0) for r in traced)
        else:
            seen = {r["layers"].get(name, 0) for r in traced}
            if len(seen) > 1:
                problems.append(f"{name} differs between traced runs: {sorted(seen)}")
            values[name] = traced[0]["layers"].get(name, 0)
    return values, problems


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="Run one gcflsim benchmark workload.")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=_seed)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, type=int, choices=(0, 1))
    args = parser.parse_args(argv)
    # SIGTERM becomes SystemExit, so subprocess.run kills and reaps the running workload
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    begin = time.perf_counter()
    deadline = begin + TIME_LIMIT_S

    if not (CHECKOUT / "src" / "gcflsim" / "__init__.py").is_file():
        print(f"no gcflsim sources under {CHECKOUT / 'src'}", file=sys.stderr)
        return 2
    spec = json.loads((CHECKOUT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    compileall.compile_dir(str(CHECKOUT / "src"), quiet=1)
    sys.path.insert(0, str(CHECKOUT / "src"))

    work = CHECKOUT / ".perfbench" / f"work-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        notes = {"environment": _environment()}
        if args.workload == "analysis-tu":
            import tudata

            notes["inputs"] = tudata.write_and_verify(work / "tu", args.seed)

        runs: list[dict] = []
        start = time.perf_counter()
        while time.perf_counter() < deadline - 5.0:
            elapsed = time.perf_counter() - start
            typical = statistics.median(r["wall_s"] for r in runs) if runs else 0.0
            if len(runs) >= MIN_RUNS and elapsed + typical > args.seconds:
                break
            runs.append(_spawn(args.workload, args.seed, work, deadline,
                               trace=bool(args.trace and len(runs) % 2)))
        setups = [r["setup_s"] for r in runs if "setup_s" in r]
        while not args.trace and len(setups) < MIN_SETUPS and time.perf_counter() < deadline - 10:
            extra = _spawn(args.workload, args.seed, work, deadline, setup_only=True)
            if "setup_s" not in extra:
                runs.append(extra)  # a failed set-up counts as a failed operation
                break
            setups.append(extra["setup_s"])
    finally:
        shutil.rmtree(work, ignore_errors=True)

    measured = [r for r in runs if "run_s" in r]
    traced = [r for r in measured if "layers" in r]
    plain = [r for r in measured if "layers" not in r]
    if not plain or (args.trace and not traced):
        print("no run of the program finished; see the problems above", file=sys.stderr)
        for r in runs:
            print(f"# {r.get('problems')}", file=sys.stderr)
        return 1
    attempted = sum(r["attempted"] for r in runs)
    failed = sum(r["failed"] for r in runs)
    problems = [p for r in runs for p in r.get("problems", [])]
    if args.trace:
        values, extra_problems = _layer_metrics(traced, plain, [m["name"] for m in wanted])
        attempted += 1
        failed += bool(extra_problems)
        problems += extra_problems
    else:
        values = {"setup_s": statistics.median(setups),
                  "run_s": statistics.median(r["run_s"] for r in plain),
                  "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain)}

    env = notes["environment"]
    print(f"# perfbench {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(runs)} program runs ({len(traced)} traced), {len(setups)} set-ups, "
          f"{time.perf_counter() - begin:.1f} s")
    print(f"# env: python {env['python']}, numpy {env['numpy']}, scipy {env['scipy']}, "
          f"blas {_blas(env)}, {env['thread_env']}, nproc {env['nproc']}")
    print(f"# work per program run: {measured[0].get('work')}")
    for r in measured:
        if "recovered" in r:
            print(f"# planted groups recovered: {r['recovered']}")
            break
    for m in wanted:
        value = values[m["name"]]
        shown = "absent" if value is None else f"{value:.6g}"
        print(f"# {m['name']:36s} {shown:>12s} {m['unit']}")
    print(f"# {'failed_ratio':36s} {failed / attempted:12.6g} ratio ({failed} of {attempted})")
    for p in problems:
        print(f"# problem: {p}")

    results = CHECKOUT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    results.write_text(json.dumps({**notes, "metrics": values, "problems": problems,
                                   "runs": runs, "setups": setups}, indent=1))
    metrics = {m["name"]: {"value": 0 if values[m["name"]] is None else values[m["name"]],
                           "unit": m["unit"]} for m in wanted}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
