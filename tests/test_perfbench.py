"""The benchmark's traced run must find every layer it expects to be called.

A refactor that keeps a traced function defined but stops calling it makes
the benchmark fail; this catches it in the test suite instead.
"""

import importlib
import importlib.util
import inspect
import json
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


def load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def write_tu_inputs(root: Path, seed: int) -> None:
    """The analysis-tu inputs, written the way the benchmark writes them."""
    load_perfbench("tudata").write_and_verify(root, seed)


# wrap points whose functions were removed; the benchmark reports their layers absent
RETIRED = {("clustering", "delta_stats"), ("gnn", "GinModel.load_flat"),
           ("dtwseries", "push_norms"), ("properties", "avg_shortest_path"),
           ("properties", "largest_component_fraction"),
           ("properties", "avg_clustering_coefficient"), ("hetero", "exact_walk_count")}


def wrapped(module: str, attribute: str):
    """What the tracer wraps for a wrap point, or None, looked up as the tracer looks it up."""
    cls_name, _, name = attribute.rpartition(".")
    owner = importlib.import_module(f"gcflsim.{module}")
    return getattr(getattr(owner, cls_name, None) if cls_name else owner, name, None)


def test_wrap_points_resolve():
    """The tracer reports a missing wrap point as absent instead of failing, so check here."""
    for module, attribute, _ in load_perfbench("spans").WRAP_POINTS:
        assert callable(wrapped(module, attribute)) != ((module, attribute) in RETIRED), \
            (module, attribute)


def test_notes_bind_arguments_that_exist():
    """Each note reads its wrapped function's arguments by name, so a renamed one fails here."""
    spans = load_perfbench("spans")
    for name, note in spans._NOTES.items():
        [function] = [wrapped(module, attribute) for module, attribute, _ in spans.WRAP_POINTS
                      if attribute.rpartition(".")[2] == name]
        read = set(re.findall(r"""\ba\[["'](\w+)["']\]""", inspect.getsource(note)))
        assert read <= set(inspect.signature(function).parameters), (name, read)


# one layer per workload that must have been called, beyond the workload's own check
CALLED = {"fed-synth": "gnn.forward.calls", "hetero-synth": "hetero.pairwise.calls",
          "analysis-tu": "properties.significance.calls"}


@pytest.mark.parametrize("workload", sorted(CALLED))
def test_traced_workload_has_no_failures(tmp_path, workload):
    if workload == "analysis-tu":
        write_tu_inputs(tmp_path / "tu", 1)
    cmd = [sys.executable, str(ROOT / "perfbench" / "workload.py"), workload,
           "--seed", "1", "--work", str(tmp_path), "--spawned", repr(time.time()), "--trace"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["failed"] == 0, result["problems"]
    assert result["layers"][CALLED[workload]] > 0
    if workload == "fed-synth":
        # the one seed's five algorithms run in one call, in two groups of 11 rounds x 8
        # clients: selftrain's singleton clusters, and one cluster of all clients for the
        # rest. fedprox's clients take one local step per round (30 training graphs,
        # batch_size 128), so its effective mu is 0; gcfl and gcflplus would fork off
        # fedavg only after their split in round 10, the last
        assert result["layers"]["fed.local_train.calls"] == 2 * 11 * 8
        assert result["layers"]["fed.run_federation.calls"] == 1
