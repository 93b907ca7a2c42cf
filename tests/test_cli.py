import csv
import os
import re
import subprocess
import sys
import tempfile
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import gcflsim
from gcflsim import harness
from gcflsim.cli import main
from gcflsim.errors import ConfigurationError
from gcflsim.fed import run_federation
from gcflsim.outputs import write_csv

from conftest import HYPOTHESIS, write_tu_fixture
from test_perfbench import load_perfbench, write_tu_inputs


def run_cli(*argv):
    return main(list(argv))


# scipy.stats takes most of a start-up (the Welch test runs on scipy.special), and
# csgraph brings scipy.sparse.linalg and scipy.linalg; the property traversal needs none
ANALYSIS_ONLY = ("scipy.stats", "scipy.sparse.csgraph", "scipy.sparse.linalg", "scipy.linalg")


# every module of the package but its root
SUBMODULES = tuple(f"gcflsim.{p.stem}" for p in sorted(Path(gcflsim.__file__).parent.glob("*.py"))
                   if p.stem != "__init__")


def analysis_modules_loaded_by(code: str, packages=ANALYSIS_ONLY) -> list[str]:
    """The ``packages`` that a fresh interpreter has loaded after ``code``, in their order."""
    src = str(Path(gcflsim.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    code += "\nimport sys; print(' '.join(sys.modules))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, timeout=120, check=True).stdout
    loaded = out.splitlines()[-1].split()
    return [p for p in packages if any(m == p or m.startswith(p + ".") for m in loaded)]


def test_import_does_not_load_scipy_stats():
    assert analysis_modules_loaded_by("import gcflsim, gcflsim.cli") == []


def test_package_root_loads_no_module_and_no_scipy():
    assert analysis_modules_loaded_by("import gcflsim", SUBMODULES + ("scipy",)) == []


@pytest.mark.parametrize("module", ["gcflsim.graphs", "gcflsim.harness"])
def test_graphs_and_harness_load_no_property_analysis(module):
    assert analysis_modules_loaded_by(f"import {module}",
                                      ("gcflsim.properties", "scipy.special")) == []


def test_cli_loads_property_analysis_at_import():
    # loaded later, scipy.special's import would land in the first analyze-properties call
    packages = ("gcflsim.properties", "scipy.special")
    assert analysis_modules_loaded_by("import gcflsim.cli", packages) == list(packages)


def test_property_analysis_loads_no_graph_or_linear_algebra_library(tmp_path):
    root = write_tu_fixture(tmp_path / "data", "TINY")
    code = ("from gcflsim.cli import main\n"
            "from gcflsim.graphs import Dataset\n"
            "from gcflsim.harness import synthetic_two_group_clients\n"
            "from gcflsim.properties import property_significance\n"
            "ds = Dataset('tiny', synthetic_two_group_clients(1, 8, 6)[0][0].train_graphs)\n"
            "print(property_significance(ds, seed=0).rows['largest_component_pct'].real)\n"
            f"assert main(['analyze-properties', '--data-root', {str(root)!r}, '--dataset', 'TINY',"
            f" '--out', {str(tmp_path / 'props.csv')!r}]) == 0")
    assert analysis_modules_loaded_by(code) == []
    assert len((tmp_path / "props.csv").read_text().splitlines()) == 5


class TestAnalyzeProperties:
    def test_writes_report_for_fixture_dataset(self, tmp_path, capsys):
        root = write_tu_fixture(tmp_path / "data", "TINY")
        out = tmp_path / "props.csv"
        code = run_cli("analyze-properties", "--data-root", str(root),
                       "--dataset", "TINY", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "property,real,random,p_value"
        assert len(lines) == 5
        assert "TINY" in capsys.readouterr().out

    def test_missing_dataset_returns_config_error_code(self, tmp_path, capsys):
        code = run_cli("analyze-properties", "--data-root", str(tmp_path),
                       "--dataset", "NOPE", "--out", str(tmp_path / "x.csv"))
        assert code == 3
        assert "ConfigurationError" in capsys.readouterr().err

    def test_corrupt_dataset_returns_corrupt_code(self, tmp_path, capsys):
        root = write_tu_fixture(tmp_path / "data", "BAD")
        adj = root / "BAD" / "BAD_A.txt"
        adj.write_text(adj.read_text() + "1, 99\n")
        code = run_cli("analyze-properties", "--data-root", str(root),
                       "--dataset", "BAD", "--out", str(tmp_path / "x.csv"))
        assert code == 5
        assert "CorruptDatasetError" in capsys.readouterr().err

    @pytest.mark.parametrize("suffix", ["A.txt", "graph_indicator.txt", "graph_labels.txt"])
    def test_undecodable_file_returns_corrupt_code(self, tmp_path, capsys, suffix):
        root = write_tu_fixture(tmp_path / "data", "BAD")
        (root / "BAD" / f"BAD_{suffix}").write_bytes(b"\xff\xfe\x00\x01")  # not UTF-8
        code = run_cli("analyze-properties", "--data-root", str(root),
                       "--dataset", "BAD", "--out", str(tmp_path / "x.csv"))
        assert code == 5
        assert "CorruptDatasetError" in capsys.readouterr().err

    @pytest.mark.parametrize("suffix", ["A.txt", "node_labels.txt"])
    def test_unopenable_file_returns_corrupt_code(self, tmp_path, capsys, suffix):
        root = write_tu_fixture(tmp_path / "data", "BAD")
        path = root / "BAD" / f"BAD_{suffix}"
        path.unlink()
        path.mkdir()  # present, but not a file that opens
        code = run_cli("analyze-properties", "--data-root", str(root),
                       "--dataset", "BAD", "--out", str(tmp_path / "x.csv"))
        assert code == 5
        assert "CorruptDatasetError" in capsys.readouterr().err

    def test_reads_no_degree_features(self, tmp_path, monkeypatch):
        # a social set's name makes the federation loader one-hot encode degrees;
        # no property reads features, so the analysis loads without them
        def no_features(*args):
            raise AssertionError("built degree features")

        monkeypatch.setattr(harness, "with_degree_features", no_features)
        root = write_tu_fixture(tmp_path / "data", "IMDB-BINARY")
        out = tmp_path / "props.csv"
        assert run_cli("analyze-properties", "--data-root", str(root),
                       "--dataset", "IMDB-BINARY", "--out", str(out)) == 0
        assert len(out.read_text().splitlines()) == 5


class TestAnalyzeHetero:
    def test_self_comparison(self, tmp_path, capsys):
        root = write_tu_fixture(tmp_path / "data", "TINY")
        out = tmp_path / "het.csv"
        code = run_cli("analyze-hetero", "--data-root", str(root),
                       "--set-a", "TINY", "--set-b", "TINY",
                       "--awe-length", "3", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("setA,setB,structure_mean")
        assert lines[1].startswith("TINY,TINY,")

    @pytest.mark.parametrize("budget", ["0", "-3"])
    def test_pair_budget_below_one_is_argument_error(self, tmp_path, capsys, budget):
        root = write_tu_fixture(tmp_path / "data", "TINY")
        out = tmp_path / "het.csv"
        code = run_cli("analyze-hetero", "--data-root", str(root),
                       "--set-a", "TINY", "--set-b", "TINY",
                       "--pair-budget", budget, "--out", str(out))
        assert code == 2
        captured = capsys.readouterr()
        assert "ArgumentError" in captured.err
        assert "nan" not in (captured.out + captured.err).lower()
        assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("--awe-length", "0"), ("--awe-length", "9"), ("--bins", "0"), ("--pair-budget", "0"),
])
def test_bad_hetero_argument_exits_before_loading(tmp_path, capsys, monkeypatch, flag, value):
    def no_load(*args, **kwargs):
        raise AssertionError("read a dataset before checking the arguments")

    monkeypatch.setattr(harness, "load_tu_dataset", no_load)
    out = tmp_path / "het.csv"
    assert run_cli("analyze-hetero", "--data-root", str(tmp_path), "--set-a", "TINY",
                   "--set-b", "TINY", flag, value, "--out", str(out)) == 2
    assert "ArgumentError" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("command", [
    ["analyze-properties", "--dataset", "TINY"],
    ["analyze-hetero", "--set-a", "TINY", "--set-b", "TINY"],
], ids=["properties", "hetero"])
def test_negative_analysis_seed_is_argument_error(tmp_path, capsys, command):
    root = write_tu_fixture(tmp_path / "data", "TINY")
    out = tmp_path / "out.csv"
    code = run_cli(*command, "--data-root", str(root), "--seed", "-1", "--out", str(out))
    assert code == 2
    assert "ArgumentError" in capsys.readouterr().err
    assert not out.exists()


def _command(tmp_path, command, out):
    """Arguments of a small ``command`` run that writes to ``out``."""
    if command in ("analyze-properties", "analyze-hetero"):
        root = write_tu_fixture(tmp_path / "data", "TINY")
        sets = ["--dataset", "TINY"] if command == "analyze-properties" else \
            ["--set-a", "TINY", "--set-b", "TINY"]
        return [command, "--data-root", str(root), *sets, "--out", str(out)]
    cfg = tmp_path / "exp.cfg"
    cfg.write_text("setting = synthetic\nnum_clients = 4\nrounds = 1\nalgorithms = fedavg\n"
                   "hidden = 8\nnum_layers = 2\nhetero_report = false\n")
    if command == "run":
        return ["run", "--config", str(cfg), "--set", f"out_dir={out}"]
    return ["calibrate", "--config", str(cfg), "--rounds", "1", "--out", str(out)]


OUTPUT_COMMANDS = ["analyze-properties", "analyze-hetero", "run", "calibrate"]


@pytest.mark.parametrize("command", OUTPUT_COMMANDS)
def test_unwritable_output_exits_before_any_work(tmp_path, capsys, monkeypatch, command):
    args = _command(tmp_path, command, tmp_path / "file" / "out")
    (tmp_path / "file").write_text("in the way\n")
    before = sorted(tmp_path.rglob("*"))

    def no_work(*args, **kwargs):
        raise AssertionError("loaded or generated data before checking the output")

    monkeypatch.setattr(harness, "load_tu_dataset", no_work)
    monkeypatch.setattr(harness, "synthetic_two_group_clients", no_work)
    assert run_cli(*args) == 3
    err = capsys.readouterr().err
    assert "ConfigurationError" in err and str(tmp_path / "file") in err
    assert sorted(tmp_path.rglob("*")) == before
    assert (tmp_path / "file").read_text() == "in the way\n"


@pytest.mark.parametrize("command", OUTPUT_COMMANDS)
def test_output_directories_are_made(tmp_path, command):
    out = tmp_path / "new" / "dir" / "out"
    assert run_cli(*_command(tmp_path, command, out)) == 0
    assert (out / "summary.csv" if command == "run" else out).is_file()


@pytest.mark.parametrize("command", ["analyze-properties", "analyze-hetero", "calibrate"])
def test_output_file_naming_a_directory_is_configuration_error(tmp_path, capsys, command):
    (tmp_path / "out").mkdir()
    assert run_cli(*_command(tmp_path, command, tmp_path / "out")) == 3
    assert "ConfigurationError" in capsys.readouterr().err
    assert not any((tmp_path / "out").iterdir())


def test_failed_write_is_configuration_error(tmp_path):
    # a location that passed the check but cannot be written when the work is done
    (tmp_path / "out.csv").mkdir()
    with pytest.raises(ConfigurationError, match="out.csv"):
        write_csv(tmp_path / "out.csv", ["a"], [[1]])


class TestRun:
    def _write_config(self, tmp_path, extra=""):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "setting = synthetic\n"
            "num_clients = 4\n"
            "rounds = 2\n"
            "algorithms = fedavg\n"
            "hidden = 8\n"
            "num_layers = 2\n"
            "hetero_report = false\n"
            f"out_dir = {tmp_path / 'out'}\n"
            + extra
        )
        return cfg

    def test_run_produces_outputs_and_summary(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert run_cli("run", "--config", str(cfg)) == 0
        captured = capsys.readouterr().out
        assert "selftrain" in captured and "fedavg" in captured
        assert (tmp_path / "out" / "rounds.csv").exists()
        assert (tmp_path / "out" / "summary.csv").exists()

    def test_cli_override_applies(self, tmp_path):
        cfg = self._write_config(tmp_path)
        assert run_cli("run", "--config", str(cfg), "--set",
                       f"out_dir={tmp_path / 'other'}") == 0
        assert (tmp_path / "other" / "rounds.csv").exists()

    def test_repeat_run_byte_identical(self, tmp_path):
        cfg = self._write_config(tmp_path)
        run_cli("run", "--config", str(cfg))
        first = (tmp_path / "out" / "rounds.csv").read_bytes()
        run_cli("run", "--config", str(cfg))
        assert (tmp_path / "out" / "rounds.csv").read_bytes() == first

    def test_bad_config_key_exit_code(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("bogus_key = 1\n")
        assert run_cli("run", "--config", str(cfg)) == 3
        assert "ConfigurationError" in capsys.readouterr().err

    def test_gcfl_without_eps_exit_code(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path, extra="algorithms = gcfl\n")
        assert run_cli("run", "--config", str(cfg)) == 3

    @pytest.mark.parametrize("overrides", [
        ["algorithms=magic"],
        ["algorithms=gcfl", "eps1=-1", "eps2=0.01"],
        ["algorithms=gcfl", "eps1=nan", "eps2=0.01"],
        ["algorithms=gcfl"],
    ], ids=["unknown-algorithm", "negative-eps", "nan-eps", "missing-eps"])
    def test_bad_algorithm_or_eps_exits_before_training(self, tmp_path, capsys, monkeypatch,
                                                        overrides):
        def no_training(*args, **kwargs):
            raise AssertionError("run_federation was called")

        monkeypatch.setattr(harness, "run_federation", no_training)
        cfg = self._write_config(tmp_path)
        sets = [arg for pair in overrides for arg in ("--set", pair)]
        assert run_cli("run", "--config", str(cfg), *sets) == 3
        assert "ConfigurationError" in capsys.readouterr().err

    @pytest.mark.parametrize("override", [
        "rounds=abc", "lr=fast", "seeds=0,x", "seeds=", "algorithms=",
        "hidden=0", "num_layers=0", "batch_size=0", "rounds=0", "num_clients=5",
        "pair_budget=0", "awe_length=0", "awe_length=9", "bins=0", "epochs=-1", "window=0",
        "lr=-0.001", "prox_mu=-5", "weight_decay=-1", "seeds=-1", "seeds=0,-2",
        "algorithms=fedavg,fedavg,selftrain,selftrain", "algorithms=gcfl,fedavg,gcfl", "seeds=0,0",
        "min_split_size=-3", "min_split_size=0", "warmup_rounds=-2", "per_client_graphs=1",
        "test_fraction=0.999",
    ])
    def test_bad_config_value_exit_code(self, tmp_path, capsys, override):
        cfg = self._write_config(tmp_path)
        assert run_cli("run", "--config", str(cfg), "--set", override) == 3
        err = capsys.readouterr().err
        assert "ConfigurationError" in err
        assert override.split("=")[0] in err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("override, named, digits", [
        ("hidden=100000000", "hidden 100000000", 17),
        ("num_layers=1000000000000000000", "1000000000000000000 layers", 21),
    ], ids=["hidden", "num_layers"])
    def test_unallocatable_model_is_configuration_error(self, tmp_path, capsys, override, named,
                                                         digits):
        # about 2e16 and 1.5e20 parameters: numpy refuses the vector at once, allocating
        # nothing, and the size is known without building a per-layer list
        cfg = self._write_config(tmp_path)
        assert run_cli("run", "--config", str(cfg), "--set", override) == 3
        err = capsys.readouterr().err
        assert "ConfigurationError" in err and named in err
        assert re.search(rf"a GIN of \d{{{digits}}} parameters", err)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("sets, differ", [
        ([], False),  # 30 training graphs per client, batch_size 128: one step per round
        (["per_client_graphs=60", "batch_size=40"], True),  # 45 training graphs: two steps
    ], ids=["one-step", "two-steps"])
    def test_fedprox_rows_repeat_fedavg_only_with_one_step_per_round(self, tmp_path, sets,
                                                                      differ):
        cfg = self._write_config(tmp_path)
        args = [arg for pair in ["algorithms=fedavg,fedprox", "prox_mu=0.1", *sets]
                for arg in ("--set", pair)]
        assert run_cli("run", "--config", str(cfg), *args) == 0
        rows = {"fedavg": [], "fedprox": []}
        for line in (tmp_path / "out" / "rounds.csv").read_text().splitlines()[1:]:
            algorithm, rest = line.split(",", 1)
            if algorithm in rows:
                rows[algorithm].append(rest)
        assert len(rows["fedprox"]) == 2 * 4
        assert (rows["fedprox"] != rows["fedavg"]) == differ

    def test_missing_config_file_exit_code(self, tmp_path, capsys):
        assert run_cli("run", "--config", str(tmp_path / "absent.cfg")) == 3
        assert "ConfigurationError" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "calibrate"])
    def test_config_file_not_utf8_exit_code(self, tmp_path, capsys, command):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"rounds = 1 \xff\n")
        assert run_cli(command, "--config", str(cfg)) == 3
        err = capsys.readouterr().err
        assert "ConfigurationError" in err and "cannot read config file" in err

    def test_nan_learning_rate_is_divergence(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        assert run_cli("run", "--config", str(cfg), "--set", "lr=nan") == 8
        err = capsys.readouterr().err
        assert "DivergenceError" in err and "round 0" in err and "client 0" in err
        assert not (tmp_path / "out" / "rounds.csv").exists()

    @pytest.mark.parametrize("algorithm", ["fedavg", "fedprox"])
    def test_overflowing_update_norm_is_divergence_in_round_0(self, tmp_path, capsys, algorithm):
        # the first update is finite, but its norm overflows to inf
        cfg = self._write_config(tmp_path)
        assert run_cli("run", "--config", str(cfg), "--set", "lr=1e300",
                       "--set", f"algorithms={algorithm}") == 8
        err = capsys.readouterr().err
        assert "DivergenceError" in err and "round 0" in err
        assert not (tmp_path / "out" / "rounds.csv").exists()

    def test_byte_identical_across_processes(self, tmp_path):
        """Same config, seed and BLAS thread setting give the same CSV bytes.

        gcfl's and gcflplus's reports write ``hetero.csv`` from one embedding store."""
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "setting = synthetic\n"
            "num_clients = 4\n"
            "per_client_graphs = 20\n"
            "rounds = 3\n"
            "algorithms = fedavg, gcfl, gcflplus\n"
            "hidden = 8\n"
            "num_layers = 2\n"
            "weight_decay = 0.0\n"
            "eps1 = 10.0\n"
            "eps2 = 1e-6\n"
            "min_split_size = 2\n"
            "warmup_rounds = 1\n"
            "hetero_report = true\n"
            "pair_budget = 30\n"
        )
        src = str(Path(gcflsim.__file__).resolve().parents[1])
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                   MKL_NUM_THREADS="1",
                   PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
        runs = [subprocess.Popen(
            [sys.executable, "-m", "gcflsim.cli", "run", "--config", str(cfg),
             "--set", f"out_dir={tmp_path / side}"],
            env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE) for side in "ab"]
        for run in runs:
            _, err = run.communicate(timeout=120)
            assert run.returncode == 0, err.decode()
        names = sorted(p.name for p in (tmp_path / "a").glob("*.csv"))
        assert names == ["clusters.csv", "hetero.csv", "rounds.csv", "splits.csv",
                         "summary.csv", "windows.csv"]
        assert sorted(p.name for p in (tmp_path / "b").glob("*.csv")) == names
        for name in names:
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes(), name

    def test_blas_thread_count_changes_no_decision(self, tmp_path):
        """One and two BLAS threads give the same clusters, splits and summary.

        Every other number agrees within rtol 1e-12.
        """
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "setting = synthetic\n"
            "num_clients = 4\n"
            "seeds = 0, 1\n"
            "rounds = 4\n"
            "algorithms = selftrain, fedavg, gcfl, gcflplus\n"
            "hidden = 32\n"
            "num_layers = 2\n"
            "weight_decay = 0.0\n"
            "eps1 = 10.0\n"
            "eps2 = 1e-6\n"
            "min_split_size = 2\n"
            "warmup_rounds = 1\n"
            "hetero_report = true\n"
            "pair_budget = 30\n"
        )
        src = str(Path(gcflsim.__file__).resolve().parents[1])
        runs = {}
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads,
                       MKL_NUM_THREADS=threads,
                       PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
            runs[threads] = subprocess.Popen(
                [sys.executable, "-m", "gcflsim.cli", "run", "--config", str(cfg),
                 "--set", f"out_dir={tmp_path / threads}"],
                env=env, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
        for run in runs.values():
            _, err = run.communicate(timeout=300)
            assert run.returncode == 0, err.decode()
        one, two = tmp_path / "1", tmp_path / "2"
        assert (one / "splits.csv").read_text().count("\n") > 1  # the runs split
        for name in ("clusters.csv", "summary.csv"):
            assert (one / name).read_bytes() == (two / name).read_bytes(), name
        for name in ("rounds.csv", "splits.csv", "hetero.csv", "windows.csv"):
            rows_1, rows_2 = (list(csv.DictReader((d / name).read_text().splitlines()))
                              for d in (one, two))
            assert len(rows_1) == len(rows_2), name
            for row_1, row_2 in zip(rows_1, rows_2):
                for key, cell in row_1.items():
                    if name == "splits.csv" and key not in ("delta_mean", "delta_max",
                                                            "cut_value"):
                        assert cell == row_2[key], (name, key)
                    else:
                        assert _close_cells(cell, row_2[key]), (name, key, cell, row_2[key])


def _close_cells(a: str, b: str) -> bool:
    """Equal text, or the same count of ';'-joined numbers, each within rtol 1e-12."""
    if a == b:
        return True
    try:
        x, y = (np.array([float(v) for v in cell.split(";")]) for cell in (a, b))
    except ValueError:
        return False
    return x.shape == y.shape and bool(np.allclose(x, y, rtol=1e-12, atol=0.0))


class TestCalibrate:
    def _write_config(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "setting = synthetic\n"
            "num_clients = 4\n"
            "hidden = 8\n"
            "num_layers = 2\n"
            "weight_decay = 0.0\n"
            "min_split_size = 2\n"
            "warmup_rounds = 1\n"
            f"out_dir = {tmp_path / 'out'}\n"
        )
        return cfg

    def test_writes_and_prints_the_probe_rule(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "calibration.csv"
        assert run_cli("calibrate", "--config", str(cfg), "--rounds", "4", "--out", str(out)) == 0
        config = harness.ExperimentConfig.from_file(cfg)
        probe = run_federation(harness.build_clients(config, 0), ["fedavg"], 4,
                               harness.make_run_config(config, 0))[0].final_clusters[0]
        delta_mean, delta_max = probe.delta_mean, probe.delta_max
        eps1, eps2 = 1.5 * delta_mean, 0.6 * delta_max
        assert out.read_text().splitlines() == [
            "eps1,eps2,delta_mean,delta_max", f"{eps1!r},{eps2!r},{delta_mean!r},{delta_max!r}"]
        assert f"--set eps1={eps1!r} --set eps2={eps2!r}" in capsys.readouterr().out

    def test_test_labels_do_not_move_the_thresholds(self, tmp_path, monkeypatch):
        # on this config, a pick by mean test accuracy moves when every test label flips
        cfg = self._write_config(tmp_path)
        args = ["calibrate", "--config", str(cfg), "--rounds", "4", "--out"]
        assert run_cli(*args, str(tmp_path / "plain.csv")) == 0
        build_clients = harness.build_clients

        def flipped_test_labels(config, seed):
            clients = build_clients(config, seed)
            for c in clients:
                c.test_graphs = replace(c.test_graphs, labels=1 - c.test_graphs.labels)
            return clients

        monkeypatch.setattr(harness, "build_clients", flipped_test_labels)
        assert run_cli(*args, str(tmp_path / "flipped.csv")) == 0
        assert (tmp_path / "flipped.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_diverging_probe_is_divergence(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "calibration.csv"
        assert run_cli("calibrate", "--config", str(cfg), "--set", "lr=nan",
                       "--rounds", "2", "--out", str(out)) == 8
        err = capsys.readouterr().err
        assert "DivergenceError" in err and "round 0" in err and "client 0" in err
        assert not out.exists()

    def test_algorithm_flag_is_argument_error(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        out = tmp_path / "calibration.csv"
        with pytest.raises(SystemExit) as stop:
            run_cli("calibrate", "--config", str(cfg), "--algorithm", "gcfl", "--out", str(out))
        assert stop.value.code == 2
        assert "unrecognized arguments: --algorithm" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("rounds", [1, 3])
    def test_probe_is_fedavg_over_the_given_rounds(self, tmp_path, monkeypatch, rounds):
        calls, federate = [], harness.run_federation

        def recorded(clients, algorithms, probe_rounds, run_config):
            calls.append((list(algorithms), probe_rounds))
            return federate(clients, algorithms, probe_rounds, run_config)

        monkeypatch.setattr(harness, "run_federation", recorded)
        cfg = self._write_config(tmp_path)
        assert run_cli("calibrate", "--config", str(cfg), "--rounds", str(rounds),
                       "--out", str(tmp_path / "calibration.csv")) == 0
        assert calls == [(["fedavg"], rounds)]

    @pytest.mark.parametrize("extra", [
        "algorithms = gcfl, gcflplus\neps1 = 9.0\neps2 = 9.0\n",
        "rounds = 7\n",
        "hetero_report = true\npair_budget = 5\n",
    ])
    def test_reads_no_algorithm_threshold_or_config_rounds(self, tmp_path, extra):
        # the probe is FedAvg over --rounds rounds whatever the config says it would run
        cfg = self._write_config(tmp_path)
        args = ["calibrate", "--rounds", "3", "--out"]
        assert run_cli(*args, str(tmp_path / "plain.csv"), "--config", str(cfg)) == 0
        cfg.write_text(cfg.read_text() + extra)
        assert run_cli(*args, str(tmp_path / "extra.csv"), "--config", str(cfg)) == 0
        assert (tmp_path / "extra.csv").read_bytes() == (tmp_path / "plain.csv").read_bytes()

    def test_probes_the_first_seed(self, tmp_path):
        cfg = self._write_config(tmp_path)
        written = {}
        for seeds in ("0, 4", "0", "4"):
            out = tmp_path / f"{seeds.replace(', ', '_')}.csv"
            assert run_cli("calibrate", "--config", str(cfg), "--set", f"seeds={seeds}",
                           "--rounds", "2", "--out", str(out)) == 0
            written[seeds] = out.read_bytes()
        assert written["0, 4"] == written["0"] != written["4"]

    def test_repeat_calibrate_byte_identical(self, tmp_path, capsys):
        cfg = self._write_config(tmp_path)
        outs, printed = [tmp_path / "a.csv", tmp_path / "b.csv"], []
        for out in outs:
            assert run_cli("calibrate", "--config", str(cfg), "--rounds", "3",
                           "--out", str(out)) == 0
            printed.append(capsys.readouterr().out.replace(str(out), "OUT"))
        assert outs[0].read_bytes() == outs[1].read_bytes()
        assert printed[0] == printed[1]

    @pytest.mark.parametrize("algorithm", ["gcfl", "gcflplus"])
    def test_printed_thresholds_are_run_arguments(self, tmp_path, capsys, algorithm):
        cfg = self._write_config(tmp_path)
        assert run_cli("calibrate", "--config", str(cfg), "--rounds", "3",
                       "--out", str(tmp_path / "calibration.csv")) == 0
        line = next(ln for ln in capsys.readouterr().out.splitlines() if ln.startswith("--set"))
        sets = line.split(" (wrote")[0].split()
        with open(tmp_path / "calibration.csv", newline="") as f:
            row = next(csv.DictReader(f))
        assert sets == ["--set", f"eps1={row['eps1']}", "--set", f"eps2={row['eps2']}"]
        assert run_cli("run", "--config", str(cfg), *sets, "--set", f"algorithms={algorithm}",
                       "--set", "rounds=3", "--set", "hetero_report=false") == 0
        assert (tmp_path / "out" / "summary.csv").is_file()

    @pytest.mark.parametrize("rounds", ["0", "-1"])
    def test_nonpositive_rounds_is_configuration_error(self, tmp_path, capsys, monkeypatch, rounds):
        def no_data(*args):
            raise AssertionError("loaded data before checking rounds")

        monkeypatch.setattr(harness, "build_clients", no_data)
        cfg = self._write_config(tmp_path)
        out = tmp_path / "calib.csv"
        code = run_cli("calibrate", "--config", str(cfg), "--rounds", rounds, "--out", str(out))
        assert code == 3
        assert "ConfigurationError" in capsys.readouterr().err
        assert not out.exists()


# --- a corrupted TU file ends in a typed error's exit code, never a traceback ---

def _small_labelled_set(seed=21, labels=3):
    """Twelve graphs of 3-7 nodes, two classes and up to ``labels`` node labels, as ``write_tu``
    takes them."""
    rng = np.random.default_rng(seed)
    nodes, edge_sets, node_labels = [], [], []
    for _ in range(12):
        n = int(rng.integers(3, 8))
        path = {(v, v + 1) for v in range(n - 1)}  # connected, so no embedding is undefined
        chords = {(int(u), int(v)) for u, v in rng.integers(n, size=(2, 2)) if u < v}
        nodes.append(n)
        edge_sets.append(path | chords)
        node_labels.append(rng.integers(labels, size=n))
    return nodes, edge_sets, [k % 2 for k in range(12)], node_labels


write_tu, SMALL_SET = load_perfbench("tudata").write_tu, _small_labelled_set()
TU_FILES = ("A", "graph_indicator", "graph_labels", "node_labels")
NOT_INTEGERS = (b"x", b"1.5", b"nan", b"1e3", b"-", b"0x1f")
OUT_OF_RANGE = (b"-1", b"13", b"1000000", b"9223372036854775808", b"1" + b"0" * 30)


@st.composite
def corruptions(draw):
    """One TU file and a way to corrupt it: a function from its bytes to new bytes."""
    name = draw(st.sampled_from(TU_FILES))
    kind = draw(st.sampled_from(["truncate", "drop_column", "add_column", "not_integer",
                                 "zero", "out_of_range", "bad_utf8", "crlf"]))
    at, field = draw(st.integers(0, 10**4)), draw(st.integers(0, 1))
    value = {"not_integer": st.sampled_from(NOT_INTEGERS), "zero": st.just(b"0"),
             "out_of_range": st.sampled_from(OUT_OF_RANGE)}.get(kind, st.just(b""))
    value = draw(value)

    def corrupt(data: bytes) -> bytes:
        if kind == "truncate":
            return data[:at % len(data)]
        if kind == "crlf":
            return data.replace(b"\n", b"\r\n")
        lines = data.split(b"\n")[:-1]  # every written file ends in a newline
        i = at % len(lines)
        fields = lines[i].split(b",")
        if kind == "drop_column":
            fields = fields[:-1]
        elif kind == "add_column":
            fields.append(b" 7")
        elif kind == "bad_utf8":
            fields[field % len(fields)] += b"\xff\xfe"
        else:
            fields[field % len(fields)] = value
        lines[i] = b",".join(fields)
        return b"\n".join(lines) + b"\n"

    return name, kind, corrupt


@pytest.mark.parametrize("bad", ["nan", "inf"])
def test_non_finite_node_attribute_exits_corrupt(tmp_path, capsys, bad):
    root = tmp_path / "data"
    write_tu(root, "TINY", *SMALL_SET)
    rows = ["0.5, 1.0"] * sum(SMALL_SET[0])
    rows[3] = f"{bad}, 1.0"
    (root / "TINY" / "TINY_node_attributes.txt").write_text("\n".join(rows) + "\n")
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"setting = oneDS\ndata_root = {root}\ndataset = TINY\nnum_clients = 2\n"
                   "per_client_graphs = 6\nrounds = 1\nhidden = 4\nnum_layers = 1\n"
                   f"out_dir = {tmp_path / 'run'}\n")
    assert main(["analyze-hetero", "--data-root", str(root), "--set-a", "TINY", "--set-b", "TINY",
                 "--awe-length", "3", "--out", str(tmp_path / "hetero.csv")]) == 5
    assert main(["run", "--config", str(cfg)]) == 5
    err = capsys.readouterr().err
    assert err.count("CorruptDatasetError") == 2 and err.count("TINY_node_attributes.txt") == 2
    assert not (tmp_path / "hetero.csv").exists() and not (tmp_path / "run").exists()


TYPED_EXITS = {0, 3, 5, 6, 7}


def _non_finite_cells(path: Path, skip: tuple[str, ...] = ()) -> list[str]:
    """Numbers of a CSV that are not finite, outside rows marked not computed and the columns
    named in ``skip``; a cell of ``;``-joined numbers is read number by number."""
    bad = []
    with open(path, newline="") as fh:
        rows = csv.reader(fh)
        header = next(rows, [])
        for row in rows:
            if "not_computed" in row:  # an undefined property's mean may be nan
                continue
            for name, cell in zip(header, row, strict=True):
                for part in cell.split(";") if name not in skip else ():
                    try:
                        if not np.isfinite(float(part)):
                            bad.append(cell)
                    except ValueError:
                        pass
    return bad


@settings(HYPOTHESIS, max_examples=100)
@given(corruptions())
def test_corrupted_tu_file_exits_with_a_typed_code(corruption):
    name, kind, corrupt = corruption
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "data"
        write_tu(root, "TINY", *SMALL_SET)
        path = root / "TINY" / f"TINY_{name}.txt"
        path.write_bytes(corrupt(path.read_bytes()))
        cfg = Path(tmp) / "exp.cfg"
        cfg.write_text(f"setting = oneDS\ndata_root = {root}\ndataset = TINY\nnum_clients = 2\n"
                       "per_client_graphs = 6\nrounds = 1\nhidden = 4\nnum_layers = 1\n"
                       f"out_dir = {Path(tmp) / 'run'}\n")
        outs = {"props": Path(tmp) / "props.csv", "hetero": Path(tmp) / "hetero.csv"}
        codes = {
            "props": main(["analyze-properties", "--data-root", str(root), "--dataset", "TINY",
                           "--out", str(outs["props"])]),
            "hetero": main(["analyze-hetero", "--data-root", str(root), "--set-a", "TINY",
                            "--set-b", "TINY", "--awe-length", "3", "--pair-budget", "20",
                            "--out", str(outs["hetero"])]),
            "run": main(["run", "--config", str(cfg)]),
        }
        assert set(codes.values()) <= TYPED_EXITS, (name, kind, codes)
        if codes["run"] == 0:
            outs.update({p.stem: p for p in (Path(tmp) / "run").glob("*.csv")})
        for key, out in outs.items():
            if codes.get(key, 0) == 0:
                assert _non_finite_cells(out) == [], (name, kind, key)


# --- clients of different feature widths federate without padding ---

def test_multi_dataset_run_keeps_each_clients_width(tmp_path):
    root = tmp_path / "data"
    widths = {}
    for seed, (name, labels) in enumerate(zip(harness.MOLECULE_DATASETS, (7, 3, 5, 2, 8, 4, 6))):
        tu_set = _small_labelled_set(seed, labels)
        write_tu(root, name, *tu_set)
        widths[name] = len(np.unique(np.concatenate(tu_set[3])))  # one column per node label
    assert sorted(widths.values()) == list(range(2, 9))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"setting = multiDS\ngroup = molecules\ndata_root = {root}\n"
                   "algorithms = gcfl\neps1 = 10\neps2 = 0.01\nrounds = 3\nhidden = 8\n"
                   f"out_dir = {tmp_path / 'run'}\n")
    clients = harness.build_clients(harness.ExperimentConfig.from_file(cfg), seed=0)
    assert [{u.feat_dim for u in (c.train_graphs, c.test_graphs)} for c in clients] == \
        [{widths[name]} for name in harness.MOLECULE_DATASETS]

    assert main(["run", "--config", str(cfg)]) == 0
    for path in (tmp_path / "run").glob("*.csv"):
        assert _non_finite_cells(path) == [], path.name
    with open(tmp_path / "run" / "rounds.csv", newline="") as fh:
        assert len(list(csv.reader(fh))) == 1 + 3 * 7 * 2  # rounds x clients x algorithms


def _read_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def _splits_divide_their_parents(out: Path) -> list[dict]:
    """The split rows of a run, each checked to divide its parent's members exactly."""
    members = {(r["algorithm"], r["round"], r["cluster_id"]): set(r["client_ids"].split(";"))
               for r in _read_rows(out / "clusters.csv")}
    splits = _read_rows(out / "splits.csv")
    for ev in splits:
        a, b = set(ev["members_a"].split(";")), set(ev["members_b"].split(";"))
        assert a and b and not a & b, ev
        assert a | b == members[ev["algorithm"], ev["round"], ev["parent"]], ev
    return splits


def test_mixed_group_run_gives_social_sets_degree_widths(tmp_path):
    # every set of the paper's "mix" group as twelve small graphs: the molecule and
    # protein sets with 2-8 node labels, the social sets with none, so that they
    # federate on one-hot degrees written onto each client's unions
    root = tmp_path / "data"
    widths = {}
    for seed, name in enumerate(harness.DATASET_GROUPS["mix"]):
        nodes, edge_sets, labels, node_labels = _small_labelled_set(100 + seed, 2 + seed % 7)
        social = name in harness.SOCIAL_DATASETS
        write_tu(root, name, nodes, edge_sets, labels, None if social else node_labels)
        if social:  # one column per degree, up to the set's largest
            widths[name] = 1 + max(int(np.bincount(np.ravel(list(edges))).max())
                                   for edges in edge_sets)
        else:  # one column per node label
            widths[name] = len(np.unique(np.concatenate(node_labels)))
    assert {widths[name] for name in harness.SOCIAL_DATASETS} <= set(range(3, 8))
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"setting = multiDS\ngroup = mix\ndata_root = {root}\n"
                   "algorithms = gcfl\neps1 = 10\neps2 = 0.01\nrounds = 3\nhidden = 8\n"
                   f"out_dir = {tmp_path / 'run'}\n")
    clients = harness.build_clients(harness.ExperimentConfig.from_file(cfg), seed=0)
    assert [{u.feat_dim for u in (c.train_graphs, c.test_graphs)} for c in clients] == \
        [{widths[name]} for name in harness.DATASET_GROUPS["mix"]]

    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "run"
    for path in out.glob("*.csv"):
        assert _non_finite_cells(path) == [], path.name
    assert len(_read_rows(out / "rounds.csv")) == 3 * 13 * 2  # rounds x clients x algorithms
    assert _splits_divide_their_parents(out)


def test_label_skewed_one_dataset_run_with_gcflplus(tmp_path):
    # the molecule-shaped benchmark set, 63 graphs of class 0 and 125 of class 1, cut
    # into four label-sorted shards of 40
    write_tu_inputs(tmp_path / "data", 1)
    cfg = tmp_path / "exp.cfg"
    cfg.write_text(f"setting = oneDS\ndataset = MOL-SYNTH\ndata_root = {tmp_path / 'data'}\n"
                   "num_clients = 4\nper_client_graphs = 40\nlabel_skew = true\n"
                   "algorithms = gcflplus\neps1 = 10\neps2 = 0.01\nmin_split_size = 2\n"
                   "window = 2\nrounds = 4\nhidden = 8\npair_budget = 50\n"
                   f"out_dir = {tmp_path / 'run'}\n")
    clients = harness.build_clients(harness.ExperimentConfig.from_file(cfg), seed=0)
    labels = [set(np.concatenate([c.train_graphs.labels, c.test_graphs.labels]).tolist())
              for c in clients]
    assert labels == [{0}, {0, 1}, {1}, {1}]

    assert main(["run", "--config", str(cfg)]) == 0
    out = tmp_path / "run"
    assert sorted(p.name for p in out.glob("*.csv")) == sorted(
        ["rounds.csv", "clusters.csv", "splits.csv", "summary.csv", "hetero.csv", "windows.csv"])
    for path in out.glob("*.csv"):
        assert _non_finite_cells(path) == [], path.name
    assert len(_read_rows(out / "rounds.csv")) == 4 * 4 * 2
    _splits_divide_their_parents(out)


# --- a config value ends in a typed error's exit code, never a traceback ---

# keys sized by their value: a huge one runs for ever or allocates, so only small ones are drawn
SIZE_KEYS = {"num_clients", "per_client_graphs", "rounds", "epochs", "batch_size", "hidden",
             "num_layers", "window", "bins", "pair_budget"}
OVERRIDE_KEYS = [f.name for f in fields(harness.ExperimentConfig) if f.name != "out_dir"]
HUGE = "1" + "0" * 30
ODD_VALUES = ("0", "-1", "nan", "inf", "-inf", "1.5", "", "abc", "1;2", "0x1f")
CONFIG_EXITS = {0, 2, 3, 8}


@st.composite
def overridden_configs(draw):
    """A tiny synthetic config and one or two of its keys overridden with an odd value."""
    base = {"setting": "synthetic", "num_clients": 2, "per_client_graphs": 6,
            "rounds": draw(st.integers(1, 2)), "hidden": draw(st.integers(1, 8)),
            "num_layers": draw(st.integers(1, 2)), "batch_size": draw(st.integers(2, 8)),
            "algorithms": "fedavg,fedprox,gcfl,gcflplus", "eps1": 10, "eps2": 0.01,
            "min_split_size": 1, "awe_length": 3, "pair_budget": 20}
    keys = draw(st.lists(st.sampled_from(OVERRIDE_KEYS), min_size=1, max_size=2, unique=True))
    overrides = []
    for key in keys:
        values = ODD_VALUES if key in SIZE_KEYS else ODD_VALUES + (HUGE,)
        overrides.append(f"{key}={draw(st.sampled_from(values))}")
    return base, overrides


@settings(HYPOTHESIS, max_examples=100)
@given(overridden_configs())
def test_odd_config_value_exits_with_a_typed_code(drawn):
    base, overrides = drawn
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out = Path(tmp) / "exp.cfg", Path(tmp) / "run"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in base.items()) + f"out_dir = {out}\n")
        argv = ["run", "--config", str(cfg)] + [a for o in overrides for a in ("--set", o)]
        code = main(argv)
        assert code in CONFIG_EXITS, overrides
        if code == 0:
            config = harness.ExperimentConfig.from_file(cfg).with_overrides(overrides)
            skip = ("train_loss",) if config.epochs == 0 else ()  # no batch runs: a nan loss
            for path in out.glob("*.csv"):
                assert _non_finite_cells(path, skip) == [], (overrides, path.name)
