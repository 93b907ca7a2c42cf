import pytest

from gcflsim.cli import main

from conftest import write_tu_fixture


def run_cli(*argv):
    return main(list(argv))


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


class TestCalibrate:
    def test_grid_search_reports_best(self, tmp_path, capsys):
        cfg = tmp_path / "exp.cfg"
        out = tmp_path / "calib.csv"
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
        code = run_cli("calibrate", "--config", str(cfg), "--algorithm", "gcfl",
                       "--eps1-grid", "10.0", "--eps2-grid", "1e-6,1e3",
                       "--rounds", "3", "--out", str(out))
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "eps1,eps2,accuracy,clusters"
        assert len(lines) == 3
        assert "best:" in capsys.readouterr().out
