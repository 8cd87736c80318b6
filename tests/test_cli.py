import numpy as np
import pytest

from milburnsim import dynamics
from milburnsim.cli import (
    EXIT_CONFIG,
    EXIT_GUARD,
    EXIT_OK,
    EXIT_VALIDATION,
    build_run_config,
    build_parser,
    main,
)


def run_args(*extra):
    return ["run", *extra]


def read_csv(path):
    rows = []
    header = None
    with open(path) as f:
        for line in f:
            if line.startswith("#"):
                continue
            if header is None:
                header = line.strip().split(",")
            else:
                rows.append(line.strip().split(","))
    return header, rows


class TestConfigParsing:
    def test_defaults(self):
        args = build_parser().parse_args(["run"])
        cfg = build_run_config(args)
        assert cfg.method == "closed-form"
        assert cfg.dcut == 64

    def test_flag_overrides_config_file(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("gamma = 1000\nepsilon = 0.5\nmethod = spectral\n")
        args = build_parser().parse_args(
            ["run", "--config", str(conf), "--gamma", "42"])
        cfg = build_run_config(args)
        assert cfg.gamma == 42.0
        assert cfg.epsilon == 0.5
        assert cfg.method == "spectral"

    def test_complex_drive(self):
        args = build_parser().parse_args(
            ["run", "--epsilon", "0.3", "--epsilon-im", "0.4"])
        cfg = build_run_config(args)
        assert cfg.epsilon == 0.3 + 0.4j

    def test_unknown_config_key(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("bogus = 1\n")
        args = build_parser().parse_args(["run", "--config", str(conf)])
        with pytest.raises(ValueError):
            build_run_config(args)


class TestRunCommand:
    def test_closed_form_starts_at_one(self, tmp_path):
        out = tmp_path / "series.csv"
        code = main(run_args("--method", "closed-form", "--tmax", "12",
                             "--steps", "50", "--out", str(out)))
        assert code == EXIT_OK
        header, rows = read_csv(out)
        assert header == ["t", "sigma_x"]
        assert rows[0][0] == "0.000000000000000"
        assert rows[0][1] == "1.000000000000000"

    def test_spectral_matches_closed_form(self, tmp_path):
        out_a = tmp_path / "a.csv"
        out_b = tmp_path / "b.csv"
        common = ["--epsilon", "0.5", "--gamma", "1000", "--alpha", "2.5",
                  "--cutoff", "64", "--tmax", "4", "--steps", "40"]
        assert main(run_args("--method", "closed-form", *common,
                             "--out", str(out_a))) == EXIT_OK
        assert main(run_args("--method", "spectral", *common,
                             "--out", str(out_b))) == EXIT_OK
        _, rows_a = read_csv(out_a)
        _, rows_b = read_csv(out_b)
        va = np.array([float(r[1]) for r in rows_a])
        vb = np.array([float(r[1]) for r in rows_b])
        assert np.max(np.abs(va - vb)) <= 1e-8

    def test_invalid_method_writes_nothing(self, tmp_path):
        out = tmp_path / "x.csv"
        code = main(run_args("--method", "nonsense", "--out", str(out)))
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_guard_violation_exit_code(self, tmp_path):
        out = tmp_path / "x.csv"
        code = main(run_args("--alpha", "2.5", "--cutoff", "8",
                             "--method", "spectral", "--tmax", "1",
                             "--steps", "5", "--out", str(out)))
        assert code == EXIT_GUARD
        assert not out.exists()

    @pytest.mark.parametrize("flag, value", [
        ("--gamma", "nan"), ("--alpha", "nan"), ("--epsilon", "inf"),
        ("--tmax", "nan"), ("--gamma", "inf"), ("--delta", "inf")])
    def test_non_finite_input_writes_nothing(self, tmp_path, flag, value):
        out = tmp_path / "x.csv"
        code = main(run_args(flag, value, "--steps", "5", "--out", str(out)))
        assert code == EXIT_CONFIG
        assert not out.exists()

    def test_poisson_window_budget_exit_code(self, tmp_path):
        # gamma * tmax = 1e8 needs a window of about 1.6e5 kicks
        out = tmp_path / "x.csv"
        code = main(run_args("--method", "poisson", "--gamma", "1e8",
                             "--alpha", "1", "--cutoff", "16", "--tmax", "1",
                             "--steps", "2", "--out", str(out)))
        assert code == EXIT_GUARD
        assert not out.exists()

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        code = main(run_args("--steps", "5", "--out", str(out)))
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error: ")

    def test_byte_stable_output(self, tmp_path):
        out_1 = tmp_path / "r1.csv"
        out_2 = tmp_path / "r2.csv"
        flags = ["--method", "closed-form", "--tmax", "3", "--steps", "30"]
        main(run_args(*flags, "--out", str(out_1)))
        main(run_args(*flags, "--out", str(out_2)))
        assert out_1.read_bytes() == out_2.read_bytes()

    def test_all_values_finite(self, tmp_path):
        out = tmp_path / "s.csv"
        main(run_args("--method", "spectral", "--epsilon", "0.5",
                      "--gamma", "1000", "--tmax", "4", "--steps", "25",
                      "--observables", "sigma_x,sigma_z,purity",
                      "--out", str(out)))
        header, rows = read_csv(out)
        assert header == ["t", "sigma_x", "sigma_z", "purity"]
        for row in rows:
            for cell in row:
                assert np.isfinite(float(cell))

    def test_observable_grid_methods_agree(self, tmp_path):
        # schrodinger vs spectral at huge gamma on a coarse grid
        common = ["--epsilon", "0.5", "--gamma", "1e10", "--cutoff", "32",
                  "--tmax", "2", "--steps", "10"]
        out_a = tmp_path / "sch.csv"
        out_b = tmp_path / "spe.csv"
        assert main(run_args("--method", "schrodinger", *common,
                             "--out", str(out_a))) == EXIT_OK
        assert main(run_args("--method", "spectral", *common,
                             "--out", str(out_b))) == EXIT_OK
        _, ra = read_csv(out_a)
        _, rb = read_csv(out_b)
        va = np.array([float(r[1]) for r in ra])
        vb = np.array([float(r[1]) for r in rb])
        assert np.max(np.abs(va - vb)) <= 1e-5

    def test_full_oracle_labeled_as_extension(self, tmp_path):
        out = tmp_path / "full.csv"
        code = main(run_args("--method", "full-oracle", "--cutoff", "32",
                             "--tmax", "1", "--steps", "5",
                             "--out", str(out)))
        assert code == EXIT_OK
        text = out.read_text()
        assert "extension" in text.splitlines()[4] or \
            any("extension" in ln for ln in text.splitlines() if ln.startswith("#"))


@pytest.fixture(scope="module")
def fig1_dir(tmp_path_factory):
    out_dir = tmp_path_factory.mktemp("fig1")
    assert main(["fig1", str(out_dir)]) == EXIT_OK
    return out_dir


class TestFig1Command:
    def test_all_series_start_at_one(self, fig1_dir):
        for label in "abc":
            _, rows = read_csv(fig1_dir / f"fig1{label}.csv")
            assert rows[0][1] == "1.000000000000000"
            assert len(rows) == 2400

    def test_metrics_sidecar(self, fig1_dir):
        header, rows = read_csv(fig1_dir / "fig1_metrics.csv")
        assert header == ["series", "revival_peak", "revival_time",
                          "collapse_floor"]
        peaks = {r[0]: float(r[1]) for r in rows}
        times = {r[0]: float(r[2]) for r in rows}
        assert peaks["b"] < peaks["c"]
        assert abs(times["a"] - np.pi) <= 0.2
        assert abs(times["c"] - np.pi) <= 0.35

    def test_values_finite(self, fig1_dir):
        for label in "abc":
            _, rows = read_csv(fig1_dir / f"fig1{label}.csv")
            vals = np.array([[float(c) for c in r] for r in rows])
            assert np.all(np.isfinite(vals))

    def test_output_dir_is_a_file(self, tmp_path, capsys):
        target = tmp_path / "taken"
        target.write_text("keep\n")
        assert main(["fig1", str(target)]) == EXIT_CONFIG
        assert target.read_text() == "keep\n"
        assert capsys.readouterr().err.startswith("error: ")


class TestValidateCommand:
    def test_passes_on_correct_build(self, capsys):
        assert main(["validate"]) == EXIT_OK
        out = capsys.readouterr().out
        assert "FAIL" not in out

    def test_injected_fault_is_caught(self, capsys, monkeypatch):
        original = dynamics.core_propagator

        def corrupted(t, p):
            u = original(t, p)
            u[p.dcut:, p.dcut:] = -u[p.dcut:, p.dcut:]  # flip u22 sign
            return u

        monkeypatch.setattr(dynamics, "core_propagator", corrupted)
        assert main(["validate"]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert "FAIL propagator-vs-dense-exponential" in out
