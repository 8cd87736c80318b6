import errno
import itertools
import json
import math
import os
import re
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import milburnsim
from milburnsim import cli, dynamics, fock, hamiltonians, observables
from milburnsim.cli import (
    EXIT_CONFIG,
    EXIT_GUARD,
    EXIT_OK,
    EXIT_VALIDATION,
    ConfigError,
    build_run_config,
    build_parser,
    main,
    write_csv,
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

    def test_negative_value_in_exponent_form(self, tmp_path):
        # argparse may take a bare -4e-1 for a flag; the attached form and
        # a config file give the bytes of --epsilon -0.4
        conf = tmp_path / "run.conf"
        conf.write_text("epsilon = -4e-1\n")
        written = []
        for i, given in enumerate((["--epsilon", "-0.4"], ["--epsilon=-4e-1"],
                                   ["--config", str(conf)])):
            out = tmp_path / f"{i}.csv"
            assert main(run_args(*given, "--tmax", "2", "--steps", "20",
                                 "--out", str(out))) == EXIT_OK
            written.append(out.read_bytes())
        assert written[1] == written[0] and written[2] == written[0]

    # one value per run setting, each different from its default
    SETTING_VALUES = {
        "lambda": "1.5", "epsilon": "0.25", "epsilon-im": "0.5",
        "delta": "-3", "gamma": "500", "alpha": "1.25", "cutoff": "32",
        "tmax": "4", "steps": "30", "method": "poisson",
        "observables": "sigma_z,purity", "out": "other.csv"}

    @pytest.mark.parametrize("key", list(cli.RUN_SETTINGS))
    def test_config_key_matches_flag(self, tmp_path, key):
        # method = spectral in both, so that every observable is allowed
        value = self.SETTING_VALUES[key]
        base = tmp_path / "base.conf"
        base.write_text("method = spectral\n")
        conf = tmp_path / "run.conf"
        conf.write_text(f"method = spectral\n{key} = {value}\n")
        parse = build_parser().parse_args
        from_file = build_run_config(parse(["run", "--config", str(conf)]))
        from_flag = build_run_config(
            parse(["run", "--config", str(base), f"--{key}", value]))
        assert from_file == from_flag
        assert from_file != build_run_config(
            parse(["run", "--config", str(base)]))

    def test_config_value_of_wrong_type(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("cutoff = 6.5\n")
        args = build_parser().parse_args(["run", "--config", str(conf)])
        with pytest.raises(ConfigError, match="config key cutoff: "):
            build_run_config(args)

    def test_unknown_config_key(self, tmp_path):
        conf = tmp_path / "run.conf"
        conf.write_text("bogus = 1\n")
        args = build_parser().parse_args(["run", "--config", str(conf)])
        with pytest.raises(ValueError):
            build_run_config(args)

    def test_config_file_not_utf8(self, tmp_path, capsys):
        # a Latin-1 e-acute in a comment: refused as unreadable, exit 2
        conf = tmp_path / "run.conf"
        conf.write_bytes(b"steps = 5\n# caf\xe9\n")
        out = tmp_path / "x.csv"
        code = main(["run", "--config", str(conf), "--out", str(out)])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith(
            f"error: cannot read config file {conf}: ")
        assert not out.exists()


def _out_of_memory(cfg):
    raise MemoryError("Unable to allocate 7.28 TiB")


def _nan_column(cfg):
    times = np.linspace(0.0, cfg.tmax, cfg.steps)
    return times, [np.where(times > 0.0, np.nan, 1.0)]


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

    @pytest.mark.parametrize("drive", [
        pytest.param([], id="real-drive"),
        pytest.param(["--epsilon-im", "0.3"], id="complex-drive")])
    def test_spectral_matches_closed_form_on_every_column(self, drive):
        # fig1(b) at the default grid (tmax 12, 1200 steps, cutoff 64): a
        # real drive takes the float64 eigenbasis, a complex one does not
        cfg = build_run_config(build_parser().parse_args(run_args(
            "--method", "spectral", "--epsilon", "0.5", *drive,
            "--gamma", "1000", "--alpha", "2.5",
            "--observables", "sigma_x,sigma_z,purity")))
        times, columns = cli.compute_series(cfg)
        for name, column in zip(cfg.observables, columns):
            reference = observables.closed_form_series(
                cfg, cli.ATOM_OPERATORS[name], times)
            assert np.max(np.abs(column - reference)) <= 1e-11, name

    @pytest.mark.parametrize("method", [
        "spectral", "poisson", "lindblad", "schrodinger", "full-oracle"])
    def test_run_path_builds_no_joint_matrix(self, monkeypatch, method):
        # the pure state and the 2x2 atom operators go into the eigenbasis
        # directly: no joint density matrix and no joint operator is built
        def unreachable(*args):
            raise AssertionError("a joint matrix was built")

        for module in (fock, hamiltonians, observables, cli):
            for name in ("atom_field", "density_from_state",
                         "initial_density"):
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, unreachable)
        cfg = build_run_config(build_parser().parse_args(run_args(
            "--method", method, "--epsilon", "0.5", "--gamma", "1000",
            "--alpha", "1", "--cutoff", "16", "--tmax", "2", "--steps", "20",
            "--observables", "sigma_x,sigma_z,purity")))
        _, columns = cli.compute_series(cfg)
        assert len(columns) == 3
        assert all(np.isfinite(column).all() for column in columns)

    @pytest.mark.parametrize("method, states, tol", [
        ("poisson", lambda rho0, h, times, gamma: [
            dynamics.milburn_poisson_evolve(rho0, h, t, gamma)
            for t in times], 1e-12),
        ("schrodinger", lambda rho0, h, times, gamma: [
            dynamics.schrodinger_evolve(rho0, h, t) for t in times], 1e-12),
        # RK4 carried from one grid time to the next
        ("lindblad", lambda rho0, h, times, gamma: list(itertools.accumulate(
            np.diff(times), lambda rho, span:
            dynamics.lindblad_first_order_evolve(rho, h, span, gamma, 1e-3),
            initial=rho0)), 1e-9),
        ("closed-form", lambda rho0, h, times, gamma: [
            dynamics.SpectralPropagator(h).evolve(rho0, t, gamma)
            for t in times], 1e-12),
    ])
    @pytest.mark.parametrize("drive", [
        pytest.param(["--epsilon", "0.5"], id="real-drive"),
        pytest.param(["--epsilon", "0.5", "--epsilon-im", "0.3"],
                     id="complex-drive"),
        pytest.param(["--epsilon", "-0.4"], id="negative-drive"),
        pytest.param(["--epsilon", "0", "--epsilon-im", "0.3"],
                     id="imaginary-drive"),
        pytest.param(["--epsilon", "-0.2", "--epsilon-im", "-0.7"],
                     id="third-quadrant-drive")])
    def test_block_routes_match_state_level_references(self, method, states,
                                                       tol, drive):
        # the block routes take the closed-form 2x2 eigenbasis, whose phase
        # c*/|c| is -1 at a negative drive and complex at an imaginary one;
        # each state-level reference evolves the dense density matrix under
        # the displaced Hamiltonian (Poisson kicks, RK4 at dt = 1e-3, Pade
        # expm, or per-point spectral evolution)
        cfg = build_run_config(build_parser().parse_args(run_args(
            "--method", method, *drive, "--gamma", "50",
            "--alpha", "1", "--cutoff", "16", "--tmax", "1.5", "--steps", "4",
            "--observables", "sigma_x,sigma_z,purity")))
        times, columns = cli.compute_series(cfg)
        h = hamiltonians.effective_hamiltonian_displaced(cfg)
        rhos = states(observables.initial_density(cfg), h, times, cfg.gamma)
        for rho, row in zip(rhos, np.transpose(columns), strict=True):
            expected = [observables.state_expectation(
                rho, cli.ATOM_OPERATORS[name]) for name in cfg.observables]
            np.testing.assert_allclose(row, expected, rtol=0, atol=tol)

    @pytest.mark.parametrize("delta", [20.0, -15.0])
    @pytest.mark.parametrize("drive", [
        pytest.param([], id="real-drive"),
        pytest.param(["--epsilon-im", "0.3"], id="complex-drive")])
    def test_full_oracle_matches_unitary_state_evolution(self, delta, drive):
        # at gamma = 1e11 Milburn's factor is within ~1e-8 of the unitary
        # one over these eigenfrequencies; the reference is the Pade expm
        # of the interaction Hamiltonian, with no eigenbasis at all
        cfg = build_run_config(build_parser().parse_args(run_args(
            "--method", "full-oracle", "--epsilon", "0.5", *drive,
            "--delta", repr(delta), "--gamma", "1e11", "--alpha", "1",
            "--cutoff", "16", "--tmax", "2", "--steps", "5",
            "--observables", "sigma_x,sigma_z,purity")))
        times, columns = cli.compute_series(cfg)
        h = hamiltonians.interaction_hamiltonian(cfg)
        rho0 = observables.initial_density(cfg)
        for t, row in zip(times, np.transpose(columns)):
            rho = dynamics.schrodinger_evolve(rho0, h, t)
            expected = [observables.state_expectation(
                rho, cli.ATOM_OPERATORS[name]) for name in cfg.observables]
            np.testing.assert_allclose(row, expected, rtol=0, atol=1e-7)

    @pytest.mark.parametrize("method, dense", [
        ("closed-form", False), ("poisson", False), ("lindblad", False),
        ("schrodinger", False), ("spectral", True), ("full-oracle", True)])
    def test_only_dense_routes_diagonalise_the_joint_space(
            self, monkeypatch, method, dense):
        # the block routes solve their 2x2 blocks in closed form: no
        # SpectralPropagator, no displacement, no eigh of any shape and no
        # SVD of a cutoff^2 matrix; the spectral route runs one eigh of the
        # (2 cutoff)^2 H, the full-oracle route one SVD of its field
        # coupling and no eigh at all
        built = []
        propagator, eigh, svd, displacement = (
            cli.SpectralPropagator, np.linalg.eigh, np.linalg.svd,
            fock.displacement)

        def propagator_spy(*args, **kwargs):
            assert len(args) + len(kwargs) == 1  # h alone, no rate
            built.append("SpectralPropagator")
            return propagator(*args, **kwargs)

        def eigh_spy(a, *args, **kwargs):
            built.append(("eigh", np.shape(a)))
            return eigh(a, *args, **kwargs)

        def svd_spy(a, *args, **kwargs):
            if np.shape(a) == (16, 16):
                built.append("svd")
            return svd(a, *args, **kwargs)

        def displacement_spy(*args):
            built.append("displacement")
            return displacement(*args)

        monkeypatch.setattr(cli, "SpectralPropagator", propagator_spy)
        monkeypatch.setattr(np.linalg, "eigh", eigh_spy)
        monkeypatch.setattr(np.linalg, "svd", svd_spy)
        for module in (fock, hamiltonians):
            monkeypatch.setattr(module, "displacement", displacement_spy)
        cfg = build_run_config(build_parser().parse_args(run_args(
            "--method", method, "--epsilon", "0.5", "--gamma", "1000",
            "--alpha", "1", "--cutoff", "16", "--tmax", "2", "--steps", "20",
            "--observables", "sigma_x,sigma_z,purity")))
        _, columns = cli.compute_series(cfg)
        assert all(np.isfinite(column).all() for column in columns)
        eighs = [call[1] for call in built if isinstance(call, tuple)]
        if dense:
            assert built.count("SpectralPropagator") == 1
            if method == "spectral":  # besides displacement's tridiagonal
                assert (eighs.count((32, 32)), built.count("svd")) == (1, 0)
            else:
                assert (eighs, built.count("svd")) == ([], 1)
        else:
            assert built == []

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
        ("--tmax", "nan"), ("--gamma", "inf"), ("--delta", "inf"),
        ("--observables", "sigma_x,sigma_x"), ("--observables", ","),
        ("--lambda", "1e-200"), ("--lambda", "1e200"), ("--epsilon", "1e160"),
        ("--alpha", "1e200"), ("--delta", "1e-310")])
    def test_non_finite_input_writes_nothing(self, tmp_path, capsys, flag,
                                             value):
        # so are a repeated or empty observable list and finite inputs
        # whose derived parameters are not finite
        out = tmp_path / "x.csv"
        code = main(run_args("--method", "spectral", flag, value,
                             "--steps", "5", "--out", str(out)))
        assert code == EXIT_CONFIG
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv, compute_series", [
        # refused by the phase guard, before gamma * t could overflow
        pytest.param(["--method", "closed-form", "--tmax", "1e308",
                      "--steps", "3"], None, id="closed-form"),
        pytest.param(["--method", "spectral", "--tmax", "1e308",
                      "--steps", "3"], None, id="spectral"),
        # mean +- half width rounds to a one-term window
        pytest.param(["--method", "poisson", "--gamma", "1e35",
                      "--steps", "3"], None, id="poisson-collapsed-window"),
        pytest.param(["--steps", "3"], _out_of_memory, id="out-of-memory"),
        # more float64 values than numpy can size: refused by name before
        # any allocation, not a ValueError from numpy
        pytest.param(["--steps", "10000000000000000000"], None,
                     id="steps-past-array-size"),
        pytest.param(["--method", "spectral",
                      "--cutoff", "10000000000000000000"], None,
                     id="cutoff-past-array-size"),
        # a series that comes out non-finite is refused before writing
        pytest.param(["--steps", "3"], _nan_column, id="non-finite-series"),
        # Delta_n is about 1e300: rounding the eigenfrequencies costs far
        # more than a radian of phase, even below the first time step
        pytest.param(["--method", "closed-form", "--epsilon", "1e150",
                      "--tmax", "1e-6", "--steps", "7"], None,
                     id="huge-drive-closed-form"),
        pytest.param(["--method", "spectral", "--epsilon", "1e150",
                      "--tmax", "1e-6", "--steps", "7"], None,
                     id="huge-drive-spectral"),
    ])
    def test_numerical_guard_writes_nothing(self, tmp_path, capsys,
                                            monkeypatch, argv,
                                            compute_series):
        if compute_series is not None:
            monkeypatch.setattr(cli, "compute_series", compute_series)
        out = tmp_path / "x.csv"
        code = main(run_args(*argv, "--out", str(out)))
        assert code == EXIT_GUARD
        assert list(tmp_path.iterdir()) == []  # no output, no temp file
        err = capsys.readouterr().err
        assert err.startswith("numerical guard: ") and err.count("\n") == 1
        assert "Traceback" not in err

    def test_non_finite_series_is_refused_by_name(self, tmp_path, capsys,
                                                  monkeypatch):
        # cmd_run's own guard, after compute_series returns: the only line
        # on stderr names it, and nothing is written
        monkeypatch.setattr(cli, "compute_series", _nan_column)
        out = tmp_path / "x.csv"
        code = main(run_args("--steps", "3", "--out", str(out)))
        assert code == EXIT_GUARD == 3
        assert capsys.readouterr().err.splitlines() == [
            "numerical guard: the computed series has non-finite values"]
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("flag", ["--steps", "--cutoff"])
    def test_array_size_guard_names_the_flag(self, tmp_path, capsys, flag):
        # the first count numpy cannot size as float64 values, 2^60; only
        # the dense routes build cutoff-sized arrays
        out = tmp_path / "x.csv"
        method = "spectral" if flag == "--cutoff" else "closed-form"
        code = main(run_args("--method", method, flag, str(2**60),
                             "--out", str(out)))
        assert code == EXIT_GUARD
        assert capsys.readouterr().err.startswith(
            f"numerical guard: {flag} {2**60} ")

    def test_block_routes_take_a_cutoff_past_array_size(self, tmp_path):
        # the closed form's arrays end at the state's last nonzero photon
        # weight, so a cutoff of 2^62 gives the series of cutoff 64
        columns = []
        for cutoff in (2**62, 64):
            out = tmp_path / f"cutoff{cutoff}.csv"
            assert main(run_args("--method", "closed-form", "--cutoff",
                                 str(cutoff), "--steps", "2", "--observables",
                                 "sigma_x,sigma_z,purity",
                                 "--out", str(out))) == EXIT_OK
            _, rows = read_csv(out)
            columns.append(np.array(rows, dtype=float))
        np.testing.assert_allclose(columns[0], columns[1], rtol=0, atol=1e-12)

    def test_dense_cutoff_guard_builds_nothing(self, tmp_path, capsys,
                                               monkeypatch):
        # a (2 * 2^31)^2 complex matrix is 2^68 bytes: refused before the
        # Hamiltonian or the initial state is built
        def unreachable(*args):
            raise AssertionError("a cutoff-sized array was built")

        monkeypatch.setitem(cli.METHODS, "spectral",
                            (unreachable, cli.METHODS["spectral"][1]))
        monkeypatch.setattr(cli, "initial_state", unreachable)
        out = tmp_path / "x.csv"
        code = main(run_args("--cutoff", str(2**31), "--method", "spectral",
                             "--out", str(out)))
        assert code == EXIT_GUARD
        assert list(tmp_path.iterdir()) == []
        guard = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("numerical guard: ")]
        assert len(guard) == 1 and f"--cutoff {2**31} " in guard[0]

    def test_purity_pair_guard_builds_nothing(self, tmp_path, capsys,
                                              monkeypatch):
        # |alpha - beta|^2 of about 1e4 populates 15 340 eigenvectors, whose
        # 1.18e8 purity pairs would take about 9 GB: refused before the pair
        # table is built
        def unreachable(size):
            raise AssertionError("a purity pair table was built")

        monkeypatch.setattr(dynamics, "_pair_table", unreachable)
        out = tmp_path / "x.csv"
        code = main(run_args("--method", "closed-form", "--alpha", "100.5",
                             "--cutoff", "40000", "--steps", "2",
                             "--observables", "purity", "--out", str(out)))
        assert code == EXIT_GUARD
        assert list(tmp_path.iterdir()) == []
        guard = [line for line in capsys.readouterr().err.splitlines()
                 if line.startswith("numerical guard: ")]
        assert len(guard) == 1
        assert all(text in guard[0] for text in (
            "15340 populated eigenvectors", "117650130 pairs", "--alpha",
            "--observables"))

    def test_purity_pair_table_is_released(self, tmp_path):
        # |alpha - beta|^2 of about 110 populates about 1400 eigenvectors of
        # the 2x2 blocks: their purity pair table, about 15 MB, is wider
        # than the eigenbasis and must not outlive the run
        argv = run_args("--method", "closed-form", "--alpha", "10.5",
                        "--cutoff", "4000", "--steps", "2", "--observables",
                        "purity", "--out", str(tmp_path / "x.csv"))
        tracemalloc.start()
        try:
            assert main(argv) == 0
            left, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak > 10_000_000 and left < 1_000_000

    @pytest.mark.parametrize("drive", [
        pytest.param(["--epsilon", "0.5"], id="real-drive"),
        pytest.param(["--epsilon", "0.4", "--epsilon-im", "0.3"],
                     id="complex-drive")])
    @pytest.mark.parametrize("method", list(cli.METHODS))
    def test_column_does_not_depend_on_its_run_mates(self, tmp_path, method,
                                                      drive):
        # one eigenbasis serves every observable of a run: each column of
        # a three-observable run holds the bytes of that observable's run
        # alone (default grid, tmax 12 and 1200 steps, at cutoff 16); only
        # full-oracle's header names the extension mode
        comments = []

        def columns(observables):
            out = tmp_path / f"{observables}.csv"
            assert main(run_args(
                "--method", method, *drive, "--gamma", "1000", "--alpha",
                "1", "--cutoff", "16", "--observables", observables,
                "--out", str(out))) == EXIT_OK
            lines = out.read_text().splitlines()
            comments.extend(line for line in lines if line.startswith("#"))
            return list(zip(*(line.split(",") for line in lines
                              if not line.startswith("#"))))

        names = ["purity", "sigma_z", "sigma_x"]
        joint = columns(",".join(names))
        assert len(joint) == 4
        assert [line for line in comments if "extension" in line] == (
            ["# mode = extension (full interaction Hamiltonian, not the "
             "dispersive reproduction)"] if method == "full-oracle" else [])
        for name, column in zip(names, joint[1:]):
            assert columns(name) == [joint[0], column]

    @pytest.mark.parametrize("flags, reference", [
        # the default grid: tmax 12, 1200 steps, cutoff 64
        pytest.param(["--epsilon", "0.5", "--gamma", "1000"], "spectral",
                     id="default-grid"),
        pytest.param(["--epsilon", "0.5", "--epsilon-im", "0.3",
                      "--gamma", "1000", "--tmax", "4", "--steps", "200"],
                     "closed-form", id="complex-drive"),
    ])
    def test_poisson_matches_reference_on_every_column(self, tmp_path,
                                                      flags, reference):
        # the Poisson window discards a mass below 1e-10
        columns = {}
        for method in ("poisson", reference):
            out = tmp_path / f"{method}.csv"
            assert main(run_args(
                "--method", method, *flags,
                "--observables", "sigma_x,sigma_z,purity",
                "--out", str(out))) == EXIT_OK
            header, rows = read_csv(out)
            assert header == ["t", "sigma_x", "sigma_z", "purity"]
            columns[method] = np.array(rows, dtype=float)
        gap = np.abs(columns["poisson"] - columns[reference]).max(axis=0)
        assert np.all(gap <= 1e-10), gap

    def test_poisson_window_budget_exit_code(self, tmp_path):
        # gamma * tmax = 1e8 needs a window of about 1.6e5 kicks
        out = tmp_path / "x.csv"
        code = main(run_args("--method", "poisson", "--gamma", "1e8",
                             "--alpha", "1", "--cutoff", "16", "--tmax", "1",
                             "--steps", "2", "--out", str(out)))
        assert code == EXIT_GUARD
        assert not out.exists()

    def test_unwritable_output_exit_code(self, tmp_path, capsys):
        # a path in a missing directory, and a path that is a directory:
        # the error names the path, and no temporary file is left behind
        missing = tmp_path / "missing" / "x.csv"
        directory = tmp_path / "d" / "outdir"
        directory.mkdir(parents=True)
        for out in (missing, directory):
            code = main(run_args("--steps", "5", "--out", str(out)))
            assert code == EXIT_CONFIG
            err = capsys.readouterr().err
            assert err.startswith("error: ")
            assert repr(str(out)) in err and ".tmp" not in err
        assert not missing.parent.exists()
        assert list(directory.parent.iterdir()) == [directory]
        assert list(directory.iterdir()) == []

    def test_failed_write_keeps_previous_output(self, tmp_path, monkeypatch,
                                                capsys):
        out = tmp_path / "x.csv"
        out.write_bytes(b"previous run\n")
        real_open = open

        class FullDisk:
            """A text file that holds 200 characters, then raises ENOSPC."""

            def __init__(self, f):
                self.f, self.room = f, 200

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                self.f.close()

            def write(self, s):
                self.f.write(s[:self.room])
                self.room -= len(s)
                if self.room < 0:
                    raise OSError(errno.ENOSPC, "No space left on device")

        monkeypatch.setattr(cli, "open",
                            lambda *a, **k: FullDisk(real_open(*a, **k)),
                            raising=False)
        code = main(run_args("--steps", "50", "--out", str(out)))
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err.startswith("error: ")
        assert out.read_bytes() == b"previous run\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["x.csv"]

    def test_writer_matches_row_formatting(self, tmp_path, monkeypatch):
        # 3 rows per block, so 11 rows span four blocks; on the second grid
        # the first block's times stay below 1000 and the second's reach
        # it, so the integer slot widens by one group between them
        monkeypatch.setattr(cli, "CSV_BLOCK", 9)
        edge = [-0.0, 5e-16, -1.0, 1.0 / 3.0, -5e-16, 1e-17, 0.5]
        cols = [np.resize(edge, 11), -np.resize(edge[::-1], 11)]
        out = tmp_path / "w.csv"
        for times in (np.linspace(0.0, 1.0, 11),
                      np.linspace(997.0, 1007.0, 11)):
            write_csv(out, times, cols, ("a", "b"), ["note"])
            expected = "# note\nt,a,b\n" + "".join(
                f"{t:.15f},{a:.15f},{b:.15f}\n"
                for t, a, b in zip(times, *cols))
            assert out.read_bytes() == expected.encode()

    def test_writer_mixes_fast_and_fallback_blocks(self, tmp_path,
                                                   monkeypatch):
        # 3 rows per block: the second and fourth blocks hold values that
        # only `%` formats, the first and third none
        monkeypatch.setattr(cli, "CSV_BLOCK", 9)
        times = np.linspace(0.0, 1e300, 11)
        times[:3] = times[6:9] = [0.0, 0.25, -0.0]
        col = np.resize([1.0 / 3.0, -5e-16, 47.99999999999999, 2.0**52,
                         float("nan"), -float("inf"), 0.9999999999999999],
                        11)
        col[:3] = col[6:9] = [1e-17, -1e-17, 0.5]
        out = tmp_path / "w.csv"
        write_csv(out, times, [col], ("a",))
        expected = "t,a\n" + "".join(
            "%.15f,%.15f\n" % (t, a) for t, a in zip(times, col))
        assert out.read_bytes() == expected.encode()

    def test_writer_memory_does_not_grow_with_rows(self, tmp_path):
        # the writer stacks one block at a time from slices of the columns
        # and holds no copy of the table
        peaks = []
        for n in (24_000, 240_000):
            times = np.linspace(0.0, 48.0, n)
            col = np.cos(times)
            tracemalloc.start()
            try:
                write_csv(tmp_path / "m.csv", times, [col], ("a",))
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert max(peaks) <= 1.5 * 2**20
        assert max(peaks) <= 1.1 * min(peaks)

    def test_run_memory_is_its_output_arrays(self, tmp_path, monkeypatch):
        # no second copy of the grid: the traced peak of a whole run is its
        # output arrays and a block's worth more
        outputs = []
        compute_series = cli.compute_series

        def spy(cfg):
            times, cols = compute_series(cfg)
            outputs.append(times.nbytes + sum(col.nbytes for col in cols))
            return times, cols

        monkeypatch.setattr(cli, "compute_series", spy)
        argv = run_args("--method", "closed-form", "--tmax", "48", "--steps",
                        "240000", "--observables", "sigma_x,sigma_z,purity",
                        "--out", str(tmp_path / "x.csv"))
        tracemalloc.start()
        try:
            assert main(argv) == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert outputs[0] == 4 * 8 * 240_000
        assert peak <= outputs[0] + 1.5 * 2**20

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


def percent_text(block):
    """The '%.15f' text of each value of a (rows, columns) block, one
    value at a time."""
    return "".join(",".join("%.15f" % x for x in row) + "\n"
                   for row in block.tolist())


def fixed_text(block):
    row = ",".join(["%.15f"] * block.shape[1]) + "\n"
    return bytes(cli._format_fixed(block, row)).decode()


class TestFixedPointFormat:
    """cli._format_fixed writes the bytes '%.15f' writes."""

    @settings(max_examples=200, deadline=None)
    @given(arrays(np.float64, st.tuples(st.integers(1, 40), st.integers(1, 3)),
                  elements=st.floats(-64.0, 64.0)))
    def test_interval(self, block):
        assert fixed_text(block) == percent_text(block)

    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.integers(0, 2**64 - 1), min_size=1, max_size=40))
    def test_bit_patterns(self, bits):
        # every float64, non-finite and beyond 2^52 ones included
        block = np.array(bits, dtype=np.uint64).view(np.float64)[:, None]
        assert fixed_text(block) == percent_text(block)

    def test_uniform_sample(self):
        # about 4% of these land p = f 1e15 on a half that only e breaks
        block = np.random.default_rng(5).uniform(-64.0, 64.0, (10_000, 2))
        assert fixed_text(block) == percent_text(block)

    def test_exact_ties(self):
        # every k / 2^16 in +-3.05: f 1e15 is then an integer plus a half
        k = np.arange(-200_000, 200_000)
        block = (k / 65536.0).reshape(-1, 4)
        assert fixed_text(block) == percent_text(block)

    @pytest.mark.parametrize("value", [
        0.0, -0.0, 5e-16, -5e-16, 1e-17, -1e-17, 5e-324, -5e-324,
        2.2250738585072014e-308, -1e-310,
        # fractions at the top of [0, 1): a round-up carries into the
        # integer part
        0.9999999999999995, 0.9999999999999999, 0.99999999999999995,
        47.99999999999999, -47.99999999999999,
        # f 1e15 rounds to a half, broken by the product's low part
        -1.8955552727507126, 34.37017585872056, 63.875312937464,
        # long integer parts, up to 16 digits
        1e15 - 0.5, 2.0**51 + 0.5, 2.0**52 - 0.5, -(2.0**52 - 1.0),
        123456789012345.67,
    ])
    def test_edge_values(self, value):
        block = np.array([[value, -value], [1.0, value]])
        assert fixed_text(block) == percent_text(block)

    @pytest.mark.parametrize("value", [
        2.0**52, -2.0**52, 1e300, -1.7976931348623157e308,
        float("inf"), -float("inf"), float("nan")])
    def test_fallback_values(self, value):
        block = np.array([[0.25, value], [-0.0, 1.0 / 3.0]])
        assert fixed_text(block) == percent_text(block)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(1, 30).flatmap(lambda rows: st.tuples(
        arrays(np.float64, (rows, 2), elements=st.floats(-1.0, 1.0)),
        arrays(np.int64, (rows, 2), elements=st.integers(0, 15)))))
    def test_mixed_widths(self, drawn):
        # moduli from below 1 to 1e15: the largest sets the integer slot
        # of every value in the block
        mantissa, exponent = drawn
        block = mantissa * 10.0**exponent
        assert fixed_text(block) == percent_text(block)

    @pytest.mark.parametrize("value", [
        # each slot width's largest integer part and the next width's least
        *(v for w in (1e3, 1e7, 1e11, 1e15) for v in (np.nextafter(w, 0), w)),
        # rounding carries: they need a fraction above 1 - 5e-16, which
        # only moduli below 4 have, so none crosses a width boundary
        # (999.9999999999999995 is the double 1000.0)
        3.9999999999999996, 0.9999999999999999,
        # integer parts around 2^31
        2.0**31 - 0.5, 2.0**31, 2.0**31 + 0.5, 2.0**32 - 1.0,
        0.0, -0.0,
    ])
    @pytest.mark.parametrize("wide", [0.5, 1e3, 1e7, 1e11, 1e15, 2.0**52 - 1.0])
    def test_width_edges(self, value, wide):
        # a value in the slot that the block's widest value sets
        block = np.array([[value, -value], [wide, -0.0], [0.0, -wide]])
        assert fixed_text(block) == percent_text(block)


class TestTruncationRule:
    COMMON = ("--epsilon", "0.5", "--gamma", "1000", "--tmax", "2",
              "--steps", "20")

    @pytest.mark.parametrize("method", list(cli.METHODS))
    def test_displaced_state_beyond_cutoff(self, tmp_path, capsys, method):
        # beta = 5: |alpha> (mean 6.25) fits cutoff 64, but |alpha - beta>
        # (mean 56.25) leaves a tail of 0.17, and every route except
        # full-oracle represents it
        out = tmp_path / "x.csv"
        code = main(run_args("--method", method, "--lambda", "0.1",
                             "--alpha", "-2.5", *self.COMMON,
                             "--out", str(out)))
        if method == "full-oracle":
            assert code == EXIT_OK
            return
        assert code == EXIT_GUARD
        assert list(tmp_path.iterdir()) == []
        err = capsys.readouterr().err.splitlines()
        guard = [line for line in err if line.startswith("numerical guard: ")]
        assert len(guard) == 1
        # the refused state is named by alpha and beta, not only its mean
        assert "alpha = -2.5, beta = 5" in guard[0]

    def test_large_displacement_within_cutoff(self, tmp_path):
        # beta = 6.25 is large for cutoff 64, but |alpha> and
        # |alpha - beta> both have mean 9.77 and fit it
        values = {}
        for method in cli.METHODS:
            out = tmp_path / f"{method}.csv"
            assert main(run_args("--method", method, "--lambda", "0.08",
                                 "--alpha", "3.125", *self.COMMON,
                                 "--out", str(out))) == EXIT_OK
            _, rows = read_csv(out)
            values[method] = np.array([float(r[1]) for r in rows])
        for method in ("spectral", "poisson"):
            gap = np.max(np.abs(values[method] - values["closed-form"]))
            assert gap <= 1e-11, method


    @pytest.mark.parametrize("method, code", [
        ("closed-form", EXIT_OK), ("poisson", EXIT_OK), ("lindblad", EXIT_OK),
        ("schrodinger", EXIT_OK), ("spectral", EXIT_GUARD),
        ("full-oracle", EXIT_GUARD)])
    def test_lab_frame_state_refused_by_dense_routes_only(
            self, tmp_path, capsys, method, code):
        # |alpha - beta> (mean 6.25) fits cutoff 36, |alpha> (mean 9) does
        # not: the block routes never represent |alpha>, the dense ones do
        out = tmp_path / "x.csv"
        assert main(run_args("--method", method, "--alpha", "3",
                             "--cutoff", "36", *self.COMMON,
                             "--out", str(out))) == code
        if code == EXIT_OK:
            return
        assert list(tmp_path.iterdir()) == []
        assert capsys.readouterr().err.splitlines()[-1] == (
            "numerical guard: a coherent state of mean photon number 9 "
            "leaves tail mass 9.850e-12 beyond cutoff 36; increase the cutoff")

    def test_block_route_cost_follows_the_state(self, tmp_path,
                                                monkeypatch):
        # at cutoff 1e8 only the photon numbers whose weight is nonzero in
        # float64 are built: about 240 at |alpha - beta|^2 = 4
        counts = []
        rabi_blocks = hamiltonians.rabi_blocks

        def rabi_blocks_spy(p, n):
            counts.append(np.size(n))
            return rabi_blocks(p, n)

        for module in (hamiltonians, observables):
            monkeypatch.setattr(module, "rabi_blocks", rabi_blocks_spy)
        out = tmp_path / "x.csv"
        assert main(run_args("--method", "poisson", "--gamma", "1000",
                             "--cutoff", "100000000",
                             "--out", str(out))) == EXIT_OK
        assert counts and max(counts) <= 300


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

    # each fault shifts every entry of one check's own operand, by more
    # than its threshold and less than 1e6 times it
    FAULTS = [
        ("propagator-block-vs-exponential", cli, "block_propagators", 1e-7),
        ("propagator-vs-dense-exponential", dynamics, "effective_propagator",
         1e-4),
        ("poisson-vs-spectral", cli, "milburn_poisson_evolve", 1e-6),
        ("spectral-unitary-limit", cli, "schrodinger_evolve", 1e-3),
        ("closed-form-vs-state-evolution", cli, "closed_form_series", 1e-5),
    ]

    @pytest.mark.parametrize("check, module, name, shift", FAULTS,
                             ids=[fault[0] for fault in FAULTS])
    def test_fault_fails_only_its_check(self, capsys, monkeypatch, check,
                                        module, name, shift):
        original = getattr(module, name)
        monkeypatch.setattr(module, name,
                            lambda *args: original(*args) + shift)
        assert main(["validate"]) == EXIT_VALIDATION
        assert [line.split()[1] for line in capsys.readouterr().out
                .splitlines() if line.startswith("FAIL ")] == [check]

    def test_closed_form_check_is_independent(self, capsys, monkeypatch):
        # a fault in the shared series evaluator must not cancel out of the
        # closed-form check, so its state side may not use that evaluator
        original = dynamics.ExponentialFactor.series

        def shifted(*args, **kwargs):
            return original(*args, **kwargs) + 1e-6

        monkeypatch.setattr(dynamics.ExponentialFactor, "series", shifted)
        assert main(["validate"]) == EXIT_VALIDATION
        out = capsys.readouterr().out
        assert "FAIL closed-form-vs-state-evolution" in out

    def test_rotation_gaps_are_reported(self, capsys, monkeypatch):
        # the expanded dispersive form against the rotated H_I and the
        # displaced core: pins chi and the expanded coefficients
        expected = {
            "expanded-vs-first-order-rotation": 7.000000,
            "expanded-vs-exact-rotation": 16.080005,
            "expanded-vs-displaced-core": 21.000000,
            "exact-vs-first-order-rotation": 9.080005,
            "displaced-core-vs-exact-rotation": 4.919995,
        }
        assert main(["validate"]) == EXIT_OK
        gaps = {name: float(value) for name, value in re.findall(
            r"^GAP (\S+) \(max (\S+)\)$", capsys.readouterr().out,
            re.MULTILINE)}
        assert gaps.keys() == expected.keys()
        for name, value in expected.items():
            assert gaps[name] == pytest.approx(value, abs=1e-6), name
        # a gap is a report, never a mismatch
        monkeypatch.setattr(cli, "compare_operators", lambda *a: 1e3)
        assert main(["validate"]) == EXIT_OK
        assert "GAP expanded-vs-exact-rotation (max 1000.000000)" in (
            capsys.readouterr().out)


def test_module_entry_point_validates():
    # outside pytest's warning filters: the dispersive-validity warning
    # of validate's delta = 2 parameter sets is printed once, as one line
    src = os.path.dirname(os.path.dirname(milburnsim.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-m", "milburnsim", "validate"],
                          env=env, capture_output=True, text=True,
                          timeout=120)
    assert proc.returncode == EXIT_OK
    lines = proc.stdout.splitlines()
    assert sum(line.startswith("PASS ") for line in lines) == 5
    gaps = [float(line.rsplit(" ", 1)[1].rstrip(")"))
            for line in lines if line.startswith("GAP ")]
    assert len(gaps) == 5
    assert all(math.isfinite(g) for g in gaps)
    assert "Traceback" not in proc.stderr
    assert sum(line.startswith("warning: ")
               for line in proc.stderr.splitlines()) == 1


def test_closed_form_run_warns_once(tmp_path):
    # the default delta = 2 set is outside the dispersive regime
    src = os.path.dirname(os.path.dirname(milburnsim.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    env.pop("PYTHONWARNINGS", None)
    proc = subprocess.run([sys.executable, "-m", "milburnsim", "run",
                           "--steps", "3"], cwd=tmp_path, env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK
    assert (tmp_path / "series.csv").exists()
    assert "Traceback" not in proc.stderr
    assert sum(line.startswith("warning: ")
               for line in proc.stderr.splitlines()) == 1


def test_run_leaves_scipy_unimported(tmp_path):
    # scipy serves only validate and the oracle helpers; every run method
    # must work in a fresh interpreter without importing it
    src = os.path.dirname(os.path.dirname(milburnsim.__file__))
    child = (
        "import json, sys\n"
        "from milburnsim.cli import METHODS, main\n"
        "codes = {m: main(['run', '--method', m, '--cutoff', '16', "
        "'--alpha', '1', '--steps', '5', '--out', sys.argv[1]]) "
        "for m in METHODS}\n"
        "scipy = [k for k in sys.modules "
        "if k == 'scipy' or k.startswith('scipy.')]\n"
        "print(json.dumps([codes, scipy]))\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", child, str(tmp_path / "r.csv")],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True,
        text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    codes, scipy = json.loads(proc.stdout.splitlines()[-1])
    assert codes == dict.fromkeys(cli.METHODS, EXIT_OK)
    assert scipy == []


def test_parser_is_built_once_and_keeps_no_state(tmp_path):
    # the second main call in this process writes the bytes that a fresh
    # process writes for the same argv: no flag of the first call leaks
    assert build_parser() is build_parser()
    assert main(["run", "--method", "spectral", "--epsilon", "0.3",
                 "--observables", "sigma_z",
                 "--out", str(tmp_path / "first.csv")]) == EXIT_OK
    argv = ["run", "--method", "spectral", "--out"]
    assert main([*argv, str(tmp_path / "second.csv")]) == EXIT_OK
    src = os.path.dirname(os.path.dirname(milburnsim.__file__))
    proc = subprocess.run(
        [sys.executable, "-m", "milburnsim", *argv,
         str(tmp_path / "fresh.csv")],
        env=dict(os.environ, PYTHONPATH=src,
                 PYTHONWARNINGS="error::RuntimeWarning"),
        capture_output=True, text=True, timeout=120)
    assert proc.returncode == EXIT_OK, proc.stderr
    assert ((tmp_path / "second.csv").read_bytes()
            == (tmp_path / "fresh.csv").read_bytes())


def test_parser_errors_and_help_repeat(capsys):
    # argparse's own exits, before main's handlers, on the cached parser
    for _ in range(2):
        with pytest.raises(SystemExit) as bad:
            main(["run", "--steps", "many"])
        assert bad.value.code == EXIT_CONFIG
        assert "invalid int value: 'many'" in capsys.readouterr().err
        with pytest.raises(SystemExit) as shown:
            main(["run", "--help"])
        assert shown.value.code == 0
        assert "--observables" in capsys.readouterr().out
