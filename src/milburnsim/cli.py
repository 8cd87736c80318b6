"""Command-line front end.

Subcommands:
  run       evolve one parameter set and write a CSV time series
  fig1      emit the three reference collapse/revival curves
  validate  cross-route consistency battery at reduced sizes

Exit codes: 0 success, 2 invalid configuration, 3 numerical guard
violated (cutoff / window), 4 validation mismatch.
"""

import argparse
import math
import sys
from dataclasses import dataclass, replace

import numpy as np

from . import dynamics
from .dynamics import (
    MilburnConfig,
    SpectralPropagator,
    TimeSeries,
    WindowBudgetError,
    block_propagators,
    first_order_factor,
    milburn_factor,
    milburn_poisson_evolve,
    poisson_factor,
    schrodinger_evolve,
    unitary_factor,
)
from .fock import (
    SIGMA_X,
    SIGMA_Z,
    CutoffTooSmallError,
    TruncationError,
    atom_field,
    identity_field,
    matrix_exponential,
)
from .hamiltonians import effective_hamiltonian_displaced, interaction_hamiltonian
from .observables import initial_density, revival_metrics, sigma_x_closed_form
from .params import SystemParams, derived_params

METHODS = ("closed-form", "spectral", "poisson", "lindblad", "schrodinger",
           "full-oracle")
OBSERVABLES = ("sigma_x", "sigma_z", "purity")

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_VALIDATION = 4


@dataclass(frozen=True)
class RunConfig:
    lam: float = 1.0
    epsilon: complex = 0.0
    delta: float = 2.0
    gamma: float = 1e6
    alpha: complex = 2.5
    dcut: int = 64
    tmax: float = 12.0
    steps: int = 1200
    method: str = "closed-form"
    observables: tuple = ("sigma_x",)
    out: str = "series.csv"

    def system_params(self) -> SystemParams:
        return SystemParams(lam=self.lam, epsilon=self.epsilon,
                            delta=self.delta, gamma=self.gamma,
                            alpha=self.alpha, dcut=self.dcut)


class ConfigError(ValueError):
    pass


def _parse_config_file(path):
    """key = value lines; blank lines and #-comments ignored."""
    values = {}
    try:
        with open(path) as f:
            for lineno, raw in enumerate(f, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path}: {e}")
    return values


_FLOAT_KEYS = {"lambda": "lam", "epsilon": "epsilon", "epsilon-im": "epsilon_im",
               "delta": "delta", "gamma": "gamma", "alpha": "alpha",
               "tmax": "tmax"}
_INT_KEYS = {"cutoff": "dcut", "steps": "steps"}


def build_run_config(args) -> RunConfig:
    """Defaults < config file < command-line flags."""
    merged = {}
    eps_im = 0.0
    if args.config:
        for key, raw in _parse_config_file(args.config).items():
            if key in _FLOAT_KEYS:
                try:
                    val = float(raw)
                except ValueError:
                    raise ConfigError(f"config key {key}: bad number {raw!r}")
                if key == "epsilon-im":
                    eps_im = val
                else:
                    merged[_FLOAT_KEYS[key]] = val
            elif key in _INT_KEYS:
                try:
                    merged[_INT_KEYS[key]] = int(raw)
                except ValueError:
                    raise ConfigError(f"config key {key}: bad integer {raw!r}")
            elif key == "method":
                merged["method"] = raw
            elif key == "out":
                merged["out"] = raw
            elif key == "observables":
                merged["observables"] = tuple(
                    s.strip() for s in raw.split(",") if s.strip())
            else:
                raise ConfigError(f"unknown config key {key!r}")

    for attr in ("lam", "epsilon", "delta", "gamma", "alpha", "dcut",
                 "tmax", "steps", "method", "out"):
        val = getattr(args, attr, None)
        if val is not None:
            merged[attr] = val
    if getattr(args, "epsilon_im", None) is not None:
        eps_im = args.epsilon_im
    if getattr(args, "observables", None) is not None:
        merged["observables"] = tuple(
            s.strip() for s in args.observables.split(",") if s.strip())

    cfg = RunConfig(**merged)
    if eps_im:
        cfg = replace(cfg, epsilon=complex(cfg.epsilon) + 1j * eps_im)

    if cfg.method not in METHODS:
        raise ConfigError(
            f"unknown method {cfg.method!r}; choose from {', '.join(METHODS)}")
    bad = [o for o in cfg.observables if o not in OBSERVABLES]
    if bad:
        raise ConfigError(
            f"unknown observables {bad}; choose from {', '.join(OBSERVABLES)}")
    if cfg.method == "closed-form" and tuple(cfg.observables) != ("sigma_x",):
        raise ConfigError("closed-form method computes sigma_x only")
    if not (math.isfinite(cfg.tmax) and cfg.tmax > 0):
        raise ConfigError(f"tmax must be positive and finite, got {cfg.tmax}")
    if cfg.steps < 2:
        raise ConfigError(f"steps must be >= 2, got {cfg.steps}")
    try:
        cfg.system_params()
    except ValueError as e:
        raise ConfigError(str(e))
    return cfg


# Each density-matrix method's scalar factor F(omega, t, gamma) per
# eigenfrequency.
ROUTE_FACTORS = {
    "spectral": milburn_factor,
    "full-oracle": milburn_factor,
    "poisson": poisson_factor,
    "schrodinger": unitary_factor,
    "lindblad": first_order_factor,
}
ATOM_OPERATORS = {"sigma_x": SIGMA_X, "sigma_z": SIGMA_Z}


def compute_series(cfg: RunConfig):
    """Evaluate the configured observables on the time grid.

    Returns (times, columns) with one column per observable.
    """
    p = cfg.system_params()
    times = np.linspace(0.0, cfg.tmax, cfg.steps)

    if cfg.method == "closed-form":
        return times, [sigma_x_closed_form(p, times)]

    if cfg.method == "full-oracle":
        h = interaction_hamiltonian(p)
    else:
        h = effective_hamiltonian_displaced(p)
    h = 0.5 * (h + h.conj().T)
    rho0 = initial_density(p)
    prop = SpectralPropagator(h=h, gamma=p.gamma)
    factor = ROUTE_FACTORS[cfg.method]
    cols = []
    for name in cfg.observables:
        op = None if name == "purity" else atom_field(
            ATOM_OPERATORS[name], identity_field(p.dcut))
        cols.append(prop.expectation_series(rho0, op, times, factor).real)
    return times, cols


def write_csv(path, times, columns, names, header_comments=()):
    """Fixed-precision, LF-terminated CSV; byte-stable for a given input."""
    with open(path, "w", newline="") as f:
        for line in header_comments:
            f.write(f"# {line}\n")
        f.write("t," + ",".join(names) + "\n")
        for i, t in enumerate(times):
            vals = ",".join(f"{col[i]:.15f}" for col in columns)
            f.write(f"{t:.15f},{vals}\n")


def _fmt_num(z):
    z = complex(z)
    return f"{z.real:g}" if z.imag == 0 else f"{z.real:g}{z.imag:+g}j"


def _config_comments(cfg: RunConfig):
    lines = [
        "milburnsim time series",
        f"method = {cfg.method}",
        f"lambda = {cfg.lam:g}, delta = {cfg.delta:g}, gamma = {cfg.gamma:g}",
        f"epsilon = {_fmt_num(cfg.epsilon)}, alpha = {_fmt_num(cfg.alpha)}, "
        f"cutoff = {cfg.dcut}",
    ]
    if cfg.method == "full-oracle":
        lines.append("mode = extension (full interaction Hamiltonian, "
                     "not the dispersive reproduction)")
    return lines


def cmd_run(args):
    try:
        cfg = build_run_config(args)
    except ConfigError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        times, cols = compute_series(cfg)
    except (TruncationError, CutoffTooSmallError, WindowBudgetError) as e:
        print(f"numerical guard: {e}", file=sys.stderr)
        return EXIT_GUARD
    try:
        write_csv(cfg.out, times, cols, cfg.observables,
                  _config_comments(cfg))
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


FIG1_SETS = {
    "a": dict(epsilon=0.0, gamma=1e6),
    "b": dict(epsilon=0.5, gamma=1e3),
    "c": dict(epsilon=0.5, gamma=1e6),
}
FIG1_COLLAPSE_WINDOW = (1.5, 2.5)
FIG1_REVIVAL_WINDOW = (2.9, 3.4)


def cmd_fig1(args):
    try:
        _write_fig1(args.out_dir)
    except OSError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    return EXIT_OK


def _write_fig1(out_dir):
    """The three reference curves and their metrics sidecar."""
    import os

    os.makedirs(out_dir, exist_ok=True)
    times = np.linspace(0.0, 12.0, 2400)
    metrics_rows = []
    for label, overrides in FIG1_SETS.items():
        p = SystemParams(lam=1.0, delta=2.0, alpha=2.5, dcut=64, **overrides)
        values = sigma_x_closed_form(p, times)
        path = os.path.join(out_dir, f"fig1{label}.csv")
        write_csv(path, times, [values], ("sigma_x",), [
            "milburnsim reference curve " + label,
            f"epsilon = {overrides['epsilon']:g}, gamma = {overrides['gamma']:g}",
            "lambda = 1, delta = 2, alpha = 2.5, cutoff = 64, "
            "method = closed-form",
        ])
        m = revival_metrics(TimeSeries(times=times, values=values),
                            FIG1_COLLAPSE_WINDOW, FIG1_REVIVAL_WINDOW)
        metrics_rows.append((label, m))
        print(f"wrote {path}")

    metrics_path = os.path.join(out_dir, "fig1_metrics.csv")
    with open(metrics_path, "w", newline="") as f:
        f.write("series,revival_peak,revival_time,collapse_floor\n")
        for label, m in metrics_rows:
            f.write(f"{label},{m.revival_peak:.15f},{m.revival_time:.15f},"
                    f"{m.collapse_floor:.15f}\n")
    print(f"wrote {metrics_path}")


def _validation_checks():
    """Reduced-size cross-route battery.  Yields (name, ok, detail)."""
    p = SystemParams(lam=1.0, epsilon=0.5, delta=2.0, gamma=1e3,
                     alpha=1.0, dcut=16)
    d = derived_params(p)

    # analytic block vs 2x2 exponential
    worst = 0.0
    for n in (0, 1, 3):
        for t in (0.3, 1.0):
            blk = block_propagators(t, p)[n]
            detuned = d.chi * n + d.delta_tilde
            h2 = np.array([[detuned, p.epsilon],
                           [np.conjugate(p.epsilon), -detuned]])
            worst = max(worst, np.max(np.abs(
                blk - matrix_exponential(-1j * t * h2))))
    yield "propagator-block-vs-exponential", worst <= 1e-10, f"max {worst:.2e}"

    # assembled propagator vs dense exponential of the displaced Hamiltonian
    h = effective_hamiltonian_displaced(p)
    h = 0.5 * (h + h.conj().T)
    u_blocks = dynamics.effective_propagator(0.5, p)
    u_dense = matrix_exponential(-1j * 0.5 * h)
    idx = np.r_[0:p.dcut - 4, p.dcut:2 * p.dcut - 4]
    gap = np.max(np.abs(u_blocks[np.ix_(idx, idx)] - u_dense[np.ix_(idx, idx)]))
    yield "propagator-vs-dense-exponential", gap <= 1e-7, f"max {gap:.2e}"

    # Poisson window vs spectral closed form at small gamma*t
    rho0 = initial_density(p)
    p_small = SystemParams(lam=1.0, epsilon=0.5, delta=2.0, gamma=50.0,
                           alpha=1.0, dcut=16)
    h_small = effective_hamiltonian_displaced(p_small)
    h_small = 0.5 * (h_small + h_small.conj().T)
    ra = milburn_poisson_evolve(rho0, h_small, 1.0, MilburnConfig(gamma=50.0))
    rb = dynamics.milburn_spectral_evolve(rho0, h_small, 1.0, 50.0)
    gap = np.max(np.abs(ra - rb))
    yield "poisson-vs-spectral", gap <= 1e-9, f"max {gap:.2e}"

    # unitary limit of the spectral route
    r_spec = dynamics.milburn_spectral_evolve(rho0, h, 1.0, 1e10)
    r_schr = schrodinger_evolve(rho0, h, 1.0)
    gap = np.max(np.abs(r_spec - r_schr))
    yield "spectral-unitary-limit", gap <= 1e-6, f"max {gap:.2e}"

    # closed form vs spectral state route
    times = np.linspace(0.0, 6.0, 60)
    x_op = atom_field(SIGMA_X, identity_field(p.dcut))
    prop = SpectralPropagator(h=h, gamma=p.gamma)
    series_state = prop.expectation_series(rho0, x_op, times).real
    series_closed = sigma_x_closed_form(p, times)
    gap = np.max(np.abs(series_state - series_closed))
    yield "closed-form-vs-state-evolution", gap <= 1e-8, f"max {gap:.2e}"


def cmd_validate(args):
    status = EXIT_OK
    for name, ok, detail in _validation_checks():
        print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
        if not ok:
            status = EXIT_VALIDATION
    return status


def build_parser():
    parser = argparse.ArgumentParser(
        prog="milburnsim",
        description="Two-level atom with quantized and classical fields "
                    "under intrinsic decoherence: collapse/revival curves "
                    "of the atomic polarization.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evolve one parameter set to CSV")
    run.add_argument("--config", help="file of key = value lines")
    run.add_argument("--lambda", dest="lam", type=float)
    run.add_argument("--epsilon", type=float)
    run.add_argument("--epsilon-im", dest="epsilon_im", type=float)
    run.add_argument("--delta", type=float)
    run.add_argument("--gamma", type=float)
    run.add_argument("--alpha", type=float)
    run.add_argument("--cutoff", dest="dcut", type=int)
    run.add_argument("--tmax", type=float)
    run.add_argument("--steps", type=int)
    run.add_argument("--method", type=str)
    run.add_argument("--observables", type=str,
                     help="comma-separated subset of "
                          + ",".join(OBSERVABLES))
    run.add_argument("--out", type=str)
    run.set_defaults(func=cmd_run)

    fig1 = sub.add_parser("fig1", help="emit the three reference curves")
    fig1.add_argument("out_dir", nargs="?", default="fig1-data")
    fig1.set_defaults(func=cmd_fig1)

    val = sub.add_parser("validate", help="cross-route consistency battery")
    val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
