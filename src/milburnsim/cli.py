"""Command-line front end.

Subcommands:
  run       evolve one parameter set and write a CSV time series
  fig1      emit the three reference collapse/revival curves
  validate  cross-route battery and Hamiltonian gaps at reduced sizes

Exit codes, all set in main: 0 success, 2 invalid configuration or
unwritable output, 3 numerical guard violated, 4 validation mismatch.
"""

import argparse
import functools
import math
import os
import sys
import warnings
from dataclasses import dataclass, replace

import numpy as np

from . import dynamics
from .dynamics import (
    SpectralPropagator,
    block_propagators,
    eigenbasis_series,
    first_order_factor,
    kick_count_factor,
    milburn_factor,
    milburn_poisson_evolve,
    schrodinger_evolve,
    unitary_factor,
)
from .fock import (
    SIGMA_X,
    SIGMA_Z,
    CutoffTooSmallError,
    matrix_exponential,
)
from .hamiltonians import (
    compare_operators, effective_core_blocks, effective_hamiltonian,
    effective_hamiltonian_displaced, interaction_hamiltonian,
    small_rotation_exact, small_rotation_first_order)
from .observables import (
    block_eigenbasis, closed_form_series, initial_density, initial_state,
    revival_metrics, sigma_x_closed_form, state_expectation)
from .params import SystemParams, derived_params

# Each method's eigenbasis (None: the 2x2 photon-number blocks, else the
# Hamiltonian to diagonalise) and its factor F(omega, t, gamma) per pair.
METHODS = {
    "closed-form": (None, milburn_factor),
    "spectral": (effective_hamiltonian_displaced, milburn_factor),
    "poisson": (None, kick_count_factor),
    "lindblad": (None, first_order_factor),
    "schrodinger": (None, unitary_factor),
    "full-oracle": (interaction_hamiltonian, milburn_factor),
}
# Each observable's atom operator; None is the purity.
ATOM_OPERATORS = {"sigma_x": SIGMA_X, "sigma_z": SIGMA_Z, "purity": None}
OBSERVABLES = tuple(ATOM_OPERATORS)

# Every run setting: flag name (without --) and config key, RunConfig
# field (epsilon_im is folded into epsilon) and type.
RUN_SETTINGS = {
    "lambda": ("lam", float),
    "epsilon": ("epsilon", float),
    "epsilon-im": ("epsilon_im", float),
    "delta": ("delta", float),
    "gamma": ("gamma", float),
    "alpha": ("alpha", float),
    "cutoff": ("dcut", int),
    "tmax": ("tmax", float),
    "steps": ("steps", int),
    "method": ("method", str),
    "observables": ("observables", str),
    "out": ("out", str),
}

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_GUARD = 3
EXIT_VALIDATION = 4


class ConfigError(ValueError):
    pass


@dataclass(frozen=True)
class RunConfig(SystemParams):
    """The physical parameters plus the time grid, method, observables
    and output path of one run."""

    tmax: float = 12.0
    steps: int = 1200
    method: str = "closed-form"
    observables: tuple = ("sigma_x",)
    out: str = "series.csv"

    def __post_init__(self):
        if self.method not in METHODS:
            raise ConfigError(
                f"unknown method {self.method!r}; choose from {', '.join(METHODS)}")
        bad = [o for o in self.observables if o not in OBSERVABLES]
        if bad:
            raise ConfigError(
                f"unknown observables {bad}; choose from {', '.join(OBSERVABLES)}")
        if not self.observables:
            raise ConfigError(
                f"no observables given; choose from {', '.join(OBSERVABLES)}")
        if len(set(self.observables)) < len(self.observables):
            raise ConfigError(
                f"repeated observables in {','.join(self.observables)}")
        if not (math.isfinite(self.tmax) and self.tmax > 0):
            raise ConfigError(f"tmax must be positive and finite, got {self.tmax}")
        if self.steps < 2:
            raise ConfigError(f"steps must be >= 2, got {self.steps}")
        super().__post_init__()


def _parse_config_file(path):
    """key = value lines; blank lines and #-comments ignored."""
    values = {}
    try:
        with open(path, encoding="utf-8") as f:
            for lineno, raw in enumerate(f, 1):
                line = raw.split("#", 1)[0].strip()
                if not line:
                    continue
                if "=" not in line:
                    raise ConfigError(f"{path}:{lineno}: expected key = value")
                key, _, val = line.partition("=")
                values[key.strip()] = val.strip()
    except (OSError, UnicodeDecodeError) as e:
        raise ConfigError(f"cannot read config file {path}: {e}")
    return values


def build_run_config(args) -> RunConfig:
    """Defaults < config file < command-line flags."""
    merged = {}
    if args.config:
        for key, raw in _parse_config_file(args.config).items():
            if key not in RUN_SETTINGS:
                raise ConfigError(f"unknown config key {key!r}")
            name, kind = RUN_SETTINGS[key]
            try:
                merged[name] = kind(raw)
            except ValueError as e:
                raise ConfigError(f"config key {key}: {e}")
    flags = vars(args)
    for name, _ in RUN_SETTINGS.values():
        if flags.get(name) is not None:
            merged[name] = flags[name]

    eps_im = merged.pop("epsilon_im", 0.0)
    if eps_im:
        merged["epsilon"] = (complex(merged.get("epsilon", RunConfig.epsilon))
                             + 1j * eps_im)
    if "observables" in merged:
        merged["observables"] = tuple(
            s.strip() for s in merged["observables"].split(",") if s.strip())
    try:
        return RunConfig(**merged)
    except ValueError as e:
        raise ConfigError(str(e))


def compute_series(cfg: RunConfig):
    """Evaluate the configured observables on the time grid.

    Returns (times, columns) with one column per observable.
    """
    # numpy refuses an array of more than intp max bytes with a ValueError;
    # the dense routes build (2 cutoff)^2 matrices, H and its eigenvectors,
    # complex at a complex drive; the block routes' arrays end at the
    # state's last nonzero photon weight, whatever the cutoff
    hamiltonian, factor = METHODS[cfg.method]
    sizes = [("steps", cfg.steps, 8 * cfg.steps)]
    if hamiltonian:
        sizes.append(("cutoff", cfg.dcut, 16 * (2 * cfg.dcut) ** 2))
    for flag, count, size in sizes:
        if size > np.iinfo(np.intp).max:
            raise MemoryError(f"--{flag} {count} needs an array of {size} "
                              "bytes, more than numpy can size")
    times = np.linspace(0.0, cfg.tmax, cfg.steps)
    if cfg.method == "closed-form" and cfg.observables == ("sigma_x",):
        return times, [sigma_x_closed_form(cfg, times)]  # fig1's binding
    basis = (block_eigenbasis(cfg) if hamiltonian is None else
             SpectralPropagator(hamiltonian(cfg)).eigenbasis(
                 initial_state(cfg)))
    ops = [ATOM_OPERATORS[name] for name in cfg.observables]
    return times, eigenbasis_series(*basis, ops, times, factor, cfg.gamma)


def _write_atomic(path, chunks):
    """Write the byte strings of chunks to a new file beside path, then
    rename it onto path, so that a failure leaves path as it was.  A
    failure to create or rename the temporary file is reported against
    path."""
    tmp = os.path.join(os.path.dirname(path),
                       f".{os.path.basename(path)}.{os.urandom(6).hex()}.tmp")
    try:
        f = open(tmp, "xb")
        try:
            with f:
                for chunk in chunks:
                    f.write(chunk)
            os.replace(tmp, path)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as e:
        if e.filename != tmp:
            raise
        raise OSError(e.errno, e.strerror, os.fspath(path)) from e


# _format_fixed lays each value out in '<u4' words: a lead word (NUL pad,
# '-' where the sign bit is set, then the top 0 to 3 integer digits),
# g = 0..4 further 4-digit integer groups, four words of '.' and the 15
# fraction digits, and a separator word (',' or LF, then NUL pad).  The
# block's largest integer part, after rounding, sets g.  A value narrower
# than that slot has its leading zeros set to NUL, and every NUL is
# dropped.  _DIGITS4[k] holds the 4 ASCII digits of k, the first in the
# low byte; _LEAD[k + 1000 * signbit] is the lead word of top digits k.
_PAIRS = np.arange(100) // 10 + 48 | (np.arange(100) % 10 + 48) << 8
_DIGITS4 = (_PAIRS[:, None] | _PAIRS << 16).ravel().astype("<u4")
_LEAD = np.frombuffer(b"".join((sign + str(k)).encode().rjust(4, b"\0")
                               for sign in ("", "-") for k in range(1000)),
                      dtype="<u4")
_WIDER = 10.0 ** np.arange(3, 16, 4)  # the least integer parts of g = 1..4
_SPLIT = 2.0**27 + 1.0  # Veltkamp's splitter for binary64
_E15_HI = _SPLIT * 1e15 - (_SPLIT * 1e15 - 1e15)
_E15_LO = 1e15 - _E15_HI
CSV_BLOCK = 2**13  # values write_csv formats at once


def _format_fixed(block, row):
    """The bytes (a buffer) of (row * len(block)) % tuple(block.ravel()),
    for a 2-D block and a row template of '%.15f' fields, ',' between them
    and LF after: each value rounded half-even on its exact binary value, '-'
    where the sign bit is set.  The integer slot of every value is as wide
    as the block's largest integer part needs.  A block holding a
    non-finite value or one of modulus 2^52 or more goes to `%` itself."""
    a = np.abs(block)
    if not a.max() < 2.0**52:
        return ((row * len(block)) % tuple(block.ravel().tolist())).encode()
    whole = np.floor(a)
    f = np.subtract(a, whole, out=a)
    p = f * 1e15
    n = np.rint(p)
    p -= n  # rint's rounding error, exact
    # f * 1e15 = fl(f * 1e15) + e exactly (Dekker's product); rint errs
    # only at a tie (an error of +-0.5) where e has the error's sign
    tie = np.flatnonzero(np.abs(p) == 0.5)
    if tie.size:
        f, half = f.flat[tie], p.flat[tie]
        fh = _SPLIT * f - (_SPLIT * f - f)
        fl = f - fh
        e = (((fh * _E15_HI - f * 1e15) + fh * _E15_LO + fl * _E15_HI)
             + fl * _E15_LO)
        n.flat[tie] += np.where(half * e > 0, 2 * half, 0.0)
    del a, f, p  # the peak memory is that of the layout below
    carry = np.flatnonzero(n == 1e15)
    whole.flat[carry] += 1.0
    n.flat[carry] = 0.0
    g = int(np.searchsorted(_WIDER, whole.max(), side="right"))
    words = np.empty(block.shape + (6 + g,), dtype="<u4")
    _put_groups(words, range(-5, -1), n.astype(np.int64))
    words[..., -5] -= 2  # the fraction's leading '0' (it is below 1000) to '.'
    top = _put_groups(words, range(1, g + 1), whole.astype(np.int64))
    words[..., 0] = _LEAD[top + 1000 * np.signbit(block)]
    words[..., -1] = ord(",")
    words[:, -1, -1] = ord("\n")
    text = words.view(np.uint8).reshape(block.shape + (-1,))
    if g:  # the lead's '0' and the groups' leading zeros to NUL
        text[..., 3:4 + 4 * g] *= whole[..., None] >= np.append(
            10.0 ** np.arange(4 * g, 0, -1), 0.0)
    del whole, n, top
    return text[text != 0]


def _put_groups(words, columns, x):
    """Write the int64 x's 4-digit groups, last first, to the word columns
    and return what is left of x."""
    for k in reversed(columns):
        q = x // 10000
        words[..., k] = _DIGITS4[x - 10000 * q]
        x = q
    return x


def write_csv(path, times, columns, names, header_comments=()):
    """Fixed-precision, LF-terminated CSV; byte-stable for a given input.

    Every value is written as '%.15f' writes it, by _format_fixed, in
    blocks of at most CSV_BLOCK values (the writer's own block, not the
    series kernel's), each stacked from slices of times and the columns;
    a block's values take 24 bytes of layout, 4 more for each further 4
    integer digits its largest value needs.  The file is written
    atomically.  The writer holds no copy of the table, so a run's memory
    is its output arrays.
    """
    columns = [times, *columns]
    row = ",".join(["%.15f"] * len(columns)) + "\n"
    rows = max(1, CSV_BLOCK // len(columns))

    def chunks():
        for line in header_comments:
            yield f"# {line}\n".encode()
        yield ("t," + ",".join(names) + "\n").encode()
        for start in range(0, len(times), rows):
            yield _format_fixed(np.column_stack(
                [col[start:start + rows] for col in columns]), row)

    _write_atomic(path, chunks())


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
    cfg = build_run_config(args)
    # overflow shows up as non-finite values, refused below
    with np.errstate(over="ignore", invalid="ignore"):
        times, cols = compute_series(cfg)
    if not all(np.isfinite(col).all() for col in cols):
        raise FloatingPointError("the computed series has non-finite values")
    write_csv(cfg.out, times, cols, cfg.observables, _config_comments(cfg))
    return EXIT_OK


FIG1_SETS = {
    "a": dict(epsilon=0.0, gamma=1e6),
    "b": dict(epsilon=0.5, gamma=1e3),
    "c": dict(epsilon=0.5, gamma=1e6),
}
FIG1_COLLAPSE_WINDOW = (1.5, 2.5)
FIG1_REVIVAL_WINDOW = (2.9, 3.4)


def cmd_fig1(args):
    """The three reference curves and their metrics sidecar."""
    os.makedirs(args.out_dir, exist_ok=True)
    times = np.linspace(0.0, 12.0, 2400)
    metrics_rows = []
    for label, overrides in FIG1_SETS.items():
        p = SystemParams(lam=1.0, delta=2.0, alpha=2.5, dcut=64, **overrides)
        values = sigma_x_closed_form(p, times)
        path = os.path.join(args.out_dir, f"fig1{label}.csv")
        write_csv(path, times, [values], ("sigma_x",), [
            "milburnsim reference curve " + label,
            f"epsilon = {overrides['epsilon']:g}, gamma = {overrides['gamma']:g}",
            "lambda = 1, delta = 2, alpha = 2.5, cutoff = 64, "
            "method = closed-form",
        ])
        m = revival_metrics(times, values, FIG1_COLLAPSE_WINDOW,
                            FIG1_REVIVAL_WINDOW)
        metrics_rows.append((label, m))
        print(f"wrote {path}")

    metrics_path = os.path.join(args.out_dir, "fig1_metrics.csv")
    _write_atomic(metrics_path, [
        b"series,revival_peak,revival_time,collapse_floor\n",
        *(f"{label},{m.revival_peak:.15f},{m.revival_time:.15f},"
          f"{m.collapse_floor:.15f}\n".encode() for label, m in metrics_rows)])
    print(f"wrote {metrics_path}")
    return EXIT_OK


def _validation_checks(p):
    """Reduced-size cross-route battery at p.  Yields (name, ok, detail)."""
    # analytic block vs 2x2 exponential
    blocks = effective_core_blocks(p)
    worst = max(np.max(np.abs(block_propagators(t, p)[n]
                              - matrix_exponential(-1j * t * blocks[n])))
                for n in (0, 1, 3) for t in (0.3, 1.0))
    yield "propagator-block-vs-exponential", worst <= 1e-10, f"max {worst:.2e}"

    # assembled propagator vs dense exponential of the displaced Hamiltonian
    h = effective_hamiltonian_displaced(p)
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
    ra = milburn_poisson_evolve(rho0, h_small, 1.0, 50.0)
    rb = SpectralPropagator(h_small).evolve(rho0, 1.0, 50.0)
    gap = np.max(np.abs(ra - rb))
    yield "poisson-vs-spectral", gap <= 1e-9, f"max {gap:.2e}"

    # unitary limit of the spectral route
    r_spec = SpectralPropagator(h).evolve(rho0, 1.0, 1e10)
    r_schr = schrodinger_evolve(rho0, h, 1.0)
    gap = np.max(np.abs(r_spec - r_schr))
    yield "spectral-unitary-limit", gap <= 1e-6, f"max {gap:.2e}"

    # closed form vs per-point spectral state evolution, which shares
    # no series code with the closed form, at a complex drive
    p_c = replace(p, epsilon=0.5 + 0.3j)
    prop = SpectralPropagator(effective_hamiltonian_displaced(p_c))
    times = np.linspace(0.0, 6.0, 60)
    states = [prop.evolve(rho0, t, p_c.gamma) for t in times]
    gap = max(np.max(np.abs([state_expectation(rho, op) for rho in states]
                            - closed_form_series(p_c, op, times)))
              for op in ATOM_OPERATORS.values())
    yield "closed-form-vs-state-evolution", gap <= 1e-8, f"max {gap:.2e}"


def _rotation_gaps(p):
    """Max |difference| on the top-left 8x8 block between the expanded
    dispersive Hamiltonian, the exactly and the first-order rotated
    interaction Hamiltonian, and the displaced core form that every
    route uses.  Yields (name, gap).

    The expanded form carries the coefficients 2 lam^2/delta and
    2 lam/delta, where a direct first-order commutator calculation gives
    half of them plus a term proportional to the identity.  The gaps are
    reported, not resolved, and never set the exit code."""
    eta = derived_params(p).eta
    h_int = interaction_hamiltonian(p)
    expanded = effective_hamiltonian(p)
    displaced = effective_hamiltonian_displaced(p)
    exact = small_rotation_exact(h_int, eta)
    first_order = small_rotation_first_order(h_int, eta)
    for name, a, b in (
            ("expanded-vs-first-order-rotation", expanded, first_order),
            ("expanded-vs-exact-rotation", expanded, exact),
            ("expanded-vs-displaced-core", expanded, displaced),
            ("exact-vs-first-order-rotation", exact, first_order),
            ("displaced-core-vs-exact-rotation", displaced, exact)):
        yield name, compare_operators(a, b, 8)


def cmd_validate(args):
    p = SystemParams(lam=1.0, epsilon=0.5, delta=2.0, gamma=1e3,
                     alpha=1.0, dcut=16)
    status = EXIT_OK
    for name, ok, detail in _validation_checks(p):
        print(f"{'PASS' if ok else 'FAIL'} {name} ({detail})")
        if not ok:
            status = EXIT_VALIDATION
    for name, gap in _rotation_gaps(p):
        print(f"GAP {name} (max {gap:.6f})")
    return status


@functools.cache  # one per process; parse_args returns a fresh Namespace
def build_parser():
    parser = argparse.ArgumentParser(
        prog="milburnsim",
        description="Two-level atom with quantized and classical fields "
                    "under intrinsic decoherence: collapse/revival curves "
                    "of the atomic polarization.")
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="evolve one parameter set to CSV")
    run.add_argument("--config", help="file of key = value lines")
    for key, (name, kind) in RUN_SETTINGS.items():
        run.add_argument(f"--{key}", dest=name, type=kind, help=(
            "comma-separated subset of " + ",".join(OBSERVABLES)
            if key == "observables" else None))
    run.set_defaults(func=cmd_run)

    fig1 = sub.add_parser("fig1", help="emit the three reference curves")
    fig1.add_argument("out_dir", nargs="?", default="fig1-data")
    fig1.set_defaults(func=cmd_fig1)

    val = sub.add_parser("validate", help="cross-route consistency battery")
    val.set_defaults(func=cmd_validate)
    return parser


def main(argv=None):
    """Run one subcommand; the only place a failure becomes an exit code
    and a stderr line.  Warnings that pass the active filters are
    printed once per distinct message."""
    args = build_parser().parse_args(argv)
    with warnings.catch_warnings(record=True) as caught:
        try:
            code, failure = args.func(args), None
        except (ConfigError, OSError) as e:
            code, failure = EXIT_CONFIG, f"error: {e}"
        except (CutoffTooSmallError, FloatingPointError, MemoryError) as e:
            reason = str(e) or type(e).__name__  # a bare MemoryError
            code, failure = EXIT_GUARD, f"numerical guard: {reason}"
    for message in dict.fromkeys(str(w.message) for w in caught):
        print(f"warning: {message}", file=sys.stderr)
    if failure:
        print(failure, file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
