"""The benchmark's workloads: the CLI invocations each one makes and the
output check that goes with each invocation.

The seed draws the physical parameters (gamma, epsilon) within fixed
ranges; it never changes a grid size, and it leaves fixed every parameter
that sets the amount of work (the Poisson route's gamma, for one).
``tiny=True`` shrinks every grid for the smoke self-test.
"""

import math
import os
from dataclasses import dataclass, replace
from functools import partial
from typing import Callable

import numpy as np

import checks
from milburnsim.observables import sigma_x_closed_form
from milburnsim.params import SystemParams


@dataclass
class Invocation:
    label: str
    argv: list
    values: int                    # observable values the call writes
    check: Callable[[], float]     # raises CheckFailed, else max deviation
    curves: int = 1                # series CSV files the call writes


def _log_uniform(rng, lo, hi):
    return float(math.exp(rng.uniform(math.log(lo), math.log(hi))))


def _run(label, workdir, method, names, p, tmax, steps, reference, tol,
         sampled=False):
    """A ``run`` invocation whose sigma_x column is compared with
    ``reference(times)`` on the whole grid, or at a few sampled times."""
    out = os.path.join(workdir, f"{label}.csv")
    argv = ["run", "--method", method, "--lambda", repr(p.lam),
            "--epsilon", repr(p.epsilon), "--delta", repr(p.delta),
            "--gamma", repr(p.gamma), "--alpha", repr(p.alpha),
            "--cutoff", str(p.dcut), "--tmax", repr(tmax),
            "--steps", str(steps), "--observables", ",".join(names),
            "--out", out]
    idx = checks.sample_indices(steps) if sampled else slice(None)
    ref = []

    def check():
        cols = checks.read_series(out, names, tmax, steps)
        if not ref:
            ref.append(reference(np.linspace(0.0, tmax, steps)[idx]))
        return checks.compare(out, cols["sigma_x"][idx], ref[0], tol)

    return Invocation(label, argv, steps * len(names), check)


# The reference curves of ``milburnsim fig1``: lambda 1, delta 2,
# alpha 2.5, cutoff 64, 2400 points on [0, 12].
FIG1_SETS = {"a": (0.0, 1e6), "b": (0.5, 1e3), "c": (0.5, 1e6)}


def _fig1(workdir):
    out_dir = os.path.join(workdir, "fig1")
    refs = {}

    def check():
        err = 0.0
        idx = checks.sample_indices(2400)
        for label, (eps, gamma) in FIG1_SETS.items():
            path = os.path.join(out_dir, f"fig1{label}.csv")
            cols = checks.read_series(path, ("sigma_x",), 12.0, 2400)
            if label not in refs:
                p = SystemParams(lam=1.0, epsilon=eps, delta=2.0,
                                 gamma=gamma, alpha=2.5, dcut=64)
                refs[label] = checks.milburn_state(
                    p, np.linspace(0.0, 12.0, 2400)[idx])
            err = max(err, checks.compare(path, cols["sigma_x"][idx],
                                          refs[label], 1e-8))
        path = os.path.join(out_dir, "fig1_metrics.csv")
        with open(path) as f:
            rows = [line.rstrip("\n").split(",") for line in f]
        if rows[0] != ["series", "revival_peak", "revival_time",
                       "collapse_floor"] or len(rows) != 4:
            raise checks.CheckFailed(f"{path}: unexpected layout")
        for row in rows[1:]:
            vals = np.array([float(v) for v in row[1:]])
            if not np.all(np.isfinite(vals)) or np.any(
                    np.abs(vals[[0, 2]]) > 1 + checks.BOUND_TOL):
                raise checks.CheckFailed(f"{path}: bad metrics row {row}")
        return err

    return Invocation("fig1", ["fig1", out_dir], 3 * 2400, check, curves=3)


def eigen_curves(rng, workdir, tiny=False):
    """Two default-grid curves through the eigendecomposition routes: the
    dispersive Hamiltonian (sparse eigenbasis weights) and the full
    interaction Hamiltonian (dense ones)."""
    cut, alpha, steps = (16, 1.0, 24) if tiny else (64, 2.5, 1200)
    fig1b = SystemParams(lam=1.0, epsilon=float(rng.uniform(0.4, 0.6)),
                         delta=2.0, gamma=_log_uniform(rng, 5e2, 2e3),
                         alpha=alpha, dcut=cut)
    # gamma this large keeps Milburn's factor within ~1e-7 of the unitary
    # one over the populated eigenfrequencies, so a dense expm is a reference
    oracle = SystemParams(lam=1.0, epsilon=0.0, delta=20.0,
                          gamma=_log_uniform(rng, 1e11, 1e12),
                          alpha=alpha, dcut=cut)
    return [
        _run("spectral", workdir, "spectral", ("sigma_x", "sigma_z", "purity"),
             fig1b, 12.0, steps, partial(sigma_x_closed_form, fig1b), 1e-9),
        _run("full-oracle", workdir, "full-oracle", ("sigma_x",), oracle,
             80.0, steps, partial(checks.unitary_dense, oracle), 1e-6,
             sampled=True),
    ]


def closed_form_sweep(rng, workdir, tiny=False):
    """``fig1`` plus a gamma x epsilon sweep of closed-form curves on a
    long, fine grid: no eigendecomposition, heavy on CSV output."""
    cut, alpha, steps = (16, 1.0, 240) if tiny else (64, 2.5, 24000)
    invocations = [_fig1(workdir)]
    for i in range(4):
        gamma = _log_uniform(rng, 10.0 ** (2 + i), 10.0 ** (3 + i))
        for j in range(3):
            eps = float(rng.uniform(0.1 + 0.3 * j, 0.3 + 0.3 * j))
            p = SystemParams(lam=1.0, epsilon=eps, delta=2.0, gamma=gamma,
                             alpha=alpha, dcut=cut)
            invocations.append(_run(
                f"closed-form-{i}{j}", workdir, "closed-form", ("sigma_x",),
                p, 48.0, steps, partial(checks.milburn_state, p), 1e-8,
                sampled=True))
    return invocations


def oracle_routes(rng, workdir, tiny=False):
    """The state-level routes on a reduced grid: repeated Poisson kicks,
    one expm per point, and RK4 on the first-order master equation."""
    cut, alpha = (16, 1.0) if tiny else (64, 2.5)
    steps = (4, 8, 3) if tiny else (40, 200, 5)
    eps = [float(e) for e in rng.uniform(0.4, 0.6, size=3)]
    base = SystemParams(lam=1.0, delta=2.0, alpha=alpha, dcut=cut)
    # the kick count grows with gamma, so the Poisson route's gamma is fixed
    poisson = replace(base, epsilon=eps[0], gamma=50.0)
    unitary = replace(base, epsilon=eps[1], gamma=1e12)
    lindblad = replace(base, epsilon=eps[2],
                       gamma=_log_uniform(rng, 5e2, 2e3))
    return [
        _run("poisson", workdir, "poisson", ("sigma_x",), poisson, 2.0,
             steps[0], partial(sigma_x_closed_form, poisson), 1e-8),
        _run("schrodinger", workdir, "schrodinger", ("sigma_x",), unitary,
             2.0, steps[1], partial(sigma_x_closed_form, unitary), 1e-8),
        # first-order master equation against the exact closed form: the
        # gap is the omega^3 t / gamma^2 term the expansion drops
        _run("lindblad", workdir, "lindblad", ("sigma_x",), lindblad, 0.1,
             steps[2], partial(sigma_x_closed_form, lindblad), 1e-4),
    ]


WORKLOADS = {
    "eigen-curves": eigen_curves,
    "closed-form-sweep": closed_form_sweep,
    "oracle-routes": oracle_routes,
}
