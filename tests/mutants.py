"""The mutation battery: small faults in src/, each of which the tier-1
suite must catch.

    python tests/mutants.py [NAME ...]

For each mutant (all, or those named) the runner copies the files that
git tracks to a temporary directory, replaces the mutant's old text (which
must occur exactly once in its file) by its new text, and runs tier-1
there with -x.  It prints the first test that fails, or SURVIVED, and
exits 1 if any mutant survived.  tests/test_mutants.py, which checks that
every old text still occurs once, is deselected in the mutated copies.

Its name does not start with test_, so tier-1 does not collect it.
"""
import os
import pathlib
import shutil
import subprocess
import sys
import tempfile
import time

ROOT = pathlib.Path(__file__).resolve().parents[1]
TIER1 = ["-m", "pytest", "-q", "--continue-on-collection-errors"]
ROT_GUARD = "tests/test_mutants.py::test_every_old_text_occurs_once"

DYN, FOCK, CLI = (f"src/milburnsim/{name}.py"
                  for name in ("dynamics", "fock", "cli"))
PARAMS = "src/milburnsim/params.py"
GUARDS = "(CutoffTooSmallError, FloatingPointError, MemoryError)"

# (name, file, old text, new text, why)
MUTANTS = [
    # the shared series kernel
    ("fold-factor", DYN, "folded = 2.0 * pairs",
     "folded = 2.0 * (1 + 1e-7) * pairs",
     "the folded pair weights off by 1e-7 relative"),
    ("first-order-rate", DYN, "-omega**2 / (2.0 * gamma), -omega",
     "-omega**2 / (2.02 * gamma), -omega",
     "the first-order factor's damping rate 1% off"),
    ("kick-sum-unnormalized", DYN, "p /= p.sum(axis=1, keepdims=True)",
     "p /= 1.0", "the kick sum's window weights not renormalized"),
    ("phase-guard-off", DYN, "if lost > PHASE_TOL:", "if False:",
     "no refusal of eigenfrequencies that rounding dephases"),
    ("offset-step", DYN, "step = (times[-1] - times[0]) / (n - 1)",
     "step = (times[-1] - times[0]) / (n - 1) * (1 + 1e-12)",
     "the anchor x offset grid step off by 1e-12 relative"),
    ("real-drive-phase", DYN, "else np.where(c < 0, -1.0, 1.0))",
     "else 1.0)", "the 2x2 eigenvector phase +1 at a negative real drive"),
    ("purity-pairs", DYN, "prob[j] * prob[k]",
     "prob[j] * prob[k] * (1 + 1e-9)",
     "the purity's pair weights off by 1e-9 relative"),
    ("drop-budget", DYN, "searchsorted(cumulative, DROP_BUDGET,",
     "searchsorted(cumulative, 1e4 * DROP_BUDGET,",
     "the series kernel drops 1e4 times its weight budget"),
    ("tail-guard-off", FOCK, "if tail > COHERENT_TAIL_TOL:\n        raise",
     "if False:\n        raise", "no refusal of a cutoff the state overflows"),
    ("poisson-window-5-sigma", DYN, "half = 8.0 * math.sqrt(mean + 1.0)",
     "half = 5.0 * math.sqrt(mean + 1.0)",
     "the Poisson window 5 sigma wide, not 8"),
    # each guard's comparison, 10 times looser
    ("coherent-tail-tol", FOCK, "if tail > COHERENT_TAIL_TOL:\n        raise",
     "if tail > 10 * COHERENT_TAIL_TOL:\n        raise",
     "the cutoff's tail mass bound 10x loose"),
    ("poisson-max-terms", DYN, "if terms > POISSON_MAX_TERMS:",
     "if terms > 10 * POISSON_MAX_TERMS:",
     "the Poisson window budget 10x loose"),
    ("phase-tol", DYN, "if lost > PHASE_TOL:", "if lost > 10 * PHASE_TOL:",
     "the rounding phase bound 10x loose"),
    ("pair-budget", DYN, "if count > PAIR_BUDGET:",
     "if count > 10 * PAIR_BUDGET:", "the purity pair budget 10x loose"),
    ("hermitian-tol", DYN, "> HERMITIAN_TOL:", "> 10 * HERMITIAN_TOL:",
     "the Hermiticity bound 10x loose"),
    ("dispersive-ratio", PARAMS, "< DISPERSIVE_RATIO * p.lam:",
     "< 0.1 * DISPERSIVE_RATIO * p.lam:",
     "the dispersive warning 10x less eager"),
    # each factor's exponent
    ("milburn-frequency", DYN, "-gamma * np.sin(x)", "-gamma * x",
     "Milburn's frequency taken to first order in w/gamma"),
    ("first-order-frequency", DYN, "-omega**2 / (2.0 * gamma), -omega",
     "-omega**2 / (2.0 * gamma), omega",
     "the first-order factor conjugated"),
    ("unitary-frequency", DYN, "np.zeros_like(omega), -omega",
     "np.zeros_like(omega), -omega * (1 + 1e-9)",
     "the unitary phase off by 1e-9 relative"),
    # each validate check's threshold, 1e6 times looser
    ("validate-block", CLI, "worst <= 1e-10", "worst <= 1e-4",
     "propagator-block-vs-exponential passes a 1e6x larger gap"),
    ("validate-dense", CLI, '"propagator-vs-dense-exponential", gap <= 1e-7',
     '"propagator-vs-dense-exponential", gap <= 1e-1',
     "propagator-vs-dense-exponential passes a 1e6x larger gap"),
    ("validate-poisson", CLI, '"poisson-vs-spectral", gap <= 1e-9',
     '"poisson-vs-spectral", gap <= 1e-3',
     "poisson-vs-spectral passes a 1e6x larger gap"),
    ("validate-unitary", CLI, '"spectral-unitary-limit", gap <= 1e-6',
     '"spectral-unitary-limit", gap <= 1.0',
     "spectral-unitary-limit passes a 1e6x larger gap"),
    ("validate-closed-form", CLI,
     '"closed-form-vs-state-evolution", gap <= 1e-8',
     '"closed-form-vs-state-evolution", gap <= 1e-2',
     "closed-form-vs-state-evolution passes a 1e6x larger gap"),
    # each exit path of cli.main
    ("exit-config-error", CLI, "except (ConfigError, OSError)",
     "except OSError", "a ConfigError escapes main instead of exit 2"),
    ("exit-os-error", CLI, "except (ConfigError, OSError)",
     "except ConfigError", "an OSError escapes main instead of exit 2"),
    ("exit-cutoff-guard", CLI, GUARDS,
     "(FloatingPointError, MemoryError)",
     "a CutoffTooSmallError escapes main instead of exit 3"),
    ("exit-floating-point-guard", CLI, GUARDS,
     "(CutoffTooSmallError, MemoryError)",
     "a FloatingPointError escapes main instead of exit 3"),
    ("exit-memory-guard", CLI, GUARDS,
     "(CutoffTooSmallError, FloatingPointError)",
     "a MemoryError escapes main instead of exit 3"),
    ("exit-validation", CLI, "status = EXIT_VALIDATION", "status = EXIT_OK",
     "a failed validate check exits 0"),
    ("warning-repeated", CLI,
     "for message in dict.fromkeys(str(w.message) for w in caught):",
     "for message in [str(w.message) for w in caught]:",
     "a warning line per warning, not per distinct message"),
    ("warning-dropped", CLI, 'print(f"warning: {message}", file=sys.stderr)',
     "pass", "no warning line"),
    # the rest of the contract
    ("prune-tie-order", DYN, "drop[ties[:n_drop",
     "drop[ties[::-1][:n_drop",
     "ties at the prune's cut drop the highest indices first"),
    ("stirling-terms", FOCK, "r * (1 / 1260 - r / 1680)", "r * 0.0",
     "ln m! without the Stirling series' 1/x^5 and 1/x^7 terms"),
    ("csv-tie-rounding", CLI,
     "n.flat[tie] += np.where(half * e > 0, 2 * half, 0.0)",
     "n.flat[tie] += 0.0", "CSV ties rounded without the product's low part"),
    ("atomic-write-leftover", CLI, "os.unlink(tmp)", "pass",
     "a failed write leaves its temporary file"),
    ("poisson-evolve-unnormalized", DYN, "weights /= weights.sum()",
     "weights /= 1.0", "the kick-sum reference route not renormalized"),
    ("array-size-guard-off", CLI, "if size > np.iinfo(np.intp).max:",
     "if False:", "no refusal of an array numpy cannot size"),
    ("non-finite-series-guard-off", CLI,
     "if not all(np.isfinite(col).all() for col in cols):", "if False:",
     "a non-finite series is written"),
    ("extension-label-everywhere", CLI, 'if cfg.method == "full-oracle":',
     "if True:", "every method's CSV claims the extension mode"),
]


def run_mutant(name, file, old, new):
    """Tier-1 on a mutated copy: the first failing test id, or None."""
    files = subprocess.run(["git", "ls-files", "-z"], cwd=ROOT, check=True,
                           capture_output=True, text=True).stdout.split("\0")
    with tempfile.TemporaryDirectory(prefix=f"mutant-{name}-") as tmp:
        for rel in filter(None, files):
            (pathlib.Path(tmp) / rel).parent.mkdir(parents=True, exist_ok=True)
            shutil.copy2(ROOT / rel, pathlib.Path(tmp) / rel)
        path = pathlib.Path(tmp) / file
        text = path.read_text()
        if text.count(old) != 1:
            sys.exit(f"{name}: the old text is not in {file} exactly once")
        path.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, ["src", os.environ.get("PYTHONPATH")])))
        proc = subprocess.run(
            [sys.executable, *TIER1, "-x", "-p", "no:cacheprovider",
             "-rfE", "--deselect", ROT_GUARD],
            cwd=tmp, env=env, capture_output=True, text=True)
    if proc.returncode == 0:
        return None
    failed = [line.split()[1] for line in proc.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    return failed[0] if failed else f"pytest exit {proc.returncode}"


def main(names):
    unknown = set(names) - {m[0] for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutants: {', '.join(sorted(unknown))}")
    survived = 0
    for name, file, old, new, why in MUTANTS:
        if names and name not in names:
            continue
        start = time.perf_counter()
        killer = run_mutant(name, file, old, new)
        survived += killer is None
        print(f"{name:28} {killer or 'SURVIVED'}  "
              f"({time.perf_counter() - start:.0f} s; {why})", flush=True)
    return 1 if survived else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
