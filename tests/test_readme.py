"""README.md quotes constants and exit codes of the code; they must agree."""
import pathlib
import re

from milburnsim import cli, dynamics, fock, params

README = (pathlib.Path(__file__).parents[1] / "README.md").read_text()


def _number(text):
    if "^" in text:
        base, power = text.split("^")
        return int(base) ** int(power)
    return float(text)


def test_quoted_constants_match_the_code():
    # every `NAME = value` (or `module.NAME = value`) with a numeric value
    quoted = re.findall(r"`(?:\w+\.)?([A-Z][A-Z0-9_]+) = ([0-9][0-9_.e^+-]*)`",
                        README)
    assert {name for name, _ in quoted} >= {
        "PAIR_BUDGET", "COHERENT_TAIL_TOL", "POISSON_MAX_TERMS",
        "DROP_BUDGET", "PHASE_TOL", "DISPERSIVE_RATIO"}
    for name, value in quoted:
        module = next(m for m in (dynamics, fock, params, cli)
                      if hasattr(m, name))
        assert getattr(module, name) == _number(value), name


def test_exit_code_table_matches_the_code():
    rows = dict(re.findall(r"^\| (\d+) \|(.*)$", README, re.MULTILINE))
    assert sorted(map(int, rows)) == sorted(
        (cli.EXIT_OK, cli.EXIT_CONFIG, cli.EXIT_GUARD, cli.EXIT_VALIDATION))
    assert "success" in rows[str(cli.EXIT_OK)]
    assert "`error: ...`" in rows[str(cli.EXIT_CONFIG)]
    assert "`numerical guard: ...`" in rows[str(cli.EXIT_GUARD)]
    assert "`validate`" in rows[str(cli.EXIT_VALIDATION)]
