"""README.md states the CLI contract: the names, constants and reference
values it quotes must agree with the code, and its CLI examples must run."""
import dataclasses
import functools
import importlib
import pathlib
import pkgutil
import re
import shlex

import milburnsim
from milburnsim import cli, dynamics, fock, params
from milburnsim.params import SystemParams

README = (pathlib.Path(__file__).parents[1] / "README.md").read_text()


def _section(title):
    """README's text under the heading ``title``, up to the next heading of
    its level or above (``#`` lines inside code fences are not headings)."""
    lines, level, fenced = [], None, False
    for line in README.splitlines():
        fenced ^= line.startswith("```")
        heading = None if fenced else re.match(r"(#+) (.*)", line)
        if heading and level is not None and len(heading[1]) <= level:
            break
        if level is not None:
            lines.append(line)
        elif heading and heading[2] == title:
            level = len(heading[1])
    assert level is not None, f"no section {title!r}"
    return "\n".join(lines)


def _table(text):
    """The body rows of the first table in text, as lists of cells."""
    table = re.search(r"^\|.*?(?=^[^|]|\Z)", text, re.MULTILINE | re.DOTALL)[0]
    return [[cell.strip().replace("\\|", "|") for cell in
             re.split(r"(?<!\\)\|", line)[1:-1]]
            for line in table.splitlines()[2:]]


def _code(cell):
    return cell.strip("`")


def _number(text):
    if "^" in text:
        base, power = text.split("^")
        return int(base) ** int(power)
    if text.startswith("("):
        return tuple(map(float, text.strip("()").split(",")))
    return float(text)


def test_quoted_constants_match_the_code():
    # every `NAME = value` (or `module.NAME = value`) with a numeric value
    # or a tuple of them
    quoted = re.findall(
        r"`(?:\w+\.)?([A-Z][A-Z0-9_]+) = ([0-9(][0-9_.e^+, -]*\)?)`", README)
    assert {name for name, _ in quoted} >= {
        "PAIR_BUDGET", "COHERENT_TAIL_TOL", "POISSON_MAX_TERMS",
        "DROP_BUDGET", "PHASE_TOL", "DISPERSIVE_RATIO", "HERMITIAN_TOL",
        "CSV_BLOCK", "FIG1_COLLAPSE_WINDOW", "FIG1_REVIVAL_WINDOW"}
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


FACTOR_WORDS = {dynamics.milburn_factor: "Milburn's",
                dynamics.kick_count_factor: "kick sum",
                dynamics.first_order_factor: "first order",
                dynamics.unitary_factor: "unitary"}


def test_route_table_matches_methods():
    rows = _table(_section("Routes"))
    assert [_code(row[0]) for row in rows] == list(cli.METHODS)
    p = SystemParams(alpha=0.5, dcut=16)
    for (method, basis, factor, _), (hamiltonian, f) in zip(
            rows, cli.METHODS.values()):
        if hamiltonian is None:
            assert basis == "2×2 blocks", method
        else:
            svd = dynamics.interaction_eigh(hamiltonian(p)) is not None
            assert ("SVD" if svd else "dense `eigh`") in basis, method
        assert factor.startswith(FACTOR_WORDS[f]), method


def test_flag_table_matches_run_settings():
    rows = _table(_section("`run`"))
    assert [_code(row[0]) for row in rows] == [
        f"--{key}" for key in cli.RUN_SETTINGS] + ["--config"]
    # epsilon-im has no field of its own: it is folded into epsilon
    defaults = {f.name: f.default for f in dataclasses.fields(cli.RunConfig)}
    defaults["epsilon_im"] = 0.0
    for (flag, default, _), (name, kind) in zip(rows,
                                                cli.RUN_SETTINGS.values()):
        value = kind(_code(default))
        if name == "observables":
            value = tuple(value.split(","))
        assert value == defaults[name], flag
    assert rows[-1][1] == ""


def test_observables_match_the_code():
    row, = (row for row in _table(_section("`run`"))
            if row[0] == "`--observables`")
    listed = re.findall(r"`(\w+)`", row[2].partition("from")[2])
    assert tuple(listed) == cli.OBSERVABLES


def test_module_lines_name_what_each_module_defines():
    lines = re.findall(r"^- `milburnsim\.(\w+)` — (.*?)(?=^- |\Z)",
                       _section("Modules"), re.MULTILINE | re.DOTALL)
    assert {name for name, _ in lines} == {
        m.name for m in pkgutil.iter_modules(milburnsim.__path__)
    } - {"__main__"}
    for name, text in lines:
        module = importlib.import_module(f"milburnsim.{name}")
        for quoted in re.findall(r"`([A-Za-z_][\w.]*)`", text):
            assert functools.reduce(getattr, quoted.split("."), module), quoted


def test_validate_lines_match_its_output(capsys):
    listed = [tuple(_code(row[0]).split()) for row in
              _table(_section("`validate`"))]
    assert cli.main(["validate"]) == cli.EXIT_OK
    printed = [tuple(line.split()[:2])
               for line in capsys.readouterr().out.splitlines()]
    assert listed == printed


def test_fig1_reference_sets_match_the_code(tmp_path, monkeypatch):
    text = " ".join(_section("`fig1`").split())
    fixed = dict(re.findall(r"`(lambda|delta|alpha|cutoff) = ([^`]+)`", text))
    sets = re.findall(r"\((\w)\) `epsilon = ([^,]+), gamma = ([^`]+)`", text)
    count, t0, t1 = re.search(r"(\d+) times on `\[(\S+), (\S+)\]`",
                              text).groups()
    assert {label: dict(epsilon=float(eps), gamma=float(gamma))
            for label, eps, gamma in sets} == cli.FIG1_SETS

    calls = []

    def recorded(p, t, closed_form=cli.sigma_x_closed_form):
        calls.append((p, t))
        return closed_form(p, t)

    monkeypatch.setattr(cli, "sigma_x_closed_form", recorded)
    assert cli.main(["fig1", str(tmp_path)]) == cli.EXIT_OK
    assert [(p.epsilon, p.gamma) for p, _ in calls] == [
        (float(eps), float(gamma)) for _, eps, gamma in sets]
    for p, t in calls:
        assert (p.lam, p.delta, p.alpha, p.dcut) == (
            float(fixed["lambda"]), float(fixed["delta"]),
            float(fixed["alpha"]), int(fixed["cutoff"]))
        assert (len(t), t[0], t[-1]) == (int(count), float(t0), float(t1))
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        re.findall(r"`(\w+\.csv)`", text))


def test_cli_examples_run(tmp_path, monkeypatch):
    block = re.search(r"```sh\n(.*?)```", _section("CLI"), re.DOTALL)[1]
    commands = [shlex.split(line) for line in
                block.replace("\\\n", " ").splitlines()
                if line.strip() and not line.startswith("#")]
    assert [argv[:2] for argv in commands] == [
        ["milburnsim", "run"], ["milburnsim", "fig1"],
        ["milburnsim", "validate"]]
    monkeypatch.chdir(tmp_path)
    for argv in commands:
        assert cli.main(argv[1:]) == cli.EXIT_OK, argv
        for named in (a for a in argv if a.endswith((".csv", "/"))):
            path = tmp_path / named
            assert (any(path.iterdir()) if named.endswith("/")
                    else path.is_file()), named
