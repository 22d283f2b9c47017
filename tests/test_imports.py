"""What each CLI command loads, each case in a fresh interpreter.

A process runs one command, so loading only that command's engine is what
keeps start-up short.  The probe records the modules loaded after the
interpreter started, so whatever the site set-up imports does not count.
"""

import ast
import contextlib
import io
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from springerc import verify
from springerc.cli import main

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src"
PROBE = """
import sys
before = set(sys.modules)
import springerc
if sys.argv[1:]:
    from springerc.cli import main
    try:
        main(sys.argv[1:])
    except SystemExit:
        pass
sys.stdout.flush()
print("LOADED", *sorted(set(sys.modules) - before))
"""
DENSE_STACK = {
    "springerc.tensor",
    "springerc.hyperoctahedral",
    "springerc.exact",
    "springerc.verify",
    "fractions",
    "logging",
}


def fresh(*args):
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=120
    )


def run_fresh(*argv):
    proc = fresh("-c", PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1].split()
    assert last[0] == "LOADED"
    return set(last[1:]), proc.stderr


def own(modules):
    return {m for m in modules if m == "springerc" or m.startswith("springerc.")}


def test_package_import_loads_no_submodule():
    loaded, _ = run_fresh()
    assert own(loaded) == {"springerc"}


def readme_import_table():
    """{command: modules} from the table under "Each command imports only the modules it runs".

    A `verify` row names its suite too, as in "verify sw".
    """
    section = (ROOT / "README.md").read_text().split("Each command imports only the modules it runs", 1)[1]
    table = next(block for block in section.split("\n\n") if block.startswith("|"))
    rows = {}
    for line in table.splitlines():
        cells = [cell.strip() for cell in line.strip("|").split("|")]
        if len(cells) == 2 and cells[0].startswith("`"):
            modules = cells[1].replace("`", "").split(", ")
            rows[cells[0].strip("`")] = set() if modules == ["nothing"] else set(modules)
    return rows


BASE = {"springerc", "springerc.cli", "springerc.limits"}
VERIFY_SUITES = [*verify.SUITES, "all"]


@pytest.mark.parametrize(
    "argv",
    [
        ("htop", "--n", "2", "--d", "2", "--format", "json"),
        ("springer", "--d", "4"),
        ("theta", "--n", "2", "--d", "2", "--format", "tsv"),
        ("theta", "--n", "1", "--d", "2", "--component", "1,2,1", "--format", "json"),
        ("theta", "--n", "1", "--d", "2", "--format", "pretty"),
        *(("verify", suite) for suite in VERIFY_SUITES),
    ],
)
def test_each_command_loads_its_readme_row(argv):
    row = readme_import_table()[" ".join(argv[:2]) if argv[0] == "verify" else argv[0]]
    loaded, _ = run_fresh(*argv)
    assert own(loaded) == BASE | {f"springerc.{name}" for name in row}
    # Only the table commands compile the table writers.
    assert ("springerc.tables" in loaded) == (argv[0] != "verify")


def test_readme_import_table_has_every_command():
    verify_rows = {f"verify {suite}" for suite in VERIFY_SUITES}
    assert set(readme_import_table()) == {"--help", "springer", "htop", "theta", *verify_rows}


@pytest.mark.parametrize("module", ["springerc.theta", "springerc.labels"])
def test_library_modules_load_no_command_line_code(module):
    proc = fresh("-c", f"import sys; import {module}; print(*sys.modules)")
    assert proc.returncode == 0, proc.stderr
    loaded = set(proc.stdout.split())
    assert module in loaded
    assert loaded.isdisjoint({"springerc.cli", "springerc.tables", "argparse"})


def test_help_loads_only_the_parser():
    loaded, _ = run_fresh("--help")
    assert readme_import_table()["--help"] == set()
    assert own(loaded) == BASE


@pytest.mark.parametrize(
    "argv",
    [
        ("htop", "--n", "2", "--d", "2", "--format", "json"),
        ("springer", "--d", "4"),
        ("theta", "--n", "2", "--d", "2", "--format", "tsv"),
        ("theta", "--n", "1", "--d", "2", "--component", "1,2,1", "--format", "json"),
    ],
)
def test_tables_skip_the_dense_stack(argv):
    loaded, _ = run_fresh(*argv)
    assert loaded.isdisjoint(DENSE_STACK), sorted(loaded & DENSE_STACK)


@pytest.mark.parametrize(
    "argv",
    [("springer", "--d", "10", "--format", "tsv"), ("htop", "--n", "0", "--d", "12", "--format", "tsv")],
)
def test_scans_write_nothing_to_stderr(argv):
    # Both tables include labels whose scan output is sorted before use.
    _, err = run_fresh(*argv)
    assert err == ""


@pytest.mark.parametrize(
    "argv",
    [
        ("htop", "--n", "2", "--d", "2", "--format", "json"),
        ("springer", "--d", "4"),
        ("theta", "--n", "1", "--d", "2", "--format", "pretty"),
        ("verify", "all"),
    ],
)
def test_commands_load_no_dataclasses(argv):
    # dataclasses pulls in inspect, ast, dis and tokenize at start-up.
    loaded, _ = run_fresh(*argv)
    heavy = {"dataclasses", "inspect"}
    assert loaded.isdisjoint(heavy), sorted(loaded & heavy)


@pytest.mark.parametrize(
    "argv",
    [
        ("--help",),
        ("htop", "--n", "2", "--d", "2", "--format", "json"),
        ("springer", "--d", "4"),
        ("theta", "--n", "1", "--d", "2", "--format", "tsv"),
        *(("verify", suite) for suite in VERIFY_SUITES),
    ],
)
def test_commands_load_no_argparse(argv):
    # argparse, with the gettext and locale it imports, cost every command
    # about 5 ms and up to 0.5 MB of max RSS; the command line needs none of it.
    loaded, _ = run_fresh(*argv)
    heavy = {"argparse", "gettext", "locale"}
    assert loaded.isdisjoint(heavy), sorted(loaded & heavy)


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("--help",), id="help"),
        pytest.param(("htop", "--n", "2", "--d", "2", "--format", "json"), id="htop_json"),
        pytest.param(("springer", "--d", "4", "--format", "json"), id="springer_json"),
        pytest.param(("theta", "--n", "1", "--d", "2", "--format", "json"), id="theta_json"),
        pytest.param(("verify", "all"), id="verify_all"),
    ],
)
def test_commands_load_no_json(argv):
    # The tables write json text themselves (tables._json_pieces).
    loaded, _ = run_fresh(*argv)
    assert "json" not in loaded


@pytest.mark.parametrize(
    "argv",
    [
        ("springer", "--d", "3"),
        ("htop", "--n", "2", "--d", "2"),
        ("theta", "--n", "1", "--d", "2", "--format", "tsv"),
        ("--help",),
        ("verify", "all"),
    ],
)
def test_option_values_load_no_re(argv):
    # The parser reads a token with `re` only when it names no option.  Run
    # without `site` (-S), which on some installs imports `re` itself.
    proc = fresh("-S", "-c", PROBE, *argv)
    assert proc.returncode == 0, proc.stderr
    loaded = proc.stdout.splitlines()[-1].split()
    assert loaded[0] == "LOADED" and "re" not in loaded[1:]


def test_a_negative_option_value_is_still_read_as_a_value():
    proc = fresh("-S", "-m", "springerc", "htop", "--n", "-3", "--d", "2")
    assert (proc.returncode, proc.stdout) == (3, "")
    assert proc.stderr == "error: n and d must be nonnegative\n"


def test_verify_all_loads_no_fractions():
    # characters, their orthogonality and decompositions are integer-only
    loaded, _ = run_fresh("verify", "all")
    assert "fractions" not in loaded


def test_each_suite_prints_its_slice_of_verify_all():
    # Each suite imports its own engines, so a suite run alone loads less
    # than `verify all`; that must change no check line and no order.
    def check_lines(suite):
        proc = fresh("-m", "springerc", "verify", suite)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.splitlines()[:-1]  # drop the "k/k checks passed" line

    slices = [check_lines(suite) for suite in verify.SUITES]
    assert all(slices)
    assert [line for lines in slices for line in lines] == check_lines("all")


def test_readme_example():
    # Runs the python block under "## Library example" in README.md, so the
    # example and its test cannot drift apart.
    section = (ROOT / "README.md").read_text().split("## Library example", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(code, {})
    assert out.getvalue().splitlines()[0] == "3"


@pytest.mark.parametrize(
    "argv",
    [
        pytest.param(("verify", "springer"), id="springer"),
        pytest.param(("verify", "sw"), id="sw"),
        pytest.param(("htop", "--n", "2", "--d", "2", "--format", "json"), id="htop_json"),
        pytest.param(("springer", "--d", "3", "--format", "tsv"), id="springer_tsv"),
        pytest.param(("theta", "--n", "1", "--d", "2", "--format", "tsv"), id="theta_tsv"),
    ],
)
def test_benchmark_tracer_runs(argv):
    # perfbench/traced_cli.py imports every module it traces by name and
    # wraps some functions with fixed signatures; a renamed module, a changed
    # signature or a changed report type would make `run.py --trace 1` fail.
    # Each command kind runs once, and its stdout must be the untraced one.
    proc = fresh(str(ROOT / "perfbench" / "traced_cli.py"), *argv)
    assert proc.returncode == 0, proc.stderr
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(list(argv)) == 0
    assert proc.stdout == out.getvalue()
    assert any(line.startswith("PERFBENCH_TRACE ") for line in proc.stderr.splitlines())


def test_sources_parse_at_the_python_floor():
    # Tests run on one interpreter, so nothing else would notice syntax
    # newer than the floor pyproject.toml declares (`except*` needs 3.11).
    floor = re.search(
        r'^requires-python = ">=(\d+)\.(\d+)"$', (ROOT / "pyproject.toml").read_text(), re.M
    )
    version = (int(floor[1]), int(floor[2]))
    sources = sorted((SRC / "springerc").glob("*.py"))
    assert sources
    for path in sources:
        ast.parse(path.read_text(), filename=str(path), feature_version=version)
