"""What each CLI command loads, each case in a fresh interpreter.

A process runs one command, so loading only that command's engine is what
keeps start-up short.  The probe records the modules loaded after the
interpreter started, so whatever the site set-up imports does not count.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import springerc

SRC = Path(__file__).resolve().parents[1] / "src"
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


def run_fresh(*argv):
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    proc = subprocess.run(
        [sys.executable, "-c", PROBE, *argv], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    last = proc.stdout.splitlines()[-1].split()
    assert last[0] == "LOADED"
    return set(last[1:]), proc.stderr


def own(modules):
    return {m for m in modules if m == "springerc" or m.startswith("springerc.")}


def test_package_import_loads_no_submodule():
    loaded, _ = run_fresh()
    assert own(loaded) == {"springerc"}


def test_help_loads_only_the_parser():
    loaded, _ = run_fresh("--help")
    assert own(loaded) == {"springerc", "springerc.cli", "springerc.limits"}


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


def test_verify_springer_loads_no_json():
    loaded, _ = run_fresh("verify", "springer")
    assert "json" not in loaded


def test_public_names_resolve():
    for name in springerc.__all__:
        assert getattr(springerc, name) is not None, name
    with pytest.raises(AttributeError):
        springerc.no_such_name


def test_readme_example():
    from springerc import Partition, htop_report

    report = htop_report(Partition([2, 1, 1]), n=2, d=2)
    assert report.total == 3
    assert report.degrees.keys() == report.per_component.keys()
