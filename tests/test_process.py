"""The process entry, springerc.__main__.run: each command ends by freezing the collector.

A frozen object is skipped by the full cyclic collection the interpreter runs at exit, and
so is any cyclic garbage among them: its finalizers would never run.  So the freeze is safe
only while no command leaves cyclic garbage, which the first test pins in a fresh
interpreter for each command kind.
"""

import gc
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import springerc.__main__
from springerc import cli, verify

ROOT = Path(__file__).resolve().parents[1]
GARBAGE_PROBE = """
import gc, sys
gc.set_debug(gc.DEBUG_SAVEALL)  # from the start, so garbage an early collection finds counts
from springerc.cli import main
try:
    status = main(sys.argv[1:])
except SystemExit as exc:  # the command line is refused
    status = exc.code
sys.stdout.flush()
gc.collect()
print("STATUS", status, "GARBAGE", len(gc.garbage), *sorted({type(o).__name__ for o in gc.garbage}))
"""
# As `python -m springerc ARGS`, with an atexit hook that records the freeze count into FILE.
FREEZE_PROBE = """
import atexit, gc, runpy, sys
path = sys.argv.pop(1)
def record():
    with open(path, "w") as file:
        file.write(str(gc.get_freeze_count()))
atexit.register(record)
runpy.run_module("springerc", run_name="__main__", alter_sys=True)
"""


def python(*args, **kwargs):
    path = [str(ROOT / "src")] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(path))
    return subprocess.run([sys.executable, *args], cwd=ROOT, env=env, timeout=120, **kwargs)


@pytest.mark.parametrize(
    "argv,code",
    [
        *(
            (("htop", "--n", "2", "--d", "2", "--format", fmt), 0)
            for fmt in ("json", "tsv", "pretty")
        ),
        (("htop", "--n", "2", "--d", "3", "--orbit", "4,2", "--format", "json"), 0),
        *(
            (("theta", "--n", "1", "--d", "2", "--format", fmt), 0)
            for fmt in ("json", "tsv", "pretty")
        ),
        (("theta", "--n", "1", "--d", "2", "--component", "1,2,1", "--format", "tsv"), 0),
        (("springer", "--d", "6", "--format", "tsv"), 0),
        *((("verify", suite), 0) for suite in (*verify.SUITES, "all")),
        (("--help",), 0),
        (("htop", "--n", "9", "--d", "9"), 2),
        (("htop", "--bogus"), 3),
        (("htop", "--n", "2", "--d", "2", "--orbit", "9"), 3),
    ],
)
def test_commands_leave_no_cyclic_garbage(argv, code):
    proc = python("-c", GARBAGE_PROBE, *argv, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == f"STATUS {code} GARBAGE 0"


def drop_reader(fd):
    read_end, write_end = os.pipe()
    os.close(read_end)
    os.dup2(write_end, fd)


@pytest.mark.parametrize(
    "argv,code,before",
    [
        (("htop", "--n", "1", "--d", "2", "--format", "tsv"), 0, None),
        (("--help",), 0, None),
        (("htop", "--n", "9", "--d", "9"), 2, None),
        (("htop", "--bogus"), 3, None),
        (("verify", "all"), 141, lambda: os.close(1)),  # stdout closed at the start
        (("springer", "--d", "4"), 141, lambda: drop_reader(1)),  # its reader is gone
    ],
)
def test_every_exit_path_freezes_the_collector(tmp_path, argv, code, before):
    count = tmp_path / "freeze_count"
    proc = python(
        "-c", FREEZE_PROBE, str(count), *argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        preexec_fn=before,
    )
    assert proc.returncode == code, proc.stderr
    assert int(count.read_text()) > 0


@pytest.mark.parametrize("argv", [["htop", "--n", "1", "--d", "2"], ["htop", "--bogus"]])
def test_main_in_process_leaves_the_collector_alone(capsys, argv):
    frozen, enabled = gc.get_freeze_count(), gc.isenabled()
    try:
        cli.main(argv)
    except SystemExit:
        pass
    assert (gc.get_freeze_count(), gc.isenabled()) == (frozen, enabled)


def test_the_script_and_python_m_share_one_entry():
    module, name = re.search(
        r'^springerc = "([\w.]+):(\w+)"$', (ROOT / "pyproject.toml").read_text(), re.M
    ).groups()
    assert module == "springerc.__main__"  # the module `python -m springerc` runs
    assert getattr(springerc.__main__, name) is springerc.__main__.run
    # and `python -m springerc` calls run(): the freeze test above sees its freeze


def test_only_the_entry_imports_gc():
    importers = {
        path.name
        for path in (ROOT / "src" / "springerc").glob("*.py")
        if re.search(r"^\s*(import|from) gc\b", path.read_text(), re.M)
    }
    assert importers == {"__main__.py"}
