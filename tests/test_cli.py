import contextlib
import hashlib
import io
import json
import os
import subprocess
import sys
import time
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import build_parser, theta_table
from springerc import cli, geometry, hyperoctahedral, partitions, springer, tables, tensor, verify
from springerc.cli import main
from springerc.partitions import enumerate_bipartitions

GOLDEN = Path(__file__).parent / "golden"
SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_springer_tsv_matches_golden(capsys):
    code, out, _ = run(capsys, "springer", "--d", "2", "--format", "tsv")
    assert code == 0
    assert out == (GOLDEN / "springer_d2.tsv").read_text()


def test_springer_row_counts(capsys):
    for d, rows in ((0, 1), (1, 2), (2, 5)):
        code, out, _ = run(capsys, "springer", "--d", str(d), "--format", "tsv")
        assert code == 0
        assert len(out.strip().split("\n")) == rows + 1  # header line


def test_springer_pretty_carries_names(capsys):
    code, out, _ = run(capsys, "springer", "--d", "2")
    assert code == 0
    for name in ("sign", "ssign", "lsign", "refl", "triv"):
        assert name in out


def test_springer_bound(capsys, monkeypatch):
    code, _, err = run(capsys, "springer", "--d", "18", "--format", "tsv")
    assert code == 0

    def refuse(*args):
        raise AssertionError("the Springer scan ran before the cost guard")

    monkeypatch.setattr(partitions, "enumerate_bipartitions", refuse)
    monkeypatch.setattr(springer, "springer_orbit", refuse)
    for d in ("19", "1000000000"):
        code, _, err = run(capsys, "springer", "--d", d)
        assert code == 2
        assert "bound" in err and "ceiling" in err


def test_htop_json_matches_golden(capsys):
    code, out, _ = run(capsys, "htop", "--n", "2", "--d", "2", "--format", "json")
    assert code == 0
    assert out == (GOLDEN / "htop_n2_d2.json").read_text()


def test_htop_single_orbit(capsys):
    code, out, _ = run(
        capsys, "htop", "--n", "2", "--d", "2", "--orbit", "2,1,1", "--format", "json"
    )
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 1
    assert payload[0]["total"] == 3
    by_component = {c["d"]: c["htop"] for c in payload[0]["components"]}
    assert by_component == {
        "1,1,0,1,1": 1,
        "0,1,2,1,0": 0,
        "1,0,2,0,1": 0,
        "0,2,0,2,0": 1,
        "2,0,0,0,2": 1,
        "0,0,4,0,0": 0,
    }


def test_htop_emits_one_report_per_orbit(capsys):
    code, out, _ = run(capsys, "htop", "--n", "2", "--d", "2", "--format", "json")
    assert code == 0
    assert [r["orbit"] for r in json.loads(out)] == ["4", "2,2", "2,1,1", "1,1,1,1"]


def test_htop_rejects_non_type_c_orbit(capsys):
    code, _, err = run(capsys, "htop", "--n", "2", "--d", "2", "--orbit", "3,1")
    assert code == 3
    assert "type-C" in err


def test_htop_resource_bound(capsys):
    code, _, err = run(capsys, "htop", "--n", "6", "--d", "8")
    assert code == 2
    assert "ceiling" in err


def test_htop_guard_fires_before_enumeration(capsys, monkeypatch):
    def refuse(d):
        raise AssertionError("the Springer scan ran before the cost guard")

    monkeypatch.setattr(geometry, "springer_image", refuse)
    for n, d in (("6", "8"), ("0", "1000000000"), ("1000000000", "0")):
        code, _, err = run(capsys, "htop", "--n", n, "--d", d)
        assert code == 2
        assert "ceiling" in err


@pytest.mark.parametrize("n", [1, 990])
def test_htop_rank_zero_prints_the_empty_orbit(capsys, n):
    # n = 990 has a component of 1,981 entries: no enumeration may recurse per entry.
    code, out, err = run(capsys, "htop", "--n", str(n), "--d", "0", "--format", "tsv")
    assert code == 0
    assert err == ""
    zeros = ",".join(["0"] * (2 * n + 1))
    assert out == f"orbit\tcomponent\tdegree\thtop\torbit_total\n-\t{zeros}\t0\t1\t1\n"


def test_htop_runs_a_component_of_a_thousand_entries(capsys):
    # Rank 1 at n = 500: two orbits over the 501 components of 1,001 entries.
    code, out, err = run(capsys, "htop", "--n", "500", "--d", "1", "--format", "tsv")
    assert code == 0
    assert err == ""
    rows = [line.split("\t") for line in out.splitlines()]
    assert len(rows) == 1 + 2 * 501
    totals: dict = {}
    for orbit, _, _, htop, total in rows[1:]:
        totals.setdefault((orbit, int(total)), []).append(int(htop))
    assert len(totals) == 2
    for (_, total), column in totals.items():
        assert sum(column) == total


def test_htop_scans_each_label_once(capsys, monkeypatch):
    scans = []
    real = springer.springer_orbit

    def counted(rho, *args, **kwargs):
        scans.append(rho)
        return real(rho, *args, **kwargs)

    monkeypatch.setattr(springer, "springer_orbit", counted)
    code, _, _ = run(capsys, "htop", "--n", "1", "--d", "3", "--format", "tsv")
    assert code == 0
    assert sorted(map(str, scans)) == sorted(map(str, enumerate_bipartitions(3)))


def test_failed_self_check_has_its_own_exit_code(capsys, monkeypatch):
    real = partitions.graded_multiplicities

    def off_by_one(n, d, labels):
        table = real(n, d, labels)
        per_weight = next(iter(table.values()))
        per_weight[next(iter(per_weight))] += 1
        return table

    monkeypatch.setattr(geometry, "graded_multiplicities", off_by_one)
    code, out, err = run(capsys, "htop", "--n", "2", "--d", "2")
    assert code == 4
    assert out == ""
    assert "self-check failed" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("argv", [["springer", "--d", "2"], ["htop", "--n", "1", "--d", "2"]])
def test_failed_springer_scan_is_a_self_check(capsys, monkeypatch, argv):
    monkeypatch.setattr(springer, "_scan", lambda nu: [1] + [0] * (len(nu) - 1))
    code, out, err = run(capsys, *argv)
    assert code == 4
    assert out == ""
    assert "self-check failed: scan failed" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["htop", "theta"])
def test_no_command_has_a_cell_ceiling_option(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--n", "2", "--d", "2", "--max-cells", "10"])
    assert exc.value.code == 3


@pytest.mark.parametrize(
    "argv,expected_code",
    [
        (["htop", "--n", "abc", "--d", "2"], 3),
        (["htop", "--n", "2"], 3),
        (["springer", "--d", "2", "--bogus"], 3),
        (["nosuchcommand"], 3),
        ([], 3),
        (["--help"], 0),
        (["theta", "--help"], 0),
        # "--" attached to an option is not a value.
        (["springer", "--d=--"], 3),
        (["htop", "--n", "1", "--d", "2", "--orbit=--"], 3),
        (["theta", "--n", "1", "--d", "1", "--format=--"], 3),
    ],
)
def test_usage_errors_are_invalid_input(capsys, argv, expected_code):
    # Exit 2 means a resource bound, so a malformed command line exits 3.
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert exc.value.code == expected_code
    assert ("usage:" in err) == bool(expected_code)
    assert ("usage:" in out) == (not expected_code)


def test_htop_tsv_shape(capsys):
    code, out, _ = run(capsys, "htop", "--n", "2", "--d", "2", "--format", "tsv")
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "orbit\tcomponent\tdegree\thtop\torbit_total"
    assert len(lines) == 1 + 4 * 6


def test_theta_count_and_filter(capsys):
    code, out, _ = run(capsys, "theta", "--n", "2", "--d", "2", "--format", "json")
    assert code == 0
    assert json.loads(out)["count"] == 25
    code, out, _ = run(
        capsys,
        "theta", "--n", "2", "--d", "2",
        "--component", "0,0,4,0,0", "--format", "json",
    )
    payload = json.loads(out)
    assert payload["count"] == 1
    assert payload["matrices"][0]["chi"] == "3,3"
    code, out, _ = run(capsys, "theta", "--n", "0", "--d", "1", "--format", "json")
    assert json.loads(out)["count"] == 1


def test_theta_rejects_bad_component(capsys):
    code, _, err = run(
        capsys, "theta", "--n", "2", "--d", "2", "--component", "1,0,1"
    )
    assert code == 3
    code, _, err = run(
        capsys, "theta", "--n", "2", "--d", "2", "--component", "1,0,2,0,2"
    )
    assert code == 3


def test_theta_pretty_prints_grids(capsys):
    code, out, _ = run(
        capsys, "theta", "--n", "2", "--d", "2", "--component", "0,0,4,0,0"
    )
    assert code == 0
    assert "count 1" in out
    assert "1 1 1 1" in out


Q54_TEXT = ("1,1,0,1,1", "0,1,2,1,0", "1,0,2,0,1", "0,2,0,2,0", "2,0,0,0,2", "0,0,4,0,0")
# Odd d gives halves of unequal length, the shorter one 0, 1 or 2 letters
# long; 0,0,0,10,0,0,0 is a component of (3,5) that holds no flag, and
# (300,1) has rows 601 grading entries wide.
THETA_CASES = (
    [(0, 0, None), (0, 3, None), (1, 2, None), (2, 3, None), (2, 2, None)]
    + [(2, 2, c) for c in Q54_TEXT]
    + [(1, 1, None), (0, 5, None), (3, 3, None), (1, 5, None), (300, 1, None)]
    + [(3, 5, "0,0,0,10,0,0,0")]
    + [(1, 3, f"{a},{6 - 2 * a},{a}") for a in range(4)]
    # Even d joins two halves of equal length; d = 1 joins a one-letter
    # left half to the empty right half.
    + [(2, 4, None), (2, 4, "1,1,4,1,1"), (4, 1, None)]
)


@pytest.mark.parametrize("fmt", ["tsv", "json", "pretty"])
@pytest.mark.parametrize("n,d,component", THETA_CASES)
def test_theta_matches_the_product_oracle(capsys, n, d, component, fmt):
    argv = ["theta", "--n", str(n), "--d", str(d), "--format", fmt]
    if component is not None:
        argv += ["--component", component]
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    if component is not None:
        component = tuple(map(int, component.split(",")))
    assert out == theta_table(n, d, fmt, component)


REFERENCE = json.loads(
    (Path(__file__).parents[1] / "perfbench" / "reference.json").read_text()
)


@pytest.mark.parametrize(
    "command", list(REFERENCE), ids=["_".join(c.split()) for c in REFERENCE]
)
def test_verify_output_is_pinned(capsys, command):
    # Each benchmark command's stdout must keep the digest the benchmark
    # checks it against.
    code, out, _ = run(capsys, *command.split())
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == REFERENCE[command]


HTOP_DIGESTS = json.loads((GOLDEN / "htop_digests.json").read_text())


@pytest.mark.parametrize(
    "command",
    list(HTOP_DIGESTS),
    ids=["n{2}_d{4}_{6}".format(*c.split()) for c in HTOP_DIGESTS],
)
def test_htop_output_is_pinned(capsys, command):
    # sha256 of htop's tsv, json and pretty output at points with d <= 5;
    # perfbench/reference.json pins only the json of the benchmark's points.
    code, out, err = run(capsys, *command.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == HTOP_DIGESTS[command]


class RecordingStdout:
    """A stdout that keeps each write as one string."""

    def __init__(self):
        self.writes = []

    def write(self, text):
        self.writes.append(text)

    def flush(self):
        pass


def test_theta_streams_in_constant_memory(monkeypatch):
    # Building all 16,807 rows before writing any takes about 12.8 MB.
    import springerc.theta  # noqa: F401  (import cost is not the table's)

    with open(os.devnull, "w") as sink:
        monkeypatch.setattr(sys, "stdout", sink)
        tracemalloc.start()
        try:
            code = main(["theta", "--n", "3", "--d", "5", "--format", "tsv"])
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert code == 0
    assert peak < 3 * 2**20, peak


def test_theta_writes_blocks_and_checks_no_grading_per_row(monkeypatch):
    from springerc.labels import SymComposition

    checked = []
    real_new = SymComposition.__new__

    def counted(cls, entries):
        checked.append(entries)
        return real_new(cls, entries)

    sink = RecordingStdout()
    monkeypatch.setattr(SymComposition, "__new__", counted)
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(["theta", "--n", "3", "--d", "4", "--format", "tsv"]) == 0
    rows = "".join(sink.writes).splitlines()[1:-1]
    assert len(rows) == 7**4
    # Neither one write per row nor the whole table in one string.
    assert 1 < len(sink.writes) < 50
    assert checked == []


def test_theta_bounds_each_write_by_characters(monkeypatch):
    # Each row of this table is about 1.2 KB; a block closes at the row that
    # brings it to WRITE_CHARS.
    sink = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(["theta", "--n", "300", "--d", "1", "--format", "tsv"]) == 0
    rows = "".join(sink.writes).splitlines(keepends=True)
    assert len(rows) == 603
    widest = max(map(len, rows))
    assert len(sink.writes) > 1
    assert max(map(len, sink.writes)) <= tables.WRITE_CHARS + widest


def test_theta_json_bounds_each_write_by_characters(monkeypatch):
    # Each flag's record is about 1.3 KB, and the json writer yields a record
    # at a time, so a block closes at the record that brings it to WRITE_CHARS.
    sink = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(["theta", "--n", "300", "--d", "1", "--format", "json"]) == 0
    text = "".join(sink.writes)
    assert json.loads(text)["count"] == 601
    widest = max(map(len, text.split("},")))
    assert len(sink.writes) > 1
    assert max(map(len, sink.writes)) <= tables.WRITE_CHARS + widest


JSON_TEXT = st.one_of(
    st.from_regex(r"[0-9,|-]*", fullmatch=True),  # shaped like the labels the tables write
    # any string json writes unescaped: printable ASCII but a quote or a backslash
    st.text(st.characters(min_codepoint=0x20, max_codepoint=0x7E, exclude_characters='"\\')),
)
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.integers(min_value=2**64) | JSON_TEXT,
    lambda items: st.lists(items, max_size=4) | st.dictionaries(JSON_TEXT, items, max_size=4),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(value=JSON_VALUES)
def test_json_pieces_join_to_json_dumps(value):
    # The stdlib json is the oracle only; no command loads it.
    assert "".join(tables._json_pieces(value)) == json.dumps(value, indent=2)


@pytest.mark.parametrize(
    "value",
    [1.5, (1,), [{"a": [0.0]}], {1: 2}, {None: 0}, [b"x"], 'a"b', ["a\\b"], {"\n": 0}, "é"],
)
def test_json_pieces_refuse_what_json_would_write_otherwise(value):
    # json.dumps writes these as something else (a tuple as a list, a key as a
    # string, a quote, a backslash, a newline or a non-ASCII letter escaped);
    # the tables never hold them, so they are refused.
    with pytest.raises(TypeError):
        "".join(tables._json_pieces(value))


@pytest.mark.parametrize(
    "argv",
    [["springer", "--d", str(d)] for d in range(7)]
    + [["htop", "--n", str(n), "--d", str(d)] for n in range(3) for d in range(5)],
)
def test_json_tables_are_what_json_dumps_writes(capsys, argv):
    # The stdlib json is the oracle only: each table, and for htop one orbit
    # of it, is the text json.dumps gives for what json.loads reads back.
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and out == json.dumps(json.loads(out), indent=2) + "\n"
    if argv[0] == "htop":
        orbit = json.loads(out)[-1]["orbit"]
        code, out, _ = run(capsys, *argv, "--orbit", orbit, "--format", "json")
        assert code == 0 and out == json.dumps(json.loads(out), indent=2) + "\n"
        assert [report["orbit"] for report in json.loads(out)] == [orbit]


@pytest.mark.parametrize(
    "argv",
    [["htop", "--n", "0", "--d", "12"], ["htop", "--n", "2", "--d", "3"], ["verify", "all"]],
)
def test_htop_pretty_and_verify_write_blocks(monkeypatch, argv):
    # Under PYTHONUNBUFFERED every write is a system call, so not one per line.
    sink = RecordingStdout()
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(argv) == 0
    text = "".join(sink.writes)
    lines = text.count("\n")
    assert lines > 40 and text.endswith("\n")
    # Every write but the last holds at least WRITE_CHARS characters.
    assert len(sink.writes) <= len(text) // tables.WRITE_CHARS + 1


@pytest.mark.parametrize("fmt", ["tsv", "json", "pretty"])
@pytest.mark.parametrize(
    "argv,expected_code",
    [
        (["--n", "5", "--d", "5"], 2),
        (["--n", "2", "--d", "7"], 2),
        (["--n", "1", "--d", "-1"], 3),
        (["--n", "2", "--d", "2", "--component", "0,0,x,0,0"], 3),
        (["--n", "2", "--d", "2", "--component", "1,0,1"], 3),
        (["--n", "2", "--d", "2", "--component", "1,0,2,0,2"], 3),
        (["--n", "-1", "--d", "2"], 3),
        # A mismatched component is bad input even where the ceilings refuse.
        (["--n", "5", "--d", "5", "--component", "1,0,1"], 3),
    ],
)
def test_theta_errors_write_nothing_to_stdout(capsys, argv, expected_code, fmt):
    code, out, err = run(capsys, "theta", *argv, "--format", fmt)
    assert code == expected_code
    assert out == ""
    assert err


@pytest.mark.parametrize("fmt", ["tsv", "json", "pretty"])
@pytest.mark.parametrize("n,d", [(1_000_000, 0), (0, 1_000_000), (4999, 1)])
def test_theta_refuses_a_row_wider_than_the_ceiling(capsys, n, d, fmt):
    # One row, or N^d = 1 rows, but each 2d + 2n + 1 entries wide; or 9,999
    # rows of 10,001 entries, each within its ceiling but not their product.
    code, out, err = run(capsys, "theta", "--n", str(n), "--d", str(d), "--format", fmt)
    assert code == 2
    assert out == ""
    assert "ceiling" in err


def test_theta_refuses_a_huge_power_at_once(capsys):
    # The widest row the width check admits at n = 1: 2d + 3 = 19,999.
    start = time.perf_counter()
    code, out, err = run(capsys, "theta", "--n", "1", "--d", "9998")
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert out == ""
    assert "3^9998" in err


def springerc_env():
    path = [str(SRC)] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(path))


@pytest.mark.parametrize("fmt", ["tsv", "pretty", "json"])
def test_a_reader_that_stops_early_gets_exit_141(fmt):
    # As `springerc theta ... | head -1`: the pipe closes after one line,
    # while the writer still has most of 16,807 rows to write.
    proc = subprocess.Popen(
        [sys.executable, "-m", "springerc", "theta", "--n", "3", "--d", "5", "--format", fmt],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env=springerc_env(),
    )
    assert proc.stdout.readline()
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert proc.returncode == 141
    assert err == b""


@pytest.mark.parametrize(
    "argv",
    [
        ["--help"],
        ["htop", "--n", "1", "--d", "2"],
        ["springer", "--d", "2"],
        ["theta", "--n", "1", "--d", "1"],
        ["verify", "all"],
        ["htop", "--bogus"],
    ],
)
def test_a_closed_stdout_gets_exit_141(argv):
    # As `springerc verify all >&-`: the process starts with no stdout at all,
    # so it exits as if its reader had gone, before it reads its command line.
    proc = subprocess.run(
        [sys.executable, "-m", "springerc", *argv],
        stderr=subprocess.PIPE,
        env=springerc_env(),
        preexec_fn=lambda: os.close(1),
        timeout=120,
    )
    assert proc.returncode == 141
    assert proc.stderr == b""


@pytest.mark.parametrize("argv", [["--help"], ["htop", "-h"], ["verify", "springer"]])
def test_a_pipe_with_no_reader_gets_exit_141(argv):
    # The reader is gone before the first write, help included.
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "springerc", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            env=springerc_env(),
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 141
    assert proc.stderr == b""


@pytest.mark.parametrize(
    "argv,code", [(["htop", "--bogus"], 3), (["htop", "--n", "9", "--d", "9"], 2)]
)
def test_a_closed_stderr_keeps_the_exit_code_and_stdout_empty(argv, code):
    # As `springerc htop --bogus 2>&-`: the message is dropped, not written to stdout.
    proc = subprocess.run(
        [sys.executable, "-m", "springerc", *argv],
        stdout=subprocess.PIPE,
        env=springerc_env(),
        preexec_fn=lambda: os.close(2),
        timeout=120,
    )
    assert proc.returncode == code
    assert proc.stdout == b""


class BrokenStream:
    """A stream whose every write fails, as a stderr the shell closed under a pyenv shim."""

    def write(self, *args):
        raise OSError(9, "Bad file descriptor")

    flush = write


@pytest.mark.parametrize(
    "argv,code",
    [
        (["htop", "--bogus"], 3),
        (["htop", "--n", "9", "--d", "9"], 2),
        (["springer", "--d", "-1"], 3),
    ],
)
def test_a_broken_stderr_keeps_the_exit_code_and_stdout_empty(capsys, monkeypatch, argv, code):
    monkeypatch.setattr(sys, "stderr", BrokenStream())
    try:
        status = main(argv)
    except SystemExit as exc:  # the command line is refused
        status = exc.code
    assert status == code
    assert capsys.readouterr().out == ""


def exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # the command line is refused
            code = exc.code
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code:
        assert out.getvalue() == ""


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=-2, max_value=4),
    d=st.integers(min_value=-2, max_value=4),
    component=st.one_of(
        st.none(),
        st.text(alphabet="0123456789,-+ |x", max_size=14),
        st.lists(st.integers(min_value=-2, max_value=5), max_size=9).map(
            lambda xs: ",".join(map(str, xs))
        ),
    ),
    fmt=st.sampled_from(["tsv", "json", "pretty"]),
)
def test_theta_fuzz_exits_cleanly(n, d, component, fmt):
    argv = ["theta", f"--n={n}", f"--d={d}", f"--format={fmt}"]
    if component is not None:
        argv.append(f"--component={component}")
    exit_cleanly(argv)


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(min_value=-2, max_value=7),
    d=st.one_of(
        st.integers(min_value=-2, max_value=4),
        st.sampled_from(["x", "", "1.5", "1000000000"]),
    ),
    orbit=st.one_of(
        st.none(),
        st.text(alphabet="0123456789,-+ |x", max_size=10),
        st.lists(st.integers(min_value=-2, max_value=9), max_size=8).map(
            lambda xs: ",".join(map(str, xs))
        ),
    ),
    fmt=st.sampled_from(["tsv", "json", "pretty"]),
)
def test_htop_fuzz_exits_cleanly(n, d, orbit, fmt):
    argv = ["htop", f"--n={n}", f"--d={d}", f"--format={fmt}"]
    if orbit is not None:
        argv.append(f"--orbit={orbit}")
    exit_cleanly(argv)


@settings(max_examples=40, deadline=None)
@given(
    d=st.one_of(
        st.integers(min_value=-3, max_value=8),
        st.integers(min_value=19, max_value=10**12),
        st.text(alphabet="0123456789-+ .x", max_size=6),
    ),
    fmt=st.sampled_from(["tsv", "json", "pretty"]),
)
def test_springer_fuzz_exits_cleanly(d, fmt):
    exit_cleanly(["springer", f"--d={d}", f"--format={fmt}"])


VERIFY_SUITES = sorted({*verify.SUITES, "all"})


def test_verify_choices_name_the_suites():
    # `--help` must not compile verify.py, so cli keeps its own list of
    # the suites; it has to name exactly the ones verify runs.
    _, arguments = cli.COMMANDS["verify"]
    choices, default = arguments["suite"]
    assert set(choices) == set(VERIFY_SUITES)
    assert default == "all"


def parse_outcome(parse, argv):
    """(exit code, or None with the parsed command and values; stdout; stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            outcome = None, parse(list(argv))
        except SystemExit as exc:
            outcome = exc.code, None
    return outcome, out.getvalue(), err.getvalue()


def argparse_parse(argv):
    values = vars(build_parser().parse_args(argv))
    del values["func"]
    return values.pop("command"), values


def assert_parses_as_argparse(argv):
    expected, _, _ = parse_outcome(argparse_parse, argv)
    outcome, out, err = parse_outcome(cli.parse_args, argv)
    assert outcome == expected
    code, _ = outcome
    if code == 0:
        assert out.startswith("usage: springerc") and err == ""
    elif code is not None:
        assert code == 3
        assert out == "" and err.startswith("usage: springerc")


COMMAND_NAMES = ["springer", "htop", "theta", "verify"]
TOKENS = [
    *COMMAND_NAMES, "nosuch", "--n", "--d", "--orbit", "--component", "--format",
    "--o", "--or", "--f", "--form", "--c", "--comp", "--no", "---",
    "-h", "--help", "--h", "--he", "-hh", "-hx", "-h=h", "-h=", "--help=x",
    "--n=2", "--d=1", "--d=-3", "--d=", "--d=--", "--orbit=--", "--=3",
    "--f=tsv", "--format=json", "--o=2,1,1", "--component=1,0,1",
    "1", "2", "-3", "-0", "+3", "-", "--", "2,1,1", "0,0,4,0,0",
    "json", "tsv", "pretty", "sw", "springer", "geometry", "all",
    "x", "", "--bogus", "-x", "-1.5", "a b", "-x y", "--n 3", " -3",
]
# Drawn as often as all of TOKENS, so that many lines are accepted or fail late.
OFTEN = [
    ["--n", "2"], ["--d", "1"], ["--d", "-3"], ["--format", "tsv"], ["--f", "json"],
    ["--orbit", "2,1,1"], ["--o", "-"], ["--component", "1,2,1"], ["--c", "-3"],
    ["sw"], ["--"], ["-h"], ["--=3"], ["--bogus"],
]
CHUNK = st.one_of(st.sampled_from(TOKENS).map(lambda token: [token]), st.sampled_from(OFTEN))
COMMAND_LINES = [
    *([command] for command in COMMAND_NAMES),
    ["springer", "--d", "2"], ["htop", "--n", "1", "--d", "2"], ["theta", "--d=1", "--n", "-0"],
]


@settings(max_examples=3000, deadline=None)
@given(
    argv=st.one_of(
        st.lists(CHUNK, max_size=6).map(lambda chunks: sum(chunks, [])),
        st.tuples(
            st.lists(CHUNK, max_size=1), st.sampled_from(COMMAND_LINES), st.lists(CHUNK, max_size=4)
        ).map(lambda t: sum(t[0], []) + t[1] + sum(t[2], [])),
    )
)
def test_parser_agrees_with_argparse(argv):
    # The same accept or reject, exit code and values as the argparse parser
    # springerc used before; only the wording of help and errors may differ.
    assert_parses_as_argparse(argv)


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "--", "sw"], ["verify", "sw", "--"], ["verify", "--"], ["verify", "--", "--"],
        ["verify", "sw", "--", "--"], ["verify", "-h=hh"], ["verify", "bogus", "-h"],
        ["verify", "-h", "bogus"], ["verify", "--x", "sw", "bogus", "-h"], ["htop", "-h", "--=3"],
        ["springer", "--d", "3", "--"], ["springer", "--d", "--", "3"], ["springer", "--d=-0"],
        ["springer", "--d", "-3\n"], ["springer", "--d", "٣"], ["springer", "--d", " 3_0 "],
        ["htop", "--n", "1", "--d", "1", "--orbit", "--a b"], ["--bogus", "htop", "-h"],
        ["--", "htop"], ["-h", "--", "htop"], ["--h", "htop"], ["-hfoo"], ["--=x", "htop"],
        ["htop", "--n", "1", "--d", "1", "--orbit", "--n=x y"], ["theta", "--c"],
    ],
)
def test_parser_agrees_with_argparse_on_edge_cases(argv):
    assert_parses_as_argparse(argv)


@pytest.mark.parametrize("prefix", [[], *([command] for command in COMMAND_NAMES)])
@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_exits_0_with_the_usage_on_stdout(capsys, prefix, flag):
    # perfbench/run.py counts a --help whose first line is anything else as failed.
    with pytest.raises(SystemExit) as exc:
        main([*prefix, flag])
    out, err = capsys.readouterr()
    assert exc.value.code == 0
    assert out.startswith("usage: springerc")
    assert err == ""


@pytest.mark.parametrize("suite", VERIFY_SUITES)
def test_verify_suites_pass(capsys, suite):
    code, out, _ = run(capsys, "verify", suite)
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out


def test_fiber_coverage_check_can_fail(capsys, monkeypatch):
    real = springer.springer_image

    def with_a_gap(d):
        image = real(d)
        image[next(iter(image))] = []
        return image

    monkeypatch.setattr(springer, "springer_image", with_a_gap)
    code, out, _ = run(capsys, "verify", "springer")
    assert code == 1
    assert "FAIL  fiber coverage report d=1" in out


@pytest.mark.parametrize("perturbation", ["scale", "shift"])
def test_projector_algebra_check_can_fail(capsys, monkeypatch, perturbation):
    # "scale" doubles one accumulator, which breaks the sum to |W| * I and
    # doubles its trace, so its multiplicity too; "shift" moves one entry
    # between two accumulators of dimension 1, which keeps the sum and every
    # trace but breaks orthogonality.
    real = tensor.scaled_projectors

    def perturb(rho, acc):
        label = str(rho)
        if label not in ("2|-", "-|2"):
            return acc
        grid = [list(row) for row in acc]
        if perturbation == "scale" and label == "2|-":
            grid = [[2 * x for x in row] for row in grid]
        elif perturbation == "shift":
            grid[0][1] += 1 if label == "2|-" else -1
        return tuple(map(tuple, grid))

    def perturbed(n, d):
        projectors = real(n, d)
        if (n, d) != (2, 2):
            return projectors
        return tuple((rho, perturb(rho, acc), dim) for rho, acc, dim in projectors)

    monkeypatch.setattr(tensor, "scaled_projectors", perturbed)
    code, out, _ = run(capsys, "verify", "sw")
    assert code == 1
    failed = [line for line in out.splitlines() if line.startswith("FAIL")]
    if perturbation == "scale":
        # the doubled trace doubles the multiplicity of 2|- at n = d = 2
        assert failed == [
            "FAIL  multiplicities match weight dimensions n=2 d=2",
            "FAIL  dimension count n=2 d=2: 31 vs 25",
            "FAIL  projector algebra (orthogonal idempotents summing to 1)",
            "FAIL  graded totals agree with plain multiplicities n=2 d=2",
        ]
    else:
        assert failed == ["FAIL  projector algebra (orthogonal idempotents summing to 1)"]


def _perturb_character_table(monkeypatch, rank):
    # One changed value off the identity column of the table of this rank.
    real = hyperoctahedral.character_table

    def perturbed(d):
        table = real(d)
        if d != rank:
            return table
        cls = next(c for c in table.cols if c != table.identity_class())
        values = dict(table.values)
        values[table.rows[0], cls] += 1
        return table._replace(values=values)

    monkeypatch.setattr(hyperoctahedral, "character_table", perturbed)


def test_orthogonality_checks_can_fail(capsys, monkeypatch):
    # At rank 2 this breaks both orthogonality relations and nothing else.
    _perturb_character_table(monkeypatch, 2)
    code, out, _ = run(capsys, "verify", "characters")
    assert code == 1
    assert "FAIL  row orthogonality d=2" in out
    assert "FAIL  column orthogonality d=2" in out
    assert out.count("FAIL") == 2


def test_linear_character_check_can_fail(capsys, monkeypatch):
    before = hyperoctahedral.character_table(3).values
    _perturb_character_table(monkeypatch, 3)
    after = hyperoctahedral.character_table(3).values
    # the bumped value is the flip character's, at the class of -1
    assert [f"{rho} at {cls}" for rho, cls in after if after[rho, cls] != before[rho, cls]] == [
        "3|- at -|1,1,1"
    ]
    code, out, _ = run(capsys, "verify", "characters")
    assert code == 1
    assert "FAIL  linear characters match explicit 1-dim models d=3" in out.splitlines()
    assert out.endswith("\n18/22 checks passed\n")


def test_coset_character_check_can_fail(capsys, monkeypatch):
    real = hyperoctahedral.coset_permutation_character

    def bumped(dcomp):
        char = dict(real(dcomp))
        char[next(iter(char))] += 1
        return char

    monkeypatch.setattr(hyperoctahedral, "coset_permutation_character", bumped)
    code, out, _ = run(capsys, "verify", "sw")
    assert code == 1
    assert [line for line in out.splitlines() if line.startswith("FAIL")] == [
        "FAIL  coset permutation character equals flag fixed-point counts"
    ]
    assert out.endswith("\n9/10 checks passed\n")


def _wrong_flag_dim(monkeypatch):
    real = geometry.flag_dim
    monkeypatch.setattr(
        geometry, "flag_dim", lambda dcomp: 99 if str(dcomp) == "1,1,0,1,1" else real(dcomp)
    )


def _one_degree_dropped(monkeypatch):
    real = geometry.htop_table

    def dropped(n, d, orbit=None):
        # The zero orbit meets every component, so its first row has a degree.
        reports = real(n, d, orbit)
        last = reports[-1]
        (dcomp, degree, mult), *rest = last.components
        assert degree is not None
        reports[-1] = last._replace(components=((dcomp, None, mult), *rest))
        return reports

    monkeypatch.setattr(geometry, "htop_table", dropped)


def test_richardson_check_can_fail(capsys, monkeypatch):
    _wrong_flag_dim(monkeypatch)
    code, out, err = run(capsys, "verify", "geometry")
    assert code == 1
    assert out == (
        "FAIL  geometry engine self-check: 1,1,0,1,1: orbit 4 has dim 8 "
        "but the flag variety has dim 99\n0/1 checks passed\n"
    )
    assert err == ""


def _broken_scan(monkeypatch):
    real = springer._scan
    monkeypatch.setattr(springer, "_scan", lambda nu: [*real(nu), 1])


def _graded_off_by_one(monkeypatch):
    real = geometry.graded_multiplicities

    def off(n, d, rhos):
        table = {rho: dict(row) for rho, row in real(n, d, rhos).items()}
        row = next(iter(table.values()))
        row[next(iter(row))] += 1
        return table

    monkeypatch.setattr(geometry, "graded_multiplicities", off)


def _idempotent_check_raises(monkeypatch):
    def raises(acc, dim, order, rho):
        raise ArithmeticError(f"projector for {rho} is not idempotent at entry (0,0)")

    monkeypatch.setattr(tensor, "_check_idempotent", raises)
    tensor.scaled_projectors.cache_clear()


@pytest.mark.parametrize(
    "fault,suite,failed,summary",
    [
        (_wrong_flag_dim, "geometry", "geometry engine self-check: 1,1,0,1,1", "0/1"),
        (
            lambda monkeypatch: _perturb_character_table(monkeypatch, 3),
            "characters",
            "characters engine self-check: reconstruction mismatch",
            "18/22",
        ),
        (_one_degree_dropped, "geometry", "emptiness pattern at n=2, d=2", "4/5"),
        (_broken_scan, "springer", "springer engine self-check: scan failed for 2|-", "0/1"),
        (
            _graded_off_by_one,
            "geometry",
            "geometry engine self-check: graded multiplicities of -|1,1 sum to 2",
            "3/4",
        ),
        (
            _idempotent_check_raises,
            "sw",
            "sw engine self-check: projector for 1|- is not idempotent",
            "0/1",
        ),
    ],
    ids=[
        "flag_dim",
        "character_table",
        "htop_table",
        "scan",
        "graded_multiplicities",
        "idempotent",
    ],
)
def test_engine_fault_is_a_verify_fail_line(capsys, monkeypatch, fault, suite, failed, summary):
    # summary pins how many checks ran: the checks a suite yielded before its
    # engine raised are kept.
    fault(monkeypatch)
    code, out, err = run(capsys, "verify", suite)
    assert code == 1
    lines = out.splitlines()
    assert any(line.startswith(f"FAIL  {failed}") for line in lines)
    passed = sum(line.startswith("ok  ") for line in lines[:-1])
    assert lines[-1] == f"{passed}/{len(lines) - 1} checks passed"
    assert lines[-1] == f"{summary} checks passed"
    assert passed < len(lines) - 1
    assert err == ""


def test_engine_fault_stops_only_its_suite_in_verify_all(capsys, monkeypatch):
    # The sw suite ends in its fault line; every other suite prints its own lines.
    others = [
        line
        for suite in verify.SUITES
        if suite != "sw"
        for line in run(capsys, "verify", suite)[1].splitlines()[:-1]
    ]
    _idempotent_check_raises(monkeypatch)
    code, out, err = run(capsys, "verify", "all")
    lines = out.splitlines()
    assert code == 1
    assert lines[0] == (
        "FAIL  sw engine self-check: projector for 1|- is not idempotent at entry (0,0)"
    )
    assert lines[1:-1] == others
    assert lines[-1] == f"{len(lines) - 2}/{len(lines) - 1} checks passed"
    assert err == ""


def test_outputs_are_deterministic(capsys):
    first = run(capsys, "htop", "--n", "2", "--d", "2", "--format", "json")
    second = run(capsys, "htop", "--n", "2", "--d", "2", "--format", "json")
    assert first == second
