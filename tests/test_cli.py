import contextlib
import hashlib
import io
import json
import os
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from oracles import theta_table
from springerc import geometry, partitions, springer, tensor
from springerc.cli import main
from springerc.partitions import Partition, enumerate_bipartitions

GOLDEN = Path(__file__).parent / "golden"


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


def test_springer_bound(capsys):
    code, _, err = run(capsys, "springer", "--d", "11")
    assert code == 2
    assert "bound" in err


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

    monkeypatch.setattr(springer, "springer_image", refuse)
    for n, d in (("6", "8"), ("0", "1000000000"), ("1000000000", "0")):
        code, _, err = run(capsys, "htop", "--n", n, "--d", d)
        assert code == 2
        assert "ceiling" in err


def test_htop_rank_zero_prints_the_empty_orbit(capsys):
    code, out, err = run(capsys, "htop", "--n", "1", "--d", "0", "--format", "tsv")
    assert code == 0
    assert err == ""
    assert out == "orbit\tcomponent\tdegree\thtop\torbit_total\n-\t0,0,0\t0\t1\t1\n"


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
    real = partitions.graded_multiplicity

    def off_by_one(rho, n, d):
        g = real(rho, n, d)
        per_weight = dict(g.per_weight)
        per_weight[next(iter(per_weight))] += 1
        return partitions.GradedDecomposition(per_weight, g.total + 1)

    monkeypatch.setattr(geometry, "graded_multiplicity", off_by_one)
    code, out, err = run(capsys, "htop", "--n", "2", "--d", "2")
    assert code == 4
    assert out == ""
    assert "self-check failed" in err
    assert "Traceback" not in err


def test_htop_has_no_cell_ceiling_option(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["htop", "--n", "2", "--d", "2", "--max-cells", "10"])
    assert exc.value.code == 2


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
THETA_CASES = [(0, 0, None), (0, 3, None), (1, 2, None), (2, 3, None), (2, 2, None)] + [
    (2, 2, c) for c in Q54_TEXT
]


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


def test_theta_largest_benchmark_table_is_pinned(capsys):
    code, out, _ = run(capsys, "theta", "--n", "3", "--d", "5", "--format", "tsv")
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "fdb01ff6b4365a15a47d673efd124911fb2416ea7f39ccbf0fb56379117e3dab"
    )


def test_theta_streams_in_constant_memory(monkeypatch):
    # Building all 16,807 rows before writing any takes about 12.8 MB.
    import springerc.geometry  # noqa: F401  (import cost is not the table's)

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


def test_theta_writes_blocks_and_checks_each_grading_once(monkeypatch):
    from springerc.partitions import SymComposition

    checked = []
    real_check = SymComposition.__post_init__

    def counted(self):
        checked.append(self.entries)
        real_check(self)

    class Sink:
        def __init__(self):
            self.writes = []

        def write(self, text):
            self.writes.append(text)

        def flush(self):
            pass

    sink = Sink()
    monkeypatch.setattr(SymComposition, "__post_init__", counted)
    monkeypatch.setattr(sys, "stdout", sink)
    assert main(["theta", "--n", "3", "--d", "4", "--format", "tsv"]) == 0
    rows = "".join(sink.writes).splitlines()[1:-1]
    assert len(rows) == 7**4
    # Neither one write per row nor the whole table in one string.
    assert 1 < len(sink.writes) < 50
    assert len(checked) == len({row.split("\t")[2] for row in rows})


@pytest.mark.parametrize("fmt", ["tsv", "json", "pretty"])
@pytest.mark.parametrize(
    "argv,expected_code",
    [
        (["--n", "5", "--d", "5"], 2),
        (["--n", "2", "--d", "3", "--max-cells", "100"], 2),
        (["--n", "2", "--d", "2", "--component", "1,0,1"], 3),
        (["--n", "2", "--d", "2", "--component", "1,0,2,0,2"], 3),
        (["--n", "-1", "--d", "2"], 3),
    ],
)
def test_theta_errors_write_nothing_to_stdout(capsys, argv, expected_code, fmt):
    code, out, err = run(capsys, "theta", *argv, "--format", fmt)
    assert code == expected_code
    assert out == ""
    assert err


@pytest.mark.parametrize("fmt", ["tsv", "json", "pretty"])
@pytest.mark.parametrize("n,d", [(1_000_000, 0), (0, 1_000_000)])
def test_theta_refuses_a_row_wider_than_the_ceiling(capsys, n, d, fmt):
    # One row, or N^d = 1 rows, but each 2d + 2n + 1 entries wide.
    code, out, err = run(capsys, "theta", "--n", str(n), "--d", str(d), "--format", fmt)
    assert code == 2
    assert out == ""
    assert "ceiling" in err


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
    max_cells=st.one_of(st.none(), st.integers(min_value=-2, max_value=200)),
)
def test_theta_fuzz_exits_cleanly(n, d, component, fmt, max_cells):
    argv = ["theta", f"--n={n}", f"--d={d}", f"--format={fmt}"]
    if component is not None:
        argv.append(f"--component={component}")
    if max_cells is not None:
        argv.append(f"--max-cells={max_cells}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the command line
            code = exc.code
    assert code in (0, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code:
        assert out.getvalue() == ""


@pytest.mark.parametrize("suite", ["sw", "springer", "geometry", "characters", "all"])
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
    # "scale" doubles one accumulator, which breaks the sum to |W| * I but
    # keeps every rank; "shift" moves one entry between two accumulators of
    # dimension 1, which keeps the sum but breaks orthogonality.
    real = tensor._projector_int

    def perturbed(rho, n, d, convention):
        acc, dim, order = real(rho, n, d, convention)
        label = str(rho)
        if (n, d) != (2, 2) or label not in ("2|-", "-|2"):
            return acc, dim, order
        grid = [list(row) for row in acc]
        if perturbation == "scale" and label == "2|-":
            grid = [[2 * x for x in row] for row in grid]
        elif perturbation == "shift":
            grid[0][1] += 1 if label == "2|-" else -1
        return tuple(map(tuple, grid)), dim, order

    monkeypatch.setattr(tensor, "_projector_int", perturbed)
    code, out, _ = run(capsys, "verify", "sw")
    assert code == 1
    assert "FAIL  projector algebra (orthogonal idempotents summing to 1)" in out
    if perturbation == "scale":
        assert out.count("FAIL") == 1


def test_richardson_check_can_fail(capsys, monkeypatch):
    monkeypatch.setattr(geometry, "richardson", lambda dcomp: Partition([1] * dcomp.total))
    code, out, _ = run(capsys, "verify", "geometry")
    assert code == 1
    assert "FAIL  richardson self-check n=2, 2d=4" in out


def test_outputs_are_deterministic(capsys):
    first = run(capsys, "htop", "--n", "2", "--d", "2", "--format", "json")
    second = run(capsys, "htop", "--n", "2", "--d", "2", "--format", "json")
    assert first == second
