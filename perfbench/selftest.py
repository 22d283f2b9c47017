"""Self-test of the benchmark: smoke runs, and negative cases that must fail.

Run from the repository root (a few seconds):

    python3 perfbench/selftest.py

1. The smallest workload runs untraced and traced; each result line must
   have exactly the four result keys and exactly the metric names and
   units that BENCHMARK.json lists.
2. Corrupted outputs, a non-zero exit and a traceback must each be counted
   as a failed command, so the failed fraction rises above zero.
3. Without the springerc sources the benchmark must exit non-zero and print
   no result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

import run

SMOKE = run.WORKLOADS["smoke"]
# (command, text in its output, replacement): each replacement breaks an
# identity that checks.py tests, independently of the reference digest.
CORRUPTIONS = [
    (SMOKE[0], '"dim": 2', '"dim": 3'),
    (SMOKE[1], "dim 2)", "dim 3)"),
    (SMOKE[2], "2,1|-\t2\t", "2,1|-\t3\t"),
    (SMOKE[3], "count\t9\t", "count\t8\t"),
    (SMOKE[4], "11/11 checks", "10/11 checks"),
]
BAD_EXIT = ["htop", "--n", "1", "--d", "2", "--orbit", "5,1", "--format", "json"]

failures: list[str] = []


def expect(ok: bool, what: str) -> None:
    print(("ok    " if ok else "FAIL  ") + what)
    if not ok:
        failures.append(what)


def bench(root: Path, trace: int) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(root / "perfbench" / "run.py"), "--workload", "smoke",
         "--seed", "3", "--seconds", "1", "--trace", str(trace)],
        cwd=root, capture_output=True, text=True, timeout=170,
    )


def smoke(trace: int) -> None:
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    listed = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    proc = bench(run.ROOT, trace)
    expect(proc.returncode == 0, f"smoke run with --trace {trace} exits 0")
    lines = proc.stdout.splitlines()
    result = json.loads(lines[-1]) if lines else {}
    expect(set(result) == {"correct", "attempted", "failed", "metrics"}, "result has exactly the four keys")
    expect(result.get("correct") is True and result.get("failed") == 0, "smoke outputs pass every check")
    metrics = result.get("metrics", {})
    expect({k: v.get("unit") for k, v in metrics.items()} == listed,
           f"metric names and units match BENCHMARK.json ({len(listed)} listed)")
    expect(all(isinstance(v.get("value"), (int, float)) for v in metrics.values()), "every value is a number")


def checked(argv: list[str], out: bytes, err: str = "", status: int = 0) -> run.Outcome:
    problems = run.evaluate(argv, out, err, status, run.load_reference())
    return run.Outcome(argv, 0.0, 0.0, 0.0, len(out), problems)


def negative() -> None:
    env = run.child_env()
    outputs = [
        subprocess.run([sys.executable, "-m", "springerc", *argv], cwd=run.ROOT, env=env,
                       capture_output=True, check=True).stdout
        for argv in SMOKE
    ]
    good = run.Pass([checked(argv, out) for argv, out in zip(SMOKE, outputs)])
    expect(good.failed == 0, "untouched smoke outputs pass")
    for out, (argv, old, new) in zip(outputs, CORRUPTIONS):
        text = out.decode()
        expect(old in text, f"corruption target found in {' '.join(argv)}")
        bad = text.replace(old, new, 1)
        expect(bool(run.semantic_check(argv, bad)), f"independent check rejects corrupted {' '.join(argv)}")
        problems = checked(argv, bad.encode()).problems
        expect("stdout differs from the reference" in problems, "reference digest rejects it too")
    argv, old, new = CORRUPTIONS[0]
    corrupted = run.Pass([checked(argv, outputs[0].replace(old.encode(), new.encode(), 1))] + good.outcomes[1:])
    expect(corrupted.failed == 1,
           f"failed fraction goes from 0/{len(SMOKE)} to {corrupted.failed}/{len(SMOKE)} with one corrupted output")
    with run.Runner() as runner:
        exit_outcome = runner.run(BAD_EXIT, False)
    expect("exit status 3" in exit_outcome.problems, "a non-zero exit counts as a failure")
    traceback = checked(SMOKE[0], outputs[0], "Traceback (most recent call last):\n").problems
    expect(traceback == ["traceback on stderr"], "a traceback on stderr counts as a failure")


def without_sources() -> None:
    with tempfile.TemporaryDirectory(prefix=".perfbench-selftest-", dir=run.ROOT) as tmp:
        root = Path(tmp)
        shutil.copy(run.ROOT / "BENCHMARK.json", root)
        shutil.copytree(run.BENCH, root / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
        proc = bench(root, 0)
    expect(proc.returncode != 0 and not proc.stdout.strip(), "no sources: non-zero exit and no result")


def main() -> int:
    smoke(0)
    smoke(1)
    negative()
    without_sources()
    print(f"{len(failures)} self-test failures")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
