"""springerc benchmark: time to a checked table, one CLI process per command.

Run from the repository root:

    python3 perfbench/run.py --workload table_rank --seed 1 --seconds 50 --trace 0
    python3 perfbench/run.py --record      # re-record the reference digests

Each command of a workload runs as a fresh `python -m springerc` process, as a
user runs it, so cold caches and interpreter start are part of the cost.  A
pass runs every command of the workload once, in an order drawn from the
seed, and checks every output (see checks.py and `evaluate`).  Passes repeat
until the next one would overrun `--seconds`; there is always at least one.
Commands are started by spawner.py, so that their max-RSS is their own, on
the CPU that is quickest at the moment (see `Runner.quiet_cpu`).

With `--trace 0` the result reports the end-to-end metrics: wall and CPU
time summed over the commands, each command at its fastest pass (see
`fastest`); the median over passes of the largest max-RSS of a command; and
the median start-up time of `python -m springerc --help`.  With `--trace 1`
untraced and traced passes alternate (traced_cli.py records the per-layer
numbers) and the result reports the per-layer metrics.  A human-readable
report goes to stdout first; the last line of stdout is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import checks
from traced_cli import LAYERS, MARKER

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
REFERENCE = BENCH / "reference.json"
OUTPUT_DIR = ROOT / ".bench_build" / "perfbench"
COMMAND_TIMEOUT_S = 150
SETUP_RUNS = 5
PROBE_LOOPS = 60000
QUIET_SLACK = 1.25
QUIET_WAIT_S = 1.0
QUIET_POLL_S = 0.02
CACHES = (
    "_partitions_desc",
    "_projector_int",
    "_split_coset_reps",
    "_sym_character_betas",
    "basis_positions",
    "character_table",
    "tensor_basis",
)


def htop_json(n: int, d: int) -> list[str]:
    return ["htop", "--n", str(n), "--d", str(d), "--format", "json"]


WORKLOADS = {
    # Large tensor space, small group: dense projectors and Bareiss ranks.
    "table_rank": [htop_json(2, 2), htop_json(2, 3), htop_json(3, 3), ["verify", "sw"]],
    # Interactive commands where process start-up is about half the cost.
    "lookup": [
        ["springer", "--d", "10", "--format", "tsv"],
        ["theta", "--n", "3", "--d", "5", "--format", "tsv"],
        ["verify", "all"],
        ["htop", "--n", "2", "--d", "3", "--orbit", "4,2", "--format", "json"],
        ["htop", "--n", "2", "--d", "2"],
    ],
    # The smallest setting of every command kind; used by selftest.py only.
    "smoke": [
        htop_json(1, 2),
        ["htop", "--n", "1", "--d", "2"],
        ["springer", "--d", "3", "--format", "tsv"],
        ["theta", "--n", "1", "--d", "2", "--format", "tsv"],
        ["verify", "springer"],
    ],
}
END_TO_END_UNITS = {"wall_s": "s", "cpu_s": "s", "peak_rss_mb": "MB", "setup_s": "s"}


def per_layer_units() -> dict[str, str]:
    units = {f"{layer}.self_s": "s" for layer in LAYERS}
    units["process.self_s"] = "s"
    units.update(
        {
            "exact.bareiss_calls": "count",
            "exact.bareiss_entries": "count",
            "exact.check_rank_frac": "frac",
            "tensor.graded_multiplicity_calls": "count",
            "tensor.w_action_monomial_calls": "count",
            "tensor.projector_entries": "count",
            "hyperoctahedral.character_table_s": "s",
            "hyperoctahedral.group_elements": "count",
            "hyperoctahedral.cycle_type_calls": "count",
            "springer.scans": "count",
            "springer.sorted_scans": "count",
            "partitions.calls": "count",
            "geometry.htop_reports": "count",
            "geometry.richardson_calls": "count",
            "verify.checks": "count",
            "cli.stdout_bytes": "bytes",
            "trace.overhead_frac": "frac",
        }
    )
    units.update({f"cache.{name}.hit_rate": "frac" for name in CACHES})
    return units


# -- one command -----------------------------------------------------------


@dataclass
class Outcome:
    argv: list[str]
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    stdout_bytes: int
    problems: list[str]
    trace: dict | None = None


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH", "")) if p
    )
    return env


def probe(cpu: int) -> float:
    """Time a short pure-Python loop on one CPU (this process moves there)."""
    os.sched_setaffinity(0, {cpu})
    start = time.perf_counter()
    total = 0
    for i in range(PROBE_LOOPS):
        total += i * i
    return time.perf_counter() - start


class Runner:
    """Runs CLI commands through one spawner.py process and checks them."""

    def __init__(self) -> None:
        OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
        self.stdout_path = OUTPUT_DIR / "stdout"
        self.stderr_path = OUTPUT_DIR / "stderr"
        self.cpus = os.sched_getaffinity(0)
        self.best_probe = float("inf")
        self.reference = load_reference()
        self.spawner = subprocess.Popen(
            [sys.executable, "-S", str(BENCH / "spawner.py"), str(self.stdout_path),
             str(self.stderr_path), str(COMMAND_TIMEOUT_S)],
            cwd=ROOT, env=child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )

    def close(self) -> None:
        self.spawner.stdin.close()
        self.spawner.stdout.close()
        self.spawner.wait()

    def __enter__(self) -> "Runner":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def quiet_cpu(self) -> int:
        """A CPU that is quick now, waiting up to QUIET_WAIT_S for one.

        On a shared host, co-tenants slow the CPUs of the box for seconds at
        a time, each CPU on its own.  A command starts on the CPU where a
        probe loop runs fastest, and only once that probe is within
        QUIET_SLACK of the fastest probe of this run, or the wait is over.
        Slow spells then stay out of most command times.
        """
        deadline = time.perf_counter() + QUIET_WAIT_S
        try:
            while True:
                elapsed, cpu = min((probe(cpu), cpu) for cpu in sorted(self.cpus))
                self.best_probe = min(self.best_probe, elapsed)
                if elapsed <= QUIET_SLACK * self.best_probe or time.perf_counter() > deadline:
                    return cpu
                time.sleep(QUIET_POLL_S)
        finally:
            os.sched_setaffinity(0, self.cpus)

    def run(self, argv: list[str], traced: bool) -> Outcome:
        """Run one CLI process and check its output; the wall time covers both."""
        if traced:
            program = [sys.executable, str(BENCH / "traced_cli.py")]
        else:
            program = [sys.executable, "-m", "springerc"]
        request = json.dumps({"argv": program + argv, "cpu": self.quiet_cpu()})
        start = time.perf_counter()
        self.spawner.stdin.write(request + "\n")
        self.spawner.stdin.flush()
        reply = json.loads(self.spawner.stdout.readline())
        out = self.stdout_path.read_bytes()
        err = self.stderr_path.read_text(errors="replace")
        trace = None
        if traced:
            err, marker, payload = err.rpartition(MARKER)
            trace = json.loads(payload) if marker else None
        problems = evaluate(argv, out, err, reply["status"], self.reference)
        if traced and trace is None:
            problems.append("traced run wrote no trace")
        return Outcome(
            argv=argv,
            wall_s=time.perf_counter() - start,
            cpu_s=reply["cpu_s"],
            maxrss_mb=reply["maxrss_kb"] / 1024,
            stdout_bytes=len(out),
            problems=problems,
            trace=trace,
        )


def evaluate(argv: list[str], out: bytes, err: str, returncode: int, reference: dict) -> list[str]:
    """Why this command failed: exit status, traceback, or a failed check."""
    problems = []
    if returncode != 0:
        problems.append(f"exit status {returncode}")
    if "Traceback (most recent call last)" in err:
        problems.append("traceback on stderr")
    if argv == ["--help"]:
        if not out.startswith(b"usage: springerc"):
            problems.append("--help printed no usage")
        return problems
    expected = reference.get(" ".join(argv))
    if expected is None:
        problems.append("no reference recorded for this command")
    elif hashlib.sha256(out).hexdigest() != expected:
        problems.append("stdout differs from the reference")
    try:
        problems.extend(semantic_check(argv, out.decode()))
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        problems.append(f"output could not be parsed: {exc!r}")
    return problems


def semantic_check(argv: list[str], text: str) -> list[str]:
    opts = {flag: value for flag, value in zip(argv[1:], argv[2:]) if flag.startswith("--")}
    n, d = int(opts.get("--n", 0)), int(opts.get("--d", 0))
    fmt = opts.get("--format", "pretty")
    if argv[0] == "htop" and fmt == "json":
        return checks.check_htop_json(text, n, d, opts.get("--orbit"))
    if argv[0] == "htop" and fmt == "pretty":
        return checks.check_htop_pretty(text, n, d)
    if argv[0] == "springer" and fmt == "tsv":
        return checks.check_springer_tsv(text, d)
    if argv[0] == "theta" and fmt == "tsv":
        return checks.check_theta_tsv(text, n, d)
    if argv[0] == "verify":
        return checks.check_verify(text)
    raise ValueError(f"no check for {argv}")


def load_reference() -> dict[str, str]:
    return json.loads(REFERENCE.read_text())


# -- passes ----------------------------------------------------------------


@dataclass
class Pass:
    """One run of every command of a workload, in the seed's order."""

    outcomes: list[Outcome]

    @property
    def failed(self) -> int:
        return sum(1 for o in self.outcomes if o.problems)

    @property
    def wall_s(self) -> float:
        return sum(o.wall_s for o in self.outcomes)

    @property
    def cpu_s(self) -> float:
        return sum(o.cpu_s for o in self.outcomes)

    @property
    def peak_rss_mb(self) -> float:
        return max(o.maxrss_mb for o in self.outcomes)


def run_pass(runner: Runner, commands: list[list[str]], traced: bool) -> Pass:
    return Pass([runner.run(argv, traced) for argv in commands])


def fastest(passes: list[Pass], attr: str) -> float:
    """Sum over the commands of each command's smallest value over the passes.

    Co-tenants on a shared host slow a process down, never speed it up, and
    they do so in bursts that last from a second to a minute.  The fastest
    run of each command is the estimate those bursts disturb least.
    """
    best: dict[tuple[str, ...], float] = {}
    for p in passes:
        for o in p.outcomes:
            key = tuple(o.argv)
            best[key] = min(best.get(key, float("inf")), getattr(o, attr))
    return sum(best.values())


def layer_metrics(traced: Pass) -> dict[str, float]:
    """Per-layer numbers of one traced pass, summed over its commands."""
    traces = [o.trace for o in traced.outcomes if o.trace]
    calls: dict[str, int] = {}
    counters: dict[str, float] = {}
    caches: dict[str, list[int]] = {name: [0, 0] for name in CACHES}
    self_s = dict.fromkeys(LAYERS, 0.0)
    for t in traces:
        for key, value in t["calls"].items():
            calls[key] = calls.get(key, 0) + value
        for key, value in t["counters"].items():
            counters[key] = counters.get(key, 0) + value
        for layer in LAYERS:
            self_s[layer] += t["self_s"][layer]
        for name, info in t["caches"].items():
            if name in caches:
                caches[name][0] += info["hits"]
                caches[name][1] += info["hits"] + info["misses"]
    entries = counters.get("exact.bareiss_entries", 0)
    out = {f"{layer}.self_s": value for layer, value in self_s.items()}
    out["process.self_s"] = sum(o.wall_s for o in traced.outcomes) - sum(t["main_s"] for t in traces)
    out.update(
        {
            "exact.bareiss_calls": calls.get("exact.bareiss_rank", 0),
            "exact.bareiss_entries": entries,
            "exact.check_rank_frac": counters.get("exact.check_entries", 0) / entries if entries else 0.0,
            "tensor.graded_multiplicity_calls": calls.get("tensor.graded_multiplicity", 0),
            "tensor.w_action_monomial_calls": calls.get("tensor.w_action_monomial", 0),
            "tensor.projector_entries": counters.get("tensor.projector_entries", 0),
            "hyperoctahedral.character_table_s": counters.get("hyperoctahedral.character_table_s", 0.0),
            "hyperoctahedral.group_elements": calls.get("hyperoctahedral.iter_group.yield", 0),
            "hyperoctahedral.cycle_type_calls": calls.get("hyperoctahedral.cycle_type", 0),
            "springer.scans": calls.get("springer.springer_orbit", 0),
            "springer.sorted_scans": counters.get("springer.sorted_scans", 0),
            "partitions.calls": sum(v for k, v in calls.items() if k.startswith("partitions.")),
            "geometry.htop_reports": calls.get("geometry.htop_report", 0),
            "geometry.richardson_calls": calls.get("geometry.richardson", 0),
            "verify.checks": calls.get("verify.CheckResult.__init__", 0),
            "cli.stdout_bytes": sum(o.stdout_bytes for o in traced.outcomes),
        }
    )
    for name, (hits, total) in caches.items():
        out[f"cache.{name}.hit_rate"] = hits / total if total else 0.0
    return out


# -- reporting -------------------------------------------------------------


def describe(name: str, value: float, unit: str, samples: list[float], how: str) -> str:
    q1, med, q3 = statistics.quantiles(samples, n=4) if len(samples) > 1 else samples * 3
    return (
        f"  {name:<36} {value:>12.6g} {unit:<6} {how}; samples: median {med:.6g}"
        f" q1 {q1:.6g} q3 {q3:.6g} n={len(samples)}"
    )


def write_trace(workload: str, metrics: dict, traced: Pass) -> Path:
    """Save the per-layer metrics and the cross-layer spans of a traced pass."""
    spans: dict[tuple[str, str], list] = {}
    for o in traced.outcomes:
        for span in o.trace["spans"] if o.trace else []:
            total = spans.setdefault((span["caller"], span["callee"]), [0, 0.0])
            total[0] += span["count"]
            total[1] += span["inclusive_s"]
    path = OUTPUT_DIR / f"trace-{workload}.json"
    path.write_text(json.dumps({
        "per_layer": metrics,
        "spans_of_last_traced_pass": [
            {"caller": caller, "callee": callee, "count": count, "inclusive_s": inclusive}
            for (caller, callee), (count, inclusive) in sorted(spans.items(), key=lambda kv: -kv[1][1])
        ],
    }, indent=1))
    return path


def measure(runner: Runner, workload: str, seed: int, seconds: float, trace: bool) -> tuple[dict, int, int]:
    rng = random.Random(seed)
    commands = WORKLOADS[workload]
    # One unmeasured start writes the bytecode caches, as a user's first run does.
    runner.run(["--help"], False)
    setups = [runner.run(["--help"], False) for _ in range(SETUP_RUNS)]
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    while True:
        setups.append(runner.run(["--help"], False))
        order = rng.sample(commands, len(commands))
        plain.append(run_pass(runner, order, False))
        if trace:
            traced.append(run_pass(runner, order, True))
        elapsed = time.perf_counter() - start
        if elapsed * (len(plain) + 1) / len(plain) > seconds:
            break

    fast = f"sum of per-command fastest of {len(plain)} passes"
    rows = {
        "wall_s": (fastest(plain, "wall_s"), fast, [p.wall_s for p in plain]),
        "cpu_s": (fastest(plain, "cpu_s"), fast, [p.cpu_s for p in plain]),
        "peak_rss_mb": (None, "median over passes", [p.peak_rss_mb for p in plain]),
        "setup_s": (None, "median of --help starts", [o.wall_s for o in setups]),
    }
    units = dict(END_TO_END_UNITS)
    if trace:
        units = per_layer_units()
        per_pass = [layer_metrics(p) for p in traced]
        rows = {
            name: (None, "median over traced passes", [m[name] for m in per_pass])
            for name in units
            if name != "trace.overhead_frac"
        }
        overhead = fastest(traced, "wall_s") / fastest(plain, "wall_s") - 1
        rows["trace.overhead_frac"] = (
            overhead, "fastest traced / fastest untraced - 1", [t.wall_s / p.wall_s - 1 for t, p in zip(traced, plain)]
        )
    metrics = {}
    print(f"workload {workload}  seed {seed}  passes {len(plain)}  commands/pass {len(commands)}")
    for name, (value, how, samples) in rows.items():
        value = statistics.median(samples) if value is None else value
        metrics[name] = {"value": value, "unit": units[name]}
        print(describe(name, value, units[name], samples, how))
    if trace:
        in_layers = sum(metrics[f"{layer}.self_s"]["value"] for layer in LAYERS)
        print(
            f"  layers {in_layers:.3f} s + process {metrics['process.self_s']['value']:.3f} s"
            f" of traced pass wall {statistics.median(t.wall_s for t in traced):.3f} s"
        )
        path = write_trace(workload, metrics, traced[-1])
        print(f"  per-layer metrics and cross-layer spans written to {path.relative_to(ROOT)}")
    outcomes = setups + [o for p in plain + traced for o in p.outcomes]
    failures = [o for o in outcomes if o.problems]
    print(f"  fail_frac {len(failures)}/{len(outcomes)}")
    for o in failures:
        print(f"  FAILED {' '.join(o.argv)}: {'; '.join(o.problems)}")
    return metrics, len(outcomes), len(failures)


def record() -> int:
    """Write the stdout digest of every workload command to reference.json."""
    env = child_env()
    digests = {}
    for argv in sorted({tuple(a) for cmds in WORKLOADS.values() for a in cmds}):
        proc = subprocess.run(
            [sys.executable, "-m", "springerc", *argv], cwd=ROOT, env=env, capture_output=True
        )
        problems = semantic_check(list(argv), proc.stdout.decode())
        if proc.returncode or problems:
            print(f"not recorded, {' '.join(argv)} failed: {problems}", file=sys.stderr)
            return 1
        digests[" ".join(argv)] = hashlib.sha256(proc.stdout).hexdigest()
    REFERENCE.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", action="store_true", help="re-record reference.json")
    args = parser.parse_args()
    if not (ROOT / "src" / "springerc" / "cli.py").is_file():
        print(f"no springerc sources under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    if args.record:
        return record()
    if args.workload is None:
        parser.error("--workload is required")
    with Runner() as runner:
        metrics, attempted, failed = measure(runner, args.workload, args.seed, args.seconds, bool(args.trace))
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
