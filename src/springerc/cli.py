"""Command-line interface.

Subcommands:

* ``springer --d D``: the correspondence table (bipartition, dim, orbit)
* ``htop --n N --d D [--orbit P]``: predicted top-homology dimensions
* ``theta --n N --d D [--component C]``: the 0/1 flag matrices with their
  tensor indices and gradings
* ``verify [suite]``: run a verification suite (sw, springer, geometry,
  characters, all)

Exit codes: 0 success, 1 verification failure, 2 resource bound exceeded,
3 invalid input (a malformed command line included), 4 internal self-check
failed (a bug, never the input's fault), 141 the reader closed stdout early
(128 + SIGPIPE, as a shell reports it).  All output is deterministic.

Each process runs one command, so each command imports the modules it
needs when it runs: ``--help`` loads no engine, and ``htop``, ``springer``
and ``theta`` never load the tensor, group or exact-matrix code.  ``theta``
writes its rows as the flag matrices are built, so its tsv and pretty
tables take constant memory.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys

from .limits import CostBoundExceeded

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_RESOURCE = 2
EXIT_BAD_INPUT = 3
EXIT_SELF_CHECK = 4
EXIT_BROKEN_PIPE = 141

WRITE_BLOCK = 1024  # at most this many rows (or JSON tokens) per stdout write
WRITE_CHARS = 1 << 16  # a block closes once it holds this many characters


def _character_name(rho) -> str:
    """Human-readable names for the recognizable characters, else '-'."""
    d = rho.size()
    if d == 0:
        return "triv"
    if not rho.first:
        if rho.second == (d,):
            return "triv"
        if rho.second == (1,) * d:
            return "ssign"
    if not rho.second:
        if rho.first == (d,):
            return "lsign"
        if rho.first == (1,) * d:
            return "sign"
    if rho.first == (1,) and rho.second == (d - 1,):
        return "refl"
    return "-"


def _write_blocks(chunks) -> None:
    """Write the strings to stdout, joined into blocks of at most WRITE_BLOCK.

    Stdout may be unbuffered (PYTHONUNBUFFERED), where every write is a
    system call, so a row-at-a-time table would pay one per row.  A block
    also closes at WRITE_CHARS characters, so wide rows never build a
    string much longer than that.
    """
    chunks = iter(chunks)
    for first in chunks:
        block = [first]
        size = len(first)
        for chunk in itertools.islice(chunks, WRITE_BLOCK - 1):
            block.append(chunk)
            size += len(chunk)
            if size >= WRITE_CHARS:
                break
        sys.stdout.write("".join(block))


def _print_json(payload) -> None:
    import json

    _write_blocks(json.JSONEncoder(indent=2).iterencode(payload))
    sys.stdout.write("\n")


def _format_table(header: list[str], rows: list[list[str]], fmt: str) -> str:
    if fmt == "tsv":
        lines = ["\t".join(header)]
        lines.extend("\t".join(row) for row in rows)
        return "\n".join(lines) + "\n"
    widths = [
        max(len(header[i]), *(len(r[i]) for r in rows)) if rows else len(header[i])
        for i in range(len(header))
    ]
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for row in rows:
        lines.append("  ".join(x.ljust(w) for x, w in zip(row, widths)).rstrip())
    return "\n".join(lines) + "\n"


def cmd_springer(args) -> int:
    from .partitions import check_htop_work, enumerate_bipartitions, irr_dim
    from .springer import springer_orbit

    d = args.d
    if d < 0:
        raise ValueError("--d must be nonnegative")
    check_htop_work(0, d)
    rows = [
        (rho, irr_dim(rho), str(springer_orbit(rho))) for rho in enumerate_bipartitions(d)
    ]
    if args.format == "json":
        _print_json([{"label": str(rho), "dim": dim, "orbit": orbit} for rho, dim, orbit in rows])
    elif args.format == "tsv":
        table = [[str(rho), str(dim), orbit] for rho, dim, orbit in rows]
        sys.stdout.write(_format_table(["label", "dim", "orbit"], table, "tsv"))
    else:
        table = [[_character_name(rho), str(rho), str(dim), orbit] for rho, dim, orbit in rows]
        sys.stdout.write(_format_table(["name", "label", "dim", "orbit"], table, "pretty"))
    return EXIT_OK


def _degree(report, dcomp) -> str:
    degree = report.degrees[dcomp]
    return "-" if degree is None else str(degree)


def cmd_htop(args) -> int:
    from .geometry import htop_table, orbit_dim
    from .partitions import Partition

    orbit = None if args.orbit is None else Partition.from_string(args.orbit)
    reports = htop_table(args.n, args.d, orbit)
    if args.format == "json":
        _print_json([r.to_json_dict() for r in reports])
        return EXIT_OK
    if args.format == "tsv":
        header = ["orbit", "component", "degree", "htop", "orbit_total"]
        rows = [
            [str(r.orbit), str(dcomp), _degree(r, dcomp), str(mult), str(r.total)]
            for r in reports
            for dcomp, mult in r.per_component.items()
        ]
        sys.stdout.write(_format_table(header, rows, "tsv"))
        return EXIT_OK
    for r in reports:
        print(f"orbit {r.orbit}  (dim {orbit_dim(r.orbit)})")
        if r.contributing:
            for rho, dual, dim in r.contributing:
                print(f"  from {rho}  (dual {dual}, dim {dim})")
        else:
            print("  no contributing labels")
        rows = [
            [str(dcomp), _degree(r, dcomp), str(mult)] for dcomp, mult in r.per_component.items()
        ]
        block = _format_table(["component", "degree", "htop"], rows, "pretty")
        sys.stdout.write("  " + block.replace("\n", "\n  ").rstrip() + "\n")
        print(f"  total {r.total}")
    return EXIT_OK


def cmd_theta(args) -> int:
    from functools import lru_cache
    from operator import add

    from .geometry import flag_halves, iter_flag_matrices
    from .partitions import SymComposition

    dcomp = None if args.component is None else SymComposition.from_string(args.component)
    d, big_n = args.d, 2 * args.n + 1
    # Every check runs here, before the first byte of output.
    if args.format == "tsv":
        left, right = flag_halves(args.n, d, dcomp)
    else:
        flags = iter_flag_matrices(args.n, d, dcomp)
    # json and pretty fill one %-template per row, built once per command.
    chi = ",".join(["%d"] * d)
    # Few distinct gradings occur, so each is formatted once; with no right
    # half (d <= 1) every flag has its own, so none is kept.
    cached = lru_cache(maxsize=None if d > 1 else 0)
    frame = "\t%s\n" if args.format == "tsv" else "%s"  # a tsv grading ends its row

    @cached
    def grading(sums) -> str:
        return frame % ",".join(map(str, sums))

    if args.format == "json":
        matrices = [
            {"columns": list(cols), "chi": chi % cols[:d], "grading": grading(sums)}
            for cols, sums in flags
        ]
        _print_json({"count": len(matrices), "matrices": matrices})
        return EXIT_OK

    def tsv():
        # A row is head + middle + head_mirror + tab + head + chi_tail +
        # grading; each right half has its middle and chi_tail.
        pieces = []
        for tail, mirror, _ in right:
            middle = ",".join(["", *map(str, tail + mirror), ""]) if d else ""
            pieces.append((middle, "".join(f",{v}" for v in tail)))

        @cached
        def row_gradings(left_sums):
            # None marks a right half whose sum with left_sums is not the component.
            sums = [tuple(map(add, left_sums, right_sums)) for _, _, right_sums in right]
            return [grading(s) if dcomp is None or s == dcomp else None for s in sums]

        yield "columns\tchi\tgrading\n"
        count = 0
        for head, head_mirror, left_sums in left:
            text = ",".join(map(str, head))
            after = ",".join(map(str, head_mirror)) + "\t" + text
            for (middle, chi_tail), ending in zip(pieces, row_gradings(left_sums)):
                if ending is not None:
                    count += 1
                    yield text + middle + after + chi_tail + ending
        yield f"count\t{count}\t\n"

    def pretty():
        # The grid has N lines of 2d cells; column j's 1 sits in line cols[j].
        header = "matrix %d: chi " + chi + "  grading %s\n"
        grid = ("  " + " ".join(["%s"] * 2 * d) + "\n") * big_n
        zeros = ["0"] * (big_n * 2 * d)
        count = 0
        for count, (cols, sums) in enumerate(flags, 1):
            cells = zeros.copy()
            for j, r in enumerate(cols):
                cells[(r - 1) * 2 * d + j] = "1"
            yield header % (count, *cols[:d], grading(sums)) + grid % tuple(cells)
        yield f"count {count}\n"

    _write_blocks(tsv() if args.format == "tsv" else pretty())
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suite

    results = run_suite(args.suite)
    for res in results:
        print(res.line())
    failed = [r for r in results if not r.ok]
    print(f"{len(results) - len(failed)}/{len(results)} checks passed")
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A usage error is invalid input, so it exits 3; exit 2 means a resource bound."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="springerc",
        description="Exact top Borel-Moore homology dimensions of type-C partial Springer fibers",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("springer", help="print the correspondence table")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--format", choices=("json", "tsv", "pretty"), default="pretty")
    p.set_defaults(func=cmd_springer)

    p = sub.add_parser("htop", help="predicted top-homology dimensions per orbit")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--orbit", help="restrict to one type-C partition, e.g. 2,1,1")
    p.add_argument("--format", choices=("json", "tsv", "pretty"), default="pretty")
    p.set_defaults(func=cmd_htop)

    p = sub.add_parser("theta", help="list the coordinate-flag 0/1 matrices")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--component", help="restrict to one component, e.g. 0,0,4,0,0")
    p.add_argument("--format", choices=("json", "tsv", "pretty"), default="pretty")
    p.set_defaults(func=cmd_theta)

    p = sub.add_parser("verify", help="run a verification suite")
    p.add_argument(
        "suite",
        nargs="?",
        default="all",
        choices=("sw", "springer", "geometry", "characters", "all"),
    )
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        status = args.func(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except CostBoundExceeded as exc:
        print(f"resource bound: {exc}", file=sys.stderr)
        return EXIT_RESOURCE
    except ArithmeticError as exc:
        print(f"self-check failed: {exc}", file=sys.stderr)
        return EXIT_SELF_CHECK
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    raise SystemExit(main())
