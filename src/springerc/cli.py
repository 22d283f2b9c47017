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
needs when it runs: ``--help`` loads no engine; ``htop``, ``springer`` and
``theta`` never load the tensor, group or exact-matrix code; ``theta``
loads neither the Kostka engine nor the Springer map; each ``verify``
suite loads its own engines.  No command writes its output a line at a
time (see _write_blocks).
"""

from __future__ import annotations

import argparse
import os
import sys

from .limits import CostBoundExceeded

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_RESOURCE = 2
EXIT_BAD_INPUT = 3
EXIT_SELF_CHECK = 4
EXIT_BROKEN_PIPE = 141

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
    """Write the strings to stdout, joined into blocks of about WRITE_CHARS.

    Stdout may be unbuffered (PYTHONUNBUFFERED), where every write is a
    system call, so a row-at-a-time table would pay one per row.  A block
    closes at the chunk that brings it to WRITE_CHARS characters, so wide
    rows never build a string much longer than that.
    """
    block, size = [], 0
    for chunk in chunks:
        block.append(chunk)
        size += len(chunk)
        if size >= WRITE_CHARS:
            sys.stdout.write("".join(block))
            block, size = [], 0
    if block:
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


def _degree(degree) -> str:
    return "-" if degree is None else str(degree)


def cmd_htop(args) -> int:
    from .geometry import htop_table, orbit_dim
    from .labels import Partition

    orbit = None if args.orbit is None else Partition.from_string(args.orbit)
    reports = htop_table(args.n, args.d, orbit)
    if args.format == "json":
        # A named tuple would go to json as an array, so each report is a dict.
        _print_json(
            [
                {
                    "orbit": str(r.orbit),
                    "contributing": [
                        {"rho": str(rho), "rho_dual": str(dual), "dim": dim}
                        for rho, dual, dim in r.contributing
                    ],
                    "components": [
                        {"d": str(dcomp), "degree": degree, "htop": mult}
                        for dcomp, degree, mult in r.components
                    ],
                    "total": r.total,
                }
                for r in reports
            ]
        )
        return EXIT_OK
    if args.format == "tsv":
        header = ["orbit", "component", "degree", "htop", "orbit_total"]
        rows = [
            [str(r.orbit), str(dcomp), _degree(degree), str(mult), str(r.total)]
            for r in reports
            for dcomp, degree, mult in r.components
        ]
        sys.stdout.write(_format_table(header, rows, "tsv"))
        return EXIT_OK

    def pretty():
        for r in reports:
            yield f"orbit {r.orbit}  (dim {orbit_dim(r.orbit)})\n"
            if r.contributing:
                for rho, dual, dim in r.contributing:
                    yield f"  from {rho}  (dual {dual}, dim {dim})\n"
            else:
                yield "  no contributing labels\n"
            rows = [[str(dcomp), _degree(deg), str(mult)] for dcomp, deg, mult in r.components]
            block = _format_table(["component", "degree", "htop"], rows, "pretty")
            yield "  " + block.replace("\n", "\n  ").rstrip() + "\n"
            yield f"  total {r.total}\n"

    _write_blocks(pretty())
    return EXIT_OK


def cmd_theta(args) -> int:
    from .labels import SymComposition
    from .theta import write_table

    dcomp = None if args.component is None else SymComposition.from_string(args.component)
    write_table(args.n, args.d, dcomp, args.format)
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suite

    results = run_suite(args.suite)
    failed = [r for r in results if not r.ok]
    summary = f"{len(results) - len(failed)}/{len(results)} checks passed\n"
    _write_blocks([*(res.line() + "\n" for res in results), summary])
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


class _Parser(argparse.ArgumentParser):
    """A usage error is invalid input, so it exits 3; exit 2 means a resource bound."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_BAD_INPUT, f"{self.prog}: error: {message}\n")

    def _get_values(self, action, arg_strings):
        value = super()._get_values(action, arg_strings)
        if action.nargs is None and isinstance(value, list):
            # `--d=--`: argparse drops the "--" and would pass on an empty list.
            raise argparse.ArgumentError(action, "expected one argument")
        return value


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
