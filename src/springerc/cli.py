"""Command-line interface: ``springerc {springer,htop,theta,verify} ...``, read by parse_args.

Exit codes: 0 success, 1 verification failure, 2 resource bound exceeded, 3 invalid input (a
malformed command line included), 4 internal self-check failed (a bug, never the input's
fault), 141 stdout closed, at the start or by the reader (128 + SIGPIPE, as a shell reports
it).  All output is deterministic; no command writes it a line at a time (see _write_blocks).
"""

from __future__ import annotations

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

    d = args["d"]
    if d < 0:
        raise ValueError("--d must be nonnegative")
    check_htop_work(0, d)
    rows = [
        (rho, irr_dim(rho), str(springer_orbit(rho))) for rho in enumerate_bipartitions(d)
    ]
    if args["format"] == "json":
        _print_json([{"label": str(rho), "dim": dim, "orbit": orbit} for rho, dim, orbit in rows])
    elif args["format"] == "tsv":
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

    orbit = None if args["orbit"] is None else Partition.from_string(args["orbit"])
    reports = htop_table(args["n"], args["d"], orbit)
    if args["format"] == "json":
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
    if args["format"] == "tsv":
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

    dcomp = None if args["component"] is None else SymComposition.from_string(args["component"])
    write_table(args["n"], args["d"], dcomp, args["format"])
    return EXIT_OK


def cmd_verify(args) -> int:
    from .verify import run_suite

    results = run_suite(args["suite"])
    failed = [r for r in results if not r.ok]
    summary = f"{len(results) - len(failed)}/{len(results)} checks passed\n"
    _write_blocks([*(res.line() + "\n" for res in results), summary])
    return EXIT_VERIFY_FAILED if failed else EXIT_OK


REQUIRED = object()
FORMAT = (("json", "tsv", "pretty"), "pretty")
SUITES = ("sw", "springer", "geometry", "characters", "all")  # so --help compiles no verify.py
N_D = {"--n": (int, REQUIRED), "--d": (int, REQUIRED)}
# {command: (summary, {argument: (int, str or its choices; default or REQUIRED)})}.  An argument
# named without "--" is a positional, and so is the command itself (TOP).
COMMANDS = {
    "springer": ("the correspondence table", {"--d": (int, REQUIRED), "--format": FORMAT}),
    "htop": ("top homology by orbit", {**N_D, "--orbit": (str, None), "--format": FORMAT}),
    "theta": ("the 0/1 flag matrices", {**N_D, "--component": (str, None), "--format": FORMAT}),
    "verify": ("run verification suites", {"suite": (SUITES, "all")}),
}
TOP = {"command": (tuple(COMMANDS), REQUIRED)}
HELP = ("-h", "--help")


def _exit(command, error=None):
    """Help and exit 0, or the usage and the error on stderr and exit 3 (2 is a resource bound)."""
    words = [f"usage: springerc {command or ''}".rstrip(), "[-h]"]
    for name, (kind, default) in (COMMANDS[command][1] if command else TOP).items():
        word = "{" + ",".join(kind) + "}" if isinstance(kind, tuple) else name[2:].upper()
        word = f"{name} {word}" if name[0] == "-" else word
        words.append(word if default is REQUIRED else f"[{word}]")
    rows = "\n".join(f"  {name:<9} {summary}" for name, (summary, _) in COMMANDS.items())
    text = f"springerc: error: {error}" if error else COMMANDS[command][0] if command else rows
    print(" ".join(words), text, sep="\n", file=sys.stderr if error else sys.stdout, flush=True)
    raise SystemExit(EXIT_BAD_INPUT if error else EXIT_OK)  # flushed: a gone reader raises in main


def _read(command, token, names):
    """None for a value, else (the option named, or None if unknown; the value attached)."""
    if token == "--" or token[:2] == "-h":  # -h takes the rest of its token
        return token[:2], token[3:] if token[2:3] == "=" else token[2:] or None
    if token[:1] != "-" or token == "-":
        return None
    prefix, eq, attached = token.partition("=")
    hits = [name for name in names if name.startswith(prefix)] if token[1] == "-" else []
    if len(hits) > 1:
        _exit(command, f"ambiguous option: {token} could match {', '.join(hits)}")
    if hits:
        return hits[0], attached if eq else None
    import re  # an unknown option is a value if it looks like a negative number or holds a space
    return None if re.match(r"^-\d+$|^-\d*\.\d+$", token) or " " in token else (None, token)


def parse_args(argv) -> tuple:
    """(command, {argument: value}) from a command line.

    ``--opt value``, ``--opt=value`` or a unique prefix of ``--opt``; negative numbers and
    ``-`` are values, ``--`` ends the options, and the last repeat wins, as in the parser
    tests/oracles.py keeps.  Help exits 0 and a usage error 3, by SystemExit, at the token
    that shows it; a missing option or an unknown token is refused at the end.
    """
    command, spec, args, free, extras, i = None, TOP, {"command": REQUIRED}, ["command"], [], 0
    read = [None if token == "--" else _read(None, token, HELP) for token in argv]
    while i < len(argv):
        token, option = argv[i], read[i]
        name, text = option or (free.pop() if free else None, token)  # free: unfilled positionals
        i += 1
        if name is None:
            extras.append(token)
        elif name in HELP:  # -hh is -h twice; any other value attached to help is refused
            attached = text is not None and (name == "--help" or not text or text.strip("h"))
            _exit(command, f"{name} takes no value" if attached else None)
        elif option and name in spec and text is None and i < len(argv) and read[i] is None:
            text, i = argv[i], i + 1
        if name in spec:
            if option and text in (None, "--"):
                _exit(command, f"{name} takes one value")
            kind = spec[name][0]
            try:  # tuple.index raises ValueError for a value that is none of the choices
                args[name] = kind[kind.index(text)] if isinstance(kind, tuple) else kind(text)
            except ValueError:
                _exit(command, f"{name}: invalid value {text!r}")
        if name == "command":
            command, spec = text, COMMANDS[text][1]
            args = {name: default for name, (_, default) in spec.items()}
            free = [name for name in spec if name[0] != "-"]
            # All the command's tokens are read first, so an ambiguous prefix is refused first;
            # after "--" each is a value, as is "--" itself unless a positional can take one.
            dash = argv.index("--", i) if "--" in argv[i:] else len(argv)
            read[i:] = [_read(command, t, (*HELP, *spec)) for t in argv[i : dash + bool(free)]]
            read += [None] * (len(argv) - len(read))
    missing = [name for name, value in args.items() if value is REQUIRED]
    if missing or extras:
        _exit(command, f"missing {' '.join(missing)}" if missing else f"unrecognized {extras}")
    return command, {name.lstrip("-"): value for name, value in args.items()}


def main(argv=None) -> int:
    if sys.stdout is None:  # started with stdout closed, as by `springerc verify >&-`
        return EXIT_BROKEN_PIPE
    sys.stderr = sys.stderr or open(os.devnull, "w")  # else print(file=None) writes to stdout
    run = {"springer": cmd_springer, "htop": cmd_htop, "theta": cmd_theta, "verify": cmd_verify}
    try:
        command, args = parse_args(sys.argv[1:] if argv is None else list(argv))
        status = run[command](args)
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
