"""Command-line interface: ``springerc {springer,htop,theta,verify} ...``, read by parse_args.

Exit codes: 0 success, 1 verification failure, 2 resource bound exceeded, 3 invalid input (a
malformed command line included), 4 internal self-check failed (a bug, never the input's
fault), 141 stdout closed, at the start or by the reader (128 + SIGPIPE, as a shell reports
it).  All output is deterministic; no command writes it a line at a time.  The table writers
of springer, htop and theta are in tables.py, which only those commands load.
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


def cmd_verify(args) -> int:
    from .verify import run_suite

    results = run_suite(args["suite"])
    failed = [r for r in results if not r.ok]
    summary = f"{len(results) - len(failed)}/{len(results)} checks passed\n"
    sys.stdout.write("".join(res.line() + "\n" for res in results) + summary)
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
    try:  # flushed: a gone stdout reader raises in main; a broken stderr changes no exit code
        print(" ".join(words), text, sep="\n", file=sys.stderr if error else sys.stdout, flush=True)
    except (OSError if error else ()):
        pass
    raise SystemExit(EXIT_BAD_INPUT if error else EXIT_OK)


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
    try:
        command, args = parse_args(sys.argv[1:] if argv is None else list(argv))
        if command == "verify":
            status = cmd_verify(args)
        else:
            from . import tables

            status = getattr(tables, "cmd_" + command)(args)
        sys.stdout.flush()
        return status
    except BrokenPipeError:
        # Point stdout at devnull so the interpreter's final flush stays quiet.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_BROKEN_PIPE
    except CostBoundExceeded as exc:
        status, message = EXIT_RESOURCE, f"resource bound: {exc}"
    except ArithmeticError as exc:
        status, message = EXIT_SELF_CHECK, f"self-check failed: {exc}"
    except ValueError as exc:
        status, message = EXIT_BAD_INPUT, f"error: {exc}"
    try:
        print(message, file=sys.stderr)
    except OSError:  # a broken stderr changes no exit code
        pass
    return status


if __name__ == "__main__":
    raise SystemExit(main())
