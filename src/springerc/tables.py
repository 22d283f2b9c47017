"""The writers of the `springer`, `htop` and `theta` tables, in pretty, tsv and json.

Only those three commands load this module, so `--help` and `verify` compile
none of it.  Each cmd_ function writes its table to stdout, cmd_theta by
handing off to theta.write_table, and returns the exit status 0.  No table
is written a line at a time (see _write_blocks), and json is written by
_json_pieces, which gives the text of ``json.dumps(value, indent=2)``
without loading `json`.  Every string a table holds is a label's text, a
comma-joined list of integers or a fixed key, so the writer takes only
strings that need no escape and refuses any other.
"""

from __future__ import annotations

import sys

WRITE_CHARS = 1 << 16  # a block closes once it holds this many characters


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


def _quote(text: str) -> str:
    """A json string; refuses a non-str and any str json would escape (no table holds one)."""
    if not (str.isascii(text) and text.isprintable()) or '"' in text or "\\" in text:
        raise TypeError(f"{text!r} is not written as json")
    return f'"{text}"'


def _json_text(value, indent: str = "\n") -> str:
    """The text of json.dumps(value, indent=2) for None, a bool, an int, a str, a list or a dict."""
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    if isinstance(value, str):
        return _quote(value)
    inner = indent + "  "
    if isinstance(value, dict):
        items = [_quote(key) + ": " + _json_text(item, inner) for key, item in value.items()]
        return "{" + inner + ("," + inner).join(items) + indent + "}" if items else "{}"
    if isinstance(value, list):
        items = [_json_text(item, inner) for item in value]
        return "[" + inner + ("," + inner).join(items) + indent + "]" if items else "[]"
    raise TypeError(f"{type(value).__name__} is not written as json")


def _json_pieces(value, indent: str = "\n"):
    """Yield _json_text(value) in pieces, one per item of a nonempty list or dict.

    The items of a list it holds are pieces too, recursively, so a table of
    records streams a record at a time; any other item is one piece.
    """
    if not value or not isinstance(value, (list, dict)):
        yield _json_text(value, indent)
        return
    inner = indent + "  "
    if isinstance(value, dict):
        opener, closer = "{", "}"
        items = ((_quote(key) + ": ", item) for key, item in value.items())
    else:
        opener, closer, items = "[", "]", (("", item) for item in value)
    separator = opener + inner
    for prefix, item in items:
        if item and isinstance(item, list):
            yield separator + prefix
            yield from _json_pieces(item, inner)
        else:
            yield separator + prefix + _json_text(item, inner)
        separator = "," + inner
    yield indent + closer


def _print_json(payload) -> None:
    _write_blocks(_json_pieces(payload))
    sys.stdout.write("\n")


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
    return 0


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
        return 0
    if args["format"] == "tsv":
        header = ["orbit", "component", "degree", "htop", "orbit_total"]
        rows = [
            [str(r.orbit), str(dcomp), _degree(degree), str(mult), str(r.total)]
            for r in reports
            for dcomp, degree, mult in r.components
        ]
        sys.stdout.write(_format_table(header, rows, "tsv"))
        return 0

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
    return 0


def cmd_theta(args) -> int:
    from .labels import SymComposition
    from .theta import write_table

    dcomp = None if args["component"] is None else SymComposition.from_string(args["component"])
    write_table(args["n"], args["d"], dcomp, args["format"])
    return 0
