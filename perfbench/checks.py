"""Output checks for the springerc CLI that share no code with the engine.

Every check parses the text a command printed and tests an identity that
holds independently of how springerc computes it.  Nothing here imports
springerc.  Each check returns a list of problems; an empty list means the
output passed.
"""

from __future__ import annotations

import json
import re
from math import comb, factorial, prod


def parse_partition(text: str) -> tuple[int, ...]:
    text = text.strip()
    if text in ("-", ""):
        return ()
    return tuple(int(tok) for tok in text.split(","))


def parse_bipartition(text: str) -> tuple[tuple[int, ...], tuple[int, ...]]:
    first, second = text.split("|")
    return parse_partition(first), parse_partition(second)


def standard_tableaux(shape: tuple[int, ...]) -> int:
    """f^shape by the hook-length formula."""
    if not shape:
        return 1
    cols = [sum(1 for part in shape if part > j) for j in range(shape[0])]
    hooks = prod(
        (part - j - 1) + (cols[j] - i - 1) + 1
        for i, part in enumerate(shape)
        for j in range(part)
    )
    return factorial(sum(shape)) // hooks


def irr_dim(label: str) -> int:
    """Dimension of the hyperoctahedral irreducible mu|nu: C(d,|mu|) f^mu f^nu."""
    mu, nu = parse_bipartition(label)
    d = sum(mu) + sum(nu)
    return comb(d, sum(mu)) * standard_tableaux(mu) * standard_tableaux(nu)


def is_type_c(parts: tuple[int, ...]) -> bool:
    """Weakly decreasing, and every odd part occurs an even number of times."""
    if any(a < b for a, b in zip(parts, parts[1:])) or any(p <= 0 for p in parts):
        return False
    return all(parts.count(p) % 2 == 0 for p in set(parts) if p % 2)


def type_c_partitions(total: int) -> set[tuple[int, ...]]:
    out = set()

    def grow(rest: int, cap: int, acc: tuple[int, ...]) -> None:
        if rest == 0:
            if is_type_c(acc):
                out.add(acc)
            return
        for part in range(min(rest, cap), 0, -1):
            grow(rest - part, part, acc + (part,))

    grow(total, total, ())
    return out


def check_htop_json(text: str, n: int, d: int, orbit: str | None) -> list[str]:
    """Per orbit the components sum to the total and empty fibers carry 0;
    over all orbits sum irr_dim(rho_dual) * dim = (2n+1)^d."""
    problems = []
    try:
        reports = json.loads(text)
    except json.JSONDecodeError as exc:
        return [f"htop output is not JSON: {exc}"]
    weighted = 0
    orbits = set()
    for rep in reports:
        parts = parse_partition(rep["orbit"])
        orbits.add(parts)
        if sum(parts) != 2 * d or not is_type_c(parts):
            problems.append(f"orbit {rep['orbit']} is not a type-C partition of {2 * d}")
        comp_sum = sum(c["htop"] for c in rep["components"])
        contrib_sum = sum(c["dim"] for c in rep["contributing"])
        if not comp_sum == contrib_sum == rep["total"]:
            problems.append(
                f"orbit {rep['orbit']}: components {comp_sum}, contributions "
                f"{contrib_sum}, total {rep['total']}"
            )
        for c in rep["components"]:
            if c["degree"] is None and c["htop"] != 0:
                problems.append(f"orbit {rep['orbit']}: empty component {c['d']} carries {c['htop']}")
        weighted += sum(irr_dim(c["rho_dual"]) * c["dim"] for c in rep["contributing"])
    if orbit is None:
        if orbits != type_c_partitions(2 * d):
            problems.append(f"orbit set is not the type-C partitions of {2 * d}")
        if weighted != (2 * n + 1) ** d:
            problems.append(f"sum of irr_dim * dim is {weighted}, expected {(2 * n + 1) ** d}")
    elif orbits != {parse_partition(orbit)}:
        problems.append(f"expected only orbit {orbit}")
    return problems


_FROM_LINE = re.compile(r"^  from (\S+)  \(dual (\S+), dim (\d+)\)$")
_TOTAL_LINE = re.compile(r"^  total (\d+)$")


def check_htop_pretty(text: str, n: int, d: int) -> list[str]:
    """The same weighted-dimension identity, read off the pretty layout."""
    weighted = sum(
        irr_dim(m.group(2)) * int(m.group(3))
        for m in map(_FROM_LINE.match, text.splitlines())
        if m
    )
    orbits = sum(1 for line in text.splitlines() if line.startswith("orbit "))
    totals = sum(1 for line in text.splitlines() if _TOTAL_LINE.match(line))
    problems = []
    if orbits != len(type_c_partitions(2 * d)) or totals != orbits:
        problems.append(f"{orbits} orbit headers and {totals} totals")
    if weighted != (2 * n + 1) ** d:
        problems.append(f"sum of irr_dim * dim is {weighted}, expected {(2 * n + 1) ** d}")
    return problems


def check_springer_tsv(text: str, d: int) -> list[str]:
    """Dims match the hook formula, sum dim^2 = 2^d d!, orbits are type-C of 2d."""
    lines = text.splitlines()
    if not lines or lines[0] != "label\tdim\torbit":
        return ["springer table header missing"]
    problems = []
    square_sum = 0
    for line in lines[1:]:
        label, dim, orbit = line.split("\t")
        square_sum += int(dim) ** 2
        if int(dim) != irr_dim(label):
            problems.append(f"{label}: dim {dim}, hook formula gives {irr_dim(label)}")
        parts = parse_partition(orbit)
        if sum(parts) != 2 * d or not is_type_c(parts):
            problems.append(f"{label}: orbit {orbit} is not a type-C partition of {2 * d}")
    if square_sum != 2**d * factorial(d):
        problems.append(f"sum of dim^2 is {square_sum}, expected {2**d * factorial(d)}")
    return problems


def check_theta_tsv(text: str, n: int, d: int) -> list[str]:
    """One row per flag matrix, and the count is N^d."""
    lines = text.splitlines()
    expected = (2 * n + 1) ** d
    problems = []
    if lines[-1] != f"count\t{expected}\t":
        problems.append(f"count line {lines[-1]!r}, expected {expected}")
    if len(lines) != expected + 2:
        problems.append(f"{len(lines) - 2} matrix rows, expected {expected}")
    return problems


_VERIFY_LAST = re.compile(r"^(\d+)/(\d+) checks passed$")


def check_verify(text: str) -> list[str]:
    """The final line reads k/k checks passed, with one line per check."""
    lines = text.splitlines()
    m = _VERIFY_LAST.match(lines[-1]) if lines else None
    if not m or m.group(1) != m.group(2):
        return [f"verify summary {lines[-1] if lines else ''!r}"]
    if int(m.group(2)) != len(lines) - 1:
        return [f"verify lists {len(lines) - 1} checks but reports {m.group(2)}"]
    return []
