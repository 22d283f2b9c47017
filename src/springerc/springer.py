"""The combinatorial type-C Springer correspondence.

A bipartition (lambda, mu) is interleaved into a single sequence nu with mu
on the odd positions and lambda on the even ones, then a left-to-right scan
converts nu into a type-C partition by three mutually exclusive rules
comparing nu_i with its successor:

* nu_i >= nu_{i+1}:     emit a_i = 2 nu_i and advance by one;
* nu_i = nu_{i+1} - 1:  emit a_i = a_{i+1} = 2 nu_i + 1 and advance by two;
* nu_i <= nu_{i+1} - 2: emit a_i = 2 nu_{i+1} - 2, a_{i+1} = 2 nu_i + 2 and
  advance by two.

The final position compares against an implicit trailing zero.  This
consumption policy (pair-rules eat two positions) is the one that
reproduces the full rank-2 correspondence table; the scan is golden-tested
against it.  The emitted values are sorted into weakly decreasing order
before validation.  The result must be a type-C partition of twice the
bipartition size; anything else is a bug in the scan, not bad input, so it
raises ArithmeticError (the CLI's "self-check failed", exit 4).

Known defect (ROADMAP item 1): from d = 6 on, some labels emit their values
out of order, and sorting them can give the wrong orbit.  It overfills
fibres: an orbit u gets more labels than its component group (Z/2)^k has
irreducibles, e.g. 3,3|- joins the four labels of 4,4,2,2 at d = 6.  The
b-invariant oracle checks only the b-minimal label of each fibre, so it
passes; the strict xfails at d = 6..18 of
tests/test_springer.py::test_fibre_fits_the_component_group record the
defect, and a mended map must drop them.
"""

from __future__ import annotations

from .labels import Bipartition, Partition
from .partitions import enumerate_bipartitions, enumerate_type_c, is_type_c


def interleave_bipartition(rho: Bipartition, length: int) -> tuple[int, ...]:
    """The zero-padded interleaving: odd slots take mu, even slots take lambda."""
    lam, mu = rho.first, rho.second
    minimum = 2 * max(len(lam), len(mu)) + 2
    if length < minimum:
        raise ValueError(f"length {length} below required {minimum} for {rho}")
    nu = [0] * length
    for i, part in enumerate(mu):
        nu[2 * i] = part
    for i, part in enumerate(lam):
        nu[2 * i + 1] = part
    return tuple(nu)


def _scan(nu: tuple[int, ...]) -> list[int]:
    length = len(nu)
    a = [0] * length
    i = 1
    while i <= length:
        cur = nu[i - 1]
        nxt = nu[i] if i < length else 0
        if cur == nxt - 1:
            a[i - 1] = 2 * cur + 1
            a[i] = 2 * cur + 1
            i += 2
        elif cur <= nxt - 2:
            a[i - 1] = 2 * nxt - 2
            a[i] = 2 * cur + 2
            i += 2
        else:
            a[i - 1] = 2 * cur
            i += 1
    return a


def springer_orbit(rho: Bipartition, extra_padding: int = 0) -> Partition:
    """The type-C partition attached to the bipartition rho.

    `extra_padding` appends additional zeros to the interleaved sequence;
    the stripped result never depends on it (padding stability is a tested
    invariant).
    """
    length = 2 * (len(rho.first) + len(rho.second)) + 2 + extra_padding
    nu = interleave_bipartition(rho, length)
    raw = _scan(nu)
    result = Partition(sorted(raw, reverse=True))
    if result.size() != 2 * rho.size() or not is_type_c(result):
        raise ArithmeticError(
            f"scan failed for {rho}: nu={nu} gave a={raw}, "
            f"which is not a type-C partition of {2 * rho.size()}"
        )
    return result


def springer_image(d: int) -> dict[Partition, list[Bipartition]]:
    """Fibers over every type-C partition of 2d (fibers may be empty)."""
    out: dict[Partition, list[Bipartition]] = {
        a: [] for a in enumerate_type_c(2 * d)
    }
    for rho in enumerate_bipartitions(d):
        out[springer_orbit(rho)].append(rho)
    return out
