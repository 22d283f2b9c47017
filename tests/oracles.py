"""Brute-force oracles kept independent of the library code paths."""

import argparse
import itertools
import json
import sys
from collections import Counter, namedtuple
from fractions import Fraction
from functools import lru_cache
from math import prod

from springerc.cli import EXIT_BAD_INPUT, cmd_verify
from springerc.labels import Bipartition, Partition, integers
from springerc.tables import cmd_htop, cmd_springer, cmd_theta


@lru_cache(maxsize=None)
def partition_number(m: int) -> int:
    """p(m) by Euler's pentagonal number recurrence; nothing is enumerated."""
    if m == 0:
        return 1
    total, k = 0, 1
    while k * (3 * k - 1) // 2 <= m:
        sign = 1 if k % 2 else -1
        for g in (k * (3 * k - 1) // 2, k * (3 * k + 1) // 2):
            if g <= m:
                total += sign * partition_number(m - g)
        k += 1
    return total


@lru_cache(maxsize=None)
def count_standard_tableaux(shape: tuple) -> int:
    """Count standard tableaux by recursing on removable corner cells."""
    if not shape:
        return 1
    total = 0
    for i in range(len(shape)):
        last_in_row = i == len(shape) - 1 or shape[i] > shape[i + 1]
        if not last_in_row:
            continue
        smaller = list(shape)
        smaller[i] -= 1
        total += count_standard_tableaux(tuple(x for x in smaller if x))
    return total


def count_semistandard_tableaux(shape: tuple, m: int) -> int:
    """Count fillings with entries <= m, rows weakly and columns strictly increasing."""
    rows = len(shape)
    if rows == 0:
        return 1
    if rows > m:
        return 0

    def fill(cells, grid):
        if not cells:
            return 1
        (i, j), rest = cells[0], cells[1:]
        lo = 1
        if j > 0:
            lo = max(lo, grid[i][j - 1])
        if i > 0:
            lo = max(lo, grid[i - 1][j] + 1)
        total = 0
        for v in range(lo, m + 1):
            grid[i][j] = v
            total += fill(rest, grid)
        return total

    cells = [(i, j) for i in range(rows) for j in range(shape[i])]
    grid = [[0] * shape[i] for i in range(rows)]
    return fill(cells, grid)


def count_tableaux_with_content(shape: tuple, weight: tuple) -> int:
    """Count semistandard fillings of shape in which value i+1 occurs weight[i] times.

    Fills cell by cell in reading order, rows weakly and columns strictly
    increasing, spending the content as it goes; no sorting, no strips.
    """
    if sum(shape) != sum(weight):
        return 0
    cells = [(i, j) for i in range(len(shape)) for j in range(shape[i])]
    grid = [[0] * part for part in shape]
    left = list(weight)

    def fill(k):
        if k == len(cells):
            return 1
        i, j = cells[k]
        lo = 1
        if j > 0:
            lo = max(lo, grid[i][j - 1])
        if i > 0:
            lo = max(lo, grid[i - 1][j] + 1)
        total = 0
        for v in range(lo, len(weight) + 1):
            if left[v - 1]:
                left[v - 1] -= 1
                grid[i][j] = v
                total += fill(k + 1)
                left[v - 1] += 1
        return total

    return fill(0)


def naive_rank(rows) -> int:
    """Plain Gaussian elimination over Fractions."""
    m = [[Fraction(x) for x in row] for row in rows]
    if not m:
        return 0
    n_rows, n_cols = len(m), len(m[0])
    rank = 0
    for c in range(n_cols):
        piv = next((r for r in range(rank, n_rows) if m[r][c] != 0), None)
        if piv is None:
            continue
        m[rank], m[piv] = m[piv], m[rank]
        inv = 1 / m[rank][c]
        m[rank] = [x * inv for x in m[rank]]
        for r in range(n_rows):
            if r != rank and m[r][c] != 0:
                f = m[r][c]
                m[r] = [x - f * y for x, y in zip(m[r], m[rank])]
        rank += 1
        if rank == n_rows:
            break
    return rank


def dominance_maximal_type_c(p: Partition):
    """Exhaustively find the dominance-greatest type-C partition below p."""
    from springerc.partitions import dominance_leq, enumerate_type_c

    below = [q for q in enumerate_type_c(p.size()) if dominance_leq(q, p)]
    best = [q for q in below if all(dominance_leq(other, q) for other in below)]
    assert len(best) == 1, f"no unique maximum below {p}"
    return best[0]


class SignedPermutation(namedtuple("SignedPermutation", "images signs")):
    """A signed permutation of {1..d}, with the group law the engine never uses.

    It is the pair (images, signs) that springerc.hyperoctahedral walks:
    images is a bijection of {1..d} and signs[k] is the +-1 attached to
    letter k+1, so cycle_type, w_action_monomial and _apply_swap take it
    as it is.  The wreath-product law is

        (p1, s1) * (p2, s2) = (p1 o p2, k |-> s1(p2(k)) * s2(k)).
    """

    __slots__ = ()

    def __new__(cls, images, signs):
        images = integers(images, "image")
        signs = integers(signs, "sign")
        d = len(images)
        if sorted(images) != list(range(1, d + 1)):
            raise ValueError(f"not a permutation of 1..{d}: {images}")
        if len(signs) != d or any(s not in (1, -1) for s in signs):
            raise ValueError(f"signs must be +-1 of length {d}: {signs}")
        return super().__new__(cls, images, signs)

    @property
    def d(self) -> int:
        return len(self.images)

    @classmethod
    def identity(cls, d: int) -> "SignedPermutation":
        return cls(range(1, d + 1), (1,) * d)

    def window(self) -> tuple[int, ...]:
        return tuple(im * s for im, s in zip(self.images, self.signs))

    def __mul__(self, other: "SignedPermutation") -> "SignedPermutation":
        if self.d != other.d:
            raise ValueError(f"rank mismatch: {self.d} vs {other.d}")
        images = tuple(self.images[j - 1] for j in other.images)
        signs = tuple(
            self.signs[other.images[k] - 1] * other.signs[k] for k in range(self.d)
        )
        return SignedPermutation(images, signs)

    def inverse(self) -> "SignedPermutation":
        # The letters k in the order of their images: the k sent to j is j-th.
        order = sorted(range(self.d), key=self.images.__getitem__)
        return SignedPermutation([k + 1 for k in order], [self.signs[k] for k in order])

    def flip_character(self) -> int:
        """delta(w) = (-1)^(number of sign flips), a linear character."""
        return prod(self.signs)

    def perm_sign(self) -> int:
        """Sign of the underlying permutation: (-1)^(d - number of cycles)."""
        cycles, _, _ = block_cycle_types(self, self.d)
        return (-1) ** (self.d - len(cycles))

    def __repr__(self) -> str:
        return f"SignedPermutation({list(self.window())})"


def generators(d: int) -> list[SignedPermutation]:
    """s_1 = sign flip at position 1; s_k (k >= 2) swaps k-1 and k."""
    if d < 1:
        raise ValueError("the group needs rank at least 1")
    gens = [SignedPermutation(range(1, d + 1), (-1,) + (1,) * (d - 1))]
    for k in range(2, d + 1):
        images = list(range(1, d + 1))
        images[k - 2], images[k - 1] = images[k - 1], images[k - 2]
        gens.append(SignedPermutation(images, (1,) * d))
    return gens


@lru_cache(maxsize=None)
def group_elements(d: int) -> frozenset:
    """Every element of rank d: the closure of the generators under the group law."""
    found = frontier = {SignedPermutation.identity(d)}
    while frontier:
        frontier = {w * s for w in frontier for s in generators(d)} - found
        found = found | frontier
    return frozenset(found)


def class_representative(cls: Bipartition) -> SignedPermutation:
    """An element of the class pos|neg, built by the group law.

    Each k-cycle, on consecutive letters from `start`, is the product of the
    k - 1 adjacent transpositions among them; a negative one is then
    multiplied by the flip of `start`.
    """
    d = cls.size()
    gens = generators(d)  # gens[j] swaps j and j+1 for j >= 1
    w, start = SignedPermutation.identity(d), 1
    for parts, sign in ((cls.first, 1), (cls.second, -1)):
        for k in parts:
            for j in range(start, start + k - 1):
                w = w * gens[j]
            if sign < 0:
                flip = [1] * d
                flip[start - 1] = -1
                w = w * SignedPermutation(range(1, d + 1), flip)
            start += k
    return w


def block_cycle_types(y, a: int):
    """Unsigned cycle types of y on 1..a and on a+1..d, and its flips on 1..a.

    y is a signed permutation mapping each block to itself; the third value
    is the product of its signs on the first block.
    """
    first, second, seen = [], [], set()
    for start in range(1, len(y.images) + 1):
        length, k = 0, start
        while k not in seen:
            seen.add(k)
            length += 1
            k = y.images[k - 1]
        if length:
            (first if start <= a else second).append(length)
    return (
        Partition(sorted(first, reverse=True)),
        Partition(sorted(second, reverse=True)),
        prod(y.signs[:a]),
    )


def signed_cycle_type(w: SignedPermutation) -> Bipartition:
    """pos|neg: the lengths of the cycles of w whose signs multiply to +1, and to -1."""
    cycles, left = {1: [], -1: []}, set(w.images)
    while left:
        k, length, sign = min(left), 0, 1
        while k in left:
            left.remove(k)
            length += 1
            sign *= w.signs[k - 1]
            k = w.images[k - 1]
        cycles[sign].append(length)
    return Bipartition(*(Partition(sorted(cycles[s], reverse=True)) for s in (1, -1)))


@lru_cache(maxsize=None)
def sym_group_character(shape: tuple, ctype: tuple) -> int:
    """Character of the symmetric group irreducible `shape` at cycle type `ctype`.

    Frobenius: the coefficient of x^(shape + delta) in the Vandermonde
    determinant prod_{i<j} (x_i - x_j) times the power sums
    p_k = x_1^k + ... + x_l^k, one per cycle length k, in l = len(shape)
    variables, delta = (l-1, ..., 1, 0).  The power sums are multiplied out
    as a dict of exponent tuples; the determinant is the sum over
    permutations s of sign(s) x^(s(delta)).
    """
    assert sum(shape) == sum(ctype), f"size mismatch: {shape} vs {ctype}"
    n = len(shape)
    delta = tuple(range(n - 1, -1, -1))
    power_sums = Counter({(0,) * n: 1})
    for k in ctype:
        step = Counter()
        for exponents, coefficient in power_sums.items():
            for i in range(n):
                raised = exponents[:i] + (exponents[i] + k,) + exponents[i + 1 :]
                step[raised] += coefficient
        power_sums = step
    total = 0
    for perm in itertools.permutations(range(n)):
        inversions = sum(perm[i] > perm[j] for i, j in itertools.combinations(range(n), 2))
        rest = tuple(shape[i] + delta[i] - delta[perm[i]] for i in range(n))
        total += (-1) ** inversions * power_sums[rest]
    return total


def character_value_by_cosets(rho: Bipartition, cls: Bipartition) -> int:
    """Reference for hyperoctahedral.character_table's values: the coset sum.

    The irreducible rho = (mu, nu) is induced from W_a x W_b, a = |mu|.  Its
    value at g sums the block character over one coset representative t
    per a-subset of 1..d (the order-preserving placement of 1..a onto it,
    all signs positive), keeping the t with t^-1 g t in W_a x W_b.
    """
    d, a = rho.size(), rho.first.size()
    g = class_representative(cls)
    total = 0
    for subset in itertools.combinations(range(1, d + 1), a):
        rest = [x for x in range(1, d + 1) if x not in subset]
        t = SignedPermutation(list(subset) + rest, (1,) * d)
        y = t.inverse() * g * t
        if any(y.images[k] > a for k in range(a)):
            continue
        first, second, delta = block_cycle_types(y, a)
        total += (
            sym_group_character(rho.first, first)
            * delta
            * sym_group_character(rho.second, second)
        )
    return total


def coset_character_by_group(dcomp) -> dict:
    """Reference for hyperoctahedral.coset_permutation_character: one group pass.

    The block subgroup H places plain symmetric groups on consecutive
    blocks sized by the first n entries of the composition, and a full
    signed-permutation group on a final block of half the middle entry.
    The value at the class of g is the number of cosets g fixes,

        Ind_H^W 1 (g) = |W| * |cl(g) & H| / (|cl(g)| * |H|),

    counted in one pass over W that keeps the elements of H.  The classes,
    their sizes and |W| all come from that pass.
    """
    d = dcomp.total // 2
    sizes = list(dcomp[: dcomp.n]) + [dcomp[dcomp.n] // 2]
    # w lies in H when it maps each letter into its own block and flips
    # signs only on the last block.
    block = [i for i, size in enumerate(sizes) for _ in range(size)]
    last = len(sizes) - 1
    class_sizes, in_h = Counter(), Counter()
    for w in group_elements(d):
        cls = signed_cycle_type(w)
        class_sizes[cls] += 1
        in_h[cls] += all(
            block[im - 1] == b and (s == 1 or b == last)
            for im, s, b in zip(w.images, w.signs, block)
        )
    order, h_order = len(group_elements(d)), sum(in_h.values())
    return {
        cls: order * in_h[cls] // (class_sizes[cls] * h_order) for cls in sorted(class_sizes)
    }


def graded_multiplicity_by_projector(rho, n: int, d: int) -> dict:
    """Reference for partitions.graded_multiplicities: ranks of projector blocks.

    The sign-convention action preserves the grading, so the isotypic
    projector is block-diagonal; each block rank divided by the irreducible
    dimension is an exact integer, and the blocks sum to the full
    multiplicity.  Returns {component: multiplicity}; callers check the sum
    against the closed form gl_dim(mu, n+1) * gl_dim(nu, n).
    """
    from dense import bareiss_rank, scaled_projector, tensor_basis, tensor_grading
    from springerc.partitions import enumerate_sym_compositions

    acc, dim, _order = scaled_projector(rho, n, d)
    blocks: dict = {}
    for p, t in enumerate(tensor_basis(n, d)):
        blocks.setdefault(tensor_grading(t, n), []).append(p)
    per_weight = {}
    for dcomp in enumerate_sym_compositions(n, 2 * d):
        idx = blocks.get(dcomp, [])
        rank = bareiss_rank([[acc[i][j] for j in idx] for i in idx]) if idx else 0
        assert rank % dim == 0, f"graded rank {rank} of {rho} at {dcomp} not divisible by {dim}"
        per_weight[dcomp] = rank // dim
    return per_weight


_kostka_by_count = lru_cache(maxsize=None)(count_tableaux_with_content)


def graded_multiplicity_per_label(rho, n: int, d: int) -> dict:
    """Reference for partitions.graded_multiplicities, one bipartition at a time.

    The weight multiplicity sum over beta of K(mu, alpha) * K(nu, beta),
    beta_i <= w_i, |beta| = |nu|, alpha = (w - beta, w_mid / 2), evaluated
    component by component with no rows shared between labels.  Returns
    {component: multiplicity}.  The components, the betas and the Kostka
    numbers (counted tableau by tableau) are all built here, with no engine
    code.
    """
    mu, nu = rho.first, rho.second
    per_weight = {}
    for h in _compositions(d, n + 1):
        head, half_mid = h[:n], h[n:]
        betas = itertools.product(*(range(w + 1) for w in head))
        per_weight[head + (2 * h[n],) + head[::-1]] = sum(
            _kostka_by_count(mu, tuple(w - b for w, b in zip(head, beta)) + half_mid)
            * _kostka_by_count(nu, beta)
            for beta in betas
            if sum(beta) == sum(nu)
        )
    return per_weight


def _compositions(total: int, parts: int):
    """Every tuple of `parts` nonnegative integers summing to total."""
    if parts == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, parts - 1):
            yield (first,) + rest


def steinberg_count(rows: tuple, cols: tuple) -> int:
    """|W_D \\ W / W_D'| for the components with entries rows = D and cols = D'.

    Counts the N x N matrices of nonnegative integers that are
    centro-symmetric (a[i][j] = a[N-1-i][N-1-j]), have row sums D and
    column sums D', and an even centre entry.  The top rows and the middle
    row are chosen freely with their row sums, the bottom rows are their
    mirror images, and every condition is then checked on the whole matrix.
    """
    big_n = len(rows)
    half = big_n // 2
    count = 0
    for top in itertools.product(*(_compositions(rows[i], big_n) for i in range(half))):
        for middle in _compositions(rows[half], big_n):
            matrix = list(top) + [middle] + [row[::-1] for row in reversed(top)]
            count += (
                all(
                    matrix[i][j] == matrix[big_n - 1 - i][big_n - 1 - j]
                    for i in range(big_n)
                    for j in range(big_n)
                )
                and tuple(map(sum, matrix)) == rows
                and tuple(map(sum, zip(*matrix))) == cols
                and matrix[half][half] % 2 == 0
            )
    return count


def steinberg_count_dp(rows: tuple, cols: tuple) -> int:
    """steinberg_count for mirror-symmetric rows and cols, by dynamic programming.

    Top row i and its mirror row N-1-i add a[i][j] + a[i][N-1-j] to both
    columns j and N-1-j, so after each top row the state is the remaining
    need of columns 0..N//2, with the number of ways to reach it.  The
    middle row is then forced: it is that need read as a palindrome, so the
    need must be nonnegative, its centre even and its row sum rows[N//2].
    """
    big_n = len(rows)
    half = big_n // 2
    ways = {tuple(cols[: half + 1]): 1}
    for total in rows[:half]:
        step = Counter()
        for need, count in ways.items():
            for row in _compositions(total, big_n):
                rest = tuple(need[j] - row[j] - row[big_n - 1 - j] for j in range(half + 1))
                if min(rest) >= 0:
                    step[rest] += count
        ways = step
    return sum(
        count
        for need, count in ways.items()
        if need[half] % 2 == 0 and 2 * sum(need[:half]) + need[half] == rows[half]
    )


def _n_statistic(parts) -> int:
    """n(lambda): the sum of (row index) * (row length), rows counted from 0."""
    return sum(i * part for i, part in enumerate(parts))


def b_invariant(rho) -> int:
    """Lowest degree of the coinvariant algebra holding the character (mu, nu).

    In this labelling (flip twist on the first component) it is
    2n(mu) + 2n(nu) + |mu|: 0 for the trivial character (-, (d)), d^2 for
    the sign character.
    """
    return 2 * _n_statistic(rho.first) + 2 * _n_statistic(rho.second) + rho.first.size()


def springer_fiber_dim(a: Partition) -> int:
    """dim B_u for a nilpotent of sp_{2d} with type-C partition a.

    From the centralizer dimension (sum of squared dual parts + odd parts)/2:
    dim B_u = (2 n(a) + number of odd parts) / 4, which is also
    (2d^2 - dim O)/2.
    """
    four_dim = 2 * _n_statistic(a) + sum(1 for part in a if part % 2)
    assert four_dim % 4 == 0, f"dim B_u of {a} is not an integer"
    return four_dim // 4


def symbol_label(a: Partition, d: int) -> Bipartition:
    """The label of the trivial local system on the orbit a of sp_{2d}, by Lusztig symbols.

    Carter, Finite Groups of Lie Type, 13.3: pad a with zeros to 2d + 3
    parts in increasing order, shift part i (from 1) up by i - 1, split the
    even values 2 xi_i from the odd values 2 eta_i + 1, and lower the i-th
    of each by i - 1.  The alphas and betas give the label beta|alpha.
    """
    parts = sorted(tuple(a) + (0,) * (2 * d + 3 - len(a)))
    shifted = [part + i for i, part in enumerate(parts)]
    xi = [v // 2 for v in shifted if v % 2 == 0]
    eta = [v // 2 for v in shifted if v % 2]
    alpha = [x - i for i, x in enumerate(xi)]
    beta = [y - i for i, y in enumerate(eta)]
    return Bipartition(Partition(beta[::-1]), Partition(alpha[::-1]))


def partition_rule(parts):
    """The partition rule in four plain passes: ("ok", parts) or ("error", message).

    Convert, reject a negative part, reject an increase, drop the zeros.
    """
    parts = tuple(int(x) for x in parts)
    if any(x < 0 for x in parts):
        return "error", f"negative part in {parts}"
    if any(parts[i] < parts[i + 1] for i in range(len(parts) - 1)):
        return "error", f"parts not weakly decreasing: {parts}"
    return "ok", tuple(x for x in parts if x > 0)


def theta_table(n: int, d: int, fmt: str, component=None) -> str:
    """The text of `theta --n n --d d --format fmt [--component ...]`.

    Rebuilt from itertools.product: the first d columns are a tuple over
    1..N, the last d its mirror image reversed, the grading counts the rows
    of all 2d columns, and the count line counts the rows listed.
    """
    big_n = 2 * n + 1
    rows = []
    for head in itertools.product(range(1, big_n + 1), repeat=d):
        columns = head + tuple(big_n + 1 - v for v in reversed(head))
        grading = tuple(columns.count(i) for i in range(1, big_n + 1))
        if component is None or grading == tuple(component):
            rows.append((columns, head, grading))

    def text(values):
        return ",".join(str(v) for v in values)

    if fmt == "json":
        matrices = [
            {"columns": list(c), "chi": text(h), "grading": text(g)} for c, h, g in rows
        ]
        return json.dumps({"count": len(rows), "matrices": matrices}, indent=2) + "\n"
    if fmt == "tsv":
        lines = ["columns\tchi\tgrading"]
        lines += [f"{text(c)}\t{text(h)}\t{text(g)}" for c, h, g in rows]
        lines.append(f"count\t{len(rows)}\t")
        return "\n".join(lines) + "\n"
    lines = []
    for k, (c, h, g) in enumerate(rows, 1):
        lines.append(f"matrix {k}: chi {text(h)}  grading {text(g)}")
        for i in range(1, big_n + 1):
            lines.append("  " + " ".join("1" if r == i else "0" for r in c))
    lines.append(f"count {len(rows)}")
    return "\n".join(lines) + "\n"


# The command-line parser springerc used before it read its own command
# line: the reference that cli.parse_args must agree with.
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
