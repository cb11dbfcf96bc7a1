"""Independent ground truth by exhaustive search.

Automorphisms of the finite quotient ``Z/p**k`` (tower-compatible bijections
that are homomorphisms for every requested operation) are enumerated by a
finite-model search in the style of SEM and Mace4: the map is extended one
level at a time, from Z/p**j to Z/p**(j+1), by assigning one value at a time
and propagating the values the operations force, ``f(x op y) := f(x) op
f(y)``.  A forced value that is already taken, does not lift the level
below, or contradicts an earlier value cuts the branch.  The search effort
(``nodes``) is the number of value assignments, branched or forced.

Each level is searched as a union of cosets rather than map by map.
Reduction mod p**j is a group homomorphism from the maps found at level
j+1 onto a subgroup of the maps found at level j, so its fibers are the
cosets of its kernel ``K_{j+1}``, the maps that reduce to the identity.  The
search therefore enumerates ``K_{j+1}`` once, finds one lift ``h_g`` of each
map ``g`` of the image ``H_j``, and composes: level j+1 is the union of the
``h_g o K_{j+1}``.  As in the transversal construction of Schreier-Sims,
with the p-adic tower as the subgroup chain, ``H_j`` is found by generators:
one first-lift search per generator and per coset of maps without a lift.
The top level is kept as that tower, the lifts and the kernel, which give
the group's order and a membership test without composing a map.

The enumerated sets are compared against the realized parametric families.
Any disagreement is reported with witnesses -- at finite precision the
quotient can have automorphisms that no family member reduces to, since
effects that would betray them live above the precision window.
"""

from __future__ import annotations

import functools
import itertools
from collections.abc import Sequence
from dataclasses import dataclass

from .core import PrimeContext, record_to_json
from .lipschitz import MAX_TABLE_SIZE
from .automorph import OP_TO_FAMILY, family_tables, operations_by_name

DEFAULT_NODE_BUDGET = 5_000_000


class BudgetExceeded(RuntimeError):
    """The search hit its node limit before finishing.

    Besides the node count and the budget it reports the progress made:
    ``level`` is the precision the search was working on when it stopped
    (it was extending maps to Z/p**level) and ``found`` counts the complete
    maps of that level known so far: the kernel maps found, or, once the
    kernel is complete, the kernel's cosets ``h_g o K`` for every map ``g``
    of the subgroup generated by the lifts found.
    """

    def __init__(self, nodes: int, budget: int, level: int, found: int):
        super().__init__(
            f"search expanded {nodes} nodes, budget {budget}; stopped at level "
            f"{level} (maps mod p**{level}) with {found} complete maps found"
        )
        self.nodes = nodes
        self.budget = budget
        self.level = level
        self.found = found


def _compose(a: Sequence[int], b: Sequence[int]) -> tuple[int, ...]:
    """The table of a o b."""
    return tuple([a[y] for y in b])


@dataclass(frozen=True)
class EnumerationResult:
    """The automorphism group of Z/p**k for a set of operations, held by its tower.

    ``lift_of`` maps each level-(k-1) map that lifts (the subgroup
    ``H_{k-1}``) to one of its lifts, and ``kernel`` is ``K_k``, the maps
    mod p**k that reduce to the identity; the group is the union of the
    cosets ``lift_of[g] o K_k``.  So its order and its membership test need
    no composed map: t is a member iff ``t mod p**(k-1)`` is a key g and
    ``lift_of[g]**-1 o t`` lies in the kernel.  ``automorphisms`` composes
    the maps only when asked.
    """

    p: int
    k: int
    ops: tuple[str, ...]
    lift_of: dict[tuple[int, ...], tuple[int, ...]]
    kernel: frozenset[tuple[int, ...]]
    nodes: int

    @property
    def count(self) -> int:
        # h_g o kappa reduces to g, so distinct (g, kappa) give distinct maps
        return len(self.lift_of) * len(self.kernel)

    def __contains__(self, table) -> bool:
        """Whether a table of p**k values is one of the group's maps."""
        block = self.p ** (self.k - 1)
        lift = self.lift_of.get(tuple([v % block for v in table[:block]]))
        if lift is None:
            return False
        inverse = dict(zip(lift, range(len(lift))))
        return tuple(map(inverse.get, table)) in self.kernel

    @functools.cached_property
    def automorphisms(self) -> tuple[tuple[int, ...], ...]:
        """Every map of the group, composed once and lexicographically sorted.

        Raises ValueError when the maps would hold more than
        ``MAX_TABLE_SIZE`` entries in all.
        """
        if self.count * self.p**self.k > MAX_TABLE_SIZE:
            raise ValueError(
                f"the maps mod p**{self.k} would hold more than "
                f"{MAX_TABLE_SIZE} entries in all (desk-scale cap)"
            )
        return tuple(sorted(_compose(h, kappa) for h in self.lift_of.values() for kappa in self.kernel))

    # written out, not record_to_json: one list() per table, where the rule
    # makes one call per value, about 18 times slower at (11,3) plus
    def to_json(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "ops": list(self.ops),
            "count": self.count,
            "nodes": self.nodes,
            "automorphisms": [list(t) for t in self.automorphisms],
        }


def enumerate_automorphisms(
    ctx: PrimeContext, ops, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> EnumerationResult:
    """Exhaustively enumerate the automorphisms of Z/p**k for the given ops.

    The group is built level by level, starting from the one map on Z/1.
    On each level j the search extends a map ``g`` on Z/p**j to ``h`` on
    Z/p**(j+1) one value at a time, every ``h(x)`` an unused lift
    ``g(x mod p**j) + d*p**j``.  It branches on the smallest unassigned
    argument.  After each assignment ``h(a) = v`` it forces ``h(a op b) :=
    v op h(b)`` (and ``h(b op a)`` for a non-commutative table) for every
    assigned ``b``; a forced value that is already taken, is not a lift, or
    differs from the value already there cuts the branch.

    The level-(j+1) maps form a union of cosets.  The search runs once in
    full from the identity on Z/p**j to collect the kernel ``K_{j+1}``,
    whose first map is the identity's lift.  ``lift_of`` holds one lift
    ``h_g`` for each map ``g`` found in ``H_j``, the level-j maps that lift.
    The other maps of level j are walked in lexicographic order; one in
    ``lift_of``, or in the coset ``b o H_j`` of a ``b`` found without a
    lift, is skipped, and any other is searched up to its first lift.  A
    map with a lift becomes a generator, and ``lift_of`` is closed
    breadth-first under the generators, with ``h_f o h_s`` as the lift of
    ``f o s``.  A level below k is composed, every ``lift_of[g] o kappa``
    with ``kappa`` in ``K_{j+1}``, for the next level's walk; level k is
    returned as its tower, ``lift_of`` and ``K_k``, and composed only when
    its ``automorphisms`` are asked for.

    This is exact: composites and inverses of bijective homomorphisms are
    homomorphisms, and reduction mod p**j respects composition, so the
    level-(j+1) maps form a group and reduction is a homomorphism from it.
    Its image ``H_j``, the maps that lift, is a subgroup, and the maps that
    do not lift form whole cosets of it: if ``b o h`` lifted, with ``h`` in
    ``H_j``, so would ``b``.  So the walk skips only maps it has classified
    and ends with all of ``H_j``, and any other lift ``f`` of ``g`` is
    ``h_g o (h_g**-1 o f)`` with ``h_g**-1 o f`` in the kernel.  Nothing
    here needs the op to be commutative or to reduce from one level to the
    next.  ``nodes`` counts value assignments, branched or forced, summed
    over the kernel searches and the first-lift searches.

    Exact and complete within the node budget; raises BudgetExceeded rather
    than returning a truncated answer.  Raises ValueError, before any table
    is built, when ``ops`` is a string rather than a list of operations or
    names, the node budget is not an int of at least 1 or one operation
    table of (p**k)**2 entries would exceed ``MAX_TABLE_SIZE``; before
    composing a level below k whose maps would hold more than
    ``MAX_TABLE_SIZE`` entries in all; and while one lift per map of
    ``H_j`` would.
    """
    operations = operations_by_name(ops)
    if type(node_budget) is not int or node_budget < 1:
        raise ValueError(f"node budget must be an int >= 1, got {node_budget!r}")
    p, k = ctx.p, ctx.precision
    if ctx.modulus**2 > MAX_TABLE_SIZE:
        raise ValueError(
            f"operation tables of {ctx.modulus}**2 entries exceed the "
            f"desk-scale cap {MAX_TABLE_SIZE}"
        )

    # per level j: the flat table of x op y mod p**(j+1) for each op, and
    # its transpose (y op x) too when the op is not commutative, so that
    # checking (a, b) in every table covers b op a as well
    level_tables: list[list[list[int]]] = []
    for j in range(k):
        level_ctx = PrimeContext(p, j + 1)
        n = level_ctx.modulus
        tables = []
        for op in operations:
            flat = [op.apply(level_ctx, x, y) for x in range(n) for y in range(n)]
            tables.append(flat)
            # commutative iff every row x equals column x, the stride-n slice
            if any(flat[x * n : (x + 1) * n] != flat[x::n] for x in range(n)):
                tables.append(list(itertools.chain.from_iterable(flat[x::n] for x in range(n))))
        level_tables.append(tables)

    nodes = 0
    known = 0  # complete maps of the level being built, outside the running search

    def extend(j: int, g: Sequence[int], first: bool) -> list[tuple[int, ...]]:
        """The extensions of the map g on Z/p**j to Z/p**(j+1): all, or the first."""
        n = p ** (j + 1)
        block = p**j
        tables = level_tables[j]
        low = [g[x % block] for x in range(n)]  # h(x) = low[x] mod p**j
        h = [-1] * n
        inv = [-1] * n
        trail: list[int] = []  # assigned arguments in order, also the queue
        found: list[tuple[int, ...]] = []

        def put(z: int, w: int) -> None:
            nonlocal nodes
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded(nodes, node_budget, j + 1, known + len(found))
            h[z] = w
            inv[w] = z
            trail.append(z)

        def propagate(qi: int) -> bool:
            """Force the consequences of trail[qi:]; False on a conflict."""
            while qi < len(trail):
                a = trail[qi]
                qi += 1
                v = h[a]
                ra = a * n
                rv = v * n
                # each pair is checked once: when its later member leaves the queue
                for flat in tables:
                    for b in trail[:qi]:
                        z = flat[ra + b]
                        w = flat[rv + h[b]]
                        if h[z] != w:
                            if h[z] >= 0 or inv[w] >= 0 or w % block != low[z]:
                                return False
                            put(z, w)
            return True

        stack = [[0, 0, 0]]  # per branch point: [argument, trail mark, next digit]
        while stack:
            frame = stack[-1]
            x, mark, d = frame
            for z in trail[mark:]:
                inv[h[z]] = -1
                h[z] = -1
            del trail[mark:]
            base = low[x]
            while d < p and inv[base + d * block] >= 0:
                d += 1
            if d == p:
                stack.pop()
                continue
            frame[2] = d + 1
            put(x, base + d * block)
            if not propagate(mark):
                continue
            while x < n and h[x] >= 0:
                x += 1
            if x < n:
                stack.append([x, len(trail), 0])
            else:
                found.append(tuple(h))
                if first:
                    break
        return found

    names = tuple(op.name for op in operations)
    group: Sequence[tuple[int, ...]] = [(0,)]
    for j in range(k):
        if j:
            group = tower.automorphisms
        # group[0] is the identity, and so is the kernel's first solution:
        # the search branches on the smallest unassigned argument and tries
        # its smallest free value first, so solutions come in lexicographic
        # order, and the identity is the least table there is.  It is also
        # the identity's first lift, so that search is not run again.
        known = 0
        kernel = extend(j, group[0], False)
        lift_of = {group[0]: kernel[0]}
        generators = []  # (g, h_g) pairs
        unlifted: list[tuple[int, ...]] = []  # b**-1 for each b without a lift
        for g in group[1:]:
            if g in lift_of or any(_compose(b_inv, g) in lift_of for b_inv in unlifted):
                continue
            known = len(lift_of) * len(kernel)
            lifts = extend(j, g, True)
            if not lifts:
                # a permutation's argsort is its inverse
                unlifted.append(tuple(sorted(range(len(g)), key=g.__getitem__)))
                continue
            generators.append((g, lifts[0]))
            queue = list(lift_of)
            for f in queue:
                for s, h_s in generators:
                    fs = _compose(f, s)
                    if fs not in lift_of:
                        lift_of[fs] = _compose(lift_of[f], h_s)
                        queue.append(fs)
                        if len(lift_of) * p ** (j + 1) > MAX_TABLE_SIZE:
                            raise ValueError(
                                f"the lifts mod p**{j + 1} would hold more than "
                                f"{MAX_TABLE_SIZE} entries in all (desk-scale cap)"
                            )
        tower = EnumerationResult(p, j + 1, names, lift_of, frozenset(kernel), nodes)
    return tower


@dataclass(frozen=True)
class SetComparison:
    """Enumerated automorphisms vs the realized family, with witnesses."""

    family: str
    equal: bool
    missing: tuple[tuple[int, ...], ...]  # family tables the search did not find
    extra: tuple[tuple[int, ...], ...]  # found tables outside the family
    family_count: int
    enumerated_count: int

    to_json = record_to_json


def compare_with_family(result: EnumerationResult) -> SetComparison:
    """Set-compare a single-operation enumeration against its parametric family.

    Raises ValueError for a result of several operations or of an operation
    with no family, such as a custom one.
    """
    if len(result.ops) != 1:
        raise ValueError("family can only be inferred for single-operation results")
    family = OP_TO_FAMILY.get(result.ops[0])
    if family is None:
        raise ValueError(
            f"operation {result.ops[0]!r} has no family; "
            f"families exist for {sorted(OP_TO_FAMILY)}"
        )
    ctx = PrimeContext(result.p, result.k)
    realized = family_tables(ctx, family)
    enumerated = set(result.automorphisms)
    missing = tuple(sorted(realized - enumerated))
    extra = tuple(sorted(enumerated - realized))
    return SetComparison(
        family=family,
        equal=not missing and not extra,
        missing=missing,
        extra=extra,
        family_count=len(realized),
        enumerated_count=len(enumerated),
    )


# ---------------------------------------------------------------------------
# the six two-operation systems
# ---------------------------------------------------------------------------

OPERATION_PAIRS = (
    ("plus", "times"),
    ("plus", "xor"),
    ("plus", "and"),
    ("times", "xor"),
    ("times", "and"),
    ("xor", "and"),
)


@dataclass(frozen=True)
class TrivialPairsReport:
    """The six pair searches, in ``OPERATION_PAIRS`` order."""

    pairs: tuple[EnumerationResult, ...]

    @property
    def all_trivial(self) -> bool:
        # every group holds the identity, so count 1 means the identity only
        return all(result.count == 1 for result in self.pairs)

    @property
    def nodes(self) -> int:
        return sum(result.nodes for result in self.pairs)


def verify_trivial_pairs(p: int, k: int) -> TrivialPairsReport:
    """Enumerate all six two-operation systems.

    At full precision every such automorphism group collapses to the
    identity; the quotient at precision k can keep extra members whose
    distinguishing carries happen above the window, so the report carries
    each pair's whole group.
    """
    ctx = PrimeContext(p, k)
    return TrivialPairsReport(tuple(enumerate_automorphisms(ctx, ops) for ops in OPERATION_PAIRS))
