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
search therefore enumerates ``K_{j+1}`` once, looks for one lift ``h_g`` of
each map ``g`` of level j, and composes: level j+1 is the union of the
``h_g o K_{j+1}``.

The enumerated sets are compared against the realized parametric families.
Any disagreement is reported with witnesses -- at finite precision the
quotient can have automorphisms that no family member reduces to, since
effects that would betray them live above the precision window.
"""

from __future__ import annotations

import itertools
import math
from collections.abc import Sequence
from dataclasses import dataclass

from .core import PrimeContext
from .lipschitz import MAX_TABLE_SIZE
from .automorph import (
    AddSpec,
    AndSpec,
    MulSpec,
    Operation,
    XorSpec,
    operation_by_name,
    realize,
)

DEFAULT_NODE_BUDGET = 5_000_000

OP_TO_FAMILY = {"plus": "add", "times": "mul", "xor": "xor", "and": "and"}


class BudgetExceeded(RuntimeError):
    """The search hit its node limit before finishing.

    Besides the node count and the budget it reports the progress made:
    ``level`` is the precision the search was working on when it stopped
    (it was extending maps to Z/p**level) and ``found`` counts the complete
    maps of that level known so far: the kernel maps found, or, once the
    kernel is complete, every coset of the lifts found.
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


@dataclass(frozen=True)
class EnumerationResult:
    """All automorphism tables of Z/p**k for a set of operations."""

    p: int
    k: int
    ops: tuple[str, ...]
    automorphisms: tuple[tuple[int, ...], ...]  # lexicographically sorted
    nodes: int

    @property
    def count(self) -> int:
        return len(self.automorphisms)

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "ops": list(self.ops),
            "count": self.count,
            "nodes": self.nodes,
            "automorphisms": [list(t) for t in self.automorphisms],
        }


def _resolve_ops(ops) -> list[Operation]:
    return [op if isinstance(op, Operation) else operation_by_name(op) for op in ops]


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
    whose first map is the identity's lift, then once per other map ``g``
    of level j, stopping at its first lift ``h_g`` (a ``g`` with no lift
    drops out), and the next level is every ``h_g o kappa`` with ``kappa``
    in ``K_{j+1}``.  This is exact: composites and
    inverses of bijective homomorphisms are homomorphisms, and reduction
    mod p**j respects composition, so the level-(j+1) maps form a group,
    reduction is a homomorphism from it, and any other lift ``f`` of ``g``
    is ``h_g o (h_g**-1 o f)`` with ``h_g**-1 o f`` in the kernel.  Nothing
    here needs the op to be commutative or to reduce from one level to the
    next.  ``nodes`` counts value assignments, branched or forced, summed
    over the kernel searches and the first-lift searches.

    Exact and complete within the node budget; raises BudgetExceeded rather
    than returning a truncated answer.  Raises ValueError, before any table
    is built, when one operation table of (p**k)**2 entries would exceed
    ``MAX_TABLE_SIZE``, and before composing a level whose maps would hold
    more than ``MAX_TABLE_SIZE`` entries in all.
    """
    p, k = ctx.p, ctx.precision
    if ctx.modulus**2 > MAX_TABLE_SIZE:
        raise ValueError(
            f"operation tables of {ctx.modulus}**2 entries exceed the "
            f"desk-scale cap {MAX_TABLE_SIZE}"
        )
    operations = _resolve_ops(ops)

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
            transpose = [flat[y * n + x] for x in range(n) for y in range(n)]
            tables.append(flat)
            if transpose != flat:
                tables.append(transpose)
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

    group: list[tuple[int, ...]] = [(0,)]
    for j in range(k):
        # group[0] is the identity, and so is the kernel's first solution:
        # the search branches on the smallest unassigned argument and tries
        # its smallest free value first, so solutions come in lexicographic
        # order, and the identity is the least table there is.  It is also
        # the identity's first lift, so that search is not run again.
        known = 0
        kernel = extend(j, group[0], False)
        known = len(kernel)  # the identity's coset
        lifts = kernel[:1]
        for g in group[1:]:
            lifts.extend(extend(j, g, True))
            known = len(lifts) * len(kernel)
            if known * p ** (j + 1) > MAX_TABLE_SIZE:
                raise ValueError(
                    f"the maps mod p**{j + 1} would hold more than "
                    f"{MAX_TABLE_SIZE} entries in all (desk-scale cap)"
                )
        group = [tuple([h[y] for y in kappa]) for h in lifts for kappa in kernel]
    names = tuple(op.name for op in operations)
    return EnumerationResult(p, k, names, tuple(sorted(group)), nodes)


# ---------------------------------------------------------------------------
# realized families reduced mod p**k
# ---------------------------------------------------------------------------


def _coprime_exponents(p: int) -> list[int]:
    return [s for s in range(1, p) if math.gcd(s, p - 1) == 1]


def _mul_specs(ctx: PrimeContext, units: list[int]):
    """Every MulSpec whose multipliers a and A are drawn from ``units``."""
    return (
        MulSpec(s, ctx.integer(a), ctx.integer(A))
        for s in _coprime_exponents(ctx.p)
        for a in units
        for A in units
    )


def family_specs(ctx: PrimeContext, family: str):
    """Yield every family member with parameters ranging over residues mod p**k."""
    p = ctx.p
    if family == "add":
        yield from (AddSpec(ctx.integer(A)) for A in ctx.units())
    elif family == "mul":
        yield from _mul_specs(ctx, list(ctx.units()))
    elif family == "xor":
        row_choices = []
        for k in range(ctx.precision):
            rows = [
                prefix + (diag,)
                for prefix in itertools.product(range(p), repeat=k)
                for diag in range(1, p)
            ]
            row_choices.append(rows)
        yield from (XorSpec(ctx, rows) for rows in itertools.product(*row_choices))
    elif family == "and":
        yield from (
            AndSpec(ctx, exps)
            for exps in itertools.product(_coprime_exponents(p), repeat=ctx.precision)
        )
    else:
        raise ValueError(f"unknown family {family!r}")


def family_size(ctx: PrimeContext, family: str) -> int:
    """Number of parameter choices mod p**k (not necessarily distinct tables)."""
    p, k = ctx.p, ctx.precision
    phi_units = p**k - p ** (k - 1)
    if family == "add":
        return phi_units
    if family == "mul":
        return len(_coprime_exponents(p)) * phi_units * phi_units
    if family == "xor":
        return (p - 1) ** k * p ** (k * (k - 1) // 2)
    if family == "and":
        return len(_coprime_exponents(p)) ** k
    raise ValueError(f"unknown family {family!r}")


def family_tables(ctx: PrimeContext, family: str) -> set[tuple[int, ...]]:
    """Value tables of every family member with parameters ranging mod p**k.

    For "mul" only the members with a, A below max(p, p**(k-1)) are
    realized, since every other member repeats one of their tables: the
    exponent a acts on the principal units mod p**k, a group of order
    p**(k-1), and A enters only as (p*A)**m with m >= 1, so both matter
    only mod p**(k-1).  At k = 1 the bound p keeps every unit.
    """
    if family == "mul":
        p = ctx.p
        specs = _mul_specs(ctx, [u for u in range(1, max(p, p ** (ctx.precision - 1))) if u % p])
    else:
        specs = family_specs(ctx, family)
    return {realize(spec).table for spec in specs}


@dataclass(frozen=True)
class SetComparison:
    """Enumerated automorphisms vs the realized family, with witnesses."""

    family: str
    equal: bool
    missing: tuple[tuple[int, ...], ...]  # family tables the search did not find
    extra: tuple[tuple[int, ...], ...]  # found tables outside the family
    family_count: int
    enumerated_count: int

    def to_json(self) -> dict:
        return {
            "family": self.family,
            "equal": self.equal,
            "family_count": self.family_count,
            "enumerated_count": self.enumerated_count,
            "missing": [list(t) for t in self.missing],
            "extra": [list(t) for t in self.extra],
        }


def compare_with_family(result: EnumerationResult) -> SetComparison:
    """Set-compare a single-operation enumeration against its parametric family."""
    if len(result.ops) != 1:
        raise ValueError("family can only be inferred for single-operation results")
    family = OP_TO_FAMILY[result.ops[0]]
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
class PairReport:
    """Enumeration outcome for one two-operation system."""

    ops: tuple[str, str]
    count: int
    identity_only: bool
    witness: tuple[int, ...] | None  # first non-identity automorphism, if any


@dataclass(frozen=True)
class TrivialPairsReport:
    p: int
    k: int
    pairs: tuple[PairReport, ...]
    all_trivial: bool
    nodes: int


def verify_trivial_pairs(p: int, k: int) -> TrivialPairsReport:
    """Enumerate all six two-operation systems and report the witnesses.

    At full precision every such automorphism group collapses to the
    identity; the quotient at precision k can keep extra members whose
    distinguishing carries happen above the window, so the report carries
    the actual counts and the first non-identity witness for each pair.
    """
    ctx = PrimeContext(p, k)
    identity = tuple(range(ctx.modulus))
    reports = []
    total_nodes = 0
    for pair in OPERATION_PAIRS:
        result = enumerate_automorphisms(ctx, pair)
        total_nodes += result.nodes
        non_identity = [t for t in result.automorphisms if t != identity]
        reports.append(
            PairReport(
                ops=pair,
                count=result.count,
                identity_only=result.automorphisms == (identity,),
                witness=non_identity[0] if non_identity else None,
            )
        )
    return TrivialPairsReport(
        p=p,
        k=k,
        pairs=tuple(reports),
        all_trivial=all(r.identity_only for r in reports),
        nodes=total_nodes,
    )
