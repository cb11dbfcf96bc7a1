"""Independent ground truth by exhaustive search.

Automorphisms of the finite quotient ``Z/p**k`` (tower-compatible bijections
that are homomorphisms for every requested operation) are enumerated by a
finite-model search in the style of SEM and Mace4: the map is extended one
level at a time, from Z/p**j to Z/p**(j+1), by assigning one value at a time
and propagating the values the operations force, ``f(x op y) := f(x) op
f(y)``.  A forced value that is already taken, does not lift the level
below, or contradicts an earlier value cuts the branch.  The search effort
(``nodes``) is the number of value assignments, branched or forced.

The enumerated sets are compared against the realized parametric families.
Any disagreement is reported with witnesses -- at finite precision the
quotient can have automorphisms that no family member reduces to, since
effects that would betray them live above the precision window.
"""

from __future__ import annotations

import itertools
import math
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
    maps found so far.
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
    out = []
    for op in ops:
        out.append(op if isinstance(op, Operation) else operation_by_name(op))
    return out


def enumerate_automorphisms(
    ctx: PrimeContext, ops, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> EnumerationResult:
    """Exhaustively enumerate the automorphisms of Z/p**k for the given ops.

    The map is built level by level: a map ``g`` on Z/p**j is extended to
    ``h`` on Z/p**(j+1) one value at a time, every ``h(x)`` an unused lift
    ``g(x mod p**j) + d*p**j``.  The search branches on the smallest
    unassigned argument.  After each assignment ``h(a) = v`` it forces
    ``h(a op b) := v op h(b)`` (and ``h(b op a)`` for a non-commutative
    table) for every assigned ``b``; a forced value that is already taken,
    is not a lift, or differs from the value already there cuts the branch.
    ``nodes`` counts value assignments, branched or forced.

    Exact and complete within the node budget; raises BudgetExceeded rather
    than returning a truncated answer.  Raises ValueError, before any table
    is built, when one operation table of (p**k)**2 entries would exceed
    ``MAX_TABLE_SIZE``.
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

    found: list[tuple[int, ...]] = []
    nodes = 0

    def extend(j: int, g: list[int]) -> None:
        """Enumerate every extension of the map g on Z/p**j to Z/p**(j+1)."""
        n = p ** (j + 1)
        block = p**j
        tables = level_tables[j]
        low = [g[x % block] for x in range(n)]  # h(x) = low[x] mod p**j
        h = [-1] * n
        inv = [-1] * n
        trail: list[int] = []  # assigned arguments in order, also the queue

        def put(z: int, w: int) -> None:
            nonlocal nodes
            nodes += 1
            if nodes > node_budget:
                raise BudgetExceeded(nodes, node_budget, j + 1, len(found))
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
            elif j + 1 < k:
                extend(j + 1, h)
            else:
                found.append(tuple(h))

    extend(0, [0])
    names = tuple(op.name for op in operations)
    return EnumerationResult(p, k, names, tuple(sorted(found)), nodes)


# ---------------------------------------------------------------------------
# realized families reduced mod p**k
# ---------------------------------------------------------------------------


def family_specs(ctx: PrimeContext, family: str):
    """Yield every family member with parameters ranging over residues mod p**k."""
    p = ctx.p
    if family == "add":
        yield from (AddSpec(ctx.integer(A)) for A in ctx.units())
    elif family == "mul":
        s_values = [s for s in range(1, p) if math.gcd(s, p - 1) == 1]
        units = list(ctx.units())
        yield from (
            MulSpec(s, ctx.integer(a), ctx.integer(A))
            for s in s_values
            for a in units
            for A in units
        )
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
        valid = [e for e in range(1, p) if math.gcd(e, p - 1) == 1]
        yield from (
            AndSpec(ctx, exps)
            for exps in itertools.product(valid, repeat=ctx.precision)
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
        s_count = sum(1 for s in range(1, p) if math.gcd(s, p - 1) == 1)
        return s_count * phi_units * phi_units
    if family == "xor":
        return (p - 1) ** k * p ** (k * (k - 1) // 2)
    if family == "and":
        valid = sum(1 for e in range(1, p) if math.gcd(e, p - 1) == 1)
        return valid**k
    raise ValueError(f"unknown family {family!r}")


def family_tables(ctx: PrimeContext, family: str) -> set[tuple[int, ...]]:
    """Value tables of every family member with parameters ranging mod p**k."""
    return {realize(spec).table for spec in family_specs(ctx, family)}


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


def compare_with_family(result: EnumerationResult, family: str | None = None) -> SetComparison:
    """Set-compare an enumeration against the matching parametric family."""
    if family is None:
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

    def to_json(self) -> dict:
        return {
            "ops": list(self.ops),
            "count": self.count,
            "identity_only": self.identity_only,
            "witness": list(self.witness) if self.witness else None,
        }


@dataclass(frozen=True)
class TrivialPairsReport:
    p: int
    k: int
    pairs: tuple[PairReport, ...]
    all_trivial: bool
    nodes: int

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "k": self.k,
            "all_trivial": self.all_trivial,
            "nodes": self.nodes,
            "pairs": [r.to_json() for r in self.pairs],
        }


def verify_trivial_pairs(
    p: int, k: int, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> TrivialPairsReport:
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
        result = enumerate_automorphisms(ctx, pair, node_budget=node_budget)
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
