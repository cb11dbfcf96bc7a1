"""Tests for the exhaustive enumeration oracle and family comparisons."""

import itertools
import math
import random

import pytest

from padiclab import (
    BudgetExceeded,
    CustomOp,
    PrimeContext,
    compare_with_family,
    enumerate_automorphisms,
    family_size,
    family_specs,
    family_tables,
    operation_by_name,
    random_measure_preserving,
    realize,
    verify_trivial_pairs,
    xor_generators,
)
from padiclab import oracle
from padiclab.automorph import Operation
from padiclab.oracle import (
    DEFAULT_NODE_BUDGET,
    MAX_TABLE_SIZE,
    OP_TO_FAMILY,
    OPERATION_PAIRS,
)

# the four single operations and the six pairs
OP_SETS = [["plus"], ["xor"], ["and"], ["times"]] + [list(pair) for pair in OPERATION_PAIRS]


def naive_enumeration(p, k, op_names):
    """Cross-oracle: filter all permutations of [0, p**k) directly."""
    ctx = PrimeContext(p, k)
    n = ctx.modulus
    ops = [operation_by_name(name) for name in op_names]
    out = []
    for perm in itertools.permutations(range(n)):
        compatible = True
        for level in range(1, k):
            block = p**level
            if any(perm[x] % block != perm[x % block] % block for x in range(n)):
                compatible = False
                break
        if not compatible:
            continue
        if all(
            perm[op.apply(ctx, x, y)] == op.apply(ctx, perm[x], perm[y])
            for op in ops
            for x in range(n)
            for y in range(n)
        ):
            out.append(perm)
    return sorted(out)


def permutation_enumeration(p, k, ops):
    """Reference search: branch over whole digit permutations per slot.

    The units-digit permutation first, then one permutation per (level,
    prefix) slot; each op constraint is tested once the slot that completes
    its triple is filled.
    """
    operations = [operation_by_name(op) for op in ops]
    perms = list(itertools.permutations(range(p)))
    op_tables = []
    triples = []
    for j in range(k):
        level_ctx = PrimeContext(p, j + 1)
        size = level_ctx.modulus
        block = p**j
        level_ops = []
        level_triples = [[[] for _ in operations] for _ in range(block)]
        for oi, op in enumerate(operations):
            flat = [0] * (size * size)
            for x in range(size):
                for y in range(size):
                    z = op.apply(level_ctx, x, y)
                    flat[x * size + y] = z
                    slot = max(x % block, y % block, z % block)
                    level_triples[slot][oi].append((x, y, z))
            level_ops.append(flat)
        op_tables.append(level_ops)
        triples.append(level_triples)

    slots = [(j, a) for j in range(k) for a in range(p**j)]
    values = [[0] * (p ** (j + 1)) for j in range(k)]
    found = []

    def descend(slot_index):
        if slot_index == len(slots):
            found.append(tuple(values[k - 1]))
            return
        j, a = slots[slot_index]
        block = p**j
        size = p ** (j + 1)
        level_values = values[j]
        base = values[j - 1][a] if j else 0
        for perm in perms:
            for d in range(p):
                level_values[a + d * block] = base + perm[d] * block
            if all(
                level_values[z] == op_flat[level_values[x] * size + level_values[y]]
                for op_flat, op_triples in zip(op_tables[j], triples[j][a])
                for x, y, z in op_triples
            ):
                descend(slot_index + 1)

    descend(0)
    return sorted(found)


def full_enumeration(
    ctx: PrimeContext, ops, *, node_budget: int = DEFAULT_NODE_BUDGET
) -> tuple[tuple[int, ...], ...]:
    """Reference search: find every map of every level by search.

    The oracle's propagating search before it became a coset search: a map
    found on Z/p**j is extended to every one of its lifts on Z/p**(j+1) and
    each of those is extended in turn, so ``found`` collects the maps of
    Z/p**k one by one.  Returns them sorted.
    """
    p, k = ctx.p, ctx.precision
    if ctx.modulus**2 > MAX_TABLE_SIZE:
        raise ValueError(
            f"operation tables of {ctx.modulus}**2 entries exceed the "
            f"desk-scale cap {MAX_TABLE_SIZE}"
        )
    operations = [operation_by_name(op) for op in ops]

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
    return tuple(sorted(found))


# the first four keep their historical ids ops0..ops3
@pytest.mark.parametrize(
    "ops",
    [["plus"], ["xor"], ["times"], ["plus", "xor"], ["and"]]
    + [list(pair) for pair in OPERATION_PAIRS if pair != ("plus", "xor")],
)
def test_backtracking_matches_naive_filter(ops):
    ctx = PrimeContext(2, 3)
    result = enumerate_automorphisms(ctx, ops)
    assert list(result.automorphisms) == naive_enumeration(2, 3, ops)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2)])
def test_search_matches_permutation_reference(p, k):
    ctx = PrimeContext(p, k)
    for ops in OP_SETS:
        result = enumerate_automorphisms(ctx, ops)
        assert list(result.automorphisms) == permutation_enumeration(p, k, ops), ops


# x op y = x**2 * y is not commutative, so y op x must be forced as well
SKEW = Operation("skew", lambda ctx, x, y: x * x * y % ctx.modulus)
# x op y = x + y + k mod p**k does not reduce from one level to the next,
# so a forced value can fail to lift the level below
DRIFT = Operation("drift", lambda ctx, x, y: (x + y + ctx.precision) % ctx.modulus)


# the reference is slow on drift at (5,2): its permutations rarely fail early
@pytest.mark.parametrize(
    "p,k,op",
    [(3, 2, SKEW), (5, 2, SKEW), (2, 3, SKEW), (3, 2, DRIFT), (2, 3, DRIFT)],
    ids=lambda value: getattr(value, "name", value),
)
def test_custom_ops_match_permutation_reference(p, k, op):
    for ops in ([op], [op, "xor"]):
        result = enumerate_automorphisms(PrimeContext(p, k), ops)
        assert list(result.automorphisms) == permutation_enumeration(p, k, ops)


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 4), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_coset_search_matches_full_search(p, k):
    ctx = PrimeContext(p, k)
    for ops in OP_SETS:
        result = enumerate_automorphisms(ctx, ops)
        assert result.automorphisms == full_enumeration(ctx, ops), ops


@pytest.mark.parametrize("p,k", [(3, 2), (2, 3), (5, 2)])
@pytest.mark.parametrize("custom", [SKEW, DRIFT], ids=lambda op: op.name)
def test_coset_search_matches_full_search_on_custom_ops(p, k, custom):
    # the coset argument needs neither commutativity nor tower-compatible tables
    ctx = PrimeContext(p, k)
    for ops in ([custom], [custom, "xor"]):
        result = enumerate_automorphisms(ctx, ops)
        assert result.automorphisms == full_enumeration(ctx, ops), ops


@pytest.mark.parametrize("p,k,times", [(3, 4, 324), (2, 6, 256)])
def test_coset_search_counts_at_full_reach(p, k, times):
    # every xor family member is found: 11,664 maps at (3,4), 32,768 at (2,6)
    ctx = PrimeContext(p, k)
    assert enumerate_automorphisms(ctx, ["xor"]).count == family_size(ctx, "xor")
    assert enumerate_automorphisms(ctx, ["times"]).count == times


def conjugate(op, sigma):
    """op^sigma(x, y) = sigma(sigma**-1(x) op sigma**-1(y)) at every level.

    sigma is a tower-compatible bijection, so sigma mod p**j is read off its
    first p**j values; each level's map and inverse are built once.
    """
    levels = {}

    def apply(ctx, x, y):
        n = ctx.modulus
        if n not in levels:
            forward = [v % n for v in sigma[:n]]
            levels[n] = forward, sorted(range(n), key=forward.__getitem__)
        forward, inverse = levels[n]
        return forward[op.apply(ctx, inverse[x], inverse[y])]

    return Operation(f"{op.name}^sigma", apply)


# the seeds of the conjugating maps per context; at p = 2 seed 0 fixes both
# digits of level 0 and seed 1 swaps them
CONJUGATORS = {
    (2, 3): (0, 1), (3, 2): (0, 1), (5, 2): (0, 1), (2, 5): (0, 1), (3, 3): (0, 1),
    (7, 2): (0, 1), (3, 4): (0,), (5, 3): (0,),
}


def conjugator(p, k, seed):
    return random_measure_preserving(PrimeContext(p, k), random.Random(seed)).table


@pytest.mark.parametrize(
    "ops", [["plus"], ["xor"], ["and"], ["times"], ["plus", "xor"], ["times", "xor"]], ids="+".join
)
@pytest.mark.parametrize(
    "p,k,seed", [(p, k, seed) for (p, k), seeds in CONJUGATORS.items() for seed in seeds]
)
def test_conjugated_ops_have_the_conjugated_group(p, k, seed, ops):
    # Aut(op^sigma) = sigma o Aut(op) o sigma**-1: a check wherever the
    # oracle runs, on ops that are not built-ins, whose searches take other paths
    ctx = PrimeContext(p, k)
    sigma = conjugator(p, k, seed)
    inverse = sorted(range(ctx.modulus), key=sigma.__getitem__)
    conjugated = enumerate_automorphisms(ctx, [conjugate(operation_by_name(op), sigma) for op in ops])
    expected = sorted(
        tuple(sigma[h[y]] for y in inverse) for h in enumerate_automorphisms(ctx, ops).automorphisms
    )
    assert list(conjugated.automorphisms) == expected


@pytest.mark.parametrize("p,k", list(CONJUGATORS))
def test_some_conjugator_moves_a_digit_of_level_0(p, k):
    assert any(
        [v % p for v in conjugator(p, k, seed)[:p]] != list(range(p)) for seed in CONJUGATORS[p, k]
    )


# value assignments per single-op search at the five contexts of the bench's
# verify grid, 4,569 in all (8,378 when every map of a level had its own
# first-lift search); node counts do not depend on the machine
GRID_NODES = {
    (3, 2): {"plus": 43, "xor": 61, "and": 41, "times": 33},
    (5, 2): {"plus": 171, "xor": 471, "and": 158, "times": 198},
    (2, 3): {"plus": 35, "xor": 47, "and": 42, "times": 34},
    (3, 3): {"plus": 151, "xor": 529, "and": 205, "times": 216},
    (2, 5): {"plus": 227, "xor": 711, "and": 434, "times": 762},
}


@pytest.mark.parametrize("p,k", list(GRID_NODES))
def test_node_counts_on_the_verify_grid(p, k):
    ctx = PrimeContext(p, k)
    assert {op: enumerate_automorphisms(ctx, [op]).nodes for op in GRID_NODES[p, k]} == GRID_NODES[p, k]


def test_output_larger_than_the_cap_is_refused(monkeypatch):
    # (3,3) xor has 12 maps mod 9 (108 entries) and 216 mod 27 (5,832); the
    # op tables (27**2 = 729 entries) and the 12 lifts mod 27 (324) stay
    # under the cap, the composed group does not: its order is known, its
    # maps are refused
    monkeypatch.setattr(oracle, "MAX_TABLE_SIZE", 1_000)
    result = enumerate_automorphisms(PrimeContext(3, 3), ["xor"])
    assert result.count == 216
    with pytest.raises(ValueError, match=r"maps mod p\*\*3"):
        result.automorphisms


@pytest.mark.parametrize(
    "cap,p,k,message",
    [
        # (2,6) xor: the op tables hold 64**2 = 4,096 entries, and the
        # 1,024 maps mod 32 (32,768) would be composed for the walk of level 6
        (5_000, 2, 6, r"maps mod p\*\*5 would hold"),
        # (2,5) xor: the 64 maps mod 16 (1,024 entries) all lift, and the
        # 64 lifts mod 32 hold 2,048
        (1_500, 2, 5, r"lifts mod p\*\*5 would hold"),
    ],
)
def test_search_refuses_what_it_would_hold_over_the_cap(monkeypatch, cap, p, k, message):
    monkeypatch.setattr(oracle, "MAX_TABLE_SIZE", cap)
    with pytest.raises(ValueError, match=message):
        enumerate_automorphisms(PrimeContext(p, k), ["xor"])


def test_enumeration_counts_examples():
    assert enumerate_automorphisms(PrimeContext(3, 2), ["plus"]).count == 6
    assert enumerate_automorphisms(PrimeContext(2, 3), ["xor"]).count == 8
    assert enumerate_automorphisms(PrimeContext(2, 3), ["plus", "times"]).count == 1


def test_enumeration_is_sorted_and_distinct():
    result = enumerate_automorphisms(PrimeContext(3, 2), ["xor"])
    assert list(result.automorphisms) == sorted(set(result.automorphisms))


def test_enumerated_tables_are_tower_compatible_bijections():
    result = enumerate_automorphisms(PrimeContext(3, 2), ["plus"])
    for table in result.automorphisms:
        assert sorted(table) == list(range(9))
        assert all(table[x] % 3 == table[x % 3] % 3 for x in range(9))


def test_group_closure_and_inverses():
    result = enumerate_automorphisms(PrimeContext(3, 2), ["xor"])
    tables = set(result.automorphisms)
    for f in tables:
        inverse = [0] * len(f)
        for x, fx in enumerate(f):
            inverse[fx] = x
        assert tuple(inverse) in tables
        for g in tables:
            assert tuple(f[g[x]] for x in range(len(f))) in tables


def test_monotonicity_under_reduction():
    for ops in (["plus"], ["plus", "xor"]):
        fine = enumerate_automorphisms(PrimeContext(2, 4), ops)
        coarse = set(enumerate_automorphisms(PrimeContext(2, 3), ops).automorphisms)
        for table in fine.automorphisms:
            assert tuple(v % 8 for v in table[:8]) in coarse


def test_budget_exceeded_is_raised_not_truncated():
    with pytest.raises(BudgetExceeded):
        enumerate_automorphisms(PrimeContext(5, 2), ["plus"], node_budget=10)


def test_budget_exceeded_reports_progress():
    # 151 assignments. Z/5: the kernel search tries h(0) = 0..4 (four are
    # cut at once, since h(0 + 0) must be h(0) + h(0)) and finds the 4 maps
    # x -> Ax, each h(1) = A forcing h(2), h(3), h(4): 5 + 16 = 21; the one
    # map on Z/1 is the identity, whose first lift is the kernel's first
    # map, so no lift is searched. Z/25: the kernel search tries h(0) = 0,
    # 5, .., 20 and finds the 5 maps x -> Ax with A = 1 mod 5, each h(1)
    # forcing the other 23 values: 5 + 120 = 125, 146 in all; the identity's
    # lift is again the kernel's first map. The walk then reaches x -> 2x,
    # which is not yet in the lifted subgroup, and its first-lift search
    # takes nodes 147 to 171 (25 values), so node 151 falls inside it, when
    # only the identity's lift is known: 1 lift times 5 kernel maps, 5 maps.
    # Within budget that lift would make x -> 2x a generator, and since 2
    # generates (Z/5)^*, the closure lifts x -> 3x and x -> 4x with no
    # search: 171 nodes in all
    with pytest.raises(BudgetExceeded) as info:
        enumerate_automorphisms(PrimeContext(5, 2), ["plus"], node_budget=150)
    exc = info.value
    assert (exc.nodes, exc.budget, exc.level, exc.found) == (151, 150, 2, 5)
    assert enumerate_automorphisms(PrimeContext(5, 2), ["plus"]).nodes == 171
    # 3 assignments: h(0) = 0, then h(1) = 1 forces h(2) = 2 and is cut
    # before h(3), still on Z/5
    with pytest.raises(BudgetExceeded) as info:
        enumerate_automorphisms(PrimeContext(5, 2), ["plus"], node_budget=3)
    assert (info.value.nodes, info.value.level, info.value.found) == (4, 1, 0)


@pytest.mark.parametrize("budget", [0, -1, True, 1.5])
def test_budget_below_one_is_malformed(budget):
    # rejected before any table is built: at p = 65521 one table alone
    # would exceed the cap, and that error would come first otherwise
    with pytest.raises(ValueError, match="node budget must be an int >= 1"):
        enumerate_automorphisms(PrimeContext(65521, 2), ["plus"], node_budget=budget)


C32 = PrimeContext(3, 2)


@pytest.mark.parametrize(
    "make,message",
    [
        pytest.param(
            lambda: family_size(PrimeContext(3, 2), "nand"), "unknown family 'nand'", id="family-size"
        ),
        # refused at the call, not at the first next()
        pytest.param(
            lambda: family_specs(PrimeContext(3, 2), "nand"), "unknown family 'nand'", id="family-specs"
        ),
        pytest.param(
            lambda: compare_with_family(enumerate_automorphisms(PrimeContext(3, 2), ["plus", "xor"])),
            "family can only be inferred for single-operation results",
            id="compare-two-ops",
        ),
        pytest.param(
            lambda: enumerate_automorphisms(PrimeContext(3, 2), [["plus"]]),
            "unknown operation ['plus']; choose from ['and', 'plus', 'times', 'xor']",
            id="unhashable-op-name",
        ),
        pytest.param(
            lambda: compare_with_family(
                enumerate_automorphisms(C32, [CustomOp(C32, 0, 1, 1).as_operation()])
            ),
            "operation 'custom' has no family; families exist for ['and', 'plus', 'times', 'xor']",
            id="compare-custom-op",
        ),
        # refused before any table is built: at p = 65521 one table alone
        # would exceed the cap, and that error would come first otherwise
        pytest.param(
            lambda: enumerate_automorphisms(PrimeContext(65521, 2), "plus"),
            "ops must be a list of operations, got the string 'plus'",
            id="ops-string",
        ),
    ],
)
def test_refusals_name_their_cause(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_ops_may_be_any_sequence_of_names_or_operations():
    ctx = PrimeContext(3, 2)
    expected = enumerate_automorphisms(ctx, ["plus", "xor"]).automorphisms
    plus, xor = operation_by_name("plus"), operation_by_name("xor")
    for ops in (("plus", "xor"), [plus, "xor"], (plus, xor)):
        assert enumerate_automorphisms(ctx, ops).automorphisms == expected


def test_compare_plus_family():
    result = enumerate_automorphisms(PrimeContext(3, 2), ["plus"])
    comparison = compare_with_family(result)
    assert comparison.equal
    assert comparison.family_count == 6


def test_compare_and_family():
    result = enumerate_automorphisms(PrimeContext(5, 2), ["and"])
    comparison = compare_with_family(result)
    assert comparison.equal
    assert comparison.family_count == 4


def test_compare_xor_family():
    result = enumerate_automorphisms(PrimeContext(3, 2), ["xor"])
    comparison = compare_with_family(result)
    assert comparison.equal
    assert comparison.family_count == 12


def test_times_comparison_finds_quotient_extras_at_p2():
    # the quotient mod 8 admits two automorphisms beyond the family: the
    # units 3 and 7 have the same square and order, so swapping them is
    # multiplicative and tower-compatible, though it lifts to no scaling map
    result = enumerate_automorphisms(PrimeContext(2, 3), ["times"])
    comparison = compare_with_family(result)
    assert not comparison.equal
    assert comparison.missing == ()
    assert comparison.extra == (
        (0, 1, 2, 7, 4, 5, 6, 3),
        (0, 1, 6, 7, 4, 5, 2, 3),
    )


def test_times_comparison_equal_at_p3():
    result = enumerate_automorphisms(PrimeContext(3, 2), ["times"])
    comparison = compare_with_family(result)
    assert comparison.equal
    assert comparison.enumerated_count == 4


@pytest.mark.parametrize(
    "p,k",
    [(2, k) for k in range(1, 7)] + [(3, k) for k in range(1, 5)] + [(5, 1), (5, 2), (5, 3), (7, 2)],
)
def test_mul_family_tables_match_every_parameter_choice(p, k):
    # the reference realizes every (s, a, A) mod p**k; family_tables only
    # the a, A below max(p, p**(k-1))
    ctx = PrimeContext(p, k)
    every_choice = {realize(spec).table for spec in family_specs(ctx, "mul")}
    assert family_tables(ctx, "mul") == every_choice


@pytest.mark.parametrize("family", ["xor", "and"])
@pytest.mark.parametrize("p,k", [(2, 1), (2, 5), (3, 3), (5, 2), (7, 2), (3, 4)])
def test_digit_family_tables_match_every_parameter_choice(family, p, k):
    # the reference realizes every spec; family_tables builds no spec and
    # shares each prefix's table among its extensions (xor at (3,4): 2, 12
    # and 216 prefixes at precision 1, 2 and 3 under 11,664 members)
    ctx = PrimeContext(p, k)
    every_choice = {realize(spec).table for spec in family_specs(ctx, family)}
    assert family_tables(ctx, family) == every_choice


def test_digit_family_spec_order():
    # xor rows run through the diagonal fastest, then the off-diagonal
    # coefficients, the last row fastest of all; exponents likewise
    ctx = PrimeContext(3, 2)
    xor = [spec.alpha for spec in family_specs(ctx, "xor")]
    assert len(xor) == family_size(ctx, "xor") == 12
    assert xor[:2] == [((1,), (0, 1)), ((1,), (0, 2))]
    assert xor[-1] == ((2,), (2, 2))
    assert [spec.exponents for spec in family_specs(ctx, "and")] == [(1, 1)]
    ctx = PrimeContext(5, 2)
    assert [spec.exponents for spec in family_specs(ctx, "and")] == [(1, 1), (1, 3), (3, 1), (3, 3)]


def test_family_tables_counts():
    assert len(family_tables(PrimeContext(3, 2), "add")) == 6
    assert len(family_tables(PrimeContext(2, 3), "xor")) == 8
    assert len(family_tables(PrimeContext(5, 2), "and")) == 4
    with pytest.raises(ValueError):
        family_tables(PrimeContext(3, 2), "nope")


def test_trivial_pairs_quotient_counts():
    # quotient-level ground truth: pairs with carry-free addition keep the
    # scalings A = 1 mod p**(k-1), whose distinguishing carries fall above
    # the precision window; all other pairs collapse to the identity
    report = verify_trivial_pairs(2, 3)
    counts = {r.ops: r.count for r in report.pairs}
    assert counts == {
        ("plus", "times"): 1,
        ("plus", "xor"): 2,
        ("plus", "and"): 1,
        ("times", "xor"): 2,
        ("times", "and"): 1,
        ("xor", "and"): 1,
    }
    assert not report.all_trivial
    group = {r.ops: r.automorphisms for r in report.pairs}[("plus", "xor")]
    assert group == (tuple(range(8)), tuple(5 * x % 8 for x in range(8)))

    assert report.nodes == sum(r.nodes for r in report.pairs)

    report = verify_trivial_pairs(3, 2)
    counts = {r.ops: r.count for r in report.pairs}
    assert counts == {
        ("plus", "times"): 1,
        ("plus", "xor"): 3,
        ("plus", "and"): 1,
        ("times", "xor"): 1,
        ("times", "and"): 1,
        ("xor", "and"): 1,
    }


@pytest.mark.parametrize("p,k", [(2, 2), (2, 3), (2, 4), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_pair_groups_are_intersections_of_single_op_groups(p, k):
    # the search imposes each operation's constraints as a conjunction, so
    # a pair search finds exactly the maps found by both single-op searches
    ctx = PrimeContext(p, k)
    groups = {op: set(enumerate_automorphisms(ctx, [op]).automorphisms) for op in OP_TO_FAMILY}
    for a, b in OPERATION_PAIRS:
        pair = enumerate_automorphisms(ctx, [a, b]).automorphisms
        assert tuple(sorted(groups[a] & groups[b])) == pair, (a, b)


@pytest.mark.parametrize("p,k", [(2, 3), (3, 2)])
@pytest.mark.parametrize("custom", [SKEW, DRIFT], ids=lambda op: op.name)
def test_custom_op_pairs_are_intersections(p, k, custom):
    ctx = PrimeContext(p, k)
    alone = set(enumerate_automorphisms(ctx, [custom]).automorphisms)
    for op in OP_TO_FAMILY:
        single = set(enumerate_automorphisms(ctx, [op]).automorphisms)
        both = enumerate_automorphisms(ctx, [custom, op]).automorphisms
        assert tuple(sorted(alone & single)) == both, op


def test_trivial_pair_extras_do_not_lift():
    # the level-(k+1) survivors all reduce to the identity at level k
    fine = enumerate_automorphisms(PrimeContext(3, 3), ["plus", "xor"])
    assert fine.count == 3
    identity = tuple(range(9))
    for table in fine.automorphisms:
        assert tuple(v % 9 for v in table[:9]) == identity


# every context where the pair searches finish within a second each
PAIR_REACH = [(2, k) for k in range(2, 8)] + [(3, k) for k in range(2, 6)] + [
    (5, 2), (5, 3), (7, 2), (7, 3), (11, 2), (13, 2)
]


@pytest.mark.parametrize("p,k", PAIR_REACH)
def test_plus_xor_keeps_exactly_the_scalings_one_mod_p_to_the_k_minus_1(p, k):
    # x -> (1 + t*p**(k-1))*x adds t times the lowest digit of x to the top
    # digit, with its carry above the window, so it is digit-linear too; the
    # search, the ground truth here, finds no other map
    n = p**k
    scalings = sorted(tuple((1 + t * p ** (k - 1)) * x % n for x in range(n)) for t in range(p))
    result = enumerate_automorphisms(PrimeContext(p, k), ["plus", "xor"])
    assert result.automorphisms == tuple(scalings)


@pytest.mark.parametrize("p,k", PAIR_REACH)
def test_times_xor_keeps_one_top_bit_flip_at_p2(p, k):
    # at p = 2 and k >= 3 the identity and the map that flips the top bit
    # when bit 1 is set; the identity alone at (2,2) and at every odd p
    n = p**k
    group = [tuple(range(n))]
    if p == 2 and k >= 3:
        group.append(tuple(x ^ (2 ** (k - 1) * ((x >> 1) & 1)) for x in range(n)))
    result = enumerate_automorphisms(PrimeContext(p, k), ["times", "xor"])
    assert result.automorphisms == tuple(sorted(group))


def totient(n):
    return sum(math.gcd(n, m) == 1 for m in range(1, n + 1))


def group_order(p, k, ops):
    """The order of the group of ops mod p**k, in closed form.

    At k = 1 xor is plus mod p and and is times, so each op set has the
    group of the ring ops it reduces to: p - 1 maps for plus, phi(p - 1) for
    times, the identity alone for both.  From k = 2 on, plus+xor keeps the p
    scalings 1 mod p**(k-1), and times+xor keeps one top-bit flip at p = 2
    and k >= 3; every other pair keeps the identity alone.
    """
    if k == 1:
        ring = frozenset({"xor": "plus", "and": "times"}.get(op, op) for op in ops)
        return {frozenset({"plus"}): p - 1, frozenset({"times"}): totient(p - 1)}.get(ring, 1)
    return {
        ("plus",): totient(p**k),
        ("xor",): (p - 1) ** k * p ** (k * (k - 1) // 2),
        ("and",): totient(p - 1) ** k,
        ("times",): totient(p - 1) * (p - 1) ** 2 * p ** (2 * k - 4),
        ("plus", "xor"): p,
        ("times", "xor"): 2 if p == 2 and k >= 3 else 1,
    }.get(tuple(ops), 1)


ORDER_REACH = (
    [(2, k) for k in range(1, 8)]
    + [(3, k) for k in range(1, 6)]
    + [(p, k) for p in (5, 7) for k in range(1, 4)]
    + [(p, k) for p in (11, 13) for k in (1, 2)]
)


@pytest.mark.parametrize("p,k", ORDER_REACH)
def test_group_orders_match_their_closed_forms(p, k):
    # each order is read off the tower, so no group is composed: xor at
    # (2,7), (3,5) and (7,3) has more maps than the output guard lets out
    ctx = PrimeContext(p, k)
    results = {"+".join(ops): enumerate_automorphisms(ctx, ops) for ops in OP_SETS}
    assert {ops: result.count for ops, result in results.items()} == {
        "+".join(ops): group_order(p, k, ops) for ops in OP_SETS
    }
    assert not any("automorphisms" in vars(result) for result in results.values())


def tower_bijections(p, k):
    """Every tower-compatible bijection of Z/p**k: each map on Z/p**j
    extended by one permutation of the digits per prefix a < p**j."""
    perms = list(itertools.permutations(range(p)))
    tables = [(0,)]
    for j in range(k):
        block = p**j
        tables = [
            tuple(t[a] + choice[a][d] * block for d in range(p) for a in range(block))
            for t in tables
            for choice in itertools.product(perms, repeat=block)
        ]
    return tables


@pytest.mark.parametrize("p,k", [(2, 1), (2, 2), (2, 3), (3, 1), (3, 2)])
def test_membership_matches_the_composed_group_on_every_bijection(p, k):
    # the test reads the tower (a lift of the reduction, then the kernel);
    # the composed group is the reference
    ctx = PrimeContext(p, k)
    bijections = tower_bijections(p, k)
    assert len(bijections) == math.prod(math.factorial(p) ** p**j for j in range(k))
    for ops in OP_SETS:
        result = enumerate_automorphisms(ctx, ops)
        group = set(result.automorphisms)
        assert [t in result for t in bijections] == [t in group for t in bijections], ops


@pytest.mark.parametrize("p,k", list(GRID_NODES))
def test_membership_matches_the_composed_group_on_the_grid(p, k):
    ctx = PrimeContext(p, k)
    rng = random.Random(p * 100 + k)
    samples = [random_measure_preserving(ctx, rng).table for _ in range(200)]
    for ops in OP_SETS:
        result = enumerate_automorphisms(ctx, ops)
        group = set(result.automorphisms)
        assert all(t in result for t in group), ops
        assert [t in result for t in samples] == [t in group for t in samples], ops


@pytest.mark.parametrize(
    "p,k", [(2, k) for k in range(1, 6)] + [(3, k) for k in range(1, 4)] + [(5, 1), (5, 2), (7, 2)]
)
def test_xor_generators_generate_the_family(p, k):
    ctx = PrimeContext(p, k)
    generators = [realize(spec).table for spec in xor_generators(ctx)]
    assert len(generators) == k * (k - 1) // 2 + (k if p > 2 else 0)
    identity = tuple(range(ctx.modulus))
    closure, queue = {identity}, [identity]
    for f in queue:
        for s in generators:
            fs = tuple(f[y] for y in s)
            if fs not in closure:
                closure.add(fs)
                queue.append(fs)
    assert closure == family_tables(ctx, "xor")


# verify checks xor by its generators and its order; the whole set is
# compared here, at every context where verify compared it before
@pytest.mark.parametrize("p,k", list(GRID_NODES) + [(7, 2), (3, 4), (13, 2), (5, 3), (2, 6)])
def test_xor_group_equals_its_family(p, k):
    comparison = compare_with_family(enumerate_automorphisms(PrimeContext(p, k), ["xor"]))
    assert comparison.equal and comparison.enumerated_count == family_size(PrimeContext(p, k), "xor")


def test_enumeration_result_json():
    result = enumerate_automorphisms(PrimeContext(3, 2), ["plus"])
    data = result.to_json()
    assert data["p"] == 3 and data["k"] == 2 and data["count"] == 6
    assert data["ops"] == ["plus"]
    assert len(data["automorphisms"]) == 6


def test_all_op_sets_finish_at_p7():
    # each search runs under DEFAULT_NODE_BUDGET and would raise past it
    ctx = PrimeContext(7, 2)
    results = {"+".join(ops): enumerate_automorphisms(ctx, ops) for ops in OP_SETS}
    for op, expected in {"plus": 42, "xor": 252, "and": 4, "times": 72}.items():
        comparison = compare_with_family(results[op])
        assert comparison.equal and comparison.enumerated_count == expected, op
    # only the carry-free pair keeps its p scalings A = 1 mod p
    for pair in OPERATION_PAIRS:
        assert results["+".join(pair)].count == (7 if pair == ("plus", "xor") else 1), pair


def test_times_comparison_finds_quotient_extras_at_2_6():
    # the multiplicative extras of (2,3) persist: mod 64 half the maps
    # are outside the family, and every family table is found
    comparison = compare_with_family(enumerate_automorphisms(PrimeContext(2, 6), ["times"]))
    assert (comparison.enumerated_count, comparison.family_count) == (256, 128)
    assert len(comparison.missing) == 0
    assert len(comparison.extra) == 128
