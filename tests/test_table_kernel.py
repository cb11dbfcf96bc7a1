"""The O(p**K) table builders against per-entry reference builders.

Each reference computes every entry on its own from the definition: from
the digits of the argument, by encrypting the word, by summing ball
coefficients, or with one series power per principal unit.  The grid
includes p = 2 at K = 1, 2, 3, where the principal-unit generators -1 and
5 have order at most 2.

The realizers, ``model_fn``, ``from_subfunctions`` and the random
generators skip the tower pass because their tables are compatible by
construction; every built table is passed through ``from_table`` here.
"""

import hashlib
import math
import operator
import random
import subprocess
import sys
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclab import (
    AddSpec,
    AndSpec,
    CompatibilityViolation,
    KeystreamKey,
    LipschitzFn,
    MulSpec,
    PrimeContext,
    SubstitutionKey,
    SubstitutionStreamKey,
    VdpSeries,
    XorSpec,
    coordinate_subfunctions,
    encrypt,
    family_size,
    family_specs,
    family_tables,
    inverse_unit,
    is_bijective_mod,
    model_fn,
    pow_unit,
    preserves_measure_coord,
    preserves_measure_vdp,
    random_lipschitz,
    random_measure_preserving,
    realize,
    tau,
    tau_inverse,
    teichmuller,
    vdp_inverse,
    vdp_transform,
)
from padiclab import core

GRID = [(2, 1), (2, 2), (2, 3), (2, 7), (3, 4), (5, 2), (7, 2), (11, 2)]
SPECS_PER_FAMILY = 4
# the mul family is checked member by member up to this many (s, a, A)
MUL_MEMBERS_CHECKED = 5000


@pytest.fixture(params=GRID, ids=lambda pk: f"p{pk[0]}K{pk[1]}")
def ctx(request):
    return PrimeContext(*request.param)


# ---------------------------------------------------------------------------
# per-entry references
# ---------------------------------------------------------------------------


def reference_add(spec):
    return tuple(spec.A.value * x % spec.ctx.modulus for x in range(spec.ctx.modulus))


def reference_xor(spec):
    ctx = spec.ctx
    table = []
    for x in range(ctx.modulus):
        xd = ctx.digits_of(x)
        value = 0
        scale = 1
        for row in spec.alpha:
            value += sum(c * xd[i] for i, c in enumerate(row)) % ctx.p * scale
            scale *= ctx.p
        table.append(value)
    return tuple(table)


def reference_and(spec):
    ctx = spec.ctx
    table = []
    for x in range(ctx.modulus):
        xd = ctx.digits_of(x)
        value = 0
        scale = 1
        for k, e in enumerate(spec.exponents):
            value += pow(xd[k], e, ctx.p) * scale
            scale *= ctx.p
        table.append(value)
    return tuple(table)


def reference_mul(spec):
    """One pow_unit call per principal unit met."""
    ctx = spec.ctx
    p, modulus = ctx.p, ctx.modulus
    torsion = {d: teichmuller(ctx.integer(d)) for d in range(1, p)}
    torsion_inv = {d: inverse_unit(t).value for d, t in torsion.items()}
    powered = {}
    table = [0] * modulus
    for x in range(1, modulus):
        k = 0
        u = x
        while u % p == 0:
            u //= p
            k += 1
        d = u % p
        principal = u * torsion_inv[d] % modulus
        if principal not in powered:
            powered[principal] = pow_unit(ctx.integer(principal), spec.a).value
        table[x] = (
            pow(p, k, modulus)
            * pow(spec.A.value, k, modulus)
            * pow(torsion[d].value, spec.s, modulus)
            * powered[principal]
            % modulus
        )
    return tuple(table)


def reference_model_fn(key, ctx):
    return tuple(
        tau(encrypt(tau_inverse(x, ctx.precision, ctx.p), key)) for x in range(ctx.modulus)
    )


def reference_from_subfunctions(ctx, subfunctions):
    p = ctx.p
    table = []
    for x in range(ctx.modulus):
        value = 0
        scale = 1
        rest = x
        for k in range(ctx.precision):
            prefix = x % scale if k else 0
            value += subfunctions[k][prefix][rest % p] * scale
            rest //= p
            scale *= p
        table.append(value)
    return tuple(table)


def reference_ball_sums(series):
    """f(x) as the sum of B_m over the balls containing x."""
    ctx = series.ctx
    table = []
    for x in range(ctx.modulus):
        total = 0
        block = 1
        for n in range(1, ctx.precision + 1):
            block *= ctx.p
            m = x % block
            if n == 1 or m >= block // ctx.p:
                total += series.coefficients[m]
        table.append(total % ctx.modulus)
    return tuple(table)


# ---------------------------------------------------------------------------
# seeded inputs
# ---------------------------------------------------------------------------


def random_unit(rng, ctx):
    while True:
        v = rng.randrange(1, ctx.modulus)
        if v % ctx.p:
            return ctx.integer(v)


def coprime_exponents(p):
    return [e for e in range(1, p) if math.gcd(e, p - 1) == 1]


def random_specs(rng, ctx):
    p, K = ctx.p, ctx.precision
    for _ in range(SPECS_PER_FAMILY):
        yield AddSpec(random_unit(rng, ctx))
        yield MulSpec(rng.choice(coprime_exponents(p)), random_unit(rng, ctx), random_unit(rng, ctx))
        alpha = [[rng.randrange(p) for _ in range(k)] + [rng.randrange(1, p)] for k in range(K)]
        yield XorSpec(ctx, alpha)
        yield AndSpec(ctx, [rng.choice(coprime_exponents(p)) for _ in range(K)])


def random_keys(rng, ctx):
    p, K = ctx.p, ctx.precision
    yield SubstitutionKey(p, rng.sample(range(p), p))
    yield SubstitutionStreamKey(p, [rng.sample(range(p), p) for _ in range(K)])
    yield KeystreamKey(p, [rng.randrange(p) for _ in range(K)])


# ---------------------------------------------------------------------------
# the builders agree with their references
# ---------------------------------------------------------------------------


def revalidated(f):
    """f, after asserting that from_table accepts its table unchanged."""
    assert LipschitzFn.from_table(f.ctx, f.table) == f
    return f


def test_realizers_match_per_entry_references(ctx):
    rng = random.Random(ctx.p * 100 + ctx.precision)
    reference = {
        AddSpec: reference_add,
        MulSpec: reference_mul,
        XorSpec: reference_xor,
        AndSpec: reference_and,
    }
    for spec in random_specs(rng, ctx):
        assert revalidated(realize(spec)).table == reference[type(spec)](spec), spec


def test_mul_realizer_edge_parameters(ctx):
    # identity, inversion on the principal units, and the largest residues
    last = ctx.modulus - 1
    s_max = coprime_exponents(ctx.p)[-1]
    for s, a, A in [(1, 1, 1), (1, last, 1), (s_max, last, last), (s_max, 1, last)]:
        spec = MulSpec(s, ctx.integer(a), ctx.integer(A))
        assert revalidated(realize(spec)).table == reference_mul(spec)
    # every member where the family is small: all of the grid but (11,2),
    # with (2,1) and (2,2), where -1 or 5 reduces to 1, among them
    if family_size(ctx, "mul") <= MUL_MEMBERS_CHECKED:
        for spec in family_specs(ctx, "mul"):
            assert realize(spec).table == reference_mul(spec), spec


def test_digit_family_members_and_tables_match_references(ctx):
    # every member where the family is small, as for mul above: realize and
    # family_tables share one digit-table builder, so the per-entry
    # references are the independent check of both
    for family, reference in (("xor", reference_xor), ("and", reference_and)):
        if family_size(ctx, family) <= MUL_MEMBERS_CHECKED:
            tables = set()
            for spec in family_specs(ctx, family):
                table = reference(spec)
                assert realize(spec).table == table, spec
                tables.add(table)
            assert family_tables(ctx, family) == tables


def test_model_fn_matches_encrypt_per_word(ctx):
    rng = random.Random(ctx.p * 100 + ctx.precision + 1)
    for key in random_keys(rng, ctx):
        assert revalidated(model_fn(key, ctx)).table == reference_model_fn(key, ctx), key.kind


def test_from_subfunctions_matches_per_argument_assembly(ctx):
    rng = random.Random(ctx.p * 100 + ctx.precision + 2)
    p = ctx.p
    for _ in range(3):
        subfunctions = [
            [tuple(rng.randrange(p) for _ in range(p)) for _ in range(p**k)]
            for k in range(ctx.precision)
        ]
        assert (
            revalidated(LipschitzFn.from_subfunctions(ctx, subfunctions)).table
            == reference_from_subfunctions(ctx, subfunctions)
        )


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_from_subfunctions_accepts_exactly_what_from_table_accepts(data):
    # any integer digit maps give a tower-compatible table, so only the
    # shape (a level one map off p**k, a digit map one digit off p), the
    # type (a float or a bool digit) and the range (digits -1 or >= p) can
    # fail; a wrong shape is rejected even when the per-argument reference
    # would read a table out of it
    p, K = data.draw(st.sampled_from([(2, 1), (2, 3), (3, 2), (5, 2)]), label="(p, K)")
    ctx = PrimeContext(p, K)
    low, high = data.draw(st.sampled_from([(0, p - 1), (-1, 2 * p)]), label="digit range")
    slack = data.draw(st.sampled_from([0, 1]), label="level length slack")
    map_slack = data.draw(st.sampled_from([0, 0, 1]), label="digit map length slack")
    digit = st.integers(low, high)
    if data.draw(st.booleans(), label="float and bool digits"):
        digit |= st.integers(low, high).map(float) | st.booleans()
    digit_map = st.lists(digit, min_size=p - map_slack, max_size=p + map_slack)
    subfunctions = [
        data.draw(
            st.lists(digit_map, min_size=p**k - slack, max_size=p**k + slack), label=f"level {k}"
        )
        for k in range(K)
    ]
    expected = None
    # from_table refuses a float or a bool entry; a bool digit would sum to
    # an int, so it is refused by its type like a float one
    if all(
        len(level) == p**k and all(len(phi) == p and {*map(type, phi)} == {int} for phi in level)
        for k, level in enumerate(subfunctions)
    ):
        try:
            expected = LipschitzFn.from_table(ctx, reference_from_subfunctions(ctx, subfunctions))
        except ValueError as rejected:
            assert not isinstance(rejected, CompatibilityViolation)
    if expected is None:
        with pytest.raises(ValueError):
            LipschitzFn.from_subfunctions(ctx, subfunctions)
    else:
        assert LipschitzFn.from_subfunctions(ctx, subfunctions) == expected


def test_from_subfunctions_rejects_extra_levels_maps_and_digits():
    ctx = PrimeContext(2, 2)
    good = [[(0, 1)], [(0, 1), (1, 0)]]
    assert LipschitzFn.from_subfunctions(ctx, good).table == (0, 3, 2, 1)
    for bad in (
        [[(0, 1, 1)], [(0, 1), (1, 0)]],  # a digit map one digit long
        [[(0, 1)], [(0, 1), (1, 0), (1, 1)]],  # a level one map long
        [[(0,)], [(0, 1), (1, 0)]],  # a digit map one digit short
        [[(0, 1)]],  # a level missing
        good + [[(0, 1)] * 4],  # a level extra
    ):
        with pytest.raises(ValueError):
            LipschitzFn.from_subfunctions(ctx, bad)
    # a float or a bool digit is refused by its level, even where it sums to
    # an in-range value: (0, 1, 2.0) at (3, 2) gave the entries 2.0, 5.0, 8.0
    for pk, bad, k in (
        ((3, 2), [[(0, 1, 2.0)], [(0, 1, 2)] * 3], 0),
        ((3, 2), [[(0, True, 2)], [(0, 1, 2)] * 3], 0),
        ((2, 2), [[(0, 1)], [(0, 1), (False, 1)]], 1),
    ):
        with pytest.raises(ValueError, match=f"^level {k} holds a digit that is not an int$"):
            LipschitzFn.from_subfunctions(PrimeContext(*pk), bad)


def test_vdp_inverse_matches_ball_sums(ctx):
    rng = random.Random(ctx.p * 100 + ctx.precision + 3)
    for i in range(4):
        f = random_lipschitz(ctx, rng) if i % 2 else random_measure_preserving(ctx, rng)
        revalidated(f)
        series = vdp_transform(f)
        assert vdp_inverse(series).table == reference_ball_sums(series)
        assert vdp_inverse(series) == f


def test_vdp_inverse_of_arbitrary_coefficients(ctx):
    # coefficients that are not all divisible: the same table is evaluated
    # and the same violation is named
    rng = random.Random(ctx.p * 100 + ctx.precision + 4)
    for _ in range(4):
        series = VdpSeries(ctx, tuple(rng.randrange(ctx.modulus) for _ in range(ctx.modulus)))
        expected = reference_ball_sums(series)
        try:
            reference = LipschitzFn.from_table(ctx, expected)
        except CompatibilityViolation as violation:
            with pytest.raises(CompatibilityViolation) as err:
                vdp_inverse(series)
            assert (err.value.x, err.value.y, err.value.level) == (
                violation.x,
                violation.y,
                violation.level,
            )
        else:
            assert vdp_inverse(series) == reference


def digit_count(m, p):
    """Number of base-p digits of m, counting 0 as one digit."""
    n = 1
    while m >= p:
        m //= p
        n += 1
    return n


def test_normalized_divides_by_the_leading_place(ctx):
    # b_m = B_m / p**(digits(m) - 1) for every m; a coefficient that is not
    # divisible is named with its p-power
    rng = random.Random(ctx.p * 100 + ctx.precision + 8)
    for f in (random_lipschitz(ctx, rng), random_measure_preserving(ctx, rng)):
        series = vdp_transform(f)
        for m, b in enumerate(series.coefficients):
            assert series.normalized(m) == b // ctx.p ** (digit_count(m, ctx.p) - 1), m
        if ctx.precision == 1:
            continue
        m = rng.randrange(ctx.p, ctx.modulus)
        coeffs = list(series.coefficients)
        coeffs[m] += 1
        shift = ctx.p ** (digit_count(m, ctx.p) - 1)
        with pytest.raises(ValueError) as err:
            VdpSeries(ctx, tuple(coeffs)).normalized(m)
        assert str(err.value) == f"coefficient {m} not divisible by {shift}"


# ---------------------------------------------------------------------------
# digit-wise operations and the criteria against per-digit, per-entry
# references
# ---------------------------------------------------------------------------

# digits per chunk-table lookup at the odd primes below core._CHUNKED_BELOW:
# the widest c with (p**c)**2 <= 2**16
CHUNK_DIGITS = {3: 5, 5: 3, 7: 2, 11: 2, 13: 2}

# K below the chunk width c (one short chunk), an exact multiple of it
# ((3, 5), (3, 10), (5, 3), (5, 6), (7, 2), (7, 4), (11, 2), (13, 2), (13, 4):
# every chunk full) and neither (a short top chunk); and primes from 17 on,
# where p**2 > 256, c would be 1 and the digit loop runs
DIGIT_OP_CONTEXTS = [
    (2, 1), (2, 13), (2, 32), (3, 1), (3, 4), (3, 5), (3, 8), (3, 10), (3, 20),
    (5, 3), (5, 6), (5, 13), (7, 2), (7, 4), (7, 5), (11, 2), (11, 3), (13, 2),
    (13, 3), (13, 4), (17, 3), (61, 2), (67, 2), (65521, 2),
]
# the contexts whose residues span more than one chunk
MULTI_CHUNK_CONTEXTS = [
    (p, K) for p, K in DIGIT_OP_CONTEXTS if p in CHUNK_DIGITS and K > CHUNK_DIGITS[p]
]


def reference_digit_op(ctx, x, y, digit_op):
    return ctx.value_of(
        [digit_op(a, b) % ctx.p for a, b in zip(ctx.digits_of(x), ctx.digits_of(y))]
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_digit_wise_ops_match_per_digit_reference(data):
    ctx = PrimeContext(*data.draw(st.sampled_from(DIGIT_OP_CONTEXTS), label="(p, K)"))
    # a value below p**i has zero digits, and so zero chunks, above place i
    low = st.integers(0, ctx.precision).flatmap(lambda i: st.integers(0, ctx.p**i - 1))
    residue = st.one_of(
        st.just(0), st.just(ctx.modulus - 1), st.integers(0, ctx.modulus - 1), low
    )
    x, y = data.draw(residue, label="x"), data.draw(residue, label="y")
    # one operand within the first chunk, the other past it, either way
    # round; without a chunk table the width is taken as p**K, which no
    # residue passes
    width = ctx.p ** CHUNK_DIGITS.get(ctx.p, ctx.precision)
    if ctx.modulus > width and data.draw(st.booleans(), label="straddle"):
        x = data.draw(st.integers(0, width - 1), label="below width")
        y = data.draw(st.integers(width, ctx.modulus - 1), label="at or above width")
        if data.draw(st.booleans(), label="swap"):
            x, y = y, x
    assert ctx.xor_values(x, y) == reference_digit_op(ctx, x, y, lambda a, b: a + b)
    assert ctx.and_values(x, y) == reference_digit_op(ctx, x, y, lambda a, b: a * b)


@pytest.mark.parametrize("p,K", MULTI_CHUNK_CONTEXTS)
def test_digit_wise_ops_at_the_chunk_edges(p, K):
    # operands at the edges of the first and second chunk and the largest
    # residue, every pair of them, so each operand ends its chunks first
    ctx, width = PrimeContext(p, K), p ** CHUNK_DIGITS[p]
    edges = (0, 1, width - 1, width, width + 1, width**2 - 1, ctx.modulus - 1)
    edges = [v for v in edges if v < ctx.modulus]
    for x in edges:
        for y in edges:
            assert ctx.xor_values(x, y) == reference_digit_op(ctx, x, y, operator.add), (x, y)
            assert ctx.and_values(x, y) == reference_digit_op(ctx, x, y, operator.mul), (x, y)


@pytest.mark.parametrize("p,K", [(5, 3), (7, 2)])
@pytest.mark.parametrize("digit_op", [operator.add, operator.mul], ids=["sum", "product"])
def test_digit_wise_ops_on_every_pair_of_one_chunk(p, K, digit_op):
    ctx = PrimeContext(p, K)
    method = ctx.xor_values if digit_op is operator.add else ctx.and_values
    for x in range(ctx.modulus):
        for y in range(ctx.modulus):
            assert method(x, y) == reference_digit_op(ctx, x, y, digit_op), (x, y)


@pytest.mark.parametrize("p,c", sorted(CHUNK_DIGITS.items()))
@pytest.mark.parametrize("digit_op", [operator.add, operator.mul], ids=["sum", "product"])
def test_chunk_tables_match_per_digit_reference(p, c, digit_op):
    ctx, width = PrimeContext(p, c), p**c
    expected = bytes(
        reference_digit_op(ctx, a, b, digit_op) for a in range(width) for b in range(width)
    )
    assert core._chunk_table({}, p, digit_op) == (width, expected)


def test_chunk_tables_are_built_on_first_use_only():
    script = (
        "import padiclab, padiclab.cli\n"
        "from padiclab import core\n"
        "print(sorted(core._SUM_CHUNKS), sorted(core._PRODUCT_CHUNKS))\n"
        "core.PrimeContext(3, 4).xor_values(5, 7)\n"
        "core.PrimeContext(17, 2).and_values(5, 7)\n"
        "print(sorted(core._SUM_CHUNKS), sorted(core._PRODUCT_CHUNKS))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stdout.splitlines() == ["[] []", "[3] []"]


def test_building_contexts_builds_no_chunk_table():
    # the contexts of every odd chunked prime, and the per-level ones a search
    # builds, take no table from the stores until xor or and runs on them
    script = (
        "from padiclab import core, PrimeContext, enumerate_automorphisms\n"
        "contexts = [PrimeContext(p, K) for p in (3, 5, 7, 11, 13) for K in (1, 2, 9)]\n"
        "enumerate_automorphisms(PrimeContext(3, 3), ['plus', 'times'])\n"
        "print(sorted(core._SUM_CHUNKS), sorted(core._PRODUCT_CHUNKS))\n"
        "print(all(ctx._chunks == (None, None) for ctx in contexts))\n"
        "enumerate_automorphisms(PrimeContext(5, 2), ['xor'])\n"
        "print(sorted(core._SUM_CHUNKS), sorted(core._PRODUCT_CHUNKS))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr[-500:]
    assert proc.stdout.splitlines() == ["[] []", "True", "[5] []"]


@pytest.mark.parametrize("p,K", [(2, 8), (3, 4), (3, 8), (13, 3), (17, 2)])
def test_a_context_that_ran_the_ops_equals_a_fresh_one(p, K):
    ctx = PrimeContext(p, K)
    ctx.xor_values(ctx.modulus - 1, 1)
    ctx.and_values(ctx.modulus - 1, 1)
    fresh = PrimeContext(p, K)
    assert ctx == fresh and hash(ctx) == hash(fresh)
    assert {ctx: 1}[fresh] == 1
    if p in CHUNK_DIGITS:
        # the context holds the process-wide tables, not copies of them
        assert ctx._chunks[0] is core._SUM_CHUNKS[p] and ctx._chunks[1] is core._PRODUCT_CHUNKS[p]


def reference_vdp_coefficients(f):
    """B_m entry by entry; ValueError at the first m whose p-power fails."""
    ctx = f.ctx
    coeffs = []
    for m in range(ctx.modulus):
        if m < ctx.p:
            coeffs.append(f.table[m])
            continue
        block = 1
        while block * ctx.p <= m:
            block *= ctx.p
        b = (f.table[m] - f.table[m % block]) % ctx.modulus
        if b % block:
            raise ValueError(f"coefficient {m} not divisible by {block}")
        coeffs.append(b)
    return tuple(coeffs)


def reference_vdp_criterion(f):
    ctx, p = f.ctx, f.ctx.p
    coeffs = reference_vdp_coefficients(f)
    if sorted(b % p for b in coeffs[:p]) != list(range(p)):
        return False, (0, 0)
    for k in range(1, ctx.precision):
        block = p**k
        for m in range(block):
            seen = {coeffs[m + i * block] // block % p for i in range(1, p)}
            if seen != set(range(1, p)):
                return False, (k, m)
    return True, None


def reference_coord_criterion(f):
    ctx, p = f.ctx, f.ctx.p
    for k in range(ctx.precision):
        block = p**k
        for a in range(block):
            if sorted(f.table[a + d * block] // block % p for d in range(p)) != list(range(p)):
                return False, (k, a)
    return True, None


def reference_bijective(f, k):
    block = f.ctx.p**k
    seen = [False] * block
    for v in f.table[:block]:
        if seen[v % block]:
            return False
        seen[v % block] = True
    return True


def criterion_tables(ctx, rng):
    """Tables from both generators, and measure-preserving ones with one bad sibling."""
    p = ctx.p
    for _ in range(3):
        yield random_lipschitz(ctx, rng)
        f = random_measure_preserving(ctx, rng)
        yield f
        # repeat one digit in the sub-function at (k, a): still compatible,
        # no longer invertible from level k + 1 on
        k = rng.randrange(ctx.precision)
        a = rng.randrange(p**k)
        levels = [coordinate_subfunctions(f, j) for j in range(ctx.precision)]
        phi = list(levels[k][a])
        d = rng.randrange(p)
        phi[d] = phi[(d + 1) % p]
        levels[k][a] = tuple(phi)
        yield LipschitzFn.from_subfunctions(ctx, levels)


def planted_failures(ctx, rng):
    """(first failing site, table) pairs: digit maps of one measure-preserving
    table with a digit repeated at chosen sites.

    Every level is hit at its first and its last prefix, with digit 1 set to
    digit 0 (a sibling residue of 0 for the vdp criterion) and with the top
    digit set to the one below it.  Then several sites fail together, so the
    first by level, then by prefix, must be named.
    """
    p, K = ctx.p, ctx.precision
    f = random_measure_preserving(ctx, rng)
    levels = [coordinate_subfunctions(f, j) for j in range(K)]

    def planted(*sites):
        broken = [list(level) for level in levels]
        for k, a, (i, j) in sites:
            phi = list(broken[k][a])
            phi[i] = phi[j]
            broken[k][a] = tuple(phi)
        return LipschitzFn.from_subfunctions(ctx, broken)

    repeats = sorted({(1, 0), (p - 1, p - 2)})
    for k in range(K):
        for a in sorted({0, p**k - 1}):
            for repeat in repeats:
                yield (k, a), planted((k, a, repeat))
    for k in range(1, K):
        a, b = sorted(rng.sample(range(p**k), 2))
        yield (k, a), planted((k, b, repeats[0]), (k, a, repeats[-1]))
        yield (k, a), planted((k, p**k - 1, repeats[-1]), (k, a, repeats[0]), (k, b, repeats[0]))
        lower = rng.randrange(k)
        yield (lower, 0), planted((k, 0, repeats[0]), (lower, 0, repeats[-1]))


def report_of(report):
    return report.ok, report.failure


# p = 2, 3, 5 and 7 take the digit bit-sums, 11 and 13 the per-prefix sets
CRITERION_GRID = GRID + [(5, 3), (7, 3), (13, 2)]


@pytest.mark.parametrize("pk", CRITERION_GRID, ids=lambda pk: f"p{pk[0]}K{pk[1]}")
def test_criteria_match_per_entry_references(pk):
    ctx = PrimeContext(*pk)
    rng = random.Random(ctx.p * 100 + ctx.precision + 6)
    for f in criterion_tables(ctx, rng):
        revalidated(f)
        assert vdp_transform(f).coefficients == reference_vdp_coefficients(f)
        assert report_of(preserves_measure_vdp(f)) == reference_vdp_criterion(f)
        assert report_of(preserves_measure_coord(f)) == reference_coord_criterion(f)
        for k in range(1, ctx.precision + 1):
            assert is_bijective_mod(f, k) == reference_bijective(f, k), k
    for site, f in planted_failures(ctx, rng):
        vdp, coord = preserves_measure_vdp(f), preserves_measure_coord(f)
        assert report_of(vdp) == reference_vdp_criterion(f), site
        assert report_of(coord) == reference_coord_criterion(f), site
        # a repeated digit at level 0 spoils the base coefficients, at (0, 0)
        assert vdp.failure == coord.failure == site


def test_criteria_keep_one_set_per_prefix_at_large_p():
    # at p = 65521 the bits 1 << d of one level would take about 275 MiB, so
    # both criteria must stay on the per-prefix sets there
    ctx = PrimeContext(65521, 1)
    swapped = list(range(ctx.modulus))
    swapped[0], swapped[1] = 1, 0
    repeated = list(range(ctx.modulus))
    repeated[1] = 0
    for table in (range(ctx.modulus), swapped, repeated):
        f = LipschitzFn.from_table(ctx, table)
        tracemalloc.start()
        try:
            reports = report_of(preserves_measure_vdp(f)), report_of(preserves_measure_coord(f))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert reports == (reference_vdp_criterion(f), reference_coord_criterion(f))
        assert reports[1][0] == (table is not repeated)
        assert peak < 32 * 2**20, peak


# sha256 over (random_lipschitz table, random_measure_preserving table, rng
# state afterwards), seeded per context.  verify's output sees how many draws
# the measure-preserving tables consume, not their content, so these digests
# and the reference tables of test_draws are the only pins on that content
GENERATOR_DIGESTS = {
    (2, 1): "523e1fec4e029c09",
    (2, 2): "2cbe5d0b9a513f0b",
    (2, 3): "3bed9bd01068d5db",
    (2, 7): "42e74b8dc9a3eefb",
    (3, 4): "85cb63a5d1b8fb2f",
    (5, 2): "ffdb41feb4755334",
    (7, 2): "a94d85ad2c0ebe02",
    (11, 2): "e74f961d9e3b7b5f",
}


def test_generators_keep_their_tables_and_draws(ctx):
    rng = random.Random(ctx.p * 100 + ctx.precision + 5)
    f = random_lipschitz(ctx, rng)
    g = random_measure_preserving(ctx, rng)
    digest = hashlib.sha256(repr((f.table, g.table, rng.getstate())).encode()).hexdigest()
    assert digest[:16] == GENERATOR_DIGESTS[(ctx.p, ctx.precision)]
