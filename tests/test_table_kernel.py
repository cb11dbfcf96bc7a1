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
import random

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

GRID = [(2, 1), (2, 2), (2, 3), (2, 7), (3, 4), (5, 2), (7, 2), (11, 2)]
SPECS_PER_FAMILY = 4


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
    # shape (a level one map off p**k, a digit map one digit off p) and the
    # range (digits -1 or >= p) can fail; a wrong shape is rejected even
    # when the per-argument reference would read a table out of it
    p, K = data.draw(st.sampled_from([(2, 1), (2, 3), (3, 2), (5, 2)]), label="(p, K)")
    ctx = PrimeContext(p, K)
    low, high = data.draw(st.sampled_from([(0, p - 1), (-1, 2 * p)]), label="digit range")
    slack = data.draw(st.sampled_from([0, 1]), label="level length slack")
    map_slack = data.draw(st.sampled_from([0, 0, 1]), label="digit map length slack")
    digit_map = st.lists(st.integers(low, high), min_size=p - map_slack, max_size=p + map_slack)
    subfunctions = [
        data.draw(
            st.lists(digit_map, min_size=p**k - slack, max_size=p**k + slack), label=f"level {k}"
        )
        for k in range(K)
    ]
    expected = None
    if all(
        len(level) == p**k and all(len(phi) == p for phi in level)
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

DIGIT_OP_CONTEXTS = [(2, 1), (2, 13), (2, 32), (3, 8), (5, 13), (65521, 2)]


def reference_digit_op(ctx, x, y, digit_op):
    return ctx.value_of(
        [digit_op(a, b) % ctx.p for a, b in zip(ctx.digits_of(x), ctx.digits_of(y))]
    )


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_digit_wise_ops_match_per_digit_reference(data):
    ctx = PrimeContext(*data.draw(st.sampled_from(DIGIT_OP_CONTEXTS), label="(p, K)"))
    residue = st.one_of(st.just(0), st.just(ctx.modulus - 1), st.integers(0, ctx.modulus - 1))
    x, y = data.draw(residue, label="x"), data.draw(residue, label="y")
    assert ctx.xor_values(x, y) == reference_digit_op(ctx, x, y, lambda a, b: a + b)
    assert ctx.and_values(x, y) == reference_digit_op(ctx, x, y, lambda a, b: a * b)


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
        return False, (0, 0), "base coefficients not a complete residue system"
    for k in range(1, ctx.precision):
        block = p**k
        for m in range(block):
            seen = {coeffs[m + i * block] // block % p for i in range(1, p)}
            if seen != set(range(1, p)):
                detail = f"sibling coefficients of {m} at level {k} miss a nonzero residue"
                return False, (k, m), detail
    return True, None, ""


def reference_coord_criterion(f):
    ctx, p = f.ctx, f.ctx.p
    for k in range(ctx.precision):
        block = p**k
        for a in range(block):
            if sorted(f.table[a + d * block] // block % p for d in range(p)) != list(range(p)):
                return False, (k, a), f"sub-function at level {k}, prefix {a} is not a permutation"
    return True, None, ""


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


def report_of(report):
    return report.ok, report.failure, report.detail


def test_criteria_match_per_entry_references(ctx):
    rng = random.Random(ctx.p * 100 + ctx.precision + 6)
    for f in criterion_tables(ctx, rng):
        revalidated(f)
        assert vdp_transform(f).coefficients == reference_vdp_coefficients(f)
        assert report_of(preserves_measure_vdp(f)) == reference_vdp_criterion(f)
        assert report_of(preserves_measure_coord(f)) == reference_coord_criterion(f)
        for k in range(1, ctx.precision + 1):
            assert is_bijective_mod(f, k) == reference_bijective(f, k), k


def test_vdp_transform_names_first_incompatible_coefficient(ctx):
    # a table that skipped the tower pass: the first argument whose
    # coefficient is not divisible is named, as the per-entry reference does
    if ctx.precision == 1:
        pytest.skip("every table at K = 1 is tower compatible")
    rng = random.Random(ctx.p * 100 + ctx.precision + 7)
    for _ in range(4):
        table = list(random_lipschitz(ctx, rng).table)
        for x in rng.sample(range(ctx.p, ctx.modulus), 2):
            table[x] = (table[x] + 1) % ctx.modulus
        f = LipschitzFn(ctx, table)
        with pytest.raises(ValueError) as expected:
            reference_vdp_coefficients(f)
        with pytest.raises(ValueError) as err:
            vdp_transform(f)
        assert str(err.value) == str(expected.value)


# sha256 over (random_lipschitz table, random_measure_preserving table, rng
# state afterwards), seeded per context: the generators' draws and their
# order are part of verify's byte-identical output
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
