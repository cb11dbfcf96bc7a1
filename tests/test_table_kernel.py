"""The O(p**K) table builders against per-entry reference builders.

Each reference computes every entry on its own from the definition: from
the digits of the argument, by encrypting the word, by summing ball
coefficients, or with one series power per principal unit.  The grid
includes p = 2 at K = 1, 2, 3, where the principal-unit generators -1 and
5 have order at most 2.
"""

import math
import random

import pytest

from padiclab import (
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
    encrypt,
    inverse_unit,
    model_fn,
    pow_unit,
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


def test_realizers_match_per_entry_references(ctx):
    rng = random.Random(ctx.p * 100 + ctx.precision)
    reference = {MulSpec: reference_mul, XorSpec: reference_xor, AndSpec: reference_and}
    for spec in random_specs(rng, ctx):
        assert realize(spec).table == reference[type(spec)](spec), spec


def test_mul_realizer_edge_parameters(ctx):
    # identity, inversion on the principal units, and the largest residues
    last = ctx.modulus - 1
    s_max = coprime_exponents(ctx.p)[-1]
    for s, a, A in [(1, 1, 1), (1, last, 1), (s_max, last, last), (s_max, 1, last)]:
        spec = MulSpec(s, ctx.integer(a), ctx.integer(A))
        assert realize(spec).table == reference_mul(spec)


def test_model_fn_matches_encrypt_per_word(ctx):
    rng = random.Random(ctx.p * 100 + ctx.precision + 1)
    for key in random_keys(rng, ctx):
        assert model_fn(key, ctx).table == reference_model_fn(key, ctx), key.kind


def test_from_subfunctions_matches_per_argument_assembly(ctx):
    rng = random.Random(ctx.p * 100 + ctx.precision + 2)
    p = ctx.p
    for _ in range(3):
        subfunctions = [
            [tuple(rng.randrange(p) for _ in range(p)) for _ in range(p**k)]
            for k in range(ctx.precision)
        ]
        assert (
            LipschitzFn.from_subfunctions(ctx, subfunctions).table
            == reference_from_subfunctions(ctx, subfunctions)
        )


def test_vdp_inverse_matches_ball_sums(ctx):
    rng = random.Random(ctx.p * 100 + ctx.precision + 3)
    for i in range(4):
        f = random_lipschitz(ctx, rng) if i % 2 else random_measure_preserving(ctx, rng)
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
