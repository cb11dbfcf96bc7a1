"""Tests for exact residue arithmetic, digit operations, and the analytic kernel."""

import json
import math
import random
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclab import (
    ContextMismatch,
    CustomOp,
    KeystreamKey,
    PrimeContext,
    Word,
    analyze_custom_op,
    compare_with_family,
    enumerate_automorphisms,
    exp_p,
    homomorphic_eval,
    inverse_unit,
    ln_p,
    padic_from_json,
    parse_formula,
    pow_unit,
    teichmuller,
    unit_decompose,
)
from padiclab.core import _fraction_mod


def pow_unit_binomial(x, exponent_value: int) -> int:
    """Reference power of a principal unit: the binomial series for (1+z)**a.

    Independent of builtin pow: it never uses the order of the unit group.
    """
    # sum C(a, n) z**n with z = x - 1; C(a, n) is a p-adic integer, so the
    # n-th term has valuation >= n*v(z) and the tail past K/v(z) vanishes.
    ctx = x.ctx
    z = x.value - 1
    if z == 0:
        return 1
    v = ctx.valuation_of(z)
    acc = 1
    numerator = 1  # a(a-1)...(a-n+1) mod p**K
    z_pow = 1
    factorial = 1
    n = 1
    while (n - 1) * v < ctx.precision:
        numerator = numerator * (exponent_value - (n - 1)) % ctx.modulus
        z_pow *= z
        factorial *= n
        acc = (acc + _fraction_mod(numerator * z_pow, factorial, ctx.p, ctx.modulus)) % ctx.modulus
        n += 1
    return acc


def test_context_rejects_composite():
    with pytest.raises(ValueError):
        PrimeContext(4, 2)
    with pytest.raises(ValueError, match="^p must be prime, got 9$"):  # odd composite
        PrimeContext(9, 2)
    with pytest.raises(ValueError):
        PrimeContext(1, 2)


def test_context_rejects_bad_precision():
    with pytest.raises(ValueError):
        PrimeContext(3, 0)
    with pytest.raises(ValueError):
        PrimeContext(3, 33)


@pytest.mark.parametrize(
    "p,precision,field",
    [(3.0, 2, "p"), ("3", 2, "p"), (True, 2, "p"), (3, 2.0, "precision"), (3, True, "precision")],
)
def test_context_rejects_non_int_fields(p, precision, field):
    with pytest.raises(ValueError, match=f"^{field} must be an int"):
        PrimeContext(p, precision)


def test_from_digits_examples():
    assert PrimeContext(3, 3).from_digits([1, 2]).value == 7
    assert PrimeContext(2, 4).from_digits([]).value == 0
    assert PrimeContext(5, 3).from_digits([2, 1, 4]).value == 107


def test_from_digits_errors():
    ctx = PrimeContext(3, 2)
    with pytest.raises(ValueError):
        ctx.from_digits([3])
    with pytest.raises(ValueError):
        ctx.from_digits([1, 1, 1])


@given(st.data())
def test_digits_roundtrip(data):
    p = data.draw(st.sampled_from([2, 3, 5, 7]))
    k = data.draw(st.integers(min_value=1, max_value=6))
    ctx = PrimeContext(p, k)
    digits = data.draw(
        st.lists(st.integers(0, p - 1), min_size=0, max_size=k)
    )
    x = ctx.from_digits(digits)
    assert ctx.from_digits(x.digits) == x
    assert len(x.digits) == k


def test_padicint_stores_only_its_residue():
    x = PrimeContext(5, 3).integer(107)
    assert not hasattr(x, "__dict__")
    assert x.digits == (2, 1, 4)
    with pytest.raises(AttributeError):
        x.digits = (0, 0, 0)


def test_arithmetic_examples():
    c53 = PrimeContext(5, 3)
    assert (c53.integer(2) + c53.integer(3)).value == 5
    c23 = PrimeContext(2, 3)
    assert (c23.integer(7) + c23.integer(1)).value == 0  # wraps mod 8
    c33 = PrimeContext(3, 3)
    assert (c33.integer(5) * c33.integer(7)).value == 8  # 35 mod 27
    assert (c53.integer(2) - c53.integer(3)).value == 124  # wraps mod 125
    assert (c53.integer(2) - 3).value == 124
    assert (3 - c53.integer(2)).value == 1
    assert (3 - c53.integer(2)).ctx == c53


def test_context_mismatch_rejected():
    a = PrimeContext(3, 2).integer(1)
    b = PrimeContext(3, 3).integer(1)
    with pytest.raises(ContextMismatch):
        a + b
    with pytest.raises(ContextMismatch):
        a ^ b


def test_float_operand_rejected():
    x = PrimeContext(3, 2).integer(1)
    for apply in (lambda: x + 1.5, lambda: 1.5 + x, lambda: x ^ 1.5):
        with pytest.raises(TypeError):
            apply()


def test_pow_operator_takes_negative_exponents_on_units():
    ctx = PrimeContext(3, 2)
    assert ctx.integer(2) ** -1 == ctx.integer(5)  # 2 * 5 = 1 mod 9
    assert ctx.integer(4) ** -2 * ctx.integer(4) ** 2 == ctx.one()


def test_ring_laws_exhaustive_small():
    ctx = PrimeContext(3, 2)
    values = [ctx.integer(v) for v in range(ctx.modulus)]
    for x in values:
        for y in values:
            assert x + y == y + x
            assert x * y == y * x
            for z in values:
                assert (x + y) + z == x + (y + z)
                assert (x * y) * z == x * (y * z)
                assert x * (y + z) == x * y + x * z


@settings(max_examples=200)
@given(st.integers(0, 5**3 - 1), st.integers(0, 5**3 - 1), st.integers(0, 5**3 - 1))
def test_ring_laws_random(a, b, c):
    ctx = PrimeContext(5, 3)
    x, y, z = ctx.integer(a), ctx.integer(b), ctx.integer(c)
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == ctx.zero()
    assert x - y == x + (-y) and a - y == ctx.integer(a) - y


def test_digitwise_examples():
    c32 = PrimeContext(3, 2)
    assert (c32.integer(5) ^ c32.integer(7)).value == 0  # (2,1)+(1,2) digitwise
    assert (c32.integer(5) & c32.integer(7)).value == 8  # (2,2) -> 2+2*3
    c24 = PrimeContext(2, 4)
    x = c24.integer(11)
    assert (x ^ c24.zero()) == x


def test_xor_is_group_and_identity():
    ctx = PrimeContext(3, 2)
    zero = ctx.zero()
    all_ones = ctx.from_digits([1] * ctx.precision)
    for xv in range(ctx.modulus):
        x = ctx.integer(xv)
        assert (x ^ zero) == x
        # element order divides p
        acc = zero
        for _ in range(ctx.p):
            acc = acc ^ x
        assert acc == zero
        # all-ones digit vector is the AND identity
        assert (x & all_ones) == x
        for yv in range(ctx.modulus):
            y = ctx.integer(yv)
            assert (x ^ y) == (y ^ x)
            assert (x & y) == (y & x)
            for zv in range(0, ctx.modulus, 2):
                z = ctx.integer(zv)
                assert ((x ^ y) ^ z) == (x ^ (y ^ z))
                assert ((x & y) & z) == (x & (y & z))


def test_valuation_examples():
    assert PrimeContext(2, 5).integer(12).valuation() == 2
    assert PrimeContext(5, 3).integer(0).valuation() == math.inf
    assert PrimeContext(3, 4).integer(18).valuation() == 2
    # the sentinel is never the precision itself
    assert PrimeContext(2, 3).integer(0).valuation() != 3


def test_inverse_unit_examples():
    c53 = PrimeContext(5, 3)
    assert inverse_unit(c53.integer(57)).value == 68
    assert inverse_unit(PrimeContext(2, 3).one()).value == 1
    assert inverse_unit(PrimeContext(3, 2).integer(2)).value == 5
    with pytest.raises(ValueError):
        inverse_unit(c53.integer(10))


def _egcd(a: int, b: int):
    if b == 0:
        return a, 1, 0
    g, x, y = _egcd(b, a % b)
    return g, y, x - (a // b) * y


def test_inverse_unit_matches_extended_euclid():
    ctx = PrimeContext(3, 3)
    for u in ctx.units():
        g, x, _ = _egcd(u, ctx.modulus)
        assert g == 1
        assert inverse_unit(ctx.integer(u)).value == x % ctx.modulus
        assert (ctx.integer(u) * inverse_unit(ctx.integer(u))).value == 1


def test_teichmuller_examples():
    c53 = PrimeContext(5, 3)
    assert teichmuller(c53.integer(2)).value == 57
    assert teichmuller(c53.one()).value == 1
    assert teichmuller(PrimeContext(3, 3).integer(2)).value == 26


def test_teichmuller_fixed_point_oracle():
    # independent route: iterate z -> z**p until stable
    for p, K in [(3, 3), (5, 3), (7, 2)]:
        ctx = PrimeContext(p, K)
        for u in ctx.units():
            z = u
            seen = set()
            while z not in seen:
                seen.add(z)
                z = pow(z, p, ctx.modulus)
            t = teichmuller(ctx.integer(u))
            assert t.value == z
            assert pow(t.value, p - 1, ctx.modulus) == 1
            assert t.value % p == u % p


def test_teichmuller_matches_k_fold_p_power():
    # the definition: z -> z**p iterated K times from u
    for p, K in [(2, 1), (2, 9), (3, 1), (3, 6), (5, 4), (7, 3), (13, 2), (65521, 2)]:
        ctx = PrimeContext(p, K)
        units = ctx.units() if ctx.modulus <= 729 else range(1, p)
        for u in units:
            z = u
            for _ in range(K):
                z = pow(z, p, ctx.modulus)
            assert teichmuller(ctx.integer(u)).value == z, (p, K, u)


def test_teichmuller_trivial_for_p2():
    ctx = PrimeContext(2, 4)
    for u in ctx.units():
        assert teichmuller(ctx.integer(u)).value == 1


def test_unit_decompose_examples():
    c53 = PrimeContext(5, 3)
    d = unit_decompose(c53.integer(2))
    assert (d.valuation, d.theta.value, d.one_plus_pt.value) == (0, 57, 11)
    d = unit_decompose(PrimeContext(2, 4).integer(12))
    assert (d.valuation, d.theta.value, d.one_plus_pt.value) == (2, 1, 3)
    d = unit_decompose(PrimeContext(3, 2).integer(3))
    assert (d.valuation, d.theta.value, d.one_plus_pt.value) == (1, 1, 1)
    with pytest.raises(ValueError):
        unit_decompose(c53.zero())


def test_unit_decompose_recomposes_everywhere():
    for p, K in [(3, 3), (5, 2), (2, 4)]:
        ctx = PrimeContext(p, K)
        for x in range(1, ctx.modulus):
            d = unit_decompose(ctx.integer(x))
            assert d.recompose().value == x
            shift = ctx.p ** (ctx.precision - d.valuation)
            assert pow(d.theta.value, ctx.p - 1, shift) == 1 % shift
            assert d.one_plus_pt.value % ctx.p == 1
            assert d.one_plus_pt.value == (1 + ctx.p * d.t.value) % ctx.modulus


def test_exp_ln_examples():
    c53 = PrimeContext(5, 3)
    assert ln_p(c53.integer(6)).value == 55
    assert exp_p(c53.zero()).value == 1
    assert exp_p(c53.integer(55)).value == 6


def test_exp_ln_domains():
    c53 = PrimeContext(5, 3)
    with pytest.raises(ValueError):
        exp_p(c53.integer(2))  # unit argument
    with pytest.raises(ValueError):
        ln_p(c53.integer(7))  # 7 != 1 mod 5
    c24 = PrimeContext(2, 4)
    with pytest.raises(ValueError):
        exp_p(c24.integer(2))  # needs valuation >= 2 at p=2
    with pytest.raises(ValueError):
        ln_p(c24.integer(3))  # needs 1 mod 4 at p=2


def test_exp_ln_mutually_inverse():
    c53 = PrimeContext(5, 3)
    for t in range(0, c53.modulus, 5):
        assert ln_p(exp_p(c53.integer(t))).value == t
    for x in range(1, c53.modulus, 5):
        assert exp_p(ln_p(c53.integer(x))).value == x
    c24 = PrimeContext(2, 4)
    for t in range(0, c24.modulus, 4):
        assert ln_p(exp_p(c24.integer(t))).value == t
    for x in range(1, c24.modulus, 4):
        assert exp_p(ln_p(c24.integer(x))).value == x


def test_pow_unit_examples():
    c53 = PrimeContext(5, 3)
    assert pow_unit(c53.integer(6), 1).value == 6
    assert pow_unit(c53.integer(6), 2).value == 36
    assert pow_unit(c53.integer(11), 3).value == 81  # 1331 mod 125


def test_pow_unit_exponent_addition():
    ctx = PrimeContext(5, 3)
    import random

    rng = random.Random(7)
    for _ in range(50):
        x = ctx.integer(1 + 5 * rng.randrange(25))
        a = ctx.integer(rng.randrange(ctx.modulus))
        b = ctx.integer(rng.randrange(ctx.modulus))
        assert pow_unit(x, a) * pow_unit(x, b) == pow_unit(x, a + b)


def test_pow_unit_covers_odd_principal_units_at_p2():
    # x = 3 mod 4 has no exp/ln route; the binomial series still covers it
    ctx = PrimeContext(2, 5)
    for x in range(3, ctx.modulus, 4):
        for a in [0, 1, 2, 3, 7]:
            assert pow_unit(ctx.integer(x), a).value == pow_unit_binomial(ctx.integer(x), a)


POW_GRID = [(2, 1), (2, 5), (2, 8), (3, 1), (3, 4), (5, 3), (7, 2), (65521, 2)]


def _pow_grid_inputs(ctx: PrimeContext):
    """Principal units and exponents: exhaustive up to 256 residues, else sampled."""
    p, m = ctx.p, ctx.modulus
    rng = random.Random(m)
    if m <= 256:
        units = range(1, m, p)
        residues = range(m)
    else:
        units = [1, 1 + p, m - p + 1] + [1 + p * rng.randrange(m // p) for _ in range(40)]
        residues = [0, 1, p, m - 1] + [rng.randrange(m) for _ in range(40)]
    exponents = [ctx.integer(a) for a in residues]
    exponents += list(range(8))  # plain
    exponents += [-1, -2, -3, -p, -m - 1]  # negative plain
    exponents += [m, m + 1, 2 * m + 3, m * m + p + 5]  # plain, at least p**K
    for x in units:
        for a in exponents:
            yield ctx.integer(x), a


@pytest.mark.parametrize("p,k", POW_GRID)
def test_pow_unit_matches_binomial_and_exp_ln_routes(p, k):
    # builtin pow against the binomial series everywhere (x = 3 mod 4 at
    # p = 2 included) and against exp(a ln x) wherever ln is defined
    ctx = PrimeContext(p, k)
    via_exp = 0
    for x, a in _pow_grid_inputs(ctx):
        power = pow_unit(x, a)
        assert power.value == pow_unit_binomial(x, int(a)), (x, a)
        if p != 2 or x.value % 4 == 1:
            assert power == exp_p(a * ln_p(x)), (x, a)
            via_exp += 1
    assert via_exp > 0


def test_pow_unit_rejects_non_principal():
    with pytest.raises(ValueError):
        pow_unit(PrimeContext(5, 3).integer(2), 2)


# an operand of no numeric type, named by its repr in the refusal
OPAQUE = object()


@pytest.mark.parametrize(
    "make,error,message",
    [
        pytest.param(
            lambda: pow_unit(PrimeContext(3, 2).integer(4), PrimeContext(3, 3).integer(2)),
            ContextMismatch,
            "PrimeContext(p=3, precision=2) vs PrimeContext(p=3, precision=3)",
            id="pow-unit-context",
        ),
        pytest.param(
            lambda: pow_unit(PrimeContext(3, 2).integer(4), True),
            ValueError,
            "p-adic residue must be an int, got True",
            id="pow-unit-bool",
        ),
        pytest.param(
            lambda: pow_unit(PrimeContext(3, 2).integer(4), 1.5),
            TypeError,
            "p-adic operand must be a PadicInt or an int, got 1.5",
            id="pow-unit-float",
        ),
        pytest.param(
            lambda: PrimeContext(3, 2).integer(4) + OPAQUE,
            TypeError,
            f"p-adic operand must be a PadicInt or an int, got {OPAQUE!r}",
            id="add-object",
        ),
        pytest.param(
            lambda: PrimeContext(3, 2).integer(4) ** True,
            TypeError,
            "exponent must be an int, got True",
            id="pow-bool",
        ),
        pytest.param(
            lambda: PrimeContext(3, 2).integer(4) ** 1.5,
            TypeError,
            "exponent must be an int, got 1.5",
            id="pow-float",
        ),
        pytest.param(
            lambda: teichmuller(PrimeContext(3, 2).integer(3)),
            ValueError,
            "PadicInt(3 = [0, 1] base 3) is not a unit",
            id="teichmuller-non-unit",
        ),
    ],
)
def test_refusals_name_their_cause(make, error, message):
    with pytest.raises((ValueError, TypeError)) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message


# the result records that print through core.record_to_json: every tuple
# field, nested ones included, must come out as a list, as JSON reads it back
@pytest.mark.parametrize(
    "make",
    [
        pytest.param(
            lambda: analyze_custom_op(
                CustomOp.from_json(PrimeContext(5, 2), {"terms": [[1, 4, "1"]]})
            ),
            id="g-report",
        ),
        # (2,3) times holds two maps outside the mul family
        pytest.param(
            lambda: compare_with_family(enumerate_automorphisms(PrimeContext(2, 3), ["times"])),
            id="set-comparison",
        ),
        pytest.param(lambda: Word(3, (1, 2)), id="word"),
        pytest.param(
            lambda: homomorphic_eval(
                parse_formula(["xor", ["leaf", 0], ["plus", ["leaf", 1], ["leaf", 0]]]),
                [Word(2, (1, 0, 1)), Word(2, (0, 1, 1))],
                KeystreamKey(2, (1, 0, 1)),
            ),
            id="homomorphic-demo",
        ),
    ],
)
def test_record_json_survives_a_round_trip(make):
    data = make().to_json()
    assert json.loads(json.dumps(data)) == data


def test_padic_json_roundtrip():
    ctx = PrimeContext(5, 3)
    x = ctx.integer(107)
    data = x.to_json()
    assert data == {"p": 5, "K": 3, "digits": [2, 1, 4]}
    assert padic_from_json(ctx, data, "x") == x
    assert padic_from_json(ctx, "107", "x") == x
    assert padic_from_json(ctx, 107, "x") == x
    # decimal strings and plain ints share one range check
    for bad, value in (("125", 125), ("-1", -1), (125, 125), (-1, -1), ("999", 999)):
        with pytest.raises(ValueError) as err:
            padic_from_json(ctx, bad, "x")
        assert str(err.value) == f"x = {value}, expected a residue in [0, 125)"
    # a digit object's p and K must be the context's ints
    for bad, message in (
        ({"p": 3, "K": 3, "digits": [1]}, "x.p = 3, expected 5"),
        ({"p": 5.0, "digits": [1]}, "x.p = 5.0, expected 5"),
        ({"K": True, "digits": [1]}, "x.K = True, expected 3"),
    ):
        with pytest.raises(ContextMismatch, match=rf"^{re.escape(message)}$"):
            padic_from_json(ctx, bad, "x")
    # and its digit errors name the field
    for bad, message in (
        ({"digits": 5}, "x.digits = 5, expected a list"),
        ({"digits": [2, True]}, "x.digits[1] = True, expected an int in [0, 5)"),
        ({"digits": [1, 2, 3, 4]}, "x.digits has 4 digits, precision is 3"),
    ):
        with pytest.raises(ValueError, match=rf"^{re.escape(message)}$"):
            padic_from_json(ctx, bad, "x")
    # bools compare equal to 0 and 1, floats to their integer values
    for bad in (True, 2.0, {"digits": [2, True]}, {"digits": [2.0]}):
        with pytest.raises(ValueError):
            padic_from_json(ctx, bad, "x")
    # a decimal string is ASCII digits after an optional minus sign, nothing
    # else int() would take
    for bad in ("1_0", "+3", " 4 ", "4\n", "\u0663", "", "-", "0x10", "3.0"):
        with pytest.raises(ValueError) as err:
            padic_from_json(ctx, bad, "x")
        assert str(err.value) == f"x = {bad!r}, expected a residue in [0, 125) or a digit object"
    assert padic_from_json(ctx, "0010", "x") == ctx.integer(10)
    # more significant digits than the modulus is refused before int() reads
    # the string, past Python's 4,300-digit conversion limit too
    for bad, digits in (("1000", 4), ("-1000", 4), ("1" * 5000, 5000), ("-" + "9" * 4301, 4301)):
        with pytest.raises(ValueError) as err:
            padic_from_json(ctx, bad, "x")
        assert str(err.value) == f"x has {digits} digits, expected a residue in [0, 125)"
    assert padic_from_json(ctx, "0" * 5000 + "7", "x") == ctx.integer(7)
    assert padic_from_json(ctx, "-" + "0" * 5000, "x") == ctx.zero()


def test_residues_are_ints():
    ctx = PrimeContext(3, 2)
    for bad in (0.5, True, 2.0):
        with pytest.raises(ValueError, match="must be an int"):
            ctx.integer(bad)
    with pytest.raises(ValueError, match="got True"):
        ctx.integer(1) + True


def test_padicint_is_hashable_value_type():
    ctx = PrimeContext(3, 2)
    assert ctx.integer(4) == ctx.integer(13)  # same residue
    assert len({ctx.integer(v) for v in range(18)}) == 9
    assert ctx.integer(5) == 5
    assert int(ctx.integer(5)) == 5
