"""Tests for the four automorphism families, homomorphism checks, and the analyzer."""

import math
import random

import pytest

from padiclab import (
    AND,
    AddSpec,
    AndSpec,
    ContextMismatch,
    CustomOp,
    HomReport,
    LipschitzFn,
    MulSpec,
    Operation,
    PLUS,
    PrimeContext,
    TIMES,
    XOR,
    XorSpec,
    analyze_custom_op,
    aut_spec_from_json,
    aut_spec_to_json,
    compose,
    compose_mul,
    enumerate_automorphisms,
    is_automorphism,
    is_homomorphism,
    operation_by_name,
    realize,
    teichmuller,
)


def ctx53():
    return PrimeContext(5, 3)


# ---------------------------------------------------------------------------
# parameter validation
# ---------------------------------------------------------------------------


def test_add_spec_requires_unit():
    with pytest.raises(ValueError):
        AddSpec(ctx53().integer(10))


def test_mul_spec_validation():
    c = ctx53()
    with pytest.raises(ValueError):
        MulSpec(2, c.one(), c.one())  # gcd(2, 4) != 1
    with pytest.raises(ValueError):
        MulSpec(0, c.one(), c.one())
    with pytest.raises(ValueError):
        MulSpec(1, c.integer(5), c.one())  # a not a unit
    MulSpec(3, c.integer(2), c.integer(7))


def test_xor_spec_validation():
    c = PrimeContext(3, 2)
    with pytest.raises(ValueError):
        XorSpec(c, [[1], [1, 0]])  # zero diagonal
    with pytest.raises(ValueError):
        XorSpec(c, [[1]])  # wrong row count
    with pytest.raises(ValueError):
        XorSpec(c, [[3], [0, 1]])  # digit out of range
    XorSpec(c, [[2], [1, 2]])


def test_and_spec_validation():
    c = PrimeContext(5, 2)
    with pytest.raises(ValueError):
        AndSpec(c, [1, 2])  # gcd(2, 4) != 1
    with pytest.raises(ValueError):
        AndSpec(c, [1])
    AndSpec(c, [3, 1])



def test_spec_fields_must_be_ints():
    c = PrimeContext(5, 2)
    one = c.integer(1)
    cases = [
        (lambda: MulSpec(True, one, one), "s = True, expected an int in [1, 4]"),
        (lambda: MulSpec(1.9, one, one), "s = 1.9, expected an int in [1, 4]"),
        (lambda: XorSpec(c, [[1], [0, True]]), "alpha[1][1] = True, expected an int in [0, 5)"),
        (lambda: AndSpec(c, [1, 3.0]), "s_list[1] = 3.0, expected an int in [1, 4]"),
        (
            lambda: aut_spec_from_json(c, {"family": "mul", "s": "3", "a": "1", "A": "1"}),
            "s = '3', expected an int in [1, 4]",
        ),
        (
            lambda: aut_spec_from_json(c, {"family": "add", "A": True}),
            "A = True, expected a residue in [0, 25) or a digit object",
        ),
        (lambda: CustomOp(c, 0.5, 1, 1), "p-adic residue must be an int, got 0.5"),
        (
            lambda: CustomOp.from_json(c, {"terms": [[True, 4, "1"]]}),
            "term exponents (True,4) must be ints >= 0 with i+j >= 2",
        ),
        (lambda: aut_spec_from_json(c, {"family": "xor", "alpha": 5}), "alpha = 5, expected a list"),
        (
            lambda: aut_spec_from_json(c, {"family": "xor", "alpha": [[1], 5]}),
            "alpha[1] = 5, expected a list",
        ),
        (lambda: aut_spec_from_json(c, {"family": "and", "s_list": 7}), "s_list = 7, expected a list"),
        (lambda: CustomOp.from_json(c, {"terms": [[1, 2]]}), "terms[0] = [1, 2], expected a list of 3"),
        (lambda: CustomOp.from_json(c, {"terms": 5}), "terms = 5, expected a list"),
    ]
    for make, message in cases:
        with pytest.raises(ValueError) as info:
            make()
        assert str(info.value) == message


# ---------------------------------------------------------------------------
# realization
# ---------------------------------------------------------------------------


def test_mul_identity_parameters():
    c = ctx53()
    f = realize(MulSpec(1, c.one(), c.one()))
    assert f.table == tuple(range(c.modulus))


def test_mul_realize_example():
    c = ctx53()
    f = realize(MulSpec(3, c.one(), c.one()))
    assert f(2) == 123


def test_xor_realize_example():
    c = PrimeContext(2, 2)
    f = realize(XorSpec(c, [[1], [1, 1]]))
    assert f(1) == 3


def test_add_realize():
    c = ctx53()
    f = realize(AddSpec(c.integer(7)))
    assert f(3) == 21
    assert is_homomorphism(f, PLUS).ok


def test_and_realize_digit_powers():
    c = PrimeContext(5, 2)
    f = realize(AndSpec(c, [3, 3]))
    # digit-wise cubes: 2 -> 8 mod 5 = 3
    assert f(2) == 3
    assert f(2 + 5 * 4) == 3 + 5 * pow(4, 3, 5)
    assert is_homomorphism(f, AND).ok


# a plain int has no ctx, a realized table has one: both are refused by type
@pytest.mark.parametrize(
    "spec", [5, LipschitzFn.from_table(PrimeContext(3, 1), [0, 2, 1])], ids=["int", "LipschitzFn"]
)
def test_realize_refuses_a_non_spec(spec):
    with pytest.raises(TypeError, match="not an automorphism spec"):
        realize(spec)


def test_each_family_is_automorphism_for_its_operation():
    c = PrimeContext(3, 2)
    assert is_automorphism(realize(AddSpec(c.integer(2))), [PLUS])
    assert is_automorphism(realize(MulSpec(1, c.integer(2), c.integer(4))), [TIMES])
    assert is_automorphism(realize(XorSpec(c, [[2], [1, 1]])), [XOR])
    assert is_automorphism(realize(AndSpec(c, [1, 1])), [AND])


def test_digit_wise_operations_apply_the_context_methods():
    # the class-level (ctx, x, y) methods themselves, no wrapper: the
    # Operation contract and the traced bench, which replaces the methods on
    # the class, both rely on it
    assert XOR.apply is PrimeContext.xor_values
    assert AND.apply is PrimeContext.and_values


def test_mul_precision_contract():
    # evaluation at K agrees with evaluation at K+2 reduced back down
    for p in (3, 5):
        low = PrimeContext(p, 3)
        high = PrimeContext(p, 5)
        rng = random.Random(p)
        for _ in range(5):
            s = rng.choice([s for s in range(1, p) if math.gcd(s, p - 1) == 1])
            a = rng.choice(list(low.units()))
            A = rng.choice(list(low.units()))
            f_low = realize(MulSpec(s, low.integer(a), low.integer(A)))
            f_high = realize(MulSpec(s, high.integer(a), high.integer(A)))
            for x in range(low.modulus):
                assert f_low(x) == f_high(x) % low.modulus


# ---------------------------------------------------------------------------
# homomorphism and automorphism checks
# ---------------------------------------------------------------------------


def test_hom_counterexample_is_lexicographic():
    c = ctx53()
    report = is_homomorphism(realize(AddSpec(c.integer(2))), TIMES)
    assert not report.ok
    assert report.counterexample == (1, 1)
    assert report.mode == "exhaustive"


def test_hom_random_mode_beyond_exhaustive_limit():
    c = PrimeContext(2, 11)  # 2048 entries
    f = realize(AddSpec(c.integer(3)))
    report = is_homomorphism(f, PLUS, seed=1, samples=2000)
    assert report.ok and report.mode == "random" and report.checked == 2000


@pytest.mark.parametrize("samples", [0, -5, 2.5, True, False, "10"])
@pytest.mark.parametrize("K", [2, 11], ids=["exhaustive", "random"])
def test_hom_refuses_a_sample_count_below_one(samples, K):
    # refused before any pair is checked, in either mode
    f = realize(AddSpec(PrimeContext(2, K).integer(3)))
    with pytest.raises(ValueError) as info:
        is_homomorphism(f, PLUS, samples=samples)
    assert str(info.value) == f"samples must be an int >= 1, got {samples!r}"


@pytest.mark.parametrize("seed", [None, True, False, "abc", 1.5])
@pytest.mark.parametrize("K", [2, 11], ids=["exhaustive", "random"])
def test_hom_refuses_a_seed_that_is_not_an_int(seed, K):
    # None would seed from the OS entropy, so no two calls would agree;
    # refused before any pair is checked, in either mode
    f = realize(AddSpec(PrimeContext(2, K).integer(3)))
    with pytest.raises(ValueError) as info:
        is_homomorphism(f, XOR, seed=seed)
    assert str(info.value) == f"seed must be an int, got {seed!r}"


def test_hom_random_mode_reports_its_counterexample():
    f = realize(AddSpec(PrimeContext(2, 11).integer(3)))
    report = is_homomorphism(f, XOR, seed=5)
    assert report == HomReport(ok=False, counterexample=(1046, 1468), mode="random", checked=1)
    assert is_homomorphism(f, XOR, seed=5) == report  # the seed fixes the draws


def test_hom_report_is_truthy_iff_ok():
    f = realize(AddSpec(PrimeContext(3, 2).integer(2)))
    for report in (is_homomorphism(f, PLUS), is_homomorphism(f, XOR)):
        assert bool(report) is report.ok
    assert is_homomorphism(f, PLUS).ok and not is_homomorphism(f, XOR).ok


def test_automorphism_needs_a_bijection():
    constant = LipschitzFn.from_table(PrimeContext(3, 2), [0] * 9)
    assert is_homomorphism(constant, PLUS).ok
    assert not is_automorphism(constant, [PLUS])


def test_identity_is_automorphism_for_everything():
    c = PrimeContext(3, 2)
    ident = realize(AddSpec(c.one()))
    assert is_automorphism(ident, [PLUS, TIMES, XOR, AND])


def test_add_two_fails_joint_plus_xor():
    c = PrimeContext(3, 2)
    assert not is_automorphism(realize(AddSpec(c.integer(2))), [PLUS, XOR])


def test_every_valid_xor_spec_is_xor_automorphism():
    c = PrimeContext(3, 2)
    for d0 in (1, 2):
        for r0 in range(3):
            for d1 in (1, 2):
                f = realize(XorSpec(c, [[d0], [r0, d1]]))
                assert is_automorphism(f, [XOR])


# ---------------------------------------------------------------------------
# multiplicative composition law
# ---------------------------------------------------------------------------


def test_compose_mul_identity():
    c = ctx53()
    ident = MulSpec(1, c.one(), c.one())
    other = MulSpec(3, c.integer(7), c.integer(12))
    assert compose_mul(ident, other) == other
    composed = compose_mul(other, ident)
    assert realize(composed) == realize(other)


def test_compose_mul_s_arithmetic():
    c = ctx53()
    u = MulSpec(3, c.one(), c.one())
    assert compose_mul(u, u).s == 1  # 9 mod 4


def test_compose_mul_matches_table_composition():
    for p, K in [(5, 3), (3, 3)]:
        c = PrimeContext(p, K)
        rng = random.Random(42 + p)
        units = list(c.units())
        s_values = [s for s in range(1, p) if math.gcd(s, p - 1) == 1]
        for _ in range(25):
            u = MulSpec(rng.choice(s_values), c.integer(rng.choice(units)), c.integer(rng.choice(units)))
            v = MulSpec(rng.choice(s_values), c.integer(rng.choice(units)), c.integer(rng.choice(units)))
            assert realize(compose_mul(u, v)) == compose(realize(u), realize(v))


def test_mul_family_group_closure():
    c = PrimeContext(3, 2)
    rng = random.Random(0)
    units = list(c.units())
    for _ in range(10):
        u = MulSpec(1, c.integer(rng.choice(units)), c.integer(rng.choice(units)))
        v = MulSpec(1, c.integer(rng.choice(units)), c.integer(rng.choice(units)))
        w = compose_mul(u, v)
        MulSpec(w.s, w.a, w.A)  # parameters stay valid


# ---------------------------------------------------------------------------
# triangular maps as matrices, digit powers as exponent products
# ---------------------------------------------------------------------------


def _xor_matrix_product(c, left, right):
    # lower-triangular matrix product mod p, rows indexed by output digit
    rows = []
    for k in range(c.precision):
        row = []
        for i in range(k + 1):
            total = 0
            for j in range(i, k + 1):
                total += left[k][j] * right[j][i]
            row.append(total % c.p)
        rows.append(tuple(row))
    return rows


def test_xor_composition_is_matrix_product():
    c = PrimeContext(3, 3)
    rng = random.Random(8)

    def random_rows():
        return [
            tuple(rng.randrange(3) for _ in range(k)) + (rng.randrange(1, 3),)
            for k in range(c.precision)
        ]

    for _ in range(20):
        left, right = random_rows(), random_rows()
        f = realize(XorSpec(c, left))
        g = realize(XorSpec(c, right))
        h = realize(XorSpec(c, _xor_matrix_product(c, left, right)))
        assert compose(f, g) == h


def test_xor_realize_injective_on_specs():
    c = PrimeContext(3, 2)
    tables = set()
    count = 0
    for d0 in (1, 2):
        for r0 in range(3):
            for d1 in (1, 2):
                tables.add(realize(XorSpec(c, [[d0], [r0, d1]])).table)
                count += 1
    assert len(tables) == count == 12


def test_and_composition_is_pointwise_exponent_product():
    c = PrimeContext(5, 3)
    for s_list in [(1, 3, 1), (3, 3, 3), (1, 1, 3)]:
        for t_list in [(3, 1, 1), (3, 3, 1)]:
            f = realize(AndSpec(c, s_list))
            g = realize(AndSpec(c, t_list))
            product = tuple((s * t - 1) % (c.p - 1) + 1 for s, t in zip(s_list, t_list))
            assert compose(f, g) == realize(AndSpec(c, product))


# ---------------------------------------------------------------------------
# custom series operations
# ---------------------------------------------------------------------------


def test_custom_op_drops_invisible_terms():
    c = PrimeContext(5, 2)
    op = CustomOp(c, 0, 1, 1, [(2, 0, 25), (1, 1, 3)])  # 25 = 0 mod 25
    assert op.degrees() == (2,)
    assert len(op.terms) == 1


def test_custom_op_rejects_low_degree_terms():
    c = PrimeContext(5, 2)
    with pytest.raises(ValueError):
        CustomOp(c, 0, 1, 1, [(1, 0, 2)])


def test_analyzer_power_operation():
    c = PrimeContext(5, 2)
    report = analyze_custom_op(CustomOp(c, 0, 1, 0, [(1, 4, 1)]))  # x * y**4
    assert report.group_order == 4
    assert not report.trivial
    assert report.exponent_gcd == 4
    assert report.predicted_nontrivial
    for A in report.witnesses:
        assert pow(A, 4, 25) == 1


def test_analyzer_constant_term_forces_identity():
    c = PrimeContext(5, 2)
    report = analyze_custom_op(CustomOp(c, 1, 1, 0, [(1, 4, 1)]))
    assert report.trivial and report.witnesses == (1,)


def test_analyzer_linear_case_gives_all_units():
    c = PrimeContext(5, 2)
    report = analyze_custom_op(CustomOp(c, 0, 2, 3, []))
    assert report.group_order == 20
    assert report.exponent_gcd is None
    assert report.predicted_nontrivial


def test_analyzer_p2_doubled_degree():
    # degrees n = 3 give d = 2: at p = 2 the sign flip survives
    c = PrimeContext(2, 3)
    report = analyze_custom_op(CustomOp(c, 0, 1, 0, [(1, 2, 1)]))  # x * y**2
    assert report.predicted_nontrivial
    assert report.group_order > 1


def test_analyzer_symmetric_example():
    # x**(p-1) y + x y**(p-1) also keeps p-1 scalings
    c = PrimeContext(5, 2)
    report = analyze_custom_op(CustomOp(c, 0, 0, 0, [(4, 1, 1), (1, 4, 1)]))
    assert report.group_order == 4


# (constant, a, b, terms) of every custom operation the analyzer tests use
ANALYZER_PATTERNS = [
    (0, 1, 0, [(1, 4, 1)]),
    (1, 1, 0, [(1, 4, 1)]),
    (0, 2, 3, []),
    (0, 1, 0, [(1, 2, 1)]),
    (0, 0, 0, [(4, 1, 1), (1, 4, 1)]),
    (0, 1, 1, [(2, 0, 25), (1, 1, 3)]),
]


@pytest.mark.parametrize("p,K", [(2, 3), (3, 2), (5, 2)])
def test_analyzer_prediction_is_met(p, K):
    # the full-ring prediction from the degree pattern: where it says the
    # scaling group is nontrivial, the quotient search finds more than the identity
    c = PrimeContext(p, K)
    for constant, a, b, terms in ANALYZER_PATTERNS:
        report = analyze_custom_op(CustomOp(c, constant, a, b, terms))
        if report.predicted_nontrivial:
            assert report.group_order > 1, (constant, a, b, terms)


def per_unit_witnesses(op):
    """Reference: one exhaustive homomorphism check per unit, no candidate filter."""
    ctx = op.ctx
    operation = op.as_operation()
    return tuple(
        A for A in ctx.units() if is_homomorphism(realize(AddSpec(ctx.integer(A))), operation).ok
    )


# linear ops, a constant term, nonlinear terms whose degree gcd leaves every
# unit or only a few as candidates, and terms under which some candidates fail
WITNESS_PATTERNS = ANALYZER_PATTERNS + [
    (0, 1, 1, []),
    (0, 3, 0, []),
    (2, 1, 1, []),
    (0, 1, 1, [(1, 1, 1)]),
    (0, 1, 1, [(2, 1, 1)]),
    (0, 0, 0, [(2, 1, 1), (1, 2, 1)]),
    (0, 1, 0, [(3, 1, 1)]),
    (0, 0, 0, [(3, 3, 1), (1, 2, 2)]),
    (3, 1, 2, [(2, 2, 1)]),
]


# the reference checks every pair for every passing unit, seconds per linear
# op at 243 residues, so there only the nonlinear patterns run
@pytest.mark.parametrize(
    "p,K,nonlinear_only",
    [(2, 3, False), (2, 5, False), (3, 3, False), (5, 2, False), (7, 2, False), (3, 5, True)],
)
def test_analyzer_witnesses_match_per_candidate_check(p, K, nonlinear_only):
    # the analyzer checks one candidate per new generator or failing coset;
    # the reference checks every unit
    c = PrimeContext(p, K)
    for constant, a, b, terms in WITNESS_PATTERNS:
        if nonlinear_only and not terms:
            continue
        op = CustomOp(c, constant, a, b, terms)
        report = analyze_custom_op(op)
        assert report.witnesses == per_unit_witnesses(op), (constant, a, b, terms)
        assert report.group_order == len(report.witnesses)


@pytest.mark.parametrize("p,K", [(2, 8), (3, 5)])
def test_analyzer_linear_ops_at_reach(p, K):
    # every unit scales a linear op without a constant term, and only the
    # identity one with a unit constant term, since A * 1 must be 1; the
    # analyzer checks the generators of the units (one or two) in full, and
    # for x + y + 1 only A = 1 meets the law at (1, 1), so no check runs
    c = PrimeContext(p, K)
    assert analyze_custom_op(CustomOp(c, 0, 1, 1, [])).witnesses == tuple(c.units())
    assert analyze_custom_op(CustomOp(c, 1, 1, 1, [])).witnesses == (1,)


@pytest.mark.parametrize("p,K", [(2, 3), (2, 5), (3, 3), (5, 2), (7, 2)])
def test_analyzer_witnesses_match_oracle(p, K):
    # the plus automorphisms of Z/p**K are the unit scalings, so the oracle's
    # plus+g group, read as the maps' values at 1, is the commuting scalings
    c = PrimeContext(p, K)
    for constant, a, b, terms in WITNESS_PATTERNS:
        op = CustomOp(c, constant, a, b, terms)
        group = enumerate_automorphisms(c, ["plus", op.as_operation()])
        expected = tuple(sorted(table[1] for table in group.automorphisms))
        assert analyze_custom_op(op).witnesses == expected, (constant, a, b, terms)


# the zero operation, x*y**4, x + y + 1, x**7 + y**7 and x + y + x**3 y**2
PREDICTION_PATTERNS = WITNESS_PATTERNS + [
    (0, 0, 0, []),
    (0, 0, 0, [(1, 4, 1)]),
    (1, 1, 1, []),
    (0, 0, 0, [(7, 0, 1), (0, 7, 1)]),
    (0, 1, 1, [(3, 2, 1)]),
]


@pytest.mark.parametrize("p,K", [(2, 3), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)])
def test_analyzer_prediction_matches_roots_of_unity(p, K):
    # over Z_p, A*g(x, y) = g(Ax, Ay) as series means A*c = c and A**(n-1) = 1
    # for every term degree n; a linear g without a constant term keeps
    # every unit, and otherwise the solutions are roots of unity, the
    # Teichmueller lifts at odd p and +-1 at p = 2, told apart mod p**K
    c = PrimeContext(p, K)
    m = c.modulus
    roots = {1, m - 1} if p == 2 else {teichmuller(c.integer(u)).value for u in range(1, p)}
    for constant, a, b, terms in PREDICTION_PATTERNS:
        op = CustomOp(c, constant, a, b, terms)
        report = analyze_custom_op(op)
        if op.constant.value:
            full_ring = {1}
        elif not op.terms:
            full_ring = None  # every unit of Z_p
        else:
            full_ring = {w for w in roots if all(pow(w, n - 1, m) == 1 for n in op.degrees())}
        nontrivial = full_ring is None or len(full_ring) > 1
        assert report.predicted_nontrivial == nontrivial, (constant, a, b, terms)
        assert set(report.witnesses) >= (full_ring or set(c.units())), (constant, a, b, terms)


@pytest.mark.parametrize(
    "K,a,terms,order,predicted",
    [
        (5, 0, [(2, 1, 1), (1, 2, 1)], 8, True),  # x**2 y + x y**2: A**2 = 1 mod 16
        (5, 0, [(4, 1, 1), (1, 4, 1)], 16, True),  # x**4 y + x y**4: A**4 = 1 mod 16
        (5, 1, [(2, 0, 2**4)], 16, False),  # x + y + 2**(K-1) x**2: every unit
        (8, 1, [(2, 0, 2**7)], 128, False),
    ],
)
def test_analyzer_keeps_finite_precision_extras(K, a, terms, order, predicted):
    # over Z_2 the first two keep +-1 and the last two 1 alone; mod 2**K the
    # law only needs (A**(n-1) - 1) * g(x, y) = 0, and these g are even
    report = analyze_custom_op(CustomOp(PrimeContext(2, K), 0, a, a, terms))
    assert (report.group_order, report.predicted_nontrivial) == (order, predicted)


# ---------------------------------------------------------------------------
# JSON encodings
# ---------------------------------------------------------------------------


def test_aut_spec_json_roundtrip():
    c = ctx53()
    specs = [
        AddSpec(c.integer(7)),
        MulSpec(3, c.integer(2), c.integer(7)),
        XorSpec(PrimeContext(2, 2), [[1], [1, 1]]),
        AndSpec(PrimeContext(5, 2), [3, 1]),
    ]
    for spec in specs:
        data = aut_spec_to_json(spec)
        again = aut_spec_from_json(spec.ctx, data)
        assert realize(again) == realize(spec)


def test_mul_spec_json_format():
    c = ctx53()
    data = aut_spec_to_json(MulSpec(3, c.integer(2), c.integer(7)))
    assert data == {"family": "mul", "s": 3, "a": "2", "A": "7"}


def test_custom_op_json_roundtrip():
    c = PrimeContext(5, 2)
    op = CustomOp(c, 0, 1, 0, [(1, 4, 1)])
    again = CustomOp.from_json(c, op.to_json())
    assert again.degrees() == op.degrees()
    for x in range(6):
        for y in range(6):
            assert again.evaluate(x, y) == op.evaluate(x, y)


def test_operation_by_name():
    assert operation_by_name("plus") is PLUS
    # an operation passes through, builtin or custom
    assert operation_by_name(PLUS) is PLUS
    skew = Operation("skew", lambda ctx, x, y: x * x * y % ctx.modulus)
    assert operation_by_name(skew) is skew
    with pytest.raises(ValueError):
        operation_by_name("minus")


@pytest.mark.parametrize(
    "name", ["minus", ["plus"], ["leaf", 0], {"plus": 1}, None, 0, b"plus"], ids=repr
)
def test_operation_by_name_refuses_every_unknown_name(name):
    with pytest.raises(ValueError) as info:
        operation_by_name(name)
    assert str(info.value) == f"unknown operation {name!r}; choose from ['and', 'plus', 'times', 'xor']"


C32, C33, C52 = PrimeContext(3, 2), PrimeContext(3, 3), PrimeContext(5, 2)


@pytest.mark.parametrize(
    "make,error,message",
    [
        pytest.param(
            lambda: XorSpec(C32, [[1], [1]]), ValueError, "row 1 must have 2 entries, got 1",
            id="xor-row-length",
        ),
        pytest.param(
            lambda: CustomOp(C32, C52.integer(1), 0, 0),
            ContextMismatch,
            "PrimeContext(p=3, precision=2) vs PrimeContext(p=5, precision=2)",
            id="custom-op-context",
        ),
        pytest.param(
            lambda: MulSpec(1, C32.one(), C33.one()),
            ContextMismatch,
            "PrimeContext(p=3, precision=2) vs PrimeContext(p=3, precision=3)",
            id="mul-spec-context",
        ),
        pytest.param(
            lambda: compose_mul(MulSpec(1, C32.one(), C32.one()), MulSpec(1, C33.one(), C33.one())),
            ContextMismatch,
            "PrimeContext(p=3, precision=2) vs PrimeContext(p=3, precision=3)",
            id="compose-mul-context",
        ),
        # a parameter of the wrong type is named, not an AttributeError
        pytest.param(
            lambda: AddSpec(5), ValueError, "A must be a PadicInt, got 5", id="add-spec-int"
        ),
        pytest.param(
            lambda: AddSpec(True), ValueError, "A must be a PadicInt, got True", id="add-spec-bool"
        ),
        pytest.param(
            lambda: MulSpec(1, 5, 5), ValueError, "a must be a PadicInt, got 5", id="mul-spec-int"
        ),
        pytest.param(
            lambda: MulSpec(1, C32.one(), 5),
            ValueError,
            "A must be a PadicInt, got 5",
            id="mul-spec-int-A",
        ),
        pytest.param(
            lambda: XorSpec(None, ((1,),)),
            ValueError,
            "ctx must be a PrimeContext, got None",
            id="xor-spec-context",
        ),
        pytest.param(
            lambda: AndSpec(None, [1]),
            ValueError,
            "ctx must be a PrimeContext, got None",
            id="and-spec-context",
        ),
        pytest.param(
            lambda: compose_mul(1, 2), TypeError, "lhs must be a MulSpec, got 1", id="compose-mul-int"
        ),
        pytest.param(
            lambda: compose_mul(MulSpec(1, C32.one(), C32.one()), AddSpec(C32.one())),
            TypeError,
            "rhs must be a MulSpec, got AddSpec(A=PadicInt(1 = [1, 0] base 3))",
            id="compose-mul-add-spec",
        ),
        pytest.param(
            lambda: analyze_custom_op(CustomOp(PrimeContext(2, 11), 0, 1, 1)),
            ValueError,
            "modulus 2048 over the analyzer cap 1024",
            id="analyzer-cap",
        ),
        pytest.param(
            lambda: is_homomorphism(realize(AddSpec(C32.integer(2))), "minus"),
            ValueError,
            "unknown operation 'minus'; choose from ['and', 'plus', 'times', 'xor']",
            id="hom-unknown-op",
        ),
        # resolved before the bijectivity check, which fails for x -> 3x
        pytest.param(
            lambda: is_automorphism(LipschitzFn(C32, [3 * x % 9 for x in range(9)]), ["minus"]),
            ValueError,
            "unknown operation 'minus'; choose from ['and', 'plus', 'times', 'xor']",
            id="aut-unknown-op",
        ),
        pytest.param(
            lambda: is_automorphism(realize(AddSpec(C32.integer(2))), "plus"),
            ValueError,
            "ops must be a list of operations, got the string 'plus'",
            id="aut-ops-string",
        ),
    ],
)
def test_refusals_name_their_cause(make, error, message):
    with pytest.raises(error) as info:
        make()
    assert type(info.value) is error
    assert str(info.value) == message


def test_checks_take_operation_names():
    doubling = realize(AddSpec(C32.integer(2)))
    assert is_homomorphism(doubling, "plus") == is_homomorphism(doubling, PLUS)
    assert is_homomorphism(doubling, "times") == is_homomorphism(doubling, TIMES)
    assert not is_homomorphism(doubling, "times").ok
    assert is_automorphism(doubling, ["plus"])
    assert not is_automorphism(doubling, ("plus", "times"))
