"""Tests for tower-compatible tables, the ball-coefficient transform, and the criteria."""

import itertools
import random
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclab import (
    CompatibilityViolation,
    ContextMismatch,
    LipschitzFn,
    PrimeContext,
    VdpSeries,
    compose,
    coordinate_subfunctions,
    fn_from_json,
    fn_to_json,
    is_bijective_mod,
    iter_all_lipschitz,
    preserves_measure_coord,
    preserves_measure_vdp,
    random_lipschitz,
    random_measure_preserving,
    series_from_json,
    vdp_inverse,
    vdp_transform,
)


def identity(ctx):
    return LipschitzFn.from_table(ctx, range(ctx.modulus), "identity")


def test_from_table_accepts_identity():
    ctx = PrimeContext(2, 2)
    assert identity(ctx).table == (0, 1, 2, 3)


def test_from_table_reports_first_violation():
    ctx = PrimeContext(2, 2)
    with pytest.raises(CompatibilityViolation) as err:
        LipschitzFn.from_table(ctx, [0, 2, 1, 3])
    assert (err.value.x, err.value.y, err.value.level) == (0, 2, 1)


def naive_first_violation(ctx, table):
    """Tower compatibility straight from its definition, at every level and
    for every pair x = y mod p**level.  Levels are scanned in order, then
    arguments y in ascending order; the first y with a violating partner
    below it is named with its canonical representative, as from_table's
    witness (representative, argument, level).  None when compatible."""
    for level in range(1, ctx.precision + 1):
        block = ctx.p**level
        for y in range(ctx.modulus):
            for x in range(y):
                if x % block == y % block and table[x] % block != table[y] % block:
                    return (y % block, y, level)
    return None


TOWER_GRID = [(2, 1), (2, 2), (2, 3), (2, 5), (3, 2), (3, 3), (5, 2), (7, 2)]


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_one_pass_tower_check_matches_naive_definition(data):
    p, K = data.draw(st.sampled_from(TOWER_GRID), label="(p, K)")
    ctx = PrimeContext(p, K)
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    table = list(random_lipschitz(ctx, random.Random(seed)).table)
    for _ in range(data.draw(st.integers(0, 2), label="perturbed entries")):
        x = data.draw(st.integers(0, ctx.modulus - 1), label="x")
        table[x] = data.draw(st.integers(0, ctx.modulus - 1), label="value")
    expected = naive_first_violation(ctx, table)
    if expected is None:
        assert LipschitzFn.from_table(ctx, table).table == tuple(table)
        return
    # the constructor and from_table refuse alike, so no instance escapes the check
    for build in (LipschitzFn, LipschitzFn.from_table):
        with pytest.raises(CompatibilityViolation) as err:
            build(ctx, table)
        assert (err.value.x, err.value.y, err.value.level) == expected


@pytest.mark.parametrize("p,K", [(2, 7), (3, 4), (5, 3), (7, 2)])
def test_ordered_scan_names_violations_planted_at_every_level(p, K):
    # moving f(x) by a multiple of p**(level-1) keeps it mod p**(level-1) and
    # changes it mod p**level, so the first violation is at that level; a
    # second change one level up or more must not be the one named
    ctx = PrimeContext(p, K)
    rng = random.Random(p * 100 + K)
    base = random_lipschitz(ctx, rng).table
    for level in range(1, K):
        for deeper in (None, *range(level + 1, K)):
            table = list(base)
            for L in (level, deeper):
                if L is not None:
                    x = rng.randrange(1, ctx.modulus)
                    table[x] = (table[x] + rng.randrange(1, p) * p ** (L - 1)) % ctx.modulus
            expected = naive_first_violation(ctx, table)
            assert expected[2] == level
            with pytest.raises(CompatibilityViolation) as err:
                LipschitzFn.from_table(ctx, table)
            assert (err.value.x, err.value.y, err.value.level) == expected


def test_single_level_imposes_nothing():
    ctx = PrimeContext(3, 1)
    for perm in itertools.permutations(range(3)):
        LipschitzFn.from_table(ctx, perm)


def test_from_table_input_validation():
    ctx = PrimeContext(2, 2)
    with pytest.raises(ValueError):
        LipschitzFn.from_table(ctx, [0, 1, 2])
    with pytest.raises(ValueError):
        LipschitzFn.from_table(ctx, [0, 1, 2, 4])
    # only ints: a float or a bool is rejected by its index, even in range
    for table in ([0.5, 1, 2, 3], [0, 1.0, 2, 3], [False, True, 2, 3], [0, 1, 2, "3"]):
        with pytest.raises(ValueError, match=r"table\[\d\] = .*, expected an int"):
            LipschitzFn.from_table(ctx, table)


def test_vdp_identity_coefficients():
    ctx = PrimeContext(3, 2)
    series = vdp_transform(identity(ctx))
    # the coefficient of m is its leading-digit contribution
    for m in range(1, ctx.modulus):
        n = len(str_digits(m, 3))
        leading = (m // 3 ** (n - 1)) * 3 ** (n - 1)
        assert series.coefficients[m] == leading
    assert series.coefficients[7] == 6
    assert series.normalized(7) == 2


def str_digits(m, p):
    out = []
    while m:
        out.append(m % p)
        m //= p
    return out


def test_vdp_constant_function():
    # every one-digit ball carries the constant; longer balls see no increment
    ctx = PrimeContext(3, 2)
    series = vdp_transform(LipschitzFn.from_table(ctx, [4] * 9))
    assert series.coefficients[:3] == (4, 4, 4)
    assert all(c == 0 for c in series.coefficients[3:])


def test_vdp_square_example():
    ctx = PrimeContext(2, 2)
    series = vdp_transform(LipschitzFn.from_table(ctx, [0, 1, 0, 1]))
    assert series.coefficients == (0, 1, 0, 0)


def test_vdp_roundtrip_random():
    rng = random.Random(11)
    for p, K in [(2, 4), (3, 3), (5, 2)]:
        ctx = PrimeContext(p, K)
        for i in range(60):
            f = random_lipschitz(ctx, rng) if i % 2 else random_measure_preserving(ctx, rng)
            assert vdp_inverse(vdp_transform(f)) == f


def test_vdp_series_json_roundtrip():
    ctx = PrimeContext(3, 2)
    series = vdp_transform(identity(ctx))
    again = series_from_json(series.to_json())
    assert again.coefficients == series.coefficients
    assert vdp_inverse(again) == identity(ctx)


def test_vdp_inverse_rejects_bad_divisibility():
    ctx = PrimeContext(2, 2)
    # B_2 = 1 is not divisible by 2: the evaluated table cannot be compatible
    series = series_from_json({"p": 2, "K": 2, "B": [0, 1, 1, 0]})
    with pytest.raises(CompatibilityViolation):
        vdp_inverse(series)


def test_measure_vdp_examples():
    ctx = PrimeContext(3, 2)
    assert preserves_measure_vdp(identity(ctx)).ok
    scaled = LipschitzFn.from_table(ctx, [3 * x % 9 for x in range(9)])
    report = preserves_measure_vdp(scaled)
    assert not report.ok
    assert report.failure == (0, 0)
    square = LipschitzFn.from_table(PrimeContext(2, 2), [0, 1, 0, 1])
    report = preserves_measure_vdp(square)
    assert not report.ok


def test_coordinate_subfunctions_identity_and_shift():
    ctx = PrimeContext(3, 2)
    for k in range(ctx.precision):
        assert coordinate_subfunctions(identity(ctx), k) == [(0, 1, 2)] * 3**k
    shift = LipschitzFn.from_table(ctx, [ctx.xor_values(x, 5) for x in range(9)])
    assert preserves_measure_coord(shift).ok
    assert coordinate_subfunctions(shift, 0) == [(2, 0, 1)]
    with pytest.raises(ValueError):
        coordinate_subfunctions(shift, 2)


@pytest.mark.parametrize("p,K", [(2, 1), (2, 5), (3, 3), (5, 2), (7, 2)])
def test_coordinate_subfunctions_round_trip(p, K):
    ctx = PrimeContext(p, K)
    rng = random.Random(p * 100 + K)
    for _ in range(5):
        f = LipschitzFn.from_table(ctx, random_lipschitz(ctx, rng).table)
        levels = [coordinate_subfunctions(f, k) for k in range(K)]
        assert LipschitzFn.from_subfunctions(ctx, levels) == f


def test_coordinate_criterion_digit_squares():
    ctx = PrimeContext(3, 2)
    squares = LipschitzFn.from_table(ctx, [ctx.and_values(x, x) for x in range(9)])
    report = preserves_measure_coord(squares)
    assert not report.ok
    assert report.failure == (0, 0)  # units digit map is 0,1,1


def test_first_failure_is_lexicographic():
    ctx = PrimeContext(2, 3)
    # identity at level 0; constant sub-functions at levels 1 and 2
    subs = [
        [(0, 1)],
        [(0, 0), (0, 0)],
        [(0, 0)] * 4,
    ]
    f = LipschitzFn.from_subfunctions(ctx, subs)
    assert preserves_measure_coord(f).failure == (1, 0)
    assert preserves_measure_vdp(f).failure == (1, 0)


def test_is_bijective_mod():
    ctx = PrimeContext(2, 2)
    assert all(is_bijective_mod(identity(ctx), k) for k in (1, 2))
    square = LipschitzFn.from_table(ctx, [0, 1, 0, 1])
    assert not is_bijective_mod(square, 2)
    plus_one = LipschitzFn.from_table(ctx, [(x + 1) % 4 for x in range(4)])
    assert all(is_bijective_mod(plus_one, k) for k in (1, 2))


def test_level_k_decides_bijectivity():
    # a tower-compatible map bijective mod p**K is bijective at every level,
    # checked over every map at (2,2) and (3,1) and random ones above
    rng = random.Random(11)
    fns = [*iter_all_lipschitz(PrimeContext(2, 2)), *iter_all_lipschitz(PrimeContext(3, 1))]
    for p, K in [(2, 4), (3, 3), (5, 2)]:
        ctx = PrimeContext(p, K)
        fns += [random_lipschitz(ctx, rng) for _ in range(50)]
        fns += [random_measure_preserving(ctx, rng) for _ in range(50)]
    for f in fns:
        K = f.ctx.precision
        levels = [is_bijective_mod(f, k) for k in range(1, K + 1)]
        assert levels[-1] == all(levels)


def test_criterion_reports_are_truthy_iff_ok():
    ctx = PrimeContext(3, 2)
    f = identity(ctx)
    square = LipschitzFn.from_table(ctx, [x * x % 9 for x in range(9)])
    for report in (preserves_measure_vdp(f), preserves_measure_coord(square)):
        assert bool(report) is report.ok
    assert preserves_measure_vdp(f).ok and not preserves_measure_coord(square).ok


def test_compose():
    ctx = PrimeContext(3, 2)
    ident = identity(ctx)
    plus_one = LipschitzFn.from_table(ctx, [(x + 1) % 9 for x in range(9)])
    plus_two = LipschitzFn.from_table(ctx, [(x + 2) % 9 for x in range(9)])
    assert compose(plus_one, ident) == plus_one
    assert compose(plus_one, plus_one) == plus_two
    a = LipschitzFn.from_table(ctx, [2 * x % 9 for x in range(9)])
    b = LipschitzFn.from_table(ctx, [5 * x % 9 for x in range(9)])
    ab = LipschitzFn.from_table(ctx, [10 * x % 9 for x in range(9)])
    assert compose(a, b) == ab


def test_compose_preserves_invertibility():
    rng = random.Random(5)
    ctx = PrimeContext(3, 3)
    for _ in range(20):
        f = random_measure_preserving(ctx, rng)
        g = random_measure_preserving(ctx, rng)
        h = compose(f, g)
        assert LipschitzFn.from_table(ctx, h.table) == h
        assert preserves_measure_coord(h).ok
        assert preserves_measure_vdp(h).ok
    # compose does not revalidate: composites of arbitrary tower-compatible
    # maps must pass from_table's compatibility check
    for p, K in [(2, 4), (3, 3), (5, 2)]:
        ctx = PrimeContext(p, K)
        for _ in range(20):
            h = compose(random_lipschitz(ctx, rng), random_lipschitz(ctx, rng))
            assert LipschitzFn.from_table(ctx, h.table) == h


def test_criteria_agree_on_random_sample():
    rng = random.Random(3)
    for p, K in [(3, 3), (5, 2)]:
        ctx = PrimeContext(p, K)
        for i in range(200):
            f = random_lipschitz(ctx, rng) if i % 2 else random_measure_preserving(ctx, rng)
            a = preserves_measure_vdp(f).ok
            b = preserves_measure_coord(f).ok
            c = all(is_bijective_mod(f, k) for k in range(1, K + 1))
            assert a == b == c


def test_divisibility_for_compatible_functions():
    rng = random.Random(9)
    ctx = PrimeContext(3, 3)
    for _ in range(50):
        series = vdp_transform(random_lipschitz(ctx, rng))
        for m in range(ctx.modulus):
            series.normalized(m)  # raises if the guaranteed power is absent


def test_iter_all_lipschitz_counts():
    ctx = PrimeContext(2, 2)
    fns = list(iter_all_lipschitz(ctx))
    # (p**p) ** (1 + p) independent digit maps
    assert len(fns) == 4**3
    assert len(set(fns)) == 4**3
    with pytest.raises(ValueError):
        list(iter_all_lipschitz(PrimeContext(5, 3)))


def test_generator_respects_permutation_structure():
    rng = random.Random(1)
    ctx = PrimeContext(5, 2)
    for _ in range(30):
        f = random_measure_preserving(ctx, rng)
        assert preserves_measure_coord(f).ok


def test_fn_json_roundtrip():
    ctx = PrimeContext(3, 2)
    f = identity(ctx)
    data = fn_to_json(f)
    assert data["p"] == 3 and data["K"] == 2
    assert fn_from_json(data) == f


C32 = PrimeContext(3, 2)


def unread_table():
    """A table that fails the test if anything reads an entry of it."""
    raise AssertionError("the table was read")
    yield


@pytest.mark.parametrize(
    "make,message",
    [
        pytest.param(
            lambda: compose(identity(C32), identity(PrimeContext(3, 3))),
            "context mismatch: PrimeContext(p=3, precision=2) vs PrimeContext(p=3, precision=3)",
            id="compose-context",
        ),
        pytest.param(lambda: is_bijective_mod(identity(C32), 0), "level 0 outside [1, 2]", id="level-0"),
        pytest.param(lambda: is_bijective_mod(identity(C32), 3), "level 3 outside [1, 2]", id="level-3"),
        # bools are ints to Python, but a level of True is malformed
        pytest.param(
            lambda: is_bijective_mod(identity(C32), True), "level must be an int, got True", id="level-bool"
        ),
        pytest.param(
            lambda: coordinate_subfunctions(identity(C32), True), "level must be an int, got True",
            id="subfunctions-level-bool",
        ),
        # the constructor validates: every LipschitzFn is tower compatible
        pytest.param(
            lambda: LipschitzFn(C32, [0.5, *range(1, 9)]),
            "table[0] = 0.5, expected an int in [0, 9)",
            id="constructor-float",
        ),
        pytest.param(
            lambda: LipschitzFn(C32, [0, True, *range(2, 9)]),
            "table[1] = True, expected an int in [0, 9)",
            id="constructor-bool",
        ),
        pytest.param(
            lambda: LipschitzFn(C32, range(8)), "table length 8, expected 9", id="constructor-short"
        ),
        # the size is checked before the table is read
        pytest.param(
            lambda: LipschitzFn(PrimeContext(2, 25), unread_table()),
            "table of size 33554432 exceeds the desk-scale cap 16777216",
            id="constructor-over-cap",
        ),
        # the context too, before the table is read; every table builder
        # checks it first, the random generators after their rng
        pytest.param(
            lambda: LipschitzFn(None, unread_table()), "ctx must be a PrimeContext, got None",
            id="constructor-ctx-none",
        ),
        pytest.param(
            lambda: LipschitzFn(None, [0]), "ctx must be a PrimeContext, got None",
            id="constructor-ctx-none-table",
        ),
        pytest.param(
            lambda: random_lipschitz(None, random.Random(0)), "ctx must be a PrimeContext, got None",
            id="random-lipschitz-ctx-none",
        ),
        pytest.param(
            lambda: VdpSeries(None, (0,)), "ctx must be a PrimeContext, got None",
            id="vdp-series-ctx-none",
        ),
        # a coefficient is an int where it is read: bools would read as 0
        # and 1, and a float would surface as a table entry
        pytest.param(
            lambda: vdp_inverse(VdpSeries(C32, (True, False, True) + (0,) * 6)),
            "B[0] = True, expected an int",
            id="vdp-inverse-bool",
        ),
        pytest.param(
            lambda: vdp_inverse(VdpSeries(C32, (0,) * 4 + (0.5,) + (0,) * 4)),
            "B[4] = 0.5, expected an int",
            id="vdp-inverse-float",
        ),
        pytest.param(
            lambda: VdpSeries(C32, (True,) * 9).normalized(1), "B[1] = True, expected an int",
            id="normalized-bool-coefficient",
        ),
        pytest.param(
            lambda: VdpSeries(C32, (3.0,) * 9).normalized(3), "B[3] = 3.0, expected an int",
            id="normalized-float-coefficient",
        ),
        pytest.param(
            lambda: series_from_json({"p": 3, "K": 2, "B": [0, 1, 2, False, 0, 0, 0, 0, 0]}),
            "B[3] = False, expected an int",
            id="series-json-bool-later",
        ),
        # a series holds one coefficient per residue, checked when it is built
        pytest.param(
            lambda: vdp_inverse(VdpSeries(C32, (0,) * 8)), "need 9 coefficients, got 8",
            id="vdp-inverse-length",
        ),
        pytest.param(
            lambda: VdpSeries(C32, (1,)).normalized(5), "need 9 coefficients, got 1",
            id="vdp-series-length",
        ),
        # an index that is not an int in [0, 9) is refused before the lookup,
        # which would read -1 and True as other coefficients
        *(
            pytest.param(
                lambda m=m: vdp_transform(identity(C32)).normalized(m),
                f"coefficient index {m!r}, expected an int in [0, 9)",
                id=f"normalized-{name}",
            )
            for name, m in [("negative", -1), ("bool", True), ("past-end", 9), ("float", 1.0)]
        ),
        pytest.param(
            lambda: series_from_json({"p": 3, "K": 2, "B": [0] * 8}), "need 9 coefficients, got 8",
            id="series-json-length",
        ),
        # a provenance, where present, is a string
        *(
            pytest.param(
                lambda value=value: fn_from_json(
                    {"p": 3, "K": 2, "table": list(range(9)), "provenance": value}
                ),
                f"provenance = {value!r}, expected a string",
                id=f"fn-json-provenance-{name}",
            )
            for name, value in [
                ("int", 7), ("list", ["identity"]), ("object", {"a": 1}), ("bool", True),
                ("null", None),
            ]
        ),
        # both generators draw from rng.getrandbits, so the rng is named
        pytest.param(
            lambda: random_lipschitz(C32, 5), "rng must be a random.Random, got 5",
            id="random-lipschitz-int-rng",
        ),
        pytest.param(
            lambda: random_lipschitz(C32, None), "rng must be a random.Random, got None",
            id="random-lipschitz-none-rng",
        ),
        pytest.param(
            lambda: random_measure_preserving(C32, random),
            f"rng must be a random.Random, got {random!r}",
            id="random-measure-preserving-module-rng",
        ),
        pytest.param(
            lambda: random_measure_preserving(C32, 0), "rng must be a random.Random, got 0",
            id="random-measure-preserving-int-rng",
        ),
    ],
)
def test_refusals_name_their_cause(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message
    # a refusal to mix two contexts is a ContextMismatch, as in core and automorph
    assert isinstance(info.value, ContextMismatch) == message.startswith("context mismatch")


# address-space cap for children that must refuse before allocating
CHILD_ADDRESS_SPACE = 512 * 2**20
OVER_TABLE_CAP = "table of size {} exceeds the desk-scale cap 16777216"
OVER_FAMILY_CAP = (
    "the {} {} tables to build mod {} would hold more than 16777216 entries in all "
    "(desk-scale cap)"
)


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


@pytest.mark.parametrize(
    "call,message",
    [
        ("random_lipschitz(PrimeContext(2, 27), random.Random(0))", OVER_TABLE_CAP.format(2**27)),
        (
            "random_measure_preserving(PrimeContext(3, 17), random.Random(0))",
            OVER_TABLE_CAP.format(3**17),
        ),
        # the rng is refused first, before the size check and the tables
        ("random_lipschitz(PrimeContext(2, 27), 5)", "rng must be a random.Random, got 5"),
        (
            "random_measure_preserving(PrimeContext(3, 17), None)",
            "rng must be a random.Random, got None",
        ),
        ("model_fn(SubstitutionKey(2, [1, 0]), PrimeContext(2, 32))", OVER_TABLE_CAP.format(2**32)),
        (
            "next(iter_all_lipschitz(PrimeContext(11, 1)))",
            "would enumerate 11**11 functions, over the cap 1000000",
        ),
        (
            "next(iter_all_lipschitz(PrimeContext(7, 2)))",
            "would enumerate 7**56 functions, over the cap 1000000",
        ),
        ("family_tables(PrimeContext(2, 7), 'xor')", OVER_FAMILY_CAP.format(2**21, "xor", "2**7")),
        (
            "family_tables(PrimeContext(3, 5), 'xor')",
            OVER_FAMILY_CAP.format(2**5 * 3**10, "xor", "3**5"),
        ),
        (
            "family_tables(PrimeContext(7, 3), 'xor')",
            OVER_FAMILY_CAP.format(6**3 * 7**3, "xor", "7**3"),
        ),
        # mul builds only the a, A below p**(k-1): 2**20 tables of 2**12 entries
        ("family_tables(PrimeContext(2, 12), 'mul')", OVER_FAMILY_CAP.format(2**20, "mul", "2**12")),
        # an unknown family is named before the size is checked
        ("family_tables(PrimeContext(2, 30), 'nope')", "unknown family 'nope'"),
    ],
    ids=[
        "random_lipschitz-2-27",
        "random_measure_preserving-3-17",
        "random_lipschitz-2-27-int-rng",
        "random_measure_preserving-3-17-none-rng",
        "model_fn-2-32",
        "iter_all_lipschitz-11-1",
        "iter_all_lipschitz-7-2",
        "family_tables-xor-2-7",
        "family_tables-xor-3-5",
        "family_tables-xor-7-3",
        "family_tables-mul-2-12",
        "family_tables-unknown-2-30",
    ],
)
def test_oversized_builders_refuse_before_allocating(call, message):
    # the child runs under an address-space cap and a timeout, so a check
    # that comes after the allocation fails here instead of exhausting the
    # machine (each of these ran for seconds into a MemoryError without one)
    code = (
        "import random\n"
        "from padiclab import PrimeContext, SubstitutionKey, family_tables, iter_all_lipschitz\n"
        "from padiclab import model_fn, random_lipschitz, random_measure_preserving\n"
        f"try:\n    {call}\nexcept ValueError as error:\n    print(error)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        preexec_fn=_limit_address_space,
        timeout=30,
    )
    assert proc.stdout == message + "\n", proc.stderr[-500:]
