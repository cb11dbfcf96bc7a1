"""The seeded samples draw from ``getrandbits`` the values ``randrange`` and
``shuffle`` give.

The references below are the generators and the random-mode pair loop as
they were written on ``randrange`` and ``shuffle``; the library must give
their tables, pairs and generator state exactly.
"""

import copy
import itertools
import pickle
import random
import sys
import threading
import tracemalloc

import pytest

from padiclab import (
    AND,
    AddSpec,
    LipschitzFn,
    MulSpec,
    Operation,
    PLUS,
    PrimeContext,
    TIMES,
    XOR,
    is_automorphism,
    is_bijective_mod,
    is_homomorphism,
    random_lipschitz,
    random_measure_preserving,
    realize,
)
from padiclab.core import _uniform_draws


def reference_random_lipschitz(ctx, rng):
    p = ctx.p
    randrange = rng.randrange
    subfunctions = [
        [tuple([randrange(p) for _ in range(p)]) for _ in range(p**k)]
        for k in range(ctx.precision)
    ]
    return LipschitzFn.from_subfunctions(ctx, subfunctions, "random_lipschitz")


def reference_random_measure_preserving(ctx, rng):
    subfunctions = [[list(range(ctx.p)) for _ in range(ctx.p**k)] for k in range(ctx.precision)]
    for level in subfunctions:
        for perm in level:
            rng.shuffle(perm)
    return LipschitzFn.from_subfunctions(ctx, subfunctions, "random_measure_preserving")


def reference_random_pairs(f, op, seed, samples):
    """(counterexample, checked) of the random-mode loop on randrange."""
    ctx, table = f.ctx, f.table
    n = ctx.modulus
    randrange = random.Random(seed).randrange
    for i in range(samples):
        x = randrange(n)
        y = randrange(n)
        if table[op.apply(ctx, x, y)] != op.apply(ctx, table[x], table[y]):
            return (x, y), i + 1
    return None, samples


@pytest.mark.parametrize("n", [1, 2, 3, 5, 7, 27, 2**13, 3**8, 65521])
@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_uniform_draws_are_randrange_values_and_state(n, seed):
    ours, theirs = random.Random(seed), random.Random(seed)
    draws = list(itertools.islice(_uniform_draws(ours, n), 500))
    assert draws == [theirs.randrange(n) for _ in range(500)]
    assert ours.random() == theirs.random()  # the same bits were consumed


CONTEXTS = [(2, k) for k in range(1, 7)] + [(3, k) for k in range(1, 5)]
CONTEXTS += [(5, k) for k in range(1, 4)] + [(7, 1), (7, 2)]
# the swap bounds p..2 take 4, 3 and 2 bits here; below p = 11 none takes 4
CONTEXTS += [(11, 1), (11, 2), (13, 2)]


@pytest.mark.parametrize("p,K", CONTEXTS)
@pytest.mark.parametrize("seed", [0, 5])
def test_generators_give_the_reference_tables(p, K, seed):
    # drawn alternately on one rng, as the verify sample draws them
    ctx = PrimeContext(p, K)
    ours, theirs = random.Random(seed), random.Random(seed)
    for i in range(12):
        if i % 2:
            f = random_measure_preserving(ctx, ours)
            g = reference_random_measure_preserving(ctx, theirs)
        else:
            f = random_lipschitz(ctx, ours)
            g = reference_random_lipschitz(ctx, theirs)
        assert f == g and f.provenance == g.provenance
    assert ours.getstate() == theirs.getstate()


def planted(ctx, count, seed):
    """The identity, a homomorphism of every operation, with ``count``
    entries moved by p**(K-1): still tower compatible, no longer a
    homomorphism, and found only after many pairs."""
    table = list(range(ctx.modulus))
    top = ctx.p ** (ctx.precision - 1)
    for t in random.Random(seed).sample(range(ctx.modulus), count):
        table[t] = (t + top) % ctx.modulus
    return LipschitzFn.from_table(ctx, table, "planted")


@pytest.mark.parametrize("p,K", [(2, 11), (3, 7), (5, 5)])
@pytest.mark.parametrize("op", [PLUS, TIMES, XOR, AND], ids=lambda op: op.name)
def test_hom_random_mode_gives_the_reference_pairs(p, K, op):
    ctx = PrimeContext(p, K)
    for seed, (count, samples) in enumerate([(1, 3000), (3, 3000), (1, 40)]):
        f = planted(ctx, count, 1000 + seed)  # not the pair seed: t would be the first x
        report = is_homomorphism(f, op, seed=seed, samples=samples)
        assert report.mode == "random"
        assert (report.counterexample, report.checked) == reference_random_pairs(
            f, op, seed, samples
        )
        assert report.ok == (report.counterexample is None)


def assert_held_operands_are_the_seeds(ctx):
    """What the context holds is the randrange values of its seed, in order,
    with its rng just past the last one, and no more than the held bound."""
    seed, values, rng = ctx._operands
    reference = random.Random(seed)
    assert values.tolist() == [reference.randrange(ctx.modulus) for _ in values]
    assert rng.getstate() == reference.getstate()
    assert len(values) <= 200_000


def check_against_reference(ctx, f, op, seed, samples):
    """One call on ``ctx``, compared with a fresh randrange loop; returns the
    number of operands the call drew."""
    held = ctx._operands
    before = len(held[1]) if held is not None and held[0] == seed else 0
    report = is_homomorphism(f, op, seed=seed, samples=samples)
    assert report.mode == "random"
    assert (report.counterexample, report.checked) == reference_random_pairs(f, op, seed, samples)
    assert report.ok == (report.counterexample is None)
    assert_held_operands_are_the_seeds(ctx)
    drawn = len(ctx._operands[1]) - before
    if not report.ok:  # the doubling chunks stop within twice the failing pair
        assert drawn <= max(128, 4 * report.checked)
    return drawn


# (map, op, seed, samples): "early" fails within a few dozen pairs, "late"
# after hundreds, "identity" never, so the passing calls extend what the
# failing ones drew; the sample sizes cross the chunk edges 64 and 128
HELD_SEQUENCE = [
    ("late", PLUS, 0, 63),
    ("late", TIMES, 0, 64),
    ("late", XOR, 0, 65),
    ("late", AND, 0, 128),
    ("late", PLUS, 0, 129),
    ("late", XOR, 0, 10),
    ("early", TIMES, 0, 3000),
    ("identity", AND, 0, 1500),
    ("late", PLUS, 0, 3000),
    ("identity", XOR, 0, 200),
    ("late", AND, 3, 2000),
    ("early", PLUS, 3, 50),
    ("late", TIMES, 0, 2500),
    ("identity", PLUS, 0, 5000),
    ("late", XOR, 0, 4000),
]


@pytest.mark.parametrize("p,K", [(2, 11), (3, 7), (5, 5)])
def test_held_operands_give_the_reference_pairs_in_any_sequence(p, K):
    ctx, twin = PrimeContext(p, K), PrimeContext(p, K)
    maps = {
        "early": planted(ctx, 40, 1000),
        "late": planted(ctx, 1, 1001),
        "identity": LipschitzFn.from_table(ctx, range(ctx.modulus)),
    }
    assert ctx._operands is None and twin._operands is None  # a new context holds nothing
    for name, op, seed, samples in HELD_SEQUENCE:
        check_against_reference(ctx, maps[name], op, seed, samples)
    # an equal context is another object and holds its own operands
    assert check_against_reference(twin, planted(twin, 1, 1001), PLUS, 0, 700) > 0
    assert_held_operands_are_the_seeds(ctx)
    assert ctx == twin == PrimeContext(p, K) and hash(ctx) == hash(PrimeContext(p, K))


class Interrupted(Exception):
    pass


class InterruptedRandom(random.Random):
    """Stands for an rng whose draws stop part way through a chunk."""

    def getrandbits(self, k):
        if self.draws_left == 0:
            raise Interrupted
        self.draws_left -= 1
        return super().getrandbits(k)


def test_a_draw_cut_short_leaves_nothing_held():
    ctx = PrimeContext(2, 11)
    identity = LipschitzFn.from_table(ctx, range(ctx.modulus))
    check_against_reference(ctx, identity, PLUS, 0, 64)
    seed, values, rng = ctx._operands
    interrupted = InterruptedRandom()
    interrupted.setstate(rng.getstate())
    interrupted.draws_left = 30  # inside the next chunk of 64 pairs
    ctx._operands = (seed, values, interrupted)
    with pytest.raises(Interrupted):
        is_homomorphism(identity, PLUS, samples=1000)
    assert ctx._operands is None  # the rng ran past the values it held
    check_against_reference(ctx, planted(ctx, 1, 1001), XOR, 0, 3000)


def test_a_check_that_an_op_runs_does_not_shift_the_pairs_of_its_caller():
    # the op's apply runs checks on the same context, at the caller's seed
    # and at another, each drawing past what the caller has read so far;
    # the callers fail late, so pairs read out of place would show
    ctx = PrimeContext(2, 11)
    inner_maps = [LipschitzFn.from_table(ctx, range(ctx.modulus)), planted(ctx, 1, 1005)]
    nested = []
    calls = itertools.count(1)

    def apply(c, x, y):
        if next(calls) % 97 == 0 and len(nested) < 30:
            k = len(nested)
            f, seed, samples = inner_maps[k % 4 // 2], k % 2 * 3, 50 + 300 * k
            report = is_homomorphism(f, PLUS, seed=seed, samples=samples)
            assert (report.counterexample, report.checked) == reference_random_pairs(
                f, PLUS, seed, samples
            )
            nested.append(k)
        return PLUS.apply(c, x, y)

    nesting = Operation("plus", apply)
    for f in [planted(ctx, 1, 1003), planted(ctx, 1, 1002)]:  # failing at 1277 and 673
        report = is_homomorphism(f, nesting, samples=3000)
        assert (report.counterexample, report.checked) == reference_random_pairs(f, PLUS, 0, 3000)
    assert len(nested) == 30


def test_copies_and_pickles_of_a_context_hold_nothing():
    ctx = PrimeContext(3, 7)
    f = planted(ctx, 1, 1001)
    check_against_reference(ctx, f, XOR, 0, 3000)
    held = ctx._operands
    for other in (copy.copy(ctx), copy.deepcopy(ctx), pickle.loads(pickle.dumps(ctx))):
        assert type(other) is PrimeContext and other == ctx and hash(other) == hash(ctx)
        assert other._operands is None and other._chunks == (None, None)
        check_against_reference(other, LipschitzFn.from_table(other, f.table), PLUS, 3, 700)
        assert ctx._operands is held
    check_against_reference(ctx, f, AND, 0, 4000)


def test_checks_from_several_threads_give_the_reference_pairs():
    # threads that share one context and one seed, each extending what the
    # others drew, with a thread switch forced about every microsecond
    ctx = PrimeContext(2, 11)
    cases = [(planted(ctx, 1, 1000 + k), 2000 + 1000 * k) for k in range(6)]
    identity = LipschitzFn.from_table(ctx, range(ctx.modulus))
    cases += [(identity, 20_000 + 7_000 * k) for k in range(3)]  # drawing till the end
    expected = [reference_random_pairs(f, PLUS, 0, samples) for f, samples in cases]
    got = {}

    def check(k):
        f, samples = cases[k]
        report = is_homomorphism(f, PLUS, samples=samples)
        got.setdefault(k, []).append((report.counterexample, report.checked))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(5):
            ctx._operands = None
            threads = [threading.Thread(target=check, args=(k,)) for k in range(len(cases))]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
                assert not thread.is_alive()
            assert_held_operands_are_the_seeds(ctx)
    finally:
        sys.setswitchinterval(interval)
    assert [got[k] for k in range(len(cases))] == [[pairs] * 5 for pairs in expected]


def test_samples_past_the_held_bound_stream_and_hold_nothing_more():
    ctx = PrimeContext(2, 11)
    identity = LipschitzFn.from_table(ctx, range(ctx.modulus))
    assert check_against_reference(ctx, identity, XOR, 0, 100_000) == 200_000
    held = ctx._operands
    for f, seed in [(identity, 0), (planted(ctx, 1, 1001), 0), (identity, 5)]:
        check_against_reference(ctx, f, PLUS, seed, 100_001)
        assert ctx._operands is held and len(held[1]) == 200_000


def peak_allocation(call):
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_no_check_allocates_storage_that_grows_with_its_sample():
    ctx = PrimeContext(2, 11)
    identity = LipschitzFn.from_table(ctx, range(ctx.modulus))
    # streamed: at most two chunk lists of 4,096 values alive, about 0.3 MB,
    # where 300,000 operands held would take 1.2 MB as an array
    assert peak_allocation(lambda: is_homomorphism(identity, PLUS, samples=150_000)) < 400_000
    assert ctx._operands is None
    # held: the 800 KB array and the chunks (about 1.1 MB in all); a last
    # chunk of 34,464 pairs, uncapped, took 5.3 MB
    assert peak_allocation(lambda: is_homomorphism(identity, PLUS)) < 1_500_000
    assert len(ctx._operands[1]) == 200_000
    # read again: a chunk of the held values at a time, nothing new held
    assert peak_allocation(lambda: is_homomorphism(identity, PLUS)) < 400_000


@pytest.mark.parametrize("p,K", [(2, 11), (3, 7)])
def test_is_automorphism_agrees_with_fresh_per_op_checks(p, K):
    ctx = PrimeContext(p, K)
    root = 5 if p == 2 else 2
    maps = [
        LipschitzFn.from_table(ctx, range(ctx.modulus)),
        realize(AddSpec(ctx.integer(root))),
        realize(MulSpec(1, ctx.integer(root), ctx.integer(1))),
        planted(ctx, 1, 1001),
    ]
    for f in maps:
        for ops in (["plus", "times"], ["xor", "and", "plus"], ["times", "xor"]):
            fresh = [
                is_homomorphism(LipschitzFn.from_table(PrimeContext(p, K), f.table), op).ok
                for op in ops
            ]
            assert is_automorphism(f, ops) == (is_bijective_mod(f, K) and all(fresh))
