"""The seeded samples draw from ``getrandbits`` the values ``randrange`` and
``shuffle`` give.

The references below are the generators and the random-mode pair loop as
they were written on ``randrange`` and ``shuffle``; the library must give
their tables, pairs and generator state exactly.
"""

import itertools
import random

import pytest

from padiclab import (
    AND,
    LipschitzFn,
    PLUS,
    PrimeContext,
    TIMES,
    XOR,
    is_homomorphism,
    random_lipschitz,
    random_measure_preserving,
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
