"""Independent reference computations the benchmark checks outputs against.

Everything here is written from the mathematical definitions with plain
integers and builtin ``pow``; nothing imports padiclab.  The generators
build the seeded inputs the benchmark hands to the program.
"""

from __future__ import annotations

import math


def digits(value: int, p: int, K: int) -> list[int]:
    """Little-endian base-p digits of a residue mod p**K."""
    out = []
    for _ in range(K):
        value, r = divmod(value, p)
        out.append(r)
    return out


def undigits(ds, p: int) -> int:
    value = 0
    for d in reversed(ds):
        value = value * p + d
    return value


def digitwise(x: int, y: int, p: int, K: int, combine) -> int:
    """Apply ``combine`` digit by digit, reducing each digit mod p."""
    return undigits(
        [combine(a, b) % p for a, b in zip(digits(x, p, K), digits(y, p, K))], p
    )


def xor_value(x: int, y: int, p: int, K: int) -> int:
    return digitwise(x, y, p, K, lambda a, b: a + b)


def and_value(x: int, y: int, p: int, K: int) -> int:
    return digitwise(x, y, p, K, lambda a, b: a * b)


def euler_phi(n: int) -> int:
    return sum(1 for i in range(1, n + 1) if math.gcd(i, n) == 1)


# -- closed-form sizes of the additive, carry-free and digit-power families --


def family_count(op: str, p: int, k: int) -> int:
    if op == "plus":
        return p**k - p ** (k - 1)
    if op == "xor":
        return (p - 1) ** k * p ** (k * (k - 1) // 2)
    if op == "and":
        return euler_phi(p - 1) ** k
    raise ValueError(op)


# -- point evaluators of the four automorphism families ----------------------


def teichmuller(u: int, p: int, K: int) -> int:
    """The (p-1)-th root of unity congruent to the unit u mod p."""
    m = p**K
    z = u % m
    for _ in range(K):
        z = pow(z, p, m)
    return z


def mul_point(s: int, a: int, A: int, x: int, p: int, K: int) -> int:
    """x = p**k * u  ->  p**k * A**k * theta(u)**s * (u / theta(u))**a."""
    m = p**K
    x %= m
    if x == 0:
        return 0
    k = 0
    while x % p == 0:
        x //= p
        k += 1
    theta = teichmuller(x, p, K)
    principal = x * pow(theta, -1, m) % m
    # principal units have order dividing p**(K-1), so the integer
    # exponent a already gives the p-adic power exactly
    return pow(p, k, m) * pow(A, k, m) * pow(theta, s, m) * pow(principal, a, m) % m


def family_point(spec: dict, x: int, p: int, K: int) -> int:
    """Value at x of the family member encoded as CLI spec JSON."""
    m = p**K
    family = spec["family"]
    if family == "add":
        return int(spec["A"]) * x % m
    if family == "mul":
        return mul_point(spec["s"], int(spec["a"]), int(spec["A"]), x, p, K)
    xd = digits(x, p, K)
    if family == "xor":
        return undigits(
            [sum(c * xd[i] for i, c in enumerate(row)) % p for row in spec["alpha"]], p
        )
    if family == "and":
        return undigits([pow(d, e, p) for d, e in zip(xd, spec["s_list"])], p)
    raise ValueError(family)


def random_family_spec(rng, family: str, p: int, K: int) -> dict:
    """A seeded family member in CLI spec JSON form."""
    m = p**K

    def unit() -> int:
        while True:
            v = rng.randrange(1, m)
            if v % p:
                return v

    coprime = [e for e in range(1, min(p, 512)) if math.gcd(e, p - 1) == 1]
    if family == "add":
        return {"family": "add", "A": str(unit())}
    if family == "mul":
        return {"family": "mul", "s": rng.choice(coprime), "a": str(unit()), "A": str(unit())}
    if family == "xor":
        alpha = [[rng.randrange(p) for _ in range(k)] + [rng.randrange(1, p)] for k in range(K)]
        return {"family": "xor", "alpha": alpha}
    if family == "and":
        return {"family": "and", "s_list": [rng.choice(coprime) for _ in range(K)]}
    raise ValueError(family)


# -- tables ------------------------------------------------------------------


def random_tower_table(rng, p: int, K: int, *, bijective: bool) -> list[int]:
    """A tower-compatible table built level by level from random digit maps.

    Output digit k of x depends on the k low digits of x (the prefix) and
    on digit k; with a permutation per prefix the table is invertible.
    """
    values = [0]
    for k in range(K):
        block = p**k
        new = [0] * (block * p)
        for a in range(block):
            if bijective:
                digit_map = rng.sample(range(p), p)
            else:
                digit_map = [rng.randrange(p) for _ in range(p)]
            base = values[a]
            for d in range(p):
                new[a + d * block] = base + digit_map[d] * block
        values = new
    return values


def plant_violation(rng, table: list[int], p: int, K: int):
    """Copy of a compatible table with one entry broken at a chosen level.

    Adding c * p**j (c a unit) to entry x >= p**(j+1) keeps every congruence
    below level j+1 and breaks x against its representative x mod p**(j+1),
    which is the first pair a (level, argument)-ordered scan meets.  Returns
    the table and the expected witness (representative, argument, level).
    """
    m = p**K
    j = rng.randrange(K - 1)
    level = j + 1
    x = rng.randrange(p**level, m)
    broken = list(table)
    broken[x] = (broken[x] + rng.randrange(1, p) * p**j) % m
    return broken, (x % p**level, x, level)


def is_permutation(table) -> bool:
    """Invertibility of a tower-compatible table: a bijection at the top
    level reduces to a bijection at every level."""
    return len(set(table)) == len(table)
