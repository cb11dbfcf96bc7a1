"""Tower-compatible (1-Lipschitz) functions at fixed precision.

A function is materialized as its full value table on [0, p**K).  Tower
compatibility -- x = y mod p**k implies f(x) = f(y) mod p**k for every
k <= K -- is exactly the 1-Lipschitz property visible at this precision,
and makes the reductions mod p**k well defined.

Three equivalent invertibility criteria are implemented: bijectivity of
every reduction, the interpolation-series criterion on the normalized
ball coefficients, and the digit-level criterion that every coordinate
sub-function is a permutation of the digit alphabet.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .core import PrimeContext

# value tables are materialized in full; anything larger is out of scope
MAX_TABLE_SIZE = 2**24


class CompatibilityViolation(ValueError):
    """A table pair x = y mod p**level with f(x) != f(y) mod p**level."""

    def __init__(self, x: int, y: int, level: int):
        super().__init__(
            f"not tower compatible: arguments {x} and {y} agree mod p^{level} "
            f"but the values differ at that level"
        )
        self.x = x
        self.y = y
        self.level = level


def _leading_digits(ctx: PrimeContext):
    """Yield (block, lead) covering every argument x >= p in ascending order.

    x = rest + lead with rest < block = p**n and lead = d * block, 1 <= d < p:
    lead is the leading digit of x and rest is x with that digit dropped.
    """
    for n in range(1, ctx.precision):
        block = ctx.p**n
        for lead in range(block, block * ctx.p, block):
            yield block, lead


def _check_table_size(ctx: PrimeContext) -> None:
    if ctx.modulus > MAX_TABLE_SIZE:
        raise ValueError(
            f"table of size {ctx.modulus} exceeds the desk-scale cap {MAX_TABLE_SIZE}"
        )


class LipschitzFn:
    """A tower-compatible self-map of Z/p**K, stored as a value table."""

    __slots__ = ("ctx", "table", "provenance")

    def __init__(self, ctx: PrimeContext, table, provenance: str | None = None):
        self.ctx = ctx
        self.table = tuple(table)
        self.provenance = provenance

    @classmethod
    def from_table(
        cls, ctx: PrimeContext, table, provenance: str | None = None
    ) -> "LipschitzFn":
        """Validate digit ranges and tower compatibility, then wrap the table.

        Compatibility at every level holds iff f(x) = f(rest) mod p**n for
        each x = rest + lead with lead = d*p**n its leading digit (by
        induction on x, since rest < x agrees with x mod p**n), so one
        O(p**K) pass decides it.  Only when that pass fails does the
        O(K p**K) ordered scan run: the first violation by level, then by
        argument, is raised as CompatibilityViolation naming the canonical
        representative, the argument and the level.
        """
        _check_table_size(ctx)
        table = tuple(table)
        if len(table) != ctx.modulus:
            raise ValueError(f"table length {len(table)}, expected {ctx.modulus}")
        for x, v in enumerate(table):
            if not (0 <= v < ctx.modulus):
                raise ValueError(f"table[{x}] = {v} outside [0, {ctx.modulus})")
        if any(
            (fx - frest) % block
            for block, lead in _leading_digits(ctx)
            for fx, frest in zip(table[lead : lead + block], table)
        ):
            for level in range(1, ctx.precision):
                block = ctx.p**level
                for x in range(block, ctx.modulus):
                    rep = x % block
                    if table[x] % block != table[rep] % block:
                        raise CompatibilityViolation(rep, x, level)
        return cls(ctx, table, provenance)

    @classmethod
    def from_subfunctions(
        cls, ctx: PrimeContext, subfunctions, provenance: str | None = None
    ) -> "LipschitzFn":
        """Assemble a table from digit maps.

        ``subfunctions[k][a]`` gives the k-th output digit as a function of
        the k-th input digit once the k low digits equal the prefix a; any
        such family yields a tower-compatible function.  The table is built
        level by level, table[a + d*p**k] = table[a] + phi_{k,a}(d) * p**k
        with table[a] the value on the k low digits, in O(p**K).
        """
        _check_table_size(ctx)
        p = ctx.p
        table = [0]
        for k in range(ctx.precision):
            block = p**k
            level = subfunctions[k]
            table = [v + phi[d] * block for d in range(p) for v, phi in zip(table, level)]
        return cls.from_table(ctx, table, provenance)

    def __call__(self, x: int) -> int:
        return self.table[x % self.ctx.modulus]

    def __eq__(self, other: object) -> bool:
        if isinstance(other, LipschitzFn):
            return self.ctx == other.ctx and self.table == other.table
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ctx.p, self.ctx.precision, self.table))

    def __repr__(self) -> str:
        tag = f", provenance={self.provenance!r}" if self.provenance else ""
        return f"LipschitzFn(p={self.ctx.p}, K={self.ctx.precision}{tag})"


def compose(f: LipschitzFn, g: LipschitzFn) -> LipschitzFn:
    """x -> f(g(x)); compositions of tower-compatible maps stay compatible."""
    if f.ctx != g.ctx:
        raise ValueError(f"context mismatch: {f.ctx} vs {g.ctx}")
    return LipschitzFn(f.ctx, (f.table[v] for v in g.table), provenance="compose")


# ---------------------------------------------------------------------------
# interpolation series over p-adic balls
# ---------------------------------------------------------------------------


def _digit_length(p: int, m: int) -> int:
    """Number of base-p digits of m >= 1."""
    n = 0
    while m:
        m //= p
        n += 1
    return n


@dataclass(frozen=True)
class VdpSeries:
    """Ball-indicator expansion coefficients of a function mod p**K.

    ``coefficients[m]`` is B_m: B_m = f(m) for m < p, and the increment of f
    between the ball of m and the ball with the leading digit of m removed
    otherwise.  For a tower-compatible source p**(digits(m)-1) divides B_m,
    so the normalized coefficient b_m = B_m / p**(digits(m)-1) is integral.
    """

    ctx: PrimeContext
    coefficients: tuple[int, ...]

    def normalized(self, m: int) -> int:
        """b_m as a residue (exact division by the guaranteed p-power)."""
        if m < self.ctx.p:
            return self.coefficients[m]
        shift = self.ctx.p ** (_digit_length(self.ctx.p, m) - 1)
        b, rem = divmod(self.coefficients[m], shift)
        if rem:
            raise ValueError(f"coefficient {m} not divisible by {shift}")
        return b

    def to_json(self) -> dict:
        return {
            "p": self.ctx.p,
            "K": self.ctx.precision,
            "B": list(self.coefficients),
        }


def vdp_transform(f: LipschitzFn) -> VdpSeries:
    """Coefficients B_m of f over the ball basis, exact mod p**K.

    One O(p**K) pass: B_x = f(x) for x < p and B_x = f(x) - f(rest) for
    x = rest + lead (lead the leading digit of x, at place n), checking in
    the same loop that p**n divides B_x.  A source that is not tower
    compatible fails that check, raising ValueError at the first such x.
    """
    ctx = f.ctx
    table, modulus = f.table, ctx.modulus
    coeffs = list(table[: ctx.p])
    for block, lead in _leading_digits(ctx):
        for rest in range(block):
            b = (table[lead + rest] - table[rest]) % modulus
            if b % block:
                raise ValueError(f"coefficient {lead + rest} not divisible by {block}")
            coeffs.append(b)
    return VdpSeries(ctx, tuple(coeffs))


def vdp_inverse(series: VdpSeries) -> LipschitzFn:
    """Evaluate the ball expansion back into a value table.

    f(x) sums B_m over the balls containing x: for each digit length n the
    truncation m of x to n digits contributes when m has exactly n digits
    (every one-digit truncation counts, zero included -- the m = 0 indicator
    is the ball of 0 mod p, not the constant one, which is what makes
    B_m = f(m) for m < p).  Those sums obey f(x) = f(rest) + B_x for
    x = rest + lead, so the table is built in one O(p**K) pass.
    Compatibility of the result revalidates the coefficient divisibility
    through from_table.
    """
    ctx = series.ctx
    coeffs, modulus = series.coefficients, ctx.modulus
    if len(coeffs) != modulus:
        raise ValueError(f"need {modulus} coefficients, got {len(coeffs)}")
    table = [b % modulus for b in coeffs[: ctx.p]]
    for block, lead in _leading_digits(ctx):
        table += [(v + b) % modulus for v, b in zip(table[:block], coeffs[lead : lead + block])]
    return LipschitzFn.from_table(ctx, table, provenance="vdp_inverse")


# ---------------------------------------------------------------------------
# invertibility criteria
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class CriterionReport:
    """Outcome of a measure-preservation check with the first failure site."""

    ok: bool
    failure: tuple[int, int] | None = None  # lexicographically first (level, index)
    detail: str = ""

    def __bool__(self) -> bool:
        return self.ok


def preserves_measure_vdp(f: LipschitzFn) -> CriterionReport:
    """Ball-coefficient criterion for invertibility.

    The base coefficients b_0..b_{p-1} must form a complete residue system
    mod p, and for each level k >= 1 and base point m < p**k the normalized
    coefficients over the sibling balls {m + i*p**k : i = 1..p-1} must hit
    every nonzero residue mod p.
    """
    ctx = f.ctx
    p = ctx.p
    coeffs = vdp_transform(f).coefficients
    if {b % p for b in coeffs[:p]} != set(range(p)):
        return CriterionReport(
            ok=False, failure=(0, 0), detail="base coefficients not a complete residue system"
        )
    nonzero = set(range(1, p))
    for k in range(1, ctx.precision):
        block = p**k
        for m in range(block):
            # b_x = B_x / p**k for the siblings x = m + i*p**k
            if {b // block % p for b in coeffs[m + block : block * p : block]} != nonzero:
                return CriterionReport(
                    ok=False,
                    failure=(k, m),
                    detail=f"sibling coefficients of {m} at level {k} miss a nonzero residue",
                )
    return CriterionReport(ok=True)


@dataclass(frozen=True)
class SubfunctionTable:
    """Digit-k action of a function once the k low input digits are fixed."""

    level: int
    prefix: int
    phi: tuple[int, ...]


def coordinate_subfunctions(f: LipschitzFn, k: int) -> list[SubfunctionTable]:
    """All digit-k sub-functions, indexed by the prefix a in [0, p**k)."""
    ctx = f.ctx
    if not (0 <= k < ctx.precision):
        raise ValueError(f"level {k} outside [0, {ctx.precision})")
    p = ctx.p
    block = p**k
    out = []
    for a in range(block):
        phi = tuple((f.table[a + d * block] // block) % p for d in range(p))
        out.append(SubfunctionTable(level=k, prefix=a, phi=phi))
    return out


def preserves_measure_coord(f: LipschitzFn) -> CriterionReport:
    """Digit-level criterion: every sub-function permutes the digit alphabet."""
    p = f.ctx.p
    for k in range(f.ctx.precision):
        block = p**k
        digits = [v // block % p for v in f.table[: block * p]]
        for a in range(block):
            if len(set(digits[a::block])) != p:
                return CriterionReport(
                    ok=False,
                    failure=(k, a),
                    detail=f"sub-function at level {k}, prefix {a} is not a permutation",
                )
    return CriterionReport(ok=True)


def is_bijective_mod(f: LipschitzFn, k: int) -> bool:
    """Whether the reduction of f mod p**k permutes [0, p**k)."""
    if not (1 <= k <= f.ctx.precision):
        raise ValueError(f"level {k} outside [1, {f.ctx.precision}]")
    block = f.ctx.p**k
    return sorted(v % block for v in f.table[:block]) == list(range(block))


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _subfunction_slots(ctx: PrimeContext):
    return [(k, a) for k in range(ctx.precision) for a in range(ctx.p**k)]


def _assemble(ctx: PrimeContext, choice: dict, provenance: str) -> LipschitzFn:
    subs = [
        [choice[(k, a)] for a in range(ctx.p**k)] for k in range(ctx.precision)
    ]
    return LipschitzFn.from_subfunctions(ctx, subs, provenance)


def random_lipschitz(ctx: PrimeContext, rng) -> LipschitzFn:
    """Uniform tower-compatible function: independent random digit maps."""
    choice = {
        slot: tuple(rng.randrange(ctx.p) for _ in range(ctx.p))
        for slot in _subfunction_slots(ctx)
    }
    return _assemble(ctx, choice, "random_lipschitz")


def random_measure_preserving(ctx: PrimeContext, rng) -> LipschitzFn:
    """Uniform invertible tower-compatible function: independent random digit permutations."""
    choice = {}
    for slot in _subfunction_slots(ctx):
        perm = list(range(ctx.p))
        rng.shuffle(perm)
        choice[slot] = tuple(perm)
    return _assemble(ctx, choice, "random_measure_preserving")


def iter_all_lipschitz(ctx: PrimeContext, *, limit: int = 10**6):
    """Yield every tower-compatible function at this precision.

    There are (p**p) ** ((p**K - 1)/(p - 1)) of them; refuse to iterate past
    ``limit``.
    """
    slots = _subfunction_slots(ctx)
    digit_maps = list(itertools.product(range(ctx.p), repeat=ctx.p))
    total = len(digit_maps) ** len(slots)
    if total > limit:
        raise ValueError(f"would enumerate {total} functions, over the cap {limit}")
    for combo in itertools.product(digit_maps, repeat=len(slots)):
        choice = dict(zip(slots, combo))
        yield _assemble(ctx, choice, "exhaustive")


# ---------------------------------------------------------------------------
# JSON encodings
# ---------------------------------------------------------------------------


def fn_to_json(f: LipschitzFn) -> dict:
    data = {"p": f.ctx.p, "K": f.ctx.precision, "table": list(f.table)}
    if f.provenance:
        data["provenance"] = f.provenance
    return data


def fn_from_json(data: dict) -> LipschitzFn:
    ctx = PrimeContext(data["p"], data["K"])
    return LipschitzFn.from_table(ctx, data["table"], data.get("provenance"))


def series_from_json(data: dict) -> VdpSeries:
    ctx = PrimeContext(data["p"], data["K"])
    coeffs = [c % ctx.modulus for c in data["B"]]
    if len(coeffs) != ctx.modulus:
        raise ValueError(f"need {ctx.modulus} coefficients, got {len(coeffs)}")
    return VdpSeries(ctx, tuple(coeffs))
