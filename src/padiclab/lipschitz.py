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
import random
from dataclasses import dataclass
from operator import add, ne

from .core import ContextMismatch, PrimeContext, _uniform_draws, mapping_field, sequence_field

# value tables are materialized in full; anything larger is out of scope
MAX_TABLE_SIZE = 2**24
# iter_all_lipschitz refuses to yield more functions than this
ENUMERATION_LIMIT = 10**6
# the criteria sum digit bits 1 << d up to this p, where a full sum is below
# 2**7, a cached small int; at p = 65521 the bits of one table take 275 MiB
_BIT_SUM_MAX_P = 7


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


def _check_table_size(ctx: PrimeContext) -> None:
    if not isinstance(ctx, PrimeContext):
        raise ValueError(f"ctx must be a PrimeContext, got {ctx!r}")
    if ctx.modulus > MAX_TABLE_SIZE:
        raise ValueError(
            f"table of size {ctx.modulus} exceeds the desk-scale cap {MAX_TABLE_SIZE}"
        )


def _assemble(p: int, levels) -> list[int]:
    """The table of digit maps given as flat levels, phi_{k,a}(d) at level[a*p + d].

    table[a + d*p**k] = table[a] + phi_{k,a}(d) * p**k with table[a] the value
    on the k low digits, so column d is level[d::p]; O(p**K) in all.
    """
    table, block = [0], 1
    for level in levels:
        table = [v + digit * block for d in range(p) for v, digit in zip(table, level[d::p])]
        block *= p
    return table


class LipschitzFn:
    """A tower-compatible self-map of Z/p**K, stored as a value table.

    The constructor validates the table, so every instance is tower
    compatible: ctx a PrimeContext and its size within MAX_TABLE_SIZE
    (both checked before the table is read), its length p**K, its entries
    ints in [0, p**K), and then compatibility at every level.  That holds
    iff f(x) = f(rest) mod p**n for each x in [p**n, p**(n+1)) and
    rest = x mod p**n (by induction on x, since rest < x agrees with x mod
    p**n), so one O(p**K) pass over the digit places, each place's
    arguments against their rests table[:p**n], decides it.  Only when
    that pass fails does the O(K p**K) scan, each level's residues against
    its first block repeated: the first violation by level, then by
    argument, is raised as CompatibilityViolation naming the canonical
    representative, the argument and the level.
    """

    __slots__ = ("ctx", "table", "provenance")

    def __init__(self, ctx: PrimeContext, table, provenance: str | None = None):
        _check_table_size(ctx)
        table = tuple(table)
        if len(table) != ctx.modulus:
            raise ValueError(f"table length {len(table)}, expected {ctx.modulus}")
        for x, v in enumerate(table):
            if type(v) is not int or not 0 <= v < ctx.modulus:  # bools are not ints here
                raise ValueError(f"table[{x}] = {v!r}, expected an int in [0, {ctx.modulus})")
        p = ctx.p
        if any(
            (fx - frest) % block
            for block in (p**n for n in range(1, ctx.precision))
            for fx, frest in zip(table[block : block * p], table[:block] * (p - 1))
        ):
            for level in range(1, ctx.precision):
                block = p**level
                residues = [v % block for v in table]
                reps = residues[:block] * (ctx.modulus // block)
                if residues != reps:
                    x = list(map(ne, residues, reps)).index(True)
                    raise CompatibilityViolation(x % block, x, level)
        self.ctx = ctx
        self.table = table
        self.provenance = provenance

    @classmethod
    def _trusted(cls, ctx: PrimeContext, table, provenance: str | None = None) -> "LipschitzFn":
        """Wrap a table that is tower compatible by construction, with no checks."""
        f = object.__new__(cls)
        f.ctx, f.table, f.provenance = ctx, tuple(table), provenance
        return f

    @classmethod
    def from_table(
        cls, ctx: PrimeContext, table, provenance: str | None = None
    ) -> "LipschitzFn":
        """Validate the table as the constructor does, then wrap it."""
        return cls(ctx, table, provenance)

    @classmethod
    def from_subfunctions(
        cls, ctx: PrimeContext, subfunctions, provenance: str | None = None
    ) -> "LipschitzFn":
        """Assemble a table from digit maps, checking only their shape, type and range.

        ``subfunctions[k][a]`` gives the k-th output digit as a function of
        the k-th input digit once the k low digits equal the prefix a, so
        level k must hold exactly p**k maps of exactly p int digits.  For
        any integer digit maps f(x) mod p**j depends only on x mod p**j, so
        the result is tower compatible and needs no tower pass.
        """
        _check_table_size(ctx)
        p = ctx.p
        if len(subfunctions) != ctx.precision:
            raise ValueError(f"{len(subfunctions)} levels of digit maps, expected {ctx.precision}")
        levels = []
        for k, level in enumerate(subfunctions):
            if len(level) != p**k or set(map(len, level)) != {p}:
                raise ValueError(f"level {k} needs {p**k} digit maps of {p} digits each")
            levels.append(list(itertools.chain.from_iterable(level)))
            if set(map(type, levels[-1])) != {int}:  # bools and floats are not digits
                raise ValueError(f"level {k} holds a digit that is not an int")
        table = _assemble(p, levels)
        if not (0 <= min(table) and max(table) < ctx.modulus):
            raise ValueError(f"digit maps give values outside [0, {ctx.modulus})")
        return cls._trusted(ctx, table, provenance)

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
        raise ContextMismatch(f"context mismatch: {f.ctx} vs {g.ctx}")
    return LipschitzFn._trusted(f.ctx, (f.table[v] for v in g.table), provenance="compose")


# ---------------------------------------------------------------------------
# interpolation series over p-adic balls
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class VdpSeries:
    """Ball-indicator expansion coefficients of a function mod p**K.

    ``coefficients[m]`` is B_m: B_m = f(m) for m < p, and the increment of f
    between the ball of m and the ball with the leading digit of m removed
    otherwise.  For a tower-compatible source p**(digits(m)-1) divides B_m,
    so the normalized coefficient b_m = B_m / p**(digits(m)-1) is integral.
    A series holds exactly p**K coefficients for a ``PrimeContext``; any
    other count or context raises ValueError when it is built.  Its
    coefficients are checked to be ints where they are read
    (``normalized``, ``vdp_inverse``), not at build, so ``vdp_transform``
    pays nothing for it.
    """

    ctx: PrimeContext
    coefficients: tuple[int, ...]

    def __post_init__(self) -> None:
        _check_table_size(self.ctx)
        if len(self.coefficients) != self.ctx.modulus:
            raise ValueError(f"need {self.ctx.modulus} coefficients, got {len(self.coefficients)}")

    def normalized(self, m: int) -> int:
        """b_m as a residue (exact division by the guaranteed p-power).

        Raises ValueError when m is not an int in [0, p**K) or B_m is not an int.
        """
        p, modulus = self.ctx.p, self.ctx.modulus
        if type(m) is not int or not 0 <= m < modulus:  # bools are not indices
            raise ValueError(f"coefficient index {m!r}, expected an int in [0, {modulus})")
        shift = 1
        while shift * p <= m:
            shift *= p
        c = self.coefficients[m]
        if type(c) is not int:  # bools and floats are not coefficients
            raise ValueError(f"B[{m}] = {c!r}, expected an int")
        b, rem = divmod(c, shift)
        if rem:
            raise ValueError(f"coefficient {m} not divisible by {shift}")
        return b

    def to_json(self) -> dict:
        return {
            "p": self.ctx.p,
            "K": self.ctx.precision,
            "B": list(self.coefficients),
        }


def _check_coefficients(B) -> None:
    """Refuse the first coefficient that is not an int, bools and floats included."""
    if not set(map(type, B)) <= {int}:
        i = next(i for i, c in enumerate(B) if type(c) is not int)
        raise ValueError(f"B[{i}] = {B[i]!r}, expected an int")


def vdp_transform(f: LipschitzFn) -> VdpSeries:
    """Coefficients B_m of f over the ball basis, exact mod p**K.

    One O(p**K) pass: B_x = f(x) for x < p and B_x = f(x) - f(rest) for
    x in [p**n, p**(n+1)) and rest = x mod p**n, one place n at a time.
    Every LipschitzFn is tower compatible, so p**n divides each B_x of place
    n and nothing is checked here.
    """
    ctx = f.ctx
    table, modulus, p = f.table, ctx.modulus, ctx.p
    coeffs = list(table[:p])
    for n in range(1, ctx.precision):
        block = p**n
        # x runs over [p**n, p**(n+1)) and rest = x mod p**n cycles p - 1 times
        rests = table[:block] * (p - 1)
        coeffs += [(fx - frest) % modulus for fx, frest in zip(table[block : block * p], rests)]
    return VdpSeries(ctx, tuple(coeffs))


def vdp_inverse(series: VdpSeries) -> LipschitzFn:
    """Evaluate the ball expansion back into a value table.

    f(x) sums B_m over the balls containing x: for each digit length n the
    truncation m of x to n digits contributes when m has exactly n digits
    (every one-digit truncation counts, zero included -- the m = 0 indicator
    is the ball of 0 mod p, not the constant one, which is what makes
    B_m = f(m) for m < p).  Those sums obey f(x) = f(rest) + B_x for
    x in [p**n, p**(n+1)) and rest = x mod p**n, so the table is built in
    one O(p**K) pass, one digit place n at a time.  A coefficient that is
    not an int is refused first, by index; compatibility of the result
    revalidates the coefficient divisibility through from_table.
    """
    ctx = series.ctx
    coeffs, modulus, p = series.coefficients, ctx.modulus, ctx.p
    _check_coefficients(coeffs)
    table = [b % modulus for b in coeffs[:p]]
    for n in range(1, ctx.precision):
        block = p**n
        table += [(v + b) % modulus for v, b in zip(table * (p - 1), coeffs[block : block * p])]
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


# the passing report, shared by both criteria: it is frozen
_CRITERION_OK = CriterionReport(ok=True)


def _first_short_sum(bits: list[int], block: int, full: int) -> int | None:
    """The first m < block whose stride-block group bits[m::block] does not sum to full.

    The bits are 1 << d for digits d, and full is the sum of the bits of the
    digits each group must hold.  n powers of two sum to a number with n
    one-bits iff they are distinct, so a group sums to full iff its digits
    are exactly those.  The groups are summed a column at a time.
    """
    if block == 1:
        return None if sum(bits) == full else 0
    sums = bits[:block]
    for i in range(block, len(bits), block):
        sums = list(map(add, sums, bits[i : i + block]))
    if sums.count(full) == block:
        return None
    return next(m for m, s in enumerate(sums) if s != full)


def preserves_measure_vdp(f: LipschitzFn) -> CriterionReport:
    """Ball-coefficient criterion for invertibility.

    The base coefficients b_0..b_{p-1} must form a complete residue system
    mod p, and for each level k >= 1 and base point m < p**k the normalized
    coefficients over the sibling balls {m + i*p**k : i = 1..p-1} must hit
    every nonzero residue mod p: by digit bit-sums at p <= _BIT_SUM_MAX_P, by
    one set per base point above.

    The coefficients are read off the table one digit place at a time, with
    no series built: B_x = f(x) - f(rest) for x in [p**k, p**(k+1)) and
    rest = x mod p**k, which p**k divides since every LipschitzFn is tower
    compatible.  The first failing level decides, and no later one is read.
    """
    ctx = f.ctx
    p, table = ctx.p, f.table
    if {v % p for v in table[:p]} != set(range(p)):
        return CriterionReport(
            ok=False, failure=(0, 0), detail="base coefficients not a complete residue system"
        )
    nonzero, full = set(range(1, p)), (1 << p) - 2
    for k in range(1, ctx.precision):
        block = p**k
        # x runs over [p**k, p**(k+1)) and rest = x mod p**k cycles p - 1
        # times; the siblings of m are x = m + i*p**k, a stride-p**k slice
        pairs = zip(table[block : block * p], table[:block] * (p - 1))
        # b_x = B_x / p**k mod p, as the bit 1 << b_x at p <= _BIT_SUM_MAX_P
        if p <= _BIT_SUM_MAX_P:
            bits = [1 << ((fx - frest) // block % p) for fx, frest in pairs]
            m = _first_short_sum(bits, block, full)
        else:
            residues = [(fx - frest) // block % p for fx, frest in pairs]
            m = next((m for m in range(block) if set(residues[m::block]) != nonzero), None)
        if m is not None:
            return CriterionReport(
                ok=False,
                failure=(k, m),
                detail=f"sibling coefficients of {m} at level {k} miss a nonzero residue",
            )
    return _CRITERION_OK


def coordinate_subfunctions(f: LipschitzFn, k: int) -> list[tuple[int, ...]]:
    """The p**k digit-k maps of f in prefix order, as ``from_subfunctions`` takes them."""
    ctx = f.ctx
    if type(k) is not int:  # bools are not levels
        raise ValueError(f"level must be an int, got {k!r}")
    if not (0 <= k < ctx.precision):
        raise ValueError(f"level {k} outside [0, {ctx.precision})")
    p = ctx.p
    block = p**k
    return [tuple(f.table[a + d * block] // block % p for d in range(p)) for a in range(block)]


def preserves_measure_coord(f: LipschitzFn) -> CriterionReport:
    """Digit-level criterion: every sub-function permutes the digit alphabet.

    Checked by digit bit-sums at p <= _BIT_SUM_MAX_P, by one set per prefix
    above.
    """
    p = f.ctx.p
    full = (1 << p) - 1
    for k in range(f.ctx.precision):
        block = p**k
        values = f.table[: block * p]
        if p <= _BIT_SUM_MAX_P:
            a = _first_short_sum([1 << (v // block % p) for v in values], block, full)
        else:
            digits = [v // block % p for v in values]
            a = next((a for a in range(block) if len(set(digits[a::block])) != p), None)
        if a is not None:
            return CriterionReport(
                ok=False,
                failure=(k, a),
                detail=f"sub-function at level {k}, prefix {a} is not a permutation",
            )
    return _CRITERION_OK


def is_bijective_mod(f: LipschitzFn, k: int) -> bool:
    """Whether the reduction of f mod p**k permutes [0, p**k).

    For a tower-compatible f, level K decides every level: f mod p**k
    composed with reduction from p**K is reduction composed with f mod
    p**K, so it is onto when f mod p**K is, and an onto self-map of a
    finite set is a bijection.
    """
    if type(k) is not int:  # bools are not levels
        raise ValueError(f"level must be an int, got {k!r}")
    if not (1 <= k <= f.ctx.precision):
        raise ValueError(f"level {k} outside [1, {f.ctx.precision}]")
    block = f.ctx.p**k
    # block values, all in [0, block): a permutation iff they are distinct
    return len({v % block for v in f.table[:block]}) == block


# ---------------------------------------------------------------------------
# generators
# ---------------------------------------------------------------------------


def _check_rng(rng) -> None:
    if not isinstance(rng, random.Random):
        raise ValueError(f"rng must be a random.Random, got {rng!r}")


def random_lipschitz(ctx: PrimeContext, rng: random.Random) -> LipschitzFn:
    """Uniform tower-compatible function: independent random digit maps.

    The digit maps take, level by level and prefix by prefix, the values p
    calls of ``rng.randrange(p)`` would give.  Raises ValueError, before
    building anything, when ``rng`` is not a ``random.Random`` or the table
    is over the size cap.
    """
    _check_rng(rng)
    _check_table_size(ctx)
    p = ctx.p
    draws = _uniform_draws(rng, p)
    levels = (list(itertools.islice(draws, p ** (k + 1))) for k in range(ctx.precision))
    return LipschitzFn._trusted(ctx, _assemble(p, levels), "random_lipschitz")


def random_measure_preserving(ctx: PrimeContext, rng: random.Random) -> LipschitzFn:
    """Uniform invertible tower-compatible function: independent random digit permutations.

    Each digit map is ``list(range(p))`` after ``rng.shuffle``, level by level
    and prefix by prefix: the same Fisher-Yates swaps, where position i swaps
    with a draw below i + 1.  Raises ValueError, before building anything,
    when ``rng`` is not a ``random.Random`` or the table is over the size cap.
    """
    _check_rng(rng)
    _check_table_size(ctx)
    p = ctx.p
    levels = [list(range(p)) * p**k for k in range(ctx.precision)]
    swaps = [(i, _uniform_draws(rng, i + 1)) for i in reversed(range(1, p))]
    for level in levels:
        for start in range(0, len(level), p):
            for i, draws in swaps:
                i += start
                j = start + next(draws)
                level[i], level[j] = level[j], level[i]
    return LipschitzFn._trusted(ctx, _assemble(p, levels), "random_measure_preserving")


def iter_all_lipschitz(ctx: PrimeContext):
    """Yield every tower-compatible function at this precision.

    There are p ** (p * slots) of them, one digit map per (level, prefix)
    slot, with slots = (p**K - 1)/(p - 1); refuse to iterate past
    ``ENUMERATION_LIMIT``.  The cap is below 2**20, so p ** min(p * slots,
    20) decides it before anything is listed.
    """
    p = ctx.p
    exponent = p * ((ctx.modulus - 1) // (p - 1))
    if p ** min(exponent, 20) > ENUMERATION_LIMIT:
        raise ValueError(
            f"would enumerate {p}**{exponent} functions, over the cap {ENUMERATION_LIMIT}"
        )
    digit_maps = list(itertools.product(range(p), repeat=p))
    levels = [itertools.product(digit_maps, repeat=p**k) for k in range(ctx.precision)]
    for subfunctions in itertools.product(*levels):
        yield LipschitzFn.from_subfunctions(ctx, subfunctions, "exhaustive")


# ---------------------------------------------------------------------------
# JSON encodings
# ---------------------------------------------------------------------------


def fn_to_json(f: LipschitzFn) -> dict:
    data = {"p": f.ctx.p, "K": f.ctx.precision, "table": list(f.table)}
    if f.provenance:
        data["provenance"] = f.provenance
    return data


def fn_from_json(data: dict) -> LipschitzFn:
    data = mapping_field(data, "function")
    ctx = PrimeContext(data["p"], data["K"])
    table = sequence_field(data["table"], "table")
    provenance = data.get("provenance")
    if "provenance" in data and type(provenance) is not str:
        raise ValueError(f"provenance = {provenance!r}, expected a string")
    return LipschitzFn.from_table(ctx, table, provenance)


def series_from_json(data: dict) -> VdpSeries:
    data = mapping_field(data, "series")
    ctx = PrimeContext(data["p"], data["K"])
    B = sequence_field(data["B"], "B")
    _check_coefficients(B)
    return VdpSeries(ctx, tuple(c % ctx.modulus for c in B))
