"""Invertible structure-preserving maps of Z/p**K for each base operation.

Four parametric families are constructed: scalings x -> Ax for addition,
the multiplicative maps acting separately on the p-power, torsion and
principal-unit factors, triangular digit-linear maps for carry-free
addition, and digit-power maps for carry-free multiplication.  The family
parameters carry exactly the constraints that make the realized tables
invertible, so every realized spec is an automorphism for its operation.
Each family's parameter space mod p**k, its size and the tables of all its
members live here too, for the oracle to compare its search against, and
generators of the add, xor and and families: each of these is a group with
an injective parametrisation, so it equals a group that holds its
generators and has its size, which is how ``verify`` checks it.

Also here: homomorphism checking against any binary operation (including
custom operations given by a truncated double power series), the parameter
composition law of the multiplicative family, and the analyzer that finds
which scalings x -> Ax respect a custom series operation.
"""

from __future__ import annotations

import itertools
import math
import random
import threading
from array import array
from collections.abc import Callable
from operator import length_hint

from .core import (
    ContextMismatch,
    PadicInt,
    PrimeContext,
    Record,
    _uniform_draws,
    mapping_field,
    padic_from_json,
    pow_unit,
    record_to_json,
    sequence_field,
    teichmuller,
    unit_decompose,
)
from .lipschitz import (
    MAX_TABLE_SIZE,
    LipschitzFn,
    _check_context,
    _check_table_size,
    is_bijective_mod,
)

# above this table size homomorphism checks switch to seeded random pairs
EXHAUSTIVE_PAIR_LIMIT = 2**10
# a context holds the random-mode pairs of at most this many samples, the
# default, 800 KB at 4 bytes an operand
_HELD_PAIRS = 100_000
# held while a check reads or extends a context's operands; no op runs under it
_HELD_LOCK = threading.Lock()


class Operation(Record):
    """Binary operation on residues mod p**K: ``apply(ctx, x, y)`` at ctx's precision."""

    name: str
    apply: Callable[[PrimeContext, int, int], int]


PLUS = Operation("plus", lambda ctx, x, y: (x + y) % ctx.modulus)
TIMES = Operation("times", lambda ctx, x, y: (x * y) % ctx.modulus)
XOR = Operation("xor", PrimeContext.xor_values)
AND = Operation("and", PrimeContext.and_values)

OPERATIONS = {op.name: op for op in (PLUS, TIMES, XOR, AND)}


def operation_by_name(name: "Operation | str") -> Operation:
    """The operation itself, or the builtin operation of that name."""
    op = OPERATIONS.get(name) if isinstance(name, str) else name
    if isinstance(op, Operation):
        return op
    raise ValueError(f"unknown operation {name!r}; choose from {sorted(OPERATIONS)}")


def operations_by_name(ops) -> list[Operation]:
    """Each of a list of operations or names, resolved by ``operation_by_name``.

    A bare string is refused rather than read as a list of one-character
    names.
    """
    if isinstance(ops, str):
        raise ValueError(f"ops must be a list of operations, got the string {ops!r}")
    return [operation_by_name(op) for op in ops]


class CustomOp:
    """Binary operation c + a*x + b*y + sum c_ij x**i y**j with i+j >= 2.

    The term list is finite: coefficients that vanish mod p**K are dropped
    at construction since they are unobservable at this precision.
    """

    __slots__ = ("ctx", "constant", "linear_x", "linear_y", "terms")

    def __init__(self, ctx: PrimeContext, constant, linear_x, linear_y, terms=()):
        self.ctx = ctx
        self.constant = self._coerce(constant)
        self.linear_x = self._coerce(linear_x)
        self.linear_y = self._coerce(linear_y)
        cleaned = []
        for i, j, coeff in terms:
            if type(i) is not int or type(j) is not int or i < 0 or j < 0 or i + j < 2:
                raise ValueError(f"term exponents ({i!r},{j!r}) must be ints >= 0 with i+j >= 2")
            coeff = self._coerce(coeff)
            if coeff.value != 0:
                cleaned.append((i, j, coeff))
        self.terms = tuple(cleaned)

    def _coerce(self, v) -> PadicInt:
        if isinstance(v, PadicInt):
            if v.ctx != self.ctx:
                raise ContextMismatch(f"{self.ctx} vs {v.ctx}")
            return v
        return self.ctx.integer(v)

    def degrees(self) -> tuple[int, ...]:
        """Total degrees i+j that actually occur, ascending."""
        return tuple(sorted({i + j for i, j, _ in self.terms}))

    def evaluate(self, x: int, y: int, modulus: int | None = None) -> int:
        m = modulus if modulus is not None else self.ctx.modulus
        total = self.constant.value + self.linear_x.value * x + self.linear_y.value * y
        for i, j, coeff in self.terms:
            total += coeff.value * pow(x, i, m) * pow(y, j, m)
        return total % m

    def as_operation(self) -> Operation:
        return Operation("custom", lambda ctx, x, y: self.evaluate(x, y, ctx.modulus))

    def to_json(self) -> dict:
        return {
            "c": str(self.constant.value),
            "a": str(self.linear_x.value),
            "b": str(self.linear_y.value),
            "terms": [[i, j, str(c.value)] for i, j, c in self.terms],
        }

    @classmethod
    def from_json(cls, ctx: PrimeContext, data: dict) -> "CustomOp":
        data = mapping_field(data, "g")
        return cls(
            ctx,
            padic_from_json(ctx, data.get("c", 0), "c"),
            padic_from_json(ctx, data.get("a", 0), "a"),
            padic_from_json(ctx, data.get("b", 0), "b"),
            [
                (i, j, padic_from_json(ctx, c, f"terms[{n}][2]"))
                for n, term in enumerate(sequence_field(data.get("terms", []), "terms"))
                for i, j, c in [sequence_field(term, f"terms[{n}]", 3)]
            ],
        )


# ---------------------------------------------------------------------------
# family parameter records
# ---------------------------------------------------------------------------


def _require_padic(v, name: str) -> None:
    if not isinstance(v, PadicInt):
        raise ValueError(f"{name} must be a PadicInt, got {v!r}")


def _require_unit(v: PadicInt, name: str) -> None:
    _require_padic(v, name)
    if not v.is_unit():
        raise ValueError(f"{name} must be a unit, got {v.value} (p={v.ctx.p})")


class AddSpec(Record):
    """x -> A*x with A a unit: the additive automorphisms."""

    A: PadicInt

    def __post_init__(self):
        _require_unit(self.A, "A")

    @property
    def ctx(self) -> PrimeContext:
        return self.A.ctx


class MulSpec(Record):
    """Multiplicative automorphism acting as (p-power, torsion, principal unit).

    The p-power part picks up A**k, the torsion part is raised to s with
    gcd(s, p-1) = 1, and the principal-unit part is raised to the p-adic
    exponent a (a unit).  For p = 2 the torsion is trivial and s is fixed at 1.
    """

    s: int
    a: PadicInt
    A: PadicInt

    def __post_init__(self):
        _require_padic(self.a, "a")
        _require_padic(self.A, "A")
        ctx = self.a.ctx
        if self.A.ctx != ctx:
            raise ContextMismatch(f"{ctx} vs {self.A.ctx}")
        if type(self.s) is not int or not 1 <= self.s <= ctx.p - 1:
            raise ValueError(f"s = {self.s!r}, expected an int in [1, {ctx.p - 1}]")
        if math.gcd(self.s, ctx.p - 1) != 1:
            raise ValueError(f"s={self.s} must be coprime to p-1={ctx.p - 1}")
        _require_unit(self.a, "a")
        _require_unit(self.A, "A")

    @property
    def ctx(self) -> PrimeContext:
        return self.a.ctx


class XorSpec(Record):
    """Triangular digit-linear map: output digit k is a mod-p combination
    of input digits 0..k with a nonzero coefficient on digit k."""

    ctx: PrimeContext
    alpha: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        ctx = self.ctx
        _check_context(ctx)
        alpha = sequence_field(self.alpha, "alpha")
        alpha = tuple(sequence_field(row, f"alpha[{k}]") for k, row in enumerate(alpha))
        object.__setattr__(self, "alpha", alpha)
        if len(self.alpha) != ctx.precision:
            raise ValueError(f"need {ctx.precision} rows, got {len(self.alpha)}")
        for k, row in enumerate(self.alpha):
            if len(row) != k + 1:
                raise ValueError(f"row {k} must have {k + 1} entries, got {len(row)}")
            for i, c in enumerate(row):
                if type(c) is not int or not 0 <= c < ctx.p:
                    raise ValueError(f"alpha[{k}][{i}] = {c!r}, expected an int in [0, {ctx.p})")
            if row[k] % ctx.p == 0:
                raise ValueError(f"diagonal coefficient of row {k} must be nonzero")


class AndSpec(Record):
    """Digit-power map: output digit k is (input digit k) ** s_list[k] mod p,
    with every exponent coprime to p-1."""

    ctx: PrimeContext
    exponents: tuple[int, ...]

    def __post_init__(self):
        ctx = self.ctx
        _check_context(ctx)
        object.__setattr__(self, "exponents", sequence_field(self.exponents, "s_list"))
        if len(self.exponents) != ctx.precision:
            raise ValueError(
                f"need {ctx.precision} exponents, got {len(self.exponents)}"
            )
        for i, e in enumerate(self.exponents):
            if type(e) is not int or not 1 <= e <= ctx.p - 1:
                raise ValueError(f"s_list[{i}] = {e!r}, expected an int in [1, {ctx.p - 1}]")
            if math.gcd(e, ctx.p - 1) != 1:
                raise ValueError(f"exponent {e} not coprime to p-1={ctx.p - 1}")


AutSpec = AddSpec | MulSpec | XorSpec | AndSpec


def aut_spec_to_json(spec: AutSpec) -> dict:
    if isinstance(spec, AddSpec):
        return {"family": "add", "A": str(spec.A.value)}
    if isinstance(spec, MulSpec):
        return {"family": "mul", "s": spec.s, "a": str(spec.a.value), "A": str(spec.A.value)}
    if isinstance(spec, XorSpec):
        return {"family": "xor", "alpha": [list(row) for row in spec.alpha]}
    if isinstance(spec, AndSpec):
        return {"family": "and", "s_list": list(spec.exponents)}
    raise TypeError(f"not an automorphism spec: {spec!r}")


def aut_spec_from_json(ctx: PrimeContext, data: dict) -> AutSpec:
    data = mapping_field(data, "spec")
    family = data.get("family")
    if family == "add":
        return AddSpec(padic_from_json(ctx, data["A"], "A"))
    if family == "mul":
        return MulSpec(
            data["s"],
            padic_from_json(ctx, data["a"], "a"),
            padic_from_json(ctx, data["A"], "A"),
        )
    if family == "xor":
        return XorSpec(ctx, data["alpha"])
    if family == "and":
        return AndSpec(ctx, data["s_list"])
    raise ValueError(f"unknown family {family!r}")


# ---------------------------------------------------------------------------
# realization as value tables
# ---------------------------------------------------------------------------


def _mul_table(ctx: PrimeContext, s: int, a: int, A: int) -> list[int]:
    """Tabulate x = p**k * theta * g**i -> (p*A)**k * theta**s * (g**a)**i in O(p**K).

    A unit mod p**K is a root of unity theta times a power of g, the
    generator of the principal units: 1+p with theta a Teichmueller lift at
    odd p, 5 with theta = +-1 at p = 2.  Each unit is theta * g**i in
    exactly one way, so each root's coset is walked for phi(p**K) / #roots
    steps, multiplying x by g and its value by g**a.  At p = 2, s = 1 and a
    is odd, so (-g**i)**a = -(g**a)**i; at K <= 2 the root -1 or g reduces
    to 1, the roots collapse ({1} at K = 1), and the step count still
    covers each unit once.  A non-unit p**k * v takes (p*A)**k times the
    entry of the unit v.
    """
    p, modulus = ctx.p, ctx.modulus
    if p == 2:
        g, thetas = 5, (1, modulus - 1)
    else:
        g, thetas = 1 + p, [teichmuller(ctx.integer(d)).value for d in range(1, p)]
    roots = {theta: pow(theta, s, modulus) for theta in thetas}
    g_a = pow(g, a, modulus)
    steps = (modulus - modulus // p) // len(roots)
    table = [0] * modulus
    for x, y in roots.items():
        for _ in range(steps):
            table[x] = y
            x, y = x * g % modulus, y * g_a % modulus
    for k in range(1, ctx.precision):
        step = p**k
        scale = pow(p * A, k, modulus)
        for v in range(1, modulus // step):
            if v % p:
                table[v * step] = scale * table[v] % modulus
    return table


def level_digit_maps(p: int, k: int, param) -> list:
    """The p**k level-k digit maps, in prefix order, of an xor row or an and
    exponent.  An exponent e maps d to d**e mod p; a row maps d to row[k]*d
    plus the prefix's share sum row[i]*a_i (i < k), which is a residue mod p.
    """
    if type(param) is int:
        return [tuple(pow(d, param, p) for d in range(p))] * p**k
    shares = [0]
    for c in param[:k]:
        shares = [(share + c * d) % p for d in range(p) for share in shares]
    maps = [tuple((share + param[k] * d) % p for d in range(p)) for share in range(p)]
    return [maps[share] for share in shares]


def _digit_tables(p: int, levels) -> list[tuple[int, ...]]:
    """Value tables of an xor or and family, one per choice of a parameter
    on every level from ``levels[k]``, in product order.

    The tables are built as a product over the levels, sharing prefixes:
    each table at precision k, the common prefix of every member that makes
    the same choices below level k, is extended once by each level-k
    choice's digit maps (built once per choice by ``level_digit_maps``),
    table[a + d*p**k] = table[a] + phi_a(d) * p**k.  Integer digit maps make
    every table tower compatible, and the maps of valid parameters are
    permutations of [0, p), so nothing is checked here.
    """
    tables = [(0,)]
    for k, level in enumerate(levels):
        block = p**k
        choices = [level_digit_maps(p, k, param) for param in level]
        tables = [
            tuple([v + phi[d] * block for d in range(p) for v, phi in zip(t, maps)])
            for t in tables
            for maps in choices
        ]
    return tables


def realize(spec: AutSpec) -> LipschitzFn:
    """Build the value table of a family member, checking its size first.

    Every family is tower compatible by construction, so no tower pass runs.
    """
    if not isinstance(spec, AutSpec):
        raise TypeError(f"not an automorphism spec: {spec!r}")
    ctx = spec.ctx
    _check_table_size(ctx)
    if isinstance(spec, AddSpec):
        table = [spec.A.value * x % ctx.modulus for x in range(ctx.modulus)]
        return LipschitzFn._trusted(ctx, table, provenance=f"add(A={spec.A.value})")
    if isinstance(spec, MulSpec):
        s, a, A = spec.s, spec.a.value, spec.A.value
        table = _mul_table(ctx, s, a, A)
        return LipschitzFn._trusted(ctx, table, provenance=f"mul(s={s},a={a},A={A})")
    if isinstance(spec, XorSpec | AndSpec):
        family, params = ("xor", spec.alpha) if isinstance(spec, XorSpec) else ("and", spec.exponents)
        (table,) = _digit_tables(ctx.p, [[param] for param in params])
        return LipschitzFn._trusted(ctx, table, provenance=family)


# ---------------------------------------------------------------------------
# realized families reduced mod p**k
# ---------------------------------------------------------------------------

OP_TO_FAMILY = {"plus": "add", "times": "mul", "xor": "xor", "and": "and"}


def _coprime_exponents(p: int) -> list[int]:
    return [s for s in range(1, p) if math.gcd(s, p - 1) == 1]


def _digit_levels(ctx: PrimeContext, family: str) -> list[list]:
    """Per level k, the xor rows (k coefficients, then a nonzero diagonal) or
    the and exponents (coprime to p-1), in ``family_specs`` order."""
    p = ctx.p
    if family == "and":
        return [_coprime_exponents(p)] * ctx.precision
    return [
        [prefix + (diag,) for prefix in itertools.product(range(p), repeat=k) for diag in range(1, p)]
        for k in range(ctx.precision)
    ]


def family_specs(ctx: PrimeContext, family: str):
    """Iterate every family member with parameters ranging over residues mod p**k.

    Not a generator function, so an unknown family is refused at the call.
    """
    if family == "add":
        return (AddSpec(ctx.integer(A)) for A in ctx.units())
    if family == "mul":
        units = list(ctx.units())
        choices = itertools.product(_coprime_exponents(ctx.p), units, units)
        return (MulSpec(s, ctx.integer(a), ctx.integer(A)) for s, a, A in choices)
    if family in ("xor", "and"):
        make = XorSpec if family == "xor" else AndSpec
        return (make(ctx, params) for params in itertools.product(*_digit_levels(ctx, family)))
    raise ValueError(f"unknown family {family!r}")


def family_size(ctx: PrimeContext, family: str) -> int:
    """Number of parameter choices mod p**k (not necessarily distinct tables)."""
    p, k = ctx.p, ctx.precision
    phi_units = p**k - p ** (k - 1)
    if family == "add":
        return phi_units
    if family == "mul":
        return len(_coprime_exponents(p)) * phi_units * phi_units
    if family == "xor":
        return (p - 1) ** k * p ** (k * (k - 1) // 2)
    if family == "and":
        return len(_coprime_exponents(p)) ** k
    raise ValueError(f"unknown family {family!r}")


def family_tables(ctx: PrimeContext, family: str) -> set[tuple[int, ...]]:
    """Value tables of every family member with parameters ranging mod p**k.

    Every member is built from its parameters, with no spec object.  For
    "mul" only the members with a, A below max(p, p**(k-1)) are built,
    since every other member repeats one of their tables: the exponent a
    acts on the principal units mod p**k, a group of order p**(k-1), and A
    enters only as (p*A)**m with m >= 1, so both matter only mod p**(k-1).
    At k = 1 the bound p keeps every unit.  "xor" and "and" members are
    built by ``_digit_tables`` from every choice on every level, sharing
    prefixes, as ``realize`` builds one member from one choice per level.

    Raises ValueError, before any table is built, for an unknown family or
    when the tables it would build hold more than ``MAX_TABLE_SIZE``
    entries in all.
    """
    p, m = ctx.p, ctx.modulus
    bound = max(p, m // p)
    count = family_size(ctx, family)
    if family == "mul":  # the bound is a power of p, with bound - bound // p units below it
        count = len(_coprime_exponents(p)) * (bound - bound // p) ** 2
    if count * m > MAX_TABLE_SIZE:
        raise ValueError(
            f"the {count} {family} tables to build mod {p}**{ctx.precision} would hold "
            f"more than {MAX_TABLE_SIZE} entries in all (desk-scale cap)"
        )
    if family == "add":
        return {tuple([A * x % m for x in range(m)]) for A in ctx.units()}
    if family == "mul":
        units = [u for u in range(1, bound) if u % p]
        choices = itertools.product(_coprime_exponents(p), units, units)
        return {tuple(_mul_table(ctx, *choice)) for choice in choices}
    return set(_digit_tables(p, _digit_levels(ctx, family)))


def family_generators(ctx: PrimeContext, family: str) -> list[AutSpec]:
    """Generators of the "add", "xor" or "and" family, each a group under composition.

    add: the units mod p**K, a root of unity times a principal unit as in
    ``_mul_table``: -1 and 5 at p = 2; at odd p, the Teichmueller lift of a
    primitive root mod p, of order p - 1, and 1 + p.
    xor: the lower-triangular invertible matrices mod p.  The elementary
    matrices, the identity with a 1 at one place below the diagonal,
    generate the unitriangular ones; at odd p, one diagonal matrix per level,
    with the primitive root at that level and 1 at every other, generates
    the diagonal ones.  Every member is a diagonal matrix times a
    unitriangular one.
    and: the exponents coprime to p - 1 compose by multiplication mod p - 1
    on each level apart, so each one other than 1 at one level, with 1 at
    every other, generates.

    Not a generator function, so "mul" and an unknown family are refused
    (ValueError) at the call.
    """
    p, K = ctx.p, ctx.precision
    # 1 is the primitive root mod 2, and at odd p a power of 1 is never one
    root = next(g for g in range(1, p) if len({pow(g, e, p) for e in range(1, p)}) == p - 1)
    if family == "add":
        units = (-1, 5) if p == 2 else (teichmuller(ctx.integer(root)).value, 1 + p)
        return [AddSpec(ctx.integer(A)) for A in units]
    if family == "xor":

        def matrix(k: int, i: int, c: int) -> XorSpec:  # the identity with c at row k, column i
            rows = [[int(col == row) for col in range(row + 1)] for row in range(K)]
            rows[k][i] = c
            return XorSpec(ctx, tuple(map(tuple, rows)))

        diagonal = [matrix(k, k, root) for k in range(K) if p > 2]
        return [matrix(k, i, 1) for k in range(K) for i in range(k)] + diagonal
    if family == "and":
        levels = [(1,) * k + (e,) + (1,) * (K - 1 - k) for k in range(K) for e in _coprime_exponents(p)[1:]]
        return [AndSpec(ctx, exponents) for exponents in levels]
    raise ValueError(f"no generators for family {family!r}; choose from ['add', 'and', 'xor']")


# ---------------------------------------------------------------------------
# homomorphism / automorphism checks
# ---------------------------------------------------------------------------


class HomReport(Record):
    """Outcome of f(x op y) = f(x) op f(y) checking over argument pairs."""

    ok: bool
    counterexample: tuple[int, int] | None
    mode: str  # "exhaustive" or "random"
    checked: int

    def __bool__(self) -> bool:
        return self.ok


def is_homomorphism(
    f: LipschitzFn, op: "Operation | str", *, seed: int = 0, samples: int = 100_000
) -> HomReport:
    """Check the homomorphism law; exhaustive when p**K <= 2**10.

    ``op`` is an operation or the name of a builtin one.  Exhaustive mode
    scans pairs in lexicographic order and reports the first counterexample;
    otherwise ``samples`` random pairs are drawn, each x then y the values
    ``random.Random(seed).randrange(p**K)`` would give.  These are a function
    of (seed, p**K) alone, so the context holds those it has drawn for the
    last seed it was asked (at most 100,000 pairs, 800 KB) with the rng that
    drew them, and a later check reads them and draws only the missing ones,
    in doubling chunks of 64 to 2,048 pairs; a check at another seed
    replaces them, and a larger sample streams from a fresh rng and holds
    nothing.  Only the draws run under a lock, and each check reads its
    pairs from the held values by index, so every report is what a fresh
    rng would give, from any thread and from a check that an op's apply
    runs.  Raises ValueError, before checking anything, for an unknown
    operation name, when ``samples`` is not an int of at least 1, or when
    ``seed`` is not an int.
    """
    op = operation_by_name(op)
    if type(samples) is not int or samples < 1:
        raise ValueError(f"samples must be an int >= 1, got {samples!r}")
    if type(seed) is not int:  # None would seed from the OS, True is no seed
        raise ValueError(f"seed must be an int, got {seed!r}")
    ctx = f.ctx
    n = ctx.modulus
    table = f.table
    apply = op.apply
    if n <= EXHAUSTIVE_PAIR_LIMIT:
        for x in range(n):
            fx = table[x]
            for y in range(n):
                if table[apply(ctx, x, y)] != apply(ctx, fx, table[y]):
                    return HomReport(False, (x, y), "exhaustive", x * n + y + 1)
        return HomReport(True, None, "exhaustive", n * n)
    # past the held bound the pairs stream from a fresh rng, so that what is
    # held stays bounded
    draws = _uniform_draws(random.Random(seed), n) if samples > _HELD_PAIRS else None
    start = 0
    while start < samples:
        # doubling, so that a check failing at pair i draws at most
        # max(128, 4i) operands; capped, so that no chunk outgrows 4,096 values
        end = min(samples, max(64, 2 * start), start + 2048)
        if draws is not None:
            chunk = list(itertools.islice(draws, 2 * (end - start)))
        else:
            with _HELD_LOCK:  # only draws run under it, never an op
                held = ctx._operands
                if held is None or held[0] != seed:
                    held = (seed, array("I"), random.Random(seed))
                values, have = held[1], len(held[1]) // 2
                if have < end:
                    # from pair have, which lies before start only when a
                    # check at another seed replaced what was held meanwhile
                    ctx._operands = None  # a draw cut short leaves the rng past the values
                    chunk = list(itertools.islice(_uniform_draws(held[2], n), 2 * (end - have)))
                    values.fromlist(chunk)
                ctx._operands = held
            if have != start:  # the chunk was held, in part or whole: read it by index
                chunk = values[2 * start : 2 * end].tolist()
        operands = iter(chunk)
        for x, y in zip(operands, operands):
            if table[apply(ctx, x, y)] != apply(ctx, table[x], table[y]):
                # the pairs left in the chunk are those after this one
                return HomReport(False, (x, y), "random", end - length_hint(operands) // 2)
        start = end
    return HomReport(True, None, "random", samples)


def is_automorphism(f: LipschitzFn, ops) -> bool:
    """Tower-compatible (by construction) + bijective at every level + a
    homomorphism for every listed operation or operation name.

    Bijectivity mod p**K decides every level (see ``is_bijective_mod``).
    Raises ValueError, before checking anything, when ``ops`` is a string
    or names an unknown operation.
    """
    operations = operations_by_name(ops)
    return is_bijective_mod(f, f.ctx.precision) and all(
        is_homomorphism(f, op).ok for op in operations
    )


# ---------------------------------------------------------------------------
# multiplicative family: composition law on parameters
# ---------------------------------------------------------------------------


def compose_mul(lhs: MulSpec, rhs: MulSpec) -> MulSpec:
    """Parameters of x -> lhs(rhs(x)).

    With rhs scaling factor B split as theta_B * (1 + p*B1), the composite is
    (s*d normalized into [1, p-1] mod p-1, a*b, A * theta_B**s * (1+p*B1)**a).
    Specs of two contexts raise ContextMismatch at a*b, by the operand rule,
    and an argument that is not a MulSpec raises TypeError.
    """
    for name, spec in (("lhs", lhs), ("rhs", rhs)):
        if not isinstance(spec, MulSpec):
            raise TypeError(f"{name} must be a MulSpec, got {spec!r}")
    ctx = lhs.ctx
    parts = unit_decompose(rhs.A)
    s = (lhs.s * rhs.s - 1) % (ctx.p - 1) + 1
    a = lhs.a * rhs.a
    A = lhs.A * parts.theta**lhs.s * pow_unit(parts.one_plus_pt, lhs.a)
    return MulSpec(s, a, A)


# ---------------------------------------------------------------------------
# which scalings respect a custom series operation
# ---------------------------------------------------------------------------


class GReport(Record):
    """Scalings x -> Ax commuting with a custom operation, at this precision.

    ``witnesses`` are the units A mod p**K that pass an exhaustive
    homomorphism check; ``exponent_gcd`` is d = gcd(n - 1) over the term
    degrees n (None for a linear operation).  ``predicted_nontrivial`` is
    the full-ring answer: over Z_p a scaling other than the identity
    commutes iff c = 0 and A**d = 1 (any unit when d is None).  Finite
    quotients can keep extra scalings that vanish at higher precision.
    """

    trivial: bool
    group_order: int
    witnesses: tuple[int, ...]
    exponent_gcd: int | None
    predicted_nontrivial: bool

    to_json = record_to_json


def analyze_custom_op(op: CustomOp) -> GReport:
    """Find all scalings x -> Ax that are homomorphisms for a custom operation.

    The candidates are the units A with g(A, A) = A * g(1, 1) mod p**K, the
    homomorphism law at x = y = 1, which every commuting scaling meets; each
    is confirmed by an exhaustive homomorphism check.  The passing A form a
    subgroup, since x -> Ax composes as multiplication and the inverse of a
    bijective homomorphism is one, and the failing A form whole cosets of
    it: if A*B passed with B passing, so would A.  So one check decides each
    new generator or failing coset; a candidate in the group generated so
    far, or in a failing coset, is not checked again.

    The prediction counts the roots of unity of Z_p, r of them (p - 1 at
    odd p, 2 at p = 2): one other than 1 solves A**d = 1 iff gcd(d, r) > 1.
    """
    ctx = op.ctx
    if ctx.modulus > EXHAUSTIVE_PAIR_LIMIT:
        raise ValueError(
            f"modulus {ctx.modulus} over the analyzer cap {EXHAUSTIVE_PAIR_LIMIT}"
        )
    m = ctx.modulus
    at_one = op.evaluate(1, 1)
    candidates = [A for A in ctx.units() if op.evaluate(A, A) == A * at_one % m]
    operation = op.as_operation()
    passing = {1}
    failing_inverses: list[int] = []
    for A in candidates:
        if A in passing or any(A * b_inv % m in passing for b_inv in failing_inverses):
            continue
        if not is_homomorphism(realize(AddSpec(ctx.integer(A))), operation).ok:
            failing_inverses.append(pow(A, -1, m))
            continue
        # the units commute, so passing and A generate the cosets passing * A**i
        power, new = A, set()
        while power not in passing:
            new.update(B * power % m for B in passing)
            power = power * A % m
        passing |= new
    witnesses = tuple(A for A in candidates if A in passing)
    degrees = op.degrees()
    d = math.gcd(*(n - 1 for n in degrees)) if degrees else None
    roots = 2 if ctx.p == 2 else ctx.p - 1
    predicted = op.constant.value == 0 and (d is None or math.gcd(d, roots) > 1)
    return GReport(
        trivial=len(witnesses) == 1,
        group_order=len(witnesses),
        witnesses=witnesses,
        exponent_gcd=d,
        predicted_nontrivial=predicted,
    )
