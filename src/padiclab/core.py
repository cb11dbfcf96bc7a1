"""Exact arithmetic on p-adic integers truncated to a fixed precision.

A value is the canonical residue in [0, p**K); its K base-p digits
(little-endian, ``digits[0]`` is the units digit) are derived from it on
demand.  Every operation is exact modulo p**K; nothing is floating or
adaptive.  Besides the ring operations the module provides the carry-free
digit-wise operations (addition and multiplication of digits mod p),
Teichmueller lifts, the decomposition of a nonzero value into p-power,
torsion and principal unit parts, and the truncated-series exponential and
logarithm.  Powers of principal units with p-adic exponents are builtin
``pow``: mod p**K the principal units form a group of order p**(K-1), so
u**a depends only on a mod p**(K-1) and pow(u, a mod p**K, p**K) is exact.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
import re

MAX_PRECISION = 32

# A digit-wise op at odd p reads c digits of both operands at once from a
# bytes table of P*P entries, P = p**c.  An entry is a digit-wise result
# below P and a byte holds values below 256, so P is the widest power within
# 256 (P*P <= 2**16): P = 243, 125, 49, 121 and 169 at p = 3, 5, 7, 11 and 13
# (c = 5, 3, 2, 2 and 2), 240,554 bytes for all ten tables.  From p = 17 on
# p**2 > 256, c would be 1, and the digit loop runs instead.
_CHUNKED_BELOW = math.isqrt(256) + 1  # p**2 within one byte
# (P, table) per odd prime below _CHUNKED_BELOW, built on first use
_SUM_CHUNKS: dict[int, tuple[int, bytes]] = {}
_PRODUCT_CHUNKS: dict[int, tuple[int, bytes]] = {}


class ContextMismatch(ValueError):
    """Operands belong to different (p, precision) contexts."""


def is_prime(n: int) -> bool:
    """Deterministic primality test by trial division (n < 2**16 in practice)."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


# is_prime for n in [2, 2**16), once per n: its callers refuse every other n
# first, which bounds the cache
_is_small_prime = functools.cache(is_prime)


def _uniform_draws(rng, n: int):
    """Yield, without end, the values ``rng.randrange(n)`` would give, in order.

    This is CPython's ``Random._randbelow_with_getrandbits``, which
    ``randrange(n)`` and ``shuffle`` call for a ``random.Random``: draw
    n.bit_length() bits and keep the draw when it is below n.  So the values
    and the generator state after each one are ``randrange``'s, without its
    argument checks and two Python frames per draw.  The generator resumes
    only when asked, so several of them can share one rng in any interleaving.
    """
    getrandbits = rng.getrandbits
    bits = n.bit_length()
    while True:
        r = getrandbits(bits)
        if r < n:
            yield r


def _chunk_table(chunks: dict, p: int, digit_op) -> tuple[int, bytes]:
    """Build and keep ``chunks[p]``: (P, table) with table[a*P + b] the
    digit-wise ``digit_op`` mod p of a, b < P.

    The table over one digit is extended a digit at a time: for a = a_hi*Q
    + a_lo and b = b_hi*Q + b_lo with Q the width so far, the entry is the
    one-digit entry of (a_hi, b_hi) times Q plus the Q-wide entry of (a_lo,
    b_lo).  So the new row of a is, for each b_hi, the old row of a_lo with
    d*Q added to every byte, d the one-digit entry; ``bytes.translate`` adds
    it through the table of i -> (i + d*Q) mod 256, exact since the sum stays
    below the new width.
    """
    digit = [[digit_op(a, b) % p for b in range(p)] for a in range(p)]
    rows, width = [bytes(row) for row in digit], p
    while width * p <= 256:  # every entry, below width * p, fits a byte
        add = [bytes(range(d * width, 256)) + bytes(range(d * width)) for d in range(p)]
        rows = [
            b"".join(rows[a_lo].translate(add[d]) for d in digit[a_hi])
            for a_hi in range(p)
            for a_lo in range(width)
        ]
        width *= p
    chunks[p] = width, b"".join(rows)
    return chunks[p]


def _held_chunks(ctx, held: int, digit_op) -> tuple[int, bytes]:
    """Hold in ``ctx._chunks[held]``, and return, the (P, table) of op
    ``held`` (0 the digit sum, 1 the product) from its per-prime store,
    built there first if no context has run the op at this p yet.

    The first run of an op on a context comes here, not to code in the
    method, so that the method's frame has no more cells and locals than
    it needs at p = 2 and from p = 17 on, where each one costs every call.
    """
    chunks = (_SUM_CHUNKS, _PRODUCT_CHUNKS)[held]
    entry = chunks.get(ctx.p) or _chunk_table(chunks, ctx.p, digit_op)
    sum_entry, product_entry = ctx._chunks
    ctx._chunks = (sum_entry, entry) if held else (entry, product_entry)
    return entry


def _digitwise(bitwise, digit_op, held: int):
    """The ``PrimeContext`` method applying ``digit_op`` mod p digit by digit.

    At p = 2 it is ``bitwise`` on the residues; at odd p below
    ``_CHUNKED_BELOW`` it reads a chunk of digits per lookup from the table
    the context holds at ``_chunks[held]`` from the op's first run on it
    (``_held_chunks``); from p = 17 on it runs one digit at a time.  The
    three branches sit in the one closure, not in helpers, since a helper
    would cost a frame per op.
    """

    def values(self, x: int, y: int) -> int:
        p = self.p
        if p == 2:
            return bitwise(x, y)
        if p < _CHUNKED_BELOW:
            width, table = self._chunks[held] or _held_chunks(self, held, digit_op)
            if x < width and y < width:
                return table[x * width + y]
            # the low chunk, the middle ones while either operand has more,
            # and the last one below width, where no reduction is needed;
            # entry 0 is 0, so a last (0, 0) chunk adds nothing
            out = table[x % width * width + y % width]
            x //= width
            y //= width
            scale = width
            while x >= width or y >= width:
                out += table[x % width * width + y % width] * scale
                x //= width
                y //= width
                scale *= width
            return out + table[x * width + y] * scale
        out = 0
        scale = 1
        for _ in range(self.precision):
            out += digit_op(x % p, y % p) % p * scale
            x //= p
            y //= p
            scale *= p
        return out

    return values


class PrimeContext:
    """Shared setting (p, K): base prime and number of stored digits.

    Values from different contexts never mix; two contexts compare equal
    iff they agree on both p and K.
    """

    # _chunks: the (P, table) chunk entries of xor_values and and_values,
    # None until that op first runs on the context at an odd p below
    # _CHUNKED_BELOW.  _operands: None until a random-mode homomorphism
    # check first runs on the context, then (seed, array of the operands
    # drawn for that seed so far, the random.Random that drew them, left
    # just past the last one); a check at another seed replaces it.  A copy
    # or a pickle of a context holds neither
    __slots__ = ("p", "precision", "modulus", "_chunks", "_operands")

    def __init__(self, p: int, precision: int):
        for name, value in (("p", p), ("precision", precision)):
            if type(value) is not int:  # bool is an int subclass, float is not exact
                raise ValueError(f"{name} must be an int, got {value!r}")
        if not (2 <= p < 2**16):
            raise ValueError(f"p must satisfy 2 <= p < 2**16, got {p}")
        if not _is_small_prime(p):
            raise ValueError(f"p must be prime, got {p}")
        if not (1 <= precision <= MAX_PRECISION):
            raise ValueError(f"precision must be in [1, {MAX_PRECISION}], got {precision}")
        self.p = p
        self.precision = precision
        self.modulus = p**precision
        self._chunks = (None, None)  # a constant: a new context allocates nothing for it
        self._operands = None

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PrimeContext):
            return self.p == other.p and self.precision == other.precision
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.p, self.precision))

    def __reduce__(self):
        # a copy or a pickle is a new context: it shares and carries nothing held
        return PrimeContext, (self.p, self.precision)

    def __repr__(self) -> str:
        return f"PrimeContext(p={self.p}, precision={self.precision})"

    # -- raw residue helpers (used in table-building hot loops) ----------

    def digits_of(self, value: int) -> tuple[int, ...]:
        """Little-endian base-p digits of a residue, length K."""
        p = self.p
        out = []
        v = value % self.modulus
        for _ in range(self.precision):
            v, r = divmod(v, p)
            out.append(r)
        return tuple(out)

    def value_of(self, digits, field: str = "digits") -> int:
        """Residue encoded by little-endian digits (length <= K); errors name ``field``."""
        if len(digits) > self.precision:
            raise ValueError(f"{field} has {len(digits)} digits, precision is {self.precision}")
        value = 0
        for i, d in enumerate(digits):
            if type(d) is not int or not 0 <= d < self.p:
                raise ValueError(f"{field}[{i}] = {d!r}, expected an int in [0, {self.p})")
            value += d * self.p**i
        return value

    # the base-2 digits are the bits: digit sum mod 2 is XOR, digit product AND
    xor_values = _digitwise(operator.xor, operator.add, 0)
    xor_values.__doc__ = "Digit-wise addition mod p of two residues in [0, p**K) (no carries)."
    and_values = _digitwise(operator.and_, operator.mul, 1)
    and_values.__doc__ = "Digit-wise multiplication mod p of two residues in [0, p**K) (no carries)."

    def valuation_of(self, value: int) -> int | float:
        """Index of the lowest nonzero digit; math.inf for 0 (zero to precision)."""
        v = value % self.modulus
        if v == 0:
            return math.inf
        k = 0
        while v % self.p == 0:
            v //= self.p
            k += 1
        return k

    def units(self):
        """Iterate the residues coprime to p, ascending."""
        for v in range(1, self.modulus):
            if v % self.p != 0:
                yield v

    # -- constructors -----------------------------------------------------

    def integer(self, n: int) -> "PadicInt":
        return PadicInt(self, n)

    def from_digits(self, digits) -> "PadicInt":
        return PadicInt(self, self.value_of(digits))

    def zero(self) -> "PadicInt":
        return PadicInt(self, 0)

    def one(self) -> "PadicInt":
        return PadicInt(self, 1)


class PadicInt:
    """Immutable p-adic integer known exactly modulo p**K."""

    __slots__ = ("ctx", "value")

    def __init__(self, ctx: PrimeContext, value: int):
        if type(value) is not int:  # bools and floats are not residues
            raise ValueError(f"p-adic residue must be an int, got {value!r}")
        self.ctx = ctx
        self.value = value % ctx.modulus

    @property
    def digits(self) -> tuple[int, ...]:
        """The K little-endian base-p digits of the residue."""
        return self.ctx.digits_of(self.value)

    def _value(self, other) -> int:
        """The residue of an operand: a value of this context, or an int mod p**K."""
        if isinstance(other, PadicInt):
            if other.ctx != self.ctx:
                raise ContextMismatch(f"{self.ctx} vs {other.ctx}")
            return other.value
        if not isinstance(other, int):
            raise TypeError(f"p-adic operand must be a PadicInt or an int, got {other!r}")
        return PadicInt(self.ctx, other).value  # a bool raises here

    # -- ring operations ---------------------------------------------------

    def __add__(self, other):
        return PadicInt(self.ctx, self.value + self._value(other))

    __radd__ = __add__

    def __sub__(self, other):
        return PadicInt(self.ctx, self.value - self._value(other))

    def __rsub__(self, other):
        return PadicInt(self.ctx, self._value(other) - self.value)

    def __mul__(self, other):
        return PadicInt(self.ctx, self.value * self._value(other))

    __rmul__ = __mul__

    def __neg__(self):
        return PadicInt(self.ctx, -self.value)

    def __pow__(self, n: int):
        # plain int exponents only; negative allowed for units
        if type(n) is not int:  # bools and floats are not exponents
            raise TypeError(f"exponent must be an int, got {n!r}")
        return PadicInt(self.ctx, pow(self.value, n, self.ctx.modulus))

    # -- carry-free digit-wise operations -----------------------------------

    def __xor__(self, other):
        return PadicInt(self.ctx, self.ctx.xor_values(self.value, self._value(other)))

    def __and__(self, other):
        return PadicInt(self.ctx, self.ctx.and_values(self.value, self._value(other)))

    # -- structure ----------------------------------------------------------

    def valuation(self) -> int | float:
        """Lowest index with a nonzero digit; math.inf when all K digits vanish."""
        return self.ctx.valuation_of(self.value)

    def is_unit(self) -> bool:
        return self.value % self.ctx.p != 0

    def __eq__(self, other: object) -> bool:
        if isinstance(other, PadicInt):
            return self.ctx == other.ctx and self.value == other.value
        if isinstance(other, int):
            return self.value == other % self.ctx.modulus
        return NotImplemented

    def __hash__(self) -> int:
        return hash((self.ctx.p, self.ctx.precision, self.value))

    def __int__(self) -> int:
        return self.value

    def __bool__(self) -> bool:
        return self.value != 0

    def __repr__(self) -> str:
        return f"PadicInt({self.value} = {list(self.digits)} base {self.ctx.p})"

    def to_json(self) -> dict:
        return {"p": self.ctx.p, "K": self.ctx.precision, "digits": list(self.digits)}


def sequence_field(value, field: str, length: int | None = None) -> tuple:
    """A list (or tuple) field as a tuple, of ``length`` items if given."""
    if not isinstance(value, (list, tuple)) or length not in (None, len(value)):
        expected = "a list" if length is None else f"a list of {length}"
        raise ValueError(f"{field} = {value!r}, expected {expected}")
    return tuple(value)


def mapping_field(value, field: str) -> dict:
    """A JSON object field as a dict."""
    if not isinstance(value, dict):
        raise ValueError(f"{field} = {value!r}, expected an object")
    return value


def _json_value(value):
    """A tuple as a list, item by item; a nested record as its to_json(); else the value."""
    if isinstance(value, tuple):
        return list(map(_json_value, value))  # one frame per nesting level
    return value.to_json() if hasattr(value, "to_json") else value


class Record:
    """An immutable record whose fields are its class's own annotated names, in order.

    A class attribute of a field's name is that field's default.  Each
    subclass gets one ``__init__``, compiled when the class is created, that
    takes the fields by position or keyword, sets them and then calls
    ``__post_init__`` where the class has one.  Equality (same class, same
    values), the hash of the values, the repr ``Name(field=value, ...)`` and
    the refusal to assign or delete an attribute are shared.
    """

    _fields: tuple[str, ...] = ()

    def __init_subclass__(cls, **kwargs) -> None:
        super().__init_subclass__(**kwargs)
        # the class's own __dict__: every Python from 3.10 fills it under
        # postponed annotations, and a base's fields are not inherited
        names = tuple(cls.__dict__.get("__annotations__", {}))
        defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
        params = ", ".join(f"{n}=_defaults[{n!r}]" if n in defaults else n for n in names)
        body = "".join(f"\n  _setattr(self, {n!r}, {n})" for n in names)
        if hasattr(cls, "__post_init__"):
            body += "\n  self.__post_init__()"
        namespace: dict = {}
        exec(
            f"def make(_setattr, _defaults):\n def __init__(self, {params}):{body}\n return __init__",
            namespace,
        )
        init = namespace["make"](object.__setattr__, defaults)
        init.__qualname__ = f"{cls.__qualname__}.__init__"
        cls.__init__ = init
        cls._fields = names

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r} of an immutable record")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r} of an immutable record")


def record_to_json(record: Record) -> dict:
    """A Record's fields by name, in declaration order, each through _json_value."""
    return {name: _json_value(getattr(record, name)) for name in record._fields}


def padic_from_json(ctx: PrimeContext, data, field: str) -> PadicInt:
    """Decode JSON field ``field``: a digit dict, or a residue as an int or decimal string.

    A residue lies in [0, p**K).  A string must be ASCII digits with an
    optional leading minus sign, so "1_0", "+3", " 4 " and non-ASCII digits
    are not residues; one with more significant digits than the modulus is
    refused before int() reads it.  A digit object holds ``digits``, a list
    of at most K ints in [0, p); its ``p`` and ``K``, where given, must be
    the context's ints.
    """
    if isinstance(data, dict):
        for key, expected in (("p", ctx.p), ("K", ctx.precision)):
            value = data.get(key, expected)
            if type(value) is not int or value != expected:  # bools and floats too
                raise ContextMismatch(f"{field}.{key} = {value!r}, expected {expected}")
        digits = sequence_field(data["digits"], f"{field}.digits")
        return ctx.integer(ctx.value_of(digits, f"{field}.digits"))
    residue = f"a residue in [0, {ctx.modulus})"
    decimal = isinstance(data, str) and re.fullmatch("(-?)0*([0-9]+)", data)
    if decimal:
        sign, digits = decimal.groups()
        if len(digits) > len(str(ctx.modulus)):
            raise ValueError(f"{field} has {len(digits)} digits, expected {residue}")
        data = int(sign + digits)
    if type(data) is not int:  # bools, floats and other strings
        raise ValueError(f"{field} = {data!r}, expected {residue} or a digit object")
    if not (0 <= data < ctx.modulus):
        raise ValueError(f"{field} = {data}, expected {residue}")
    return ctx.integer(data)


# ---------------------------------------------------------------------------
# units: inverse, Teichmueller lift, unit decomposition
# ---------------------------------------------------------------------------


def inverse_unit(x: PadicInt) -> PadicInt:
    """Multiplicative inverse modulo p**K; requires a unit."""
    if not x.is_unit():
        raise ValueError(f"{x!r} is not a unit (divisible by {x.ctx.p})")
    return PadicInt(x.ctx, pow(x.value, -1, x.ctx.modulus))


def teichmuller(u: PadicInt) -> PadicInt:
    """The (p-1)-th root of unity congruent to u mod p.

    u**(p**K), the K-fold iterate of z -> z**p: each step gains at least
    one digit of agreement with the root, so K steps pin it down modulo
    p**K.
    """
    if not u.is_unit():
        raise ValueError(f"{u!r} is not a unit")
    ctx = u.ctx
    return PadicInt(ctx, pow(u.value, ctx.modulus, ctx.modulus))


class UnitDecomposition(Record):
    """x = p**valuation * theta * one_plus_pt with theta torsion, 1+pt principal."""

    valuation: int
    theta: PadicInt
    one_plus_pt: PadicInt
    t: PadicInt

    def recompose(self) -> PadicInt:
        ctx = self.theta.ctx
        return PadicInt(
            ctx, ctx.p**self.valuation * self.theta.value * self.one_plus_pt.value
        )


def unit_decompose(x: PadicInt) -> UnitDecomposition:
    """Split a nonzero value into p-power, Teichmueller and principal-unit parts.

    The unit factors are only observable modulo p**(K - valuation); they are
    stored at full context precision with the unobservable digits following
    from the canonical residue.
    """
    if x.value == 0:
        raise ValueError("cannot decompose zero (zero to precision)")
    ctx = x.ctx
    k = x.valuation()
    unit = ctx.integer(x.value // ctx.p**k)
    theta = teichmuller(unit)
    one_plus_pt = unit * inverse_unit(theta)
    t = ctx.integer((one_plus_pt.value - 1) // ctx.p)
    return UnitDecomposition(valuation=k, theta=theta, one_plus_pt=one_plus_pt, t=t)


# ---------------------------------------------------------------------------
# truncated-series kernel: exp / ln; powers of principal units
# ---------------------------------------------------------------------------


def _series(ctx: PrimeContext, x: int, coefficients: list[int], denominator: int) -> int:
    """sum c_n x**n / denominator modulo p**K, the c_n from the top degree down.

    Requires the sum to be p-integral.  Horner runs modulo p**(K+e), e =
    v_p(denominator); the numerator sum is then denominator times a p-adic
    integer, so p**e divides it, and one exact division and one inverse of
    the unit denominator / p**e leave the value modulo p**K.
    """
    shift = 1
    while denominator % ctx.p == 0:
        denominator //= ctx.p
        shift *= ctx.p
    modulus = ctx.modulus * shift
    acc = 0
    for c in coefficients:
        acc = (acc * x + c) % modulus
    return acc // shift * pow(denominator, -1, ctx.modulus) % ctx.modulus


def exp_p(t: PadicInt) -> PadicInt:
    """Exponential series sum t**n / n!, exact modulo p**K on its domain.

    Requires valuation(t) >= 1 for odd p and >= 2 for p = 2.  The series is
    cut at the first N where n*v_min - (n-1)/(p-1) >= K; that lower bound on
    the term valuation (via Legendre's count of p in n!) is increasing in n,
    so every omitted term vanishes modulo p**K.  The kept terms are summed as
    sum (N!/n!) t**n over N!: every term t**n/n! is a p-adic integer on the
    domain, so p**v_p(N!) divides the numerator sum and ``_series`` divides
    it out exactly.
    """
    ctx = t.ctx
    # convergence domain of the exponential series: v >= 1 (p odd), v >= 2 (p = 2)
    vmin = 2 if ctx.p == 2 else 1
    v = t.valuation()
    if v < vmin:
        raise ValueError(f"exp needs valuation >= {vmin} for p={ctx.p}, got {v}")
    # term n is kept while n*vmin*(p-1) - (n-1) < K*(p-1), scaled by p-1 to
    # stay in Z: n*step <= K*(p-1) - 2 with step >= 1, and at (2, 1) only n = 0
    step = vmin * (ctx.p - 1) - 1
    last = max(0, (ctx.precision * (ctx.p - 1) - 2) // step)
    # N!/n! for n = N down to 0: 1, N, N(N-1), ..., N!
    coefficients = list(itertools.accumulate(range(last, 0, -1), operator.mul, initial=1))
    return PadicInt(ctx, _series(ctx, t.value, coefficients, coefficients[-1]))


def ln_p(x: PadicInt) -> PadicInt:
    """Logarithm series of 1+z, exact modulo p**K on its domain.

    Requires x = 1 mod p for odd p and x = 1 mod 4 for p = 2.  Terms are
    (-1)**(n+1) z**n / n; the cut point is the first n >= 2 with
    n*v(z) - log_p(n) >= K, past which every term valuation stays >= K.
    The kept terms are summed as sum (+-D/n) z**n over D = lcm(1..N): every
    term z**n/n is a p-adic integer on the domain, so p**v_p(D) divides the
    numerator sum and ``_series`` divides it out exactly.
    """
    ctx = x.ctx
    z = x.value - 1
    if ctx.p == 2:
        if x.value % 4 != 1:
            raise ValueError(f"ln at p=2 needs x = 1 mod 4, got {x.value}")
    elif z % ctx.p != 0:
        raise ValueError(f"ln needs x = 1 mod {ctx.p}, got {x.value}")
    if z == 0:
        return ctx.zero()
    v = ctx.valuation_of(z)
    cut = 2
    # cut at the first n >= 2 with n*v - log_p(n) >= K (the bound is monotone from 2)
    while cut * v < ctx.precision or ctx.p ** (cut * v - ctx.precision) < cut:
        cut += 1
    denominator = math.lcm(*range(1, cut))
    coefficients = [(denominator // n if n % 2 else -denominator // n) for n in range(cut - 1, 0, -1)]
    return PadicInt(ctx, _series(ctx, z, coefficients + [0], denominator))


def pow_unit(x: PadicInt, exponent: "PadicInt | int") -> PadicInt:
    """(1 + pt)**a for a p-adic (or plain integer) exponent a.

    Requires x = 1 mod p.  The exponent is read as an operand of x, so a
    plain int, negative ones included, is reduced mod p**K.  That is exact:
    mod p**K the principal units form a group of order p**(K-1), which
    divides p**K, so the power depends only on a mod p**(K-1), and builtin
    pow on the residues is exact on every principal unit (1+2t with t odd
    at p = 2 included).
    """
    ctx = x.ctx
    if (x.value - 1) % ctx.p != 0:
        raise ValueError(f"pow_unit needs x = 1 mod {ctx.p}, got {x.value}")
    return PadicInt(ctx, pow(x.value, x._value(exponent), ctx.modulus))
