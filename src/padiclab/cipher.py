"""Finite words over {0..p-1}, position-wise ciphers, and homomorphic demos.

Words of length k encode as residues mod p**k (symbol 0 is the units
digit), which transports the ring and digit-wise operations to words.  The
three cipher kinds act symbol by symbol -- a fixed alphabet permutation, an
independent permutation per position, or a shift by a running key symbol --
so encrypting a prefix always equals the prefix of the encryption, and each
cipher induces an invertible tower-compatible model map at any precision
its key covers.

``homomorphic_eval`` runs a formula over encrypted inputs and compares with
encrypting the plain result: the sides agree exactly when the model map is
a homomorphism for every operation the formula uses, and the demo record
keeps both sides as evidence either way.
"""

from __future__ import annotations

from dataclasses import dataclass

from .core import (
    PrimeContext,
    _is_small_prime,
    _json_value,
    mapping_field,
    record_to_json,
    sequence_field,
)
from .lipschitz import LipschitzFn, _assemble, _check_table_size
from .automorph import Operation, operation_by_name


def _check_symbols(p: int, symbols: tuple, field: str) -> None:
    """A prime int alphabet size below 2**16, and every symbol an int in [0, p)."""
    if type(p) is int and p >= 2**16:  # refused before trial division, as PrimeContext does
        raise ValueError(f"alphabet size must be below 2**16, got {p}")
    if type(p) is not int or p < 2 or not _is_small_prime(p):  # bools and floats are not ints here
        raise ValueError(f"alphabet size must be a prime int, got {p!r}")
    for i, s in enumerate(symbols):
        if type(s) is not int or not 0 <= s < p:
            raise ValueError(f"{field}[{i}] = {s!r}, expected an int in [0, {p})")


@dataclass(frozen=True)
class Word:
    """Finite word over the alphabet {0, ..., p-1}; symbol 0 is the units digit."""

    p: int
    symbols: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "symbols", sequence_field(self.symbols, "symbols"))
        _check_symbols(self.p, self.symbols, "symbols")
        if len(self.symbols) < 1:
            raise ValueError("words have length >= 1")

    def __len__(self) -> int:
        return len(self.symbols)

    def prefix(self, length: int) -> "Word":
        if type(length) is not int:  # bools are not lengths
            raise ValueError(f"prefix length must be an int, got {length!r}")
        if not (1 <= length <= len(self.symbols)):
            raise ValueError(f"prefix length {length} outside [1, {len(self.symbols)}]")
        return Word(self.p, self.symbols[:length])

    to_json = record_to_json


def word_from_json(data: dict) -> Word:
    data = mapping_field(data, "word")
    return Word(data["p"], data["symbols"])


def tau(word: Word) -> int:
    """Positional encoding: sum of symbol_i * p**i."""
    value = 0
    for i, s in enumerate(word.symbols):
        value += s * word.p**i
    return value


def tau_inverse(value: int, length: int, p: int) -> Word:
    """Decode a residue in [0, p**length) into a word of that length."""
    for name, n in (("value", value), ("length", length)):
        if type(n) is not int:  # bools are not residues or lengths
            raise ValueError(f"{name} must be an int, got {n!r}")
    if not (0 <= value < p**length):
        raise ValueError(f"value {value} outside [0, {p**length})")
    symbols = []
    for _ in range(length):
        value, r = divmod(value, p)
        symbols.append(r)
    return Word(p, tuple(symbols))


def word_op(x: Word, y: Word, op: "Operation | str") -> Word:
    """Transport an operation mod p**k to equal-length words through tau."""
    if x.p != y.p:
        raise ValueError(f"alphabet mismatch: {x.p} vs {y.p}")
    if len(x) != len(y):
        raise ValueError(f"length mismatch: {len(x)} vs {len(y)}")
    op = operation_by_name(op)
    ctx = PrimeContext(x.p, len(x))
    return tau_inverse(op.apply(ctx, tau(x), tau(y)), len(x), x.p)


# ---------------------------------------------------------------------------
# keys
# ---------------------------------------------------------------------------


def _check_permutation(p: int, table, field: str) -> tuple[int, ...]:
    table = sequence_field(table, field)
    _check_symbols(p, table, field)
    if len(table) != p or len(set(table)) != p:
        raise ValueError(f"{field} is not a permutation of [0, {p})")
    return table


@dataclass(frozen=True)
class SubstitutionKey:
    """One alphabet permutation applied at every position."""

    p: int
    table: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "table", _check_permutation(self.p, self.table, "g"))

    kind = "subst"

    def covers(self, length: int) -> bool:
        return True

    def symbol(self, position: int, s: int) -> int:
        return self.table[s]

    def inverse_symbol(self, position: int, s: int) -> int:
        return self.table.index(s)

    def to_json(self) -> dict:
        return {"kind": self.kind, "p": self.p, "g": list(self.table)}


@dataclass(frozen=True)
class SubstitutionStreamKey:
    """An independent alphabet permutation for each position."""

    p: int
    tables: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(
            self,
            "tables",
            tuple(
                _check_permutation(self.p, t, f"gs[{i}]")
                for i, t in enumerate(sequence_field(self.tables, "gs"))
            ),
        )
        if not self.tables:
            raise ValueError("need at least one permutation")

    kind = "subst_stream"

    def covers(self, length: int) -> bool:
        return length <= len(self.tables)

    def symbol(self, position: int, s: int) -> int:
        return self.tables[position][s]

    def inverse_symbol(self, position: int, s: int) -> int:
        return self.tables[position].index(s)

    def to_json(self) -> dict:
        return {"kind": self.kind, "p": self.p, "gs": [list(t) for t in self.tables]}


@dataclass(frozen=True)
class KeystreamKey:
    """Shift each symbol by a key symbol, mod p."""

    p: int
    gamma: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "gamma", sequence_field(self.gamma, "gamma"))
        if not self.gamma:
            raise ValueError("need at least one key symbol")
        _check_symbols(self.p, self.gamma, "gamma")

    kind = "keystream"

    def covers(self, length: int) -> bool:
        return length <= len(self.gamma)

    def symbol(self, position: int, s: int) -> int:
        return (s + self.gamma[position]) % self.p

    def inverse_symbol(self, position: int, s: int) -> int:
        return (s - self.gamma[position]) % self.p

    def to_json(self) -> dict:
        return {"kind": self.kind, "p": self.p, "gamma": list(self.gamma)}


CipherKey = SubstitutionKey | SubstitutionStreamKey | KeystreamKey


def key_from_json(data: dict) -> CipherKey:
    data = mapping_field(data, "key")
    kind = data.get("kind")
    if kind == "subst":
        return SubstitutionKey(data["p"], data["g"])
    if kind == "subst_stream":
        return SubstitutionStreamKey(data["p"], data["gs"])
    if kind == "keystream":
        return KeystreamKey(data["p"], data["gamma"])
    raise ValueError(f"unknown key kind {kind!r}")


def _require_key(key: CipherKey) -> None:
    if not isinstance(key, CipherKey):
        raise ValueError(f"key must be a cipher key, got {key!r}")


def _check_key(word: Word, key: CipherKey) -> None:
    _require_key(key)
    if word.p != key.p:
        raise ValueError(f"alphabet mismatch: word {word.p}, key {key.p}")
    if not key.covers(len(word)):
        raise ValueError(f"{key.kind} key does not cover {len(word)} positions")


def encrypt(word: Word, key: CipherKey) -> Word:
    _check_key(word, key)
    return Word(word.p, tuple(key.symbol(i, s) for i, s in enumerate(word.symbols)))


def decrypt(word: Word, key: CipherKey) -> Word:
    _check_key(word, key)
    return Word(
        word.p, tuple(key.inverse_symbol(i, s) for i, s in enumerate(word.symbols))
    )


def model_fn(key: CipherKey, ctx: PrimeContext) -> LipschitzFn:
    """The map on Z/p**K induced by encrypting K-symbol words.

    Position-wise action makes it tower compatible, and permutations per
    symbol make it invertible.  The symbol map at position k is the digit
    map at level k for every prefix, so the table is assembled from flat
    levels in O(p**K), as the random generators do; the key was checked
    when it was built, so its symbols need no second check.
    """
    _check_table_size(ctx)
    _require_key(key)
    if key.p != ctx.p:
        raise ValueError(f"alphabet mismatch: key {key.p}, context {ctx.p}")
    if not key.covers(ctx.precision):
        raise ValueError(f"key does not cover {ctx.precision} positions")
    p = ctx.p
    levels = ([key.symbol(k, s) for s in range(p)] * p**k for k in range(ctx.precision))
    return LipschitzFn._trusted(ctx, _assemble(p, levels), provenance=f"cipher:{key.kind}")


# ---------------------------------------------------------------------------
# formulas over words and the homomorphic-evaluation demo
# ---------------------------------------------------------------------------


def parse_formula(nested) -> tuple:
    """Check ["xor", ["leaf", 0], ["leaf", 1]]-style nested arrays.

    Returns the same nested form as tuples: ("leaf", index) or
    (op, left, right).
    """
    if not isinstance(nested, (list, tuple)) or not nested:
        raise ValueError(f"malformed formula node: {nested!r}")
    head = nested[0]
    if head == "leaf":
        if len(nested) != 2 or type(nested[1]) is not int:
            raise ValueError(f"leaf takes one int index: {nested!r}")
        return ("leaf", nested[1])
    if len(nested) != 3:
        raise ValueError(f"operation node takes two children: {nested!r}")
    operation_by_name(head)  # validates the name
    return (head, parse_formula(nested[1]), parse_formula(nested[2]))


def formula_to_json(tree: tuple) -> list:
    return _json_value(tree)


def formula_ops(tree: tuple) -> set[str]:
    if tree[0] == "leaf":
        return set()
    return {tree[0]} | formula_ops(tree[1]) | formula_ops(tree[2])


def eval_formula(tree: tuple, data: list[Word]) -> Word:
    if tree[0] == "leaf":
        if not (0 <= tree[1] < len(data)):
            raise ValueError(f"leaf index {tree[1]} outside the data list")
        return data[tree[1]]
    op, left, right = tree
    return word_op(eval_formula(left, data), eval_formula(right, data), op)


@dataclass(frozen=True)
class HomomorphicDemo:
    """Both evaluation routes and the verdict, never a bare boolean.

    ``encrypted_plain_result`` is the formula evaluated on plaintext and then
    encrypted; ``cipher_result`` is the formula evaluated on the encrypted
    inputs.  ``mismatch_positions`` lists the symbol positions where the two
    sides differ.
    """

    formula: tuple
    plain_result: Word
    encrypted_plain_result: Word
    encrypted_inputs: tuple[Word, ...]
    cipher_result: Word
    equal: bool
    mismatch_positions: tuple[int, ...]

    to_json = record_to_json


def homomorphic_eval(
    formula: tuple, data: list[Word], key: CipherKey
) -> HomomorphicDemo:
    """Compare computing-then-encrypting against computing on ciphertexts."""
    if not data:
        raise ValueError("need at least one data word")
    length = len(data[0])
    for w in data:
        if len(w) != length:
            raise ValueError("all data words must have the same length")
    plain = eval_formula(formula, data)
    encrypted_plain = encrypt(plain, key)
    encrypted_inputs = tuple(encrypt(w, key) for w in data)
    cipher_side = eval_formula(formula, list(encrypted_inputs))
    mismatches = tuple(
        i
        for i, (a, b) in enumerate(zip(encrypted_plain.symbols, cipher_side.symbols))
        if a != b
    )
    return HomomorphicDemo(
        formula=formula,
        plain_result=plain,
        encrypted_plain_result=encrypted_plain,
        encrypted_inputs=encrypted_inputs,
        cipher_result=cipher_side,
        equal=not mismatches,
        mismatch_positions=mismatches,
    )
