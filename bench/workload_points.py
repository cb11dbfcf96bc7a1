"""`points`: a seeded stream of single-value queries, no big tables, no oracle.

``core``'s series kernels and per-object overhead do the work.  A small
share of ``padiclab eval`` calls (which today build the whole table) and of
malformed CLI inputs ride along.  The mix per pass is fixed; the seed picks
the operands and the order.  One oversized ``eval`` runs after the timed
passes in a child process under an address-space limit.
"""

from __future__ import annotations

import json
import math
import random
import resource
import subprocess
import sys

import reference as ref
from measure import Op, Workload, cli_call, cli_outcome

CONTEXTS = [(2, 32), (3, 20), (5, 13), (65521, 2)]
EVAL_CONTEXTS = [(3, 8), (2, 12)]
SMOKE_EVAL_CONTEXTS = [(3, 3), (2, 4)]
PER_KIND = 40  # core queries of each kind per context per pass
SMOKE_PER_KIND = 3
CIPHER_PER_KIND = 10  # encrypt, decrypt and homomorphic_eval per context per pass
EVALS_PER_FAMILY = 1  # eval calls per family per eval context per pass
WORD_LENGTH = 64
FORMULA_WORD_LENGTH = 32  # homomorphic_eval works at precision = word length, capped at 32

# the oversized case of ROADMAP item 3; run in a child process only
OVERSIZED_ARGV = ["eval", "--p", "65521", "--K", "32", "--spec", '{"family":"add","A":"3"}', "--x", "2"]
CHILD_ADDRESS_SPACE = 512 * 2**20
CHILD_TIMEOUT_S = 90


def _expect(value):
    def check(result, exc):
        if exc is not None:
            return f"raised {exc!r}"
        return None if result == value else f"got {result}, expected {value}"

    return check


def _padic_check(value: int, p: int, K: int):
    """Right residue, and digits consistent with it."""

    def check(result, exc):
        if exc is not None:
            return f"raised {exc!r}"
        if result.value != value:
            return f"got {result.value}, expected {value}"
        return None if list(result.digits) == ref.digits(value, p, K) else "digits disagree with value"

    return check


def _core_ops(pl, rng, ctx, per_kind: int) -> list[Op]:
    p, K, m = ctx.p, ctx.precision, ctx.modulus
    tag = f"({p},{K})"
    principal_step = 4 if p == 2 else p  # exp/ln need x = 1 mod 4 at p = 2

    def unit() -> int:
        while True:
            v = rng.randrange(1, m)
            if v % p:
                return v

    def check(v):
        return _padic_check(v, p, K)

    coprime = [s for s in range(1, min(p, 512)) if math.gcd(s, p - 1) == 1]
    ops = []
    for _ in range(per_kind):
        a, b = rng.randrange(m), rng.randrange(m)
        x, y = ctx.integer(a), ctx.integer(b)
        e = rng.randrange(2**16)
        u = unit()
        unit_x = ctx.integer(u)
        nonzero = ctx.integer(rng.randrange(1, m))
        principal = ctx.integer((1 + principal_step * rng.randrange(m)) % m)
        any_principal = ctx.integer((1 + p * rng.randrange(m)) % m)
        exponent = ctx.integer(rng.randrange(m))
        plain = rng.randrange(10**6)
        ops += [
            Op(f"add{tag}", lambda x=x, y=y: x + y, check((a + b) % m)),
            Op(f"sub{tag}", lambda x=x, y=y: x - y, check((a - b) % m)),
            Op(f"mul{tag}", lambda x=x, y=y: x * y, check(a * b % m)),
            Op(f"pow{tag}", lambda x=x, e=e: x**e, check(pow(a, e, m))),
            Op(f"xor{tag}", lambda x=x, y=y: x ^ y, check(ref.xor_value(a, b, p, K))),
            Op(f"and{tag}", lambda x=x, y=y: x & y, check(ref.and_value(a, b, p, K))),
            Op(f"inverse_unit{tag}", lambda v=unit_x: pl.inverse_unit(v), check(pow(u, -1, m))),
            Op(
                f"unit_decompose{tag}",
                lambda v=nonzero: pl.unit_decompose(v).recompose(),
                check(nonzero.value),
            ),
            Op(f"exp_ln{tag}", lambda v=principal: pl.exp_p(pl.ln_p(v)), check(principal.value)),
            Op(
                f"pow_unit_padic{tag}",
                lambda v=any_principal, w=exponent: pl.pow_unit(v, w),
                check(pow(any_principal.value, exponent.value, m)),
            ),
            Op(
                f"pow_unit_int{tag}",
                lambda v=any_principal, w=plain: pl.pow_unit(v, w),
                check(pow(any_principal.value, plain, m)),
            ),
            _compose_mul_op(pl, rng, ctx, unit, coprime),
        ]
    return ops


def _compose_mul_op(pl, rng, ctx, unit, coprime) -> Op:
    p, K = ctx.p, ctx.precision
    lhs = (rng.choice(coprime), unit(), unit())
    rhs = (rng.choice(coprime), unit(), unit())
    points = [rng.randrange(ctx.modulus) for _ in range(2)]
    lhs_spec = pl.MulSpec(lhs[0], ctx.integer(lhs[1]), ctx.integer(lhs[2]))
    rhs_spec = pl.MulSpec(rhs[0], ctx.integer(rhs[1]), ctx.integer(rhs[2]))

    def check(result, exc):
        if exc is not None:
            return f"raised {exc!r}"
        for x in points:
            composite = ref.mul_point(result.s, result.a.value, result.A.value, x, p, K)
            chained = ref.mul_point(*lhs, ref.mul_point(*rhs, x, p, K), p, K)
            if composite != chained:
                return f"composite disagrees with lhs(rhs(x)) at x={x}"
        return None

    return Op(f"compose_mul({p},{K})", lambda: pl.compose_mul(lhs_spec, rhs_spec), check)


def cipher_key(pl, rng, p: int, length: int, kind: str):
    """A seeded key of the given kind and its symbol map."""
    if kind == "subst":
        table = rng.sample(range(p), p)
        return pl.SubstitutionKey(p, table), lambda i, s: table[s]
    if kind == "keystream":
        gamma = [rng.randrange(p) for _ in range(length)]
        return pl.KeystreamKey(p, gamma), lambda i, s: (s + gamma[i]) % p
    if kind == "linear_stream":  # digit scalings commute with digit-wise addition
        tables = [[c * s % p for s in range(p)] for c in (rng.randrange(1, p) for _ in range(length))]
    else:
        tables = [rng.sample(range(p), p) for _ in range(length)]
    return pl.SubstitutionStreamKey(p, tables), lambda i, s: tables[i][s]


def _key_kinds(p: int, *, linear: bool) -> list[str]:
    """Per-position tables only for small alphabets, where they stay small."""
    if p > 5:
        return ["subst", "keystream"]
    return ["subst", "subst_stream", "keystream"] + (["linear_stream"] if linear else [])


def _random_formula(rng, leaves: int, words: int):
    if leaves == 1:
        return ["leaf", rng.randrange(words)]
    left = rng.randrange(1, leaves)
    return ["xor", _random_formula(rng, left, words), _random_formula(rng, leaves - left, words)]


def _formula_leaves(tree) -> list[int]:
    if tree[0] == "leaf":
        return [tree[1]]
    return _formula_leaves(tree[1]) + _formula_leaves(tree[2])


def _cipher_ops(pl, rng, p: int) -> list[Op]:
    word_keys = [cipher_key(pl, rng, p, WORD_LENGTH, kind) for kind in _key_kinds(p, linear=False)]
    formula_keys = [
        cipher_key(pl, rng, p, FORMULA_WORD_LENGTH, kind) for kind in _key_kinds(p, linear=True)
    ]
    ops = []
    for i in range(CIPHER_PER_KIND):
        # every key kind in a fixed share: their costs differ by 1000x at p = 65521
        key, symbol = word_keys[i % len(word_keys)]
        plain = [rng.randrange(p) for _ in range(WORD_LENGTH)]
        cipher = [symbol(i, s) for i, s in enumerate(plain)]
        plain_word, cipher_word = pl.Word(p, plain), pl.Word(p, cipher)
        ops += [
            Op(f"encrypt({p})", lambda w=plain_word, k=key: pl.encrypt(w, k), _expect(cipher_word)),
            Op(f"decrypt({p})", lambda w=cipher_word, k=key: pl.decrypt(w, k), _expect(plain_word)),
            _homomorphic_op(pl, rng, p, *formula_keys[i % len(formula_keys)]),
        ]
    return ops


def _homomorphic_op(pl, rng, p: int, key, symbol) -> Op:
    """Xor formulas over encrypted words; the reference predicts the verdict.

    A linear per-position key always commutes with xor; a keystream key
    does exactly where (leaves - 1) * gamma = 0 mod p.
    """
    words = [[rng.randrange(p) for _ in range(FORMULA_WORD_LENGTH)] for _ in range(3)]
    tree_json = _random_formula(rng, rng.randrange(1, 7), len(words))
    tree = pl.parse_formula(tree_json)
    data = [pl.Word(p, w) for w in words]
    leaves = _formula_leaves(tree_json)
    mismatches = []
    for i in range(FORMULA_WORD_LENGTH):
        plain = sum(words[j][i] for j in leaves) % p
        cipher_side = sum(symbol(i, words[j][i]) for j in leaves) % p
        if symbol(i, plain) != cipher_side:
            mismatches.append(i)

    def check(demo, exc):
        if exc is not None:
            return f"raised {exc!r}"
        if demo.equal != (not mismatches) or list(demo.mismatch_positions) != mismatches:
            return f"verdict {demo.equal} at {demo.mismatch_positions}, reference {mismatches}"
        return None

    return Op(f"homomorphic_eval({p})", lambda: pl.homomorphic_eval(tree, data, key), check)


def _eval_op(pl, rng, p: int, K: int, family: str) -> Op:
    spec = ref.random_family_spec(rng, family, p, K)
    x = rng.randrange(p**K)
    argv = ["eval", "--p", str(p), "--K", str(K), "--spec", json.dumps(spec), "--x", str(x)]
    expected = ref.family_point(spec, x, p, K)

    def check(result, exc):
        if exc is not None:
            return f"raised {exc!r}"
        rc, out, err = result
        if rc != 0 or err:
            return f"exit {rc}, stderr {err!r}"
        data = json.loads(out)
        if data["value"] != expected or data["digits"] != ref.digits(expected, p, K):
            return f"value {data['value']}, closed form {expected}"
        return None

    return Op(f"eval({p},{K})", lambda: cli_call(pl, argv), check)


def malformed_argvs() -> list[list[str]]:
    """The malformed inputs of ROADMAP item 3 that run safely in-process."""
    deep = '["xor",' * 1500 + '["leaf",0]' + ',["leaf",0]]' * 1500
    return [
        ["check", "--in", '{"p":2,"K":1,"table":[0.5,1]}'],
        ["vdp", "--inverse", "--in", '{"p":2,"K":1,"B":[0.5,1]}'],
        ["check", "--in", '{"p":2,"K":1,"table":[true,false]}'],
        ["check", "--in", '{"p":"3","K":1,"table":[0,1,2]}'],
        ["check", "--in", '{"p":3,"K":1,"table":null}'],
        ["check", "--in", "[0,1,2]"],
        [
            "cipher", "demo", "--key", '{"kind":"keystream","p":2,"gamma":[1]}',
            "--formula", deep, "--data", '[{"p":2,"symbols":[1]}]',
        ],
    ]


def _limit_child() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


def oversized_probe(root) -> str:
    """`padiclab eval` at 65521**32 in a child under an address-space limit."""
    code = "import sys; sys.path.insert(0, sys.argv[1]); from padiclab.cli import main; sys.exit(main(sys.argv[2:]))"
    try:
        done = subprocess.run(
            [sys.executable, "-c", code, str(root / "src"), *OVERSIZED_ARGV],
            cwd=root,
            preexec_fn=_limit_child,
            capture_output=True,
            text=True,
            timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return "wrong"
    if "Traceback" in done.stderr:
        return "escaped"
    return cli_outcome((done.returncode, done.stdout, done.stderr), None)


def build(pl, seed: int, smoke: bool, workdir) -> Workload:
    rng = random.Random(seed)
    ops: list[Op] = []
    for p, K in CONTEXTS:
        ctx = pl.PrimeContext(p, K)
        ops += _core_ops(pl, rng, ctx, SMOKE_PER_KIND if smoke else PER_KIND)
        ops += _cipher_ops(pl, rng, p)
    for p, K in SMOKE_EVAL_CONTEXTS if smoke else EVAL_CONTEXTS:
        for family in ("add", "mul", "xor", "and"):
            ops += [_eval_op(pl, rng, p, K, family) for _ in range(EVALS_PER_FAMILY)]
    ops += [
        Op(f"malformed:{argv[0]}", lambda argv=argv: cli_call(pl, argv), cli_outcome, probe=True)
        for argv in malformed_argvs()
    ]
    rng.shuffle(ops)
    root = workdir.parent
    return Workload(ops, finish=lambda: [oversized_probe(root)])
