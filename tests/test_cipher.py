"""Tests for words, position-wise ciphers, model maps, and the homomorphic demo."""

import random

import pytest

from padiclab import (
    KeystreamKey,
    PrimeContext,
    SubstitutionKey,
    SubstitutionStreamKey,
    Word,
    XorSpec,
    decrypt,
    encrypt,
    eval_formula,
    formula_ops,
    formula_to_json,
    homomorphic_eval,
    is_homomorphism,
    key_from_json,
    model_fn,
    operation_by_name,
    parse_formula,
    preserves_measure_coord,
    preserves_measure_vdp,
    realize,
    tau,
    tau_inverse,
    word_from_json,
    word_op,
)


def test_tau_examples():
    assert tau(Word(3, (1, 2))) == 7
    assert tau(Word(2, (0, 0, 1))) == 4
    assert tau_inverse(7, 2, 3) == Word(3, (1, 2))


def test_tau_inverse_range_check():
    with pytest.raises(ValueError):
        tau_inverse(9, 2, 3)


def test_word_validation():
    with pytest.raises(ValueError):
        Word(3, (3,))
    with pytest.raises(ValueError):
        Word(3, ())
    with pytest.raises(ValueError):
        Word(4, (1,))


@pytest.mark.parametrize("p", [65537, 2**61 - 1])
def test_alphabet_of_2_16_or_more_is_refused_before_trial_division(p):
    # both are prime; trial division alone would take minutes at 2**61 - 1
    message = rf"^alphabet size must be below 2\*\*16, got {p}$"
    with pytest.raises(ValueError, match=message):
        word_from_json({"p": p, "symbols": [1]})
    with pytest.raises(ValueError, match=message):
        key_from_json({"kind": "subst", "p": p, "g": [0, 1]})


@pytest.mark.parametrize(
    "make,message",
    [
        (lambda: Word(3, (True, 1)), "symbols[0] = True, expected an int in [0, 3)"),
        (lambda: Word(3, (2, 1.0)), "symbols[1] = 1.0, expected an int in [0, 3)"),
        (lambda: Word(3.0, (2, 1)), "alphabet size must be a prime int, got 3.0"),
        (lambda: Word(-3, (0,)), "alphabet size must be a prime int, got -3"),
        (lambda: KeystreamKey(3, (1, False)), "gamma[1] = False, expected an int in [0, 3)"),
        (lambda: KeystreamKey(3.0, (1, 0)), "alphabet size must be a prime int, got 3.0"),
        (lambda: SubstitutionKey(3, (2.0, 0, 1)), "g[0] = 2.0, expected an int in [0, 3)"),
        (lambda: SubstitutionKey(3, (2, 0)), "g is not a permutation of [0, 3)"),
        (
            lambda: SubstitutionStreamKey(3, ((0, 1, 2), (0, True, 2))),
            "gs[1][1] = True, expected an int in [0, 3)",
        ),
        (lambda: parse_formula(["leaf", 0.7]), "leaf takes one int index: ['leaf', 0.7]"),
        # wrong shapes, where a list is expected
        (lambda: key_from_json({"kind": "subst_stream", "p": 3, "gs": [1, 2]}), "gs[0] = 1, expected a list"),
        (lambda: key_from_json({"kind": "keystream", "p": 3, "gamma": 5}), "gamma = 5, expected a list"),
        (lambda: key_from_json({"kind": "subst", "p": 3, "g": 7}), "g = 7, expected a list"),
        (lambda: word_from_json({"p": 3, "symbols": 4}), "symbols = 4, expected a list"),
    ],
)
def test_bools_and_floats_are_not_symbols(make, message):
    # True == 1 and 1.0 == 1 pass a range check, so the type is checked first
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_word_op_examples():
    assert word_op(Word(3, (1, 2)), Word(3, (2, 0)), "plus") == Word(3, (0, 0))
    x = Word(5, (3, 1, 4))
    zero = Word(5, (0, 0, 0))
    assert word_op(x, zero, "xor") == x
    assert word_op(Word(2, (1, 1)), Word(2, (1, 0)), "and") == Word(2, (1, 0))


def test_word_op_length_mismatch():
    with pytest.raises(ValueError):
        word_op(Word(3, (1,)), Word(3, (1, 2)), "plus")


def test_word_op_agrees_with_residue_ops():
    rng = random.Random(4)
    for name in ("plus", "times", "xor", "and"):
        op = operation_by_name(name)
        for _ in range(100):
            p = rng.choice([2, 3, 5])
            k = rng.randrange(1, 5)
            ctx = PrimeContext(p, k)
            x, y = rng.randrange(p**k), rng.randrange(p**k)
            word = word_op(tau_inverse(x, k, p), tau_inverse(y, k, p), op)
            assert tau(word) == op.apply(ctx, x, y)


# ---------------------------------------------------------------------------
# the three cipher kinds
# ---------------------------------------------------------------------------


def _random_key(rng, kind, p, length):
    if kind == "keystream":
        return KeystreamKey(p, tuple(rng.randrange(p) for _ in range(length)))
    if kind == "subst":
        perm = list(range(p))
        rng.shuffle(perm)
        return SubstitutionKey(p, tuple(perm))
    tables = []
    for _ in range(length):
        perm = list(range(p))
        rng.shuffle(perm)
        tables.append(tuple(perm))
    return SubstitutionStreamKey(p, tuple(tables))


KINDS = ("keystream", "subst", "subst_stream")


def test_encrypt_examples():
    assert encrypt(Word(3, (2, 1)), KeystreamKey(3, (1, 0))) == Word(3, (0, 1))
    ident = SubstitutionKey(3, (0, 1, 2))
    w = Word(3, (2, 0, 1))
    assert encrypt(w, ident) == w


def test_key_validation():
    with pytest.raises(ValueError):
        SubstitutionKey(3, (0, 0, 2))
    with pytest.raises(ValueError):
        KeystreamKey(3, (3,))
    with pytest.raises(ValueError):
        encrypt(Word(3, (1, 1, 1)), KeystreamKey(3, (1,)))  # key too short
    with pytest.raises(ValueError):
        encrypt(Word(3, (1,)), KeystreamKey(5, (1,)))  # alphabet mismatch


def test_short_key_error_names_kind_and_length():
    # the message must not spell out the key: at p = 65521 that is millions of characters
    p = 65521
    key = SubstitutionStreamKey(p, (tuple(range(p)),) * 4)
    word = Word(p, (1, 2, 3, 4, 5))
    for fn in (encrypt, decrypt):
        with pytest.raises(ValueError) as info:
            fn(word, key)
        assert str(info.value) == "subst_stream key does not cover 5 positions"


def test_decrypt_inverts_encrypt():
    rng = random.Random(12)
    for kind in KINDS:
        for _ in range(100):
            p = rng.choice([2, 3, 5])
            length = rng.randrange(1, 7)
            key = _random_key(rng, kind, p, length)
            w = Word(p, tuple(rng.randrange(p) for _ in range(length)))
            assert decrypt(encrypt(w, key), key) == w


def test_prefix_property():
    rng = random.Random(13)
    for kind in KINDS:
        for _ in range(50):
            p = rng.choice([2, 3])
            length = rng.randrange(2, 7)
            key = _random_key(rng, kind, p, length)
            w = Word(p, tuple(rng.randrange(p) for _ in range(length)))
            e = encrypt(w, key)
            for s in range(1, length + 1):
                assert encrypt(w.prefix(s), key) == e.prefix(s)


# ---------------------------------------------------------------------------
# induced model maps
# ---------------------------------------------------------------------------


def test_model_fn_zero_keystream_is_identity():
    ctx = PrimeContext(3, 2)
    f = model_fn(KeystreamKey(3, (0, 0)), ctx)
    assert f.table == tuple(range(9))


def test_model_fn_bit_swap():
    ctx = PrimeContext(2, 2)
    f = model_fn(SubstitutionKey(2, (1, 0)), ctx)
    assert f.table == (3, 2, 1, 0)


def test_model_fn_linear_substream_is_diagonal_triangular_map():
    ctx = PrimeContext(3, 3)
    coefficients = (2, 1, 2)
    key = SubstitutionStreamKey(
        3, tuple(tuple(c * x % 3 for x in range(3)) for c in coefficients)
    )
    spec = XorSpec(ctx, [(0,) * k + (coefficients[k],) for k in range(3)])
    assert model_fn(key, ctx) == realize(spec)


def test_model_fn_requires_coverage():
    with pytest.raises(ValueError):
        model_fn(KeystreamKey(3, (1,)), PrimeContext(3, 2))


def test_model_fn_is_measure_preserving_for_all_kinds():
    rng = random.Random(14)
    ctx = PrimeContext(3, 3)
    for kind in KINDS:
        for _ in range(30):
            key = _random_key(rng, kind, 3, ctx.precision)
            f = model_fn(key, ctx)
            assert preserves_measure_coord(f).ok
            assert preserves_measure_vdp(f).ok


# ---------------------------------------------------------------------------
# formulas and the homomorphic demo
# ---------------------------------------------------------------------------


def test_parse_formula_roundtrip():
    nested = ["xor", ["leaf", 0], ["and", ["leaf", 1], ["leaf", 0]]]
    tree = parse_formula(nested)
    assert formula_ops(tree) == {"xor", "and"}
    words = [Word(3, (1, 2)), Word(3, (2, 2))]
    result = eval_formula(tree, words)
    by_hand = word_op(words[0], word_op(words[1], words[0], "and"), "xor")
    assert result == by_hand


def test_parse_formula_rejects_garbage():
    with pytest.raises(ValueError):
        parse_formula(["nand", ["leaf", 0], ["leaf", 1]])
    with pytest.raises(ValueError):
        parse_formula(["leaf"])
    with pytest.raises(ValueError):
        parse_formula([])


def test_single_leaf_formula_always_equal():
    demo = homomorphic_eval(
        parse_formula(["leaf", 0]), [Word(3, (1, 2, 0))], KeystreamKey(3, (2, 1, 1))
    )
    assert demo.equal


def test_keystream_is_not_xor_homomorphic():
    tree = parse_formula(["xor", ["leaf", 0], ["leaf", 1]])
    key = KeystreamKey(2, (1, 0, 1))
    demo = homomorphic_eval(tree, [Word(2, (1, 0, 1)), Word(2, (0, 1, 1))], key)
    assert not demo.equal
    assert demo.mismatch_positions == (0, 2)  # exactly where the key is nonzero
    # the record carries both sides as evidence
    assert demo.encrypted_plain_result != demo.cipher_result


def test_linear_substream_is_xor_homomorphic():
    rng = random.Random(15)
    tree = parse_formula(["xor", ["leaf", 0], ["xor", ["leaf", 1], ["leaf", 2]]])
    for _ in range(20):
        key = SubstitutionStreamKey(
            3,
            tuple(
                tuple(c * x % 3 for x in range(3))
                for c in (rng.randrange(1, 3) for _ in range(4))
            ),
        )
        words = [
            Word(3, tuple(rng.randrange(3) for _ in range(4))) for _ in range(3)
        ]
        assert homomorphic_eval(tree, words, key).equal


def _random_formula(rng, leaves, ops, depth):
    if depth == 0 or rng.random() < 0.3:
        return ["leaf", rng.randrange(leaves)]
    op = rng.choice(ops)
    return [
        op,
        _random_formula(rng, leaves, ops, depth - 1),
        _random_formula(rng, leaves, ops, depth - 1),
    ]


def test_demo_equality_iff_model_is_homomorphic():
    rng = random.Random(16)
    ctx = PrimeContext(3, 3)
    op_names = ["plus", "times", "xor", "and"]
    operations = {name: operation_by_name(name) for name in op_names}
    for _ in range(60):
        key = _random_key(rng, rng.choice(KINDS), 3, ctx.precision)
        f = model_fn(key, ctx)
        tree = parse_formula(_random_formula(rng, 3, op_names, 4))
        words = [
            Word(3, tuple(rng.randrange(3) for _ in range(ctx.precision)))
            for _ in range(3)
        ]
        demo = homomorphic_eval(tree, words, key)
        hom_for_all = all(
            is_homomorphism(f, operations[name]).ok for name in formula_ops(tree)
        )
        if hom_for_all:
            assert demo.equal
        # a non-homomorphic model can still agree on specific inputs, so
        # inequality is only asserted through the aggregated statistics below


def test_demo_failure_rate_for_shifted_keys():
    # keystream keys with a nonzero symbol must produce at least one witness
    rng = random.Random(17)
    tree = parse_formula(["xor", ["leaf", 0], ["leaf", 1]])
    failures = 0
    for _ in range(50):
        gamma = tuple(rng.randrange(3) for _ in range(3))
        if all(g == 0 for g in gamma):
            continue
        key = KeystreamKey(3, gamma)
        words = [Word(3, (1, 0, 2)), Word(3, (2, 1, 0))]
        if not homomorphic_eval(tree, words, key).equal:
            failures += 1
    assert failures > 0


# ---------------------------------------------------------------------------
# JSON encodings
# ---------------------------------------------------------------------------


def test_word_json_roundtrip():
    w = Word(3, (1, 0, 2))
    assert word_from_json(w.to_json()) == w


def test_key_json_roundtrip():
    keys = [
        KeystreamKey(3, (1, 0, 2)),
        SubstitutionKey(3, (2, 0, 1)),
        SubstitutionStreamKey(2, ((0, 1), (1, 0))),
    ]
    for key in keys:
        again = key_from_json(key.to_json())
        assert again == key
    with pytest.raises(ValueError):
        key_from_json({"kind": "vigenere"})


def test_demo_record_json():
    demo = homomorphic_eval(
        parse_formula(["xor", ["leaf", 0], ["leaf", 1]]),
        [Word(2, (1, 0)), Word(2, (0, 1))],
        KeystreamKey(2, (1, 1)),
    )
    data = demo.to_json()
    assert data["formula"] == ["xor", ["leaf", 0], ["leaf", 1]]
    assert "equal" in data and "mismatch_positions" in data


@pytest.mark.parametrize(
    "make,message",
    [
        pytest.param(lambda: Word(3, (1, 2)).prefix(0), "prefix length 0 outside [1, 2]", id="prefix-0"),
        pytest.param(lambda: Word(3, (1, 2)).prefix(3), "prefix length 3 outside [1, 2]", id="prefix-3"),
        # bools are ints to Python, but a level or length of True is malformed
        pytest.param(
            lambda: Word(3, (1, 2)).prefix(True), "prefix length must be an int, got True",
            id="prefix-bool",
        ),
        pytest.param(
            lambda: tau_inverse(True, 1, 2), "value must be an int, got True", id="tau-inverse-value-bool"
        ),
        pytest.param(
            lambda: tau_inverse(1, True, 2), "length must be an int, got True", id="tau-inverse-length-bool"
        ),
        pytest.param(lambda: SubstitutionStreamKey(3, ()), "need at least one permutation", id="empty-gs"),
        pytest.param(lambda: KeystreamKey(3, []), "need at least one key symbol", id="empty-gamma"),
        pytest.param(
            lambda: word_op(Word(3, (1,)), Word(5, (1,)), "plus"), "alphabet mismatch: 3 vs 5",
            id="word-op-alphabet",
        ),
        pytest.param(
            lambda: model_fn(KeystreamKey(3, (1, 1)), PrimeContext(5, 2)),
            "alphabet mismatch: key 3, context 5",
            id="model-fn-alphabet",
        ),
        pytest.param(
            lambda: parse_formula(["xor", ["leaf", 0]]),
            "operation node takes two children: ['xor', ['leaf', 0]]",
            id="two-children",
        ),
        pytest.param(
            lambda: eval_formula(parse_formula(["leaf", 2]), [Word(3, (1,))]),
            "leaf index 2 outside the data list",
            id="leaf-index",
        ),
        pytest.param(
            lambda: homomorphic_eval(parse_formula(["leaf", 0]), [], KeystreamKey(3, (1,))),
            "need at least one data word",
            id="no-data",
        ),
        pytest.param(
            lambda: homomorphic_eval(
                parse_formula(["leaf", 0]), [Word(3, (1,)), Word(3, (1, 2))], KeystreamKey(3, (1, 1))
            ),
            "all data words must have the same length",
            id="unequal-lengths",
        ),
        # a key is one of the three cipher keys, named when it is not
        *(
            pytest.param(make, f"key must be a cipher key, got {key!r}", id=f"{name}-key-{kind}")
            for kind, key in [("none", None), ("dict", {"kind": "keystream", "p": 3, "gamma": [1]})]
            for name, make in [
                ("encrypt", lambda key=key: encrypt(Word(3, (1,)), key)),
                ("decrypt", lambda key=key: decrypt(Word(3, (1,)), key)),
                (
                    "homomorphic-eval",
                    lambda key=key: homomorphic_eval(parse_formula(["leaf", 0]), [Word(3, (1,))], key),
                ),
                ("model-fn", lambda key=key: model_fn(key, PrimeContext(3, 1))),
            ]
        ),
        # an operation name is a known string; a list is not, hashable or not
        pytest.param(
            lambda: parse_formula([["leaf", 0], ["leaf", 0], ["leaf", 0]]),
            "unknown operation ['leaf', 0]; choose from ['and', 'plus', 'times', 'xor']",
            id="list-as-op-name",
        ),
        pytest.param(
            lambda: word_op(Word(3, (1,)), Word(3, (2,)), ["plus"]),
            "unknown operation ['plus']; choose from ['and', 'plus', 'times', 'xor']",
            id="word-op-list-name",
        ),
    ],
)
def test_refusals_name_their_cause(make, message):
    with pytest.raises(ValueError) as info:
        make()
    assert str(info.value) == message


def test_parsed_formula_is_its_nested_form():
    nested = ["xor", ["leaf", 0], ["and", ["leaf", 1], ["leaf", 0]]]
    tree = parse_formula(nested)
    assert tree == ("xor", ("leaf", 0), ("and", ("leaf", 1), ("leaf", 0)))
    assert formula_to_json(tree) == nested
