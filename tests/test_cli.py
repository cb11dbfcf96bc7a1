"""End-to-end tests of the command-line interface."""

import contextlib
import hashlib
import io
import json
import pathlib
import resource
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from padiclab import cli, oracle
from padiclab.cli import main

# address-space cap for children that must fail before allocating a table
CHILD_ADDRESS_SPACE = 512 * 2**20


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out


def test_eval_mul_example(capsys):
    code, out = run_cli(
        capsys,
        "eval", "--p", "5", "--K", "3",
        "--spec", '{"family":"mul","s":3,"a":"1","A":"1"}',
        "--x", "2",
    )
    assert code == 0
    data = json.loads(out)
    assert data["value"] == 123
    assert data["digits"] == [3, 4, 4]


def test_eval_add_and_identity(capsys):
    code, out = run_cli(
        capsys,
        "eval", "--p", "5", "--K", "3",
        "--spec", '{"family":"add","A":"7"}', "--x", "3",
    )
    assert code == 0 and json.loads(out)["value"] == 21
    code, out = run_cli(
        capsys,
        "eval", "--p", "5", "--K", "3",
        "--spec", '{"family":"add","A":"1"}', "--x", "88",
    )
    assert code == 0 and json.loads(out)["value"] == 88


def test_eval_rejects_composite_p(capsys):
    code, _ = run_cli(
        capsys,
        "eval", "--p", "4", "--K", "2",
        "--spec", '{"family":"add","A":"1"}', "--x", "1",
    )
    assert code == 1


def test_vdp_roundtrip_via_files(tmp_path, capsys):
    fn_path = tmp_path / "fn.json"
    fn_path.write_text(json.dumps({"p": 3, "K": 2, "table": list(range(9))}))
    code, out = run_cli(capsys, "vdp", "--in", f"@{fn_path}")
    assert code == 0
    series = json.loads(out)
    assert series["B"][7] == 6
    series_path = tmp_path / "series.json"
    series_path.write_text(out)
    code, out = run_cli(capsys, "vdp", "--in", f"@{series_path}", "--inverse")
    assert code == 0
    assert json.loads(out)["table"] == list(range(9))


def test_check_reports_criteria(capsys):
    code, out = run_cli(
        capsys, "check", "--in", json.dumps({"p": 2, "K": 2, "table": [0, 1, 0, 1]})
    )
    assert code == 0
    data = json.loads(out)
    assert data["tower_compatible"]
    assert not data["measure_preserving_vdp"]
    assert not data["measure_preserving_coord"]
    assert not data["bijective_all_levels"]


def test_check_reports_violation(capsys):
    code, out = run_cli(
        capsys, "check", "--in", json.dumps({"p": 2, "K": 2, "table": [0, 2, 1, 3]})
    )
    assert code == 0
    data = json.loads(out)
    assert not data["tower_compatible"]
    assert data["violation"] == {"x": 0, "y": 2, "level": 1}


def test_make_aut_then_check_hom(tmp_path, capsys):
    code, out = run_cli(
        capsys,
        "make-aut", "--p", "3", "--K", "2",
        "--spec", '{"family":"xor","alpha":[[2],[1,2]]}',
    )
    assert code == 0
    fn_path = tmp_path / "aut.json"
    fn_path.write_text(out)
    code, out = run_cli(capsys, "check-hom", "--in", f"@{fn_path}", "--ops", "xor,plus")
    assert code == 0
    results = {r["op"]: r for r in json.loads(out)["results"]}
    assert results["xor"]["ok"]
    assert not results["plus"]["ok"]
    assert results["plus"]["counterexample"] is not None


def test_analyze_g(capsys):
    code, out = run_cli(
        capsys,
        "analyze-g", "--p", "5", "--K", "2",
        "--g", '{"c":"0","a":"1","b":"0","terms":[[1,4,"1"]]}',
    )
    assert code == 0
    data = json.loads(out)
    assert data["group_order"] == 4
    assert data["witnesses"] == [1, 7, 18, 24]


# exact stdout of analyze-g: the README example, then the scalings mod
# 2**K that a gcd-of-degrees filter dropped, and a linear op over Z_5
ODD_UNITS_256 = ",".join(str(A) for A in range(1, 256, 2))
UNITS_25 = ",".join(str(A) for A in range(1, 25) if A % 5)


@pytest.mark.parametrize(
    "p,K,g,stdout",
    [
        (
            5, 2, '{"c":"0","a":"1","b":"0","terms":[[1,4,"1"]]}',
            '{"K":2,"exponent_gcd":4,"group_order":4,"p":5,"predicted_nontrivial":true,'
            '"trivial":false,"witnesses":[1,7,18,24]}',
        ),
        (
            2, 5, '{"terms":[[2,1,"1"],[1,2,"1"]]}',
            '{"K":5,"exponent_gcd":2,"group_order":8,"p":2,"predicted_nontrivial":true,'
            '"trivial":false,"witnesses":[1,7,9,15,17,23,25,31]}',
        ),
        (
            2, 5, '{"terms":[[4,1,"1"],[1,4,"1"]]}',
            '{"K":5,"exponent_gcd":4,"group_order":16,"p":2,"predicted_nontrivial":true,'
            '"trivial":false,"witnesses":[1,3,5,7,9,11,13,15,17,19,21,23,25,27,29,31]}',
        ),
        (
            2, 8, '{"a":"1","b":"1","terms":[[2,0,"128"]]}',
            '{"K":8,"exponent_gcd":1,"group_order":128,"p":2,"predicted_nontrivial":false,'
            f'"trivial":false,"witnesses":[{ODD_UNITS_256}]}}',
        ),
        (
            5, 2, '{"a":"3"}',
            '{"K":2,"exponent_gcd":null,"group_order":20,"p":5,"predicted_nontrivial":true,'
            f'"trivial":false,"witnesses":[{UNITS_25}]}}',
        ),
    ],
    ids=["readme-x-y4", "x2y-xy2", "x4y-xy4", "x-y-128x2", "3x"],
)
def test_analyze_g_examples(capsys, p, K, g, stdout):
    code, out = run_cli(capsys, "analyze-g", "--p", str(p), "--K", str(K), "--g", g)
    assert code == 0
    assert out == stdout + "\n"


def test_enumerate_and_report(tmp_path, capsys):
    paths = []
    for p, k, ops in [(3, 1, "plus"), (3, 2, "plus"), (2, 3, "xor")]:
        code, out = run_cli(
            capsys, "enumerate", "--p", str(p), "--k", str(k), "--ops", ops
        )
        assert code == 0
        path = tmp_path / f"enum_{p}_{k}_{ops}.json"
        path.write_text(out)
        paths.append(str(path))
    code, out = run_cli(capsys, "report", "--in", *paths)
    assert code == 0
    table = json.loads(out)["table"]
    assert table == [
        {"p": 2, "k": 3, "ops": "xor", "count": 8},
        {"p": 3, "k": 1, "ops": "plus", "count": 2},
        {"p": 3, "k": 2, "ops": "plus", "count": 6},
    ]


def test_report_empty_input(capsys):
    code, out = run_cli(capsys, "report")
    assert code == 0
    assert json.loads(out) == {"table": []}


@pytest.mark.parametrize(
    "files,message",
    [
        ([{"p": 2, "k": 3, "ops": "plus", "count": 1}], "{0}: ops = 'plus', expected a list"),
        ([[1]], "{0} = [1], expected an object"),
        ([{"p": 2, "k": 3, "ops": [1], "count": 1}], "{0}: ops = [1], expected a list of strings"),
        (
            [
                {"p": 2, "k": 3, "ops": ["plus"], "count": 1},
                {"p": "2", "k": 3, "ops": ["plus"], "count": 1},
            ],
            "{1}: p = '2', expected an int",
        ),
        ([{"p": 2, "k": True, "ops": ["plus"], "count": 1}], "{0}: k = True, expected an int"),
        ([{"p": 2, "k": 3, "ops": ["plus"]}], "{0}: missing key 'count'"),
    ],
    ids=["ops-str", "not-object", "ops-int", "p-str", "k-bool", "missing-count"],
)
def test_report_refuses_malformed_files(tmp_path, capsys, files, message):
    paths = []
    for i, data in enumerate(files):
        path = tmp_path / f"result{i}.json"
        path.write_text(json.dumps(data))
        paths.append(str(path))
    assert main(["report", "--in", *paths]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == ["error: " + message.format(*paths)]


def test_enumerate_budget_exit_code(capsys):
    code, _ = run_cli(
        capsys, "enumerate", "--p", "5", "--k", "2", "--ops", "plus",
        "--budget", "5",
    )
    assert code == 3


def test_enumerate_budget_error_is_one_line(capsys):
    # 21 assignments on Z/5 and 125 for the kernel on Z/25 (whose first map
    # is the identity's lift), 146 in all; then x -> 2x, the one map searched
    # since 2 generates (Z/5)^*, takes 25 for its first lift: node 151 falls
    # inside that lift, when only the identity's coset (5 maps x -> Ax) is
    # known
    code = main(["enumerate", "--p", "5", "--k", "2", "--ops", "plus", "--budget", "150"])
    err = capsys.readouterr().err
    assert code == 3
    assert err.splitlines() == [
        "error: search expanded 151 nodes, budget 150; stopped at level 2 "
        "(maps mod p**2) with 5 complete maps found"
    ]


def test_enumerate_oversized_is_validation_error(capsys):
    # each op table would hold 65521**4 entries; the size guard fires first
    code = main(["enumerate", "--p", "65521", "--k", "2", "--ops", "plus"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err


def test_enumerate_oversized_output_is_validation_error(capsys):
    # xor at (2,7) has 2**21 maps of 128 entries; the search holds them by
    # their tower (32,768 lifts and a kernel of 64 maps), and the output
    # guard fires when the maps would be composed to be printed
    code = main(["enumerate", "--p", "2", "--k", "7", "--ops", "xor"])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")
    assert "Traceback" not in captured.err


def _limit_address_space() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CHILD_ADDRESS_SPACE, CHILD_ADDRESS_SPACE))


@pytest.mark.parametrize(
    "command,spec",
    [
        ("eval", {"family": "add", "A": "3"}),
        ("eval", {"family": "mul", "s": 1, "a": "1", "A": "1"}),
        ("make-aut", {"family": "xor", "alpha": [[0] * k + [1] for k in range(32)]}),
        ("make-aut", {"family": "and", "s_list": [1] * 32}),
    ],
    ids=lambda v: v if isinstance(v, str) else v["family"],
)
def test_oversized_realize_is_validation_error(command, spec):
    # a table of 65521**32 entries: the size check fires before anything is
    # built; the child runs under an address-space cap, so a missing check
    # ends in a MemoryError traceback instead of exhausting the machine
    argv = [sys.executable, "-m", "padiclab.cli", command, "--p", "65521", "--K", "32"]
    argv += ["--spec", json.dumps(spec)] + (["--x", "2"] if command == "eval" else [])
    proc = subprocess.run(
        argv, capture_output=True, text=True, preexec_fn=_limit_address_space, timeout=60
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    lines = proc.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), proc.stderr[-500:]


# the malformed inputs of the points benchmark, plus an inverse transform
# whose input lacks its coefficients
DEEP_FORMULA = '["xor",' * 1500 + '["leaf",0]' + ',["leaf",0]]' * 1500
MALFORMED_ARGVS = [
    ["check", "--in", '{"p":2,"K":1,"table":[0.5,1]}'],
    ["vdp", "--inverse", "--in", '{"p":2,"K":1,"B":[0.5,1]}'],
    ["check", "--in", '{"p":2,"K":1,"table":[true,false]}'],
    ["check", "--in", '{"p":"3","K":1,"table":[0,1,2]}'],
    ["check", "--in", '{"p":3,"K":1,"table":null}'],
    ["check", "--in", "[0,1,2]"],
    [
        "cipher", "demo", "--key", '{"kind":"keystream","p":2,"gamma":[1]}',
        "--formula", DEEP_FORMULA, "--data", '[{"p":2,"symbols":[1]}]',
    ],
    ["vdp", "--inverse", "--in", '{"p":2,"K":1}'],
]


@pytest.mark.parametrize("argv", MALFORMED_ARGVS, ids=lambda argv: " ".join(argv)[:40])
def test_malformed_input_is_one_error_line(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:"), captured.err[-500:]
    assert "Traceback" not in captured.err


# Fuzzing the JSON arguments: any JSON value or text, and objects over the
# keys each argument is read for, each field well-formed or any value.
# Contexts stay at p**K <= 125, and at <= 27 for analyze-g, which confirms
# every candidate unit exhaustively.
FUZZ_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-1, 8)
    | st.integers(-1, 8).map(str)
    | st.floats(-1, 8, allow_nan=False)
    | st.sampled_from(["plus", "times", "xor", "and", "leaf"]),
    lambda inner: st.lists(inner, max_size=8)
    | st.dictionaries(st.text(max_size=2), inner, max_size=3),
    max_leaves=16,
)
FUZZ_DIGITS = st.lists(st.integers(0, 4), max_size=8)
FUZZ_FIELDS = {
    "family": st.sampled_from(["add", "mul", "xor", "and"]),
    "kind": st.sampled_from(["keystream", "subst", "subst_stream"]),
    "p": st.sampled_from([2, 3, 5]),
    "K": st.integers(1, 3),
    **dict.fromkeys(["A", "a", "s", "b", "c"], st.integers(0, 8) | st.integers(0, 8).map(str)),
    **dict.fromkeys(["s_list", "gamma", "g", "symbols", "table", "B"], FUZZ_DIGITS),
    **dict.fromkeys(["alpha", "gs", "terms"], st.lists(FUZZ_DIGITS, max_size=4)),
    "provenance": st.text(max_size=3),
}


def _fuzz_object(required, optional=()):
    return st.fixed_dictionaries(
        {key: FUZZ_FIELDS[key] for key in required},
        optional={key: FUZZ_FIELDS[key] | FUZZ_VALUES for key in optional},
    )


FUZZ_CONTEXTS = [(p, K) for p in (2, 3, 5, 7, 11) for K in range(1, 8) if p**K <= 125]
FUZZ_FUNCTION = st.sampled_from(FUZZ_CONTEXTS).flatmap(
    lambda c: st.fixed_dictionaries(
        {
            "p": st.just(c[0]),
            "K": st.just(c[1]),
            "table": st.lists(
                st.integers(0, c[0] ** c[1] - 1), min_size=c[0] ** c[1], max_size=c[0] ** c[1]
            ),
        }
    )
) | _fuzz_object(["p", "K"], ["table", "B", "provenance"])
FUZZ_SPEC = _fuzz_object(["family", "A", "a", "s"], ["alpha", "s_list"]) | FUZZ_FUNCTION
# binary words and keys that cover them, beside objects with any fields
FUZZ_BITS = st.lists(st.integers(0, 1), min_size=1, max_size=6)
FUZZ_KEY = st.fixed_dictionaries(
    {
        "kind": FUZZ_FIELDS["kind"],
        "p": st.just(2),
        "gamma": FUZZ_BITS,
        "g": st.permutations([0, 1]),
        "gs": st.lists(st.permutations([0, 1]), min_size=1, max_size=6),
    }
) | _fuzz_object(["kind", "p"], ["gamma", "g", "gs"])
FUZZ_WORD = st.fixed_dictionaries({"p": st.just(2), "symbols": FUZZ_BITS}) | _fuzz_object(
    ["p", "symbols"]
)
FUZZ_FORMULA = st.recursive(
    st.tuples(st.just("leaf"), st.integers(0, 2)),
    lambda inner: st.tuples(st.sampled_from(["plus", "times", "xor", "and"]), inner, inner),
    max_leaves=4,
)


def _fuzz_arg(shaped):
    """A JSON argument: the shaped value, any JSON value, or any text."""
    text = st.text(max_size=6).filter(lambda t: not t.startswith("@"))
    return st.one_of(shaped.map(json.dumps), FUZZ_VALUES.map(json.dumps), text)


def _fuzz_context(limit):
    contexts = [c for c in FUZZ_CONTEXTS if c[0] ** c[1] <= limit]
    return st.sampled_from(contexts).map(lambda c: ["--p", str(c[0]), "--K", str(c[1])])


FUZZ_ARGVS = st.one_of(
    st.tuples(_fuzz_context(125), _fuzz_arg(FUZZ_SPEC), st.integers(-5, 200)).map(
        lambda t: ["eval", *t[0], "--spec", t[1], "--x", str(t[2])]
    ),
    _fuzz_arg(FUZZ_FUNCTION).map(lambda arg: ["check", "--in", arg]),
    st.tuples(_fuzz_arg(FUZZ_FUNCTION), st.booleans()).map(
        lambda t: ["vdp", "--in", t[0]] + (["--inverse"] if t[1] else [])
    ),
    st.tuples(_fuzz_context(125), _fuzz_arg(FUZZ_SPEC)).map(
        lambda t: ["make-aut", *t[0], "--spec", t[1]]
    ),
    st.tuples(
        _fuzz_arg(FUZZ_FUNCTION),
        st.lists(st.sampled_from(["plus", "times", "xor", "and", "nope"]), min_size=1, max_size=3),
    ).map(lambda t: ["check-hom", "--in", t[0], "--ops", ",".join(t[1])]),
    st.tuples(
        st.sampled_from(["encrypt", "decrypt", "demo"]),
        _fuzz_arg(FUZZ_KEY),
        _fuzz_arg(FUZZ_WORD),
        _fuzz_arg(FUZZ_FORMULA),
        _fuzz_arg(st.lists(FUZZ_WORD, min_size=1, max_size=3)),
    ).map(
        lambda t: ["cipher", t[0], "--key", t[1], "--word", t[2], "--formula", t[3], "--data", t[4]]
    ),
    st.tuples(_fuzz_context(27), _fuzz_arg(_fuzz_object([], ["c", "a", "b", "terms"]))).map(
        lambda t: ["analyze-g", *t[0], "--g", t[1]]
    ),
)


@settings(deadline=None, max_examples=200)
@given(FUZZ_ARGVS)
def test_fuzzed_json_arguments_exit_cleanly(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert code in (0, 1, 3), argv
    if code:
        assert out.getvalue() == ""
        lines = err.getvalue().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:"), (argv, err.getvalue()[-500:])
    else:
        assert err.getvalue() == "" and out.getvalue().endswith("\n")


# usage errors are validation errors: exit 1, one error line, no usage dump
USAGE_ERRORS = [
    (["verify", "--p", "7"], "error: the following arguments are required: --k"),
    (["verify", "--p", "x", "--k", "2"], "error: argument --p: invalid int value: 'x'"),
    # argparse's own wording of the choices differs between Python versions
    (["nope"], "error: argument command: invalid choice: 'nope' (choose from "),
    (
        ["cipher", "encrypt", "--key", '{"kind":"keystream","p":3,"gamma":[1,0]}'],
        "error: --word is required for encrypt/decrypt",
    ),
    (
        ["cipher", "demo", "--key", '{"kind":"keystream","p":3,"gamma":[1,0]}', "--data", "[]"],
        "error: --formula and --data are required for demo",
    ),
    # a budget below 1 is malformed, not a search that ran out of budget
    (
        ["enumerate", "--p", "3", "--k", "2", "--ops", "plus", "--budget", "0"],
        "error: node budget must be an int >= 1, got 0",
    ),
    (
        ["enumerate", "--p", "3", "--k", "2", "--ops", "plus", "--budget", "-1"],
        "error: node budget must be an int >= 1, got -1",
    ),
]


@pytest.mark.parametrize(
    "argv,message",
    USAGE_ERRORS,
    ids=[
        "missing-flag", "bad-int", "unknown-command", "encrypt-no-word", "demo-no-formula",
        "budget-0", "budget-negative",
    ],
)
def test_usage_error_is_one_error_line(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1 and lines[0].startswith(message), captured.err


def test_help_still_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["verify", "--help"])
    assert exc.value.code == 0
    assert capsys.readouterr().out.startswith("usage: padiclab verify")


def test_missing_key_is_named(capsys):
    assert main(["vdp", "--inverse", "--in", '{"p":2,"K":1}']) == 1
    assert capsys.readouterr().err == "error: missing key 'B'\n"


# floats, bools and strings where the JSON needs an int, named by field
KEY_3 = '{"kind":"keystream","p":3,"gamma":[1,0]}'
WORDS_3 = '[{"p":3,"symbols":[1,2]}]'


@pytest.mark.parametrize(
    "argv,message",
    [
        (
            ["check", "--in", '{"p":3,"K":true,"table":[0,1,2]}'],
            "error: precision must be an int, got True",
        ),
        (["check", "--in", '{"p":3.0,"K":1,"table":[0,1,2]}'], "error: p must be an int, got 3.0"),
        (["check", "--in", '{"p":"3","K":1,"table":[0,1,2]}'], "error: p must be an int, got '3'"),
        (
            ["vdp", "--inverse", "--in", '{"p":2,"K":1,"B":[true,1]}'],
            "error: B[0] = True, expected an int",
        ),
        (
            ["vdp", "--inverse", "--in", '{"p":2,"K":1,"B":[0.5,1]}'],
            "error: B[0] = 0.5, expected an int",
        ),
        (
            [
                "cipher", "encrypt", "--key", '{"kind":"keystream","p":3,"gamma":[true,0.0]}',
                "--word", '{"p":3,"symbols":[2,1]}',
            ],
            "error: gamma[0] = True, expected an int in [0, 3)",
        ),
        (
            ["cipher", "encrypt", "--key", KEY_3, "--word", '{"p":3,"symbols":[true,1]}'],
            "error: symbols[0] = True, expected an int in [0, 3)",
        ),
        (
            ["cipher", "decrypt", "--key", KEY_3, "--word", '{"p":3.0,"symbols":[2,1]}'],
            "error: alphabet size must be a prime int, got 3.0",
        ),
        (
            [
                "cipher", "encrypt", "--key", '{"kind":"subst","p":3,"g":[2,true,0]}',
                "--word", '{"p":3,"symbols":[2,1]}',
            ],
            "error: g[1] = True, expected an int in [0, 3)",
        ),
        (
            [
                "cipher", "encrypt", "--key", '{"kind":"subst_stream","p":3,"gs":[[0,1,2],[2,1.0,0]]}',
                "--word", '{"p":3,"symbols":[2,1]}',
            ],
            "error: gs[1][1] = 1.0, expected an int in [0, 3)",
        ),
        (
            ["cipher", "demo", "--key", KEY_3, "--formula", '["leaf",0.7]', "--data", WORDS_3],
            "error: leaf takes one int index: ['leaf', 0.7]",
        ),
        (
            ["cipher", "demo", "--key", KEY_3, "--formula", '["leaf",true]', "--data", WORDS_3],
            "error: leaf takes one int index: ['leaf', True]",
        ),
        (
            ["eval", "--p", "5", "--K", "2", "--spec", '{"family":"add","A":true}', "--x", "3"],
            "error: A = True, expected a residue in [0, 25) or a digit object",
        ),
        (
            [
                "eval", "--p", "5", "--K", "2",
                "--spec", '{"family":"add","A":{"digits":[1,true]}}', "--x", "3",
            ],
            "error: A.digits[1] = True, expected an int in [0, 5)",
        ),
        (
            [
                "eval", "--p", "5", "--K", "2",
                "--spec", '{"family":"mul","s":1.9,"a":"1","A":"1"}', "--x", "3",
            ],
            "error: s = 1.9, expected an int in [1, 4]",
        ),
        (
            ["make-aut", "--p", "5", "--K", "2", "--spec", '{"family":"xor","alpha":[[1],[0,true]]}'],
            "error: alpha[1][1] = True, expected an int in [0, 5)",
        ),
        (
            ["make-aut", "--p", "5", "--K", "2", "--spec", '{"family":"and","s_list":[1,3.0]}'],
            "error: s_list[1] = 3.0, expected an int in [1, 4]",
        ),
        # a plain int and a decimal string share one range check
        *(
            (
                ["eval", "--p", "5", "--K", "2", "--spec", f'{{"family":"add","A":{A}}}', "--x", "3"],
                f"error: A = {value}, expected a residue in [0, 25)",
            )
            for A, value in [("26", 26), ('"26"', 26), ("-1", -1), ('"-1"', -1)]
        ),
        # wrong shapes name their field too
        (
            ["make-aut", "--p", "5", "--K", "2", "--spec", '{"family":"xor","alpha":5}'],
            "error: alpha = 5, expected a list",
        ),
        (
            ["make-aut", "--p", "5", "--K", "2", "--spec", '{"family":"xor","alpha":[[1],5]}'],
            "error: alpha[1] = 5, expected a list",
        ),
        (
            ["make-aut", "--p", "5", "--K", "2", "--spec", '{"family":"and","s_list":7}'],
            "error: s_list = 7, expected a list",
        ),
        (
            [
                "cipher", "encrypt", "--key", '{"kind":"subst_stream","p":3,"gs":[1,2]}',
                "--word", '{"p":3,"symbols":[2,1]}',
            ],
            "error: gs[0] = 1, expected a list",
        ),
        (
            [
                "cipher", "encrypt", "--key", '{"kind":"keystream","p":3,"gamma":5}',
                "--word", '{"p":3,"symbols":[2,1]}',
            ],
            "error: gamma = 5, expected a list",
        ),
        (
            ["analyze-g", "--p", "3", "--K", "2", "--g", '{"terms":[[1,2]]}'],
            "error: terms[0] = [1, 2], expected a list of 3",
        ),
        # a JSON argument that is not an object is named too
        (["make-aut", "--p", "5", "--K", "2", "--spec", "[1]"], "error: spec = [1], expected an object"),
        (["analyze-g", "--p", "3", "--K", "2", "--g", "[1]"], "error: g = [1], expected an object"),
        (
            ["cipher", "encrypt", "--key", "[1]", "--word", '{"p":3,"symbols":[2,1]}'],
            "error: key = [1], expected an object",
        ),
        (["cipher", "encrypt", "--key", KEY_3, "--word", "[1]"], "error: word = [1], expected an object"),
        (["check", "--in", "[1]"], "error: function = [1], expected an object"),
        (["vdp", "--in", "[1]"], "error: function = [1], expected an object"),
        (["vdp", "--inverse", "--in", "[1]"], "error: series = [1], expected an object"),
        (["check-hom", "--in", "[1]", "--ops", "xor"], "error: function = [1], expected an object"),
        (
            ["cipher", "demo", "--key", KEY_3, "--formula", '["leaf",0]', "--data", "5"],
            "error: data = 5, expected a list",
        ),
        (
            ["cipher", "demo", "--key", KEY_3, "--formula", '["leaf",0]', "--data", "[1]"],
            "error: data[0] = 1, expected an object",
        ),
        # a decimal string is ASCII digits with an optional minus sign
        *(
            (
                ["eval", "--p", "5", "--K", "2", "--spec", f'{{"family":"add","A":"{A}"}}', "--x", "3"],
                f"error: A = {A!r}, expected a residue in [0, 25) or a digit object",
            )
            for A in ["1_0", "+3", " 4 ", "\u0663", "x"]
        ),
        # a table or a series that is not a list is named
        (["check", "--in", '{"p":2,"K":1,"table":5}'], "error: table = 5, expected a list"),
        (["vdp", "--in", '{"p":2,"K":1,"table":5}'], "error: table = 5, expected a list"),
        (
            ["check-hom", "--in", '{"p":2,"K":1,"table":5}', "--ops", "xor"],
            "error: table = 5, expected a list",
        ),
        (
            ["eval", "--p", "2", "--K", "1", "--spec", '{"table":5}', "--x", "0"],
            "error: table = 5, expected a list",
        ),
        (["vdp", "--inverse", "--in", '{"p":2,"K":1,"B":5}'], "error: B = 5, expected a list"),
        # a residue string is refused by its length before int() reads it
        (
            [
                "eval", "--p", "5", "--K", "2",
                "--spec", '{"family":"add","A":"%s"}' % ("1" * 5000), "--x", "1",
            ],
            "error: A has 5000 digits, expected a residue in [0, 25)",
        ),
        (
            ["analyze-g", "--p", "3", "--K", "2", "--g", '{"terms":[[1,1,"x"]]}'],
            "error: terms[0][2] = 'x', expected a residue in [0, 9) or a digit object",
        ),
        # a digit object names its field, and its p and K are the context's ints
        *(
            (
                ["eval", "--p", "5", "--K", "2", "--spec", f'{{"family":"add","A":{A}}}', "--x", "3"],
                f"error: {message}",
            )
            for A, message in [
                ('{"digits":5}', "A.digits = 5, expected a list"),
                ('{"digits":[1,1,1]}', "A.digits has 3 digits, precision is 2"),
                ('{"digits":[1],"K":true}', "A.K = True, expected 2"),
                ('{"digits":[1],"p":5.0}', "A.p = 5.0, expected 5"),
                ('{"digits":[1],"p":3}', "A.p = 3, expected 5"),
            ]
        ),
        (
            [
                "eval", "--p", "5", "--K", "1",
                "--spec", '{"family":"add","A":{"digits":[2],"K":true}}', "--x", "3",
            ],
            "error: A.K = True, expected 1",
        ),
        # a table spec's p and K are ints too: True == 1 and 2.0 == 2
        (
            ["eval", "--p", "2", "--K", "1", "--x", "1", "--spec", '{"table":[0,1],"K":true}'],
            "error: precision must be an int, got True",
        ),
        (
            ["eval", "--p", "2", "--K", "2", "--x", "1", "--spec", '{"table":[0,1,2,3],"p":2.0}'],
            "error: p must be an int, got 2.0",
        ),
        # a bare JSON number past Python's int-conversion limit
        (
            ["check", "--in", "[%s]" % ("1" * 5000)],
            "error: a JSON number has more than 4300 digits",
        ),
        # a formula's operation name is one of four strings, not any JSON value
        *(
            (
                [
                    "cipher", "demo", "--key", KEY_3,
                    "--formula", f'[{op},["leaf",0],["leaf",0]]', "--data", WORDS_3,
                ],
                f"error: unknown operation {name}; choose from ['and', 'plus', 'times', 'xor']",
            )
            for op, name in [('["leaf",0]', "['leaf', 0]"), ("7", "7"), ('{"xor":1}', "{'xor': 1}")]
        ),
        # a function's provenance, where present, is a string
        (
            ["check", "--in", '{"p":2,"K":1,"table":[0,1],"provenance":7}'],
            "error: provenance = 7, expected a string",
        ),
        (
            ["eval", "--p", "2", "--K", "1", "--x", "0", "--spec", '{"table":[0,1],"provenance":[]}'],
            "error: provenance = [], expected a string",
        ),
    ],
)
def test_non_int_json_field_is_named(capsys, argv, message):
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


# Deep nesting runs in-process: Linux caps one argument of a child process at
# 128 KiB. The recursion message's tail differs between Python versions.
def test_deeply_nested_spec_is_one_error_line(capsys):
    spec = "[" * 100_000 + "]" * 100_000
    assert main(["eval", "--p", "3", "--K", "2", "--x", "1", "--spec", spec]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    [line] = captured.err.splitlines()
    assert line.startswith("error: maximum recursion depth exceeded")


def test_formula_900_deep_runs(capsys):
    depth = 900
    formula = '["xor",["leaf",0],' * (depth - 1) + '["leaf",0]' + "]" * (depth - 1)
    argv = ["cipher", "demo", "--key", KEY_3, "--formula", formula, "--data", WORDS_3]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out.startswith('{"cipher_result":')


# x -> 2x mod 9, tower-compatible at (3,2)
DOUBLE_3_2 = [0, 2, 4, 6, 8, 1, 3, 5, 7]


@pytest.mark.parametrize(
    "spec",
    [
        {"table": DOUBLE_3_2},
        {"table": DOUBLE_3_2, "p": 3, "K": 2},
        {"table": DOUBLE_3_2, "K": 2, "provenance": "double"},
    ],
    ids=["no-context", "matching-context", "provenance"],
)
def test_eval_table_spec(capsys, spec):
    argv = ["eval", "--p", "3", "--K", "2", "--x", "5", "--spec", json.dumps(spec)]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert out == '{"K":2,"digits":[1,0],"p":3,"value":1,"x":5}\n'


@pytest.mark.parametrize(
    "spec,message",
    [
        ({"table": DOUBLE_3_2, "p": 5}, "error: function (p, K) does not match --p/--K"),
        ({"table": DOUBLE_3_2, "K": 3}, "error: function (p, K) does not match --p/--K"),
        ({"table": [0, 1, 2], "p": 3, "K": 1}, "error: function (p, K) does not match --p/--K"),
        ({"A": "1"}, "error: spec must carry either a 'family' or a 'table' key"),
    ],
    ids=["other-p", "other-K", "smaller-table", "no-family-or-table"],
)
def test_eval_table_spec_errors(capsys, spec, message):
    assert main(["eval", "--p", "3", "--K", "2", "--x", "5", "--spec", json.dumps(spec)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.splitlines() == [message]


def test_verify_claims_structure(capsys):
    code, out = run_cli(capsys, "verify", "--p", "2", "--k", "2", "--seed", "7")
    data = json.loads(out)
    assert data["seed"] == 7
    names = [c["name"] for c in data["claims"]]
    assert "family-matches-oracle-plus" in names
    assert "trivial-pairs" in names
    assert "criterion-equivalence" in names
    by_name = {c["name"]: c for c in data["claims"]}
    # quotient extras for the carry-free pairs make this claim honestly fail
    assert not by_name["trivial-pairs"]["pass"]
    assert code == 2
    assert data["all_pass"] is False
    assert by_name["family-matches-oracle-plus"]["pass"]
    assert by_name["criterion-equivalence"]["pass"]


@pytest.mark.parametrize("p,k", [(3, 2), (5, 2), (2, 3), (3, 3), (2, 5)])
def test_verify_pair_counts_match_pair_searches(capsys, p, k):
    # verify reads each pair off the single-op groups; the reference
    # searches the pair itself
    code, out = run_cli(capsys, "verify", "--p", str(p), "--k", str(k))
    claim = {c["name"]: c for c in json.loads(out)["claims"]}["trivial-pairs"]
    report = oracle.verify_trivial_pairs(p, k)
    assert claim["detail"]["counts"] == {"+".join(r.ops): r.count for r in report.pairs}
    assert claim["pass"] is report.all_trivial
    assert code == (0 if report.all_trivial else 2)


def test_verify_searches_once_per_operation(capsys, monkeypatch):
    searches, pair_runs = [], []
    enumerate_automorphisms = oracle.enumerate_automorphisms
    verify_trivial_pairs = oracle.verify_trivial_pairs

    def counted_enumeration(ctx, ops, **kwargs):
        searches.append(tuple(ops))
        return enumerate_automorphisms(ctx, ops, **kwargs)

    def counted_pairs(*args, **kwargs):
        pair_runs.append(args)
        return verify_trivial_pairs(*args, **kwargs)

    for module in (cli, oracle):
        monkeypatch.setattr(module, "enumerate_automorphisms", counted_enumeration)
        monkeypatch.setattr(module, "verify_trivial_pairs", counted_pairs, raising=False)
    run_cli(capsys, "verify", "--p", "3", "--k", "2")
    assert sorted(searches) == [("and",), ("plus",), ("times",), ("xor",)]
    assert pair_runs == []


def test_verify_exit_codes_validation():
    assert main(["verify", "--p", "4", "--k", "2"]) == 1


def test_cipher_encrypt_decrypt(capsys):
    key = '{"kind":"keystream","p":3,"gamma":[1,0]}'
    code, out = run_cli(
        capsys, "cipher", "encrypt", "--key", key,
        "--word", '{"p":3,"symbols":[2,1]}',
    )
    assert code == 0
    assert json.loads(out)["symbols"] == [0, 1]
    code, out = run_cli(
        capsys, "cipher", "decrypt", "--key", key, "--word", out.strip()
    )
    assert code == 0
    assert json.loads(out)["symbols"] == [2, 1]


def test_cipher_demo(capsys):
    code, out = run_cli(
        capsys,
        "cipher", "demo",
        "--key", '{"kind":"keystream","p":2,"gamma":[1,0,1]}',
        "--formula", '["xor",["leaf",0],["leaf",1]]',
        "--data", '[{"p":2,"symbols":[1,0,1]},{"p":2,"symbols":[0,1,1]}]',
    )
    assert code == 0
    data = json.loads(out)
    assert data["equal"] is False
    assert data["mismatch_positions"] == [0, 2]


def test_output_to_file(tmp_path, capsys):
    out_path = tmp_path / "result.json"
    code, out = run_cli(
        capsys,
        "eval", "--p", "3", "--K", "2",
        "--spec", '{"family":"add","A":"2"}', "--x", "4",
        "--out", str(out_path),
    )
    assert code == 0 and out == ""
    assert json.loads(out_path.read_text())["value"] == 8


def test_parser_is_built_once_and_parses_alike():
    assert cli._build_parser() is cli._build_parser()
    calls = [
        ["verify", "--p", "3", "--k", "2"],
        ["verify", "--p", "7"],  # usage error: --k is missing
        ["report"],
        ["verify", "--p", "3", "--k", "2"],
    ]

    def run(argv):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        return code, out.getvalue(), err.getvalue()

    cached = [run(argv) for argv in calls]
    fresh = []
    for argv in calls:
        cli._build_parser.cache_clear()
        fresh.append(run(argv))
    assert cached == fresh
    assert [code for code, _, _ in cached] == [2, 1, 0, 2]


def test_console_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "padiclab.cli", "report"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"table": []}


# the exact bytes of the pretty renderers, the generic pretty JSON and --out
def test_eval_pretty_output(capsys):
    code, out = run_cli(
        capsys,
        "eval", "--p", "5", "--K", "3",
        "--spec", '{"family":"mul","s":3,"a":"1","A":"1"}', "--x", "2", "--pretty",
    )
    assert code == 0
    assert out == "f(2) = 123  digits(LE) [3, 4, 4]\n"


def test_verify_pretty_output(capsys):
    code, out = run_cli(capsys, "verify", "--p", "2", "--k", "2", "--pretty")
    assert code == 2
    assert out == (
        'PASS  family-matches-oracle-plus  {"enumerated": 2, "family": 2}\n'
        'PASS  count-formula-plus  {"count": 2, "expected": 2}\n'
        'PASS  family-matches-oracle-xor  {"enumerated": 2, "family": 2}\n'
        'PASS  count-formula-xor  {"count": 2, "expected": 2}\n'
        'PASS  family-matches-oracle-and  {"enumerated": 1, "family": 1}\n'
        'PASS  count-formula-and  {"count": 1, "expected": 1}\n'
        "PASS  family-vs-oracle-times-report  "
        '{"enumerated": 1, "equal": true, "extra": 0, "family": 1, "missing": 0}\n'
        "FAIL  trivial-pairs  "
        '{"counts": {"plus+and": 1, "plus+times": 1, "plus+xor": 2, '
        '"times+and": 1, "times+xor": 1, "xor+and": 1}}\n'
        "PASS  criterion-equivalence  "
        '{"disagreements": 0, "measure_preserving_seen": 165, "samples": 300}\n'
        "FAILURES PRESENT (p=2, k=2, seed=0)\n"
    )


# sha256 of verify's stdout, recorded before the claims shared one builder;
# the contexts off the grid, 0.3-0.7 s each, are pinned for seed 0 compact
# output only, as are (2,7), (3,5) and (7,3), first run when the groups
# came to be held by their towers.  Exit 2 is the trivial-pairs claim failing honestly; exit 3
# would mean the oracle ran out of its node budget
VERIFY_DIGESTS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "verify_stdout_sha256.json").read_text()
)


@pytest.mark.parametrize(
    "argv",
    [
        f"verify --p {p} --k {k} --seed {seed}{flag}"
        for p, k in [(3, 2), (5, 2), (2, 3), (3, 3), (2, 5), (7, 2)]
        for seed in (0, 7)
        for flag in ("", " --pretty")
    ]
    + [f"verify --p {p} --k {k} --seed 0" for p, k in [(3, 4), (13, 2), (5, 3), (2, 6)]],
)
def test_verify_stdout_matches_pinned_digest(capsys, argv):
    code, out = run_cli(capsys, *argv.split())
    assert code == 2
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[argv]


# past the output guard: the xor groups of 2**21, 2**5 * 3**10 and
# 6**3 * 7**3 maps are checked by their generators and their order, and
# each pair by membership, so no xor map is composed; about 1-2 s each.
# The pair searches themselves are the reference for the pair counts
@pytest.mark.parametrize("p,k", [(2, 7), (3, 5), (7, 3)])
def test_verify_runs_past_the_output_guard(capsys, p, k):
    argv = f"verify --p {p} --k {k} --seed 0"
    code, out = run_cli(capsys, *argv.split())
    claims = json.loads(out)["claims"]
    assert code == 2
    assert [c["name"] for c in claims if not c["pass"]] == ["trivial-pairs"]
    pairs = {c["name"]: c for c in claims}["trivial-pairs"]["detail"]["counts"]
    assert pairs == {"+".join(r.ops): r.count for r in oracle.verify_trivial_pairs(p, k).pairs}
    assert hashlib.sha256(out.encode()).hexdigest() == VERIFY_DIGESTS[argv]


# sha256 of enumerate's stdout, which prints the whole group and the node
# count.  Exit 3 would mean the default node budget ran out.
# - One first-lift search runs per generator of the maps that lift, not one
#   per map: (11,3) plus takes 17,535 nodes and (2,7) times 4,848 (162,251
#   and 128,106 when every map of a level had its own search).
# - The (11,3) and search (25,693 nodes) builds its level tables from 1.79 M
#   digit-wise products, read two digits per lookup from the P = 121 chunk
#   table; the (13,2) search reads the P = 169 one.  (17,2) is the only case
#   that runs the digit loop of p >= 17, one digit_op call per digit.  So a
#   wrong digit-wise kernel or chunk table changes these groups, of
#   phi(p-1)**k = 4**3, 4**2 and 8**2 maps.
ENUMERATE_DIGESTS = json.loads(
    (pathlib.Path(__file__).parent / "data" / "enumerate_stdout_sha256.json").read_text()
)


@pytest.mark.parametrize(
    "argv,count",
    [
        ("enumerate --p 11 --k 3 --ops plus", 1210),
        ("enumerate --p 2 --k 7 --ops times", 1024),
        ("enumerate --p 11 --k 3 --ops and", 64),
        ("enumerate --p 13 --k 2 --ops and", 16),
        ("enumerate --p 17 --k 2 --ops and", 64),
    ],
)
def test_enumerate_stdout_matches_pinned_digest(capsys, argv, count):
    code, out = run_cli(capsys, *argv.split())
    assert code == 0
    assert json.loads(out)["count"] == count
    assert hashlib.sha256(out.encode()).hexdigest() == ENUMERATE_DIGESTS[argv]


# sha256 of stdout built by the result records' one JSON rule, recorded
# before the records shared it: the README check-hom on the make-aut output
# written to AUT (exhaustive mode), check-hom on x -> -x mod 2**11 (random
# mode, two counterexamples) and the README cipher demo, whose record nests
# the formula and its words
NEGATE_2_11 = json.dumps({"p": 2, "K": 11, "table": [-x % 2**11 for x in range(2**11)]})


@pytest.mark.parametrize(
    "argv,digest",
    [
        pytest.param(
            ["check-hom", "--in", "@AUT", "--ops", "xor,plus"],
            "e4df7d3b77a6dec6963bee870fe42b851c8582cdea736e939211cc6f03c11b47",
            id="check-hom-readme",
        ),
        pytest.param(
            ["check-hom", "--in", NEGATE_2_11, "--ops", "plus,times,xor", "--seed", "3"],
            "96d78d5bd26aa8a48b21a0b71b94c387d3c3de95ca2b4021cb776e44cec89282",
            id="check-hom-random",
        ),
        pytest.param(
            [
                "cipher", "demo", "--key", '{"kind":"keystream","p":2,"gamma":[1,0,1]}',
                "--formula", '["xor",["leaf",0],["leaf",1]]',
                "--data", '[{"p":2,"symbols":[1,0,1]},{"p":2,"symbols":[0,1,1]}]',
            ],
            "23c6b2947730bee53e300931c0ae3e8e560116d6017e0fd9353dbdf0de871a4c",
            id="cipher-demo-readme",
        ),
    ],
)
def test_record_stdout_matches_pinned_digest(tmp_path, capsys, argv, digest):
    code, aut = run_cli(
        capsys, "make-aut", "--p", "3", "--K", "2", "--spec", '{"family":"xor","alpha":[[2],[1,2]]}'
    )
    assert code == 0
    (tmp_path / "aut.json").write_text(aut)
    argv = [f"@{tmp_path / 'aut.json'}" if a == "@AUT" else a for a in argv]
    code, out = run_cli(capsys, *argv)
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_report_pretty_output(tmp_path, capsys):
    paths = []
    for name, data in [
        ("a", {"p": 3, "k": 2, "ops": ["plus"], "count": 6}),
        ("b", {"p": 2, "k": 3, "ops": ["xor", "and"], "count": 8}),
    ]:
        path = tmp_path / f"{name}.json"
        path.write_text(json.dumps(data))
        paths.append(str(path))
    code, out = run_cli(capsys, "report", "--in", *paths, "--pretty")
    assert code == 0
    assert out == "p=2 k=3 ops=xor+and count=8\np=3 k=2 ops=plus count=6\n"
    code, out = run_cli(capsys, "report", "--pretty")
    assert code == 0 and out == "(empty)\n"


@pytest.mark.parametrize(
    "gamma,verdict", [("[1,0,1]", "sides differ at [0, 2]"), ("[0,0,0]", "equal")]
)
def test_cipher_demo_pretty_output(capsys, gamma, verdict):
    code, out = run_cli(
        capsys,
        "cipher", "demo", "--pretty",
        "--key", '{"kind":"keystream","p":2,"gamma":%s}' % gamma,
        "--formula", '["xor",["leaf",0],["leaf",1]]',
        "--data", '[{"p":2,"symbols":[1,0,1]},{"p":2,"symbols":[0,1,1]}]',
    )
    assert code == 0
    encrypted = "[0, 1, 1]" if verdict != "equal" else "[1, 1, 0]"
    assert out == (
        "plain result     : [1, 1, 0]\n"
        f"encrypt(result)  : {encrypted}\n"
        "formula(cipher)  : [1, 1, 0]\n"
        f"verdict          : {verdict}\n"
    )


MAKE_AUT_AND = ["make-aut", "--p", "2", "--K", "2", "--spec", '{"family":"and","s_list":[1,1]}']


def test_pretty_json_without_renderer(capsys):
    code, out = run_cli(capsys, *MAKE_AUT_AND, "--pretty")
    assert code == 0
    assert out == (
        '{\n  "K": 2,\n  "p": 2,\n  "provenance": "and",\n'
        '  "table": [\n    0,\n    1,\n    2,\n    3\n  ]\n}\n'
    )
    code, out = run_cli(capsys, *MAKE_AUT_AND)
    assert code == 0
    assert out == '{"K":2,"p":2,"provenance":"and","table":[0,1,2,3]}\n'


@pytest.mark.parametrize("pretty", [False, True], ids=["compact", "pretty"])
def test_out_file_holds_the_stdout_bytes(tmp_path, capsys, pretty):
    flags = ["--pretty"] if pretty else []
    _, expected = run_cli(capsys, "verify", "--p", "2", "--k", "2", *flags)
    out_path = tmp_path / "verify.txt"
    code, out = run_cli(capsys, "verify", "--p", "2", "--k", "2", *flags, "--out", str(out_path))
    assert code == 2 and out == ""
    assert out_path.read_text() == expected
