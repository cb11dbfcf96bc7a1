"""Command-line entry point for reproducible verification runs and demos.

Output is deterministic JSON by default (sorted keys, no timestamps) so two
runs with the same inputs and seed are byte-identical; ``--pretty`` switches
to a human-readable rendering.  Exit codes: 0 success / all claims pass,
1 validation error (usage errors included), 2 claim failure, 3 search
budget exceeded; ``main`` alone prints a result and picks the code.
"""

from __future__ import annotations

import argparse
import functools
import json
import operator
import random
import sys

from .core import PrimeContext, mapping_field, record_to_json, sequence_field
from . import lipschitz
from .lipschitz import (
    CompatibilityViolation,
    LipschitzFn,
    fn_from_json,
    fn_to_json,
    is_bijective_mod,
    preserves_measure_coord,
    preserves_measure_vdp,
    series_from_json,
    vdp_inverse,
    vdp_transform,
)
from .automorph import (
    OP_TO_FAMILY,
    CustomOp,
    analyze_custom_op,
    aut_spec_from_json,
    family_size,
    is_homomorphism,
    operation_by_name,
    realize,
    xor_generators,
)
from .oracle import (
    BudgetExceeded,
    DEFAULT_NODE_BUDGET,
    OPERATION_PAIRS,
    compare_with_family,
    enumerate_automorphisms,
)
from . import cipher as cipher_mod

EXIT_OK = 0
EXIT_VALIDATION = 1
EXIT_CLAIM_FAILURE = 2
EXIT_BUDGET = 3


def _load_json_arg(text: str):
    """Inline JSON, or @path to read a JSON file."""
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read()
    try:
        return json.loads(text)
    except json.JSONDecodeError:
        raise
    except ValueError:  # the only other ValueError json.loads raises: int()'s digit limit
        limit = sys.get_int_max_str_digits()
        raise ValueError(f"a JSON number has more than {limit} digits") from None


def _emit(data, args, renderer) -> None:
    if args.pretty and renderer is not None:
        text = renderer(data)
    elif args.pretty:
        text = json.dumps(data, sort_keys=True, indent=2) + "\n"
    else:
        text = json.dumps(data, sort_keys=True, separators=(",", ":")) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _function_from_spec(ctx: PrimeContext, spec) -> LipschitzFn:
    if isinstance(spec, dict) and "family" in spec:
        return realize(aut_spec_from_json(ctx, spec))
    if isinstance(spec, dict) and "table" in spec:
        if spec.get("p", ctx.p) != ctx.p or spec.get("K", ctx.precision) != ctx.precision:
            raise ValueError("function (p, K) does not match --p/--K")
        return fn_from_json({"p": ctx.p, "K": ctx.precision, **spec})
    raise ValueError("spec must carry either a 'family' or a 'table' key")


# ---------------------------------------------------------------------------
# subcommands: each returns (payload, pretty renderer or None); main prints
# the payload and picks the exit code
# ---------------------------------------------------------------------------


def cmd_eval(args):
    ctx = PrimeContext(args.p, args.K)
    fn = _function_from_spec(ctx, _load_json_arg(args.spec))
    x = args.x % ctx.modulus
    value = fn(x)
    payload = {
        "p": ctx.p,
        "K": ctx.precision,
        "x": x,
        "value": value,
        "digits": list(ctx.digits_of(value)),
    }
    return payload, lambda d: f"f({d['x']}) = {d['value']}  digits(LE) {d['digits']}\n"


def cmd_vdp(args):
    data = _load_json_arg(args.infile)
    if args.inverse:
        fn = vdp_inverse(series_from_json(data))
        return fn_to_json(fn), None
    series = vdp_transform(fn_from_json(data))
    return series.to_json(), None


def cmd_check(args):
    data = _load_json_arg(args.infile)
    try:
        fn = fn_from_json(data)
    except CompatibilityViolation as violation:
        return {
            "p": data["p"],
            "K": data["K"],
            "tower_compatible": False,
            "violation": {
                "x": violation.x,
                "y": violation.y,
                "level": violation.level,
            },
        }, None
    vdp_report = preserves_measure_vdp(fn)
    coord_report = preserves_measure_coord(fn)
    bijective = is_bijective_mod(fn, fn.ctx.precision)  # level K decides every level
    return {
        "p": fn.ctx.p,
        "K": fn.ctx.precision,
        "tower_compatible": True,
        "measure_preserving_vdp": vdp_report.ok,
        "vdp_failure": list(vdp_report.failure) if vdp_report.failure else None,
        "measure_preserving_coord": coord_report.ok,
        "coord_failure": list(coord_report.failure) if coord_report.failure else None,
        "bijective_all_levels": bijective,
    }, None


def cmd_make_aut(args):
    ctx = PrimeContext(args.p, args.K)
    fn = realize(aut_spec_from_json(ctx, _load_json_arg(args.spec)))
    return fn_to_json(fn), None


def cmd_check_hom(args):
    fn = fn_from_json(_load_json_arg(args.infile))
    results = []
    for name in args.ops.split(","):
        op = operation_by_name(name.strip())
        report = is_homomorphism(fn, op, seed=args.seed)
        results.append({"op": op.name, **record_to_json(report)})
    return {"p": fn.ctx.p, "K": fn.ctx.precision, "seed": args.seed, "results": results}, None


def cmd_analyze_g(args):
    ctx = PrimeContext(args.p, args.K)
    op = CustomOp.from_json(ctx, _load_json_arg(args.g))
    report = analyze_custom_op(op)
    return {"p": ctx.p, "K": ctx.precision, **report.to_json()}, None


def cmd_enumerate(args):
    ctx = PrimeContext(args.p, args.k)
    ops = [name.strip() for name in args.ops.split(",")]
    result = enumerate_automorphisms(ctx, ops, node_budget=args.budget)
    return result.to_json(), None


def _criterion_equivalence_sample(ctx: PrimeContext, seed: int) -> dict:
    samples = 300
    rng = random.Random(seed)
    disagreements = 0
    preserving = 0
    for i in range(samples):
        if i % 2:
            fn = lipschitz.random_measure_preserving(ctx, rng)
        else:
            fn = lipschitz.random_lipschitz(ctx, rng)
        a = preserves_measure_vdp(fn).ok
        b = preserves_measure_coord(fn).ok
        c = is_bijective_mod(fn, ctx.precision)  # level K decides every level
        if not (a == b == c):
            disagreements += 1
        if a:
            preserving += 1
    return {
        "samples": samples,
        "disagreements": disagreements,
        "measure_preserving_seen": preserving,
    }


def cmd_verify(args):
    p, k, seed = args.p, args.k, args.seed
    ctx = PrimeContext(p, k)
    claims = []

    def claim(name, passed, **detail):
        claims.append({"name": name, "pass": passed, "detail": detail})

    groups = {op: enumerate_automorphisms(ctx, [op]) for op in ("plus", "xor", "and", "times")}

    for op in ("plus", "xor", "and"):
        count, expected = groups[op].count, family_size(ctx, OP_TO_FAMILY[op])
        if op == "xor":
            # the family's generators are members and the orders agree, so
            # the family is the whole group, too large to set-compare (its
            # parametrisation is injective, so its size counts its tables)
            generated = all(realize(spec).table in groups[op] for spec in xor_generators(ctx))
            matches, enumerated, family = generated and count == expected, count, expected
        else:
            comparison = compare_with_family(groups[op])
            matches = comparison.equal
            enumerated, family = comparison.enumerated_count, comparison.family_count
        claim(f"family-matches-oracle-{op}", matches, enumerated=enumerated, family=family)
        claim(f"count-formula-{op}", count == expected, count=count, expected=expected)

    # the multiplicative family is compared and reported; quotient-level
    # extras are a finding, surfaced here rather than failed
    times = compare_with_family(groups["times"])
    claim(
        "family-vs-oracle-times-report",
        True,
        equal=times.equal,
        enumerated=times.enumerated_count,
        family=times.family_count,
        missing=len(times.missing),
        extra=len(times.extra),
    )

    # the search imposes each operation's constraints as a conjunction, so
    # the automorphisms of a pair are exactly the maps in both single-op
    # groups: the maps of the smaller group that are members of the larger
    pair_counts = {}
    for a, b in OPERATION_PAIRS:
        small, large = sorted((groups[a], groups[b]), key=operator.attrgetter("count"))
        pair_counts[f"{a}+{b}"] = sum(table in large for table in small.automorphisms)
    claim("trivial-pairs", all(count == 1 for count in pair_counts.values()), counts=pair_counts)

    equivalence = _criterion_equivalence_sample(ctx, seed)
    claim("criterion-equivalence", equivalence["disagreements"] == 0, **equivalence)

    all_pass = all(c["pass"] for c in claims)
    payload = {"p": p, "k": k, "seed": seed, "claims": claims, "all_pass": all_pass}

    def render(data) -> str:
        lines = []
        for c in data["claims"]:
            status = "PASS" if c["pass"] else "FAIL"
            lines.append(f"{status}  {c['name']}  {json.dumps(c['detail'], sort_keys=True)}")
        lines.append(
            f"{'ALL PASS' if data['all_pass'] else 'FAILURES PRESENT'} "
            f"(p={data['p']}, k={data['k']}, seed={data['seed']})"
        )
        return "\n".join(lines) + "\n"

    return payload, render


def cmd_report(args):
    rows = []
    for path in args.infiles:
        data = mapping_field(_load_json_arg("@" + path), path)
        for key in ("p", "k", "ops", "count"):
            if key not in data:
                raise ValueError(f"{path}: missing key {key!r}")
        for key in ("p", "k", "count"):
            if type(data[key]) is not int:  # bools are not ints here
                raise ValueError(f"{path}: {key} = {data[key]!r}, expected an int")
        ops = sequence_field(data["ops"], f"{path}: ops")
        if not all(type(op) is str for op in ops):
            raise ValueError(f"{path}: ops = {data['ops']!r}, expected a list of strings")
        rows.append({"p": data["p"], "k": data["k"], "ops": "+".join(ops), "count": data["count"]})
    rows.sort(key=lambda r: (r["p"], r["k"], r["ops"]))
    return {"table": rows}, lambda d: "".join(
        f"p={r['p']} k={r['k']} ops={r['ops']} count={r['count']}\n" for r in d["table"]
    ) or "(empty)\n"


def cmd_cipher(args):
    if args.action in ("encrypt", "decrypt") and not args.word:
        raise ValueError("--word is required for encrypt/decrypt")
    if args.action == "demo" and not (args.formula and args.data):
        raise ValueError("--formula and --data are required for demo")
    key = cipher_mod.key_from_json(_load_json_arg(args.key))
    if args.action in ("encrypt", "decrypt"):
        word = cipher_mod.word_from_json(_load_json_arg(args.word))
        fn = cipher_mod.encrypt if args.action == "encrypt" else cipher_mod.decrypt
        return fn(word, key).to_json(), None
    formula = cipher_mod.parse_formula(_load_json_arg(args.formula))
    data = [
        cipher_mod.word_from_json(mapping_field(w, f"data[{i}]"))
        for i, w in enumerate(sequence_field(_load_json_arg(args.data), "data"))
    ]
    demo = cipher_mod.homomorphic_eval(formula, data, key)
    return demo.to_json(), lambda d: (
        f"plain result     : {d['plain_result']['symbols']}\n"
        f"encrypt(result)  : {d['encrypted_plain_result']['symbols']}\n"
        f"formula(cipher)  : {d['cipher_result']['symbols']}\n"
        f"verdict          : {'equal' if d['equal'] else 'sides differ at ' + str(d['mismatch_positions'])}\n"
    )


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # a usage error is malformed input: main reports it
        raise ValueError(message)


# built once per process: parse_args leaves the parser as it was, and a
# build takes some thirty times as long as a parse
@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="padiclab",
        description="Exact p-adic integer laboratory: evaluate, verify, enumerate, demo.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, precision=None):
        """The subparser for one subcommand, with --p and precision ("--K" or "--k") if given."""
        sp = sub.add_parser(name, help=help)
        sp.set_defaults(func=func)
        if precision:
            sp.add_argument("--p", type=int, required=True)
            sp.add_argument(precision, type=int, required=True)
        return sp

    sp = command("eval", cmd_eval, "evaluate a function or family spec at a point", "--K")
    sp.add_argument("--spec", required=True, help="JSON (or @file): family or table")
    sp.add_argument("--x", type=int, required=True)

    sp = command("vdp", cmd_vdp, "ball-coefficient transform of a table, or its inverse")
    sp.add_argument("--in", dest="infile", required=True, help="JSON (or @file)")
    sp.add_argument("--inverse", action="store_true")

    sp = command("check", cmd_check, "tower compatibility and invertibility criteria")
    sp.add_argument("--in", dest="infile", required=True, help="JSON (or @file)")

    sp = command("make-aut", cmd_make_aut, "realize a family spec as a value table", "--K")
    sp.add_argument("--spec", required=True, help="JSON (or @file)")

    sp = command("check-hom", cmd_check_hom, "homomorphism check against operations")
    sp.add_argument("--in", dest="infile", required=True, help="JSON (or @file)")
    sp.add_argument("--ops", required=True, help="comma list: plus,times,xor,and")
    sp.add_argument("--seed", type=int, default=0)

    sp = command("analyze-g", cmd_analyze_g, "scalings commuting with a custom series operation", "--K")
    sp.add_argument("--g", required=True, help="JSON (or @file): c, a, b, terms")

    sp = command("enumerate", cmd_enumerate, "exhaustively enumerate quotient automorphisms", "--k")
    sp.add_argument("--ops", required=True, help="comma list: plus,times,xor,and")
    sp.add_argument("--budget", type=int, default=DEFAULT_NODE_BUDGET)

    sp = command("verify", cmd_verify, "run the desk-scale claim suite", "--k")
    sp.add_argument("--seed", type=int, default=0)

    sp = command("report", cmd_report, "aggregate enumeration results into a count table")
    sp.add_argument("--in", dest="infiles", nargs="*", default=(), help="result JSON files")

    sp = command("cipher", cmd_cipher, "encrypt/decrypt words, or run the homomorphic demo")
    sp.add_argument("action", choices=["encrypt", "decrypt", "demo"])
    sp.add_argument("--key", required=True, help="JSON (or @file)")
    sp.add_argument("--word", help="JSON (or @file), for encrypt/decrypt")
    sp.add_argument("--formula", help="JSON (or @file), for demo")
    sp.add_argument("--data", help="JSON array of words (or @file), for demo")

    # the output options come last in every subcommand's usage line
    for sp in sub.choices.values():
        sp.add_argument("--pretty", action="store_true", help="human-readable output")
        sp.add_argument("--out", help="write output to this path instead of stdout")

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        payload, renderer = args.func(args)
        _emit(payload, args, renderer)
    except BudgetExceeded as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except Exception as exc:  # malformed input or usage: one line, no traceback
        message = f"missing key {exc}" if isinstance(exc, KeyError) else exc
        print(f"error: {message}", file=sys.stderr)
        return EXIT_VALIDATION
    return EXIT_CLAIM_FAILURE if payload.get("all_pass") is False else EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
