"""`tables`: whole value tables at 2**13 and 3**8 entries, no oracle.

The O(K * p**K) table passes (tower validation, the vdp transform and its
inverse, the three invertibility criteria), the family realizers, the
cipher model map and the CLI's JSON boundary at size do the work.  Each
op's state (realized table, series) lives in a per-size dict, so a pass
recomputes everything from the same inputs.
"""

from __future__ import annotations

import json
import random

import reference as ref
from measure import Op, Workload, cli_call
from workload_points import cipher_key

# small enough that a pass takes a few seconds and a run times every call
# several times
SIZES = [(2, 13), (3, 8)]
SMOKE_SIZES = [(2, 8), (3, 5)]

FAMILY_OPS = {"add": "plus", "mul": "times", "xor": "xor", "and": "and"}
SAMPLE_POINTS = 64
# seeded random pairs per homomorphism check, so that the sampled check does
# not outweigh the table work at these sizes
HOM_SAMPLES = 10_000


def _no_exc(check):
    def wrapped(result, exc):
        if exc is not None:
            return f"raised {exc!r}"
        return check(result)

    return wrapped


def _criteria_ops(pl, tag: str, state: dict, key: str, K: int) -> list[Op]:
    """The three invertibility criteria, each judged against the table's
    invertibility as the reference computes it."""

    def expect(label):
        def check(ok):
            truth = ref.is_permutation(state[key].table)
            return None if bool(ok) == truth else f"{label} says {bool(ok)}, reference {truth}"

        return _no_exc(check)

    return [
        Op(f"{tag}.criterion_vdp", lambda: pl.preserves_measure_vdp(state[key]).ok, expect("vdp")),
        Op(f"{tag}.criterion_coord", lambda: pl.preserves_measure_coord(state[key]).ok, expect("coord")),
        Op(
            f"{tag}.criterion_bijective",
            lambda: all(pl.is_bijective_mod(state[key], k) for k in range(1, K + 1)),
            expect("bijective"),
        ),
    ]


def _family_ops(pl, rng, ctx, family: str) -> list[Op]:
    p, K = ctx.p, ctx.precision
    spec_json = ref.random_family_spec(rng, family, p, K)
    spec = pl.aut_spec_from_json(ctx, spec_json)
    points = [rng.randrange(ctx.modulus) for _ in range(SAMPLE_POINTS)]
    operation = pl.operation_by_name(FAMILY_OPS[family])
    tag = f"{family}({p},{K})"
    state: dict = {}

    def realize():
        state["f"] = pl.realize(spec)
        return state["f"]

    def check_realize(f):
        if len(f.table) != ctx.modulus or not ref.is_permutation(f.table):
            return "table is not a permutation"
        for x in points:
            if f.table[x] != ref.family_point(spec_json, x, p, K):
                return f"value at {x} differs from the closed form"
        return None

    def transform():
        state["B"] = pl.vdp_transform(state["f"])
        return state["B"]

    def check_transform(series):
        coefficients = series.coefficients
        if len(coefficients) != ctx.modulus or list(coefficients[:p]) != list(state["f"].table[:p]):
            return "coefficients B_m != f(m) for m < p"
        return None

    return [
        Op(f"{tag}.realize", realize, _no_exc(check_realize)),
        Op(f"{tag}.vdp_transform", transform, _no_exc(check_transform)),
        Op(
            f"{tag}.vdp_inverse",
            lambda: pl.vdp_inverse(state["B"]),
            _no_exc(lambda g: None if g.table == state["f"].table else "round trip changed the table"),
        ),
        *_criteria_ops(pl, tag, state, "f", K),
        Op(
            f"{tag}.is_homomorphism",
            lambda: pl.is_homomorphism(state["f"], operation, samples=HOM_SAMPLES),
            _no_exc(lambda report: None if report.ok else f"counterexample {report.counterexample}"),
        ),
    ]


def _random_table_ops(pl, rng, ctx, generator: str) -> list[Op]:
    p, K = ctx.p, ctx.precision
    generator_seed = rng.randrange(2**31)
    tag = f"{generator}({p},{K})"
    state: dict = {}

    def generate():
        state["r"] = getattr(pl, generator)(ctx, random.Random(generator_seed))
        return state["r"]

    def from_table():
        state["g"] = pl.LipschitzFn.from_table(ctx, state["r"].table)
        return state["g"]

    return [
        Op(f"{tag}.generate", generate, _no_exc(lambda r: None if len(r.table) == ctx.modulus else "wrong size")),
        Op(f"{tag}.from_table", from_table, _no_exc(lambda g: None if g == state["r"] else "table changed")),
        *_criteria_ops(pl, tag, state, "g", K),
    ]


def _perturbed_op(pl, rng, ctx) -> Op:
    p, K = ctx.p, ctx.precision
    base = ref.random_tower_table(rng, p, K, bijective=True)
    broken, witness = ref.plant_violation(rng, base, p, K)

    def check(result, exc):
        if not isinstance(exc, pl.CompatibilityViolation):
            return f"accepted or raised {exc!r}"
        named = (exc.x, exc.y, exc.level)
        return None if named == witness else f"witness {named}, planted {witness}"

    return Op(f"perturbed({p},{K}).from_table", lambda: pl.LipschitzFn.from_table(ctx, broken), check)


def _model_fn_op(pl, rng, ctx, kind: str) -> Op:
    p, K = ctx.p, ctx.precision
    key, symbol = cipher_key(pl, rng, p, K, kind)
    points = [rng.randrange(ctx.modulus) for _ in range(SAMPLE_POINTS)]

    def check(f):
        if not ref.is_permutation(f.table):
            return "model map is not a permutation"
        for x in points:
            expected = ref.undigits([symbol(i, s) for i, s in enumerate(ref.digits(x, p, K))], p)
            if f.table[x] != expected:
                return f"model map at {x} differs from symbol-wise encryption"
        return None

    return Op(f"model_fn.{kind}({p},{K})", lambda: pl.model_fn(key, ctx), _no_exc(check))


def _cli_ops(pl, rng, ctx, workdir) -> list[Op]:
    p, K = ctx.p, ctx.precision
    table = ref.random_tower_table(rng, p, K, bijective=True)
    table_path = workdir / f"table_{p}_{K}.json"
    series_path = workdir / f"series_{p}_{K}.json"
    back_path = workdir / f"inverse_{p}_{K}.json"
    table_path.write_text(json.dumps({"p": p, "K": K, "table": table}))
    tag = f"cli({p},{K})"

    def exit_ok(result, exc):
        if exc is not None:
            return f"raised {exc!r}"
        rc, out, err = result
        return None if rc == 0 and not err else f"exit {rc}, stderr {err!r}"

    def check_check(result, exc):
        problem = exit_ok(result, exc)
        if problem:
            return problem
        data = json.loads(result[1])
        verdicts = [data[name] for name in (
            "tower_compatible", "measure_preserving_vdp",
            "measure_preserving_coord", "bijective_all_levels",
        )]
        return None if verdicts == [True] * 4 else f"verdicts {verdicts} for an invertible table"

    def check_inverse(result, exc):
        problem = exit_ok(result, exc)
        if problem:
            return problem
        return None if json.loads(back_path.read_text())["table"] == table else "round trip changed the table"

    return [
        Op(f"{tag}.check", lambda: cli_call(pl, ["check", "--in", f"@{table_path}"]), check_check),
        Op(
            f"{tag}.vdp",
            lambda: cli_call(pl, ["vdp", "--in", f"@{table_path}", "--out", str(series_path)]),
            exit_ok,
        ),
        Op(
            f"{tag}.vdp_inverse",
            lambda: cli_call(pl, ["vdp", "--inverse", "--in", f"@{series_path}", "--out", str(back_path)]),
            check_inverse,
        ),
    ]


def build(pl, seed: int, smoke: bool, workdir) -> Workload:
    rng = random.Random(seed)
    ops: list[Op] = []
    for p, K in SMOKE_SIZES if smoke else SIZES:
        ctx = pl.PrimeContext(p, K)
        for family in FAMILY_OPS:
            ops += _family_ops(pl, rng, ctx, family)
        ops += _random_table_ops(pl, rng, ctx, "random_lipschitz")
        ops += _random_table_ops(pl, rng, ctx, "random_measure_preserving")
        ops.append(_perturbed_op(pl, rng, ctx))
        ops += [_model_fn_op(pl, rng, ctx, kind) for kind in ("subst", "subst_stream", "keystream")]
        ops += _cli_ops(pl, rng, ctx, workdir)
    return Workload(ops)
