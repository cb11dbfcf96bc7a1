"""`verify`: the lab's claim suite, `padiclab verify`, over a grid of (p, k).

The oracle's backtracking search and the family realization inside
``compare_with_family`` do most of the work.  Every output is checked
against closed-form family sizes and the known quotient counts, and every
pass must print byte-identical output for the same (p, k, seed).
"""

from __future__ import annotations

import json
import random

import reference as ref
from measure import Op, Workload, cli_call

# (3, 4) is left out: its one call takes 14-20 s on a 2.1 GHz Xeon, so a
# 40 s run could time it at most twice
GRID = [(3, 2), (5, 2), (2, 3), (3, 3), (2, 5)]
SMOKE_GRID = [(3, 2), (2, 3)]

# (enumerated, distinct family tables) of the multiplicative comparison; the
# quotient keeps extra automorphisms at p = 2
TIMES_COUNTS = {
    (3, 2): (4, 4),
    (5, 2): (32, 32),
    (2, 3): (4, 2),
    (3, 3): (36, 36),
    (2, 5): (64, 32),
    (3, 4): (324, 324),
}

CLAIMS = [
    "family-matches-oracle-plus",
    "count-formula-plus",
    "family-matches-oracle-xor",
    "count-formula-xor",
    "family-matches-oracle-and",
    "count-formula-and",
    "family-vs-oracle-times-report",
    "trivial-pairs",
    "criterion-equivalence",
]


def trivial_pair_counts(p: int) -> dict[str, int]:
    """Automorphism counts of the six two-operation quotient systems.

    Only plus+xor keeps extra maps on the whole grid (p of them), and at
    p = 2 so does times+xor (two).
    """
    counts = {"+".join(pair): 1 for pair in (
        ("plus", "times"), ("plus", "xor"), ("plus", "and"),
        ("times", "xor"), ("times", "and"), ("xor", "and"),
    )}
    counts["plus+xor"] = p
    if p == 2:
        counts["times+xor"] = 2
    return counts


def _check_claims(data: dict, p: int, k: int, seed: int) -> str | None:
    if (data.get("p"), data.get("k"), data.get("seed")) != (p, k, seed):
        return "echoed (p, k, seed) differ"
    claims = {c["name"]: c for c in data["claims"]}
    if [c["name"] for c in data["claims"]] != CLAIMS:
        return f"claim list {list(claims)}"
    failing = [name for name, c in claims.items() if not c["pass"]]
    if failing != ["trivial-pairs"] or data["all_pass"]:
        return f"failing claims {failing}"
    for op in ("plus", "xor", "and"):
        size = ref.family_count(op, p, k)
        match = claims[f"family-matches-oracle-{op}"]["detail"]
        if (match["enumerated"], match["family"]) != (size, size):
            return f"{op}: enumerated/family {match}, closed form {size}"
        count = claims[f"count-formula-{op}"]["detail"]
        if (count["count"], count["expected"]) != (size, size):
            return f"{op}: count {count}, closed form {size}"
    times = claims["family-vs-oracle-times-report"]["detail"]
    if (p, k) in TIMES_COUNTS and (times["enumerated"], times["family"]) != TIMES_COUNTS[(p, k)]:
        return f"times report {times}"
    if claims["trivial-pairs"]["detail"]["counts"] != trivial_pair_counts(p):
        return f"trivial-pair counts {claims['trivial-pairs']['detail']['counts']}"
    equivalence = claims["criterion-equivalence"]["detail"]
    if equivalence["samples"] != 300 or equivalence["disagreements"] != 0:
        return f"criterion equivalence {equivalence}"
    return None


def _verify_op(pl, p: int, k: int, seed: int) -> Op:
    argv = ["verify", "--p", str(p), "--k", str(k), "--seed", str(seed)]
    first_output: list[str] = []

    def check(result, exc):
        if exc is not None:
            return f"raised {exc!r}"
        rc, out, err = result
        if rc != 2 or err:
            return f"exit {rc}, stderr {err!r}"
        if not first_output:
            first_output.append(out)
        elif out != first_output[0]:
            return "output differs from the first pass"
        return _check_claims(json.loads(out), p, k, seed)

    return Op(f"verify({p},{k})", lambda: cli_call(pl, argv), check)


def build(pl, seed: int, smoke: bool, workdir) -> Workload:
    rng = random.Random(seed)
    grid = SMOKE_GRID if smoke else GRID
    return Workload([_verify_op(pl, p, k, rng.randrange(2**31)) for p, k in grid])
