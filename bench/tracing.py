"""Per-layer tracing from outside the program.

Public functions are wrapped where callers look them up: modules import by
name, so the name is replaced in every padiclab module that binds it, and
methods are replaced on their class.  Each wrapped call records a span
(name, start, end, parent) in memory and adds its self time (span minus
child spans) to per-pass totals.  Per-element primitives only count calls.
"""

from __future__ import annotations

import contextlib
import functools
import statistics
import time
from collections import defaultdict

LAYERS = ("core", "lipschitz", "automorph", "oracle", "cipher", "cli")

SPANNED = [
    ("core", "pow_unit"),
    ("core", "exp_p"),
    ("core", "ln_p"),
    ("core", "teichmuller"),
    ("core", "unit_decompose"),
    ("core", "inverse_unit"),
    ("lipschitz", "vdp_transform"),
    ("lipschitz", "vdp_inverse"),
    ("lipschitz", "preserves_measure_vdp"),
    ("lipschitz", "preserves_measure_coord"),
    ("lipschitz", "is_bijective_mod"),
    ("automorph", "realize"),
    ("automorph", "is_homomorphism"),
    ("automorph", "compose_mul"),
    ("oracle", "enumerate_automorphisms"),
    ("oracle", "family_tables"),
    ("oracle", "verify_trivial_pairs"),
    ("cipher", "encrypt"),
    ("cipher", "decrypt"),
    ("cipher", "homomorphic_eval"),
    ("cipher", "model_fn"),
    ("cli", "main"),
]
SPANNED_CLASSMETHODS = [
    ("lipschitz", "LipschitzFn", "from_table"),
    ("lipschitz", "LipschitzFn", "from_subfunctions"),
]
COUNTED_METHODS = [
    ("core", "PrimeContext", "digits_of"),
    ("core", "PrimeContext", "xor_values"),
    ("core", "PrimeContext", "and_values"),
]
FAMILY_OF_SPEC = {"AddSpec": "add", "MulSpec": "mul", "XorSpec": "xor", "AndSpec": "and"}

# counts taken from return values (or from the exception), per function
EXTRA_COUNTS = [
    "lipschitz.from_table.entries",
    "lipschitz.from_table.rejected",
    "automorph.realize.entries",
    "automorph.is_homomorphism.pairs",
    "oracle.enumerate_automorphisms.nodes",
    "oracle.enumerate_automorphisms.solutions",
    "oracle.family_tables.tables",
    "oracle.verify_trivial_pairs.nodes",
    "oracle.budget_exceeded",
    "cli.rejected",
    "cli.escaped",
]
MAX_SPANS = 50_000


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {}
    for layer, name in SPANNED + [(layer, name) for layer, _, name in SPANNED_CLASSMETHODS]:
        units[f"{layer}.{name}.calls"] = "count"
        units[f"{layer}.{name}.self_s"] = "s"
    for family in FAMILY_OF_SPEC.values():
        units[f"automorph.realize.{family}.self_s"] = "s"
    for layer, _, name in COUNTED_METHODS:
        units[f"{layer}.{name}.calls"] = "count"
    for name in EXTRA_COUNTS:
        units[name] = "count"
    units["oracle.solutions_per_node"] = "ratio"
    units["trace.pass_s"] = "s"
    units["trace.overhead"] = "ratio"
    return units


class Tracer:
    def __init__(self):
        self.spans: list[tuple[int, str, int, int, int | None]] = []
        self.dropped_spans = 0
        self.pass_totals: list[dict[str, float]] = []
        self.pass_enumerations: list[list[tuple]] = []
        self._totals: dict[str, float] = defaultdict(float)
        self._enumerations: list[tuple] = []
        self._stack: list[list[int]] = []  # [span id, child time ns]
        self._next_id = 0

    # -- wrappers ------------------------------------------------------------

    def _spanned(self, name: str, fn):
        totals = self._totals
        stack = self._stack
        clock = time.perf_counter_ns

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else None
            frame = [self._next_id, 0]
            self._next_id += 1
            stack.append(frame)
            result = exc = None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as error:
                exc = error
                raise
            finally:
                end = clock()
                stack.pop()
                duration = end - start
                if stack:
                    stack[-1][1] += duration
                self_s = (duration - frame[1]) / 1e9
                totals[f"{name}.calls"] += 1
                totals[f"{name}.self_s"] += self_s
                if len(self.spans) < MAX_SPANS:
                    self.spans.append((frame[0], name, start, end, parent))
                else:
                    self.dropped_spans += 1
                self._count(name, args, result, exc, self_s)

        return wrapper

    def _counted(self, key: str, fn):
        totals = self._totals

        @functools.wraps(fn)
        def wrapper(*args):
            totals[key] += 1
            return fn(*args)

        return wrapper

    def _count(self, name: str, args, result, exc, self_s: float) -> None:
        totals = self._totals
        if name == "lipschitz.from_table":
            if exc is None:
                totals["lipschitz.from_table.entries"] += len(result.table)
            elif isinstance(exc, ValueError):
                totals["lipschitz.from_table.rejected"] += 1
        elif name == "automorph.realize" and exc is None:
            totals["automorph.realize.entries"] += len(result.table)
            family = FAMILY_OF_SPEC[type(args[0]).__name__]
            totals[f"automorph.realize.{family}.self_s"] += self_s
        elif name == "automorph.is_homomorphism" and exc is None:
            totals["automorph.is_homomorphism.pairs"] += result.checked
        elif name == "oracle.enumerate_automorphisms":
            if exc is None:
                totals["oracle.enumerate_automorphisms.nodes"] += result.nodes
                totals["oracle.enumerate_automorphisms.solutions"] += result.count
                self._enumerations.append((result.p, result.k, result.ops, result.nodes, result.count))
            elif type(exc).__name__ == "BudgetExceeded":
                totals["oracle.budget_exceeded"] += 1
        elif name == "oracle.family_tables" and exc is None:
            totals["oracle.family_tables.tables"] += len(result)
        elif name == "oracle.verify_trivial_pairs" and exc is None:
            totals["oracle.verify_trivial_pairs.nodes"] += result.nodes
        elif name == "cli.main":
            if exc is not None:
                totals["cli.escaped"] += 1
            elif result == 1:
                totals["cli.rejected"] += 1

    # -- installing ------------------------------------------------------------

    @contextlib.contextmanager
    def installed(self, pl):
        """Wrap every traced name in every padiclab module that binds it."""
        modules = [pl] + [getattr(pl, layer) for layer in LAYERS]
        undo = []
        for layer, attr in SPANNED:
            original = getattr(getattr(pl, layer), attr)
            wrapper = self._spanned(f"{layer}.{attr}", original)
            for module in modules:
                if getattr(module, attr, None) is original:
                    undo.append((module, attr, original))
                    setattr(module, attr, wrapper)
        for layer, cls_name, attr in SPANNED_CLASSMETHODS:
            cls = getattr(getattr(pl, layer), cls_name)
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, classmethod(self._spanned(f"{layer}.{attr}", original.__func__)))
        for layer, cls_name, attr in COUNTED_METHODS:
            cls = getattr(getattr(pl, layer), cls_name)
            original = cls.__dict__[attr]
            undo.append((cls, attr, original))
            setattr(cls, attr, self._counted(f"{layer}.{attr}.calls", original))
        try:
            yield self
        finally:
            for obj, attr, original in reversed(undo):
                setattr(obj, attr, original)

    def end_pass(self) -> None:
        self.pass_totals.append(dict(self._totals))
        self.pass_enumerations.append(self._enumerations)
        self._totals.clear()
        self._enumerations = []

    # -- results ------------------------------------------------------------------

    def metrics(self, untraced_pass_s: float, traced_pass_s: float) -> dict[str, float]:
        """Median over traced passes of every per-layer metric."""
        per_pass = []
        for totals in self.pass_totals:
            values = {name: totals.get(name, 0) for name in metric_units()}
            nodes = values["oracle.enumerate_automorphisms.nodes"]
            solutions = values["oracle.enumerate_automorphisms.solutions"]
            values["oracle.solutions_per_node"] = solutions / nodes if nodes else 0.0
            per_pass.append(values)
        out = {name: statistics.median(v[name] for v in per_pass) for name in per_pass[0]}
        out["trace.pass_s"] = traced_pass_s
        out["trace.overhead"] = traced_pass_s / untraced_pass_s
        return out

    def enumerations_repeat(self) -> bool:
        """Every traced pass saw the same (p, k, ops, nodes, solutions) list."""
        return all(e == self.pass_enumerations[0] for e in self.pass_enumerations)

    def dump(self) -> dict:
        return {
            "spans": [
                {"id": i, "name": n, "start_ns": s, "end_ns": e, "parent": parent}
                for i, n, s, e, parent in self.spans
            ],
            "dropped_spans": self.dropped_spans,
            "enumerations_per_pass": [
                [{"p": p, "k": k, "ops": list(ops), "nodes": nodes, "solutions": sols}
                 for p, k, ops, nodes, sols in enumerations]
                for enumerations in self.pass_enumerations
            ],
            "per_pass": self.pass_totals,
        }
