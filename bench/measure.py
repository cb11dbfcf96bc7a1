"""Closed-loop pass runner, set-up timing and the latency statistics.

One client issues the workload's operations in order, each only after the
previous one returned.  Only the call into the program is timed; the
benchmark's own output checks run between calls, outside the timed region.

Times are reported at a reference machine speed.  On a shared machine the
speed of a core drifts by up to 1.6x for seconds to minutes at a time, the
same for every kind of Python work.  A fixed calibration kernel, run
between calls about every 0.1 s, measures the speed of each pass; every
time measured in the pass is scaled by ``CALIBRATION_S / kernel time``,
the time it would have taken with the kernel at ``CALIBRATION_S``.
"""

from __future__ import annotations

import contextlib
import importlib
import io
import statistics
import sys
import time
from array import array
from collections import Counter
from dataclasses import dataclass, field
from typing import Callable


@dataclass
class Op:
    """One call of a workload's op mix.

    ``run`` calls the program; ``check(result, exc)`` returns None when the
    output is right and a message otherwise.  For a malformed-input probe
    (``probe=True``) it returns the outcome label instead: "rejected",
    "escaped" or "wrong".
    """

    kind: str
    run: Callable[[], object]
    check: Callable[[object, BaseException | None], str | None]
    probe: bool = False


@dataclass
class Workload:
    ops: list[Op]
    # runs once after the timed passes; returns probe outcome labels
    finish: Callable[[], list[str]] | None = None


# kernel time that defines the reference speed (about its time on an idle
# core of a 2.1 GHz Xeon)
CALIBRATION_S = 0.004
CALIBRATION_INTERVAL_S = 0.1


def calibration_kernel() -> int:
    """Fixed pure-Python integer work: digit loops like the program's own."""
    acc = 0
    for v in range(2000):
        x = v * 2654435761 % 3486784401
        for _ in range(20):
            x, r = divmod(x, 3)
            acc += r
    return acc


class Speed:
    """Samples the calibration kernel; ``take_scale`` ends a pass."""

    def __init__(self):
        self._samples: list[float] = []
        self._last = -CALIBRATION_INTERVAL_S

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or now - self._last >= CALIBRATION_INTERVAL_S:
            calibration_kernel()
            self._last = time.perf_counter()
            self._samples.append(self._last - now)

    def take_scale(self) -> float:
        """Factor from measured to reference time over the samples so far."""
        scale = CALIBRATION_S / statistics.median(self._samples)
        self._samples = []
        return scale


@dataclass
class Tally:
    # per pass, the latency of every op in op order, and the pass's scale
    # from measured to reference time
    pass_latencies_ns: list[array] = field(default_factory=list)
    pass_ns: list[int] = field(default_factory=list)
    pass_scales: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    errors: list[str] = field(default_factory=list)
    probes: Counter = field(default_factory=Counter)


def cli_call(pl, argv: list[str]):
    """Run ``padiclab <argv>`` in-process; returns (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = pl.cli.main(argv)
        except SystemExit as exc:  # argparse usage errors exit like the real command
            rc = exc.code
    return rc, out.getvalue(), err.getvalue()


def cli_outcome(result, exc) -> str:
    """Classify a malformed-input CLI call: exit 1 with one error line, or not."""
    if exc is not None:
        return "escaped"
    rc, out, err = result
    lines = err.splitlines()
    if rc == 1 and not out and len(lines) == 1 and lines[0].startswith("error:"):
        return "rejected"
    return "wrong"


def run_pass(ops: list[Op], tally: Tally, speed: Speed) -> None:
    clock = time.perf_counter_ns
    total = 0
    latencies = array("q")
    speed.sample(force=True)
    for op in ops:
        speed.sample()
        start = clock()
        try:
            result, exc = op.run(), None
        except Exception as error:  # recorded and judged by the op's check
            result, exc = None, error
        elapsed = clock() - start
        total += elapsed
        latencies.append(elapsed)
        verdict = op.check(result, exc)
        if op.probe:
            tally.probes[verdict] += 1
            continue
        tally.attempted += 1
        if verdict is not None:
            tally.failed += 1
            if len(tally.errors) < 20:
                tally.errors.append(f"{op.kind}: {verdict}")
    speed.sample(force=True)
    tally.pass_ns.append(total)
    tally.pass_latencies_ns.append(latencies)
    tally.pass_scales.append(speed.take_scale())


def reference_pass_s(tally: Tally) -> list[float]:
    """Each pass's time in s at the reference speed."""
    return [ns * scale / 1e9 for ns, scale in zip(tally.pass_ns, tally.pass_scales)]


def reference_latencies_ms(tally: Tally) -> list[float]:
    """Every op latency of the run in ms at the reference speed."""
    return [
        ns * scale / 1e6
        for latencies, scale in zip(tally.pass_latencies_ns, tally.pass_scales)
        for ns in latencies
    ]


def run_for(ops: list[Op], seconds: float, on_pass_end=None) -> Tally:
    """Repeat full passes; start another only if it should end within ``seconds``.

    At least one pass always runs.
    """
    tally = Tally()
    speed = Speed()
    started = time.perf_counter()
    longest = 0.0
    while True:
        pass_start = time.perf_counter()
        run_pass(ops, tally, speed)
        if on_pass_end is not None:
            on_pass_end()
        now = time.perf_counter()
        longest = max(longest, now - pass_start)
        if now - started + longest > seconds:
            return tally


def timed_setup(build: Callable[[object], Workload], reps: int):
    """Import padiclab afresh and build the inputs ``reps`` times.

    Returns the last (module, workload) and the median set-up time in s at
    the reference speed.
    """
    times = []
    speed = Speed()
    for _ in range(reps):
        for name in [n for n in sys.modules if n == "padiclab" or n.startswith("padiclab.")]:
            del sys.modules[name]
        speed.sample(force=True)
        start = time.perf_counter()
        pl = importlib.import_module("padiclab")
        importlib.import_module("padiclab.cli")
        workload = build(pl)
        elapsed = time.perf_counter() - start
        speed.sample(force=True)
        times.append(elapsed * speed.take_scale())
    return pl, workload, statistics.median(times)


def tail(values: list[float]) -> tuple[float, float, int]:
    """Value at the highest percentile with at least ten samples beyond it.

    Returns (value, percentile, samples beyond).  With fewer than 21 samples
    that percentile would fall below the median, so the maximum is reported
    with percentile 100 and no samples beyond.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n < 21:
        return ordered[-1], 100.0, 0
    index = n - 11
    return ordered[index], 100.0 * (index + 1) / n, n - 1 - index
