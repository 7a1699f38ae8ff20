"""Shared machinery of the repository benchmark: the measurement loop,
operation records, spans, percentiles, the run header and the report.

A workload (``compile_cold``, ``session_mix``, ``service_http``) is an
object with this shape::

    name, setup_repeats, clock
    setup()              build the state the timed rounds need (timed)
    after_setup(i)       untimed work after set-up number ``i``
    teardown()           release it (processes, sessions, files)
    run_round(i, trace)  one round of operations; ``trace`` is a
                         :class:`SpanTrace` in traced rounds, else None
    verify()             compute references and count wrong outputs
    end_to_end()         workload metrics from the untraced rounds
    per_layer()          layer metrics from the traced rounds

Every round of a workload has the same composition, so a run is a whole
number of rounds and its throughput does not depend on where the clock
stopped.  Round times are read on the workload's ``clock``.  The in-process
workloads use ``time.process_time``: they are single-threaded and never
wait, so on a quiet host it reads the same as wall time; on a kernel
that accounts for hypervisor steal (``CONFIG_PARAVIRT_TIME_ACCOUNTING``)
it leaves out the time the host gave to other guests.  ``service_http``
spans two processes, so its clock adds the CPU time of both.  Untraced
runs measure rounds until ``--seconds`` of wall time have passed.  Traced
runs alternate untraced and traced rounds over the same span of time, so
both kinds see the same cache history; the ratio of their mean round
times is ``obs.tracing_overhead``.
"""

from __future__ import annotations

import gc
import hashlib
import json
import math
import os
import platform
import statistics
import sys
import time
from contextlib import contextmanager
from pathlib import Path
from typing import Optional

#: Where traces and run summaries are written (inside the checkout).
OUT_DIR = Path(".bench_out")


# ----------------------------------------------------------------------
# Percentiles and operation records
# ----------------------------------------------------------------------
def percentile(values, fraction: float) -> float:
    """Nearest-rank percentile (0 for no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(1, math.ceil(len(ordered) * fraction)) - 1]


def median(values) -> float:
    return statistics.median(values) if values else 0.0


class OpLog:
    """Latencies per operation kind plus the outputs awaiting checks.

    ``record`` stores one finished operation.  Its output is checked later
    by the workload's ``verify``, outside the timed region; ``fail`` marks
    an operation that errored or returned a wrong output.
    """

    def __init__(self) -> None:
        self.latencies: dict[str, list[float]] = {}
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.errors: list[str] = []
        self.outputs: list[tuple] = []
        #: False during traced rounds: their latencies are kept apart.
        self.plain = True
        self.plain_ops = 0
        self.traced_latencies: dict[str, list[float]] = {}

    def record(self, kind: str, seconds: float, output=None) -> int:
        """Record one operation; returns its index in ``outputs``."""
        self.attempted += 1
        self.plain_ops += self.plain
        self.sample(kind, seconds)
        self.outputs.append((kind, output))
        return len(self.outputs) - 1

    def sample(self, kind: str, seconds: float) -> None:
        """A latency sample of a step inside an operation."""
        into = self.latencies if self.plain else self.traced_latencies
        into.setdefault(kind, []).append(seconds)

    def fail(self, reason: str, *, wrong: bool) -> None:
        self.failed += 1
        if wrong:
            self.wrong += 1
        if len(self.errors) < 20:
            self.errors.append(reason)

    def ms(self, kind: str) -> list[float]:
        return [s * 1000.0 for s in self.latencies.get(kind, ())]


# ----------------------------------------------------------------------
# Spans recorded by the benchmark around calls into the program's layers
# ----------------------------------------------------------------------
class SpanTrace:
    """In-memory spans: name, layer, start, end, parent and operation id.

    The benchmark opens a span around each call it makes into a layer of
    ``src/repro``; nesting gives the parent.  Spans are written out by
    :meth:`write_jsonl` when the run ends.
    """

    def __init__(self) -> None:
        self.spans: list[dict] = []
        self._stack: list[int] = []
        self.op_id = 0

    def new_op(self) -> int:
        self.op_id += 1
        return self.op_id

    @contextmanager
    def span(self, name: str):
        layer = name.split(".", 1)[0]
        record = {"id": len(self.spans), "name": name, "layer": layer,
                  "op": self.op_id,
                  "parent": self._stack[-1] if self._stack else None,
                  "start": time.perf_counter(), "end": None}
        self.spans.append(record)
        self._stack.append(record["id"])
        try:
            yield record
        finally:
            record["end"] = time.perf_counter()
            self._stack.pop()

    def seconds(self, name: str) -> float:
        return sum(s["end"] - s["start"] for s in self.spans
                   if s["name"] == name)

    def durations_ms(self, name: str) -> list[float]:
        return [(s["end"] - s["start"]) * 1000.0 for s in self.spans
                if s["name"] == name]

    def self_seconds_by_layer(self) -> dict[str, float]:
        """Each span's duration minus the time its child spans cover,
        summed per layer (children of one span never overlap)."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span["parent"] is not None:
                child_time[span["parent"]] += span["end"] - span["start"]
        totals: dict[str, float] = {}
        for span, covered in zip(self.spans, child_time):
            own = span["end"] - span["start"] - covered
            totals[span["layer"]] = totals.get(span["layer"], 0.0) + own
        return totals

    def write_jsonl(self, path: Path) -> None:
        epoch = self.spans[0]["start"] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps({
                    **span,
                    "start": round(span["start"] - epoch, 9),
                    "end": round(span["end"] - epoch, 9)}) + "\n")


@contextmanager
def maybe_span(trace: Optional[SpanTrace], name: str):
    """A span in traced rounds, nothing in untraced ones."""
    if trace is None:
        yield None
    else:
        with trace.span(name) as record:
            yield record


@contextmanager
def spans_around(trace: SpanTrace, owner, attribute: str, name: str,
                 note=None):
    """While open, every call of ``owner.attribute`` (a function of a
    module, a method of a class or of one instance) runs inside a span
    ``name``; ``note(span, result)`` may add fields to the span.  The
    program's own code path is unchanged: the original is called with the
    same arguments, and restored when the block ends."""
    original = getattr(owner, attribute)
    own = attribute in vars(owner)

    def wrapper(*args, **kwargs):
        with trace.span(name) as record:
            result = original(*args, **kwargs)
            if note is not None:
                note(record, result)
            return result

    setattr(owner, attribute, wrapper)
    try:
        yield
    finally:
        if own:
            setattr(owner, attribute, original)
        else:
            delattr(owner, attribute)


# ----------------------------------------------------------------------
# Run header
# ----------------------------------------------------------------------
def source_digest(root: Path = Path("src")) -> str:
    """SHA-256 over the program's source files, for runs outside git."""
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*.py")):
        digest.update(str(path).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def commit() -> str:
    head = Path(".git/HEAD")
    if not head.is_file():
        return "unknown (not a git checkout)"
    ref = head.read_text().strip()
    if ref.startswith("ref: "):
        ref_path = Path(".git") / ref[5:]
        if ref_path.is_file():
            return ref_path.read_text().strip()
        return ref
    return ref


def cpu_jiffies() -> tuple[int, int]:
    """``(all, steal)`` CPU time of the machine so far, in clock ticks;
    ``(0, 0)`` where ``/proc/stat`` is missing.  Steal is time a virtual
    CPU was ready but the hypervisor ran something else: a run with a
    large share of it measured a contended host, not the program."""
    try:
        with open("/proc/stat", encoding="ascii") as handle:
            fields = [int(x) for x in handle.readline().split()[1:]]
    except (OSError, ValueError):
        return 0, 0
    # user nice system idle iowait irq softirq steal [guest guest_nice]
    return sum(fields[:8]), fields[7] if len(fields) > 7 else 0


def steal_share(before: tuple[int, int], after: tuple[int, int]) -> float:
    elapsed = after[0] - before[0]
    return (after[1] - before[1]) / elapsed if elapsed > 0 else 0.0


def header(workload: str, seed: int, seconds: int, trace: bool) -> dict:
    return {
        "workload": workload, "seed": seed, "seconds": seconds,
        "trace": trace, "commit": commit(), "source": source_digest(),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "nproc": len(os.sched_getaffinity(0)),
    }


# ----------------------------------------------------------------------
# The run
# ----------------------------------------------------------------------
def measure(workload, seconds: float, trace: bool) -> dict:
    """Set up, run rounds for ``seconds``, verify, and tear down (also
    when something fails, so no server process outlives the run)."""
    try:
        return _measure(workload, seconds, trace)
    finally:
        workload.teardown()


def _measure(workload, seconds: float, trace: bool) -> dict:
    setup_times = []
    for attempt in range(workload.setup_repeats):
        if attempt:
            workload.teardown()
            gc.collect()
        started = time.perf_counter()
        workload.setup()
        setup_times.append(time.perf_counter() - started)
        workload.after_setup(attempt)

    workload.ops = OpLog()

    clock = workload.clock
    plain_times: list[float] = []
    plain_wall_times: list[float] = []
    traced_times: list[float] = []
    spans = SpanTrace() if trace else None
    started = time.perf_counter()
    index = 0
    while True:
        traced = trace and index % 2 == 1
        workload.ops.plain = not traced
        round_start, wall_start = clock(), time.perf_counter()
        workload.run_round(index, spans if traced else None)
        elapsed = clock() - round_start
        if traced:
            traced_times.append(elapsed)
        else:
            plain_times.append(elapsed)
            plain_wall_times.append(time.perf_counter() - wall_start)
        index += 1
        if time.perf_counter() - started >= seconds \
                and (not trace or traced_times):
            break
    workload.ops.plain = True
    workload.plain_times = plain_times
    workload.plain_wall_times = plain_wall_times
    workload.verify()
    return {"setup_times": setup_times, "plain_times": plain_times,
            "traced_times": traced_times, "spans": spans,
            "rounds": index}


def round_rate(workload, times=None) -> float:
    """Operations per second of a typical untraced round: the fixed
    operations per round over the median round time, so one slow round
    (a noisy neighbour, a collection) does not move the result.  On the
    workload's clock this is ``ops_per_s``; ``times`` may give other
    round times (the wall-clock ones)."""
    times = workload.plain_times if times is None else times
    return workload.ops.plain_ops / len(times) / median(times)


def tracing_overhead(result: dict) -> float:
    """Mean traced round time over mean untraced round time."""
    plain = statistics.fmean(result["plain_times"])
    traced = statistics.fmean(result["traced_times"])
    return traced / plain


def write(line: str) -> None:
    """One line of the report on standard output."""
    sys.stdout.write(line + "\n")


def report(head: dict, workload, result: dict, metrics: dict,
           samples: dict) -> None:
    """Human-readable lines: header, every metric with unit and samples."""
    ops = workload.ops
    write(f"# repobench {json.dumps(head, sort_keys=True)}")
    write(f"# round_times={[round(t, 4) for t in workload.plain_times]}")
    write(f"# rounds={result['rounds']} attempted={ops.attempted} "
          f"failed={ops.failed} wrong={ops.wrong} "
          f"error_rate={ops.failed / max(ops.attempted, 1):.6f}")
    for reason in ops.errors:
        write(f"# failure: {reason}")
    for defect in getattr(workload, "known_defects", ()):
        write(f"# known defect: {defect}")
    for name, (value, unit) in metrics.items():
        write(f"{name:<34} {value:>14.6g} {unit:<6} "
              f"samples={samples.get(name, 1)}")
    sys.stdout.flush()
