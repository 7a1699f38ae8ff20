"""The repository benchmark: one command for every workload and metric.

Run from the repository root::

    python3 repobench/run.py --workload compile_cold --seed 1 \
        --seconds 20 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics, including ``obs.tracing_overhead``; it also writes the
spans and a summary under ``.bench_out/`` (see ``compare.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the lines before
it list every metric with its unit and sample count.  The program is
imported from ``src/`` of the current directory; without it the
benchmark exits with status 2.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from pathlib import Path

import harness

#: The gated metrics of ``BENCHMARK.json``.  Every workload must report
#: each of them and none may be 0, so the per-kind latencies and
#: ``error_rate`` are printed but not gated (see README.md).
END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
}

#: Metrics of the traced run.  A workload reports 0 for a layer it does
#: not call (``qa`` and ``service`` on ``compile_cold``, for example).
PER_LAYER = {
    "parser.parse_schema_ms": "ms",
    "expansion.tables_s": "s",
    "expansion.expand_s": "s",
    "expansion.compound_classes": "count",
    "expansion.compound_attributes": "count",
    "expansion.compound_relations": "count",
    "linear.system_s": "s",
    "linear.unknowns": "count",
    "linear.support_s": "s",
    "linear.lp_pivots": "count",
    "reasoner.verdicts_s": "s",
    "reasoner.class_verdict_ms": "ms",
    "reasoner.formula_verdict_ms": "ms",
    "reasoner.augmented_share": "ratio",
    "reasoner.augmented_ms": "ms",
    "engine.artifact_store_s": "s",
    "engine.artifact_load_s": "s",
    "engine.artifact_bytes": "bytes",
    "engine.session_lookup_ms": "ms",
    "engine.update_ms": "ms",
    "engine.clusters_reused": "count",
    "engine.clusters_rebuilt": "count",
    "engine.support_blocks_reused": "count",
    "qa.parse_ms": "ms",
    "qa.rewrite_ms": "ms",
    "qa.rewrite_cache_hit_ratio": "ratio",
    "qa.disjuncts": "count",
    "qa.consistency_ms": "ms",
    "qa.membership_combinations": "count",
    "qa.evaluate_ms": "ms",
    "registry.put_ms": "ms",
    "service.satisfiable_p50_ms": "ms",
    "service.query_p50_ms": "ms",
    "service.put_p50_ms": "ms",
    "service.result_cache_hit_ratio": "ratio",
    "service.rejected": "count",
    "service.dispatch_ms": "ms",
    "service.wire_ms": "ms",
    "obs.tracing_overhead": "ratio",
}

#: Layers whose self time (span time minus child spans) is reported.
LAYERS = ("parser", "expansion", "linear", "reasoner", "engine", "qa",
          "registry", "service")
PER_LAYER.update({f"{layer}.self_s": "s" for layer in LAYERS})

WORKLOADS = ("compile_cold", "session_mix", "service_http")


def _load_workload(name: str, seed: int, size: str):
    if name == "compile_cold":
        from compile_cold import CompileCold
        return CompileCold(seed, size)
    if name == "session_mix":
        from session_mix import SessionMix
        return SessionMix(seed, size)
    from service_http import ServiceHttp
    return ServiceHttp(seed, size)


def run(workload_name: str, seed: int, seconds: float, trace: bool,
        size: str = "full") -> dict:
    """One benchmark run; returns the final result object."""
    load_before = os.getloadavg()
    jiffies_before = harness.cpu_jiffies()
    head = harness.header(workload_name, seed, seconds, trace)
    head["size"] = size
    workload = _load_workload(workload_name, seed, size)
    result = harness.measure(workload, seconds, trace)
    head["loadavg_before"] = load_before
    head["loadavg_after"] = os.getloadavg()
    head["cpu_steal_share"] = harness.steal_share(jiffies_before,
                                                  harness.cpu_jiffies())

    ops = workload.ops
    setup_times = result["setup_times"]
    printed: dict[str, tuple[float, str]] = {}
    samples: dict[str, int] = {}
    e2e = {"setup_s": (harness.median(setup_times), "s", len(setup_times))}
    e2e.update(workload.end_to_end())
    e2e["wall_ops_per_s"] = (
        harness.round_rate(workload, workload.plain_wall_times), "1/s",
        ops.plain_ops)
    e2e["error_rate"] = (ops.failed / max(ops.attempted, 1), "ratio",
                         ops.attempted)
    for name, (value, unit, count) in e2e.items():
        printed[name] = (value, unit)
        samples[name] = count
    wanted = END_TO_END
    if trace:
        spans = result["spans"]
        layer = {name: (0.0, unit, 0) for name, unit in PER_LAYER.items()}
        layer.update(workload.per_layer(spans))
        self_times = spans.self_seconds_by_layer()
        traced_rounds = len(result["traced_times"])
        for name in LAYERS:
            layer[f"{name}.self_s"] = (
                self_times.get(name, 0.0) / traced_rounds, "s",
                traced_rounds)
        layer["obs.tracing_overhead"] = (
            harness.tracing_overhead(result), "ratio", traced_rounds)
        for name, (value, unit, count) in layer.items():
            printed[name] = (value, unit)
            samples[name] = count
        wanted = PER_LAYER
    harness.report(head, workload, result, printed, samples)

    missing = sorted(set(wanted) - set(printed))
    if missing:
        raise RuntimeError(f"metrics not measured: {missing}")
    metrics = {name: {"value": printed[name][0], "unit": wanted[name]}
               for name in wanted}
    final = {"correct": ops.wrong == 0 and workload.references_agree,
             "attempted": ops.attempted, "failed": ops.failed,
             "metrics": metrics}
    if trace:
        _write_summary(head, result, printed, samples, final)
    return final


def _write_summary(head, result, printed, samples, final) -> None:
    harness.OUT_DIR.mkdir(exist_ok=True)
    stem = f"{head['workload']}-seed{head['seed']}"
    result["spans"].write_jsonl(harness.OUT_DIR / f"{stem}-spans.jsonl")
    summary = {"header": head, "rounds": result["rounds"],
               "metrics": {name: {"value": value, "unit": unit,
                                  "samples": samples.get(name, 1)}
                           for name, (value, unit) in printed.items()},
               "correct": final["correct"],
               "attempted": final["attempted"], "failed": final["failed"]}
    path = harness.OUT_DIR / f"{stem}-summary.json"
    path.write_text(json.dumps(summary, indent=1, sort_keys=True))
    harness.write(f"# trace written to {path}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny shrinks every input (smoke tests only)")
    args = parser.parse_args(argv)
    source = Path.cwd() / "src"
    if not (source / "repro" / "__init__.py").is_file():
        sys.stderr.write(f"error: no program source at {source}/repro; "
                         f"run from the repository root\n")
        return 2
    sys.path.insert(0, str(source))
    started = time.perf_counter()
    final = run(args.workload, args.seed, args.seconds, bool(args.trace),
                args.size)
    sys.stdout.write(f"# wall {time.perf_counter() - started:.1f}s\n"
                     f"{json.dumps(final, sort_keys=True)}\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
