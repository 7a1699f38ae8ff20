"""Workload ``compile_cold``: cold schema builds, then artifact warm starts.

One client in a closed loop.  A round walks a seeded draw of schemas;
for each one it builds a fresh :class:`SchemaSession` from source text,
answers every class verdict, stores the compiled artifact, and
rehydrates it (verdicts included) in a second fresh session.  Expansion
and the Ψ_S/LP layers do nearly all the work; ``qa`` and ``service`` do
none, so this is the workload on which query and wire optimizations must
show no change.

The draw is stratified so every round costs about the same whatever the
seed: each round holds one schema of every shape below, and the seed
picks the instance within each shape.

* ``catalog_schema()`` — expansion dominates;
* ``taxonomy_schema(8, 1)`` — compound relations dominate (|C̄|²);
* ``random_schema`` draws with n = 10–14 in four Ψ_S bands, ~10² to
  ~10⁵ unknowns (the band members were sized once with this engine);
* ``clustered_schema`` with eight Theorem 4.6 clusters;
* ``hierarchy_schema`` — the §4.4 path;
* two 3-SAT reductions and one two-set Intersection Pattern reduction,
  whose answers are known.

Every operation of the draw must succeed, so a known reasoner defect is
not part of it.  The pinned Theorem 4.6 counterexample, whose
default-strategy verdict for ``A`` is wrong at the time of writing
(``naive`` says satisfiable), is checked once per run instead, after
the timed rounds: each disagreement prints a ``# known defect`` line and
counts in the printed ``known_defects`` metric, which is 0 once the
reasoner is fixed.
"""

from __future__ import annotations

import gc
import os
import random
import shutil
import time

from harness import (OUT_DIR, OpLog, median, maybe_span, percentile,
                     round_rate)

from repro.core.errors import CarError
from repro.core.schema import Schema
from repro.engine.artifact import ArtifactCache
from repro.engine.config import EngineConfig
from repro.engine.session import SchemaSession
from repro.obs.tracer import Tracer
from repro.parser.parser import parse_schema
from repro.parser.printer import render_schema
from repro.reductions.intersection_pattern import (IntersectionPattern,
                                                   pattern_solvable_bruteforce,
                                                   pattern_to_schema)
from repro.reductions.sat_reduction import (cnf_to_schema, dpll_satisfiable,
                                            random_cnf)
from repro.semantics.bruteforce import BruteForceBudget, brute_force_satisfiable
from repro.workloads import (CATALOG_SOURCE, clustered_schema,
                             hierarchy_schema, random_schema)
from repro.workloads.query_workloads import taxonomy_schema

#: ``random_schema(n, seed)`` instances grouped by Ψ_S size (unknowns at
#: the time of writing: ~10², ~1.5·10³, ~2·10⁴, ~7.7·10⁴).  The two
#: large bands take half of a round's time, so each holds one instance:
#: the candidates of equal size differed in build cost by 7–25%, which
#: would make a round's cost depend on the seed.
RANDOM_BANDS = (
    ((10, 0), (10, 6), (11, 1), (11, 3), (11, 6), (12, 1), (13, 1)),
    ((10, 3), (10, 5), (12, 6)),
    ((12, 0),),
    ((11, 7),),
)

#: ROADMAP open item 1: A is satisfiable (o1∈B, o2∈A∩C, a(o1,o2)), but the
#: cluster partition {A,B} | {C} never enumerates compound class {A,C}.
THEOREM_46_COUNTEREXAMPLE = """
class A attributes (inv a) : (1, 1) B endclass
class B attributes a : (0, 1) C endclass
class C isa not B endclass
"""


#: Schemas on which the reasoner is known to answer wrongly, checked
#: outside the timed draw (see the module docstring).
KNOWN_DEFECTS = (("theorem4.6-counterexample", THEOREM_46_COUNTEREXAMPLE),)


class ReferencesDisagree(Exception):
    """Two independent references gave different answers."""


def _draw(seed: int, size: str) -> list[tuple[str, str, str, object]]:
    """``(label, reference kind, source, reference data)`` per schema."""
    rng = random.Random(seed)
    items: list[tuple[str, str, str, object]] = []

    def add(label: str, kind: str, schema, data=None) -> None:
        source = schema if isinstance(schema, str) else render_schema(schema)
        items.append((label, kind, source, data))

    if size == "full":
        add("catalog", "large", CATALOG_SOURCE)
        add("taxonomy(8,1)", "large", taxonomy_schema(8, 1))
        bands = RANDOM_BANDS
    else:
        add("taxonomy(2,2)", "large", taxonomy_schema(2, 2))
        bands = RANDOM_BANDS[:1]
    for band in bands:
        n, schema_seed = rng.choice(band)
        add(f"random({n},{schema_seed})", "large",
            random_schema(n, schema_seed))
    clustered_seed = rng.randrange(10**6)
    add(f"clustered(8,3,{clustered_seed})", "clustered",
        clustered_schema(8, 3, seed=clustered_seed))
    hierarchy_seed = rng.randrange(10**6)
    add(f"hierarchy(2,2,{hierarchy_seed})", "small",
        hierarchy_schema(2, 2, with_attributes=True, seed=hierarchy_seed))
    for _ in range(2):
        cnf_seed = rng.randrange(10**6)
        formula = random_cnf(8, 34, seed=cnf_seed)
        add(f"cnf(8,34,{cnf_seed})", "cnf", cnf_to_schema(formula), formula)
    # Two sets: with three, the Ψ_S LP of this reduction takes 5–70 s at
    # the time of writing, depending on the pattern.
    sets = [frozenset(rng.sample(range(4), rng.randint(1, 3)))
            for _ in range(2)]
    pattern = IntersectionPattern.of(
        [[len(a & b) for b in sets] for a in sets])
    add(f"pattern{pattern.matrix}", "pattern", pattern_to_schema(pattern),
        pattern)
    rng.shuffle(items)
    return items


# ----------------------------------------------------------------------
# Correctness references (computed after the timed rounds)
# ----------------------------------------------------------------------
def naive_verdicts(schema: Schema) -> dict[str, bool]:
    session = SchemaSession(EngineConfig(strategy="naive"))
    reasoner = session.reasoner(schema)
    return {name: reasoner.is_satisfiable(name)
            for name in sorted(schema.class_symbols)}


def reference_verdicts(kind: str, source: str, data) -> dict[str, bool]:
    """Expected verdict per class, for the classes a reference covers.

    ``cnf``: ``World`` against DPLL, the rest against ``naive``.
    ``pattern``: ``W`` is satisfiable when the pattern is solvable (the
    exact direction of the reduction).  ``small``: ``naive``, and any
    model the brute-force oracle finds within its bound must agree.
    ``clustered``: ``naive`` on each cluster alone (clusters share no
    symbol).  ``large``: no independent reference fits at this size; the
    rehydrated verdicts are checked against the cold ones instead.
    """
    schema = parse_schema(source)
    if kind == "cnf":
        expected = naive_verdicts(schema)
        expected["World"] = dpll_satisfiable(data) is not None
        return expected
    if kind == "pattern":
        return {"W": True} if pattern_solvable_bruteforce(data) else {}
    if kind == "small":
        expected = naive_verdicts(schema)
        for name in sorted(schema.class_symbols):
            try:
                if brute_force_satisfiable(schema, name, max_size=2) \
                        and not expected[name]:
                    raise ReferencesDisagree(
                        f"references disagree on {name}: the oracle finds "
                        f"a model, naive says unsatisfiable")
            except BruteForceBudget:
                pass
        return expected
    if kind == "clustered":
        expected: dict[str, bool] = {}
        for cluster in sorted({name.split("_")[0]
                               for name in schema.class_symbols}):
            members = [cdef for cdef in schema.class_definitions
                       if cdef.name.split("_")[0] == cluster]
            expected.update(naive_verdicts(Schema(members)))
        return expected
    return {}


def known_defects() -> list[str]:
    """Default-strategy class verdicts on the pinned counterexamples
    that disagree with ``naive``, one line each (empty once fixed)."""
    found = []
    for label, source in KNOWN_DEFECTS:
        schema = parse_schema(source)
        reasoner = SchemaSession(EngineConfig()).reasoner(schema)
        for name, expected in naive_verdicts(schema).items():
            verdict = reasoner.is_satisfiable(name)
            if verdict != expected:
                found.append(f"{label}: {name}: got {verdict}, "
                             f"reference {expected}")
    return found


# ----------------------------------------------------------------------
# The workload
# ----------------------------------------------------------------------
class CompileCold:
    name = "compile_cold"
    setup_repeats = 75
    clock = staticmethod(time.process_time)

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.size = size
        self.ops = OpLog()
        self.artifact_dir = OUT_DIR / f"artifacts-{os.getpid()}"
        self.layer: dict[str, float] = {}
        self.traced_rounds = 0
        self.references_agree = True
        self.known_defects: list[str] = []

    def setup(self) -> None:
        """Generate the draw: the schema generators and the printer."""
        self.items = _draw(self.seed, self.size)

    def after_setup(self, attempt: int) -> None:
        shutil.rmtree(self.artifact_dir, ignore_errors=True)
        self.artifact_dir.mkdir(parents=True)
        self.cache = ArtifactCache(self.artifact_dir)
        if attempt == 0:
            # Warm the process with one cold build whose Ψ_S is large
            # enough for the float LP backend: the first such build pays
            # a one-off library import, and the heap grows.  Otherwise
            # the first round runs up to 10% slower than the next.
            warm = random_schema(12, 0) if self.size == "full" \
                else random_schema(10, 0)
            self._build("warm-up", render_schema(warm), False, None)

    def teardown(self) -> None:
        shutil.rmtree(self.artifact_dir, ignore_errors=True)

    def run_round(self, index: int, trace) -> None:
        if trace is not None:
            self.traced_rounds += 1
        for label, kind, source, data in self.items:
            self._compile(label, source, trace)

    def _add(self, name: str, amount: float) -> None:
        self.layer[name] = self.layer.get(name, 0.0) + amount

    def _compile(self, label: str, source: str, trace) -> None:
        ops = self.ops
        tracer = Tracer() if trace is not None else False
        if trace is not None:
            trace.new_op()
        # Start every build from a collected heap: otherwise the garbage
        # of the previous schema makes this one's cost depend on the order.
        gc.collect()
        started = time.perf_counter()
        try:
            output = self._build(label, source, tracer, trace)
        except CarError as exc:
            ops.record("compile", time.perf_counter() - started)
            ops.fail(f"{label}: {type(exc).__name__}: {exc}", wrong=False)
            return
        ops.record("compile", time.perf_counter() - started, output)

    def _build(self, label: str, source: str, tracer, trace) -> tuple:
        """Cold build, verdicts, artifact store and warm start of one
        schema; returns its output for :meth:`verify`."""
        ops = self.ops
        with maybe_span(trace, "bench.compile"):
            with maybe_span(trace, "parser.parse_schema"):
                schema = parse_schema(source) if trace is not None else source
            with maybe_span(trace, "engine.session_build"):
                session = SchemaSession(EngineConfig(trace=tracer))
                reasoner = session.reasoner(schema)
            pipeline = reasoner.pipeline
            with maybe_span(trace, "expansion.tables"):
                pipeline.tables
            with maybe_span(trace, "expansion.expand"):
                expansion = pipeline.expansion
            with maybe_span(trace, "linear.system"):
                system = pipeline.system
            with maybe_span(trace, "linear.support"):
                pipeline.support
            classes = sorted(reasoner.schema.class_symbols)
            cold = []
            with maybe_span(trace, "reasoner.verdicts"):
                for name in classes:
                    verdict_start = time.perf_counter()
                    cold.append(reasoner.is_satisfiable(name))
                    ops.sample("verdict",
                               time.perf_counter() - verdict_start)
            with maybe_span(trace, "engine.artifact_store"):
                compiled = pipeline.compile()
                self.cache.store(compiled)
            warm_start = time.perf_counter()
            with maybe_span(trace, "parser.parse_schema"):
                schema = parse_schema(source) if trace is not None else source
            with maybe_span(trace, "engine.artifact_load"):
                warm_session = SchemaSession(EngineConfig(
                    artifact_dir=str(self.artifact_dir), trace=tracer))
                warm_reasoner = warm_session.reasoner(schema)
            with maybe_span(trace, "reasoner.warm_verdicts"):
                warm = [warm_reasoner.is_satisfiable(name)
                        for name in classes]
        ops.sample("warm_start", time.perf_counter() - warm_start)
        path = self.cache.path_for(compiled.fingerprint,
                                   compiled.config_fingerprint)
        if trace is not None:
            self._add("expansion.compound_classes",
                      len(expansion.compound_classes))
            self._add("expansion.compound_attributes",
                      sum(map(len, expansion.compound_attributes.values())))
            self._add("expansion.compound_relations",
                      sum(map(len, expansion.compound_relations.values())))
            self._add("linear.unknowns", system.n_unknowns())
            self._add("linear.lp_pivots", tracer.counter("lp.pivots"))
            self._add("engine.artifact_bytes", path.stat().st_size)
        path.unlink()
        return (label, classes, cold, warm, set(warm_reasoner.timings()))

    def verify(self) -> None:
        references = {}
        for label, kind, source, data in self.items:
            try:
                references[label] = reference_verdicts(kind, source, data)
            except ReferencesDisagree as exc:
                self.references_agree = False
                self.ops.errors.append(f"{label}: {exc}")
                references[label] = {}
        for kind, output in self.ops.outputs:
            if output is None:
                continue
            label, classes, cold, warm, built = output
            problems = []
            if warm != cold:
                problems.append("rehydrated verdicts differ from cold ones")
            if "expansion" in built:
                problems.append("the warm start rebuilt instead of loading")
            for name, verdict in zip(classes, cold):
                expected = references[label].get(name)
                if expected is not None and expected != verdict:
                    problems.append(f"{name}: got {verdict}, "
                                    f"reference {expected}")
            if problems:
                self.ops.fail(f"{label}: {'; '.join(problems)}", wrong=True)
        self.known_defects = known_defects()

    # ------------------------------------------------------------------
    def end_to_end(self) -> dict:
        ops = self.ops
        verdicts = ops.ms("verdict")
        warm = ops.latencies.get("warm_start", [])
        return {
            "ops_per_s": (round_rate(self), "1/s", ops.plain_ops),
            "verdict_p50_ms": (percentile(verdicts, 0.5), "ms",
                               len(verdicts)),
            "verdict_p90_ms": (percentile(verdicts, 0.9), "ms",
                               len(verdicts)),
            "warm_start_per_s": (len(warm) / sum(warm), "1/s", len(warm)),
            "known_defects": (len(self.known_defects), "count",
                              len(KNOWN_DEFECTS)),
        }

    def per_layer(self, spans) -> dict:
        rounds = max(self.traced_rounds, 1)
        metrics = {name: (value / rounds, unit, rounds)
                   for name, unit in (
                       ("expansion.compound_classes", "count"),
                       ("expansion.compound_attributes", "count"),
                       ("expansion.compound_relations", "count"),
                       ("linear.unknowns", "count"),
                       ("linear.lp_pivots", "count"),
                       ("engine.artifact_bytes", "bytes"))
                   for value in [self.layer.get(name, 0.0)]}
        for metric, span in (("expansion.tables_s", "expansion.tables"),
                             ("expansion.expand_s", "expansion.expand"),
                             ("linear.system_s", "linear.system"),
                             ("linear.support_s", "linear.support"),
                             ("reasoner.verdicts_s", "reasoner.verdicts"),
                             ("engine.artifact_store_s",
                              "engine.artifact_store"),
                             ("engine.artifact_load_s",
                              "engine.artifact_load")):
            metrics[metric] = (spans.seconds(span) / rounds, "s", rounds)
        parses = spans.durations_ms("parser.parse_schema")
        metrics["parser.parse_schema_ms"] = (median(parses), "ms",
                                             len(parses))
        return metrics
