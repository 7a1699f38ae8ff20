"""Workload ``session_mix``: reads, queries and edits on a warm session.

One client in a closed loop against one in-process
:class:`SchemaSession` that holds, warm:

* ``random_schema(12, 2)`` — over 10⁵ Ψ_S unknowns, where a warm class
  verdict rescans the support (about 20 ms at the time of writing);
* ``taxonomy_schema(8, 1)`` with four seeded databases of 24 objects in
  15 distinct class combinations each, where a certain-answer query is
  dominated by the per-call consistency scan (one formula verdict per
  combination);
* ``taxonomy_schema(2, 2)`` with four seeded databases of 12 objects in 6
  combinations;
* a six-cluster ``clustered_schema`` that takes the edits.

Every round holds the same operations in a seeded order: four class
verdicts on the two large schemas, one formula verdict inside one
cluster and one across two clusters (the augmented path), three
certain-answer queries (two with a database, one without), and two
single-cluster edits through ``SchemaSession.update``, each followed by
two class verdicts on the new version.  Verdict lookup and ``qa``
consistency dominate; expansion only runs for the edited cluster, so
reads and writes share layers and a gain for one that costs the other
shows.  The queries, formulas and databases come from small seeded
pools, so the rewrite and augmented-verdict caches see repeated keys.
The scan's cost still depends on which combinations a database holds
(up to 20% between databases); drawing each query's database from a
pool of four keeps that from making a round's cost depend on the seed.
"""

from __future__ import annotations

import random
import time
from contextlib import ExitStack, contextmanager

from harness import (OpLog, maybe_span, median, percentile, round_rate,
                     spans_around)

import repro.qa
import repro.qa.evaluator
from repro.core.errors import CarError
from repro.core.formulas import Clause, Formula, Lit, conjunction
from repro.core.schema import ClassDef, Schema
from repro.engine.config import EngineConfig
from repro.engine.session import SchemaSession, schema_fingerprint
from repro.qa import (QueryRewriter, certain_answers, database_from_document,
                      parse_query)
from repro.workloads import clustered_schema, random_schema
from repro.workloads.query_workloads import (query_workload,
                                             sample_database,
                                             taxonomy_schema)

CLUSTERS = 6
CLUSTER_SIZE = 3
#: Seeded databases per schema; each query with a database picks one.
DATABASES = 4


def _cluster(name: str) -> str:
    return name.split("_")[0]


def _edit(schema: Schema, rng: random.Random) -> Schema:
    """A new version whose one class gets a new isa inside its cluster."""
    cluster = rng.randrange(CLUSTERS)
    index = rng.randrange(1, CLUSTER_SIZE)
    target = f"K{cluster}_{index}"
    earlier = [f"K{cluster}_{i}" for i in range(index)]
    clauses = []
    for _ in range(rng.randint(1, 2)):
        picked = rng.sample(earlier, rng.randint(1, len(earlier)))
        clauses.append(Clause(tuple(Lit(name, rng.random() < 0.7)
                                    for name in picked)))
    definitions = [ClassDef(target, Formula(tuple(clauses)))
                   if cdef.name == target else cdef
                   for cdef in schema.class_definitions]
    return Schema(definitions)


def _formula(rng: random.Random, clusters: list[int]) -> Formula:
    """Two or three literals over the classes of ``clusters``."""
    names = [f"K{c}_{i}" for c in clusters for i in range(CLUSTER_SIZE)]
    picked = rng.sample(names, rng.randint(2, 3))
    literals = [Lit(name, rng.random() < 0.75) for name in picked]
    if len(literals) == 3 and rng.random() < 0.5:
        return Formula((Clause(tuple(literals[:2])), Clause((literals[2],))))
    return conjunction(literals)


def _database(schema: Schema, objects: int, combinations: int,
              rng: random.Random) -> dict:
    """A seeded ``sample_database`` whose objects carry exactly
    ``combinations`` distinct class combinations: the consistency scan
    costs one formula verdict per combination, so fixing their number
    keeps a round's cost the same for every seed."""
    while True:
        document = sample_database(schema, objects,
                                   seed=rng.randrange(10**6))
        distinct = {frozenset(classes) for classes in
                    document["objects"].values() if classes}
        if len(distinct) == combinations:
            return document


def naive_formula_verdict(schema: Schema, formula: Formula) -> bool:
    """``naive`` on the clusters the formula touches (clusters share no
    symbol, so the others cannot change the answer)."""
    touched = {_cluster(name) for name in formula.classes()}
    members = [cdef for cdef in schema.class_definitions
               if _cluster(cdef.name) in touched]
    reasoner = SchemaSession(EngineConfig(strategy="naive")).reasoner(
        Schema(members))
    return reasoner.is_formula_satisfiable(formula)


def fresh_class_verdict(schema: Schema, name: str) -> bool:
    return SchemaSession().satisfiable(schema, name)


def fresh_query_answer(session: SchemaSession, schema: Schema, text: str,
                       database):
    """Certain answers through a new, uncached rewriter."""
    reasoner = session.reasoner(schema)
    rewriter = QueryRewriter(reasoner.pipeline.closure_index())
    query = parse_query(text, reasoner.schema)
    answer = certain_answers(rewriter, query, database, reasoner=reasoner)
    return answer.answers, answer.boolean


class SessionMix:
    name = "session_mix"
    setup_repeats = 3
    clock = staticmethod(time.process_time)

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.size = size
        self.ops = OpLog()
        self.references_agree = True
        self.reference_class: dict[tuple[str, str], bool] = {}

    # ------------------------------------------------------------------
    def setup(self) -> None:
        rng = random.Random(self.seed)
        full = self.size == "full"
        self.big = random_schema(12, 2) if full else random_schema(10, 0)
        self.tax = taxonomy_schema(8, 1) if full else taxonomy_schema(2, 2)
        self.small_tax = taxonomy_schema(2, 2) if full \
            else taxonomy_schema(2, 1)
        self.clustered = clustered_schema(CLUSTERS, CLUSTER_SIZE,
                                          seed=rng.randrange(10**6))
        self.session = SchemaSession(EngineConfig())
        self.session.warm([self.big, self.tax, self.small_tax,
                           self.clustered])
        self.databases = {}
        for label, schema, objects, combinations in (
                ("tax", self.tax, 24, 15),
                ("small_tax", self.small_tax, 12, 6)):
            for index in range(DATABASES):
                self.databases[label, index] = database_from_document(
                    schema, _database(schema, objects, combinations, rng))
        self.queries = {
            label: [text for _, text in query_workload(
                schema, per_shape=4, seed=rng.randrange(10**6))]
            for label, schema in (("tax", self.tax),
                                  ("small_tax", self.small_tax))}
        self.schemas = {"big": self.big, "tax": self.tax,
                        "small_tax": self.small_tax}
        # Warm the closure indexes (and the session's rewriters).
        for label in ("tax", "small_tax"):
            self.session.query(self.schemas[label], self.queries[label][0])
        self.in_cluster = [_formula(rng, [c]) for c in range(CLUSTERS)
                           for _ in range(4)]
        self.cross_cluster = [
            _formula(rng, rng.sample(range(CLUSTERS), 2))
            for _ in range(24)]
        self.rng = random.Random(rng.randrange(10**6))
        self.current = self.clustered

    def after_setup(self, attempt: int) -> None:
        """The first set-up is a fresh build: its class verdicts are the
        reference for the warm verdicts of the session measured last."""
        if attempt:
            return
        for label in ("big", "tax"):
            reasoner = self.session.reasoner(self.schemas[label])
            for name in sorted(self.schemas[label].class_symbols):
                self.reference_class[label, name] = \
                    reasoner.is_satisfiable(name)

    def teardown(self) -> None:
        self.session = None

    # ------------------------------------------------------------------
    def run_round(self, index: int, trace) -> None:
        rng = self.rng
        steps = ([("class", "big")] * 3 + [("class", "tax"),
                 ("formula", "in"), ("formula", "cross"),
                 ("query", "tax"), ("query", "small_tax"),
                 ("query", "tax-nodb"), ("edit", None), ("edit", None)])
        rng.shuffle(steps)
        for kind, what in steps:
            if trace is not None:
                trace.new_op()
            if kind == "class":
                schema = self.schemas[what]
                name = rng.choice(sorted(schema.class_symbols))
                self._class_verdict(what, schema, name, trace)
            elif kind == "formula":
                pool = self.in_cluster if what == "in" else self.cross_cluster
                self._formula_verdict(rng.choice(pool), trace)
            elif kind == "query":
                label = "tax" if what == "tax-nodb" else what
                text = rng.choice(self.queries[label])
                database = None if what == "tax-nodb" \
                    else (label, rng.randrange(DATABASES))
                self._query(label, text, database, trace)
            else:
                new = _edit(self.current, rng)
                self._update(new, trace)
                for name in rng.sample(sorted(new.class_symbols), 2):
                    self._class_verdict("clustered", new, name, trace)

    def _timed(self, kind: str, call, output_of) -> bool:
        """Time one operation; a typed error counts as a failed one."""
        started = time.perf_counter()
        try:
            value = call()
        except CarError as exc:
            self.ops.record(kind, time.perf_counter() - started)
            self.ops.fail(f"{kind}: {type(exc).__name__}: {exc}",
                          wrong=False)
            return False
        self.ops.record(kind, time.perf_counter() - started,
                        output_of(value))
        return True

    def _class_verdict(self, label: str, schema: Schema, name: str,
                       trace) -> None:
        def call():
            with maybe_span(trace, "engine.session_lookup"):
                reasoner = self.session.reasoner(schema)
            with maybe_span(trace, "reasoner.class_verdict"):
                return reasoner.is_satisfiable(name)
        self._timed("verdict", call,
                    lambda verdict: ("class", label, schema, name, verdict))

    def _formula_verdict(self, formula: Formula, trace) -> None:
        schema = self.current

        def call():
            with maybe_span(trace, "engine.session_lookup"):
                reasoner = self.session.reasoner(schema)
            before = reasoner.timings().get("augmented_query", 0.0)
            with maybe_span(trace, "reasoner.formula_verdict") as span:
                verdict = reasoner.is_formula_satisfiable(formula)
            if span is not None:
                augmented = reasoner.timings().get("augmented_query", 0.0)
                span["augmented"] = augmented > before
            return verdict
        self._timed("verdict", call,
                    lambda verdict: ("formula", "clustered", schema, formula,
                                     verdict))

    def _query(self, label: str, text: str, database_key, trace) -> None:
        schema = self.schemas[label]
        database = self.databases[database_key] if database_key else None

        def call():
            if trace is None:
                return self.session.query(schema, text, database)
            with self._query_spans(schema, trace), \
                    trace.span("engine.query"):
                return self.session.query(schema, text, database)
        self._timed("query", call,
                    lambda answer: ("query", label, text, database_key,
                                    answer.answers, answer.boolean))

    @contextmanager
    def _query_spans(self, schema: Schema, trace):
        """Spans around the public calls ``SchemaSession.query`` makes on
        its own path: the reasoner lookup, ``parse_query``,
        ``QueryRewriter.rewrite``, one ``Reasoner.is_formula_satisfiable``
        per distinct membership combination of the database (the
        consistency scan), and ``evaluate_disjuncts``."""
        def rewritten(span, result):
            span["cached"] = result.cached
            span["disjuncts"] = len(result.disjuncts)

        reasoner = self.session.reasoner(schema)
        with ExitStack() as stack:
            for owner, attribute, name, note in (
                    (self.session, "reasoner", "engine.session_lookup", None),
                    (repro.qa, "parse_query", "qa.parse", None),
                    (repro.qa.QueryRewriter, "rewrite", "qa.rewrite",
                     rewritten),
                    (reasoner, "is_formula_satisfiable",
                     "reasoner.consistency_verdict", None),
                    (repro.qa.evaluator, "evaluate_disjuncts", "qa.evaluate",
                     None)):
                stack.enter_context(spans_around(trace, owner, attribute,
                                                 name, note))
            yield

    def _update(self, new: Schema, trace) -> None:
        old = self.current

        def call():
            with maybe_span(trace, "engine.update") as span:
                _, report = self.session.update(old, new)
            if span is not None:
                span["report"] = (report.clusters_reused,
                                  report.clusters_rebuilt,
                                  report.support_blocks_reused)
            return report
        if self._timed("edit", call, lambda report: ("edit", report.mode)):
            self.current = new

    # ------------------------------------------------------------------
    def verify(self) -> None:
        answers: dict = {}
        formulas: dict = {}
        classes: dict = {}
        for kind, output in self.ops.outputs:
            if output is None or output[0] == "edit":
                continue
            if output[0] == "class":
                _, label, schema, name, verdict = output
                if label == "clustered":
                    key = (schema_fingerprint(schema), name)
                    if key not in classes:
                        classes[key] = fresh_class_verdict(schema, name)
                    expected = classes[key]
                else:
                    expected = self.reference_class[label, name]
                what = f"{label}: class {name}"
            elif output[0] == "formula":
                _, label, schema, formula, verdict = output
                key = (schema_fingerprint(schema), formula)
                if key not in formulas:
                    formulas[key] = naive_formula_verdict(schema, formula)
                expected = formulas[key]
                what = f"formula {formula}"
            else:
                _, label, text, database_key, rows, boolean = output
                key = (label, text, database_key)
                if key not in answers:
                    database = (self.databases[database_key]
                                if database_key else None)
                    answers[key] = fresh_query_answer(
                        self.session, self.schemas[label], text, database)
                expected = answers[key]
                verdict = (rows, boolean)
                what = f"{label}: {text} (database {database_key})"
            if verdict != expected:
                self.ops.fail(f"{what}: got {verdict}, reference {expected}",
                              wrong=True)

    # ------------------------------------------------------------------
    def end_to_end(self) -> dict:
        ops = self.ops
        metrics = {"ops_per_s": (round_rate(self),
                                 "1/s", ops.plain_ops)}
        for kind, tail in (("verdict", 0.9), ("query", 0.9),
                           ("edit", 0.9)):
            values = ops.ms(kind)
            metrics[f"{kind}_p50_ms"] = (percentile(values, 0.5), "ms",
                                         len(values))
            metrics[f"{kind}_p90_ms"] = (percentile(values, tail), "ms",
                                         len(values))
        return metrics

    def per_layer(self, spans) -> dict:
        def of(name):
            return [s for s in spans.spans if s["name"] == name]

        def med(name):
            values = spans.durations_ms(name)
            return (median(values), "ms", len(values))

        metrics = {
            "engine.session_lookup_ms": med("engine.session_lookup"),
            "reasoner.class_verdict_ms": med("reasoner.class_verdict"),
            "reasoner.formula_verdict_ms": med("reasoner.formula_verdict"),
            "qa.parse_ms": med("qa.parse"),
            "qa.rewrite_ms": med("qa.rewrite"),
            "qa.evaluate_ms": med("qa.evaluate"),
            "engine.update_ms": med("engine.update"),
        }
        formulas = of("reasoner.formula_verdict")
        augmented = [(s["end"] - s["start"]) * 1000.0 for s in formulas
                     if s.get("augmented")]
        metrics["reasoner.augmented_share"] = (
            len(augmented) / max(len(formulas), 1), "ratio", len(formulas))
        metrics["reasoner.augmented_ms"] = (median(augmented), "ms",
                                            len(augmented))
        rewrites = of("qa.rewrite")
        metrics["qa.rewrite_cache_hit_ratio"] = (
            sum(s["cached"] for s in rewrites) / max(len(rewrites), 1),
            "ratio", len(rewrites))
        metrics["qa.disjuncts"] = (
            sum(s["disjuncts"] for s in rewrites) / max(len(rewrites), 1),
            "count", len(rewrites))
        # The consistency scan of one query: its verdict spans, summed.
        # Queries without a database make none and are left out.
        scans: dict[int, list[float]] = {}
        for span in of("reasoner.consistency_verdict"):
            scans.setdefault(span["op"], []).append(
                (span["end"] - span["start"]) * 1000.0)
        metrics["qa.consistency_ms"] = (
            median([sum(times) for times in scans.values()]), "ms",
            len(scans))
        metrics["qa.membership_combinations"] = (
            median([len(times) for times in scans.values()]), "count",
            len(scans))
        updates = of("engine.update")
        for position, name in enumerate(("engine.clusters_reused",
                                         "engine.clusters_rebuilt",
                                         "engine.support_blocks_reused")):
            metrics[name] = (
                sum(s["report"][position] for s in updates)
                / max(len(updates), 1), "count", len(updates))
        return metrics
