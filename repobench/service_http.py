"""Workload ``service_http``: the query service over loopback HTTP.

``repro serve`` runs as a subprocess.  One generator process drives it
over two keep-alive connections, each a closed loop (these callers wait
for every reply), so the service never holds more than two requests.
Setup starts the server and registers three small schemas with
``PUT /v1/schemas``.  Every round, each connection sends the same mix in
a seeded order:

* 24 × ``POST /v1/satisfiable`` — half repeat a pool of 16 keys (result
  cache hits after their first use), half are first-seen formulas;
* 6 × ``POST /v1/query`` over ``taxonomy_schema(2, 2)`` — half from a
  pool of 8 queries × 4 databases, half with a first-seen database;
* 1 × ``PUT /v1/schemas/edit`` that alternates the schema between two
  versions that differ in one cluster.

Reasoning per request takes about a millisecond, so the wire, admission,
envelope, result cache and registry dominate.  Request-scoped
observability work belongs here and nowhere else.
"""

from __future__ import annotations

import http.client
import json
import os
import random
import select
import signal
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from harness import (OpLog, SpanTrace, maybe_span, median, percentile,
                     round_rate)

from repro.core.formulas import Clause, Formula, Lit, conjunction
from repro.core.schema import ClassDef, Schema
from repro.engine.session import SchemaSession, schema_fingerprint
from repro.parser.parser import parse_formula, parse_schema
from repro.parser.printer import render_schema
from repro.registry import SchemaRegistry
from repro.service.app import ReproService, ServiceConfig
from repro.workloads import clustered_schema
from repro.workloads.query_workloads import (query_workload,
                                             sample_database,
                                             taxonomy_schema)

CONNECTIONS = 2
STARTUP_TIMEOUT_S = 60.0
HEADERS = {"Content-Type": "application/json"}


def _unique_formulas(rng: random.Random, names: list[str], seen: set):
    """First-seen formula texts over ``names``, forever."""
    while True:
        picked = rng.sample(names, rng.randint(2, 4))
        literals = [Lit(name, rng.random() < 0.75) for name in picked]
        if len(literals) > 2 and rng.random() < 0.5:
            formula = Formula((Clause(tuple(literals[:2])),
                               *(Clause((lit,)) for lit in literals[2:])))
        else:
            formula = conjunction(literals)
        text = str(formula)
        if text not in seen:
            seen.add(text)
            yield text


class ServiceHttp:
    name = "service_http"
    setup_repeats = 3

    def __init__(self, seed: int, size: str = "full"):
        self.seed = seed
        self.size = size
        self.ops = OpLog()
        self.references_agree = True
        self.process = None
        self.connections: list = []
        self.traced_requests: list[tuple[str, str, bytes]] = []
        self.metrics_before = None
        self.metrics_after = None
        full = size == "full"
        self.per_round = ((12, 12, 3, 3) if full else (3, 3, 1, 1))
        # The schemas are fixed, so a round costs the same for every seed;
        # the seed drives the keys, formulas, queries, databases and order.
        self.hot = clustered_schema(4, 3 if full else 2, seed=0)
        base = clustered_schema(4, 3, seed=1)
        self.edit_versions = [base, _edited(base)]
        rng = random.Random(seed)
        self.query_schema = taxonomy_schema(2, 2)
        self.sources = {"hot": render_schema(self.hot),
                        "edit": render_schema(base),
                        "query": render_schema(self.query_schema)}
        self.version_sources = [render_schema(s) for s in self.edit_versions]
        self.by_fingerprint = {schema_fingerprint(s): s for s in
                               (self.hot, self.query_schema,
                                *self.edit_versions)}
        hot_names = sorted(self.hot.class_symbols)
        seen: set = set()
        fresh = _unique_formulas(rng, hot_names, seen)
        self.hot_pool = [next(fresh) for _ in range(16)]
        self.fresh = _unique_formulas(random.Random(rng.randrange(10**6)),
                                      hot_names, seen)
        self.queries = [text for _, text in query_workload(
            self.query_schema, per_shape=3, seed=rng.randrange(10**6))][:8]
        self.databases = [sample_database(self.query_schema, 8,
                                          seed=rng.randrange(10**6))
                          for _ in range(4)]
        self.db_seeds = random.Random(rng.randrange(10**6))
        self.rng = random.Random(rng.randrange(10**6))
        self.lock = threading.Lock()

    # ------------------------------------------------------------------
    # Server lifecycle (the set-up being timed)
    # ------------------------------------------------------------------
    def setup(self) -> None:
        # Generator and server share one CPU (the server inherits the
        # affinity, the connection threads start later and inherit it
        # too).  Across two CPUs each request wakes a thread on the other
        # CPU; on a host short of CPUs that cross-CPU wake-up is where
        # other guests' load shows: in such phases a round cost up to
        # half as much CPU time again.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        env = dict(os.environ, PYTHONPATH=str(Path("src").resolve()))
        self.process = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--host", "127.0.0.1",
             "--port", "0", "--no-artifact-cache", "--drain-grace", "5"],
            stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, env=env,
            preexec_fn=_die_with_parent)
        ready, _, _ = select.select([self.process.stdout], [], [],
                                    STARTUP_TIMEOUT_S)
        line = self.process.stdout.readline().decode() if ready else ""
        if "listening on http://" not in line:
            self.teardown()
            raise RuntimeError(f"repro serve did not start: {line!r}")
        self.port = int(line.rsplit(":", 1)[1].strip().rstrip("/"))
        # The server's process CPU-time clock: Linux encodes it as
        # (~pid << 3) | CPUCLOCK_SCHED (2), the id clock_getcpuclockid gives.
        self.server_clock = (~self.process.pid << 3) | 2
        self.connections = [http.client.HTTPConnection(
            "127.0.0.1", self.port, timeout=60) for _ in range(CONNECTIONS)]
        for name, source in self.sources.items():
            status, _ = self._send(self.connections[0], "PUT",
                                   f"/v1/schemas/{name}",
                                   {"schema": source})
            if status not in (200, 201):
                raise RuntimeError(f"registering {name} failed: {status}")
        self.pool = ThreadPoolExecutor(max_workers=CONNECTIONS)

    def after_setup(self, attempt: int) -> None:
        pass

    def clock(self) -> float:
        """CPU time of the generator and the server together: the work a
        round costs on both ends of the socket, without the time the host
        gave to other guests."""
        return time.process_time() + time.clock_gettime(self.server_clock)

    def teardown(self) -> None:
        for connection in self.connections:
            connection.close()
        self.connections = []
        if getattr(self, "pool", None) is not None:
            self.pool.shutdown(wait=True)
            self.pool = None
        if self.process is not None:
            self.process.send_signal(signal.SIGTERM)
            try:
                self.process.wait(timeout=20)
            except subprocess.TimeoutExpired:
                self.process.kill()
                self.process.wait(timeout=20)
            self.process.stdout.close()
            self.process = None

    # ------------------------------------------------------------------
    # HTTP
    # ------------------------------------------------------------------
    def _send(self, connection, method: str, path: str, document):
        body = json.dumps(document).encode()
        connection.request(method, path, body=body, headers=HEADERS)
        response = connection.getresponse()
        payload = response.read()
        return response.status, json.loads(payload)

    def _metrics(self) -> dict:
        connection = http.client.HTTPConnection("127.0.0.1", self.port,
                                                timeout=60)
        try:
            connection.request("GET", "/metrics")
            return json.loads(connection.getresponse().read())["data"]
        finally:
            connection.close()

    def _requests(self, index: int, lane: int) -> list[tuple]:
        """One connection's seeded share of a round."""
        hot, fresh, pooled, fresh_db = self.per_round
        with self.lock:
            rng = self.rng
            plan = [("POST", "/v1/satisfiable",
                     {"schema_ref": "hot", "formula": rng.choice(
                         self.hot_pool)}) for _ in range(hot)]
            plan += [("POST", "/v1/satisfiable",
                      {"schema_ref": "hot", "formula": next(self.fresh)})
                     for _ in range(fresh)]
            plan += [("POST", "/v1/query",
                      {"schema_ref": "query",
                       "query": rng.choice(self.queries),
                       "database": rng.choice(self.databases)})
                     for _ in range(pooled)]
            plan += [("POST", "/v1/query",
                      {"schema_ref": "query",
                       "query": rng.choice(self.queries),
                       "database": sample_database(
                           self.query_schema, 6,
                           seed=self.db_seeds.randrange(10**9))})
                     for _ in range(fresh_db)]
            version = (index + lane) % 2
            plan.append(("PUT", "/v1/schemas/edit",
                         {"schema": self.version_sources[version]}))
            rng.shuffle(plan)
        return plan

    def run_round(self, index: int, trace) -> None:
        if self.metrics_before is None:
            self.metrics_before = self._metrics()
        plans = [self._requests(index, lane) for lane in range(CONNECTIONS)]
        if trace is not None:
            self.traced_requests.extend(
                request for plan in plans for request in plan)
        futures = [self.pool.submit(self._drive, lane, plan, trace)
                   for lane, plan in enumerate(plans)]
        for future in futures:
            future.result()

    def _drive(self, lane: int, plan, trace) -> None:
        ops = self.ops
        for method, path, document in plan:
            route = path.rsplit("/", 1)[-1] if method == "POST" else "put"
            started = time.perf_counter()
            try:
                with maybe_span(trace if lane == 0 else None,
                                f"bench.http_{route}"):
                    status, payload = self._send(self.connections[lane],
                                                 method, path, document)
            except (OSError, http.client.HTTPException, ValueError) as exc:
                with self.lock:
                    ops.record("http", time.perf_counter() - started)
                    ops.fail(f"{method} {path}: {type(exc).__name__}: "
                             f"{exc}", wrong=False)
                self.connections[lane].close()
                continue
            seconds = time.perf_counter() - started
            with self.lock:
                ops.record("http", seconds,
                           (route, document, status, payload))
                ops.sample(route, seconds)

    # ------------------------------------------------------------------
    # Correctness
    # ------------------------------------------------------------------
    def verify(self) -> None:
        self.metrics_after = self._metrics()
        session = SchemaSession()
        verdicts: dict = {}
        answers: dict = {}
        expected_put = {schema_fingerprint(parse_schema(source))
                        for source in self.version_sources}
        for kind, output in self.ops.outputs:
            if output is None:
                continue
            route, document, status, payload = output
            if not 200 <= status < 300 or not payload.get("ok"):
                self.ops.fail(f"{route}: HTTP {status} "
                              f"{payload.get('error')}", wrong=False)
                continue
            data = payload["data"]
            if route == "put":
                got = data["schema"]["fingerprint"]
                if got not in expected_put:
                    self.ops.fail(f"put: unexpected fingerprint {got}",
                                  wrong=True)
                continue
            schema = self.by_fingerprint.get(data["schema_fingerprint"])
            if schema is None:
                self.ops.fail(f"{route}: unknown schema fingerprint",
                              wrong=True)
                continue
            if route == "satisfiable":
                key = (data["schema_fingerprint"], document["formula"])
                if key not in verdicts:
                    verdicts[key] = session.reasoner(schema) \
                        .is_formula_satisfiable(
                            parse_formula(document["formula"]))
                got, expected = data["verdict"], verdicts[key]
            else:
                key = (document["query"],
                       json.dumps(document["database"], sort_keys=True))
                if key not in answers:
                    answer = session.query(schema, document["query"],
                                           document["database"])
                    answers[key] = ([list(row) for row in answer.answers],
                                    answer.boolean)
                got, expected = (data["answers"], data["boolean"]), \
                    answers[key]
            if got != expected:
                self.ops.fail(f"{route} {document.get('formula') or key}: "
                              f"got {got}, in-process {expected}",
                              wrong=True)

    # ------------------------------------------------------------------
    # Metrics
    # ------------------------------------------------------------------
    def end_to_end(self) -> dict:
        ops = self.ops
        http_ms = ops.ms("http")
        sat_ms = ops.ms("satisfiable")
        metrics = {
            "ops_per_s": (round_rate(self), "1/s", ops.plain_ops),
            "verdict_p50_ms": (percentile(sat_ms, 0.5), "ms", len(sat_ms)),
            "verdict_p90_ms": (percentile(sat_ms, 0.9), "ms", len(sat_ms)),
        }
        for kind, label in (("query", "query"), ("put", "edit")):
            values = ops.ms(kind)
            metrics[f"{label}_p50_ms"] = (percentile(values, 0.5), "ms",
                                          len(values))
            metrics[f"{label}_p90_ms"] = (percentile(values, 0.9), "ms",
                                          len(values))
        metrics["http_p50_ms"] = (percentile(http_ms, 0.5), "ms",
                                  len(http_ms))
        metrics["http_p99_ms"] = (percentile(http_ms, 0.99), "ms",
                                  len(http_ms))
        return metrics

    def per_layer(self, spans: SpanTrace) -> dict:
        traced = self.ops.traced_latencies
        metrics = {}
        for route, name in (("satisfiable", "service.satisfiable_p50_ms"),
                            ("query", "service.query_p50_ms"),
                            ("put", "service.put_p50_ms")):
            values = [s * 1000.0 for s in traced.get(route, ())]
            metrics[name] = (percentile(values, 0.5), "ms", len(values))
        before, after = self.metrics_before, self.metrics_after
        hits = after["result_cache"]["hits"] - before["result_cache"]["hits"]
        misses = (after["result_cache"]["misses"]
                  - before["result_cache"]["misses"])
        metrics["service.result_cache_hit_ratio"] = (
            hits / max(hits + misses, 1), "ratio", hits + misses)
        rejected = (after["admission"]["rejected"]
                    - before["admission"]["rejected"])
        metrics["service.rejected"] = (rejected, "count", 1)
        dispatch = self._replay(spans)
        http_ms = [s * 1000.0 for s in traced.get("http", ())]
        metrics["service.dispatch_ms"] = (median(dispatch), "ms",
                                          len(dispatch))
        metrics["service.wire_ms"] = (median(http_ms) - median(dispatch),
                                      "ms", len(http_ms))
        puts = spans.durations_ms("registry.put")
        parses = spans.durations_ms("parser.parse_schema")
        metrics["registry.put_ms"] = (median(puts), "ms", len(puts))
        metrics["parser.parse_schema_ms"] = (median(parses), "ms",
                                             len(parses))
        return metrics

    def _replay(self, spans: SpanTrace) -> list[float]:
        """The traced rounds' requests through an in-process
        ``ReproService.dispatch`` (no sockets), plus direct calls into the
        registry and the parser for the edited schema's sources."""
        service = ReproService(ServiceConfig(port=0))
        for name, source in self.sources.items():
            service.registry.put(name, source)
        timings = []
        for method, path, document in self.traced_requests:
            body = json.dumps(document).encode()
            spans.new_op()
            with spans.span("service.dispatch") as span:
                service.dispatch(method, path, HEADERS, body)
            timings.append((span["end"] - span["start"]) * 1000.0)
        service.session.close()
        registry = SchemaRegistry(SchemaSession())
        for _ in range(4):
            for source in self.version_sources:
                spans.new_op()
                with spans.span("parser.parse_schema"):
                    parse_schema(source)
                with spans.span("registry.put"):
                    registry.put("edit", source)
        return timings


def _die_with_parent() -> None:
    """In the server child before exec: have the kernel send it SIGTERM
    should the benchmark die without tearing it down."""
    import ctypes

    pr_set_pdeathsig = 1
    ctypes.CDLL(None).prctl(pr_set_pdeathsig, signal.SIGTERM)


def _edited(schema: Schema) -> Schema:
    """``schema`` with one class of one cluster redefined."""
    clause = Clause((Lit("K1_0", False), Lit("K1_1")))
    return Schema([ClassDef("K1_2", Formula((clause,)))
                   if cdef.name == "K1_2" else cdef
                   for cdef in schema.class_definitions])
