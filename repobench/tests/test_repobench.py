"""The benchmark's own tests: tiny runs of every workload, the metric
contract with ``BENCHMARK.json``, and a correctness check that can fail.

Run from the repository root::

    python3 -m pytest -q repobench/tests
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
BENCH = ROOT / "repobench"
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import compare  # noqa: E402
import run  # noqa: E402
from repro.parser.parser import parse_schema  # noqa: E402

WORKLOADS = ("compile_cold", "session_mix", "service_http")


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _cli(workload: str, trace: int, seed: int = 3) -> dict:
    done = subprocess.run(
        [sys.executable, "repobench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", str(trace),
         "--size", "tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr[-3000:]
    lines = done.stdout.strip().splitlines()
    return {"final": json.loads(lines[-1]), "report": lines[:-1]}


def test_benchmark_json_matches_the_metrics_the_runner_emits():
    spec = _spec()
    assert spec["command"] == ["python3", "repobench/run.py"]
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} \
        == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} \
        == run.PER_LAYER


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_named_metric(workload, trace):
    spec = _spec()
    key = "per_layer" if trace else "end_to_end"
    out = _cli(workload, trace)
    final = out["final"]
    assert set(final) == {"correct", "attempted", "failed", "metrics"}
    assert final["attempted"] >= 1
    names = [m["name"] for m in spec[key]]
    assert sorted(final["metrics"]) == sorted(names)
    for metric in spec[key]:
        emitted = final["metrics"][metric["name"]]
        assert emitted["unit"] == metric["unit"]
        assert isinstance(emitted["value"], (int, float))
    if not trace:
        for metric in spec["end_to_end"]:
            assert final["metrics"][metric["name"]]["value"] > 0
    printed = {line.split()[0] for line in out["report"]
               if "samples=" in line}
    assert set(names) <= printed
    assert "error_rate" in printed
    if trace:
        overhead = final["metrics"]["obs.tracing_overhead"]["value"]
        assert overhead > 0


def test_counterexample_reference_says_a_is_satisfiable():
    import compile_cold

    (label, source), = compile_cold.KNOWN_DEFECTS
    assert all(item[0] != label for item in compile_cold._draw(3, "tiny"))
    # A is satisfiable (ROADMAP open item 1): a default-strategy verdict
    # that says otherwise is reported as a known defect.
    assert compile_cold.naive_verdicts(parse_schema(source))["A"] is True


def test_known_defect_disagreement_is_reported(monkeypatch):
    import compile_cold

    (_, source), = compile_cold.KNOWN_DEFECTS
    flipped = {name: not verdict for name, verdict in
               compile_cold.naive_verdicts(parse_schema(source)).items()}
    honest = len(compile_cold.known_defects())
    monkeypatch.setattr(compile_cold, "naive_verdicts",
                        lambda schema: dict(flipped))
    # Against flipped references every class disagrees, except those
    # whose default verdict was already wrong.
    assert len(compile_cold.known_defects()) == len(flipped) - honest


def test_wrong_reference_verdict_is_counted_on_compile_cold(monkeypatch):
    import compile_cold

    monkeypatch.chdir(ROOT)
    baseline = run.run("compile_cold", 5, 0.5, False, "tiny")
    reference = compile_cold.reference_verdicts
    monkeypatch.setattr(
        compile_cold, "reference_verdicts",
        lambda kind, source, data: {
            name: not verdict
            for name, verdict in reference(kind, source, data).items()})
    broken = run.run("compile_cold", 5, 0.5, False, "tiny")
    assert broken["failed"] > baseline["failed"]
    assert broken["correct"] is False


def test_wrong_reference_verdict_is_counted_in_error_rate(monkeypatch,
                                                           capsys):
    import session_mix

    monkeypatch.chdir(ROOT)
    baseline = run.run("session_mix", 5, 0.5, False, "tiny")
    assert baseline["failed"] == 0 and baseline["correct"]
    monkeypatch.setattr(session_mix, "fresh_class_verdict",
                        lambda schema, name: None)
    broken = run.run("session_mix", 5, 0.5, False, "tiny")
    report = capsys.readouterr().out
    assert broken["failed"] > 0
    assert broken["correct"] is False
    rate = [line for line in report.splitlines()
            if line.startswith("error_rate")][-1]
    assert float(rate.split()[1]) > 0


def test_without_program_source_the_benchmark_fails(tmp_path):
    done = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload",
         "compile_cold", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""


def test_compare_reports_layer_ratios_with_their_base(tmp_path, capsys):
    def summary(name: str, self_s: float) -> str:
        path = tmp_path / name
        path.write_text(json.dumps({
            "header": {"workload": "session_mix"},
            "metrics": {
                "qa.self_s": {"value": self_s, "unit": "s", "samples": 1},
                "qa.disjuncts": {"value": 4, "unit": "count",
                                 "samples": 9},
                "ops_per_s": {"value": 1.0, "unit": "1/s", "samples": 9}}}))
        return str(path)

    compare.main(["--base", summary("a.json", 2.0), summary("b.json", 4.0),
                  "--new", summary("c.json", 1.5)])
    out = capsys.readouterr().out
    line = [row for row in out.splitlines() if row.startswith("qa.self_s")]
    assert line and "3" in line[0] and "0.500x" in line[0]
    assert "ops_per_s" not in out
