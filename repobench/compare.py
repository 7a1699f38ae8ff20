"""Per-layer diff of traced runs: where did the time go, before and after.

Each traced run (``run.py --trace 1``) writes
``.bench_out/<workload>-seed<N>-summary.json``.  Give this tool the
summaries of the base commit and of the change, one or more each (the
median per metric is used), all of one workload::

    python3 repobench/compare.py --base base/*.json --new new/*.json

For every layer it prints the self time and each counter of the traced
run as ``new / base`` with the base value beside it, so a change can show
in which layer its saving appears.  Nothing here decides pass or fail.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path


def write(line: str) -> None:
    sys.stdout.write(line + "\n")


def load(paths: list[str]) -> tuple[str, dict[str, tuple[float, str]]]:
    """Median value per metric over several summaries of one workload."""
    workloads = set()
    values: dict[str, list[float]] = {}
    units: dict[str, str] = {}
    for path in paths:
        summary = json.loads(Path(path).read_text())
        workloads.add(summary["header"]["workload"])
        for name, metric in summary["metrics"].items():
            values.setdefault(name, []).append(metric["value"])
            units[name] = metric["unit"]
    if len(workloads) != 1:
        raise SystemExit(f"summaries mix workloads: {sorted(workloads)}")
    return workloads.pop(), {name: (statistics.median(v), units[name])
                             for name, v in values.items()}


def rows(base: dict, new: dict) -> list[tuple[str, str, float, float, str]]:
    """``(layer, metric, base, new, unit)``, self time first per layer."""
    table = []
    for name in sorted(set(base) & set(new),
                       key=lambda n: (n.split(".")[0],
                                      not n.endswith(".self_s"), n)):
        if "." not in name:
            continue  # end-to-end metrics: see run.py's own report
        table.append((name.split(".")[0], name, base[name][0],
                      new[name][0], base[name][1]))
    return table


def ratio(base: float, new: float) -> str:
    if base == 0:
        return "  n/a (base 0)" if new else "   - (both 0)"
    return f"{new / base:12.3f}x"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--base", nargs="+", required=True,
                        help="summaries of the base commit")
    parser.add_argument("--new", nargs="+", required=True,
                        help="summaries of the change")
    args = parser.parse_args(argv)
    base_workload, base = load(args.base)
    new_workload, new = load(args.new)
    if base_workload != new_workload:
        raise SystemExit(f"workloads differ: {base_workload} vs "
                         f"{new_workload}")
    write(f"workload {base_workload}: {len(args.base)} base run(s), "
          f"{len(args.new)} new run(s); ratio = new / base")
    write(f"{'metric':<34} {'base':>14} {'new':>14} {'ratio':>13}  unit")
    layer = None
    for group, name, old, fresh, unit in rows(base, new):
        if group != layer:
            write(f"-- {group}")
            layer = group
        write(f"{name:<34} {old:>14.6g} {fresh:>14.6g} "
              f"{ratio(old, fresh)}  {unit}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
