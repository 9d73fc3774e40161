"""``python -m bench.compare A.json B.json``: did B regress against A?

For every workload x end-to-end metric of two result files written by
``python -m bench``, prints both medians, the relative change and the
bound, and marks the pair

* ``ok`` — B is no worse than A by more than the bound,
* ``regressed`` — it is,
* ``unresolved`` — the run-to-run spread of either side (interquartile
  distance over its samples, as a share of the median) is wider than the
  bound, so the pair decides nothing.

Exits non-zero when any pair regressed.  Smoke results are refused.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from bench.metrics import END_TO_END, OPS_FAILED, SERVICE_LATENCY, spread


def verdict(name: str, bound: float, a: dict, b: dict) -> tuple[str, float, float]:
    """``(mark, relative change, widest spread)`` of one metric of one workload."""
    before, after = a["end_to_end"][name], b["end_to_end"][name]
    widest = max(spread(side["samples"].get(name, [])) for side in (a, b))
    if name == OPS_FAILED.name:
        return ("regressed" if after > 0 else "ok"), after - before, widest
    change = (after - before) / before if before else 0.0
    if widest > bound:
        return "unresolved", change, widest
    # Every end-to-end metric is lower-is-better.
    return ("regressed" if change > bound else "ok"), change, widest


def compare(a: dict, b: dict, out=sys.stdout) -> int:
    """Print the table; returns the number of regressed pairs."""
    regressed = 0
    print(f"{'workload':<18s}{'metric':<20s}{'A':>12s}{'B':>12s}{'change':>9s}{'bound':>7s}{'spread':>8s}  verdict", file=out)
    for workload, before in a["workloads"].items():
        after = b["workloads"].get(workload)
        if after is None:
            print(f"{workload:<18s}missing from B", file=out)
            regressed += 1
            continue
        for metric in (*END_TO_END, OPS_FAILED, *SERVICE_LATENCY):
            if metric.name not in before["end_to_end"]:
                continue
            mark, change, widest = verdict(metric.name, metric.bound, before, after)
            regressed += mark == "regressed"
            print(
                f"{workload:<18s}{metric.name:<20s}{before['end_to_end'][metric.name]:>12.5g}"
                f"{after['end_to_end'][metric.name]:>12.5g}{change:>+9.1%}{metric.bound:>7.0%}{widest:>8.1%}  {mark}",
                file=out,
            )
    return regressed


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="python -m bench.compare", description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="result file of the parent commit")
    parser.add_argument("b", type=Path, help="result file of the change")
    args = parser.parse_args(argv)
    a, b = (json.loads(path.read_text()) for path in (args.a, args.b))
    for path, body in ((args.a, a), (args.b, b)):
        if body.get("label") != "standard":
            print(f"bench.compare: {path} is a {body.get('label')!r} result; only standard runs compare", file=sys.stderr)
            return 2
    return 1 if compare(a, b) else 0


if __name__ == "__main__":
    raise SystemExit(main())
