"""Compare two ``run.py --all`` documents: ``python bench/compare.py A.json B.json``.

``A`` is the baseline (the parent commit), ``B`` the candidate.  For every
workload, in its own row, each end-to-end metric of ``BENCHMARK.json`` is
judged by the medians of the untraced runs on either side:

* ``regressed`` / ``improved`` — B's median is worse / better than A's by
  more than the metric's bound;
* ``unchanged`` — within the bound;
* ``unresolved`` — the run-to-run spread on either side is wider than the
  bound, so the medians cannot tell; unless every run of B reads better
  than every run of A (``improved``) or worse (``regressed``).

The ``counts`` of a workload (rows, chunks, bytes, cache tallies, rows
scanned) must be identical across every run of A and B made at one seed.
Per-layer metrics of the traced runs are listed side by side without a
verdict.  The exit code is 1 when anything regressed, a count differs or an
operation failed.
"""

from __future__ import annotations

import json
import os
import statistics
import sys
from typing import Dict, List, Optional

BENCHMARK = os.path.join(
    os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "BENCHMARK.json"
)


def load(path: str) -> Dict:
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def runs_of(document: Dict, workload: str, trace: int) -> List[Dict]:
    return [
        run
        for run in document["runs"]
        if run["workload"] == workload and run["trace"] == trace
    ]


def spread(values: List[float]) -> Optional[float]:
    """Run-to-run spread as a share of the median; ``None`` from one run."""
    if len(values) < 2:
        return None
    median = statistics.median(values)
    if len(values) >= 4:
        quartiles = statistics.quantiles(values, n=4)
        return (quartiles[2] - quartiles[0]) / median
    return (max(values) - min(values)) / median


def verdict(before: List[float], after: List[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    # Positive = worse, as a share of the baseline median.
    worse = sign * (statistics.median(after) / statistics.median(before) - 1.0)
    spreads = [s for s in (spread(before), spread(after)) if s is not None]
    if spreads and max(spreads) > bound:
        if all(sign * b < sign * a for a in before for b in after):
            return "improved"
        if all(sign * b > sign * a for a in before for b in after):
            return "regressed"
        return "unresolved"
    if worse > bound:
        return "regressed"
    if worse < -bound:
        return "improved"
    return "unchanged"


def differing_counts(runs: List[Dict]) -> List[str]:
    """Names of the counts that are not the same in every one of ``runs``."""
    names = sorted({name for run in runs for name in run["counts"]})
    return [
        name
        for name in names
        if len({json.dumps(run["counts"].get(name)) for run in runs}) > 1
    ]


def main(argv: List[str]) -> int:
    if len(argv) != 3:
        print(__doc__.split("\n\n")[0], file=sys.stderr)
        return 2
    before, after = load(argv[1]), load(argv[2])
    benchmark = load(BENCHMARK)
    bad = False
    for workload in (entry["name"] for entry in benchmark["workloads"]):
        print(workload)
        a_runs, b_runs = runs_of(before, workload, 0), runs_of(after, workload, 0)
        if not a_runs or not b_runs:
            print("  missing on one side")
            bad = True
            continue
        for metric in benchmark["end_to_end"]:
            name = metric["name"]
            a = [run["metrics"][name]["value"] for run in a_runs]
            b = [run["metrics"][name]["value"] for run in b_runs]
            status = verdict(a, b, metric["better"], metric["bound"])
            bad |= status == "regressed"
            print(
                f"  {name:22s} {statistics.median(a):14.4f} -> {statistics.median(b):14.4f} "
                f"{metric['unit']:7s} ({len(a)} vs {len(b)} runs, bound {metric['bound']:.0%})  {status}"
            )
        failed = sum(run["failed"] for run in a_runs + b_runs)
        attempted = sum(run["attempted"] for run in a_runs + b_runs)
        print(f"  failed operations      {failed} of {attempted}")
        bad |= failed > 0
        for trace in (0, 1):
            both = runs_of(before, workload, trace) + runs_of(after, workload, trace)
            if len({run["seed"] for run in both}) > 1:
                print(f"  counts (trace {trace})       not compared: seeds differ")
            elif len(both) > 1:
                names = differing_counts(both)
                bad |= bool(names)
                print(
                    f"  counts (trace {trace})       "
                    + (f"DIFFER: {', '.join(names)}" if names else f"identical in {len(both)} runs")
                )
        a_traced, b_traced = runs_of(before, workload, 1), runs_of(after, workload, 1)
        if a_traced and b_traced:
            for layer in benchmark["per_layer"]:
                name = layer["name"]
                a = statistics.median(run["metrics"][name]["value"] for run in a_traced)
                b = statistics.median(run["metrics"][name]["value"] for run in b_traced)
                if a or b:
                    print(f"    {name:34s} {a:16.6g} -> {b:16.6g} {layer['unit']}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
