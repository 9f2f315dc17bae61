"""Compare two sets of benchmark runs, metric by metric.

    python3 perfbench/compare.py BASE.txt NEW.txt

Each file holds the standard output of one or more ``perfbench/run.py``
runs.  Runs are grouped by workload and by trace mode; for each metric the
table shows the median and quartiles of each side and the change of the
median, and for end-to-end metrics whether it stays within the bound in
BENCHMARK.json.  Runs whose kernel route differs are not compared: they
measure different code.  Exits 1 if an end-to-end metric got worse by
more than its bound, 2 if the runs cannot be compared.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def load(path: str) -> list[dict]:
    records = []
    for line in Path(path).read_text().splitlines():
        if line.startswith('{"run_record"'):
            records.append(json.loads(line)["run_record"])
    return records


def summary(values: list[float]) -> tuple[float, float, float]:
    med = statistics.median(values)
    if len(values) < 2:
        return med, med, med
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[0]), load(argv[1])
    routes = {r["env"]["kernel_route"] for r in base + new}
    if len(routes) > 1:
        print(f"refusing to compare runs of different kernel routes: {sorted(routes)}", file=sys.stderr)
        return 2
    specs = {m["name"]: m for m in SPEC["end_to_end"] + SPEC["per_layer"]}
    regressed = False
    for w in (w["name"] for w in SPEC["workloads"]):
        for trace in (0, 1):
            sides = [[r for r in runs if r["workload"] == w and r["trace"] == trace] for runs in (base, new)]
            if not all(sides):
                continue
            print(f"\n{w} (trace {trace}): {len(sides[0])} base runs, {len(sides[1])} new runs")
            for name in sides[0][0]["metrics"]:
                m = specs[name]
                (b1, bm, b3), (n1, nm, n3) = (
                    summary([r["metrics"][name]["value"] for r in side]) for side in sides
                )
                change = (nm - bm) / bm if bm else 0.0
                worse = change if m["better"] == "lower" else -change
                verdict = ""
                if "bound" in m:
                    over = worse > m["bound"]
                    regressed |= over
                    verdict = f"WORSE than bound {m['bound']}" if over else "within bound"
                print(f"  {name:46s} {bm:12.5g} [{b1:.5g}, {b3:.5g}] -> {nm:12.5g} "
                      f"[{n1:.5g}, {n3:.5g}] {change:+8.2%} {m['unit']:6s} {verdict}")
    return 1 if regressed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
