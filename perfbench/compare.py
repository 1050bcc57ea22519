"""Compare two sets of benchmark results, metric by metric.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by run.py (perfbench/out/*.json).
For every workload and metric it prints the median of each set and the
change; an end-to-end metric whose new median is worse than the base median
by more than its bound in BENCHMARK.json is marked WORSE. Results measured
with different refinement kernels (`refine_backend`) are not comparable, and
the script refuses them with exit code 2. It exits 1 when a bound is broken.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> list[dict]:
    return [
        json.loads(path.read_text())
        for path in sorted(Path(directory).glob("*.json"))
        if not path.name.endswith("-spans.json")
    ]


def by_metric(results: list[dict]) -> dict[tuple, list[float]]:
    values: dict[tuple, list[float]] = {}
    for r in results:
        for name, m in r["metrics"].items():
            values.setdefault((r["workload"], name), []).append(m["value"])
    return values


def main(argv: list[str]) -> int:
    if len(argv) != 3:
        print(__doc__, file=sys.stderr)
        return 2
    base, new = load(argv[1]), load(argv[2])
    backends = {r["env"]["refine_backend"] for r in base + new}
    if len(backends) > 1:
        print(f"refusing to compare results from different kernels: {sorted(backends)}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base_values, new_values = by_metric(base), by_metric(new)
    broken = 0
    print(f"{'workload':15s} {'metric':28s} {'base':>12s} {'new':>12s} {'change':>8s}")
    for key in sorted(base_values.keys() & new_values.keys()):
        workload, name = key
        b, n = statistics.median(base_values[key]), statistics.median(new_values[key])
        change = (n - b) / b if b else 0.0
        spec_m = metrics.get(name, {})
        worse = change if spec_m.get("better", "lower") == "lower" else -change
        flag = ""
        if "bound" in spec_m and worse > spec_m["bound"]:
            flag = f"  WORSE (bound {spec_m['bound']})"
            broken += 1
        print(f"{workload:15s} {name:28s} {b:12.6g} {n:12.6g} {change:+8.1%}{flag}")
    return 1 if broken else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
