"""Record the golden output digests of every workload at the default seed.

    python3 perfbench/record_golden.py

Runs each op of each workload's instance list once, refuses to record an
output that breaks an invariant, and writes perfbench/golden.json. Re-record
only when an output is meant to change; the digests pin colour ids per
layer, `stable_at`, pair classes and first separating layers.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent


def main() -> int:
    sys.path.insert(0, str(BENCH.parent / "src"))
    from loader import load_inputs
    from workloads import DEFAULT_SEED, WORKLOADS

    digests = {}
    for name, workload in WORKLOADS.items():
        document, meta = workload.generate(DEFAULT_SEED)
        graphs, trials = load_inputs(document)
        digests[name] = []
        for position, op in enumerate(workload.ops(graphs, trials, meta)):
            output = op.run()
            problem = op.check(output)
            if problem is not None:
                print(f"{name} instance {position}: {problem}", file=sys.stderr)
                return 1
            digests[name].append(op.digest(output))
        print(f"{name}: {len(digests[name])} digests")
    golden = {"seed": DEFAULT_SEED, "digests": digests}
    (BENCH / "golden.json").write_text(json.dumps(golden, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
