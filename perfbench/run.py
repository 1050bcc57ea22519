"""Run one seeded workload of the tempowl benchmark and print its metrics.

    python3 perfbench/run.py --workload classify_twins --seed 0 --seconds 25 --trace 0

Run from the repository root; the engine is imported from `src/`. One
client runs ops back to back (closed loop) in this process, cycling through
the workload's instance list, until the ops have taken `--seconds` in all
(in reference seconds, below) and at least MIN_OPS have run. One untimed warm-up op runs first;
`gc.collect()` runs between ops, outside the timed region, with the GC left
enabled. Every op's output is checked (see workloads.py); an op fails if it
raises, breaks an invariant, or its digest differs from the golden digest of
the default seed or from an earlier run of the same instance.

The op times behind ops_per_s, op_p50_s and op_tail_s are in reference
seconds: a fixed calibration routine runs after the warm-up and after every
op, and each op's wall time is scaled by how much slower or faster than the
reference the passes around it ran (see hostspeed.py). The wall-clock figures
are printed and kept in the full result too. setup_s is in reference
seconds as well. op_p50_s weighs every instance of the cycle the same
(`instance_median`).

With `--trace 0` the last line of stdout is a JSON object with the
end-to-end metrics; with `--trace 1` it has the per-layer metrics of a
traced run, in which each instance runs once untraced and once traced, so
the tracing overhead is measured on the same ops. The full result (with the
environment record and every latency) is written to perfbench/out/.
"""

from __future__ import annotations

import argparse
import gc
import json
import resource
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path
from typing import NamedTuple

from hostspeed import adjust, calibration_pass, pin_to_one_cpu

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
TAIL_BEYOND = 10
MIN_OPS = 2 * TAIL_BEYOND  # so that op_tail_s exists and sits at p50 or above
SETUP_REPEATS = 21
DEADLINE_S = 150  # the loop stops this long after start, even short of MIN_OPS
SETUP_CHILD = (
    "import sys, time\n"
    "sys.path[:0] = sys.argv[1:3]\n"
    "import hostspeed\n"
    "before = hostspeed.calibration_pass()\n"
    "start = time.perf_counter()\n"
    "import tempowl, loader\n"
    "with open(sys.argv[3], encoding='utf-8') as f:\n"
    "    loader.load_inputs(f.read())\n"
    "elapsed = time.perf_counter() - start\n"
    "print(hostspeed.adjust(elapsed, before, hostspeed.calibration_pass()))\n"
)


def tail(latencies: list[float], beyond: int = TAIL_BEYOND) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with `beyond` samples above it.

    Nearest rank: with n samples the value is the (n - beyond)-th smallest,
    which is the 100 * (n - beyond) / n percentile; any higher percentile
    leaves fewer than `beyond` samples beyond it.
    """
    n = len(latencies)
    if n <= beyond:
        raise ValueError(f"{n} samples leave no percentile with {beyond} beyond it")
    rank = n - beyond
    return sorted(latencies)[rank - 1], 100.0 * rank / n


class Latency(NamedTuple):
    position: int  # the op's place in the workload's instance list
    wall: float  # wall seconds
    ref: float  # reference seconds (hostspeed.py)


def instance_median(latencies: list[Latency], field: str = "ref") -> float:
    """Median over the instances run of each instance's median latency.

    Op costs cluster by instance, so the plain median of a run that stopped
    part-way through a cycle depends on where it stopped, and it jumps
    between the clusters on either side of it. Weighing every instance the
    same removes both; when every instance ran once it is the plain median.
    """
    by_instance: dict[int, list[float]] = defaultdict(list)
    for latency in latencies:
        by_instance[latency.position].append(getattr(latency, field))
    return statistics.median(statistics.median(v) for v in by_instance.values())


def measure_setup(inputs: Path) -> float:
    """Median time, in reference seconds, that a fresh interpreter takes to
    import tempowl and load the inputs.

    Each child times itself from just before `import tempowl` to the end of
    the load, and scales that by calibration passes it runs just before and
    just after, on the same CPU. The interpreter's own start-up, which no
    change to tempowl can move, is left out: it is mostly process creation,
    whose speed on a shared host the passes do not track. The child runs
    isolated and without `site` (-I -S), so the host's site-packages hooks
    stay out of its imports.
    """
    times = []
    for _ in range(SETUP_REPEATS):
        child = subprocess.run(
            [sys.executable, "-I", "-S", "-c", SETUP_CHILD, str(SRC), str(BENCH), str(inputs)],
            stdin=subprocess.DEVNULL,
            capture_output=True,
            text=True,
            check=True,
            timeout=120,
        )
        times.append(float(child.stdout))
    return statistics.median(times)


class Runner:
    """Runs ops one at a time and checks each output."""

    def __init__(self, ops, golden: list[str], tracer=None) -> None:
        self.ops = ops
        self.expected = dict(enumerate(golden))
        self.tracer = tracer
        self.attempted = 0
        self.failures: list[str] = []
        self.traced_ops: list[int] = []

    def run(self, k: int, op_id=None) -> tuple[float, bool]:
        """Run op k of the cycle, traced as `op_id` if given: (seconds, completed)."""
        position = k % len(self.ops)
        op = self.ops[position]
        self.attempted += 1
        if op_id is not None:
            self.tracer.enable(op_id)
        start = time.perf_counter()
        try:
            output = op.run()
            completed = True
        except Exception as exc:  # a raising op is a failed op; the run goes on
            problem, completed = f"raised {exc!r}", False
        finally:
            elapsed = time.perf_counter() - start
            if op_id is not None:
                self.tracer.disable()
        if completed:
            if op_id is not None:
                self.traced_ops.append(op_id)
            try:
                problem = op.check(output)
                found = op.digest(output)
            except Exception as exc:  # a malformed output is a failed op too
                problem = f"checking the output raised {exc!r}"
            else:
                expected = self.expected.setdefault(position, found)
                if problem is None and found != expected:
                    problem = f"digest {found}, expected {expected}"
            del output
        if problem is not None:
            self.failures.append(f"op {k} (instance {position}): {problem}")
        gc.collect()
        return elapsed, completed


def timed_loop(
    runner: Runner, seconds: float, traced: bool, deadline: float
) -> tuple[list[Latency], list[Latency], float]:
    """Closed loop; returns (untraced latencies, traced latencies, op seconds).

    Reference seconds come from the calibration passes just before and just
    after each op. The loop runs until the ops have taken `seconds` reference
    seconds, so a run covers the same ops of the cycle however fast the host
    happens to be.
    """
    plain: list[Latency] = []
    with_trace: list[Latency] = []
    measured = 0.0
    k = 0
    before = calibration_pass()
    while (measured < seconds or k < MIN_OPS) and time.perf_counter() < deadline:
        # traced mode runs each instance twice, alternating which run is traced first
        for op_id in ((None, k), (k, None))[k % 2] if traced else (None,):
            elapsed, completed = runner.run(k, op_id)
            after = calibration_pass()
            latency = Latency(k % len(runner.ops), elapsed, adjust(elapsed, before, after))
            measured += latency.ref
            if completed:
                (plain if op_id is None else with_trace).append(latency)
            before = after
        k += 1
    return plain, with_trace, measured


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    if not (SRC / "tempowl" / "__init__.py").is_file():
        print(f"no tempowl sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import envinfo
    import layers
    from loader import load_inputs
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        print(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}", file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    golden = json.loads((BENCH / "golden.json").read_text())
    expected = golden["digests"][workload.name] if args.seed == golden["seed"] else []

    env = envinfo.environment(ROOT)  # before pinning, so that nproc counts every CPU allowed
    pin_to_one_cpu()
    document, meta = workload.generate(args.seed)
    OUT.mkdir(exist_ok=True)
    stem = OUT / f"{workload.name}-seed{args.seed}-trace{args.trace}"
    inputs = stem.with_name(stem.name + "-inputs.json")
    inputs.write_text(document, encoding="utf-8")
    setup_s = measure_setup(inputs)
    tracer = layers.make_tracer() if args.trace else None
    if tracer:
        tracer.enable(layers.LOAD_OP)
    graphs, trials = load_inputs(document)
    if tracer:
        tracer.disable()
    runner = Runner(workload.ops(graphs, trials, meta), expected, tracer)
    del graphs, trials, document
    runner.run(0)  # warm-up
    plain, with_trace, measured = timed_loop(runner, args.seconds, bool(args.trace), deadline)
    if len(plain) < MIN_OPS:
        print(f"only {len(plain)} ops completed; need {MIN_OPS}", file=sys.stderr)
        for line in runner.failures[:20]:
            print(line, file=sys.stderr)
        return 1

    wall = [latency.wall for latency in plain]
    ref = [latency.ref for latency in plain]
    p50 = instance_median(plain)
    tail_s, tail_pct = tail(ref)
    failed = len(runner.failures)
    if args.trace:
        traced_p50 = instance_median(with_trace)
        metrics = layers.per_layer(tracer, runner.traced_ops, sum(t.wall for t in with_trace))
        metrics["trace.overhead_s"] = (traced_p50 - p50, "s")
        metrics["trace.overhead_share"] = ((traced_p50 - p50) / p50, "ratio")
        metrics.update(layers.source_lines(SRC))
    else:
        metrics = {
            "setup_s": (setup_s, "s"),
            "ops_per_s": (len(ref) / sum(ref), "1/s"),
            "op_p50_s": (p50, "s"),
            "op_tail_s": (tail_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        }

    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "env": env,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "op_tail": {"percentile": tail_pct, "beyond": TAIL_BEYOND, "samples": len(plain)},
        "failed_op_share": failed / runner.attempted,
        "attempted": runner.attempted,
        "failed": failed,
        "failures": runner.failures[:20],
        "op_seconds": measured,
        "wall": {
            "ops_per_s": len(wall) / sum(wall),
            "op_p50_s": instance_median(plain, "wall"),
            "op_tail_s": tail(wall)[0],
        },
        "latencies": plain,
        "traced_latencies": with_trace,
    }
    stem.with_suffix(".json").write_text(json.dumps(report, indent=1))
    if tracer:
        stem.with_name(stem.name + "-spans.json").write_text(
            json.dumps({"spans": tracer.spans, "counts": [[*key, v] for key, v in tracer.counts.items()]})
        )

    print(f"{workload.name} seed {args.seed} trace {args.trace}: {runner.attempted} ops (1 warm-up), {failed} failed")
    print("env " + json.dumps(env, sort_keys=True))
    for line in runner.failures[:20]:
        print("FAILED " + line)
    for name, (value, unit) in metrics.items():
        note = f"  (p{tail_pct:.1f}, {TAIL_BEYOND} of {len(plain)} samples beyond)" if name == "op_tail_s" else ""
        print(f"{name} {value:.6g} {unit}{note}")
    print("wall-clock, not host-adjusted: " + " ".join(f"{k} {v:.6g}" for k, v in report["wall"].items()))
    print(f"failed_op_share {failed / runner.attempted:.6g} ratio ({failed} of {runner.attempted} ops)")
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": runner.attempted,
                "failed": failed,
                "metrics": report["metrics"],
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
