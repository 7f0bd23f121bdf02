"""sepdet benchmark: one workload, one process, closed loop, one op at a time.

    python3 bench/run.py --workload closure-exact --seed 1 --seconds 36 --trace 0

With --trace 0 the last stdout line is a JSON object holding the end-to-end
metrics; with --trace 1 it holds the per-layer metrics of a traced run of
batch 0, which is alternated with untraced runs of the same batch to measure
the tracing overhead.  The line before it stamps the run (machine, versions,
source digest, seed, deterministic counts).  Run it from the repository root;
it imports sepdet from ./src and writes only under ./.sepbench.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from fractions import Fraction
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".sepbench"
SETUP_RUNS = 7
# Seconds reference_kernel() takes at the reference speed; a 2-vCPU Xeon
# under Python 3.11 runs it in 20-26 ms.
KERNEL_REF_S = 0.0200

import workloads as wl  # noqa: E402  (sibling module of this script)
from tracing import MODULES, Tracer  # noqa: E402

UNITS = {"wall_s": "s", "checks_per_s": "1/s", "op_p50_ms": "ms", "op_p90_ms": "ms",
         "setup_s": "s", "peak_rss_mb": "MB"}


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_bytes"):
        return "bytes"
    if name.endswith(("_reuse", "_yield", "_fraction", "_ratio", "_share", "overhead")):
        return "ratio"
    return "count"


# ---------------------------------------------------------------------------
# Host speed
#
# The speed of a shared host drifts by a factor of up to 1.7 within minutes,
# for CPU time as much as for wall time.  A fixed pure-Python task run next
# to each timed interval tracks that drift, so every reported time is the
# measured time scaled by KERNEL_REF_S / (the task's time around it).
# Nothing in sepdet runs inside the task.


def reference_kernel() -> float:
    """Seconds taken by a fixed task of Fraction, tuple and dict work."""
    gc.disable()  # sepdet's live heap must not make the task slower
    try:
        t0 = time.perf_counter()
        acc, best, table = Fraction(0), Fraction(-1), {}
        for i in range(1, 2500):
            q = Fraction(i % 7, i % 5 + 1)
            acc += q
            if acc > 100:
                acc -= 50
            if q > best:
                best = q
            table[(f"p{i % 97:03d}", i % 13)] = acc
        sorted(table.items())
        return time.perf_counter() - t0
    finally:
        gc.enable()


class SpeedScale:
    """Scales intervals to the reference speed, one kernel run between two."""

    def __init__(self):
        self.last = reference_kernel()
        self.speeds: list[float] = []  # kernel reference time / kernel time

    def scale(self, seconds: float) -> float:
        now = reference_kernel()
        speed = KERNEL_REF_S / ((self.last + now) / 2)
        self.last = now
        self.speeds.append(speed)
        return seconds * speed


# ---------------------------------------------------------------------------
# Set-up: imports plus generated inputs


def import_sepdet() -> dict:
    """Import sepdet from this checkout's src/, never from anywhere else."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    mods = {name: importlib.import_module(name) for name in MODULES}
    origin = Path(mods["sepdet"].__file__).resolve()
    if src.resolve() not in origin.parents:
        raise RuntimeError(f"imported sepdet from {origin}, not from {src}")
    return mods


class Plan:
    """The ops of every batch of one (workload, seed)."""

    def __init__(self, workload: str, seed: int, workdir: Path):
        self.workload = workload
        self.seed = seed
        self.inputs = workdir / "inputs"
        if workload == "descriptor-cli":
            self.cli_batches = wl.write_cli_inputs(seed, self.inputs, workdir / "out")
        else:
            self.cli_batches = None
            self.inputs.mkdir(parents=True, exist_ok=True)
            ops = [{"suite": op.suite, "config": op.config}
                   for op in self.ops(0)]
            (self.inputs / "batch0.json").write_text(json.dumps(ops), encoding="utf-8")

    def ops(self, batch: int) -> list:
        if self.cli_batches is not None:
            return self.cli_batches[batch % len(self.cli_batches)]
        return wl.suite_ops(self.workload, self.seed, batch)


def inputs_digest(inputs: Path) -> str:
    parts = [p.name.encode() + b"\0" + p.read_bytes() for p in sorted(inputs.iterdir())]
    return wl.sha256(b"\0\0".join(parts))


def measure_setup(args) -> tuple[list[float], Path]:
    """Wall time of fresh processes doing this run's set-up, start to exit.

    Returns the unscaled times and the last set-up's directory.
    """
    times = []
    for k in range(SETUP_RUNS):
        workdir = WORK / f"setup-{os.getpid()}-{k}"
        cmd = [sys.executable, str(BENCH / "run.py"), "--workload", args.workload,
               "--seed", str(args.seed), "--setup-only", str(workdir)]
        t0 = time.perf_counter()
        done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if done.returncode != 0:
            raise RuntimeError(f"set-up process failed: {done.stderr.strip()}")
        last = workdir
        if k < SETUP_RUNS - 1:
            shutil.rmtree(workdir)
    return times, last


# ---------------------------------------------------------------------------
# Timed batches


@dataclass
class Batch:
    index: int
    outcomes: list = field(default_factory=list)
    complete: bool = False

    @property
    def wall(self) -> float:
        """Scaled time of the batch's ops, run back to back."""
        return sum(o.seconds for o in self.outcomes)

    @property
    def raw_wall(self) -> float:
        return sum(o.raw_seconds for o in self.outcomes)


def run_op(mods: dict, op, speed: SpeedScale) -> wl.Outcome:
    try:
        if op.suite:
            out = wl.run_suite_op(mods["sepdet"], op)
        else:
            out = wl.run_cli_op(mods["sepdet.cli"], op)
    except Exception:  # an op that raises is a failed op; the run goes on
        traceback.print_exc(file=sys.stderr)
        out = wl.Outcome(seconds=0.0, failed=1, problems=[f"{op.label} raised"])
    out.raw_seconds = out.seconds
    out.seconds = speed.scale(out.seconds)
    return out


def run_batch(mods, plan: Plan, index: int, speed: SpeedScale, deadline=None,
              tracer=None) -> Batch:
    ops = plan.ops(index)
    batch = Batch(index)
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.op = i
        batch.outcomes.append(run_op(mods, op, speed))
        if deadline is not None and time.perf_counter() >= deadline:
            break
    batch.complete = len(batch.outcomes) == len(ops)
    return batch


def untraced_run(mods, plan: Plan, seconds: float, speed: SpeedScale) -> list[Batch]:
    """Batches back to back until `seconds` pass; batch 0 always completes."""
    start = time.perf_counter()
    batches = [run_batch(mods, plan, 0, speed)]
    while time.perf_counter() - start < seconds:
        batches.append(run_batch(mods, plan, len(batches), speed,
                                 deadline=start + seconds))
    return batches


def traced_run(mods, plan: Plan, seconds: float, speed: SpeedScale):
    """Pairs of (untraced, traced) runs of batch 0 while another pair fits."""
    start = time.perf_counter()
    pairs = []
    while True:
        t0 = time.perf_counter()
        plain = run_batch(mods, plan, 0, speed)
        tracer = Tracer(mods)
        tracer.install()
        try:
            traced = run_batch(mods, plan, 0, speed, tracer=tracer)
        finally:
            tracer.uninstall()
        pairs.append((plain, traced, tracer))
        now = time.perf_counter()
        if now - start + (now - t0) > seconds:
            return pairs


# ---------------------------------------------------------------------------
# Verification and metrics


def recorded_digests() -> dict:
    return json.loads((BENCH / "digests.json").read_text(encoding="utf-8"))


@dataclass
class Tally:
    """Ops attempted and failures found: failed checks, failed ops, mismatches."""

    attempted: int = 0
    failed: int = 0
    problems: list = field(default_factory=list)

    def add_batch(self, batch: Batch) -> None:
        for out in batch.outcomes:
            self.attempted += 1
            self.failed += out.failed
            self.problems.extend(out.problems)

    def expect(self, what: str, got, want) -> None:
        if got != want:
            self.failed += 1
            self.problems.append(f"{what}: got {got}, expected {want}")

    @property
    def share(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0


def check_batch0(tally: Tally, workload: str, seed: int, batch0: Batch) -> str:
    """Compare batch 0 with the digest recorded for the default seed."""
    digest = wl.batch_digest(batch0.outcomes)
    if seed == wl.DEFAULT_SEED:
        tally.expect(f"{workload} batch-0 digest", digest, recorded_digests().get(workload))
    return digest


def percentile(values: list, q: int) -> float:
    """q-th percentile, interpolated between the closest ranks."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(batches: list[Batch], setup: list[float], speed: float,
               raw: bool = False) -> dict:
    """End-to-end metrics, scaled to the reference speed unless `raw`.

    Set-up is scaled by the run's median host speed `speed`: the task run
    next to a single set-up process does not track its time, but over a run
    it does.  In three sets of ten runs, the medians of the scaled set-up
    stayed within 6% of each other, the raw ones moved by up to 30%.
    """
    def secs(o):
        return o.raw_seconds if raw else o.seconds

    outcomes = [o for b in batches for o in b.outcomes]
    op_ms = [secs(o) * 1000 for o in outcomes]
    busy = sum(secs(o) for o in outcomes)
    return {
        # batches hold fresh instances, so their mean is the expected cost
        "wall_s": statistics.mean(sum(secs(o) for o in b.outcomes)
                                  for b in batches if b.complete),
        "checks_per_s": sum(o.checks for o in outcomes) / busy,
        "op_p50_ms": percentile(op_ms, 50),
        "op_p90_ms": percentile(op_ms, 90),
        "setup_s": statistics.median(setup) * (1.0 if raw else speed),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def per_layer(pairs: list, tally: Tally) -> dict:
    per_pair = []
    for plain, traced, tracer in pairs:
        tally.expect("traced batch digest", wl.batch_digest(traced.outcomes),
                     wl.batch_digest(plain.outcomes))
        m = tracer.metrics()
        scale = traced.wall / traced.raw_wall  # tracer seconds are unscaled
        m = {k: v * scale if layer_unit(k) == "s" else v for k, v in m.items()}
        m["cli.out_bytes"] = sum(o.out_bytes for o in traced.outcomes)
        per_pair.append(m)
    for m in per_pair[1:]:  # counts are a function of the inputs alone
        for name, value in m.items():
            if layer_unit(name) != "s":
                tally.expect(f"repeat of {name}", value, per_pair[0][name])
    out = {name: statistics.median(m[name] for m in per_pair) for name in per_pair[0]}
    out["trace.overhead"] = (statistics.median(t.wall for _, t, _ in pairs)
                             / statistics.median(p.wall for p, _, _ in pairs) - 1)
    return out


def git_sha() -> str | None:
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def src_digest() -> str:
    files = sorted((ROOT / "src" / "sepdet").glob("*.py"))
    return wl.sha256(b"".join(f.name.encode() + b"\0" + f.read_bytes() for f in files))


def stamp(args, mods, batch0: Batch, extra: dict) -> dict:
    return {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": os.cpu_count(), "python": platform.python_version(),
        "numpy": importlib.import_module("numpy").__version__,
        "git_sha": git_sha(), "src_sha256": src_digest(),
        "batch_ops": len(batch0.outcomes),
        "batch_instances": sum(o.instances for o in batch0.outcomes),
        "batch_checks": sum(o.checks for o in batch0.outcomes),
        **extra,
    }


# ---------------------------------------------------------------------------


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    p.add_argument("--seed", type=int, default=wl.DEFAULT_SEED)
    p.add_argument("--seconds", type=float, default=36)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", metavar="DIR", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "sepdet" / "__init__.py").is_file():
        print(f"run.py: no sepdet sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2
    if args.setup_only:
        import_sepdet()
        Plan(args.workload, args.seed, Path(args.setup_only))
        return 0

    setup, setup_dir = measure_setup(args)
    speed = SpeedScale()
    mods = import_sepdet()
    workdir = WORK / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    plan = Plan(args.workload, args.seed, workdir)
    tally = Tally()
    tally.expect("inputs digest across processes", inputs_digest(plan.inputs),
                 inputs_digest(setup_dir / "inputs"))
    shutil.rmtree(setup_dir)

    if args.trace:
        pairs = traced_run(mods, plan, args.seconds, speed)
        for plain, traced, _ in pairs:
            tally.add_batch(plain)
            tally.add_batch(traced)
        batch0 = pairs[0][0]
        metrics = per_layer(pairs, tally)
        spans = {"fields": ["id", "parent", "op", "name", "start", "end"],
                 "traced_batches": [t.spans for _, _, t in pairs]}
        extra = {"traced_pairs": len(pairs),
                 "untraced_walls": [p.wall for p, _, _ in pairs],
                 "traced_walls": [t.wall for _, t, _ in pairs]}
    else:
        batches = untraced_run(mods, plan, args.seconds, speed)
        for batch in batches:
            tally.add_batch(batch)
        batch0 = batches[0]
        if plan.cli_batches is not None:  # a repeat of the same inputs
            for batch in batches[len(plan.cli_batches):]:
                first = batches[batch.index % len(plan.cli_batches)]
                for i, out in enumerate(batch.outcomes):
                    tally.expect(f"batch {batch.index} op {i} digest", out.digest,
                                 first.outcomes[i].digest)
        metrics = end_to_end(batches, setup, statistics.median(speed.speeds))
        spans = None
        op_ms = [o.seconds * 1000 for b in batches for o in b.outcomes]
        extra = {"run_ops": len(op_ms),
                 "ops_beyond_p90": sum(v > metrics["op_p90_ms"] for v in op_ms),
                 "batches": len(batches),
                 "raw_metrics": end_to_end(batches, setup, 1.0, raw=True),
                 "batch_walls": [b.wall for b in batches if b.complete],
                 "setup_runs": setup}
    digest = check_batch0(tally, args.workload, args.seed, batch0)
    info = stamp(args, mods, batch0, extra | {
        "batch0_sha256": digest, "inputs_sha256": inputs_digest(plan.inputs),
        "failed_share": tally.share, "problems": tally.problems[:20],
        "speed_median": statistics.median(speed.speeds), "kernel_ref_s": KERNEL_REF_S})

    shutil.rmtree(workdir)
    workdir.mkdir(parents=True)
    (workdir / "result.json").write_text(json.dumps({"stamp": info, "metrics": metrics}),
                                         encoding="utf-8")
    if spans is not None:
        (workdir / "spans.json").write_text(json.dumps(spans), encoding="utf-8")

    units = UNITS if not args.trace else {name: layer_unit(name) for name in metrics}
    for name, value in metrics.items():
        print(f"{args.workload} {name} = {value:.6g} {units[name]}")
    print(f"{args.workload} failed_share = {tally.share:.6g} ratio")
    print(json.dumps({"stamp": info}))
    print(json.dumps({
        "correct": tally.failed == 0, "attempted": tally.attempted, "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
