"""Seeded inputs, operations and output checks for the benchmark workloads.

Every input is a function of (workload, --seed, batch index) alone: suite
operations carry a `SuiteConfig` whose seed is derived from those three, and
CLI operations read descriptor files written here before timing starts.
sepdet is driven only through `run_suite` and `run_cli`.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, field
from pathlib import Path
from random import Random

import numpy as np

DEFAULT_SEED = 0

# Suite slots: (suite, n, instances).  With one instance the harness builds a
# Euclidean-1-D space for n <= 20 and a shortest-path space above that; the
# second thm-3.1 instance is a shortest-path space.  Sizes are fixed and the
# seed picks the instances.  Slots cost 0.4-1.7 s each, so a batch holds
# every regime and a run holds several batches.  Slot costs are spread so
# that the median op falls between two steady rich slots (thm-2.1 and thm-2.2
# at n=14, ~0.9 s) and the 90th percentile among the dearest ones (n=16 and
# prop-1.1 n=14, ~1.4-1.7 s).  The wide slot varies most from instance to
# instance (cv ~0.35), so it sits below the median.
CLOSURE_EXACT = (
    # rich: about n distinct distances, ~10^3 shell parameters per problem
    ("thm-2.1", 14, 1), ("thm-2.2", 14, 1), ("thm-2.1", 16, 1), ("thm-2.2", 16, 1),
    ("prop-1.1", 14, 1), ("thm-3.1", 20, 2),
    # wide: <= 8 distinct distances, ball-pair regions of ~n^2 tuples
    ("prop-3.2", 64, 1),
)
# Each slope-full slot runs two instances.  For thm-4.2 and prop-4.1 they are
# a Euclidean-1-D space and a cheaper shortest-path one whose function takes
# +inf values (the convention branch); thm-4.3 runs two Euclidean products.
# Two instances per call halve the call-to-call cost variation, and the three
# calls cost about the same (0.7-1.3 s), so the quantiles sit in a dense band.
SLOPE_FULL = (("thm-4.2", 11, 2), ("thm-4.3", 8, 2), ("prop-4.1", 11, 2))
SUITE_SLOTS = {"closure-exact": CLOSURE_EXACT, "slope-full": SLOPE_FULL}

# CLI spaces: (key, metric, n).  Sizes are fixed and the seed draws the
# distances and function values.  Every batch of a run up to
# CLI_INPUT_BATCHES gets its own descriptor files; later batches repeat them.
# Big matrices are only validated (O(n^3) triangle scan); reduce and check
# run on the smaller ones, where a slack check still finishes in ~1 s.
CLI_SPACES = (
    ("big-a", "matrix", 120), ("big-b", "matrix", 120), ("big-c", "matrix", 120),
    ("mid-a", "matrix", 47), ("mid-b", "matrix", 47),
    ("pairs", "matrix", 24),
    ("line-a", "euclidean", 30), ("line-b", "euclidean", 32),
)
CLI_INPUT_BATCHES = 4
SLACK = ("--eps", "1/2", "--cap", "3", "--tolerance", "1/2")

WORKLOADS = ("closure-exact", "slope-full", "descriptor-cli")


@dataclass(frozen=True)
class Op:
    """One call into a public entry point."""

    label: str
    suite: str = ""
    config: tuple = ()  # SuiteConfig keyword pairs
    argv: tuple = ()  # run_cli arguments
    out: str = ""  # --out path of a CLI op
    expect_points: int = 0  # space size a CLI op must report or close within


@dataclass
class Outcome:
    """What one operation did, as the benchmark verifies it."""

    seconds: float  # scaled to the reference speed by the runner
    raw_seconds: float = 0.0  # as measured
    checks: int = 0
    failed: int = 0  # failed checks + 1 for a raised, non-zero or malformed op
    instances: int = 0
    out_bytes: int = 0
    digest: str = ""
    problems: list = field(default_factory=list)


def canonical(obj) -> bytes:
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def batch_digest(outcomes) -> str:
    """Digest of a batch: its operations' output digests in batch order."""
    return sha256("\n".join(o.digest for o in outcomes).encode())


def _derived_seed(*parts) -> int:
    return int(sha256(":".join(map(str, parts)).encode())[:8], 16)


def suite_ops(workload: str, seed: int, batch: int) -> list[Op]:
    """Batch `batch` of a suite workload: fresh instances for every batch."""
    ops = []
    for slot, (suite, n, instances) in enumerate(SUITE_SLOTS[workload]):
        cfg = (("instances", instances), ("sizes", (n,)),
               ("seed", _derived_seed(workload, seed, batch, slot)),
               ("eps", 0), ("cap", 1))
        ops.append(Op(label=f"{suite}/n{n}", suite=suite, config=cfg))
    return ops


# ---------------------------------------------------------------------------
# Descriptor files for the CLI workload


def _ids(n: int) -> list[str]:
    return [f"p{i:03d}" for i in range(n)]


def _matrix_space(rng: Random, n: int) -> dict:
    w = np.zeros((n, n), dtype=np.int64)
    for i in range(n):
        for j in range(i + 1, n):
            w[i, j] = w[j, i] = rng.randint(1, 8)
    for k in range(n):  # all-pairs shortest paths repair the triangle inequality
        np.minimum(w, w[:, k:k + 1] + w[k:k + 1, :], out=w)
    return {"kind": "finite", "metric": "matrix", "points": _ids(n),
            "matrix": w.tolist()}


def _line_space(rng: Random, n: int) -> dict:
    coords = rng.sample(range(3 * n), n)
    return {"kind": "finite", "metric": "euclidean",
            "points": [{"id": pid, "coords": [f"{c}/3"]}
                       for pid, c in zip(_ids(n), coords)]}


def _table(rng: Random, n: int, inf_share: float) -> dict:
    values = {}
    for pid in _ids(n):
        if rng.random() < inf_share:
            values[pid] = "inf"
        else:
            values[pid] = f"{rng.randint(-40, 40)}/4"
    values["p000"] = "0"  # proper: finite somewhere
    return {"kind": "table", "values": values}


def _cli_plan(space_key: str) -> list[tuple]:
    """(verb, problem name, slack) triples run on one space."""
    if space_key.startswith("big"):
        return [("validate", "", False), ("validate", ":inf", False)]
    if space_key.startswith("mid"):
        return [(verb, f"{fam}:{mode}", slack)
                for fam in ("punctured-ball", "torus-slope")
                for mode, slack in (("sup", False), ("inf", True))
                for verb in ("reduce", "check")]
    if space_key == "pairs":
        return [(verb, f"ball-pairs:{mode}", slack)
                for mode in ("sup", "inf")
                for verb, slack in (("reduce", mode == "sup"), ("check", mode == "inf"))]
    return [("validate", "", False)] + [
        (verb, f"{fam}:{mode}", slack)
        for fam, mode, slack in (("punctured-ball", "inf", False),
                                 ("ball-pairs", "sup", True),
                                 ("torus-slope", "sup", False),
                                 ("torus-slope", "inf", True))
        for verb in ("reduce", "check")]


def write_cli_inputs(seed: int, inputs: Path, outs: Path) -> list[list[Op]]:
    """Write the CLI descriptors for `seed`; return the ops of each batch.

    Inf-mode ops get a finite function: a +inf value has no meaning in an
    inf score.
    """
    inputs.mkdir(parents=True, exist_ok=True)
    outs.mkdir(parents=True, exist_ok=True)
    return [_write_cli_batch(seed, b, inputs, outs) for b in range(CLI_INPUT_BATCHES)]


def _write_cli_batch(seed: int, batch: int, inputs: Path, outs: Path) -> list[Op]:
    ops = []
    for key, metric, n in CLI_SPACES:
        rng = Random(f"cli:{seed}:{batch}:{key}")
        space = _matrix_space(rng, n) if metric == "matrix" else _line_space(rng, n)
        files = {"space": space, "fn-sup": _table(rng, n, 0.1), "fn-inf": _table(rng, n, 0.0)}
        stem = f"b{batch}.{key}"
        for name, obj in files.items():
            (inputs / f"{stem}.{name}.json").write_text(json.dumps(obj), encoding="utf-8")
        for verb, problem, slack in _cli_plan(key):
            family, _, mode = problem.partition(":")
            mode = mode or "sup"
            out = outs / f"{len(ops):03d}.json"
            argv = [verb, "--space", str(inputs / f"{stem}.space.json"),
                    "--fn", str(inputs / f"{stem}.fn-{mode}.json"),
                    "--q-density", "5" if family == "torus-slope" else "8",
                    "--out", str(out)]
            if family:
                argv += ["--name", problem]
            if slack:
                argv += list(SLACK)
            label = f"{verb}/{key}/{family or metric}:{mode}" + ("/slack" if slack else "")
            ops.append(Op(label=label, argv=tuple(argv), out=str(out), expect_points=n))
    # One fixed order for every seed and batch, mixing dear and cheap ops, so
    # that the part of a batch a run ends on is a fair sample of the batch.
    Random("cli-op-order").shuffle(ops)
    return ops


# ---------------------------------------------------------------------------
# Running and verifying one operation


def run_suite_op(sepdet, op: Op) -> Outcome:
    config = sepdet.SuiteConfig(**dict(op.config))
    t0 = time.perf_counter()
    report = sepdet.run_suite(op.suite, config)
    seconds = time.perf_counter() - t0
    return verify_suite(report.to_json(), seconds)


def verify_suite(obj: dict, seconds: float) -> Outcome:
    checks = obj["checks"]
    out = Outcome(seconds=seconds,
                  checks=checks["passed"] + checks["failed"] + checks["skipped"],
                  instances=obj["instances"], digest=sha256(canonical(obj)))
    out.failed = checks["failed"]
    if obj["fails"] and not checks["failed"]:
        out.failed = 1
    if out.failed:
        out.problems.append(f"{obj['name']}: {checks['failed']} failed checks")
    return out


def run_cli_op(cli, op: Op) -> Outcome:
    out_path = Path(op.out)
    out_path.unlink(missing_ok=True)
    t0 = time.perf_counter()
    rc = cli.run_cli(list(op.argv))
    seconds = time.perf_counter() - t0
    try:
        text = out_path.read_bytes()
        obj = json.loads(text)
    except (OSError, ValueError) as exc:
        return Outcome(seconds=seconds, failed=1, instances=1,
                       problems=[f"{op.label}: exit {rc}, no readable output ({exc})"])
    return verify_cli(op, rc, obj, seconds, len(text))


def verify_cli(op: Op, rc: int, obj: dict, seconds: float, out_bytes: int) -> Outcome:
    """Exit code 0 plus the verb's own verdict fields."""
    out = Outcome(seconds=seconds, instances=1, out_bytes=out_bytes,
                  digest=sha256(canonical({"exit": rc, "output": obj})))
    verb = op.argv[0]
    if verb == "check":
        out.checks = obj.get("passed", 0) + obj.get("failed", 0) + obj.get("skipped", 0)
        out.failed = obj.get("failed", 0)
    if verb == "validate":
        sound = obj.get("ok") is True and obj.get("points") == op.expect_points
    else:
        sound = obj.get("fixed_point") is True
    if rc != 0 or not sound:
        out.failed += 1
    if out.failed:
        out.problems.append(f"{op.label}: exit {rc}, {out.failed} failures")
    return out
