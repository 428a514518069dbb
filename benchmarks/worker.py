"""One benchmark process: set up a workload, run it for a while, report.

Started by ``run.py``; not meant to be run by hand.  Everything from process
start to the first timed call (interpreter, ``import steerqrng``, config,
extractor parameters and seed) is set-up, and its end is reported as a
``time.monotonic`` reading so the parent can time it from the spawn.  With
``--setup-only`` the process stops there.

Operations repeat until their summed wall time reaches ``--seconds``.  Each
one runs into a fresh directory that is removed once its untimed checks are
done.  The result is written as JSON to ``--out``.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import asdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402
import steerqrng  # noqa: E402

if Path(steerqrng.__file__).resolve().parent != SRC / "steerqrng":
    sys.exit(f"steerqrng imported from {steerqrng.__file__}, not from {SRC}")

import layers  # noqa: E402
import spans  # noqa: E402
from workloads import WORKLOADS, Checks, artifact_mb  # noqa: E402


def _write_json(path: str, payload: dict) -> None:
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
    os.replace(tmp, path)


def compare_with_store(checks: Checks, store: Path, key: str, observed: list[dict]) -> None:
    """Every operation of a workload repeated with one seed, under one code
    version, must give the same artifact digest and exact counts.  Each
    operation is compared with the first one recorded for ``key`` in this
    checkout; ``key`` names the code version, so a change that alters the
    outputs on purpose starts a new entry instead of failing."""
    seen = json.loads(store.read_text()) if store.is_file() else {}
    reference = seen.get(key, observed[0])
    for op, mine in enumerate(observed):
        if mine is reference:
            continue
        shared = set(reference["counts"]) & set(mine["counts"])
        differ = {k: (reference["counts"][k], mine["counts"][k]) for k in sorted(shared)
                  if reference["counts"][k] != mine["counts"][k]}
        if reference["digest"] != mine["digest"]:
            differ["artifact digest"] = (reference["digest"], mine["digest"])
        checks.add("outputs repeat for one seed and code version", not differ,
                   f"op {op} changed: {differ}")
    counts = {**observed[0]["counts"], **reference["counts"]}
    seen[key] = {"digest": reference["digest"], "counts": counts}
    _write_json(str(store), seen)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    parser.add_argument("--work-dir", required=True)
    parser.add_argument("--code-sha", default="",
                        help="digest of the package and benchmark sources")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)

    workload = WORKLOADS[args.workload]
    state = workload.prepare(args.seed, args.smoke)
    ready = time.monotonic()
    if args.setup_only:
        _write_json(args.out, {"ready": ready})
        return 0

    tracer = spans.Tracer() if args.trace else None
    checks = Checks()
    op_walls: list[float] = []
    op_cpu: list[float] = []
    outcomes = []
    sizes: list[float] = []
    error = None
    os.makedirs(args.work_dir, exist_ok=True)
    with layers.wrapped(tracer) if tracer else nullcontext():
        while sum(op_walls) < args.seconds:
            op = len(op_walls)
            op_dir = os.path.join(args.work_dir, f"op{op}")
            try:
                t0, c0 = time.perf_counter(), time.process_time()
                if tracer:
                    tracer.begin_op(op)
                try:
                    result = workload.run(state, op_dir)
                finally:
                    if tracer:
                        tracer.end_op()
                op_walls.append(time.perf_counter() - t0)
                op_cpu.append(time.process_time() - c0)
                outcome = workload.check(state, op_dir, result, checks, op == 0)
            except Exception:  # a failing operation is reported, not fatal
                error = traceback.format_exc()
                checks.add("operation completes", False, error.strip().splitlines()[-1])
                break
            finally:
                if os.path.isdir(op_dir):
                    sizes.append(artifact_mb(op_dir))
                    shutil.rmtree(op_dir)
            checks.add("operation completes", True)
            outcomes.append(outcome)
    shutil.rmtree(args.work_dir, ignore_errors=True)

    payload = {
        "ready": ready,
        "op_walls": op_walls,
        "op_cpu": op_cpu,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6,
        "numpy": np.__version__,
        "python": sys.version.split()[0],
        "error": error,
    }
    if outcomes:
        payload.update({
            "raw_bits": [o.raw_bits for o in outcomes],
            "digest": outcomes[0].digest,
            "context": outcomes[0].context,
            "counts": outcomes[0].counts,
        })
    if tracer and outcomes:
        done = [s for s in tracer.spans if s.op < len(outcomes)]
        own = spans.self_times(done)
        traced_wall = sum(s.duration for s in done if s.parent == -1)
        overhead = spans.span_cost() * len(done) / traced_wall
        per_layer, per_op = layers.per_layer_metrics(done, own, sizes[:len(outcomes)], overhead)
        for outcome, values in zip(outcomes, per_op):
            outcome.counts.update({k: values[k] for k in layers.EXACT_COUNTS})
        solves = sum(v["sdp.solves"] for v in per_op)
        if solves:
            not_optimal = sum(v["sdp.not_optimal"] for v in per_op)
            checks.add("every SDP solve status optimal", not not_optimal,
                       f"{not_optimal} of {solves} solves not optimal",
                       count=solves, failed=not_optimal)
        layer_self = spans.layer_self_times(done)
        payload.update({
            "per_layer": per_layer,
            "units": layers.METRICS,
            "layer_self_s": layer_self,
            "traced_wall_s": traced_wall,
            "spans": [asdict(s) for s in done],
        })
    if outcomes:
        key = "/".join((args.workload, str(args.seed), "smoke" if args.smoke else "full",
                        args.code_sha, payload["python"], payload["numpy"]))
        observed = [{"digest": o.digest, "counts": o.counts} for o in outcomes]
        compare_with_store(checks, ROOT / ".bench_out" / "digests.json", key, observed)
    payload["checks"] = checks.to_dict()
    _write_json(args.out, payload)
    return 0


if __name__ == "__main__":
    sys.exit(main())
