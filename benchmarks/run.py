"""steerqrng benchmark: one workload, one seed, timed from outside the package.

    python3 benchmarks/run.py --workload default-run --seed 1 --seconds 10 --trace 0

Runs from the root of a source checkout and imports the package from
``src/``.  It times set-up in several fresh processes, then runs the workload
in one more process for ``--seconds`` of timed operations, checks every
output, and prints each metric with its unit.  With ``--trace 0`` the metrics
are the end-to-end ones (BENCHMARK.json ``end_to_end``); with ``--trace 1``
the package's public functions are wrapped and the per-layer metrics
(``per_layer``) come from the recorded spans instead.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``; the full record, spans included, goes to
``.bench_out/``.  Exit code 0 means every check passed.

Workloads (see BENCHMARK.json for why each exists):

* ``readme-bootstrap``: ``pipeline.run`` with the README config (100
  bootstrap resamples); certification-heavy.
* ``default-run``: ``pipeline.run`` with the default config; extraction
  with few blocks and a large output length m.
* ``tag-stream``: ``pipeline.stage_simulate`` at 2e6 pairs/s, then
  ``extractor.block_extract`` over 64 blocks at m = 640; no SDP.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_out"
WORKER = HERE / "worker.py"

SETUP_PROBES = 12         # set-up runs besides the measuring process itself
SETUP_TIMEOUT_S = 30.0
BLAS_THREADS = 1          # <= nproc; one thread keeps timings steady on a shared box
OP_ALLOWANCE_S = 160.0    # the measuring process may run this long past --seconds

END_TO_END = {"run_s": "s", "raw_mbit_s": "Mbit/s", "setup_s": "s", "peak_rss_mb": "MB"}
BLAS_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
            "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def code_sha256(root: Path) -> str:
    """Digest of the package and benchmark sources: names the code version,
    also in checkouts without git metadata."""
    digest = hashlib.sha256()
    paths = [*(root / "src" / "steerqrng").rglob("*.py"), *HERE.glob("*.py")]
    for path in sorted(paths):
        digest.update(path.relative_to(root).as_posix().encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def spawn(args: list[str], out: Path, timeout: float) -> tuple[float, dict]:
    """Run one worker; returns its spawn time and parsed result."""
    # A fixed hash seed gives every process the same iteration order over sets of strings.
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.update({name: str(BLAS_THREADS) for name in BLAS_ENV})
    out.unlink(missing_ok=True)
    spawned = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args, "--out", str(out)],
                            cwd=ROOT, env=env, stdout=sys.stderr)
    try:
        code = proc.wait(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise RuntimeError(f"worker timed out after {timeout:.0f} s")
    if code != 0 or not out.is_file():
        raise RuntimeError(f"worker exited with code {code}")
    return spawned, json.loads(out.read_text())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny configs, for the harness self-test")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not (ROOT / "src" / "steerqrng" / "__init__.py").is_file():
        print(f"benchmark: no package source at {ROOT / 'src' / 'steerqrng'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}{'-smoke' if args.smoke else ''}"
    common = ["--workload", args.workload, "--seed", str(args.seed),
              "--work-dir", str(OUT / "work" / f"{tag}-{os.getpid()}")]
    if args.smoke:
        common.append("--smoke")

    code_sha = code_sha256(ROOT)
    common.extend(["--code-sha", code_sha])
    started = time.monotonic()
    try:
        setups = []
        for _ in range(SETUP_PROBES):
            spawned, result = spawn(common + ["--setup-only"], OUT / f"{tag}.setup.json",
                                    SETUP_TIMEOUT_S)
            setups.append(result["ready"] - spawned)
        spawned, result = spawn(
            common + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
            OUT / f"{tag}.worker.json", args.seconds + OP_ALLOWANCE_S - (time.monotonic() - started))
    except RuntimeError as exc:
        print(f"benchmark: {exc}", file=sys.stderr)
        return 3
    setups.append(result["ready"] - spawned)
    (OUT / f"{tag}.setup.json").unlink(missing_ok=True)
    (OUT / f"{tag}.worker.json").unlink(missing_ok=True)
    return report(args, result, setups, code_sha, OUT / f"{tag}.json")


def report(args: argparse.Namespace, result: dict, setups: list[float], code_sha: str,
           record_path: Path) -> int:
    """Print the metrics and checks of one worker result, write the full
    record to ``record_path`` and return the exit code."""
    checks = result["checks"]
    op_walls = result["op_walls"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "smoke": args.smoke,
        "mode": "traced" if args.trace else "untraced",
        "provenance": {
            "code_sha256": code_sha,
            "python": result["python"],
            "numpy": result["numpy"],
            "nproc": len(os.sched_getaffinity(0)),
            "blas_threads": BLAS_THREADS,
            "seed": args.seed,
            "split": ("end-to-end metrics come from untraced runs (--trace 0); "
                      "per-layer metrics from traced runs (--trace 1)"),
        },
        "ops": len(op_walls),
        "op_walls_s": op_walls,
        "op_cpu_s": result["op_cpu"],
        "setup_s_samples": setups,
        "error": result["error"],
        "digest": result.get("digest"),
        "counts": result.get("counts", {}),
        "context": result.get("context", {}),
        "checks": checks,
    }
    # A failure in the first operation leaves no outcome to measure: the
    # checks are still reported, with whatever metrics exist.
    metrics, units = {}, END_TO_END
    if args.trace and "per_layer" in result:
        record.update({k: result[k] for k in ("layer_self_s", "traced_wall_s", "spans")})
        metrics, units = result["per_layer"], result["units"]
    elif not args.trace and op_walls:
        run_s = statistics.median(op_walls)
        metrics = {
            "run_s": run_s,
            "raw_mbit_s": statistics.median(result.get("raw_bits") or [0]) / run_s / 1e6,
            "setup_s": statistics.median(setups),
            "peak_rss_mb": result["peak_rss_mb"],
        }
    record["metrics"] = metrics
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True))

    prov = record["provenance"]
    print(f"workload  {args.workload}  seed {args.seed}  {record['mode']}  "
          f"ops {record['ops']}  op wall s {', '.join(f'{w:.3f}' for w in op_walls)}")
    print("provenance  " + "  ".join(f"{k}={v}" for k, v in prov.items()))
    for name, value in metrics.items():
        print(f"metric  {name} = {value:.6g} {units[name]}")
    if "traced_wall_s" in record:
        wall = record["traced_wall_s"]
        layer_self = record["layer_self_s"]
        print("self time by layer  " + "  ".join(
            f"{layer}={t:.4f}s" for layer, t in sorted(layer_self.items()))
            + f"  sum={sum(layer_self.values()):.4f}s of traced wall {wall:.4f}s")
    fail_frac = checks["failed"] / checks["attempted"]
    print(f"checks  attempted {checks['attempted']}  failed {checks['failed']}  "
          f"fail_frac {fail_frac:g} (base: attempted ops)")
    for failure in checks["failures"]:
        print(f"FAILED  {failure}")
    if result["error"]:
        print(result["error"], file=sys.stderr)
    print("context (recorded, not gated)  "
          + "  ".join(f"{k}={v}" for k, v in record["context"].items()))
    correct = checks["failed"] == 0
    print(json.dumps({
        "correct": correct,
        "attempted": checks["attempted"],
        "failed": checks["failed"],
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
