"""The benchmark workloads: seeded inputs, the timed call and its checks.

Each workload turns the benchmark seed into a package config (the seed sets
``rng_seed``, ``bootstrap_seed`` and ``seed_rng``; the package sees only the
generated config), runs one timed operation into a fresh directory, and then,
untimed, checks the outputs.  Every check is one operation of ``fail_frac``.
"""

from __future__ import annotations

import hashlib
import os
from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from steerqrng import extractor as ext
from steerqrng import pipeline as pl
from steerqrng.certify import load_certification

EPSILON = 1e-6
BLOCK_BITS = 20_000
MU_BETA_TOL = 1e-6
ORACLE_BITS_PER_BLOCK = 8

# README configuration (readme-bootstrap).
README_EXPERIMENT = {"visibility": 0.99, "eta_alice": 0.543, "eta_bob": 1.0,
                     "pair_rate": 100_000, "duration_rng": 1.0,
                     "trials_certification": 1_000_000}
README_CERTIFICATION = {"x_star": "auto", "resamples": 100}
# Default configuration (default-run), except for the pair rate: at the
# default 1e5 pairs/s the raw stream holds 80 000 +- 280 bits, right at the
# 3/4-block boundary, so the block count (and the extraction work) would
# depend on the seed.  87 500 pairs/s gives 70 000 +- 265 bits: always 3.
DEFAULT_EXPERIMENT = {"pair_rate": 87_500}
# Time-tag front end plus many-block, small-m extraction (tag-stream).  The
# entropy rate and block count are fixed so that changes to how the package
# certifies or forms raw bits leave the work done unchanged.
TAG_STREAM_EXPERIMENT = {"pair_rate": 2_000_000, "eta_alice": 0.8, "dark_rate": 10_000}
TAG_STREAM_H_MIN = 0.0363
TAG_STREAM_BLOCKS = 64

# Smoke sizes for the harness self-test: the same code paths at a small size.
# readme-bootstrap keeps 100 resamples, the least the package accepts, so its
# 100 bootstrap SDP solves still take about a minute.
SMOKE = {
    "readme-bootstrap": {"experiment": {"pair_rate": 30_000, "trials_certification": 100_000},
                         "certification": {"resamples": 100},
                         "extraction": {"block_bits": 10_000}},
    "default-run": {"experiment": {"pair_rate": 5_000, "trials_certification": 10_000},
                    "extraction": {"block_bits": 2_000}},
    "tag-stream": {"experiment": {"pair_rate": 100_000}, "blocks": 4, "block_bits": 2_000,
                   "h_min": 0.2},
}


class Checks:
    """Counts of attempted and failed correctness checks, by name."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.by_name: dict[str, list[int]] = {}
        self.failures: list[str] = []

    def add(self, name: str, ok: bool, detail: str = "", *, count: int = 1, failed: int | None = None):
        """Record ``count`` operations of one kind; ``failed`` of them failed
        (all of them when ``ok`` is false and ``failed`` is not given)."""
        bad = failed if failed is not None else (0 if ok else count)
        self.attempted += count
        self.failed += bad
        tally = self.by_name.setdefault(name, [0, 0])
        tally[0] += count
        tally[1] += bad
        if bad:
            self.failures.append(f"{name}: {detail}" if detail else name)

    def to_dict(self) -> dict:
        return {"attempted": self.attempted, "failed": self.failed,
                "by_name": {k: {"attempted": a, "failed": f} for k, (a, f) in self.by_name.items()},
                "failures": self.failures}


@dataclass
class Outcome:
    """What the untimed part of an operation learned."""

    raw_bits: int              # raw bits taken through extraction
    digest: str                # hash of the deterministic artifacts
    context: dict              # recorded, never gated
    counts: dict = field(default_factory=dict)


def derived_seeds(seed: int, lane: int) -> tuple[int, int, int]:
    """(rng_seed, bootstrap_seed, seed_rng) for a benchmark seed."""
    state = np.random.SeedSequence([seed % 2**64, lane]).generate_state(3)
    return tuple(int(v) for v in state)


def artifact_digest(op_dir: str, extra: bytes = b"") -> str:
    """SHA-256 over every artifact except the wall-clock timings."""
    digest = hashlib.sha256()
    for name in sorted(os.listdir(op_dir)):
        if name == pl.TIMINGS_FILE:
            continue
        with open(os.path.join(op_dir, name), "rb") as fh:
            digest.update(name.encode() + b"\0" + hashlib.sha256(fh.read()).digest())
    digest.update(extra)
    return digest.hexdigest()


def artifact_mb(op_dir: str) -> float:
    return sum(os.path.getsize(os.path.join(op_dir, n)) for n in os.listdir(op_dir)) / 1e6


# ---------------------------------------------------------------------------
# pipeline.run workloads


@dataclass
class PipelineState:
    config: pl.PipelineConfig


def _pipeline_prepare(experiment: dict, certification: dict, lane: int, name: str):
    def prepare(seed: int, smoke: bool) -> PipelineState:
        rng_seed, bootstrap_seed, seed_rng = derived_seeds(seed, lane)
        sections = {
            "experiment": {**experiment, "rng_seed": rng_seed},
            "certification": {**certification, "bootstrap_seed": bootstrap_seed},
            "extraction": {"epsilon": EPSILON, "block_bits": BLOCK_BITS, "seed_rng": seed_rng},
        }
        if smoke:
            for section, values in SMOKE[name].items():
                sections[section].update(values)
        config = pl.PipelineConfig.from_dict({"format": pl.CONFIG_FORMAT, **sections})
        return PipelineState(config=config)

    return prepare


def _pipeline_run(state: PipelineState, op_dir: str) -> pl.RunReport:
    return pl.run(state.config, op_dir)


def _pipeline_check(state: PipelineState, op_dir: str, report: pl.RunReport,
                    checks: Checks, first_op: bool) -> Outcome:
    settings = state.config.extraction
    checks.add("run exit code 0 and gate passed",
               report.exit_code == pl.EXIT_OK and report.gate == "passed",
               f"exit code {report.exit_code}, gate {report.gate!r}")
    cert = load_certification(os.path.join(op_dir, pl.CERTIFICATION_FILE))
    extraction = report.extraction or {"blocks": 0}
    blocks = extraction["blocks"]
    out_bits = 0
    if os.path.exists(os.path.join(op_dir, pl.EXTRACTED_FILE)):
        out_bits = len(ext.load_bits(os.path.join(op_dir, pl.EXTRACTED_FILE)))
    expected_blocks = report.simulation["raw_bits"] // settings.block_bits
    expected_bits = expected_blocks * ext.output_length(settings.block_bits, cert.h_min, settings.epsilon)
    checks.add("extracted length = blocks x output_length",
               blocks == expected_blocks and out_bits == expected_bits > 0,
               f"{out_bits} bits in {blocks} blocks, expected {expected_bits} in {expected_blocks}")
    checks.add("|mu - beta| <= 1e-6", abs(cert.mu - cert.beta) <= MU_BETA_TOL,
               f"mu {cert.mu!r}, beta {cert.beta!r}")
    statuses = [cert.diagnostics[k]["status"] for k in ("guessing_solver", "lhs_solver")]
    checks.add("certificate SDP status optimal", all(s == "optimal" for s in statuses),
               f"statuses {statuses}")
    if cert.uncertainty is not None:
        checks.add("bootstrap resample fitted and certified", cert.uncertainty.failed == 0,
                   f"{cert.uncertainty.failed} of {cert.uncertainty.resamples} failed",
                   count=cert.uncertainty.resamples, failed=cert.uncertainty.failed)
    return Outcome(
        raw_bits=blocks * settings.block_bits,
        digest=artifact_digest(op_dir),
        context={"certify.h_min": cert.h_min, "certify.x_star": cert.x_star,
                 "extractor.out_bits": out_bits},
        counts={"simulate.tags": report.simulation["alice_tags"] + report.simulation["bob_tags"],
                "simulate.pairs": report.simulation["coincidences"]},
    )


# ---------------------------------------------------------------------------
# tag-stream: stage_simulate, then block_extract over a fixed block count


@dataclass
class TagStreamState:
    config: pl.PipelineConfig
    params: ext.ExtractorParams
    seed_bits: ext.BitString
    blocks: int


def _tag_stream_prepare(seed: int, smoke: bool) -> TagStreamState:
    rng_seed, _bootstrap_seed, seed_rng = derived_seeds(seed, 3)
    experiment = {**TAG_STREAM_EXPERIMENT, "rng_seed": rng_seed}
    blocks, block_bits, h_min = TAG_STREAM_BLOCKS, BLOCK_BITS, TAG_STREAM_H_MIN
    if smoke:
        experiment.update(SMOKE["tag-stream"]["experiment"])
        blocks = SMOKE["tag-stream"]["blocks"]
        block_bits = SMOKE["tag-stream"]["block_bits"]
        h_min = SMOKE["tag-stream"]["h_min"]
    config = pl.PipelineConfig.from_dict({
        "format": pl.CONFIG_FORMAT, "experiment": experiment,
        "extraction": {"epsilon": EPSILON, "block_bits": block_bits, "seed_rng": seed_rng},
    })
    params = ext.ExtractorParams.for_source(block_bits, h_min, EPSILON)
    return TagStreamState(config=config, params=params,
                          seed_bits=ext.generate_seed(params.d, seed_rng), blocks=blocks)


def _tag_stream_run(state: TagStreamState, op_dir: str):
    summary = pl.stage_simulate(state.config, op_dir)
    raw = ext.load_bits(os.path.join(op_dir, pl.RAW_BITS_FILE))
    n = state.params.n
    used = ext.BitString(raw.bits[: state.blocks * n])
    block = ext.block_extract(used, state.seed_bits, state.params.h_min, EPSILON, block_bits=n)
    return summary, block


def _tag_stream_check(state: TagStreamState, op_dir: str, result, checks: Checks,
                      first_op: bool) -> Outcome:
    summary, block = result
    n = state.params.n
    checks.add("raw stream covers the fixed block count", summary["raw_bits"] >= state.blocks * n,
               f"{summary['raw_bits']} raw bits for {state.blocks} blocks of {n}")
    expected = state.blocks * ext.output_length(n, state.params.h_min, EPSILON)
    length_ok = block.n_blocks == state.blocks and len(block.bits) == expected
    checks.add("extracted length = blocks x output_length", length_ok,
               f"{len(block.bits)} bits in {block.n_blocks} blocks, expected {expected}")
    if first_op and length_ok:
        # Later operations must reproduce these bits exactly (artifact digest).
        _oracle_check(state, op_dir, block, checks)
    return Outcome(
        raw_bits=state.blocks * n,
        digest=artifact_digest(op_dir, extra=block.bits.bits.tobytes()),
        context={"certify.h_min": state.params.h_min, "certify.x_star": "none (fixed h_min)",
                 "extractor.out_bits": len(block.bits)},
        counts={"simulate.tags": summary["alice_tags"] + summary["bob_tags"],
                "simulate.pairs": summary["coincidences"]},
    )


def _oracle_check(state: TagStreamState, op_dir: str, block, checks: Checks) -> None:
    """Spot-check output bits against the scalar one-bit extractor."""
    n, m = state.params.n, state.params.m
    raw = ext.load_bits(os.path.join(op_dir, pl.RAW_BITS_FILE))
    design = ext.weak_design(m, state.params.t)
    picks = np.unique(np.linspace(0, m - 1, ORACLE_BITS_PER_BLOCK).astype(int))
    out = block.bits.bits.reshape(block.n_blocks, m)
    for b in range(block.n_blocks):
        source = ext.BitString(raw.bits[b * n:(b + 1) * n])
        wrong = [int(i) for i in picks
                 if ext.rsh_bit(source, state.seed_bits[design.sets[i]]) != out[b, i]]
        checks.add(f"{len(picks)} output bits per block equal rsh_bit", not wrong,
                   f"block {b}: bits {wrong} differ")


@dataclass(frozen=True)
class Workload:
    name: str
    prepare: Callable[[int, bool], Any]                     # (seed, smoke) -> state; set-up
    run: Callable[[Any, str], Any]                          # (state, op_dir) -> result; timed
    check: Callable[[Any, str, Any, Checks, bool], Outcome]  # untimed


WORKLOADS = {
    w.name: w for w in (
        Workload("readme-bootstrap",
                 _pipeline_prepare(README_EXPERIMENT, README_CERTIFICATION, 1, "readme-bootstrap"),
                 _pipeline_run, _pipeline_check),
        Workload("default-run",
                 _pipeline_prepare(DEFAULT_EXPERIMENT, {}, 2, "default-run"),
                 _pipeline_run, _pipeline_check),
        Workload("tag-stream", _tag_stream_prepare, _tag_stream_run, _tag_stream_check),
    )
}
