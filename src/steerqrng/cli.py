"""Command-line interface.

``run`` executes the whole protocol into a run directory and prints its
report.txt, and ``sweep`` certifies ideal assemblages over an
eta/visibility grid.  Exit codes:

    0  protocol passed, or the sweep completed
    2  certification failed (no certifiable min-entropy)
    3  parameter failure (certified rate leaves no extractable bits)
    4  I/O or configuration problem
    5  numerical failure in reconstruction or a solver
"""

from __future__ import annotations

import argparse
import math
import sys

from . import assemblage as asm
from .certify import CertificationError
from . import pipeline as pl


def _load_config(args) -> pl.PipelineConfig:
    if args.config is None:
        config = pl.PipelineConfig()
    else:
        config = pl.PipelineConfig.from_file(args.config)
    if getattr(args, "seed", None) is not None:
        config.experiment.rng_seed = args.seed
    return config.validate()


def _out_dir(args, config: pl.PipelineConfig) -> str:
    out = getattr(args, "out", None) or config.output_dir
    if out is None:
        raise pl.ConfigError("no output directory: pass --out or set output_dir in the config")
    return out


# Largest number of points a start:stop:step grid may hold (one SDP solve each).
MAX_GRID_POINTS = 10_001


def _grid_value(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise pl.ConfigError(f"grid value {text!r} is not a number") from None
    if not math.isfinite(value):
        raise pl.ConfigError(f"grid value {text!r} is not finite")
    return value


def _parse_grid(text: str) -> list[float]:
    """Either 'start:stop:step' (inclusive endpoint within half a step, at
    most MAX_GRID_POINTS points) or a comma-separated list; every value must
    lie in [0, 1]."""
    if ":" in text:
        parts = text.split(":")
        if len(parts) != 3:
            raise pl.ConfigError(f"grid must be start:stop:step, got {text!r}")
        start, stop, step = (_grid_value(p) for p in parts)
        if step <= 0:
            raise pl.ConfigError("grid step must be positive")
        # start + i * step for every i >= 0 up to stop + step / 2
        last = (stop - start) / step + 0.5
        if last >= MAX_GRID_POINTS:
            raise pl.ConfigError(f"grid {text!r} has more than {MAX_GRID_POINTS} points")
        values = [round(start + i * step, 12) for i in range(math.floor(last) + 1)]
    else:
        values = [_grid_value(p) for p in text.split(",") if p]
    if not values:
        raise pl.ConfigError(f"grid {text!r} holds no values")
    for v in values:
        if not 0.0 <= v <= 1.0:
            raise pl.ConfigError(f"grid value {v} lies outside [0, 1]")
    return values


def cmd_run(args) -> int:
    config = _load_config(args)
    out = _out_dir(args, config)
    report = pl.run(config, out)
    print(report.text(), end="")
    return report.exit_code


def cmd_sweep(args) -> int:
    config = _load_config(args)
    out = _out_dir(args, config)
    etas = _parse_grid(args.eta)
    visibilities = _parse_grid(args.visibility) if args.visibility else None
    rows = pl.sweep(config, out, etas, visibilities)
    print(f"swept {len(rows)} grid points -> {out}/{pl.SWEEP_TSV}")
    for row in rows:
        print(f"  V={row['visibility']:.4f} eta={row['eta']:.4f} "
              f"h_min={row['h_min']:.6f} beta={row['beta']:+.6f}")
    return pl.EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="steerqrng",
        description="One-sided device-independent randomness: simulate, certify, extract.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, handler, help_text, *, seed=True):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("-c", "--config", help="JSON run configuration")
        p.add_argument("-o", "--out", help="run directory (overrides config output_dir)")
        if seed:
            p.add_argument("--seed", type=int, help="override the experiment RNG seed")
        p.set_defaults(handler=handler)
        return p

    add("run", cmd_run, "execute the full protocol")

    p_sweep = add("sweep", cmd_sweep, "certification sweep over an eta/visibility grid",
                  seed=False)
    p_sweep.add_argument("--eta", required=True,
                         help="grid as start:stop:step or comma-separated values")
    p_sweep.add_argument("--visibility", help="optional visibility grid (same syntax)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except pl.ExtractionParameterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return pl.EXIT_PARAMETERS
    except (pl.ConfigError, pl.StageInputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return pl.EXIT_IO
    except (CertificationError, asm.ReconstructionError,
            asm.InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return pl.EXIT_NUMERICAL

