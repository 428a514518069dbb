"""Command-line interface.

Subcommands mirror the pipeline stages (simulate, tomo, certify, extract),
plus ``run`` for the whole protocol, ``report`` to render an existing run
directory, and ``sweep`` for certification grids.  Exit codes:

    0  protocol passed (or the requested stage completed)
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


def cmd_simulate(args) -> int:
    config = _load_config(args)
    out = _out_dir(args, config)
    summary = pl.stage_simulate(config, out)
    print(f"simulated {summary['counts_total']} tomography trials, "
          f"{summary['coincidences']} coincidences, {summary['raw_bits']} raw bits -> {out}")
    return pl.EXIT_OK


def cmd_tomo(args) -> int:
    config = _load_config(args)
    out = _out_dir(args, config)
    summary = pl.stage_tomo(config, out)
    print(f"reconstructed assemblage: log-likelihood/trial = "
          f"{summary['log_likelihood_per_trial']:.6f} "
          f"({summary['iterations']} iterations)")
    return pl.EXIT_OK


def cmd_certify(args) -> int:
    config = _load_config(args)
    out = _out_dir(args, config)
    summary = pl.stage_certify(config, out)
    line = (f"x* = {summary['x_star']}  p_guess = {summary['p_guess']:.9f}  "
            f"h_min = {summary['h_min']:.9f}  mu = {summary['mu']:+.3e}")
    if "h_min_std" in summary:
        line += f"  (bootstrap +/- {summary['h_min_std']:.2e})"
    print(line)
    gate = pl.certification_gate(summary)
    if gate is not None:
        print(gate)
        return pl.EXIT_CERTIFICATION
    return pl.EXIT_OK


def cmd_extract(args) -> int:
    config = _load_config(args)
    out = _out_dir(args, config)
    summary = pl.stage_extract(config, out)
    print(f"extracted {summary['total_bits']} bits "
          f"({summary['blocks']} blocks x {summary['bits_per_block']}, "
          f"seed {summary['seed_bits']} bits)")
    return pl.EXIT_OK


def cmd_run(args) -> int:
    config = _load_config(args)
    out = _out_dir(args, config)
    report = pl.run(config, out)
    print(pl.render_report(out), end="")
    return report.exit_code


def cmd_report(args) -> int:
    if args.json:
        import json

        print(json.dumps(pl.load_report(args.out), indent=2, sort_keys=True))
    else:
        print(pl.render_report(args.out), end="")
    return pl.EXIT_OK


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

    add("simulate", cmd_simulate, "generate counts, time tags, and raw bits")
    add("tomo", cmd_tomo, "reconstruct the assemblage from counts")
    add("certify", cmd_certify, "certify min-entropy from the assemblage")
    add("extract", cmd_extract, "extract certified bits from the raw stream")
    add("run", cmd_run, "execute the full protocol")

    p_report = sub.add_parser("report", help="render summaries for a run directory")
    p_report.add_argument("-o", "--out", required=True, help="run directory")
    p_report.add_argument("--json", action="store_true", help="machine-readable output")
    p_report.set_defaults(handler=cmd_report)

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
    except (pl.ConfigError, pl.StageInputError, FileNotFoundError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return pl.EXIT_IO
    except (CertificationError, asm.ReconstructionError,
            asm.InsufficientDataError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return pl.EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
