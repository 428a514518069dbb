"""End-to-end protocol orchestration.

``run`` hands each stage's result to the next in memory (the counts to
tomo and certify, the assemblage to certify, the certificate and the raw
bits to extract) and writes every artifact only as an output:

    simulate   -> counts.txt, alice_tags.bin, bob_tags.bin, raw_bits.bin
    tomo       -> assemblage.txt
    certify    -> certification.txt
    extract    -> extracted_bits.bin, extractor_params.txt, [seed.bin]

``counts.txt`` and ``raw_bits.bin`` are the device's data, what a lab would
hand to the protocol: ``run`` reads the counts back once after the simulator
writes them, and the raw bits only when the gate passes.  Nothing derived
from them is read back, so the bits are extracted at the rate certified
from their own source in the same call.

``run`` applies the protocol gate (certified min-entropy above the floor and
at least one extractable bit), and writes a deterministic
report.json/report.txt plus wall-clock timings in a separate timings.json so
the deterministic artifacts stay byte-comparable.  The tomography fit's
summary is report.json's ``tomography`` section.
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, field, asdict

from . import assemblage as asm
from . import extractor as ext
from . import simulate as sim
from .certify import certify as certify_assemblage
from .certify import CertificationResult, MIN_RESAMPLES, save_certification
from .certify import load_certification  # noqa: F401  unused; benchmarks/layers.py wraps it

CONFIG_FORMAT = "steerqrng-config-v1"

EXIT_OK = 0
EXIT_CERTIFICATION = 2
EXIT_PARAMETERS = 3
EXIT_IO = 4
EXIT_NUMERICAL = 5

# the certified min-entropy per trial must exceed this for a run to extract
MIN_ENTROPY_FLOOR = 1e-6

COUNTS_FILE = "counts.txt"
ALICE_TAGS_FILE = "alice_tags.bin"
BOB_TAGS_FILE = "bob_tags.bin"
RAW_BITS_FILE = "raw_bits.bin"
ASSEMBLAGE_FILE = "assemblage.txt"
CERTIFICATION_FILE = "certification.txt"
SEED_FILE = "seed.bin"
EXTRACTED_FILE = "extracted_bits.bin"
EXTRACTOR_REPORT_FILE = "extractor_params.txt"
REPORT_JSON = "report.json"
REPORT_TEXT = "report.txt"
TIMINGS_FILE = "timings.json"
SWEEP_TSV = "sweep.tsv"
SWEEP_JSON = "sweep.json"


class ConfigError(ValueError):
    """The run configuration is malformed."""


class StageInputError(RuntimeError):
    """An input file (the config or an external seed) is missing or
    unreadable."""


@dataclass
class CertificationSettings:
    # kept for existing configs: "auto" or experiment.rng_setting, and either
    # way the certified setting is rng_setting (PipelineConfig.validate)
    x_star: str = "auto"
    resamples: int = 0
    bootstrap_seed: int = 1

    def validate(self):
        sim.check_fields(self, ConfigError)
        if self.resamples < 0 or 0 < self.resamples < MIN_RESAMPLES:
            raise ConfigError(
                f"resamples must be 0 (no bootstrap) or at least {MIN_RESAMPLES}, "
                f"got {self.resamples}")
        if self.bootstrap_seed < 0:
            raise ConfigError("bootstrap_seed must be non-negative")
        return self


@dataclass
class ExtractionSettings:
    epsilon: float = 1e-6
    block_bits: int = 20_000
    seed_file: str | None = None
    seed_rng: int = 7

    def validate(self):
        sim.check_fields(self, ConfigError)
        if not 0.0 < self.epsilon < 1.0:
            raise ConfigError("epsilon must lie in (0, 1)")
        if self.block_bits < 1:
            raise ConfigError("block_bits must be positive")
        if self.seed_rng < 0:
            raise ConfigError("seed_rng must be non-negative")
        return self


@dataclass
class PipelineConfig:
    experiment: sim.ExperimentConfig = field(default_factory=sim.ExperimentConfig)
    certification: CertificationSettings = field(default_factory=CertificationSettings)
    extraction: ExtractionSettings = field(default_factory=ExtractionSettings)
    output_dir: str | None = None

    def validate(self):
        try:
            self.experiment.validate()
        except ValueError as exc:
            raise ConfigError(f"experiment section: {exc}") from exc
        self.certification.validate()
        self.extraction.validate()
        if not isinstance(self.output_dir, (str, type(None))):
            raise ConfigError(f"output_dir must be a string or null, got {self.output_dir!r}")
        rng_setting = self.experiment.rng_setting
        if self.certification.x_star not in ("auto", rng_setting):
            raise ConfigError(
                f"x_star must be 'auto' or the stream's rng_setting {rng_setting!r}, "
                f"got {self.certification.x_star!r}")
        return self

    def to_dict(self) -> dict:
        data = {
            "format": CONFIG_FORMAT,
            "experiment": self.experiment.to_dict(),
            "certification": asdict(self.certification),
            "extraction": asdict(self.extraction),
        }
        if self.output_dir is not None:
            data["output_dir"] = self.output_dir
        return data

    @classmethod
    def from_dict(cls, data: dict) -> "PipelineConfig":
        if not isinstance(data, dict):
            raise ConfigError("config must be a JSON object")
        fmt = data.get("format")
        if fmt != CONFIG_FORMAT:
            raise ConfigError(f"config format must be {CONFIG_FORMAT!r}, got {fmt!r}")
        known = {"format", "experiment", "certification", "extraction", "output_dir"}
        unknown = set(data) - known
        if unknown:
            raise ConfigError(f"unknown config sections: {sorted(unknown)}")

        def build(section, dc_type):
            payload = data.get(section, {})
            if not isinstance(payload, dict):
                raise ConfigError(f"config section {section!r} must be an object")
            fields = set(dc_type.__dataclass_fields__)
            bad = set(payload) - fields
            if bad:
                raise ConfigError(f"unknown keys in {section!r}: {sorted(bad)}")
            return dc_type(**payload)

        try:
            experiment = sim.ExperimentConfig.from_dict(data.get("experiment", {}))
        except ValueError as exc:
            raise ConfigError(f"experiment section: {exc}") from exc
        config = cls(
            experiment=experiment,
            certification=build("certification", CertificationSettings),
            extraction=build("extraction", ExtractionSettings),
            output_dir=data.get("output_dir"),
        )
        return config.validate()

    @classmethod
    def from_file(cls, path: str) -> "PipelineConfig":
        try:
            data = _read_json(path)
        except FileNotFoundError:
            raise StageInputError(f"config file not found: {path}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"{path}: invalid JSON ({exc})") from exc
        return cls.from_dict(data)

    def to_file(self, path: str):
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(self.to_dict(), fh, indent=2, sort_keys=True)
            fh.write("\n")


def _write_json(path: str, payload: dict):
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _read_json(path: str) -> dict:
    with open(path, "r", encoding="utf-8") as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# stages


def stage_simulate(config: PipelineConfig, out_dir: str) -> dict:
    """Produce certification counts and the randomness-stage raw bits."""
    os.makedirs(out_dir, exist_ok=True)
    counts = sim.simulate_tomography(config.experiment)
    asm.save_counts(counts, os.path.join(out_dir, COUNTS_FILE))

    streams = sim.simulate_streams(config.experiment)
    header = {
        "seed": config.experiment.rng_seed,
        "visibility": config.experiment.visibility,
        "eta_alice": config.experiment.eta_alice,
        "eta_bob": config.experiment.eta_bob,
        "pair_rate": config.experiment.pair_rate,
        "duration_rng": config.experiment.duration_rng,
    }
    sim.save_timetags(streams.alice_tags, os.path.join(out_dir, ALICE_TAGS_FILE),
                      dict(header, party="alice"))
    sim.save_timetags(streams.bob_tags, os.path.join(out_dir, BOB_TAGS_FILE),
                      dict(header, party="bob"))

    pairs = sim.coincidences(streams.alice_tags, streams.bob_tags,
                             config.experiment.coincidence_window)
    bits = sim.raw_bits(streams.alice_tags, pairs)
    ext.save_bits(bits, os.path.join(out_dir, RAW_BITS_FILE))
    return {
        "counts_total": int(counts.n.sum()),
        "alice_tags": int(len(streams.alice_tags)),
        "bob_tags": int(len(streams.bob_tags)),
        "coincidences": int(len(pairs)),
        "raw_bits": len(bits),
    }


def stage_tomo(counts: asm.TomographyCounts, out_dir: str) -> tuple[dict, asm.Assemblage]:
    """Reconstruct the assemblage from the tomography counts."""
    reconstruction = asm.ml_reconstruct(counts)
    asm.save_assemblage(reconstruction.assemblage, os.path.join(out_dir, ASSEMBLAGE_FILE))
    summary = {
        "log_likelihood": reconstruction.log_likelihood,
        "log_likelihood_per_trial": reconstruction.log_likelihood_per_trial,
        "iterations": reconstruction.iterations,
        "converged": reconstruction.converged,
        "start_log_likelihoods": list(reconstruction.start_log_likelihoods),
    }
    return summary, reconstruction.assemblage


def stage_certify(config: PipelineConfig, assemblage: asm.Assemblage,
                  counts: asm.TomographyCounts,
                  out_dir: str) -> tuple[dict, CertificationResult]:
    """Certify min-entropy (and the steering functional) of the assemblage,
    at ``experiment.rng_setting``, the setting the raw stream measures; the
    counts feed the bootstrap, if any."""
    settings = config.certification
    result = certify_assemblage(
        assemblage,
        x_star=config.experiment.rng_setting,
        counts=counts,
        resamples=settings.resamples,
        seed=settings.bootstrap_seed,
    )
    save_certification(result, os.path.join(out_dir, CERTIFICATION_FILE))
    summary = {
        "x_star": result.x_star,
        "p_guess": result.p_guess,
        "h_min": result.h_min,
        "mu": result.mu,
        "beta": result.beta,
    }
    if result.uncertainty is not None:
        summary["h_min_mean"] = result.uncertainty.h_min_mean
        summary["h_min_std"] = result.uncertainty.h_min_std
        summary["bootstrap_failed"] = result.uncertainty.failed
    return summary, result


def certification_gate(cert_summary: dict) -> str | None:
    """Why the certified min-entropy stops the run (at or below
    ``MIN_ENTROPY_FLOOR``), or None when it clears the floor."""
    if cert_summary["h_min"] > MIN_ENTROPY_FLOOR:
        return None
    return (f"certification failed: h_min = {cert_summary['h_min']:.6g} "
            f"<= floor {MIN_ENTROPY_FLOOR:.6g}")


class ExtractionParameterError(RuntimeError):
    """The certified rate leaves nothing to extract (protocol parameter fail)."""


def stage_extract(config: PipelineConfig, result: CertificationResult, raw,
                  out_dir: str) -> dict:
    """Run the extractor over the raw bits at the rate ``result`` certifies.

    Expects the protocol gate to have been checked by the caller; still
    refuses to extract when the parameter arithmetic yields no output bits.
    """
    settings = config.extraction
    params = ext.ExtractorParams.for_source(settings.block_bits, result.h_min, settings.epsilon)
    # a refused seed file stops before any write
    seed = None
    if params.passes and settings.seed_file is not None:
        try:
            seed = ext.ingest_seed(settings.seed_file, params.d)
        except (OSError, ValueError) as exc:
            raise StageInputError(
                f"extract: unusable seed file {settings.seed_file} ({type(exc).__name__}: {exc})"
            ) from exc
    with open(os.path.join(out_dir, EXTRACTOR_REPORT_FILE), "w", encoding="ascii") as fh:
        fh.write(ext.params_report(params))
    if not params.passes:
        raise ExtractionParameterError(
            f"no extractable bits: m = 0 at block_bits={settings.block_bits}, "
            f"h_min={result.h_min:.6g}, epsilon={settings.epsilon}"
        )
    if len(raw) < settings.block_bits:
        raise ExtractionParameterError(
            f"raw stream of {len(raw)} bits is shorter than one "
            f"{settings.block_bits}-bit block"
        )

    if seed is None:
        seed = ext.generate_seed(params.d, settings.seed_rng)
        ext.save_bits(seed, os.path.join(out_dir, SEED_FILE))

    block = ext.block_extract(
        raw, seed, result.h_min, settings.epsilon, block_bits=settings.block_bits
    )
    ext.save_bits(block.bits, os.path.join(out_dir, EXTRACTED_FILE))
    return {
        "blocks": block.n_blocks,
        "bits_per_block": block.params.m,
        "total_bits": len(block.bits),
        "discarded_raw_bits": block.discarded_bits,
        "seed_bits": block.params.d,
        "field_width": block.params.s,
    }


@dataclass
class RunReport:
    config: dict
    certification: dict
    pass_flag: bool
    exit_code: int
    gate: str
    extraction: dict | None
    artifacts: dict
    simulation: dict | None = None
    tomography: dict | None = None

    def to_dict(self) -> dict:
        return {
            "config": self.config,
            "simulation": self.simulation,
            "tomography": self.tomography,
            "certification": self.certification,
            "pass": self.pass_flag,
            "gate": self.gate,
            "exit_code": self.exit_code,
            "extraction": self.extraction,
            "artifacts": self.artifacts,
        }

    def text(self) -> str:
        cert = self.certification
        lines = [
            "steerqrng run report",
            "====================",
            f"setting x*        : {cert['x_star']}",
            f"guessing prob.    : {cert['p_guess']:.9f}",
            f"min-entropy rate  : {cert['h_min']:.9f}",
            f"lhs slack mu      : {cert['mu']:+.9f}",
            f"steering beta     : {cert['beta']:+.9f}",
        ]
        if "h_min_mean" in cert:
            lines.append(f"bootstrap         : {cert['h_min_mean']:.9f} +/- {cert['h_min_std']:.9f}")
        lines.append(f"protocol gate     : {self.gate}")
        lines.append(f"pass              : {'yes' if self.pass_flag else 'no'}")
        extraction = self.extraction
        if extraction:
            lines.append(
                "extraction        : "
                f"{extraction['total_bits']} bits in {extraction['blocks']} blocks "
                f"({extraction['bits_per_block']} per block, seed {extraction['seed_bits']} bits)"
            )
        else:
            lines.append("extraction        : absent")
        lines.append("artifacts:")
        lines += [f"  {name}: {self.artifacts[name]}" for name in sorted(self.artifacts)]
        return "\n".join(lines) + "\n"


def run(config: PipelineConfig, out_dir: str) -> RunReport:
    """Execute the full protocol and write all artifacts plus the report."""
    config.validate()
    os.makedirs(out_dir, exist_ok=True)
    timings: dict[str, float] = {}
    artifacts: dict[str, str] = {}

    t0 = time.perf_counter()
    sim_summary = stage_simulate(config, out_dir)
    timings["simulate"] = time.perf_counter() - t0
    artifacts.update({
        "counts": COUNTS_FILE,
        "alice_tags": ALICE_TAGS_FILE,
        "bob_tags": BOB_TAGS_FILE,
        "raw_bits": RAW_BITS_FILE,
    })

    t0 = time.perf_counter()
    counts = asm.load_counts(os.path.join(out_dir, COUNTS_FILE))
    tomo_summary, assemblage = stage_tomo(counts, out_dir)
    timings["tomo"] = time.perf_counter() - t0
    artifacts["assemblage"] = ASSEMBLAGE_FILE

    t0 = time.perf_counter()
    cert_summary, result = stage_certify(config, assemblage, counts, out_dir)
    timings["certify"] = time.perf_counter() - t0
    artifacts["certification"] = CERTIFICATION_FILE

    extraction_summary = None
    gate = certification_gate(cert_summary)
    if gate is not None:
        pass_flag, exit_code = False, EXIT_CERTIFICATION
    else:
        t0 = time.perf_counter()
        raw = ext.load_bits(os.path.join(out_dir, RAW_BITS_FILE))
        try:
            extraction_summary = stage_extract(config, result, raw, out_dir)
        except ExtractionParameterError as exc:
            pass_flag, exit_code, gate = False, EXIT_PARAMETERS, f"parameter check failed: {exc}"
        else:
            pass_flag, exit_code, gate = True, EXIT_OK, "passed"
            artifacts["extracted_bits"] = EXTRACTED_FILE
            if config.extraction.seed_file is None:
                artifacts["seed"] = SEED_FILE
        timings["extract"] = time.perf_counter() - t0
        artifacts["extractor_params"] = EXTRACTOR_REPORT_FILE

    report = RunReport(
        config=config.to_dict(),
        simulation=sim_summary,
        tomography=tomo_summary,
        certification=cert_summary,
        pass_flag=pass_flag,
        exit_code=exit_code,
        gate=gate,
        extraction=extraction_summary,
        artifacts=artifacts,
    )
    _write_json(os.path.join(out_dir, REPORT_JSON), report.to_dict())
    with open(os.path.join(out_dir, REPORT_TEXT), "w", encoding="utf-8") as fh:
        fh.write(report.text())
    _write_json(os.path.join(out_dir, TIMINGS_FILE), {"seconds": timings})
    return report


def sweep(
    config: PipelineConfig,
    out_dir: str,
    eta_values,
    visibility_values=None,
) -> list[dict]:
    """Certification sweep over ideal assemblages on an eta (x visibility) grid.

    Emits plot-ready rows (one per grid point) with the certified rate at
    ``experiment.rng_setting`` and the steering quantities, written as both
    TSV and JSON.
    """
    config.validate()
    os.makedirs(out_dir, exist_ok=True)
    if visibility_values is None:
        visibility_values = [config.experiment.visibility]
    x_star = config.experiment.rng_setting

    rows = []
    for visibility in visibility_values:
        rho = sim.werner_state(visibility)
        for eta in eta_values:
            ideal = asm.ideal_assemblage(rho, eta=eta)
            result = certify_assemblage(ideal, x_star=x_star)
            rows.append({
                "visibility": float(visibility),
                "eta": float(eta),
                "x_star": result.x_star,
                "p_guess": result.p_guess,
                "h_min": result.h_min,
                "mu": result.mu,
                "beta": result.beta,
            })

    columns = ["visibility", "eta", "x_star", "p_guess", "h_min", "mu", "beta"]
    with open(os.path.join(out_dir, SWEEP_TSV), "w", encoding="ascii") as fh:
        fh.write("\t".join(columns) + "\n")
        for row in rows:
            fh.write("\t".join(
                row[c] if isinstance(row[c], str) else f"{row[c]:.12g}" for c in columns
            ) + "\n")
    _write_json(os.path.join(out_dir, SWEEP_JSON), {"rows": rows})
    return rows
