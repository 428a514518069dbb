"""Certified randomness from quantum steering, end to end.

Simulate a lossy two-qubit steering experiment, reconstruct the untrusted
party's assemblage by maximum likelihood, certify extractable min-entropy
with semidefinite programming over assemblages, and turn the raw detection
record into near-uniform bits with a quantum-proof Trevisan extractor.
"""

from .assemblage import (
    Assemblage,
    InsufficientDataError,
    MlReconstruction,
    ReconstructionError,
    TomographyCounts,
    born_probabilities,
    default_measurements,
    ideal_assemblage,
    load_assemblage,
    load_counts,
    ml_reconstruct,
    ml_reconstruct_many,
    save_assemblage,
    save_counts,
    validate_assemblage,
)
from .certify import (
    CertificationError,
    CertificationResult,
    bootstrap_uncertainty,
    guessing_probability,
    load_certification,
    min_entropy,
    save_certification,
    steering_functional,
)
from .certify import certify as certify_assemblage
from .extractor import (
    BitString,
    ExtractorParams,
    block_extract,
    extract,
    generate_seed,
    load_bits,
    output_length,
    rsh_bit,
    save_bits,
    weak_design,
)
from .pipeline import PipelineConfig, RunReport
from .pipeline import run as run_pipeline
from .pipeline import sweep as sweep_certification
from .sdp import (
    SdpProblem,
    SdpSolution,
    check_certificate,
    solve,
)
from .simulate import (
    ExperimentConfig,
    StreamResult,
    coincidences,
    load_timetags,
    raw_bits,
    save_timetags,
    simulate_streams,
    simulate_tomography,
    werner_state,
)

# Keep the package attributes pointing at the submodules (the orchestrator
# function `certify.certify` is re-exported above as `certify_assemblage`).
from . import assemblage, certify, extractor, gf2, linalg, pipeline, sdp, simulate  # noqa: E402,F401

__version__ = "0.1.0"

__all__ = [
    "Assemblage",
    "BitString",
    "CertificationError",
    "CertificationResult",
    "ExperimentConfig",
    "ExtractorParams",
    "InsufficientDataError",
    "MlReconstruction",
    "PipelineConfig",
    "ReconstructionError",
    "RunReport",
    "SdpProblem",
    "SdpSolution",
    "StreamResult",
    "TomographyCounts",
    "block_extract",
    "bootstrap_uncertainty",
    "born_probabilities",
    "certify_assemblage",
    "check_certificate",
    "coincidences",
    "default_measurements",
    "extract",
    "generate_seed",
    "guessing_probability",
    "ideal_assemblage",
    "load_assemblage",
    "load_bits",
    "load_certification",
    "load_counts",
    "load_timetags",
    "min_entropy",
    "ml_reconstruct",
    "ml_reconstruct_many",
    "output_length",
    "raw_bits",
    "rsh_bit",
    "run_pipeline",
    "save_assemblage",
    "save_bits",
    "save_certification",
    "save_counts",
    "save_timetags",
    "simulate_streams",
    "simulate_tomography",
    "solve",
    "steering_functional",
    "sweep_certification",
    "validate_assemblage",
    "weak_design",
    "werner_state",
    "__version__",
]
