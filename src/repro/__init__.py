"""Better Than Worst-Case (BTWC) decoding for quantum error correction.

A from-scratch reproduction of the ASPLOS 2023 paper "Better Than Worst-Case
Decoding for Quantum Error Correction" (Ravi et al.): a rotated-surface-code
substrate, the lightweight on-chip Clique decoder, an MWPM off-chip baseline,
the statistical off-chip bandwidth allocation / execution-stalling machinery,
and an ERSFQ hardware cost model — plus Monte-Carlo harnesses and experiment
runners that regenerate every figure of the paper's evaluation.

Quickstart::

    from repro import (
        RotatedSurfaceCode, PhenomenologicalNoise, CliqueDecoder,
        MWPMDecoder, DecoderCascade, StabilizerType,
    )

    code = RotatedSurfaceCode(distance=5)
    noise = PhenomenologicalNoise(1e-2)
    decoder = DecoderCascade(code, StabilizerType.X, tiers="clique,mwpm")
"""

from repro._version import __version__
from repro.clique import (
    CliqueDecision,
    CliqueDecoder,
    DecoderCascade,
    PersistenceFilter,
)
from repro.codes import (
    PAPER_OPERATING_POINTS,
    OperatingPoint,
    RotatedSurfaceCode,
    logical_error_rate_estimate,
    required_code_distance,
)
from repro.decoders import (
    DecodeResult,
    Decoder,
    MWPMDecoder,
)
from repro.exceptions import ReproError
from repro.faults import FaultInjector, FaultPolicy, FaultReport, parse_fault_plan
from repro.hardware import clique_overheads, compare_with_nisqplus
from repro.noise import CodeCapacityNoise, PhenomenologicalNoise
from repro.simulation import (
    run_memory_experiment,
    simulate_clique_coverage,
    simulate_signature_distribution,
    until_wilson,
)
from repro.types import Coord, DecodeLocation, PauliError, SignatureClass, StabilizerType

__all__ = [
    "__version__",
    # geometry / codes
    "RotatedSurfaceCode",
    "OperatingPoint",
    "PAPER_OPERATING_POINTS",
    "required_code_distance",
    "logical_error_rate_estimate",
    # types
    "Coord",
    "StabilizerType",
    "PauliError",
    "SignatureClass",
    "DecodeLocation",
    # noise
    "PhenomenologicalNoise",
    "CodeCapacityNoise",
    # decoders
    "Decoder",
    "DecodeResult",
    "MWPMDecoder",
    "CliqueDecoder",
    "CliqueDecision",
    "PersistenceFilter",
    "DecoderCascade",
    # hardware
    "clique_overheads",
    "compare_with_nisqplus",
    # simulation
    "simulate_signature_distribution",
    "simulate_clique_coverage",
    "run_memory_experiment",
    "until_wilson",
    # fault tolerance
    "FaultInjector",
    "FaultPolicy",
    "FaultReport",
    "parse_fault_plan",
    # errors
    "ReproError",
]
