"""Off-chip bandwidth accounting, AFS compression, allocation and stalling.

Implements Section 5 (statistical bandwidth allocation and decode-overflow
stalling) and Section 7.2 (comparison against AFS syndrome compression).
"""

from repro.bandwidth.afs import (
    afs_average_compressed_bits,
    afs_compression_reduction,
    clique_offchip_reduction,
    sparse_representation_bits,
)
from repro.bandwidth.allocation import (
    BandwidthPlan,
    provision_for_percentile,
    provisioning_sweep,
)
from repro.bandwidth.stalling import CycleRecord, StallSimulationResult, StallSimulator
from repro.bandwidth.traffic import (
    expected_nonzero_syndrome_bits,
    syndrome_bits_per_cycle,
)

__all__ = [
    "sparse_representation_bits",
    "afs_average_compressed_bits",
    "afs_compression_reduction",
    "clique_offchip_reduction",
    "syndrome_bits_per_cycle",
    "expected_nonzero_syndrome_bits",
    "BandwidthPlan",
    "provision_for_percentile",
    "provisioning_sweep",
    "StallSimulator",
    "StallSimulationResult",
    "CycleRecord",
]
