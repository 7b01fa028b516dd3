"""Off-chip ("complex") decoders used as the robust fallback in the BTWC hierarchy.

The paper's baseline is Minimum Weight Perfect Matching (MWPM) [Dennis et al.],
and it is the cascade's one named off-chip tier.  Another off-chip decoder
joins a :class:`~repro.clique.cascade.DecoderCascade` as a ready
:class:`Decoder` instance (``tiers=("clique", decoder)``).
"""

from repro.decoders.base import Decoder, DecodeResult
from repro.decoders.blossom import match_events
from repro.decoders.matching_graph import MatchingGraph
from repro.decoders.mwpm import MWPMDecoder

__all__ = [
    "Decoder",
    "DecodeResult",
    "MatchingGraph",
    "MWPMDecoder",
    "match_events",
]
