"""Off-chip ("complex") decoders used as the robust fallback in the BTWC hierarchy.

The paper's baseline is Minimum Weight Perfect Matching (MWPM) [Dennis et al.].
A clustering (union-find style) decoder is the alternative off-chip tier
(``--tiers clique,union_find``).
"""

from repro.decoders.base import Decoder, DecodeResult
from repro.decoders.blossom import match_events
from repro.decoders.matching_graph import MatchingGraph, SpaceTimeEvent
from repro.decoders.mwpm import MWPMDecoder
from repro.decoders.registry import (
    TIER_DECODERS,
    resolve_tier_spec,
    tier_decoder_names,
)
from repro.decoders.union_find import ClusteringDecoder

__all__ = [
    "Decoder",
    "DecodeResult",
    "MatchingGraph",
    "SpaceTimeEvent",
    "MWPMDecoder",
    "ClusteringDecoder",
    "TIER_DECODERS",
    "match_events",
    "resolve_tier_spec",
    "tier_decoder_names",
]
