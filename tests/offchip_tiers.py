"""Ready off-chip tiers for tests: MWPM behind the base class's generic paths.

A cascade's off-chip slot takes any ready :class:`~repro.decoders.base.Decoder`
(``("clique", <Decoder>)``).  A tier that does not override
``decode_event_windows`` is reached through the base class's per-window loop,
which calls the tier's ``decode_events_bitmap`` hook when it has one and
``decode`` on the window's detection mask otherwise.  Each wrapper here takes
one of those two branches while solving every window exactly as MWPM does, so
results through it can be compared with the native ``"mwpm"`` tier bit for
bit.  A new off-chip decoder (a real union-find, say) enters the same slot.

Importable from every test directory: pytest puts ``tests/`` on
``sys.path`` for its root ``conftest.py``.  The classes live at module level
so sharded runs can pickle the factories.
"""

from __future__ import annotations

import numpy as np

from repro.clique.cascade import DecoderCascade
from repro.decoders.base import Decoder, DecodeResult
from repro.decoders.mwpm import MWPMDecoder


class DecodeOnlyMWPM(Decoder):
    """Ready tier with ``decode`` only: the base loop decodes window masks."""

    def __init__(self, code, stype) -> None:
        super().__init__(code, stype)
        self._inner = MWPMDecoder(code, stype)

    def decode(self, detections: np.ndarray) -> DecodeResult:
        return self._inner.decode(detections)


class BitmapHookMWPM(DecodeOnlyMWPM):
    """Ready tier with the per-window ``decode_events_bitmap`` hook."""

    def decode_events_bitmap(self, rounds: np.ndarray, ancillas: np.ndarray) -> np.ndarray:
        return self._inner.decode_events_bitmap(rounds, ancillas)


#: The ready tiers by the id tests give them.
READY_TIERS = {"decode-only": DecodeOnlyMWPM, "bitmap-hook": BitmapHookMWPM}


class ReadyTierCascade:
    """Picklable factory of a Clique cascade with a ready off-chip tier."""

    def __init__(self, tier_class: type[Decoder]) -> None:
        self.tier_class = tier_class

    def __call__(self, code, stype) -> DecoderCascade:
        return DecoderCascade(code, stype, tiers=("clique", self.tier_class(code, stype)))
