"""Multi-round syndrome histories and their detection events."""

from repro.syndrome.history import DetectionEvent, SyndromeHistory

__all__ = ["SyndromeHistory", "DetectionEvent"]
