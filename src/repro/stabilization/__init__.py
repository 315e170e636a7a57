"""Bounded counters and the consensus-based global reset (Section 5)."""

from repro.stabilization.bounded import (
    BoundedSelfStabilizingAlwaysTerminating,
    BoundedSelfStabilizingNonBlocking,
)
from repro.stabilization.reset import (
    EpochEnvelope,
    ResetAlertMessage,
    ResetCommitMessage,
    ResetJoinMessage,
)

__all__ = [
    "BoundedSelfStabilizingAlwaysTerminating",
    "BoundedSelfStabilizingNonBlocking",
    "EpochEnvelope",
    "ResetAlertMessage",
    "ResetCommitMessage",
    "ResetJoinMessage",
]
