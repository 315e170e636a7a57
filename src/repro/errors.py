"""Exception hierarchy for the ``repro`` library.

Every exception raised deliberately by the library derives from
:class:`ReproError` so that callers can catch library failures without
masking programming errors.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the ``repro`` library."""


class SimulationError(ReproError):
    """The simulation kernel was used incorrectly or reached a bad state."""


class DeadlockError(SimulationError):
    """The kernel ran out of events while tasks were still waiting.

    This usually means an algorithm is blocked on a message that can never
    arrive (for example, too many nodes have crashed for a majority quorum
    to form).
    """


class CancelledError(ReproError):
    """A simulated task or future was cancelled.

    Mirrors :class:`asyncio.CancelledError` for the deterministic kernel.
    """


class InvalidTransitionError(SimulationError):
    """A future or task was driven through an illegal state transition."""


class NetworkError(ReproError):
    """Misuse of the simulated network fabric (unknown node, bad address)."""


class NodeCrashedError(ReproError):
    """An operation was lost to its node's crash or detectable restart."""


class ConfigurationError(ReproError):
    """An invalid cluster, channel, or algorithm configuration was supplied."""


class EpochEvictedError(ReproError):
    """A decided epoch was asked for after its retention window closed.

    The epoch decider (:mod:`repro.shard.epoch`) keeps only a sliding
    window of decided shard maps — unbounded retention is exactly the
    kind of ever-growing state the paper's bounded-space discipline
    forbids.  Callers that need history older than the window must
    record it themselves at decision time.
    """


class HistoryError(ReproError):
    """An operation history is malformed (e.g. response without invocation)."""


class ObservabilityError(ReproError):
    """Misuse of the observability layer (metrics registry, spans, windows).

    Raised e.g. when a :class:`~repro.analysis.metrics.TrafficWindow`'s
    ``stats`` is read before the window closed, or when a registry
    instrument name is reused with a different instrument type.
    """


class ResetInProgressError(ReproError):
    """An operation was rejected because a global reset is in progress.

    The bounded-counter variant (paper Section 5) disables new operations
    while the consensus-based global reset executes.  Operations invoked in
    that window are aborted with this error; the paper's criteria explicitly
    permit aborting a bounded number of operations during the seldom reset.
    """
