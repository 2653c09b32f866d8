"""Exception hierarchy for the repro package.

All library-raised exceptions derive from :class:`ReproError` so callers
can catch one type at an API boundary.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class SimulationError(ReproError):
    """An inconsistency inside the discrete-event simulator."""


class DeadlockError(SimulationError):
    """The simulated program can make no further progress.

    Raised when every live rank is blocked (e.g. on an unmatched receive
    or an unpaired collective) and no event remains in the queue.
    """

    def __init__(
        self,
        message: str,
        blocked_ranks: list[int] | None = None,
        blocked_ops: dict[int, str] | None = None,
    ):
        super().__init__(message)
        #: Ranks that were blocked when the deadlock was detected.
        self.blocked_ranks: list[int] = blocked_ranks or []
        #: rank -> description of the operation it was blocked in
        #: (call name plus peer/tag), when known.
        self.blocked_ops: dict[int, str] = blocked_ops or {}


class ProgramError(SimulationError):
    """A simulated program used the message-passing API incorrectly."""


class TopologyError(ReproError):
    """Invalid cluster description (unknown node, bad capacity, ...)."""


class TraceError(ReproError):
    """Malformed trace data or trace file."""


class SignatureError(ReproError):
    """Invalid execution-signature structure or construction failure."""


class SkeletonError(ReproError):
    """Skeleton generation failed (e.g. impossible scaling factor)."""


class SkeletonQualityWarning(UserWarning):
    """Warning issued when a requested skeleton is smaller than the
    estimated shortest *good* skeleton (paper section 3.4)."""


class FaultError(ReproError):
    """Invalid fault plan (unknown event kind, bad window, bad target)."""


class InjectedCrashError(SimulationError):
    """A fault plan crashed a rank with no restart; the run is lost."""

    def __init__(self, message: str, rank: int = -1, t: float = float("nan")):
        super().__init__(message)
        self.rank = rank
        self.t = t


class RunTimeoutError(ReproError):
    """A run exceeded its wall-clock budget and was aborted."""


class ExperimentError(ReproError):
    """Experiment configuration or execution failure."""


class StoreError(ReproError):
    """Artifact-store corruption or I/O failure (see :mod:`repro.store`)."""


class WorkerCrashError(ExperimentError):
    """A pool worker process died (killed or crashed) while holding a
    task. A campaign records it when the task exhausts its re-queue
    budget; serving fails the request with it."""


class TaskTimeoutError(ExperimentError):
    """A task exceeded its supervision deadline: the pool worker
    holding it was hung (alive but making no progress) and was
    cancelled by the :class:`repro.parallel.supervisor.Supervisor`.
    A campaign records it when the task exhausts its re-queue budget;
    serving fails the request with it."""


class WorkloadError(ReproError):
    """Invalid workload parameters (unsupported class, rank count, ...)."""


class ServeError(ReproError):
    """Prediction-service failure: bad request, unknown alias, or a
    registry publish that could not be persisted (see :mod:`repro.serve`)."""


class RemoteComputeError(ServeError):
    """A prediction computed in a serve worker process failed; carries
    the worker-side exception class name and the retry count so the
    client-visible error reply matches a campaign failure record."""

    def __init__(self, message: str, error_type: str = "RemoteComputeError",
                 attempts: int = 1):
        super().__init__(message)
        self.error_type = error_type
        self.attempts = attempts
