"""Campaign execution: one task graph, one executor.

* :mod:`repro.parallel.tasks` — flattens a campaign into a dependency-
  annotated task list whose keys are the campaign journal's keys;
* :mod:`repro.parallel.scheduler` — the executor: runs that list
  inline (one worker) or on N worker processes with dead-worker
  recovery, parent-side journaling, and serial-order result assembly,
  so every worker count gives byte-identical results;
* :mod:`repro.parallel.supervisor` — heartbeat- and deadline-based
  hang detection for those workers (``--task-timeout``).

Entry point: ``ExperimentRunner(..., workers=N).run()`` or
``repro-skeleton experiment --workers N``.
"""

from repro.parallel.tasks import CampaignTask, campaign_tasks
from repro.parallel.scheduler import run_campaign, write_campaign_timeline
from repro.parallel.supervisor import Supervisor, SupervisorConfig

__all__ = [
    "CampaignTask",
    "Supervisor",
    "SupervisorConfig",
    "campaign_tasks",
    "run_campaign",
    "write_campaign_timeline",
]
