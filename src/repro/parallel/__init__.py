"""Campaign execution: one task graph, one executor.

* :mod:`repro.parallel.tasks` — flattens a campaign into a dependency-
  annotated task list whose keys are the campaign journal's keys;
* :mod:`repro.parallel.scheduler` — the executor: runs that list
  inline (one worker) or on N worker processes, re-queueing lost
  tasks, journaling in the parent, and assembling results in serial
  order, so every worker count gives byte-identical results;
* :mod:`repro.parallel.pool` — the supervised fork pool those workers
  run on; cold serving (:class:`repro.serve.WorkerPool`) uses it too;
* :mod:`repro.parallel.supervisor` — heartbeat- and deadline-based
  hang detection for pool workers (``--task-timeout``).

Entry point: ``ExperimentRunner(..., workers=N).run()`` or
``repro-skeleton experiment --workers N``.
"""

from repro.parallel.tasks import CampaignTask, campaign_tasks
from repro.parallel.pool import SupervisedPool
from repro.parallel.scheduler import run_campaign, write_campaign_timeline
from repro.parallel.supervisor import Supervisor, SupervisorConfig

__all__ = [
    "CampaignTask",
    "SupervisedPool",
    "Supervisor",
    "SupervisorConfig",
    "campaign_tasks",
    "run_campaign",
    "write_campaign_timeline",
]
