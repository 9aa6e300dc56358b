"""Scenario-campaign engine: sweep grids fanned out over worker processes.

The paper evaluates four hand-picked experiments one at a time; this package
turns the single-shot ``FlightScenario -> run_scenario`` path into a fleet
runner.  Execution is delegated to pluggable
:class:`~repro.campaign.backends.ExecutorBackend`s and results can be cached
in a :class:`~repro.store.CampaignStore`.  See ``docs/campaigns.md`` for the
sweep-grid syntax, caching/resume semantics and examples; campaigns are also
runnable from spec files via ``python -m repro.campaign``.

The package logs under per-module child loggers (``repro.campaign.runner``,
``repro.campaign.service``, ``repro.campaign.transport``, ...) of the
``repro.campaign`` hierarchy; the :class:`~logging.NullHandler` below keeps
a handler-less embedding application from getting "No handlers could be
found" noise while letting any configured handler see everything.
"""

import logging as _logging

from .backends import (
    BatchBackend,
    DistributedBackend,
    ExecutorBackend,
    ProcessPoolBackend,
    SerialBackend,
    ServiceBackend,
    get_backend,
)
from .grid import AxisApplier, GridVariant, ScenarioGrid, register_axis, resolve_applier
from .results import CampaignCell, CampaignResult, VariantOutcome
from .runner import CampaignRunner, run_campaign, trajectory_arrays
from .transport import HttpWorkQueue, HttpWorkQueueClient
from .workqueue import (
    PROTOCOL_VERSION,
    WorkQueue,
    WorkQueueAuthError,
    WorkQueueProtocolError,
    resolve_auth_tokens,
)

_logging.getLogger(__name__).addHandler(_logging.NullHandler())

__all__ = [
    "PROTOCOL_VERSION",
    "AxisApplier",
    "BatchBackend",
    "CampaignCell",
    "CampaignResult",
    "CampaignRunner",
    "DistributedBackend",
    "ExecutorBackend",
    "GridVariant",
    "HttpWorkQueue",
    "HttpWorkQueueClient",
    "ProcessPoolBackend",
    "ScenarioGrid",
    "SerialBackend",
    "ServiceBackend",
    "VariantOutcome",
    "WorkQueue",
    "WorkQueueAuthError",
    "WorkQueueProtocolError",
    "get_backend",
    "register_axis",
    "resolve_applier",
    "resolve_auth_tokens",
    "run_campaign",
    "trajectory_arrays",
]
