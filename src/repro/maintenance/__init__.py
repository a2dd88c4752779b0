"""Sleeper-agent maintenance: idle-time work that acts on the advisors.

The runtime (:mod:`repro.maintenance.runtime`) schedules three jobs in
gateway idle windows — a view materializer consuming
:class:`~repro.core.mqo.MaterializationAdvisor` suggestions, an
auto-indexer fed by mined predicate history
(:mod:`repro.maintenance.indexer`), and a statistics refresher — with
every artifact validated through the catalog's version machinery so
maintenance-on answers stay byte-identical to a maintenance-off run
(:mod:`repro.maintenance.views`).
"""

from repro.maintenance.indexer import IndexCandidate, PredicateMiner
from repro.maintenance.runtime import (
    MAINTENANCE_ENV_VAR,
    MaintenanceConfig,
    MaintenanceReport,
    MaintenanceRuntime,
    resolve_maintenance_enabled,
)
from repro.maintenance.views import MaterializedView, ViewStore

__all__ = [
    "IndexCandidate",
    "MAINTENANCE_ENV_VAR",
    "MaintenanceConfig",
    "MaintenanceReport",
    "MaintenanceRuntime",
    "MaterializedView",
    "PredicateMiner",
    "ViewStore",
    "resolve_maintenance_enabled",
]
