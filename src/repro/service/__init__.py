"""Durable, resumable, multi-tenant campaign runs (campaign-as-a-service).

The layers, bottom up:

* :mod:`repro.service.api` — the plain-data surface: requests, status and
  usage views (a configuration is stored as
  :meth:`~repro.options.CampaignConfig.to_dict` writes it).
* :mod:`repro.service.statedb` — :class:`CampaignStateDB`, the sqlite state
  store with the pending -> processing -> done chunk lifecycle,
  ``recover_from_crash()`` and dedup-at-write result ingest.
* :mod:`repro.service.runner` — :class:`DurableCampaignRunner`, which drives
  a campaign's chunks through the store: crash-survivable, exactly-once
  chunks and resume-identical final reports.
* :mod:`repro.service.service` — :class:`CampaignService`, tenant-fair
  scheduling of many durable campaigns over one shared worker fleet.
"""

from .api import (
    CampaignRequest,
    CampaignStatus,
    SessionStats,
    TenantUsage,
)
from .runner import DurableCampaignRunner, chunk_identity, default_campaign_id
from .service import CampaignService
from .statedb import CampaignStateDB

__all__ = [
    "CampaignRequest",
    "CampaignStatus",
    "SessionStats",
    "TenantUsage",
    "CampaignStateDB",
    "DurableCampaignRunner",
    "chunk_identity",
    "default_campaign_id",
    "CampaignService",
]
