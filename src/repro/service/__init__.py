"""Durable, resumable campaign runs.

The layers, bottom up:

* :mod:`repro.service.api` — the plain-data surface: lifecycle states, the
  status view and a session's audit trail.
* :mod:`repro.service.statedb` — :class:`CampaignStateDB`, the sqlite state
  store with the pending -> processing -> done chunk lifecycle,
  ``recover_from_crash()`` and dedup-at-write result ingest.
* :mod:`repro.service.runner` — :class:`DurableCampaignRunner`, which drives
  a campaign's chunks through the store: crash-survivable, exactly-once
  chunks and resume-identical final reports.
"""

from .api import CampaignStatus, SessionStats
from .runner import DurableCampaignRunner, chunk_identity, default_campaign_id
from .statedb import CampaignStateDB

__all__ = [
    "CampaignStatus",
    "SessionStats",
    "CampaignStateDB",
    "DurableCampaignRunner",
    "chunk_identity",
    "default_campaign_id",
]
