"""Bounded, process-local memo tables for the file-system model.

A crash-testing campaign mounts thousands of crash states that share almost
all of their bytes, so the model keeps turning the *same* bytes and strings
into the same structure: the same metadata block into the same JSON value,
the same file content into the same SHA-1, the same path string into the same
normalised path.  Each such boundary owns one :class:`BoundedMemo`, keyed on
the content itself (or a digest of it) — never on where the content was found
— so a hit is sound by construction: equal input, equal output.

Every memo is budgeted in bytes.  The budgets of all memos sum to at most
:data:`TOTAL_BUDGET`, so the tables cannot move a campaign's peak RSS, and
none of them is visible in any result.
"""

from __future__ import annotations

from typing import Any, Dict, Hashable, List

#: ceiling on the summed budgets of every memo in the process
TOTAL_BUDGET = 1 << 20

#: entries one memo may hold, whatever their size (at today's entry sizes the
#: byte budgets bind first; the tests lower this to force constant eviction)
MAX_ENTRIES = 1024

#: bytes charged per entry on top of its payload: the key object, the cost
#: integer and the slots of the two dicts that hold them
ENTRY_OVERHEAD = 384

MISSING = object()

#: every memo of the process, in creation order
MEMOS: List["BoundedMemo"] = []


class BoundedMemo:
    """First-in-first-out memo table with a byte budget.

    ``get`` is the underlying dict's own ``get`` (a hit costs one dict probe
    and does no bookkeeping); ``put`` charges the entry and evicts the oldest
    entries until the table fits its budget again.  A value too large for the
    budget is simply not kept.
    """

    def __init__(self, name: str, budget: int):
        self.name = name
        self.budget = budget
        self.resident = 0
        self._entries: Dict[Hashable, Any] = {}
        self._costs: Dict[Hashable, int] = {}
        self.get = self._entries.get
        MEMOS.append(self)

    def put(self, key: Hashable, value: Any, payload_bytes: int) -> None:
        """Keep ``value`` under ``key``, charging ``payload_bytes`` for it."""
        cost = payload_bytes + ENTRY_OVERHEAD
        if cost > self.budget:
            return
        self._entries[key] = value
        self._costs[key] = cost
        self.resident += cost
        while self.resident > self.budget or len(self._entries) > MAX_ENTRIES:
            oldest = next(iter(self._entries))
            del self._entries[oldest]
            self.resident -= self._costs.pop(oldest)

    def clear(self) -> None:
        self._entries.clear()
        self._costs.clear()
        self.resident = 0

    def __len__(self) -> int:
        return len(self._entries)


def clear_all() -> None:
    """Forget everything every memo holds (tests compare cold against warm)."""
    for memo in MEMOS:
        memo.clear()
