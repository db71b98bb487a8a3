"""Environment flags that flip an on-by-default feature off."""

from __future__ import annotations

import os

#: spellings that leave the feature on (so ``REPRO_NO_X=0`` does not
#: silently disable it)
_UNSET_SPELLINGS = ("", "0", "false", "no", "off")


def env_default_on(name: str) -> bool:
    """Whether the feature gated by the ``REPRO_NO_...`` variable ``name`` is on.

    The feature is on unless the variable is set to anything other than the
    conventional "unset" spellings (empty, ``0``, ``false``, ``no``, ``off``;
    case and surrounding whitespace ignored).  Only defaults are decided
    here: explicit arguments at the call sites always win.
    """
    return os.environ.get(name, "").strip().lower() in _UNSET_SPELLINGS
