"""The three ``REPRO_NO_*`` default gates share one parser and one contract."""

import pytest

from repro.crashmonkey import default_share_replay
from repro.crashmonkey.recorder import default_share_prefixes
from repro.envflags import env_default_on
from repro.storage.slab import slabs_enabled

GATES = [
    ("REPRO_NO_SHARE_REPLAY", default_share_replay),
    ("REPRO_NO_SHARE_PREFIXES", default_share_prefixes),
    ("REPRO_NO_SLABS", slabs_enabled),
]


@pytest.mark.parametrize("variable,gate", GATES, ids=[name for name, _ in GATES])
@pytest.mark.parametrize("raw,feature_on", [
    (None, True),       # unset
    ("", True), ("0", True), ("false", True), ("no", True), ("off", True),
    (" OFF ", True), ("False", True),   # case and whitespace are ignored
    ("1", False), ("true", False), ("yes", False), ("anything", False),
])
def test_default_gate_spellings(monkeypatch, variable, gate, raw, feature_on):
    if raw is None:
        monkeypatch.delenv(variable, raising=False)
    else:
        monkeypatch.setenv(variable, raw)
    assert gate() is feature_on
    assert env_default_on(variable) is feature_on
