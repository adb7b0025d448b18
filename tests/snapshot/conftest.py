"""Shared snapshot-test hygiene.

The campaign's rung cache is process-wide and keyed by content, so two
tests that build byte-identical ladders (same spec, fresh tmp dirs)
share cache entries.  Damage-injection tests tamper with the *disk*
copy and assert the cold-fallback path runs, which it only does for a
rung the process has not already decoded -- so every test starts with
an empty cache.
"""

import pytest

from repro.validation.campaign import _RUNG_CACHE


@pytest.fixture(autouse=True)
def _cold_rung_cache():
    _RUNG_CACHE.clear()
    yield
    _RUNG_CACHE.clear()
