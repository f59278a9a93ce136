"""Shared fixtures: the serial certified scan, run once per session."""

from __future__ import annotations

import time

import pytest

from jacrank.cyclosig import scan_sophie_germain


@pytest.fixture(scope="session")
def certified_scan():
    """The serial scan of all 630 pairs with q <= 92459 and its seconds."""
    start = time.monotonic()
    certs = scan_sophie_germain(92459)
    return certs, time.monotonic() - start
