"""Planted violation: GPB001's wall-clock arm at exactly one site."""

import time


def stamp() -> float:
    """Return a schedule-dependent timestamp (the bug under test)."""
    return time.time()  # PLANT: GPB001
