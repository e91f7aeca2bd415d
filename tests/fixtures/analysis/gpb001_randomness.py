"""Planted violation: GPB001's ambient-entropy arm at exactly one site."""

import random


def pick_endorser(candidates: list) -> object:
    """Choose with process-global entropy (the bug under test)."""
    return random.choice(candidates)  # PLANT: GPB001
