"""Planted violations: GPB005's two inline arms, one site each."""


def prepared(votes: int, f: int) -> bool:
    """Re-derive the quorum threshold inline (the bug under test)."""
    return votes >= 2 * f + 1  # PLANT: GPB005


def faults(n: int) -> int:
    """Re-derive the fault bound inline (the bug under test)."""
    return (n - 1) // 3  # PLANT: GPB005
