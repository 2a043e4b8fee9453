"""Small helpers for int-as-bitset bookkeeping."""


def iter_bits(mask: int):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def lowest_bit(mask: int) -> int:
    """Position of the least set bit; ``mask`` must be nonzero."""
    return (mask & -mask).bit_length() - 1


def clear_rows(rows) -> None:
    """Undo rows ``(first, second, x, row)`` that were set as ``first[x] |= row``
    and ``second[y] |= 1 << x`` for each y in ``row``: the arcs of
    ``graphs._force_arcs`` and the literals of ``twosat.IntervalFormula``."""
    for first, second, x, row in rows:
        first[x] ^= row
        for y in iter_bits(row):
            second[y] ^= 1 << x
