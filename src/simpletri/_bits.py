"""Small helpers for int-as-bitset bookkeeping, mask relabelling included."""


def iter_bits(mask: int):
    """Yield the set bit positions of ``mask`` in increasing order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def lowest_bit(mask: int) -> int:
    """Position of the least set bit; ``mask`` must be nonzero."""
    return (mask & -mask).bit_length() - 1


def relabel(masks, vs) -> list[int]:
    """The masks of ``vs``, which must lie within ``vs``, with each ``vs[i]``
    renamed i.  A dict, so a component costs its own size, not the graph's."""
    bit = {v: 1 << i for i, v in enumerate(vs)}
    rows = []
    for v in vs:
        row, mask = 0, masks[v]
        while mask:
            low = mask & -mask
            row |= bit[low.bit_length() - 1]
            mask ^= low
        rows.append(row)
    return rows


def set_row(rows: list, first: list[int], second: list[int], x: int, row: int) -> None:
    """Set ``first[x] |= row`` and ``second[y] |= 1 << x`` for each y in
    ``row``, and record the row ``(first, second, x, row)`` in ``rows``.
    ``twosat.IntervalFormula._assume`` sets its rows inline, the same way."""
    first[x] |= row
    rows.append((first, second, x, row))
    bit = 1 << x
    while row:
        low = row & -row
        row ^= low
        second[low.bit_length() - 1] |= bit


def clear_rows(rows) -> None:
    """Undo rows ``(first, second, x, row)`` as :func:`set_row` sets them:
    the arcs of ``graphs._force_arcs`` and the literals of
    ``twosat.IntervalFormula``."""
    for first, second, x, row in rows:
        first[x] ^= row
        bit = 1 << x
        while row:
            low = row & -row
            row ^= low
            second[low.bit_length() - 1] ^= bit
