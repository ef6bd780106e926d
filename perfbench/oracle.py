"""Correctness oracles of the benchmark's own.

Nothing here imports durfee: each check is an independent implementation
written from the definitions (partition counts by the coin-change
recurrence, the greedy m-rectangle rule, the bottom-up selection walk,
Euler's pentagonal theorem), so the benchmark does not trust the code it
measures.
"""

from __future__ import annotations

import hashlib
import json


def digest(obj) -> str:
    """Short stable digest of a JSON-serialisable value."""
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def text_digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def partition_counts(N: int) -> list[int]:
    """p(0..N) by adding parts 1..N one size at a time (coin change)."""
    p = [1] + [0] * N
    for part in range(1, N + 1):
        for s in range(part, N + 1):
            p[s] += p[s - part]
    return p


def _pentagonal_terms(order: int) -> list[tuple[int, int]]:
    """(exponent, sign) of (q)_inf = sum_j (-1)^j q^(j(3j-1)/2), j in Z."""
    out = [(0, 1)]
    j = 1
    while j * (3 * j - 1) // 2 <= order:
        sign = -1 if j % 2 else 1
        out.append((j * (3 * j - 1) // 2, sign))
        if j * (3 * j + 1) // 2 <= order:
            out.append((j * (3 * j + 1) // 2, sign))
        j += 1
    return out


def times_euler(coeffs) -> list[int]:
    """Coefficients of (q)_inf * sum c_n q^n, truncated to the same order."""
    order = len(coeffs) - 1
    out = [0] * (order + 1)
    for e, sign in _pentagonal_terms(order):
        for n in range(e, order + 1):
            out[n] += sign * coeffs[n - e]
    return out


def is_inverse_euler(coeffs) -> bool:
    """True iff coeffs are p(0..T), i.e. (q)_inf times them is exactly 1."""
    out = times_euler(coeffs)
    return out[0] == 1 and not any(out[1:])


def _row(parts, j: int) -> int:
    return parts[j - 1] if 1 <= j <= len(parts) else 0


def decompose(parts: tuple[int, ...], k: int, m: int):
    """(widths, sides, below) of the first k m-Durfee rectangles, or None.

    N_i is the largest w >= max(0, 1-m) with lambda_(o + w + m) >= w, where
    o is the row offset after rectangle i-1; the rows o+1 .. o+N_i+m lose
    N_i cells and form the side partition.
    """
    widths, sides = [], []
    off = 0
    w_min = max(0, 1 - m)
    for _ in range(k):
        fits = [
            w for w in range(w_min, len(parts) - min(m, 0) + 1)
            if off + w + m >= 1 and _row(parts, off + w + m) >= w
        ]
        if not fits:
            return None
        w = max(fits)
        rows = [_row(parts, j) - w for j in range(off + 1, off + w + m + 1)]
        sides.append(tuple(v for v in rows if v > 0))
        widths.append(w)
        off += w + m
    return tuple(widths), tuple(sides), tuple(parts[off:])


def select(sides, bounds) -> tuple[list[int], list[int]]:
    """Bottom-up selection walk: rows and selected parts per partition."""
    k = len(sides)
    rows, chosen = [0] * k, [0] * k
    j = 1
    for i in range(k - 1, -1, -1):
        v = _row(sides[i], j)
        rows[i], chosen[i] = j, v
        if i > 0:
            j += bounds[i - 1] - v
    return rows, chosen


def bounds_of(widths) -> tuple[int, ...]:
    return tuple(widths[i - 1] - widths[i] for i in range(1, len(widths)))


def rank(parts, k: int, m: int) -> dict | None:
    """(k,m)-rank with its selection trace, or None outside the domain."""
    dec = decompose(parts, k, m)
    if dec is None:
        return None
    widths, sides, below = dec
    rows, chosen = select(sides, bounds_of(widths))
    a = sum(chosen)
    return {"widths": list(widths), "a": a, "b": len(below), "r": a - len(below),
            "rows": rows, "parts": chosen}


def conjugate(parts) -> tuple[int, ...]:
    return tuple(sum(1 for x in parts if x >= c) for c in range(1, (parts[0] if parts else 0) + 1))


def garvan(parts, k: int) -> dict | None:
    dec = decompose(parts, k, 0)
    if dec is None:
        return None
    widths, sides, below = dec
    a = sum(1 for h in conjugate(sides[0]) if h <= widths[-1])
    return {"widths": list(widths), "a": a, "b": len(below), "r": a - len(below)}


def remove_rows(sides, rows):
    return tuple(s[: j - 1] + s[j:] if j <= len(s) else s for s, j in zip(sides, rows))
