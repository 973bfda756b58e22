"""Reference computations the benchmark checks the program against.

Everything here is written independently of ``quiddity``: own matrix
products, own face walk, own friezes and a generating-function count of
3d-dissections.  The checks therefore do not trust the code they time.
"""

from __future__ import annotations

import hashlib
from math import gcd

# Solution counts (rotations counted separately), pinned from the
# cross-checked enumerators and the published lists.
PINNED_COUNTS = {
    "I": dict(zip(range(3, 12), (0, 0, 0, 1, 7, 34, 147, 605, 2431))),
    "II": dict(zip(range(3, 12), (1, 2, 5, 14, 42, 132, 430, 1445, 4983))),
    "III": dict(zip(range(2, 10), (2, 6, 20, 75, 290, 1134, 4472, 17772))),
}


def product(word) -> tuple[int, int, int, int]:
    """(a, b, c, d) of E(w_n) ... E(w_1) with E(x) = [[x, -1], [1, 0]]."""
    a, b, c, d = 1, 0, 0, 1
    for x in word:
        a, b, c, d = x * a - c, x * b - d, a, b
    return a, b, c, d


def problem_of(word) -> str | None:
    """"I", "II" or "III" when the word solves that equation, else None."""
    m = product(word)
    if m == (1, 0, 0, 1):
        return "I"
    if m == (-1, 0, 0, -1):
        return "II"
    if m[0] + m[3] == 0:
        return "III"
    return None


def dissection_count(n: int) -> int:
    """Number of 3d-dissections of the labelled n-gon: [x^(n-1)] F with
    F = x + sum_{k>=1} F^(3k-1) (Flajolet-Sedgewick, Analytic
    Combinatorics, I.5).  F has no constant term, so each round of the
    fixed-point iteration settles one more coefficient."""
    deg = n - 1

    def mul(p, q):
        out = [0] * (deg + 1)
        for i, x in enumerate(p):
            if x:
                for j in range(deg + 1 - i):
                    out[i + j] += x * q[j]
        return out

    f = [0] * (deg + 1)
    for _ in range(deg):
        new = [0] * (deg + 1)
        new[1] = 1
        power = f
        for e in range(2, deg + 1):
            power = mul(power, f)
            if e % 3 == 2:
                new = [x + y for x, y in zip(new, power)]
        f = new
    return f[deg]


def faces_of(n: int, diagonals) -> list[tuple[int, ...]]:
    """Faces of the n-gon cut by the given diagonals, each as a vertex
    tuple.  Raises ValueError on a boundary edge, a bad vertex or a
    crossing pair."""
    diags = []
    for i, j in diagonals:
        i, j = min(i, j), max(i, j)
        if not 0 <= i < j < n or j - i in (1, n - 1):
            raise ValueError(f"({i}, {j}) is not a diagonal of the {n}-gon")
        diags.append((i, j))
    if len(set(diags)) != len(diags):
        raise ValueError("repeated diagonal")
    for k, (i, j) in enumerate(diags):
        for p, q in diags[k + 1:]:
            if i < p < j < q or p < i < q < j:
                raise ValueError(f"diagonals {(i, j)} and {(p, q)} cross")
    # Split off one polygon per diagonal, shortest arcs first; the
    # vertices left on the arc of a diagonal form the face it closes.
    removed = [False] * n
    faces = []
    for i, j in sorted(diags, key=lambda d: d[1] - d[0]):
        face = [v for v in range(i, j + 1) if not removed[v]]
        faces.append(tuple(face))
        for v in face[1:-1]:
            removed[v] = True
    faces.append(tuple(v for v in range(n) if not removed[v]))
    return faces


def quiddity_of(n: int, faces) -> tuple[int, ...]:
    counts = [0] * n
    for f in faces:
        for v in f:
            counts[v] += 1
    return tuple(counts)


def is_centrally_symmetric(n: int, diagonals) -> bool:
    h = n // 2
    norm = {(min(i, j), max(i, j)) for i, j in diagonals}
    shifted = {(min((i + h) % n, (j + h) % n), max((i + h) % n, (j + h) % n)) for i, j in norm}
    return n % 2 == 0 and shifted == norm


def frieze_rows(word, r_max: int) -> list[list[int]]:
    """Rows 0..r_max of cyclic continuants, by the recurrence
    K_r(i) = a_{i+r-1} K_{r-1}(i) - K_{r-2}(i)."""
    n = len(word)
    rows = [[1] * n]
    prev = [0] * n
    for r in range(1, r_max + 1):
        cur = [word[(i + r - 1) % n] * rows[-1][i] - prev[i] for i in range(n)]
        prev = rows[-1]
        rows.append(cur)
    return rows


def farey_size(order: int) -> int:
    """Number of fractions p/q in [0, 1] with q <= order."""
    return 1 + sum(1 for q in range(1, order + 1) for p in range(1, q + 1) if gcd(p, q) == 1)


def digest(words) -> str:
    """Order-independent sha256 of a set of words."""
    h = hashlib.sha256()
    for w in sorted(set(map(tuple, words))):
        h.update(",".join(map(str, w)).encode() + b";")
    return h.hexdigest()
