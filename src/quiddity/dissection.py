"""Dissections of convex polygons by non-crossing diagonals.

A dissection is stored as a labeled object: vertex count n (vertices
0..n-1 counterclockwise) plus a set of diagonals.  A 3d-dissection is
one where every face has 3, 6, 9, ... vertices.  The quiddity of a
3d-dissection is the tuple counting, at each vertex, the number of
faces adjacent to it.

Faces are built at most once per dissection.  The enumerator and
``from_certificate`` already hold them and store them with the
diagonals; a dissection built from diagonals alone walks them on first
use.  Every constructor still checks that the diagonals do not cross.

``from_certificate`` rebuilds a dissection by replaying a reduction
certificate: a type-1 step glues an exterior triangle, a type-2 step
splits a boundary vertex and enlarges one incident face by three new
vertices.  The face enlarged by a type-2 step is the a'-th face around
the split vertex, counted from the side of the preceding boundary edge;
with that convention quiddity(from_certificate(reduce(w))) == w.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

from . import limits
from .matrices import Word, check_word
from .surgery import (
    BASE_TRIANGLE,
    ReductionCertificate,
    StepKind,
    SurgeryStep,
)

Diagonal = tuple[int, int]
Face = tuple[int, ...]


def _crossing(d1: Diagonal, d2: Diagonal) -> bool:
    (i, j), (k, l) = d1, d2
    return (i < k < j < l) or (k < i < l < j)


def _nested(diags: list[Diagonal]) -> bool:
    """True iff no two of the sorted diagonals cross.

    Sweeping by first vertex, each diagonal must nest inside the
    innermost diagonal still open there; the open ones sit on a stack
    with their second vertices non-increasing from bottom to top, so a
    diagonal goes below the ones that share its first vertex.
    """
    stack: list[Diagonal] = []
    for i, j in diags:
        while stack and stack[-1][1] <= i:
            stack.pop()
        k = len(stack)
        while k and stack[k - 1][0] == i:
            k -= 1
        if k and stack[k - 1][1] < j:
            return False
        stack.insert(k, (i, j))
    return True


@dataclass(frozen=True)
class Dissection:
    """A convex n-gon dissected by pairwise non-crossing diagonals.

    ``_faces`` caches the sorted canonical faces; it takes no part in
    equality, hashing, ``repr`` or ``to_json``.
    """

    n: int
    diagonals: frozenset[Diagonal]
    _faces: Optional[tuple[Face, ...]] = field(
        default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.n < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        diags = sorted(self.diagonals)
        for i, j in diags:
            if not (0 <= i < j < self.n):
                raise ValueError(f"diagonal {(i, j)} must satisfy 0 <= i < j < n")
            if (j - i) % self.n in (1, self.n - 1):
                raise ValueError(f"{(i, j)} is a boundary edge, not a diagonal")
        if not _nested(diags):
            d1, d2 = next(p for p in itertools.combinations(diags, 2) if _crossing(*p))
            raise ValueError(f"diagonals {d1} and {d2} cross")

    def to_json(self) -> dict:
        return {"n": self.n, "diagonals": [list(d) for d in sorted(self.diagonals)]}

    @staticmethod
    def from_json(doc: dict) -> "Dissection":
        return Dissection(int(doc["n"]), frozenset((int(i), int(j)) for i, j in doc["diagonals"]))


def _with_faces(n: int, diagonals: Iterable[Diagonal], face_list: Iterable[Face]) -> Dissection:
    """A validated Dissection with its face cache filled from the
    canonical faces ``face_list``, so no reader walks the diagonals."""
    d = Dissection(n, frozenset(diagonals))
    object.__setattr__(d, "_faces", tuple(sorted(face_list)))
    return d


def make_dissection(n: int, diagonals: Iterable[Sequence[int]]) -> Dissection:
    """Build a Dissection, normalizing each diagonal to (min, max)."""
    return Dissection(n, frozenset((min(i, j), max(i, j)) for i, j in diagonals))


def _canonical_face(cycle: Sequence[int]) -> Face:
    # rotate the cycle so the smallest vertex comes first
    k = cycle.index(min(cycle))
    return tuple(cycle[k:]) + tuple(cycle[:k])


def _walk_faces(d: Dissection) -> tuple[Face, ...]:
    # split the polygon along one diagonal at a time until none is left
    result: list[Face] = []
    stack: list[tuple[int, ...]] = [tuple(range(d.n))]
    diags = sorted(d.diagonals)
    while stack:
        poly = stack.pop()
        pos = {v: k for k, v in enumerate(poly)}
        m = len(poly)
        for p, q in diags:
            a, b = pos.get(p), pos.get(q)
            if a is None or b is None:
                continue
            if a > b:
                a, b = b, a
            if (b - a) % m in (1, m - 1):
                continue
            stack.append(poly[a:b + 1])
            stack.append(poly[b:] + poly[:a + 1])
            break
        else:
            result.append(_canonical_face(poly))
    result.sort()
    if len(result) != len(d.diagonals) + 1:
        raise AssertionError("face count does not match diagonal count")
    return tuple(result)


def _face_cache(d: Dissection) -> tuple[Face, ...]:
    """The sorted faces of d, walked from the diagonals on first use only."""
    if d._faces is None:
        object.__setattr__(d, "_faces", _walk_faces(d))
    return d._faces


def faces(d: Dissection) -> list[Face]:
    """The faces induced by the diagonals, each a cyclic vertex tuple,
    as a fresh sorted list."""
    return list(_face_cache(d))


def is_3d_dissection(d: Dissection) -> bool:
    """True iff every face size is a multiple of 3."""
    return all(len(f) % 3 == 0 for f in _face_cache(d))


def profile(d: Dissection) -> tuple[int, ...]:
    """Sorted multiset of face sizes."""
    return tuple(sorted(len(f) for f in _face_cache(d)))


def quiddity(d: Dissection) -> Word:
    """Number of faces at each vertex, in vertex order from vertex 0."""
    if not is_3d_dissection(d):
        raise ValueError("quiddity is only defined for 3d-dissections")
    counts = [0] * d.n
    for f in _face_cache(d):
        for v in f:
            counts[v] += 1
    return tuple(counts)


def even_face_parity(d: Dissection) -> str:
    """Parity of the number of even-sized faces: "odd" means the quiddity
    solves Problem I, "even" means Problem II."""
    if not is_3d_dissection(d):
        raise ValueError("parity is only defined for 3d-dissections")
    k = sum(1 for f in _face_cache(d) if len(f) % 2 == 0)
    return "odd" if k % 2 == 1 else "even"


def is_centrally_symmetric(d: Dissection) -> bool:
    """True iff the diagonal set is invariant under i -> i + n/2."""
    if d.n % 2 != 0:
        raise ValueError("central symmetry needs an even vertex count")
    h = d.n // 2

    def shift(diag: Diagonal) -> Diagonal:
        i, j = (diag[0] + h) % d.n, (diag[1] + h) % d.n
        return (min(i, j), max(i, j))

    return {shift(diag) for diag in d.diagonals} == set(d.diagonals)


def half_quiddity(d: Dissection, start: int = 0) -> Word:
    """Entries start..start+n/2-1 of the quiddity, which must be
    (n/2)-periodic."""
    if d.n % 2 != 0:
        raise ValueError("half-quiddity needs an even vertex count")
    q = quiddity(d)
    h = d.n // 2
    if any(q[i] != q[(i + h) % d.n] for i in range(d.n)):
        raise ValueError("quiddity is not half-periodic")
    return tuple(q[(start + i) % d.n] for i in range(h))


# -- construction from a reduction certificate ------------------------------


def _fan_at(face_list: list[list[int]], u: int, first: int, last: int) -> list[list[int]]:
    """Faces incident to vertex u, ordered from the boundary edge
    (first, u) around to the edge (u, last)."""
    order: list[list[int]] = []
    c = first
    while True:
        for f in face_list:
            if u in f:
                k = f.index(u)
                if f[k - 1] == c:
                    order.append(f)
                    c = f[(k + 1) % len(f)]
                    break
        else:
            raise AssertionError("fan walk broke; faces are inconsistent")
        if c == last:
            return order


def from_certificate(cert: ReductionCertificate) -> Dissection:
    """Replay a reduction certificate into a dissection whose quiddity
    is the certificate's word."""
    if cert.base != BASE_TRIANGLE:
        raise ValueError("only triangle-based certificates build a dissection directly")
    boundary: list[int] = [0, 1, 2]
    face_list: list[list[int]] = [[0, 1, 2]]
    fresh = itertools.count(3)

    for step in cert.steps:
        n = len(boundary)
        i = step.position
        if not 0 <= i < n:
            raise ValueError(f"step position {i} out of range")
        if step.kind is StepKind.TYPE1:
            u, nxt = boundary[i], boundary[(i + 1) % n]
            v = next(fresh)
            face_list.append([u, v, nxt])
            if i < n - 1:
                boundary = boundary[:i + 1] + [v] + boundary[i + 1:]
            elif step.wrap:
                boundary = [v] + boundary
            else:
                boundary = boundary + [v]
        else:
            if step.split is None:
                raise ValueError("type-2 step without a split")
            a1, a2 = step.split
            u = boundary[i]
            prev, nxt = boundary[i - 1], boundary[(i + 1) % n]
            fan = _fan_at(face_list, u, prev, nxt)
            if not 1 <= a1 <= len(fan) or a2 != len(fan) + 1 - a1:
                raise ValueError(f"split {step.split} does not fit vertex of degree {len(fan)}")
            u2, x, y = next(fresh), next(fresh), next(fresh)
            chosen = fan[a1 - 1]
            k = chosen.index(u)
            chosen[k:k + 1] = [u, x, y, u2]
            for f in fan[a1:]:
                f[f.index(u)] = u2
            seq = [u, x, y, u2]
            if step.wrap == 0:
                boundary = boundary[:i] + seq + boundary[i + 1:]
            elif i == 0 and 1 <= step.wrap <= 3:
                boundary = seq[4 - step.wrap:] + boundary[1:] + seq[:4 - step.wrap]
            else:
                raise ValueError(f"invalid wrap {step.wrap} at position {i}")

    label = {v: k for k, v in enumerate(boundary)}
    n = len(boundary)
    diagonals = set()
    cycles = [[label[v] for v in f] for f in face_list]
    for cyc in cycles:
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            if (b - a) % n not in (1, n - 1):
                diagonals.add((min(a, b), max(a, b)))
    return _with_faces(n, diagonals, map(_canonical_face, cycles))


# -- exhaustive enumeration --------------------------------------------------


def _face_lists(
    poly: tuple[int, ...], allowed: frozenset[int],
) -> Iterator[tuple[list[Face], list[Diagonal]]]:
    """All dissections of the sub-polygon ``poly`` into faces with sizes
    in ``allowed``, grouped by the face containing edge (poly[0], poly[1]).

    Each is yielded as its faces (vertices in increasing order, which is
    the canonical rotation because ``poly`` runs counterclockwise) and
    the diagonals cut inside ``poly``: one closing chord per arc of at
    least three vertices that the face leaves over.
    """
    m = len(poly)
    for k in sorted(allowed):
        if k > m:
            break
        for rest in itertools.combinations(range(2, m), k - 2):
            cuts = (1,) + rest
            arcs = [poly[cuts[t]:cuts[t + 1] + 1] for t in range(len(cuts) - 1)]
            arcs.append(poly[cuts[-1]:] + (poly[0],))
            arcs = [a for a in arcs if len(a) >= 3]
            face = tuple(sorted((poly[0],) + tuple(poly[c] for c in cuts)))
            chords = [(a[0], a[-1]) if a[0] < a[-1] else (a[-1], a[0]) for a in arcs]
            for parts in itertools.product(*(_face_lists(a, allowed) for a in arcs)):
                out_faces, out_diagonals = [face], chords[:]
                for part_faces, part_diagonals in parts:
                    out_faces.extend(part_faces)
                    out_diagonals.extend(part_diagonals)
                yield out_faces, out_diagonals


def iter_dissections(
    n: int,
    budget: Optional[int] = None,
    face_sizes: Optional[Iterable[int]] = None,
) -> Iterator[Dissection]:
    """Generate all 3d-dissections of the labeled n-gon, deterministically.

    ``face_sizes`` restricts the allowed face sizes (default: all
    multiples of 3 up to n).
    """
    limits.check_budget(n, limits.DEFAULT_DISSECTION_CEILING, budget, "dissection enumeration")
    if n < 3:
        raise ValueError("no polygon with fewer than 3 vertices")
    if face_sizes is None:
        allowed = frozenset(range(3, n + 1, 3))
    else:
        allowed = frozenset(face_sizes)
        if any(s % 3 != 0 or s < 3 for s in allowed):
            raise ValueError("face sizes must be multiples of 3")
    for face_list, diagonals in _face_lists(tuple(range(n)), allowed):
        yield _with_faces(n, diagonals, face_list)


def enumerate_dissections(
    n: int,
    budget: Optional[int] = None,
    face_sizes: Optional[Iterable[int]] = None,
    profile_filter: Optional[Sequence[int]] = None,
) -> list[Dissection]:
    """All 3d-dissections of the labeled n-gon, sorted by diagonal set.

    ``profile_filter`` keeps only dissections whose multiset of face
    sizes equals the given one.
    """
    if profile_filter is not None and face_sizes is None:
        face_sizes = set(profile_filter)
    want = tuple(sorted(profile_filter)) if profile_filter is not None else None
    out = []
    for d in iter_dissections(n, budget=budget, face_sizes=face_sizes):
        if want is None or profile(d) == want:
            out.append(d)
    out.sort(key=lambda d: sorted(d.diagonals))
    return out


def dissections_with_quiddity(w: Sequence[int], budget: Optional[int] = None) -> list[Dissection]:
    """All 3d-dissections of the len(w)-gon whose quiddity equals w
    exactly (not up to rotation)."""
    word = check_word(w)
    return [
        d for d in iter_dissections(len(word), budget=budget)
        if quiddity(d) == word
    ]


def dihedral_classes(ds: Iterable[Dissection]) -> list[Dissection]:
    """One representative per orbit under rotations and reflections."""
    seen = set()
    reps = []
    for d in ds:
        n = d.n
        images = set()
        for k in range(n):
            images.add(frozenset(
                (min((i + k) % n, (j + k) % n), max((i + k) % n, (j + k) % n))
                for i, j in d.diagonals))
            images.add(frozenset(
                (min((k - i) % n, (k - j) % n), max((k - i) % n, (k - j) % n))
                for i, j in d.diagonals))
        key = min(tuple(sorted(img)) for img in images)
        if key not in seen:
            seen.add(key)
            reps.append(d)
    return reps


def symmetric_dissections(w: Sequence[int], budget: Optional[int] = None) -> Iterator[Dissection]:
    """The centrally symmetric dissections of the 2n-gon whose quiddity
    is w + w for the Problem III solution w, in enumeration order."""
    word = check_word(w)
    double = word + word
    for d in iter_dissections(len(double), budget=budget):
        if quiddity(d) == double and is_centrally_symmetric(d):
            yield d


def symmetric_dissection(w: Sequence[int], budget: Optional[int] = None) -> Dissection:
    """A centrally symmetric dissection of the 2n-gon whose half-quiddity
    is the Problem III solution w, found by search over the doubled word."""
    for d in symmetric_dissections(w, budget=budget):
        return d
    raise ValueError(f"no centrally symmetric dissection found for {check_word(w)}")


# -- rendering ----------------------------------------------------------------


def to_dot(d: Dissection) -> str:
    """Graph-description text for the dissection (boundary + diagonals)."""
    lines = ["graph dissection {"]
    for v in range(d.n):
        lines.append(f"  {v};")
    for v in range(d.n):
        lines.append(f"  {v} -- {(v + 1) % d.n};")
    for i, j in sorted(d.diagonals):
        lines.append(f"  {i} -- {j} [style=dashed];")
    lines.append("}")
    return "\n".join(lines)


def to_svg(d: Dissection, size: int = 400) -> str:
    """SVG drawing: vertices on a circle, vertex 0 at the top, labels,
    straight diagonals."""
    import math

    r = size * 0.42
    cx = cy = size / 2.0

    def xy(v: int) -> tuple[float, float]:
        # vertex 0 at angle 90 degrees, counterclockwise
        ang = math.pi / 2 + 2 * math.pi * v / d.n
        return cx + r * math.cos(ang), cy - r * math.sin(ang)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">'
    ]
    pts = " ".join(f"{x:.2f},{y:.2f}" for x, y in (xy(v) for v in range(d.n)))
    parts.append(f'<polygon points="{pts}" fill="none" stroke="black"/>')
    for i, j in sorted(d.diagonals):
        (x1, y1), (x2, y2) = xy(i), xy(j)
        parts.append(
            f'<line x1="{x1:.2f}" y1="{y1:.2f}" x2="{x2:.2f}" y2="{y2:.2f}" stroke="gray"/>'
        )
    for v in range(d.n):
        x, y = xy(v)
        lx = cx + (x - cx) * 1.12
        ly = cy + (y - cy) * 1.12
        parts.append(f'<text x="{lx:.2f}" y="{ly:.2f}" font-size="12" text-anchor="middle">{v}</text>')
    parts.append("</svg>")
    return "\n".join(parts)
