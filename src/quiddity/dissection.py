"""Dissections of convex polygons by non-crossing diagonals.

A dissection is stored as a labeled object: vertex count n (vertices
0..n-1 counterclockwise) plus a set of diagonals.  A 3d-dissection is
one where every face has 3, 6, 9, ... vertices.  The quiddity of a
3d-dissection is the tuple counting, at each vertex, the number of
faces adjacent to it.

Every face has one chord, from its least vertex to its greatest: a
diagonal, or the edge (0, n - 1).  The constructor takes diagonals from
any caller, so it checks them and builds the faces in one sweep: one pass
over the sorted diagonals checks each and records, for every vertex, the
far end of its outermost diagonal, and each face is found by one walk
along those far ends from its chord's least vertex to the other end.  A
walk that passes the end of its chord shows two crossing diagonals, and
every crossing makes some walk pass its end (``_sweep`` says why).
``from_certificate`` hands over diagonals only, so its dissections are
swept like any caller's.

The two enumerators choose every face themselves, so they hand each
dissection over with its faces alone, and nothing is swept again.  Its
diagonals are those faces' chords, built when they are first read, so a
reader of the faces alone, such as ``quiddity`` or a count, never builds
them.  The enumerator chooses the face on edge (0, 1) and then dissects
each arc of the boundary that this face leaves over.  An arc's
dissections depend only on its length, so each length's face lists are
built once per ``iter_dissections`` call, in the labels 0..s-1 of the
s-gon, and mapped onto every arc of that length, each distinct face
once.  The search for a given quiddity,
``dissections_with_quiddity``, walks the same choices in the same order
by plain recursion, and cuts a branch whose face counts can no longer
reach the word before it calls it.  Every builder keeps the faces in the
order it made them, and only ``faces`` sorts them.

``from_certificate`` rebuilds a dissection by replaying a reduction
certificate on the boundary and the diagonals alone.  A type-1 step
glues an exterior triangle, so the boundary edge it sits on becomes a
diagonal.  A type-2 step with split (a', a'') replaces a boundary vertex
u by u, x, y, u'' and so enlarges the a'-th face around u, counted from
the side of the preceding boundary edge, by three vertices: of u's
diagonals, taken from that side, the first a' - 1 stay at u and the rest
move to u''.  After either step the boundary is rotated by the step's
shift.  With that convention quiddity(from_certificate(reduce(w))) ==
w.  A Problem III certificate starts from the square with one diameter
and applies every step at two antipodal places, which builds a
centrally symmetric 2n-gon with quiddity w + w: ``symmetric_dissection``
is that dissection, with no search.  ``symmetric_dissections`` lists
every such dissection: the search over w + w, filtered.
"""

from __future__ import annotations

import functools
import itertools
from typing import Iterable, Iterator, Optional, Sequence

from . import limits
from .matrices import Word, _Record, check_word
from .surgery import (
    BASE_TRIANGLE,
    BASES_CENTRAL,
    NotASolutionError,
    ReductionCertificate,
    SolutionClass,
    SurgeryStep,
    reduce_word,
    solution_class,
)

Diagonal = tuple[int, int]
Face = tuple[int, ...]


def _sweep(n: int, diagonals: Iterable[Diagonal]) -> tuple[Face, ...]:
    """The faces of the n-gon cut by the diagonals, unsorted, each with
    its vertices in increasing order; ValueError, naming a diagonal, if
    one is not two integers or is invalid.

    One pass over the sorted diagonals checks each and fills hop[v], the
    far end of v's outermost diagonal, or v + 1 when v has none.  Every
    face has one chord, from its least vertex to its greatest: either a
    diagonal or the edge (0, n - 1).  The face under diagonal (i, j)
    starts at i, goes on to the far end of i's previous diagonal, or to
    i + 1 for i's first, and follows ``hop`` from there up to j.  The face
    on the edge (0, n - 1) follows ``hop`` from 0 up to n - 1 and comes
    last, and every vertex but n - 1 hops once.

    A walk that passes its diagonal's end hops from a vertex inside the
    diagonal to one beyond it, so two diagonals cross.  Every crossing is
    caught that way: if (a, c) and (b, d) cross, a < b < c < d, take the
    shortest diagonal (x, y) with x < b < y < d, such as (a, c).  Its walk
    cannot hop over b, since that hop would be a shorter such diagonal or
    would pass y, so it reaches b, and hop[b] >= d passes y.
    """
    try:
        diags = sorted(diagonals)
    except TypeError:  # incomparable entries, one of which the loop below names
        diags = sorted(diagonals, key=repr)
    last = n - 1
    hop = list(range(1, n + 1))
    for d in diags:
        try:
            i, j = d
        except (TypeError, ValueError):  # not a pair
            i = j = None
        if type(i) is not int or type(j) is not int:
            raise ValueError(f"diagonal {d!r} is not two integers")
        if not 0 <= i < j < n:
            raise ValueError(f"diagonal {(i, j)} must satisfy 0 <= i < j < n")
        if j - i == 1 or j - i == last:
            raise ValueError(f"{(i, j)} is a boundary edge, not a diagonal")
        hop[i] = j  # sorted, so i's outermost diagonal comes last
    out: list[Face] = []
    prev_i = prev_j = -1
    for i, j in diags:
        v = prev_j if i == prev_i else i + 1
        prev_i, prev_j = i, j
        face = [i, v]
        while v < j:
            v = hop[v]
            face.append(v)
        if v != j:
            a, b = next((a, b) for a, b in itertools.combinations(diags, 2)
                        if a[0] < b[0] < a[1] < b[1])
            raise ValueError(f"diagonals {a} and {b} cross")
        out.append(tuple(face))
    face = [0]
    v = 0
    while v < last:
        v = hop[v]
        face.append(v)
    out.append(tuple(face))
    return tuple(out)


class _Chords:
    """The ``diagonals`` of a dissection that an enumerator built from
    its faces: the faces' chords, from the shared ``_pairs`` table, built
    on the first read and then kept on the instance, which shadows this
    non-data descriptor from then on.  Read on the class, which has no
    faces, it raises AttributeError."""

    def __get__(self, d, owner=None):
        if d is None:
            raise AttributeError("diagonals")
        n = d.n
        pair, last = _pairs(n), n - 1
        diagonals = frozenset([pair[f[0]][f[-1]] for f in d._faces if f[-1] - f[0] != last])
        object.__setattr__(d, "diagonals", diagonals)
        return diagonals


class Dissection(_Record):
    """A convex n-gon dissected by pairwise non-crossing diagonals.

    ``__post_init__`` freezes the diagonals, whatever collection of pairs
    they come in: a set or frozenset as it is, which keeps its order, any
    other as tuples, so a ``to_json`` document reads back.  A vertex count
    that is not an integer, or diagonals that are not a collection of
    pairs, raise ValueError naming the value.  It then checks the diagonals
    and builds the faces in one ``_sweep``: a walk per face under its
    chord, which is a diagonal or the edge (0, n - 1).  A walk that
    passes its chord's end raises for the first crossing pair in sorted
    order, and a crossing always makes one do so.  The enumerators build
    their dissections without the constructor, with the faces they chose
    and no diagonals (``_built``); such a dissection builds its diagonals
    from its faces when they are first read (``_Chords``).  ``_faces``
    holds the faces in the order their builder made them, which only
    ``faces`` sorts; it is no field, so it takes no part in equality,
    hashing, ``repr`` or ``to_json``.
    """

    _fields = ("n", "diagonals")
    diagonals = _Chords()

    def __init__(self, n: int, diagonals: Iterable[Diagonal]):
        object.__setattr__(self, "n", n)
        object.__setattr__(self, "diagonals", diagonals)
        self.__post_init__()

    def __post_init__(self):
        if type(self.n) is not int:
            raise ValueError(f"vertex count {self.n!r} is not an integer")
        if self.n < 3:
            raise ValueError("a polygon needs at least 3 vertices")
        diagonals = self.diagonals
        try:
            frozen = frozenset(diagonals if isinstance(diagonals, (set, frozenset))
                               else map(tuple, diagonals))
        except TypeError:  # not iterable, or an entry is not iterable or not hashable
            raise ValueError(f"diagonals {diagonals!r} are not a collection of pairs") from None
        object.__setattr__(self, "diagonals", frozen)
        object.__setattr__(self, "_faces", _sweep(self.n, frozen))

    def to_json(self) -> dict:
        return {"n": self.n, "diagonals": [list(d) for d in sorted(self.diagonals)]}


def faces(d: Dissection) -> list[Face]:
    """The faces induced by the diagonals, each a vertex tuple in
    increasing (counterclockwise) order, as a fresh sorted list."""
    return sorted(d._faces)


def is_3d_dissection(d: Dissection) -> bool:
    """True iff every face size is a multiple of 3."""
    for f in d._faces:
        if len(f) % 3:
            return False
    return True


def profile(d: Dissection) -> tuple[int, ...]:
    """Sorted multiset of face sizes."""
    return tuple(sorted(len(f) for f in d._faces))


def quiddity(d: Dissection) -> Word:
    """Number of faces at each vertex, in vertex order from vertex 0: one
    more than its diagonals, each the chord (f[0], f[-1]) of one face f."""
    if not is_3d_dissection(d):
        raise ValueError("quiddity is only defined for 3d-dissections")
    counts = [1] * d.n
    counts[0] = counts[-1] = 0  # the face on edge (0, n - 1) adds their 1
    for f in d._faces:
        counts[f[0]] += 1
        counts[f[-1]] += 1
    return tuple(counts)


def even_face_parity(d: Dissection) -> str:
    """Parity of the number of even-sized faces: "odd" means the quiddity
    solves Problem I, "even" means Problem II."""
    if not is_3d_dissection(d):
        raise ValueError("parity is only defined for 3d-dissections")
    k = 0
    for f in d._faces:
        if not len(f) % 2:
            k += 1
    return "odd" if k % 2 else "even"


def is_centrally_symmetric(d: Dissection) -> bool:
    """True iff the diagonal set is invariant under i -> i + n/2."""
    if d.n % 2 != 0:
        raise ValueError("central symmetry needs an even vertex count")
    n, h = d.n, d.n // 2
    turned = (((i + h) % n, (j + h) % n) for i, j in d.diagonals)
    return frozenset((a, b) if a < b else (b, a) for a, b in turned) == d.diagonals


# -- construction from a reduction certificate ------------------------------


def _antipodal_steps(cert: ReductionCertificate) -> Iterator[SurgeryStep]:
    """The steps that rebuild w + w from base + base for the Problem III
    certificate of w: each step at its position i + h without a shift,
    where h is the length of the half word so far, then the step itself,
    so that i does not move.  Rotating u + u by s rotates each copy of u
    by s, so every intermediate dissection stays centrally symmetric."""
    h = len(cert.base)
    for step in cert.steps:
        yield SurgeryStep(step.position + h, step.split)
        yield step
        h += 1 if step.split is None else 3


def from_certificate(cert: ReductionCertificate) -> Dissection:
    """Replay a reduction certificate into a dissection whose quiddity
    is the certificate's word w; for a Problem III certificate, into a
    centrally symmetric dissection of the 2n-gon with quiddity w + w.

    Each step is checked where it is spliced, as ``replay`` checks it on
    the word: its position must lie on the boundary, and a split must fit
    the entry at u, which is u's number of diagonals plus one."""
    steps: Iterable[SurgeryStep]
    if cert.base == BASE_TRIANGLE:
        boundary, steps = [0, 1, 2], cert.steps
        ends: list[list[int]] = [[], [], []]
    elif cert.base in BASES_CENTRAL:
        # quiddity (1,2,1,2) has diameter (1,3), quiddity (2,1,2,1) has (0,2)
        boundary, steps = [0, 1, 2, 3], _antipodal_steps(cert)
        ends = [[], [3], [], [1]] if cert.base == (1, 2) else [[2], [], [0], []]
    else:
        raise ValueError(f"no dissection replays a certificate with base {cert.base}")

    # Vertices are labelled in order of creation, so the n boundary labels
    # are 0..n-1 and a new vertex is labelled n.  ends[v] lists the far
    # ends of the diagonals at v in boundary order, from the side of v's
    # preceding boundary vertex round to its following one.
    for step in steps:
        n, i = len(boundary), step.position
        if not 0 <= i < n:
            raise ValueError(f"position {i} out of range for a boundary of {n} vertices")
        if step.split is None:
            # the glued triangle turns the edge it sits on into a diagonal,
            # the last at u and the first at nxt
            u, nxt = boundary[i], boundary[(i + 1) % n]
            ends[u].append(nxt)
            ends[nxt].insert(0, u)
            ends.append([])
            boundary.insert(i + 1, n)
        else:
            u, (a1, a2) = boundary[i], step.split
            if a1 < 1 or a2 < 1 or a1 + a2 != len(ends[u]) + 2:
                raise ValueError(f"invalid split {step.split} for entry {len(ends[u]) + 1}")
            # the a'-th face at u lies between its (a'-1)-th and a'-th
            # diagonals, and the diagonals after it move to u2 = n + 2
            ends[u], moved = ends[u][:a1 - 1], ends[u][a1 - 1:]
            ends += [[], [], moved]
            for v in moved:
                ends[v][ends[v].index(u)] = n + 2
            boundary[i:i + 1] = [u, n, n + 1, n + 2]
        if step.shift:
            s = step.shift % len(boundary)
            boundary = boundary[s:] + boundary[:s]

    pos = {v: k for k, v in enumerate(boundary)}
    return Dissection(len(boundary), frozenset(
        (pos[u], pos[v]) for u, far in enumerate(ends) for v in far if pos[u] < pos[v]))


def symmetric_dissection(w: Sequence[int]) -> Dissection:
    """The centrally symmetric dissection of the 2n-gon with quiddity
    w + w that the certificate of the Problem III solution w builds."""
    cert = reduce_word(w)  # NotASolutionError if w solves nothing
    if cert.base not in BASES_CENTRAL:
        raise ValueError(f"{tuple(w)} is not a Problem III solution")
    return from_certificate(cert)


# -- exhaustive enumeration --------------------------------------------------


def _face_lists(n: int) -> Iterator[list[Face]]:
    """The faces of every 3d-dissection of the n-gon, grouped by the
    face on edge (0, 1), by its size and then its vertices: that face,
    then the faces cut inside each arc of at least three vertices that it
    leaves over, in nested product order.

    An arc of s vertices from cut x takes the face lists of the s-gon
    0..s-1 from ``memo[s]``, built on first use, and maps local label i
    to x + i; on the arc that closes back to vertex 0, local label s - 1
    is 0, so it moves to the front of its face.  The memo holds one tuple
    per sub-dissection, of faces interned in a table per length, and an
    arc maps each face of that table once, through a dict, so the lists
    share a few tuples instead of holding one per face.  The product
    varies the first arc slowest, so that arc is mapped one list at a
    time and only the others are mapped in full.  The memo, which holds
    every (n-1)-gon list, is then most of the memory; it grows with the
    (n-1)-gon count and is filled before the first list is yielded.
    """
    return _lists(n, {})


def _lists(m: int, memo: dict[int, tuple[list[tuple[Face, ...]], dict[Face, Face]]]
           ) -> Iterator[list[Face]]:
    """``_face_lists`` of the m-gon, with the per-length ``memo`` of
    face lists and intern tables; a module-level recursion, so the memo
    is freed with the last generator, not by the cyclic collector."""
    for k in range(3, m + 1, 3):
        for rest in itertools.combinations(range(2, m), k - 2):
            ends = (1,) + rest + (m,)
            head = [(0,) + ends[:-1]]
            arcs = []
            for x, y in zip(ends, ends[1:]):
                s = y - x + 1
                if s < 3:
                    continue
                if s not in memo:
                    table: dict[Face, Face] = {}
                    lists = [tuple([table.setdefault(f, f) for f in fs]) for fs in _lists(s, memo)]
                    memo[s] = lists, table
                lists, table = memo[s]
                top = s - 1 if y == m else s  # on the closing arc, s - 1 is vertex 0
                to = {f: (0, *[x + v for v in f[:-1]]) if f[-1] == top else tuple([x + v for v in f])
                      for f in table}
                arcs.append((to, lists))
            if not arcs:
                yield head
                continue
            (to, first), *others = arcs
            if not others:
                for fs in first:
                    yield head + [to[f] for f in fs]
                continue
            mapped = [[[to[f] for f in fs] for fs in lists] for to, lists in others]
            for fs in first:
                head_fs = head + [to[f] for f in fs]
                for parts in itertools.product(*mapped):
                    out = head_fs[:]
                    for part in parts:
                        out.extend(part)
                    yield out


def _quiddity_lists(word: Word) -> list[list[Face]]:
    """The faces of every 3d-dissection of the len(word)-gon whose
    quiddity is ``word``, in the order ``_face_lists`` yields the
    dissections, without its per-length lists, gathered in one list by
    recursion.

    Pending arcs are split one at a time, the latest first, and each
    face grows through its vertices in increasing order, so the choices
    come in the order of the enumerator's nested products over its
    arcs.  rem[v] counts the faces vertex v still needs and pend[v] the
    pending arcs that hold it.  Every pending arc gives each of its
    vertices at least one face, so a branch is cut unless
    rem[v] >= pend[v], with rem[v] == 0 once pend[v] == 0.  A face
    vertex's counts are settled as soon as the face's next vertex is
    chosen, and tested then, before the call; the vertices the face
    skips stay inside one arc and keep theirs.  A face is pushed, its
    vertices sorted, once its last vertex is chosen and both cuts pass.
    """
    out: list[list[Face]] = []
    _split((list(word), [1] * len(word), [tuple(range(len(word)))], [], out))
    return out


def _grow(state: tuple, poly: tuple[int, ...], cuts: list[int], k: int) -> None:
    """Choose the next vertex of the face of size k on poly's edge (0, 1);
    ``cuts``: its first vertices, as indices into poly.  A face vertex
    needs a face less and swaps poly's arc for the arcs next to it."""
    rem, pend, pending, found, _ = state
    m, a = len(poly), cuts[-1]
    v = poly[a]
    r0, p0 = rem[v], pend[v]
    r, p = r0 - 1, p0 + (a - cuts[-2] >= 2) - 1
    if len(cuts) == k:
        after = m - a >= 2  # the arc closing back to poly[0]
        u = poly[0]
        p, ru, pu = p + after, rem[u] - 1, pend[u] + after - 1
        if (0 < p <= r or p == r == 0) and (0 < pu <= ru or pu == ru == 0):
            rem[v], pend[v], rem[u], pend[u] = r, p, ru, pu
            ends = cuts + [m]
            arcs = [poly[x:y + 1] if y < m else poly[x:] + poly[:1]
                    for x, y in zip(ends, ends[1:]) if y - x >= 2]
            pending.extend(reversed(arcs))
            found.append(tuple(sorted([poly[c] for c in cuts])))
            _split(state)
            del pending[len(pending) - len(arcs):]
            found.pop()
            rem[v], pend[v], rem[u], pend[u] = r0, p0, ru + 1, pu + 1 - after
        return
    cuts.append(a + 1)
    if 0 < p <= r or p == r == 0:  # next vertex a + 1: no arc after v
        rem[v], pend[v] = r, p
        _grow(state, poly, cuts, k)
    p += 1
    if 0 < p <= r or p == r == 0:  # a later vertex: one arc after v
        rem[v], pend[v] = r, p
        for b in range(a + 2, m - k + len(cuts)):  # room for the face's rest
            cuts[-1] = b
            _grow(state, poly, cuts, k)
    cuts.pop()
    rem[v], pend[v] = r0, p0


def _split(state: tuple) -> None:
    """Dissect the latest pending arc of the search ``state``, the lists
    (rem, pend, pending, faces, out); module-level functions leave no
    reference cycle for the collector."""
    pending = state[2]
    if not pending:
        state[4].append(state[3][:])
        return
    poly = pending.pop()
    for k in range(3, len(poly) + 1, 3):
        _grow(state, poly, [0, 1], k)
    pending.append(poly)


def _check_polygon(n: int, budget: Optional[int] = None) -> None:
    """The budget and size checks every search over the n-gon makes first."""
    limits.check_budget(n, limits.DEFAULT_DISSECTION_CEILING, budget, "dissection enumeration")
    if n < 3:
        raise ValueError("no polygon with fewer than 3 vertices")


@functools.lru_cache(maxsize=None)
def _pairs(n: int) -> list[list[Diagonal]]:
    """The table pair[i][j] = (i, j) for the n-gon, built once per n: a
    search for one word at n = 10 takes about 0.1 ms, and building the
    table about 0.01 ms."""
    return [[(i, j) for j in range(n)] for i in range(n)]


def _built(n: int, face_lists: Iterable[list[Face]]) -> Iterator[Dissection]:
    """The dissections of the n-gon with these faces, which an enumerator
    chose, so no ``_sweep`` checks them again; each list is kept,
    unsorted, as the faces.

    Every diagonal is the chord, from least vertex to greatest, of
    exactly one face, and only the face whose chord is the edge
    (0, n - 1) has none.  So the diagonals are not built here: a reader
    that uses only the faces never pays for them, and ``_Chords`` builds
    them on the first read, as entries of the shared ``_pairs`` table.
    """
    new, put = object.__new__, object.__setattr__
    for fs in face_lists:
        d = new(Dissection)
        put(d, "n", n)
        put(d, "_faces", tuple(fs))
        yield d


def iter_dissections(n: int) -> Iterator[Dissection]:
    """Generate all 3d-dissections of the labeled n-gon, deterministically.

    Memory grows with the number of dissections of the (n-1)-gon, which
    are all held from the first item on (a tracemalloc peak of about
    25 MiB at n = 14).  Each dissection carries its faces; its diagonals
    are built when they are first read.
    """
    _check_polygon(n)
    yield from _built(n, _face_lists(n))


def dissections_with_quiddity(w: Sequence[int], budget: Optional[int] = None) -> list[Dissection]:
    """All 3d-dissections of the len(w)-gon whose quiddity equals w
    exactly (not up to rotation), in enumeration order."""
    word = check_word(w)
    _check_polygon(len(word), budget)
    return list(_built(len(word), _quiddity_lists(word)))


def symmetric_dissections(w: Sequence[int], budget: Optional[int] = None) -> list[Dissection]:
    """The centrally symmetric dissections of the 2n-gon whose quiddity
    is w + w for the Problem III solution w, in enumeration order; for
    any other w, what ``symmetric_dissection`` raises."""
    word = check_word(w)
    cls = solution_class(word)
    if cls is SolutionClass.NOT_A_SOLUTION:
        raise NotASolutionError(word)
    if cls is not SolutionClass.PROBLEM_III:
        raise ValueError(f"{word} is not a Problem III solution")
    return _symmetric_dissections(word, budget)


def _symmetric_dissections(word: Word, budget: Optional[int]) -> list[Dissection]:
    """``symmetric_dissections`` of a checked Problem III solution."""
    found = dissections_with_quiddity(word * 2, budget)
    return [d for d in found if is_centrally_symmetric(d)]


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


def to_svg(d: Dissection) -> str:
    """SVG drawing, 400 units square: vertices on a circle, vertex 0 at
    the top, labels, straight diagonals."""
    import math

    size = 400
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
