"""Proper colorings and their structural checkers.

Colorings are immutable assignments of class indices (0-based) to the
vertices 0..n-1.  Besides properness this module checks r-dynamism
(each vertex sees min(r, degree) classes among its neighbors) and
acyclicity (any two classes induce a forest), computes per-vertex
missing-color sets, and builds two constructive colorings: a
deterministic 4-coloring (budgeted DSATUR, Kempe-chain fallback) and the
inductive 5-dynamic 6-coloring of octahedron-pattern triangulations.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from .generators import BuildTrace, replay
from .plane_graph import InvariantBreach, PlaneGraph, _count_components, _echo


@dataclass(frozen=True)
class Coloring:
    """Total assignment of vertices 0..n-1 to classes 0..k-1."""

    k: int
    colors: tuple[int, ...]

    def __post_init__(self):
        bad = [c for c in self.colors if not (0 <= c < self.k)]
        if bad:
            raise ValueError(f"class index {bad[0]} outside 0..{self.k - 1}")

    def __getitem__(self, v: int) -> int:
        return self.colors[v]

    @property
    def n(self) -> int:
        return len(self.colors)

    def class_members(self, i: int) -> frozenset[int]:
        if not (0 <= i < self.k):
            raise IndexError(f"class {i} outside 0..{self.k - 1}")
        return frozenset(v for v, c in enumerate(self.colors) if c == i)

    def to_text(self) -> str:
        lines = [f"# coloring k={self.k}"]
        lines.extend(f"{v} {c}" for v, c in enumerate(self.colors))
        return "\n".join(lines) + "\n"

    @staticmethod
    def from_text(text: str) -> "Coloring":
        pairs, k = {}, None
        for lineno, raw in enumerate(text.splitlines(), start=1):
            header = raw.startswith("# coloring k=")  # else k is the largest class + 1
            line = raw if header else raw.split("#", 1)[0].strip()
            if not line:
                continue
            try:
                if header:
                    k = int(raw.removeprefix("# coloring k="))
                    continue
                v, c = map(int, line.split())
            except ValueError:
                form = "# coloring k=K" if header else "vertex class"
                shown = f"line {lineno}: {_echo(line)}"
                raise ValueError(f"{shown} is not of the form `{form}`") from None
            if v in pairs:
                raise ValueError(f"vertex {_echo(v)} colored twice")
            pairs[v] = c
        if sorted(pairs) != list(range(len(pairs))):
            raise ValueError("coloring must cover vertices 0..n-1")
        colors = tuple(pairs[v] for v in range(len(pairs)))
        top = max(colors, default=-1)
        # n vertices fill at most n classes; a larger index only inflates k
        if top >= len(colors):
            raise ValueError(f"class index {_echo(top)} is not below the vertex count")
        if k is not None and not top < k <= max(len(colors), 6):  # `color` writes k <= 6
            raise ValueError(f"header k={_echo(k)} is outside {top + 1}..{max(len(colors), 6)}")
        return Coloring(top + 1 if k is None else k, colors)


def class_sizes(c: Coloring) -> tuple[int, ...]:
    return tuple(c.colors.count(i) for i in range(c.k))


def is_proper(g: PlaneGraph, c: Coloring) -> bool:
    if c.n != g.n:
        raise ValueError(f"coloring covers {c.n} vertices, graph has {g.n}")
    members: dict[int, set[int]] = {}  # each class's vertices
    for v, x in enumerate(c.colors):
        members.setdefault(x, set()).add(v)
    return all(members[x].isdisjoint(nbrs) for x, nbrs in zip(c.colors, g._adj))


def _require_proper(g: PlaneGraph, c: Coloring):
    if not is_proper(g, c):
        raise ValueError("coloring is not proper")


def is_r_dynamic(g: PlaneGraph, c: Coloring, r: int) -> bool:
    """True iff every vertex has neighbors in at least min(r, degree)
    distinct classes."""
    _require_proper(g, c)
    for v in g.vertices():
        seen = {c[u] for u in g.neighbors(v)}
        if len(seen) < min(r, g.degree(v)):
            return False
    return True


def is_acyclic(g: PlaneGraph, c: Coloring) -> bool:
    """True iff the union of any two color classes induces a forest, that
    is, has as many vertices as edges plus components."""
    _require_proper(g, c)
    for pair in itertools.combinations(range(c.k), 2):
        # vertices outside the pair stay as components of their own
        adj = [
            [u for u in g.neighbors(v) if c[u] in pair] if c[v] in pair else []
            for v in g.vertices()
        ]
        if sum(map(len, adj)) // 2 + _count_components(adj) != g.n:
            return False
    return True


def missing_colors(g: PlaneGraph, c: Coloring, v: int) -> frozenset[int]:
    """Classes absent from the closed neighborhood of v."""
    _require_proper(g, c)
    return _missing(g, c, v)


def _missing(g: PlaneGraph, c: Coloring, v: int) -> frozenset[int]:
    """missing_colors for a coloring already known to be proper."""
    return frozenset(range(c.k)) - {c[v]} - {c[u] for u in g.neighbors(v)}


# Vertex choices the four_coloring search may make before it falls back to
# Kempe chains.  The largest tested search that succeeds makes 2,964.
_SEARCH_NODES = 10_000


class ColoringLimitExceeded(RuntimeError):
    """Neither the budgeted search nor the Kempe fallback found a 4-coloring."""


def four_coloring(g: PlaneGraph) -> Coloring:
    """Deterministic proper coloring with 4 classes.

    DSATUR (Brelaz 1979) with backtracking on an explicit stack: color
    the most saturated vertex next (ties: higher degree, then lower id),
    lowest free class first.  Each saturation level keeps its uncolored
    vertices as a bitmask over their (-degree, v) rank, so the pick is the
    lowest bit of the highest nonempty level.  Past _SEARCH_NODES vertex
    choices, fall back to smallest-last insertion with Kempe-chain swaps
    (Morgenstern & Shapiro 1991).  Raises ColoringLimitExceeded if that
    fails too.
    """
    nbrs = [g.neighbors(v) for v in g.vertices()]
    colors = _dsatur(nbrs) or _kempe_insertion(nbrs)  # n >= 1: never empty
    c = Coloring(4, tuple(colors))
    if not is_proper(g, c):
        raise ColoringLimitExceeded("the Kempe fallback left an improper coloring")
    return c


def _dsatur(nbrs) -> list[int] | None:
    """The DSATUR coloring, or None past the node budget or on exhaustion."""
    n = len(nbrs)
    order = sorted(range(n), key=lambda v: (-len(nbrs[v]), v))
    bit = [0] * n
    for r, v in enumerate(order):
        bit[v] = 1 << r
    colors, sat, seen = [-1] * n, [0] * n, [0] * (4 * n)
    # level[s]: the uncolored vertices of saturation s, one bit per rank, so
    # the lowest bit of the highest nonempty level is the DSATUR pick
    level = [(1 << n) - 1, 0, 0, 0, 0]
    trail: list[tuple[int, int]] = []  # (vertex, class) of each assignment
    for nodes in itertools.count(1):
        for top in (4, 3, 2, 1, 0):
            if level[top]:
                break
        else:
            return colors
        if nodes > _SEARCH_NODES:
            return None
        low = level[top] & -level[top]
        level[top] ^= low
        v, c = order[low.bit_length() - 1], 0
        while True:  # the lowest class from c on that no neighbor of v has
            while c < 4 and seen[4 * v + c]:
                c += 1
            if c < 4:
                break
            level[sat[v]] |= bit[v]  # back up
            if not trail:
                return None
            v, c = trail.pop()
            colors[v] = -1  # take class c back from v
            for u in nbrs[v]:
                i = 4 * u + c
                seen[i] -= 1
                if not seen[i]:  # the saturation of u fell
                    if colors[u] < 0:
                        level[sat[u]] ^= bit[u]
                        level[sat[u] - 1] |= bit[u]
                    sat[u] -= 1
            c += 1
        colors[v] = c  # give v class c
        for u in nbrs[v]:
            i = 4 * u + c
            seen[i] += 1
            if seen[i] == 1:  # the saturation of u rose
                if colors[u] < 0:
                    level[sat[u]] ^= bit[u]
                    level[sat[u] + 1] |= bit[u]
                sat[u] += 1
        trail.append((v, c))


def _kempe_insertion(nbrs) -> list[int]:
    """Color in the reverse of an order that keeps removing a vertex of
    least remaining degree (at most 5 in a plane graph), each vertex with
    the lowest class free after at most two Kempe-chain swaps."""
    deg = [len(a) for a in nbrs]
    heap = [(d, v) for v, d in enumerate(deg)]
    heapq.heapify(heap)
    colors, order = [-1] * len(nbrs), []  # -2: removed, not yet colored
    while heap:
        d, v = heapq.heappop(heap)
        if colors[v] == -1 and d == deg[v]:
            colors[v] = -2
            order.append(v)
            for u in nbrs[v]:
                deg[u] -= 1
                heapq.heappush(heap, (deg[u], u))
    for v in reversed(order):
        c = _kempe_free(nbrs, colors, v, 2)
        if c is None:
            raise ColoringLimitExceeded(f"no Kempe swap frees a class at vertex {v}")
        colors[v] = c
    return colors


def _kempe_free(nbrs, colors, v, depth) -> int | None:
    """Lowest class free at v after at most depth Kempe-chain swaps, each
    through a neighbor of v; colors is restored when there is none."""
    used = {colors[u] for u in nbrs[v]}
    free = next((c for c in range(4) if c not in used), None)
    if free is not None or depth == 0:
        return free
    for u in sorted(nbrs[v]):
        a = colors[u]  # restored after every swap that does not help
        for b in range(4):
            if a >= 0 and b != a:
                _kempe_swap(nbrs, colors, u, b)
                free = _kempe_free(nbrs, colors, v, depth - 1)
                if free is not None:
                    return free
                _kempe_swap(nbrs, colors, u, a)
    return None


def _kempe_swap(nbrs, colors, u, b):
    """Exchange b and the class of u on their Kempe chain through u."""
    a, chain, todo = colors[u], {u}, [u]
    while todo:
        for y in nbrs[todo.pop()]:
            if y not in chain and colors[y] in (a, b):
                chain.add(y)
                todo.append(y)
    for x in chain:
        colors[x] = a + b - colors[x]


def rec_eulerian_six_coloring(g: PlaneGraph, trace: BuildTrace) -> Coloring:
    """5-dynamic 6-coloring of an octahedron-pattern triangulation,
    built by replaying the trace.

    Inductively: with the step's host face x, y, z and inserted triangle
    a, b, c (a paired to x, b to y, c to z), relabel the classes so that
    x, y, z sit in classes 0, 1, 2 and any singleton missing-color of x,
    y, z moves to 3, 4, 5 respectively, then color a -> 4, b -> 5,
    c -> 3.  Among eligible relabelings the lexicographically smallest
    is chosen.  After every step adjacent degree-4 vertices have
    distinct singleton missing-color sets, which is exactly what makes
    the next relabeling feasible; infeasibility is a hard error.
    """
    if any(s.kind != "triangle" for s in trace.steps):
        raise ValueError("six-coloring needs an octahedron-pattern trace")
    if replay(trace) != g:
        raise ValueError("trace does not rebuild the given graph")

    colors = [0, 1, 2]

    def missing(v: int) -> set[int]:
        # The replayed trace adds only the next ids and never removes an
        # edge, so the colored ids induce the graph grown so far.
        seen = {colors[u] for u in g.neighbors(v) if u < len(colors)}
        return set(range(6)) - {colors[v]} - seen

    for step in trace.steps:
        x, y, z = step.face
        # pin down the relabeling: face colors to 0,1,2; singleton
        # missing colors to 3,4,5
        want: dict[int, int] = {}
        for src, dst in ((colors[x], 0), (colors[y], 1), (colors[z], 2)):
            if want.setdefault(src, dst) != dst:
                raise InvariantBreach(
                    f"face {step.face} colors collide under relabeling"
                )
        for v, dst in ((x, 3), (y, 4), (z, 5)):
            miss = missing(v)
            if len(miss) != 1:
                continue
            src = miss.pop()
            if want.setdefault(src, dst) != dst:
                raise InvariantBreach(
                    f"no class relabeling fits step {step}: {want} vs {src}->{dst}"
                )
        free_sources = [s for s in range(6) if s not in want]
        free_targets = [d for d in range(6) if d not in want.values()]
        perm = want | dict(zip(free_sources, free_targets))
        colors = [perm[col] for col in colors]

        colors.extend((4, 5, 3))  # a, b, c

    return Coloring(6, tuple(colors))
