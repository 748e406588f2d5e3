"""Proper colorings and their structural checkers.

Colorings are immutable assignments of class indices (0-based) to the
vertices 0..n-1.  Besides properness this module checks r-dynamism
(each vertex sees min(r, degree) classes among its neighbors) and
acyclicity (any two classes induce a forest), computes per-vertex
missing-color sets, and builds two constructive colorings: a
deterministic backtracking 4-coloring and the inductive 5-dynamic
6-coloring of triangulations grown by octahedron-pattern insertions.
"""

from __future__ import annotations

from dataclasses import dataclass

from .generators import BuildTrace, replay
from .plane_graph import InvariantBreach, PlaneGraph


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
    def from_text(text: str, k: int | None = None) -> "Coloring":
        pairs = {}
        for raw in text.splitlines():
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            v, c = map(int, line.split())
            if v in pairs:
                raise ValueError(f"vertex {v} colored twice")
            pairs[v] = c
        if sorted(pairs) != list(range(len(pairs))):
            raise ValueError("coloring must cover vertices 0..n-1")
        colors = tuple(pairs[v] for v in range(len(pairs)))
        if k is None:
            k = max(colors, default=-1) + 1
        return Coloring(k, colors)


def class_sizes(c: Coloring) -> tuple[int, ...]:
    counts = [0] * c.k
    for x in c.colors:
        counts[x] += 1
    return tuple(counts)


def _check_total(g: PlaneGraph, c: Coloring):
    if c.n != g.n:
        raise ValueError(f"coloring covers {c.n} vertices, graph has {g.n}")


def is_proper(g: PlaneGraph, c: Coloring) -> bool:
    _check_total(g, c)
    return all(c[u] != c[v] for u, v in g.edges())


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
    """True iff the union of any two color classes induces a forest."""
    _require_proper(g, c)
    for i in range(c.k):
        for j in range(i + 1, c.k):
            if _has_cycle(g, {v for v in g.vertices() if c[v] in (i, j)}):
                return False
    return True


def _has_cycle(g: PlaneGraph, keep: set[int]) -> bool:
    parent = {v: v for v in keep}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for u, v in g.edges():
        if u in keep and v in keep:
            ru, rv = find(u), find(v)
            if ru == rv:
                return True
            parent[ru] = rv
    return False


def missing_colors(g: PlaneGraph, c: Coloring, v: int) -> frozenset[int]:
    """Classes absent from the closed neighborhood of v."""
    _require_proper(g, c)
    seen = {c[v]} | {c[u] for u in g.neighbors(v)}
    return frozenset(range(c.k)) - seen


def four_coloring(g: PlaneGraph) -> Coloring:
    """Deterministic proper coloring with 4 classes, by backtracking on
    the most saturated vertex (ties: higher degree, then lower id) with
    lowest class tried first.  Raises if the search exhausts, which
    cannot happen for a plane graph and would signal a validator bug.
    """
    n = g.n
    assign: list[int | None] = [None] * n
    neighbor_colors: list[set[int]] = [set() for _ in range(n)]

    def pick() -> int | None:
        best = None
        for v in range(n):
            if assign[v] is not None:
                continue
            key = (len(neighbor_colors[v]), g.degree(v), -v)
            if best is None or key > best[0]:
                best = (key, v)
        return None if best is None else best[1]

    def solve() -> bool:
        v = pick()
        if v is None:
            return True
        for color in range(4):
            if color in neighbor_colors[v]:
                continue
            assign[v] = color
            touched = []
            for u in g.neighbors(v):
                if color not in neighbor_colors[u]:
                    neighbor_colors[u].add(color)
                    touched.append(u)
            if solve():
                return True
            assign[v] = None
            for u in touched:
                neighbor_colors[u].discard(color)
        return False

    if not solve():
        raise InvariantBreach("4-coloring search exhausted on a plane graph")
    return Coloring(4, tuple(assign))  # type: ignore[arg-type]


def stacked_four_coloring(trace: BuildTrace) -> Coloring:
    """Canonical 4-coloring of a stacked triangulation: the base triangle
    gets classes 0, 1, 2 and every stacked vertex gets the one class its
    three face neighbors do not use.  Every class is dominating: each
    vertex of the final graph lies in some stacking triangle, whose four
    involved vertices carry all four classes."""
    if trace.family != "three_tree" or any(s.kind != "stack" for s in trace.steps):
        raise ValueError("stacked coloring needs a pure stacking trace")
    colors = [0, 1, 2]
    for s in trace.steps:
        used = {colors[v] for v in s.face}
        colors.append(min(set(range(4)) - used))
    return Coloring(4, tuple(colors))


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
    if trace.family != "recursive_eulerian" or any(
        s.kind != "triangle" for s in trace.steps
    ):
        raise ValueError("six-coloring needs an octahedron-pattern trace")
    if replay(trace) != g:
        raise ValueError("trace does not rebuild the given graph")

    adj: list[set[int]] = [{1, 2}, {0, 2}, {0, 1}]
    colors = [0, 1, 2]

    def missing(v: int) -> set[int]:
        return set(range(6)) - {colors[v]} - {colors[u] for u in adj[v]}

    for step in trace.steps:
        x, y, z = step.face
        a, b, c = step.new
        # pin down the relabeling: face colors to 0,1,2; singleton
        # missing colors to 3,4,5
        want: dict[int, int] = {}
        for src, dst in (
            (colors[x], 0),
            (colors[y], 1),
            (colors[z], 2),
        ):
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
        perm = dict(want)
        perm.update(zip(free_sources, free_targets))
        colors = [perm[col] for col in colors]

        colors.extend((4, 5, 3))  # a, b, c
        for v in (a, b, c):
            adj.append(set())
        for u, v in (
            (a, y), (a, z), (b, x), (b, z), (c, x), (c, y),
            (a, b), (a, c), (b, c),
        ):
            adj[u].add(v)
            adj[v].add(u)

    return Coloring(6, tuple(colors))
