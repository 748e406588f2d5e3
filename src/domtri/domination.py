"""Independent domination: predicates, the color-class combinator, exact
oracles, and the per-instance accounting checks behind the 5n/12, 3n/8
and n/3 bounds.

The combinator turns any proper coloring into an independent dominating
set: for each class C_i, the vertices U_i it fails to dominate get a
maximal independent set S_i of their induced subgraph, and C_i u S_i is
always independent dominating.  The exact oracles for iota and gamma are
one desk-scale branch and bound (`_search`) that refuses oversized inputs
and starts from a greedy maximal independent set.  It branches on the
undominated vertex with the fewest available dominators, tries them
most-newly-dominating first, and prunes with a packing bound taken in
ascending order of those counts.  It skips a dominator that an earlier one
can replace in any optimal completion.  For iota it also bars the
neighbours of chosen vertices.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import permutations

from .coloring import Coloring, _require_proper
from .plane_graph import (
    NEAR_OR_PLANAR,
    Category,
    InvariantBreach,
    PlaneGraph,
    _echo,
    check_faces_inequality,
    classify,
    closed_neighborhood,
    deleted_vertex_region_dart,
    delete_vertices,
    face_degree_histogram,
    to_pgr,
)


class OracleLimitExceeded(RuntimeError):
    """An exact oracle refused an input beyond its configured limits."""


@dataclass(frozen=True)
class OracleLimit:
    max_vertices: int
    max_nodes: int = 40_000_000


IOTA_LIMIT = OracleLimit(max_vertices=35)
GAMMA_LIMIT = OracleLimit(max_vertices=24)

# Chosen vertices an oracle search may hold before it gives up.  Each one
# is a Python frame, and Python's default recursion limit is 1000.
_MAX_DEPTH = 500


@dataclass(frozen=True)
class DominationResult:
    vertices: frozenset[int]
    size: int
    method: str  # combinator | exact_iota | exact_gamma
    witness_class: int | None = None
    union_s: frozenset[int] | None = None  # the combinator's S1 u .. u Sk
    used_fallback: bool = False
    undominated: tuple[frozenset[int], ...] | None = None  # the combinator's U_i
    nodes: int | None = None  # search nodes an exact oracle visited


def is_dominating(g: PlaneGraph, s) -> bool:
    return closed_neighborhood(g, s) == frozenset(g.vertices())


def is_independent(g: PlaneGraph, s) -> bool:
    s = frozenset(s)
    return all(s.isdisjoint(g.rotation(v)) for v in s)


def undominated_by(g: PlaneGraph, c: Coloring, i: int) -> frozenset[int]:
    """Vertices not dominated by color class i."""
    _require_proper(g, c)
    return frozenset(g.vertices()) - closed_neighborhood(g, c.class_members(i))


def greedy_independent(g: PlaneGraph, vs) -> frozenset[int]:
    """Maximal independent set of G[vs], scanning vs in ascending id."""
    chosen: set[int] = set()
    for v in sorted(vs):
        if chosen.isdisjoint(g.rotation(v)):
            chosen.add(v)
    return frozenset(chosen)


def _in_triangle(g: PlaneGraph, v: int) -> bool:
    nbrs = g.neighbors(v)
    return any(not nbrs.isdisjoint(g.rotations[a]) for a in nbrs)


def class_combinator(g: PlaneGraph, c: Coloring) -> DominationResult:
    """Smallest of the k independent dominating sets C_i u S_i; keeps every U_i.

    When some class is empty and every vertex lies in a triangle, the
    smallest nonempty class is itself dominating and is returned
    directly.  Only the sets it may return are checked here; the lemmas
    behind their sizes are rows of `verify_combinator_accounting`.
    """
    _require_proper(g, c)
    members = [c.class_members(i) for i in range(c.k)]
    everything = frozenset(g.vertices())
    u_sets = tuple(everything - closed_neighborhood(g, m) for m in members)

    fallback = any(not m for m in members) and all(
        _in_triangle(g, v) for v in g.vertices()
    )
    if fallback:
        _, best = min((len(m), i) for i, m in enumerate(members) if m)
        if u_sets[best]:  # a class of a proper coloring is independent
            raise InvariantBreach(
                f"nonempty class {best} does not dominate despite an empty "
                f"class and all vertices in triangles\n{to_pgr(g)}"
            )
        chosen, union_s = members[best], frozenset()
    else:
        s_sets = [greedy_independent(g, u) for u in u_sets]
        candidates = [members[i] | s_sets[i] for i in range(c.k)]
        for i, cand in enumerate(candidates):
            if not (is_dominating(g, cand) and is_independent(g, cand)):
                raise InvariantBreach(
                    f"class {i} union S_{i} is not independent dominating\n"
                    f"{to_pgr(g)}\ncoloring={c.colors}\nS_{i}={sorted(s_sets[i])}"
                )
        best = min(range(c.k), key=lambda i: (len(candidates[i]), i))
        chosen, union_s = candidates[best], frozenset().union(*s_sets)
    return DominationResult(
        vertices=chosen,
        size=len(chosen),
        method="combinator",
        witness_class=best,
        union_s=union_s,
        used_fallback=fallback,
        undominated=u_sets,
    )


# -- exact oracles ------------------------------------------------------------


def _search(g: PlaneGraph, limit: OracleLimit, independent: bool) -> DominationResult:
    """The branch and bound behind both oracles (see `exact_gamma`).  Each
    later branch bars the dominators tried before it, and with
    `independent` each chosen vertex bars its neighbours.  The packing
    bound is sound because pairwise-disjoint dominator sets each need
    their own chosen vertex.

    Swap rule: with fresh(w) the undominated part of N[w], a candidate w_j
    is skipped when an earlier candidate w_i has fresh(w_j) <= fresh(w_i)
    and, for iota, every available neighbour of w_i lies in N[w_j].
    Candidates come in descending order of |fresh|, so a strict superset
    is always earlier, and of equal fresh sets the first is kept.  If an
    optimal completion T (available vertices only) uses w_j, then
    T - w_j + w_i still dominates and is no larger.  For iota it stays
    independent: a member of T adjacent to w_i is available, so it lies in
    N[w_j], which the independent T forbids.  Each swap moves to an earlier
    candidate, so repeated swaps reach an optimum holding a kept one.  A kept
    branch covers the completions whose first kept candidate it is, so a
    skipped candidate is not barred."""
    what = "iota" if independent else "gamma"
    n = g.n
    if n > limit.max_vertices:
        raise OracleLimitExceeded(
            f"{what} oracle limited to n <= {limit.max_vertices}, got {n}"
        )
    nbr = [sum(1 << u for u in r) for r in g.rotations]
    closed = [m | 1 << v for v, m in enumerate(nbr)]
    full = (1 << n) - 1
    bars = nbr if independent else [0] * n  # what choosing w makes unavailable

    best_mask = sum(1 << v for v in greedy_independent(g, g.vertices()))
    best = best_mask.bit_count()
    nodes = 0
    max_nodes, max_depth = limit.max_nodes, _MAX_DEPTH

    def rec(s_mask, barred, d_mask, size):
        nonlocal best, best_mask, nodes
        nodes += 1
        if nodes > max_nodes:
            raise OracleLimitExceeded(f"{what} oracle exceeded {max_nodes} nodes")
        if size > max_depth:
            raise OracleLimitExceeded(
                f"{what} oracle search exceeded {max_depth} chosen vertices"
            )
        if d_mask == full:
            if size < best:
                best, best_mask = size, s_mask
            return
        avail = ~barred
        options = []
        rest = full & ~d_mask
        while rest:
            low = rest & -rest
            rest ^= low
            u = low.bit_length() - 1
            cov = closed[u] & avail
            if cov == 0:
                return
            options.append((cov.bit_count(), u, cov))
        options.sort()
        room = best - size
        packed = lower = 0
        for _, _, cov in options:
            if cov & packed == 0:
                lower += 1
                if lower >= room:
                    return
                packed |= cov
        fresh = ~d_mask
        order = []
        rest = options[0][2]
        while rest:
            low = rest & -rest
            rest ^= low
            w = low.bit_length() - 1
            fw = closed[w] & fresh
            order.append((-fw.bit_count(), w, fw))
        order.sort()
        tried = []  # (fresh, available vertices it bars) of each earlier candidate
        for _, w, fw in order:
            outside = ~closed[w]
            if not any(not fw & ~fi and not ai & outside for fi, ai in tried):
                rec(s_mask | (1 << w), barred | bars[w], d_mask | closed[w], size + 1)
                barred |= 1 << w
            tried.append((fw, bars[w] & avail))

    rec(0, 0, 0, 0)
    return DominationResult(
        vertices=frozenset(v for v in range(n) if best_mask >> v & 1),
        size=best,
        method=f"exact_{what}",
        nodes=nodes,
    )


def exact_iota(g: PlaneGraph, limit: OracleLimit = IOTA_LIMIT) -> DominationResult:
    """Minimum independent dominating set (equivalently minimum maximal
    independent set), from a greedy maximal independent set.  `_search`
    branches on the dominators of the undominated vertex with the fewest
    available ones, most newly dominating first, bounds by packing the
    undominated vertices' dominator sets in ascending order of size, and
    bars each chosen vertex's neighbours.  It skips a dominator whose
    newly dominated vertices an earlier one also dominates, when every
    available neighbour of that earlier one lies in the skipped one's
    closed neighbourhood (the swap rule of `_search`)."""
    return _search(g, limit, independent=True)


def exact_gamma(g: PlaneGraph, limit: OracleLimit = GAMMA_LIMIT) -> DominationResult:
    """Minimum dominating set, from a greedy maximal independent set, which
    dominates.  `_search` branches on the dominators of the undominated
    vertex with the fewest available ones, most newly dominating first,
    and bounds by packing the undominated vertices' dominator sets in
    ascending order of size.  It skips a dominator whose newly dominated
    vertices an earlier one also dominates (the swap rule of `_search`)."""
    return _search(g, limit, independent=False)


# -- proof accounting ---------------------------------------------------------


@dataclass(frozen=True)
class BoundRecord:
    """One checked comparison `lhs op rhs`; both sides are kept as
    Fractions."""

    name: str
    lhs: Fraction
    rhs: Fraction
    op: str = "<="
    level: str = "bound"

    def __post_init__(self):
        if self.op not in ("<=", "<", "=="):
            raise ValueError(f"unknown comparison {_echo(self.op)}")
        if self.level not in ("bound", "invariant", "conjecture", "finding"):
            raise ValueError(f"unknown level {_echo(self.level)}")
        if type(self.lhs) is not Fraction:  # Fraction(Fraction) is slow
            object.__setattr__(self, "lhs", Fraction(self.lhs))
        if type(self.rhs) is not Fraction:
            object.__setattr__(self, "rhs", Fraction(self.rhs))

    @property
    def holds(self) -> bool:
        if self.op == "<=":
            return self.lhs <= self.rhs
        if self.op == "<":
            return self.lhs < self.rhs
        return self.lhs == self.rhs


def faces_inequality_rows(h: PlaneGraph, level: str = "bound") -> tuple[BoundRecord, ...]:
    """The faces inequality of h and its strengthened form, as two rows."""
    r = check_faces_inequality(h)
    return (
        BoundRecord("faces_inequality", r.lhs, r.rhs, "<=", level),
        BoundRecord("faces_inequality_strengthened", r.lhs, r.strengthened_rhs, "<=", level),
    )


def verify_combinator_accounting(
    g: PlaneGraph, c: Coloring, result: DominationResult
) -> tuple[BoundRecord, ...]:
    """Re-derive every intermediate inequality behind the 5n/12, 3n/8 and
    n/3 bounds on this instance and fail hard on any violation.

    The one checker of the combinator's lemmas: S = S_1 u .. u S_k is
    independent, N[U_i] misses U_j off the fallback path, and every class
    dominates the odd-degree vertices of a planar triangulation.  Then
    it recomputes H = G - S, the interior/boundary split X, Y of S, the
    face of H that each deleted vertex falls into (its hole), f_4(H) and
    the outer cycle length, and checks the full chain with its planar and
    minimum-degree-5 refinements.
    """
    if result.union_s is None or result.undominated is None:
        raise ValueError("result lacks the combinator's union_s and U_i records")
    cls = classify(g)
    if cls.category not in NEAR_OR_PLANAR:
        raise ValueError("accounting applies to near triangulations")

    n = g.n
    s = result.union_s
    u_sets = result.undominated

    def breach(failing):
        raise InvariantBreach(
            f"accounting failed: {failing}\n{to_pgr(g)}\n"
            f"coloring={c.colors}\nS={sorted(s)}"
        )

    s_edges = sum(len(s.intersection(g.rotations[v])) for v in s) // 2
    checks = [BoundRecord("s_independent", s_edges, 0)]
    if s_edges:  # each hole dart below needs both ends to survive
        breach(checks)

    outer_vertices = frozenset(g.outer_face)
    y = s & outer_vertices
    x = s - y

    h, relabel = delete_vertices(g, s)
    if not h.is_connected:
        raise InvariantBreach(
            f"H = G - S is disconnected\n{to_pgr(g)}\nS={sorted(s)}"
        )
    hole = {}
    for v in s:
        a, b = deleted_vertex_region_dart(g, v)
        hole[v] = h.face_of_dart(relabel[a], relabel[b])
    x_holes = [hole[v] for v in x]

    hist = face_degree_histogram(h)
    f4 = hist.get(4, 0)
    even_inner = sum(
        cnt for d, cnt in hist.items() if d % 2 == 0
    ) - (1 if len(h.outer_face) % 2 == 0 else 0)
    o = len(outer_vertices)

    checks += [
        BoundRecord("x_holes_inner", x_holes.count(h.outer_face_id), 0),
        BoundRecord("x_holes_distinct", len(x_holes) - len(set(x_holes)), 0),
        BoundRecord(
            "y_holes_outer", sum(1 for v in y if hole[v] != h.outer_face_id), 0
        ),
        BoundRecord(
            "x_holes_even_degree", sum(len(h.faces[f]) % 2 for f in x_holes), 0
        ),
        BoundRecord("x_in_even_inner_faces", len(x), even_inner),
        BoundRecord("interior_face_budget", 2 * len(x), h.n - 2 + f4),
        *faces_inequality_rows(h),
        BoundRecord("weighted_deletion_budget", 3 * len(x) + len(y), n - 2 + f4),
        BoundRecord("y_at_most_half_outer", len(y), Fraction(o, 2)),
        BoundRecord("three_s", 3 * len(s), n - 2 + f4 + o),
        BoundRecord("f4_plus_outer", f4 + o, n + 1),
        BoundRecord("near_bound", result.size, Fraction(5 * n, 12), "<"),
    ]
    # the averaging over the four candidate sets needs all classes
    # nonempty; the fallback path bounds the smallest nonempty class
    # directly instead
    if not result.used_fallback:
        near = [closed_neighborhood(g, u) for u in u_sets]
        apart = sum(1 for i, j in permutations(range(c.k), 2) if near[i] & u_sets[j])
        checks.append(BoundRecord("undominated_sets_apart", apart, 0))
        checks.append(
            BoundRecord(
                "combined_size", result.size, Fraction(n, 3) + Fraction(f4 + o - 2, 12)
            )
        )
    else:
        # a nonempty class dominates iff its U_i is empty
        bad = sum(1 for i, u in enumerate(u_sets) if u and c.class_members(i))
        checks.append(BoundRecord("fallback_classes_dominating", bad, 0))
        checks.append(BoundRecord("fallback_size", result.size, Fraction(n, 3)))

    if cls.category is Category.PLANAR_TRIANGULATION:
        odd_missed = sum(g.degree(v) % 2 for v in frozenset().union(*u_sets))
        checks.append(BoundRecord("odd_vertices_dominated", odd_missed, 0))
        checks.append(BoundRecord("planar_y", len(y), 1))
        checks.append(BoundRecord("planar_three_s", 3 * len(s), n + f4))
        checks.append(BoundRecord("planar_f4", f4, Fraction(2 * n - 4, 4)))
        checks.append(BoundRecord("planar_f4_strict", f4, Fraction(n, 2), "<"))
        if not result.used_fallback:
            checks.append(
                BoundRecord("planar_size", result.size, Fraction(n + len(s), 4))
            )
        checks.append(BoundRecord("planar_bound", result.size, Fraction(3 * n, 8), "<"))
        if cls.min_degree == 5:
            checks.append(BoundRecord("min5_f4_zero", f4, 0))
            checks.append(BoundRecord("min5_s", len(s), Fraction(n, 3)))
            checks.append(BoundRecord("min5_bound", result.size, Fraction(n, 3)))

    failing = [ch for ch in checks if not ch.holds]
    if failing:
        breach(failing)
    return tuple(checks)
