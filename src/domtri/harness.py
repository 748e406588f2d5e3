"""Sweep driver: builds graph corpora from a flat config, runs every
applicable bound and invariant check, and emits deterministic reports.

A sweep is a pure function of its parsed config: identical configs give
byte-identical report files (wall-clock timings are measured but kept
out of the files unless explicitly enabled).
"""

from __future__ import annotations

import json
import re
import time
from collections import Counter, defaultdict
from dataclasses import MISSING, dataclass, field, fields
from fractions import Fraction
from pathlib import Path
from typing import Callable

from .coloring import (
    Coloring,
    ColoringLimitExceeded,
    _missing,
    class_sizes,
    four_coloring,
    is_proper,
    is_r_dynamic,
    rec_eulerian_six_coloring,
)
from .domination import (
    GAMMA_LIMIT,
    IOTA_LIMIT,
    BoundRecord,
    DominationResult,
    OracleLimit,
    OracleLimitExceeded,
    class_combinator,
    exact_gamma,
    exact_iota,
    faces_inequality_rows,
    is_dominating,
    is_independent,
    verify_combinator_accounting,
)
from .generators import (
    BuildTrace,
    _typed,
    diamond_chain,
    diamond_chain_witness,
    icosahedron,
    k4,
    k4_chain,
    min_degree5_sample,
    near_triangulation_from,
    octahedron,
    planar_three_tree,
    random_connected_plane,
    random_triangulation,
    recursive_eulerian,
    split_seed,
)
from .plane_graph import (
    NEAR_OR_PLANAR,
    Category,
    GraphClass,
    InvariantBreach,
    PlaneGraph,
    _echo,
    classify,
    neighborhood_structure,
)

# -- report records -----------------------------------------------------------

def _parse_frac(text) -> Fraction:
    """The inverse of str(Fraction): only text that it writes for some number
    is taken (so no "4/2", "007" or "-0").  Fraction() alone also takes
    1e4000000, slowly."""
    m = isinstance(text, str) and re.fullmatch(r"(-?[0-9]+)(?:/([1-9][0-9]*))?", text)
    if not m or str(x := Fraction(int(m[1]), int(m[2] or 1))) != text:
        raise ValueError(f"number {_echo(text)} is not of the form p or p/q")
    return x


# the JSON types each BoundReport annotation admits
_JSON_TYPES = {
    "str": (str,), "int": (int,), "bool": (bool,), "float | None": (int, float, type(None)),
    "tuple[str, ...]": (list,), "tuple[BoundRecord, ...]": (list,),
}


@dataclass(frozen=True)
class BoundReport:
    graph_id: str
    family: str
    n: int
    seed: int
    category: str
    min_degree: int
    all_degrees_odd: bool
    all_degrees_even: bool
    records: tuple[BoundRecord, ...]
    errors: tuple[str, ...] = ()
    runtime_ms: float | None = None

    @property
    def holds(self) -> bool:
        """Conjecture and finding rows are audited, not enforced."""
        return not self.errors and all(
            r.holds for r in self.records if r.level in ("bound", "invariant")
        )

    def to_json(self, include_timings: bool = False) -> str:
        doc = {f.name: getattr(self, f.name) for f in fields(self)}
        doc["records"] = [
            {
                "name": r.name,
                "lhs": str(r.lhs),
                "rhs": str(r.rhs),
                "op": r.op,
                "level": r.level,
                "holds": r.holds,
            }
            for r in self.records
        ]
        if not include_timings:
            del doc["runtime_ms"]
        return json.dumps(doc, sort_keys=True)

    @staticmethod
    def from_json(line: str) -> "BoundReport":
        doc = _typed("report", json.loads(line), dict)
        rows = [_typed("record", r, dict) for r in _typed("records", doc["records"], list)]
        records = tuple(
            BoundRecord(
                _typed("name", r["name"], str), _parse_frac(r["lhs"]), _parse_frac(r["rhs"]),
                r["op"], r["level"],
            )
            for r in rows
        )
        # a field with a default may be absent; any other must be present
        kw = {
            f.name: _typed(f.name, doc[f.name], *_JSON_TYPES[f.type])
            for f in fields(BoundReport)
            if f.name in doc or f.default is MISSING
        }
        errors = tuple(_typed("error", e, str) for e in kw.get("errors", ()))
        kw.update(records=records, errors=errors)
        return BoundReport(**kw)


# -- sweep config -------------------------------------------------------------

@dataclass(frozen=True)
class SweepConfig:
    seed: int = 1
    families: tuple[str, ...] = ()
    values: tuple[tuple[str, str], ...] = ()
    iota_max_n: int = IOTA_LIMIT.max_vertices
    gamma_max_n: int = GAMMA_LIMIT.max_vertices
    timings: bool = False
    out: str | None = None

    def get(self, key: str, default: str | None = None) -> str | None:
        return dict(self.values).get(key, default)

    def get_int(self, key: str, default: int) -> int:
        raw = self.get(key)
        return default if raw is None else int(raw)

    def get_ints(self, key: str, default: tuple[int, ...]) -> tuple[int, ...]:
        raw = self.get(key)
        return default if raw is None else _parse_ints(raw)

    def serialize(self) -> str:
        lines = [
            f"seed = {self.seed}",
            f"families = {', '.join(self.families)}",
            f"iota_max_n = {self.iota_max_n}",
            f"gamma_max_n = {self.gamma_max_n}",
            f"timings = {'on' if self.timings else 'off'}",
        ]
        if self.out is not None:
            lines.append(f"out = {self.out}")
        lines.extend(f"{k} = {v}" for k, v in self.values)
        return "\n".join(lines) + "\n"


def _int(text: str) -> int:
    """int(text), with an error that names the text, not Python's literal;
    a well-formed integer too long for int() is named by its first ten
    characters and digit count, other text as `_echo` shows it."""
    try:
        return int(text)
    except ValueError:
        if re.fullmatch(r"\s*[+-]?\d+(_\d+)*\s*", text):
            head, digits = text.strip()[:10] + "…", sum(map(str.isdigit, text))
            raise ValueError(f"{head!r} has {digits} digits, too many to read") from None
        raise ValueError(f"{_echo(text)} is not an integer") from None


MAX_RANGE = 10_000  # integers one lo..hi range may hold


def _parse_ints(raw: str) -> tuple[int, ...]:
    """Accepts '7', '2,5,9' and '4..8' (inclusive, 1 to MAX_RANGE integers)."""
    out: list[int] = []
    for part in raw.split(","):
        part = part.strip()
        if ".." in part:
            if part.count("..") != 1:
                raise ValueError(f"range {_echo(part)} is not of the form lo..hi")
            lo, hi = map(_int, part.split(".."))
            if hi < lo:
                raise ValueError(f"no integers in range {_echo(part)}")
            if hi - lo >= MAX_RANGE:
                raise ValueError(f"range {_echo(part)} holds over {MAX_RANGE} integers")
            out.extend(range(lo, hi + 1))
        elif part:
            out.append(_int(part))
    if not out:
        raise ValueError(f"no integers in {_echo(raw)}")
    return tuple(out)


def _once(what: str, items: tuple) -> tuple:
    """items, unless some are listed twice: their reports would share graph ids."""
    repeated = sorted(v for v, k in Counter(items).items() if k > 1)
    if repeated:
        raise ValueError(f"{what} listed twice: {_echo(repeated)}")
    return items


def _parse_sizes(raw: str) -> tuple[int, ...]:
    """A size list whose sizes name graphs (`diamond-k2`): no size twice."""
    return _once("sizes", _parse_ints(raw))


def _parse_count(raw: str) -> int:
    """A count: an integer >= 0."""
    value = _int(raw)
    if value < 0:
        raise ValueError(f"must be >= 0, got {_echo(value)}")
    return value


def _parse_key(key: str, parse: Callable[[str], object], raw: str):
    """parse(raw), naming the key in any error."""
    try:
        return parse(raw)
    except ValueError as exc:
        raise ValueError(f"{key}: {exc}") from None


def _parse_pairs(raw: str) -> tuple[tuple[int, int], ...]:
    """Accepts distinct 'n:seed' pairs separated by commas; empty means none."""
    out = []
    for part in filter(None, (p.strip() for p in raw.split(","))):
        if part.count(":") != 1:
            raise ValueError(f"pair {_echo(part)} is not of the form n:seed")
        a, b = part.split(":")
        out.append((_int(a), _int(b)))
    return _once("pairs", tuple(out))


def parse_sweep_config(text: str) -> SweepConfig:
    values: dict[str, str] = {}  # in file order
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"config line {lineno}: expected key = value")
        key, value = (s.strip() for s in line.split("=", 1))
        if key in values:
            raise ValueError(f"config line {lineno}: duplicate key {_echo(key)}")
        values[key] = value

    def take(key: str, default: str | None, parse=None):
        raw = values.pop(key, default)
        return raw if parse is None else _parse_key(key, parse, raw)

    seed = take("seed", "1", _int)
    fams = tuple(f.strip() for f in take("families", "").split(",") if f.strip())
    unknown = [f for f in fams if f not in FAMILIES]
    if unknown:
        raise ValueError(f"unknown families: {_echo(unknown)}")
    _once("families", fams)
    iota_max = take("iota_max_n", str(IOTA_LIMIT.max_vertices), _parse_count)
    gamma_max = take("gamma_max_n", str(GAMMA_LIMIT.max_vertices), _parse_count)
    timings_raw = (take("timings", "off") or "off").lower()
    if timings_raw not in ("on", "off", "yes", "no", "true", "false"):
        raise ValueError(f"timings must be on/off/yes/no/true/false, got {_echo(timings_raw)}")
    out = take("out", None)
    for key, value in values.items():
        family, _, name = key.partition(".")
        parse = FAMILIES[family].keys().get(name) if family in FAMILIES else None
        if parse is None:
            raise ValueError(f"unknown key {_echo(key)}")
        _parse_key(key, parse, value)
    return SweepConfig(
        seed=seed, families=fams, values=tuple(values.items()), iota_max_n=iota_max,
        gamma_max_n=gamma_max, timings=timings_raw in ("on", "yes", "true"), out=out,
    )


# -- per-instance evaluation --------------------------------------------------


@dataclass
class _Ctx:
    cfg: SweepConfig
    records: list[BoundRecord] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)

    def rec(self, name, lhs, rhs, op="<=", level="bound"):
        self.records.append(BoundRecord(name, lhs, rhs, op, level))


def _structure_checks(ctx: _Ctx, g: PlaneGraph, cls) -> None:
    if g.is_connected and g.n >= 2:
        ctx.records.extend(faces_inequality_rows(g, level="invariant"))
    if cls.category in NEAR_OR_PLANAR and g.n >= 4:
        try:
            for v in g.vertices():
                neighborhood_structure(g, v)
            ctx.rec("vertex_link_dichotomy", 0, 0, "<=", "invariant")
        except InvariantBreach as exc:
            ctx.errors.append(f"vertex-link: {exc}")
    if cls.category is Category.PLANAR_TRIANGULATION:
        ctx.rec("edge_count_3n_minus_6", g.edge_count, 3 * g.n - 6, "==", "invariant")
        ctx.rec("face_count_2n_minus_4", len(g.faces), 2 * g.n - 4, "==", "invariant")


def _combinator_checks(ctx: _Ctx, g: PlaneGraph, cls):
    """(4-coloring, combinator result); (None, None) off near/planar maps or on failure."""
    if cls.category not in NEAR_OR_PLANAR:
        return None, None
    n = g.n
    try:
        c = four_coloring(g)
        res = class_combinator(g, c)
    except (InvariantBreach, ColoringLimitExceeded) as exc:
        ctx.errors.append(f"combinator: {exc}")
        return None, None
    ctx.rec("combinator_near_5n12", res.size, Fraction(5 * n, 12))
    if cls.category is Category.PLANAR_TRIANGULATION:
        ctx.rec("combinator_planar_3n8", res.size, Fraction(3 * n, 8), "<")
        if cls.min_degree == 5:
            ctx.rec("combinator_min5_n3", res.size, Fraction(n, 3))
    try:
        verify_combinator_accounting(g, c, res)  # raises on a failing row
        ctx.rec("combinator_accounting", 0, 0, "<=", "invariant")
    except InvariantBreach as exc:
        ctx.errors.append(f"accounting: {exc}")
    if cls.category is Category.PLANAR_TRIANGULATION:
        _alpha_checks(ctx, g, c, res)
    return c, res


def _alpha_checks(ctx: _Ctx, g: PlaneGraph, c: Coloring, res: DominationResult):
    rec = odd_degree_analysis(g, c, combinator_result=res)
    ctx.rec("alpha_combinator_bound", res.size, rec.bound, "<=", "finding")
    if rec.alpha == 1:
        ctx.rec("all_odd_classes_dominating", rec.non_dominating_classes, 0, "<=", "invariant")


def _exact(oracle, g: PlaneGraph, cap: int) -> DominationResult | None:
    """oracle(g) under a vertex cap, or None past the cap or its budget."""
    try:
        return oracle(g, OracleLimit(cap)) if g.n <= cap else None
    except OracleLimitExceeded:
        return None


def _oracle_checks(ctx: _Ctx, g: PlaneGraph, cls, res: DominationResult | None):
    n = g.n
    iota = _exact(exact_iota, g, ctx.cfg.iota_max_n)
    if iota is not None:
        if res is not None:
            ctx.rec("iota_le_combinator", iota.size, res.size, "<=", "invariant")
        if cls.category is Category.PLANAR_TRIANGULATION:
            ctx.rec("conjecture_iota_n3", iota.size, Fraction(n, 3), "<=", "conjecture")
    gamma = _exact(exact_gamma, g, ctx.cfg.gamma_max_n)
    if gamma is not None:
        if iota is not None:
            ctx.rec("gamma_le_iota", gamma.size, iota.size, "<=", "invariant")
        if cls.category in NEAR_OR_PLANAR:
            ctx.rec("gamma_near_n3", gamma.size, Fraction(n, 3))
        if cls.category is Category.PLANAR_TRIANGULATION:
            ctx.rec("conjecture_gamma_n4", gamma.size, Fraction(n, 4), "<=", "conjecture")
    return iota, gamma


def _eulerian_checks(ctx: _Ctx, g: PlaneGraph, trace, c, iota, gamma) -> None:
    n = g.n
    rots = g.rotations
    v4 = {v for v, r in enumerate(rots) if len(r) == 4}
    odd = sum(1 for d in g.degrees() if d % 2)
    ctx.rec("degrees_all_even", odd, 0, "<=", "invariant")
    if n >= 9:
        # degree-4 vertices whose degree-4 neighbours are not two adjacent ones
        inside = [[u for u in rots[v] if u in v4] for v in v4]
        bad = sum(len(i) != 2 or not g.has_edge(*i) for i in inside)
        ctx.rec("deg4_disjoint_triangles", bad, 0, "<=", "invariant")
        ctx.rec("deg4_seven_bound", 7 * len(v4), 6 * n - 12, "<=")
    six = rec_eulerian_six_coloring(g, trace)
    ctx.rec("six_coloring_proper", 0 if is_proper(g, six) else 1, 0, "<=", "invariant")
    # is_r_dynamic raises on an improper coloring, so the missing classes
    # below are read unchecked.
    dynamic = is_r_dynamic(g, six, 5)
    ctx.rec("six_coloring_5dynamic", 0 if dynamic else 1, 0, "<=", "invariant")
    miss = {v: _missing(g, six, v) for v in v4}
    bad_pairs = sum(u < w and miss[u] == miss.get(w) for u in v4 for w in rots[u])
    ctx.rec("six_coloring_distinct_missing", bad_pairs, 0, "<=", "invariant")
    shape_bad = sum(
        1
        for v, r in enumerate(rots)
        if (len(r) == 4 and len(miss[v]) != 1)
        or (len(r) >= 6 and _missing(g, six, v))
    )
    ctx.rec("six_coloring_missing_shape", shape_bad, 0, "<=", "invariant")
    try:
        res6 = class_combinator(g, six)
    except InvariantBreach as exc:
        ctx.errors.append(f"six-combinator: {exc}")
        return
    if n >= 6:  # the theorem's smallest case is the octahedron; t = 0 is a triangle
        ctx.rec("eulerian_class_bound", res6.size, Fraction(n + len(v4), 6))
    if n >= 9:
        ctx.rec("eulerian_13n42", res6.size, Fraction(13 * n - 12, 42))
        if iota is not None:
            ctx.rec("eulerian_iota_13n42", iota.size, Fraction(13 * n, 42), "<")


def _three_tree_checks(ctx: _Ctx, g: PlaneGraph, trace, c, iota, gamma) -> None:
    if g.n < 4:  # the stacked bounds start at K4; n = 3 is the bare triangle
        return
    # A stacked map's 4-coloring is unique up to renaming (each stacked
    # vertex takes the class its face misses), so every class meets every
    # stacking K4 and dominates.  Without c, the `combinator:` error says why.
    if c is not None:
        non_dominating = sum(not is_dominating(g, c.class_members(i)) for i in range(4))
        ctx.rec("stacked_classes_dominating", non_dominating, 0, "<=", "invariant")
        ctx.rec("stacked_min_class_n4", min(class_sizes(c)), Fraction(g.n, 4))
    if iota is not None:
        ctx.rec("three_tree_iota_n4", iota.size, Fraction(g.n, 4))


def _diamond_checks(ctx: _Ctx, g: PlaneGraph, trace, c, iota, gamma) -> None:
    wit = diamond_chain_witness(g.n // 7)  # a chain of k gadgets has 7k vertices
    ok = is_dominating(g, wit) and is_independent(g, wit)
    ctx.rec("diamond_witness_ids", 0 if ok else 1, 0, "<=", "invariant")
    if iota is not None:
        ctx.rec("diamond_iota_2n7", iota.size, Fraction(2 * g.n, 7), "==")


def _k4_chain_checks(ctx: _Ctx, g: PlaneGraph, trace, c, iota, gamma) -> None:
    if gamma is not None:
        ctx.rec("k4_chain_gamma_n4", gamma.size, Fraction(g.n, 4), "==")


def _min_degree5_checks(ctx: _Ctx, g: PlaneGraph, trace, c, iota, gamma) -> None:
    ctx.rec("min_degree_is_5", min(g.degrees()), 5, "==", "invariant")


def _all_odd_checks(ctx: _Ctx, g: PlaneGraph, trace, c, iota, gamma) -> None:
    even = sum(1 for d in g.degrees() if d % 2 == 0)
    ctx.rec("degrees_all_odd", even, 0, "<=", "invariant")


def _evaluate(ctx: _Ctx, g: PlaneGraph, family: str, trace: BuildTrace | None):
    """Record every check on g in ctx; return g's classification."""
    cls = classify(g)
    _structure_checks(ctx, g, cls)
    c, res = _combinator_checks(ctx, g, cls)
    iota, gamma = _oracle_checks(ctx, g, cls, res)
    check = FAMILIES[family].check
    if check is not None:
        check(ctx, g, trace, c, iota, gamma)
    return cls


# -- graph families -----------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """One graph family: how to build it, how a sweep plans its corpus,
    and which rows it adds to each report.

    `build(seed, **params)` returns `(graph, trace)`.  The graph is None
    when the family has no graph of that size (a sweep skips it, `gen`
    exits 1); the trace is the incremental families' BuildTrace, else
    None.  `plan` is the corpus shape, read from `<family>.<key>` values:

    - "fixed": the one graph, seed 0;
    - "count": `count` graphs whose sizes cycle over the size list;
    - "sizes": one graph per size, seeded by the size when `seeded`,
      else seed 0;
    - "grid": `seeds` seeds for every size;
    - "pairs": explicit `n:seed` pairs in `instances`.
    """

    build: Callable[..., tuple[PlaneGraph | None, BuildTrace | None]]
    size: str | None = None  # size parameter: "n", "k" or "t"
    plan: str = "fixed"
    sizes: tuple[int, ...] = ()  # default size list
    count: int = 0  # default `count`, or seeds per size for "grid"
    seeded: bool = False
    flips: bool = False  # build takes a flip-walk length (`gen --flips`)
    check: Callable[..., None] | None = None  # (ctx, g, trace, c, iota, gamma)

    @property
    def reads_seed(self) -> bool:
        """False for the families that a sweep always builds with seed 0."""
        return self.seeded or self.plan not in ("fixed", "sizes")

    def keys(self) -> dict[str, Callable[[str], object]]:
        """The config keys this family reads, each with its value parser."""
        return {
            "fixed": {},
            "count": {self.size: _parse_ints, "count": _parse_count},
            "sizes": {self.size: _parse_sizes},
            "grid": {self.size: _parse_sizes, "seeds": _parse_count},
            "pairs": {"instances": _parse_pairs},
        }[self.plan]


# Builders call the generators through this module's names at call time,
# so wrappers installed on those names (the benchmark's tracer) see every
# build.


def _random(seed, n, flips=None):
    return random_triangulation(n, seed, flips=flips), None


def _near(seed, n, flips=None):
    base = random_triangulation(n, seed, flips=flips)
    return near_triangulation_from(base, seed % n)[0], None


FAMILIES: dict[str, Family] = {
    "k4": Family(lambda seed: (k4(), None)),
    "octahedron": Family(lambda seed: (octahedron(), None)),
    "icosahedron": Family(lambda seed: (icosahedron(), None)),
    "random": Family(_random, "n", "count", tuple(range(4, 61)), 200, flips=True),
    "near": Family(_near, "n", "count", tuple(range(5, 61)), 100, flips=True),
    "three_tree": Family(
        lambda seed, n: planar_three_tree(n, seed),
        "n", "count", tuple(range(4, 41)), 100, check=_three_tree_checks,
    ),
    "eulerian": Family(
        lambda seed, t: recursive_eulerian(t, seed),
        "t", "grid", tuple(range(1, 9)), 5, check=_eulerian_checks,
    ),
    "diamond": Family(
        lambda seed, k: (diamond_chain(k), None),
        "k", "sizes", (2, 3, 4), check=_diamond_checks,
    ),
    "k4_chain": Family(
        lambda seed, k: (k4_chain(k)[0], None),
        "k", "sizes", (2, 3, 4, 5), check=_k4_chain_checks,
    ),
    # Seeded although the build ignores its seed: each report's `seed` is
    # inside the pinned digests, and a degree-raising builder would read it.
    "min_degree5": Family(
        lambda seed, n: (min_degree5_sample(n), None),
        "n", "sizes", (12, 14, 16), seeded=True, check=_min_degree5_checks,
    ),
    "all_odd": Family(_random, "n", "pairs", check=_all_odd_checks),
    "plane": Family(
        lambda seed, n: (random_connected_plane(n, seed), None),
        "n", "count", tuple(range(5, 35)), 100,
    ),
}


def _plan_family(cfg: SweepConfig, fam_idx: int, family: str):
    """Yield (graph_id, seed, params) triples; params go to the builder."""
    fam = FAMILIES[family]
    prefix = f"{family}."
    if fam.plan == "fixed":
        yield family, 0, {}
        return
    if fam.plan == "pairs":
        for n, s in _parse_pairs(cfg.get(prefix + "instances", "")):
            yield f"{family}-n{n}-s{s}", s, {"n": n}
        return
    sizes = cfg.get_ints(prefix + fam.size, fam.sizes)
    if fam.plan == "count":
        for i in range(cfg.get_int(prefix + "count", fam.count)):
            seed = split_seed(cfg.seed, fam_idx, i)
            yield f"{family}-{i}", seed, {fam.size: sizes[i % len(sizes)]}
    elif fam.plan == "grid":
        for v in sizes:
            for j in range(cfg.get_int(prefix + "seeds", fam.count)):
                seed = split_seed(cfg.seed, fam_idx, v, j)
                yield f"{family}-{fam.size}{v}-{j}", seed, {fam.size: v}
    else:
        for v in sizes:
            seed = split_seed(cfg.seed, fam_idx, v) if fam.seeded else 0
            yield f"{family}-{fam.size}{v}", seed, {fam.size: v}


_UNBUILT = GraphClass(Category.INVALID, 0, False, False, False)  # build raised


def run_sweep(cfg: SweepConfig) -> list[BoundReport]:
    reports: list[BoundReport] = []
    for fam_idx, family in enumerate(cfg.families):
        build = FAMILIES[family].build
        for graph_id, seed, params in _plan_family(cfg, fam_idx, family):
            t0 = time.perf_counter()
            ctx = _Ctx(cfg)
            n, cls = 0, _UNBUILT
            try:
                g, trace = build(seed, **params)
            except Exception as exc:  # construction failures are data
                ctx.errors.append(f"build: {exc}")
            else:
                if g is None:  # no graph of this size; nothing to check
                    continue
                n = g.n
                try:
                    cls = _evaluate(ctx, g, family, trace)
                except Exception as exc:
                    ctx.errors.append(f"evaluate: {exc}")
                    cls = classify(g)
            reports.append(
                BoundReport(
                    graph_id=graph_id,
                    family=family,
                    n=n,
                    seed=seed,
                    category=cls.category.value,
                    min_degree=cls.min_degree,
                    all_degrees_odd=cls.all_degrees_odd,
                    all_degrees_even=cls.all_degrees_even,
                    records=tuple(ctx.records),
                    errors=tuple(ctx.errors),
                    runtime_ms=(time.perf_counter() - t0) * 1e3,
                )
            )
    return reports


# -- odd-degree analysis ------------------------------------------------------


@dataclass(frozen=True)
class OddDegreeRecord:
    alpha: Fraction
    bound: Fraction  # (2 - alpha) * n / 4
    non_dominating_classes: int


def odd_degree_analysis(
    g: PlaneGraph, c: Coloring, *, combinator_result: DominationResult
) -> OddDegreeRecord:
    """Measure the odd-degree observations on a planar triangulation with
    a proper 4-coloring: the odd share alpha, the (2 - alpha) n / 4
    comparison and the number of classes that fail to dominate.

    Nothing here raises on a broken observation.  The sweep records the
    all-odd case as the `all_odd_classes_dominating` row and the size
    comparison as a finding, and `verify_combinator_accounting` checks
    that every class dominates the odd-degree vertices.
    `combinator_result` must be `class_combinator(g, c)`: its U_i are
    read, not derived again.
    """
    if classify(g).category is not Category.PLANAR_TRIANGULATION or c.k != 4:
        raise ValueError("odd-degree analysis needs a triangulation and 4 classes")
    res = combinator_result
    if res.undominated is None:
        raise ValueError("combinator_result lacks the combinator's U_i record")
    alpha = Fraction(sum(d % 2 for d in g.degrees()), g.n)
    return OddDegreeRecord(
        alpha=alpha,
        bound=(2 - alpha) * Fraction(g.n, 4),
        # a class dominates iff its U_i is empty
        non_dominating_classes=sum(1 for u in res.undominated if u),
    )


# -- audit and emission -------------------------------------------------------


def audit_conjectures(reports: list[BoundReport]) -> tuple[str, bool]:
    """The audit text, and whether every `conjecture_iota_n3` row holds."""
    rows = defaultdict(list)  # record name -> [(report, record)]
    for rep in reports:
        for r in rep.records:
            rows[r.name].append((rep, r))
    gamma, iota = rows["conjecture_gamma_n4"], rows["conjecture_iota_n3"]
    notes = [(rep, r) for rep, r in gamma if not r.holds]  # annotated, not alarmed
    alarms = [(rep, r) for rep, r in iota if not r.holds]  # counterexample candidates

    def tight(*names):  # rows that hold with equality
        return sum(r.holds and r.lhs == r.rhs for name in names for _, r in rows[name])

    lines = [
        f"reports audited: {len(reports)}",
        f"conjecture gamma <= n/4: {len(gamma)} checked, {len(notes)} small-n "
        "exceedances (annotation only; the conjecture is asymptotic)",
        *(f"  note {rep.graph_id} (n={rep.n}): gamma={r.lhs} > {r.rhs}" for rep, r in notes),
        f"conjecture iota <= n/3: {len(iota)} checked, "
        f"{len(alarms)} counterexample candidates",
        *(f"  CANDIDATE {rep.graph_id} (n={rep.n}): iota={r.lhs} > {r.rhs}"
          for rep, r in alarms),
        f"gamma = n/4 tight instances: {tight('conjecture_gamma_n4', 'k4_chain_gamma_n4')}",
        f"iota = 2n/7 tight instances: {tight('diamond_iota_2n7')}",
    ]
    return "\n".join(lines) + "\n", not alarms


def render_table(reports: list[BoundReport], include_timings: bool = False) -> str:
    cols = "family\tgraph_id\tn\tseed\tbound\tlhs\top\trhs\tholds\truntime_ms"
    lines = [cols]
    for rep in reports:
        ms = f"{rep.runtime_ms:.1f}" if include_timings and rep.runtime_ms else "-"
        for r in rep.records:
            lines.append(
                f"{rep.family}\t{rep.graph_id}\t{rep.n}\t{rep.seed}\t{r.name}\t"
                f"{r.lhs}\t{r.op}\t{r.rhs}\t"
                f"{'yes' if r.holds else 'NO'}\t{ms}"
            )
        for err in rep.errors:
            first = err.splitlines()[0] if err else ""
            lines.append(
                f"{rep.family}\t{rep.graph_id}\t{rep.n}\t{rep.seed}\terror\t"
                f"{first}\t-\t-\tNO\t{ms}"
            )
    return "\n".join(lines) + "\n"


def emit(
    reports: list[BoundReport],
    stem: str | Path,
    include_timings: bool = False,
) -> list[Path]:
    """Write the tabular <stem>.tsv and structured <stem>.jsonl report files."""
    stem = Path(stem)
    stem.parent.mkdir(parents=True, exist_ok=True)
    tsv, jsonl = Path(f"{stem}.tsv"), Path(f"{stem}.jsonl")  # a stem may hold a dot
    tsv.write_text(render_table(reports, include_timings))
    jsonl.write_text(
        "".join(rep.to_json(include_timings) + "\n" for rep in reports)
    )
    return [tsv, jsonl]


def load_reports(path: str | Path) -> list[BoundReport]:
    lines = Path(path).read_text().splitlines()
    return [BoundReport.from_json(line) for line in lines if line.strip()]
