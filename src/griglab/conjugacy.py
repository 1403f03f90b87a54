"""Certified conjugacy separation and merging on binary rooted trees.

The bracket [lower, upper] around a class count is maintained from two
sides.  Separations (lower bound) come from class functions: the recursive
depth invariant, conjugacy classes of images in a small level quotient, and
for stubborn pairs a targeted conjugation-orbit closure in a deeper level
quotient.  Merges (upper bound) come from explicit conjugator witnesses,
re-verified by the equality oracle before they count.

The recursive depth invariant alone is an invariant of the full tree
automorphism group, and it provably cannot tell some non-conjugate pairs
apart (ab and ababab share it at every depth yet their images in the
level-4 quotient are already non-conjugate), hence the quotient
refinements.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

from . import constructions, core, enumeration

_UNIT = ("u",)

DEFAULT_BUCKET_QUOTIENT_LEVEL = 4
DEFAULT_SEPARATION_LEVEL = 5
DEFAULT_SEPARATION_BUDGET = 2_000_000


def depth_invariant(x, m, _memo=None):
    """Recursive conjugation certificate of depth m.

    Root-inactive: the unordered pair of section invariants.  Root-active:
    an "active" tag plus the invariant of the product of the sections.
    Depth 0 is the unit.  Nested tuples, canonically sortable; equal values
    are necessary for conjugacy, and the certificate refines as m grows.
    """
    if m < 0:
        raise ValueError("depth must be >= 0")
    if x.preset.arity != 2:
        raise ValueError("depth invariants are implemented for arity 2 only")
    if _memo is None:
        _memo = x.preset.cache("depth_invariant")
    if m == 0:
        return _UNIT
    got = _memo.get((x, m))
    if got is not None:
        return got
    s0, s1 = x.sections
    if x.perm == (0, 1):
        i0 = depth_invariant(s0, m - 1, _memo)
        i1 = depth_invariant(s1, m - 1, _memo)
        out = ("p",) + tuple(sorted((i0, i1)))
    else:
        out = ("a", depth_invariant(core.multiply(s0, s1), m - 1, _memo))
    _memo[(x, m)] = out
    return out


# ----------------------------------------------------------------------
# level quotient machinery


def quotient_class_table(preset, m):
    """Conjugacy class index of every element of the level-m quotient.

    Classes are conjugation orbits under the generators, numbered in the
    sorted order of the quotient.  Cached on the preset.
    """
    cache = preset.cache("quotient_class_table")
    if m in cache:
        return cache[m]
    moves = _conjugations(preset, m)
    class_of = {}
    n_classes = 0
    for p in sorted(constructions.level_quotient(preset, m)):
        if p not in class_of:
            orbit, _ = core.closure([p], moves)
            class_of.update(dict.fromkeys(orbit, n_classes))
            n_classes += 1
    cache[m] = class_of
    return class_of


def _conjugations(preset, m):
    return [core.conjugation(g) for g in core.generator_actions(preset, m)]


def quotient_class_id(x, m):
    return quotient_class_table(x.preset, m)[core.level_action(x, m)]


def _conjugation_orbit(x, m, budget):
    """Full conjugation orbit of the level-m image of x, cached per preset.

    The orbits enumerated so far are kept per level; an image that lies in
    one of them gets that orbit back instead of a second enumeration.
    """
    orbits = x.preset.cache("conjugation_orbit").setdefault(m, [])
    image = core.level_action(x, m)
    orbit = next((o for o in orbits if image in o), None)
    if orbit is None:
        try:
            orbit, _ = core.closure([image], _conjugations(x.preset, m), budget)
        except core.BudgetError:
            raise OrbitBudgetError(
                f"conjugation orbit at level {m} exceeded {budget} states"
            ) from None
        orbits.append(orbit)
    return orbit


class OrbitBudgetError(RuntimeError):
    pass


def quotient_separated(x, y, m, budget=DEFAULT_SEPARATION_BUDGET):
    """True when the level-m images are certifiably non-conjugate.

    Computes the conjugation orbit of x's image; y's image outside a closed
    orbit certifies separation in the quotient, hence in the group.
    """
    ay = core.level_action(y, m)
    orbit = _conjugation_orbit(x, m, budget)
    return ay not in orbit


# ----------------------------------------------------------------------
# union-find and search


class UnionFind:
    def __init__(self, items):
        self.parent = {x: x for x in items}
        self.rank = {x: 0 for x in items}

    def find(self, x):
        root = self.parent[x]
        if self.parent[root] is not root:
            root = self.parent[x] = self.find(root)
        return root

    def union(self, x, y):
        x, y = self.find(x), self.find(y)
        if x is y:
            return False
        if self.rank[x] < self.rank[y]:
            x, y = y, x
        elif self.rank[x] == self.rank[y]:
            self.rank[x] += 1
        self.parent[y] = x
        return True

    def class_count(self):
        return sum(1 for x, p in self.parent.items() if x is p)


def conjugator_search(x, y, radius, search_ball=None):
    """Find z with x^z = y, |z| <= radius, or certify there is none.

    Meet in the middle: z = u*v with u in B(ceil(R/2)) and v in B(floor(R/2))
    covers B(R) exactly, because a geodesic word for z splits at the middle.
    Returns the witness word (re-verified before returning) or None, which
    certifies only that no conjugator exists within B(radius).
    """
    core._check_same_preset(x, y)
    preset = x.preset
    r1 = (radius + 1) // 2
    r2 = radius - r1
    if search_ball is None or search_ball.radius < r1:
        search_ball = enumeration.ball(preset, r1)
    items = search_ball.sorted_items()
    left = {}
    for u, (ln, word) in items:
        if ln > r1:
            break
        left.setdefault(core.conjugate(x, u), word)
    for v, (ln, word) in items:
        if ln > r2:
            break
        target = core.conjugate(y, core.invert(v))
        got = left.get(target)
        if got is not None:
            z_word = got + word
            z = core.evaluate(preset, z_word)
            if core.equals(core.conjugate(x, z), y):
                return z_word
    return None


# ----------------------------------------------------------------------
# partitions and growth rows


@dataclass
class ClassPartition:
    ball: object
    depth: int
    radius: int
    buckets: dict = field(repr=False)  # bucket key -> [elements]
    uf: UnionFind = field(repr=False)
    witnesses: dict = field(repr=False)  # (word_x, word_y) -> conjugator word
    lower: int = 0
    upper: int = 0
    unresolved: tuple = ()  # pairs of words neither merged nor separated

    @property
    def exact(self):
        return self.lower == self.upper

    def witness_json(self):
        rows = {f"{x}|{y}": z for (x, y), z in sorted(self.witnesses.items())}
        return json.dumps(rows, sort_keys=True, indent=2) + "\n"


def class_partition(
    ball_,
    depth,
    radius,
    search_ball=None,
    bucket_level=DEFAULT_BUCKET_QUOTIENT_LEVEL,
    separation_level=DEFAULT_SEPARATION_LEVEL,
    separation_budget=DEFAULT_SEPARATION_BUDGET,
):
    """Certified conjugacy bracket over the members of a ball.

    Buckets are keyed by (depth invariant, level quotient class); merges run
    conjugator searches within buckets, shortest members first.  Root pairs
    still sharing a bucket afterwards get the targeted orbit separation; the
    lower bound counts the largest exhibited pairwise-separated set, so it
    never exceeds the true class count.
    """
    members = [e for e, _ in ball_.sorted_items()]
    buckets = {}
    for e in members:
        key = (depth_invariant(e, depth), quotient_class_id(e, bucket_level))
        buckets.setdefault(key, []).append(e)
    uf = UnionFind(members)
    witnesses = {}
    if search_ball is None:
        search_ball = enumeration.ball(ball_.preset, (radius + 1) // 2)
    for key in sorted(buckets, key=repr):
        group = buckets[key]
        if len(group) < 2:
            continue
        head = group[0]
        for other in group[1:]:
            z = conjugator_search(other, head, radius, search_ball)
            if z is not None and uf.union(other, head):
                witnesses[(ball_.entries[other][1], ball_.entries[head][1])] = z
        roots = sorted({uf.find(e) for e in group}, key=lambda e: ball_.entries[e])
        for i in range(len(roots)):
            for j in range(i + 1, len(roots)):
                if uf.find(roots[i]) is uf.find(roots[j]):
                    continue
                z = conjugator_search(roots[j], roots[i], radius, search_ball)
                if z is not None and uf.union(roots[j], roots[i]):
                    witnesses[
                        (ball_.entries[roots[j]][1], ball_.entries[roots[i]][1])
                    ] = z

    lower = 0
    unresolved = []
    for key in sorted(buckets, key=repr):
        group = buckets[key]
        roots = sorted({uf.find(e) for e in group}, key=lambda e: ball_.entries[e])
        if len(roots) == 1:
            lower += 1
            continue
        # count roots pairwise separated from everything already counted in
        # this bucket; separation failures stay in the bracket gap
        counted = []
        for r in roots:
            try:
                ok = all(
                    quotient_separated(r, c, separation_level, separation_budget)
                    for c in counted
                )
            except OrbitBudgetError:
                ok = False
            if ok:
                counted.append(r)
            else:
                for c in counted:
                    unresolved.append(
                        (ball_.entries[r][1], ball_.entries[c][1])
                    )
        lower += len(counted)
    return ClassPartition(
        ball=ball_,
        depth=depth,
        radius=radius,
        buckets=buckets,
        uf=uf,
        witnesses=witnesses,
        lower=lower,
        upper=uf.class_count(),
        unresolved=tuple(unresolved),
    )


@dataclass
class ConjGrowthRow:
    n: int
    lower: int
    upper: int
    exact: bool


def default_invariant_depth(n):
    return math.ceil(math.log2(max(n, 2))) + 3


def subball(ball_, n):
    """The radius-n ball carved out of a larger one."""
    if n > ball_.radius:
        raise ValueError(f"radius {n} exceeds the computed radius {ball_.radius}")
    entries = {e: lw for e, lw in ball_.entries.items() if lw[0] <= n}
    return enumeration.Ball(ball_.preset, n, entries)


def conj_growth_table(
    preset, n_max, depth=None, radius=6, ball_=None, escalate_to=None, **kwargs
):
    """Bracket rows for conjugacy growth up to radius n_max.

    Rows that fail to collapse at the given conjugator radius are retried at
    escalate_to (when set) before being reported non-exact.
    """
    if depth is None:
        depth = default_invariant_depth(n_max)
    if ball_ is None or ball_.radius < n_max:
        ball_ = enumeration.ball(preset, n_max)
    search_ball = enumeration.ball(preset, ((escalate_to or radius) + 1) // 2)
    rows = []
    for n in range(n_max + 1):
        sub = subball(ball_, n)
        part = class_partition(sub, depth, radius, search_ball, **kwargs)
        if not part.exact and escalate_to and escalate_to > radius:
            part = class_partition(sub, depth, escalate_to, search_ball, **kwargs)
        rows.append(ConjGrowthRow(n, part.lower, part.upper, part.exact))
    return rows


def conj_rows_to_csv(rows):
    lines = ["n,lower,upper,exact"]
    for r in rows:
        lines.append(f"{r.n},{r.lower},{r.upper},{'true' if r.exact else 'false'}")
    return "\n".join(lines) + "\n"


# ----------------------------------------------------------------------
# witnesses for infinitely many classes


def first_active_level(x, max_level=32):
    """Smallest m with a nontrivial action on level m, or None if trivial."""
    if core.is_identity(x):
        return None
    frontier = [x]
    for m in range(1, max_level + 1):
        if any(e.perm != tuple(range(e.preset.arity)) for e in frontier):
            return m
        frontier = [s for e in frontier for s in e.sections]
        frontier = [e for e in frontier if not core.is_identity(e)]
        if not frontier:
            return None
    raise RuntimeError(f"no activity found down to level {max_level}")


def infinite_classes_witness(preset, k, depth=6, max_radius=8):
    """k elements that are pairwise non-conjugate, certified by invariants.

    Mirrors the stabilizer filtration: elements whose first active levels
    strictly increase are pairwise separated, and the list is topped up with
    fresh invariant buckets when the filtration chain inside the budget ball
    is shorter than k.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    if k == 1:
        return [preset.identity]
    ball_ = enumeration.ball(preset, max_radius)
    chosen = []
    seen_invs = set()
    best_level = 0
    for e, _ in ball_.sorted_items():
        lvl = first_active_level(e)
        if lvl is not None and lvl > best_level:
            chosen.append(e)
            seen_invs.add(depth_invariant(e, depth))
            best_level = lvl
            if len(chosen) == k:
                return chosen
    for e, _ in ball_.sorted_items():
        inv = depth_invariant(e, depth)
        if inv not in seen_invs:
            chosen.append(e)
            seen_invs.add(inv)
            if len(chosen) == k:
                return chosen
    raise RuntimeError(
        f"found only {len(chosen)} separated elements within radius {max_radius}"
    )
