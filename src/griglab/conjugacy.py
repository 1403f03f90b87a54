"""Certified conjugacy separation and merging for every preset with a
layered basis (prime arity, generators that rotate the children).

The bracket [lower, upper] around a class count is maintained from two
sides.  Separations (lower bound) come from class functions: the recursive
depth invariant, conjugacy classes of images in a small level quotient, and
for stubborn pairs an exact conjugacy decision in a deeper level quotient,
lifted layer by layer through its layered basis.  Merges (upper bound) come
from explicit conjugator witnesses, re-verified by the equality oracle
before they count.

The layered bases of the level quotients live here, beside the lift that
uses them; `constructions` reads quotient orders off them too.

The recursive depth invariant alone is an invariant of the full tree
automorphism group, and it provably cannot tell some non-conjugate pairs
apart (ab and ababab share it at every depth yet their images in the
level-4 quotient are already non-conjugate), hence the quotient
refinements.
"""

from __future__ import annotations

from functools import reduce
from operator import itemgetter

from . import core, enumeration

BUCKET_ORDER_CAP = 10_000  # largest level quotient class_partition enumerates
SEPARATION_LEVEL = 5


def depth_invariant(x, m):
    """Recursive conjugation certificate of depth m, for any arity, as an int.

    The sorted pairs (length, depth-(m-1) invariant of the product of the
    sections met walking the cycle through the inverse permutation) over
    the cycles of the root permutation; that product is a cyclic rotation,
    so a conjugate, of the cycle's first-return section.  Depth 0 is 0, and
    above it the pairs are interned in the registry entry
    `depth_invariant_ids`, ids counting from 1 in first-seen order, so equal
    invariants are equal ints and hash in O(1) however deep they are.  Equal
    values are necessary for conjugacy in the full automorphism group, and
    the certificate refines as m grows.
    """
    if m < 0:
        raise ValueError("depth must be >= 0")
    if m == 0:
        return 0
    memo = x.preset.cache("depth_invariant")
    got = memo.get((x, m))
    if got is not None:
        return got
    back, seen, pairs = core.inverse(x.perm), set(), []
    for v in range(len(back)):
        if v in seen:
            continue
        cycle = [v]
        while back[cycle[-1]] != v:
            cycle.append(back[cycle[-1]])
        seen.update(cycle)
        first_return = reduce(x.preset._mul, map(x.sections.__getitem__, cycle))
        pairs.append((len(cycle), depth_invariant(first_return, m - 1)))
    ids = x.preset.cache("depth_invariant_ids")
    out = memo[(x, m)] = ids.setdefault(tuple(sorted(pairs)), len(ids) + 1)
    return out


# ----------------------------------------------------------------------
# layered bases of the level quotients
#
# When the arity is a prime p and every generator permutes the children
# by a rotation c -> c + k mod p, the level quotient G_m = G/St(m) is a
# finite p-group.  The level stabilisers cut it into layers St(j-1)/St(j),
# j = 1..m, that are elementary abelian: an element fixing level j-1 is
# known in layer j by its layer vector, the rotations it applies at the
# p^(j-1) vertices of level j-1, a vector over F_p.  A layered basis is an
# induced polycyclic generating sequence along that series (Holt, Eick and
# O'Brien, Handbook of Computational Group Theory, ch. 8): per layer, a
# list of rows (pivot, element, inverse powers) whose vectors are echelon,
# each row 1 at its pivot and 0 at the pivots of the rows before it.
# Elements are closure states, so G_m is never enumerated.


class LayeredBasis:
    """Induced pcgs of a normal subgroup of G_m along the level stabilisers.

    Built by sifting and closing under p-th powers and commutators of rows.
    Without seeds the subgroup is G_m itself, generated by the generators'
    level-m actions.  Given seed states, it is their normal closure in G_m:
    the conjugates of every new row by the generators are sifted too.  An
    element is in the subgroup exactly when it sifts to the identity, and
    the order is p ** (sum of the layer ranks).
    """

    def __init__(self, preset, m, seeds=None):
        p = preset.arity
        if any(p % k == 0 for k in range(2, p)) or any(
            a.perm != tuple((c + a.perm[0]) % p for c in range(p))
            for a in preset.generators
        ):
            raise core.PresetError(
                f"preset {preset.name!r}: a layered basis needs a prime arity "
                "and generators that rotate the children"
            )
        self.p, self.m = p, m
        points = p**m
        self.identity = core.state(range(points))
        self._pad = bytes(range(points, 256)) if points <= core.BYTES_POINTS else None
        self.rows = [[] for _ in range(m)]
        gens = [core.state(g) for g in core.generator_actions(preset, m)]
        # G_m is its own normal closure, so only seeded bases sift conjugates
        queue, conjugators = (gens, ()) if seeds is None else (list(seeds), gens)
        while queue:
            j, r = self.sift(queue.pop())
            if j is None:
                continue
            pivot = next(v for v, c in enumerate(self.vector(r, j)) if c)
            r = self.power(r, pow(self.label(r, j, pivot), -1, p))
            queue.append(self.power(r, p))
            queue += [self.commutator(r, row) for rows in self.rows for _, row, _ in rows]
            queue += [self.conj(r, g) for g in conjugators]
            r_inv = self.inv(r)
            inverses = [self.identity]
            for _ in range(1, p):
                inverses.append(self.mul(inverses[-1], r_inv))
            self.rows[j - 1].append((pivot, r, inverses))

    def mul(self, g, h):
        """The state of the product g*h."""
        if self._pad is None:
            return itemgetter(*h)(g)
        return h.translate(g + self._pad)

    def inv(self, g):
        return core.state(core.inverse(g))

    def power(self, g, k):
        out = self.identity
        for _ in range(k):
            out = self.mul(out, g)
        return out

    def conj(self, x, g):
        """x^g = g**-1 * x * g."""
        return self.mul(self.mul(self.inv(g), x), g)

    def commutator(self, g, h):
        return self.mul(self.mul(self.inv(g), self.inv(h)), self.mul(g, h))

    def label(self, g, j, v):
        """The rotation that g, fixing level j-1, applies at vertex v of level j-1."""
        below = self.p ** (self.m - j)
        return g[v * below * self.p] // below % self.p

    def vector(self, g, j):
        """Layer-j vector of g, an element fixing level j-1, as bytes."""
        below = self.p ** (self.m - j)
        return bytes(i // below % self.p for i in g[:: below * self.p])

    def vertex_action(self, g, level):
        """The permutation g induces on the vertices of a level, as a tuple."""
        below = self.p ** (self.m - level)
        return tuple(i // below for i in g[::below])

    def sift(self, g):
        """(j, residue): g reduced layer by layer, stopped at the first layer j
        whose vector no row cancels; j is None when g lies in G_m."""
        for j, rows in enumerate(self.rows, 1):
            for pivot, _, inverses in rows:
                c = self.label(g, j, pivot)
                if c:
                    g = self.mul(g, inverses[c])
            if any(self.vector(g, j)):
                return j, g
        return None, g

    def __contains__(self, g):
        return self.sift(g)[0] is None

    def order(self):
        return self.p ** sum(map(len, self.rows))


def layered_basis(preset, m):
    """The LayeredBasis of G_m, built on first use and kept in the registry."""
    cache = preset.cache("layered_basis")
    if m not in cache:
        cache[m] = LayeredBasis(preset, m)
    return cache[m]


# ----------------------------------------------------------------------
# level quotient machinery


def bucket_level(preset):
    """The deepest level m whose quotient G_m has order at most BUCKET_ORDER_CAP.

    Orders are read off the layered bases, so no quotient is enumerated,
    and a preset with no layered basis raises core.PresetError.  Once
    G_m = G_(m+1), every later quotient is G_m too, so the search stops.
    G_(m+1) is no smaller than the orbit of a leaf of level m+1, so a
    level whose leaf orbit is over the cap stops the search before its
    basis is built.
    """
    m, basis = 0, layered_basis
    while (
        _leaf_orbit_size(preset, m + 1) <= BUCKET_ORDER_CAP
        and BUCKET_ORDER_CAP >= basis(preset, m + 1).order() > basis(preset, m).order()
    ):
        m += 1
    return m


def _leaf_orbit_size(preset, m):
    """The size of the orbit of leaf 0 of level m under the generators."""
    moves = [g.__getitem__ for g in core.generator_actions(preset, m)]
    return len(core.closure([0], moves)[0])


def quotient_class_table(preset, m):
    """The conjugacy classes of G_m met so far, cached on the preset.

    Maps every state whose class `quotient_class` has enumerated to the
    class's least state, so only the classes that a caller meets are
    ever enumerated, never G_m itself.
    """
    cache = preset.cache("quotient_class_table")
    if m not in cache:
        cache[m] = {}
    return cache[m]


def quotient_class(preset, m, s):
    """The least state of the conjugacy class of the state s in G_m.

    On first sight of a class, its conjugation orbit under the generators
    is enumerated and every member recorded in `quotient_class_table`.
    """
    table = quotient_class_table(preset, m)
    got = table.get(s)
    if got is None:
        moves = [core.conjugation(g) for g in core.generator_actions(preset, m)]
        orbit, _ = core.closure([s], moves)
        got = min(orbit)
        table.update(dict.fromkeys(orbit, got))
    return got


def quotient_class_id(x, m):
    """The class of x's image in G_m, as `quotient_class` names it."""
    return quotient_class(x.preset, m, core.state(core.level_action(x, m)))


def quotient_separated(x, y, m):
    """True when the level-m images of x and y are not conjugate in G_m.

    Non-conjugacy in the quotient certifies non-conjugacy in the group.
    """
    core._check_same_preset(x, y)
    return _layer_lift(x, y, m) is None


def _layer_lift(x, y, m):
    """Decide whether the level-m images of x and y are conjugate in G_m.

    Returns (g, centraliser): a state g of G_m with x^g = y on level m and
    an induced pcgs of the centraliser of y in G_m, or None when they are
    not conjugate.  The decision lifts through the layers of the level
    stabiliser series (Mecky and Neubüser, "Some remarks on the computation
    of conjugacy classes of soluble groups", 1989).  Before layer j, g has
    x^g = y modulo N = St(j-1), and C, the elements that centralise y
    modulo N, is kept as an induced pcgs `top` of C/N.  Modulo St(j), N
    acts on the coset yN by the translations U spanned by the layer-j
    vectors of [y, b] for the rows b of layer j, which is linear algebra
    over F_p; C/N acts on the cosets of U, which is a p-group orbit with
    its stabiliser.  x^g is moved onto y within yN/St(j) or shown to be
    outside the orbit of y, and C shrinks to the stabiliser of y.
    """
    basis = layered_basis(x.preset, m)
    mul, inv, p = basis.mul, basis.inv, basis.p
    xs, ys = (core.state(core.level_action(e, m)) for e in (x, y))
    y_inv = inv(ys)
    g = basis.identity
    top = []

    def combination(rows, coeffs):
        out = basis.identity
        for (_, _, e), c in zip(rows, coeffs):
            out = mul(out, basis.power(e, c))
        return out

    for j in range(1, m + 1):

        def translation(c):
            # layer-j vector of y**-1 * y^c, for c centralising y modulo N
            return basis.vector(mul(y_inv, basis.conj(ys, c)), j)

        # N acts by translations: echelon rows (pivot, vector, element) of U,
        # vector = translation(element), and the kernel, the elements of N
        # that centralise y modulo St(j), layer j being abelian
        span, kernel = [], []
        for _, b, _ in basis.rows[j - 1]:
            u, coeffs = _reduce(translation(b), span, p)
            e = mul(b, inv(combination(span, coeffs)))
            if any(u):
                lead = next(v for v, c in enumerate(u) if c)
                k = pow(u[lead], -1, p)
                span.append((lead, bytes(k * c % p for c in u), basis.power(e, k)))
            else:
                kernel.append(e)

        # C/N acts on the cosets of U by w -> translation(c) + w o c: orbit
        # of y's coset with transversal elements, and its stabiliser, taking
        # `top` bottom up so that each step grows the orbit p-fold or adds
        # one stabiliser row
        def act(w, move):
            shift, perm = move
            return _reduce(bytes((s + w[v]) % p for s, v in zip(shift, perm)), span, p)[0]

        zero = bytes(p ** (j - 1))
        orbit = {zero: basis.identity}
        stabiliser = []
        for c in reversed(top):
            move = (translation(c), basis.vertex_action(c, j - 1))
            t = orbit.get(act(zero, move))
            if t is not None:
                s = mul(c, inv(t))
                _, coeffs = _reduce(translation(s), span, p)
                stabiliser.append(mul(s, inv(combination(span, coeffs))))
            else:
                block = list(orbit.items())
                for _ in range(p - 1):
                    block = [(act(w, move), mul(t, c)) for w, t in block]
                    orbit.update(block)
        stabiliser.reverse()

        d = basis.vector(mul(y_inv, basis.conj(xs, g)), j)
        t = orbit.get(_reduce(d, span, p)[0])
        if t is None:
            return None
        # y^t = x^g * n modulo St(j), n in N with layer vector in U
        u = bytes((a - b) % p for a, b in zip(translation(t), d))
        g = mul(mul(g, combination(span, _reduce(u, span, p)[1])), inv(t))
        top = stabiliser + kernel
    if basis.conj(xs, g) != ys:
        raise AssertionError(f"layer lift produced a wrong conjugator at level {m}")
    return g, top


def _reduce(w, rows, p):
    """w minus its components along the echelon rows, and those components."""
    coeffs = []
    for pivot, vec, _ in rows:
        c = w[pivot]
        if c:
            w = bytes((a - c * b) % p for a, b in zip(w, vec))
        coeffs.append(c)
    return w, coeffs


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


def conjugator_search(x, y, radius, tables=None):
    """Find z with x^z = y, |z| <= radius, or certify there is none.

    Meet in the middle: z = u*v with u in B(ceil(R/2)) and v in B(floor(R/2))
    covers B(R) exactly, because a geodesic word for z splits at the middle.
    Returns the witness word (re-verified before returning) or None, which
    certifies only that no conjugator exists within B(radius).  The witness
    is the first u*v in the right half's (length, word) order whose target
    y^(v^-1) meets the left half {x^u: first word u}.  The first target is
    y itself (v = ""), so the left half is scanned in ball order, along the
    half ball's word tree by `core.conjugates`, and the search stops at the
    first u with x^u = y (whole left tables built first measured slower).
    Only a scan that reaches the end has the whole left table; only then is
    it kept in `tables`, and only then is the right table
    [(y^(v^-1), word v)] built and kept there, for every later search
    sharing `tables` with that element on that side and that half-radius,
    whose join then meets y at its first target.
    `tables` is fresh per call unless the caller passes one.  The words of
    the half ball B(ceil(R/2)) are kept per half-radius in the preset's
    `conjugator_words` cache, read off `enumeration.spheres` without
    interning the ball's elements.
    """
    core._check_same_preset(x, y)
    preset = x.preset
    r1 = (radius + 1) // 2
    r2 = radius - r1
    tables = {} if tables is None else tables

    def verified(z_word):
        return core.equals(core.conjugate(x, core.evaluate(preset, z_word)), y)

    ball_words = preset.cache("conjugator_words")
    words = ball_words.get(r1)
    if words is None:
        words = ball_words[r1] = [
            word for sphere in enumeration.spheres(preset, r1) for _, word in sphere
        ]
    left = tables.get(("left", x, r1))
    if left is None:
        left = {}
        for e, u in zip(core.conjugates(x, words), words):
            if e not in left:
                if e is y and verified(u):
                    return u
                left[e] = u
        tables[("left", x, r1)] = left
    right = tables.get(("right", y, r2))
    if right is None:
        # ball words are geodesic, so B(r2) is the words of length <= r2
        short = [word for word in words if len(word) <= r2]
        right = tables[("right", y, r2)] = list(
            zip(core.conjugates(y, short, inverse=True), short)
        )
    for target, v in right:
        u = left.get(target)
        if u is not None and verified(u + v):
            return u + v
    return None


# ----------------------------------------------------------------------
# partitions and growth rows


class ConjGrowthRow:
    """One bracket row; `vars(row)` is its JSON object."""

    def __init__(self, n, lower, upper, exact):
        self.n = n
        self.lower = lower
        self.upper = upper
        self.exact = exact


class ClassPartition:
    def __init__(self, ball, witnesses, classes, separated, unresolved):
        self.ball = ball
        self.witnesses = witnesses  # (word_x, word_y) -> conjugator word
        self.classes = classes  # shortest member of every class
        self.separated = separated  # shortest members of the pairwise-separated classes
        self.unresolved = unresolved  # pairs of words neither merged nor separated

    @property
    def lower(self):
        return len(self.separated)

    @property
    def upper(self):
        return len(self.classes)

    @property
    def exact(self):
        return self.lower == self.upper

    def rows(self):
        """The bracket over the classes that meet B(n), for n = 0 .. ball radius."""
        rows = []
        for n in range(self.ball.radius + 1):
            lower = sum(self.ball.entries[e][0] <= n for e in self.separated)
            upper = sum(self.ball.entries[e][0] <= n for e in self.classes)
            rows.append(ConjGrowthRow(n, lower, upper, lower == upper))
        return rows

    def witness_json(self):
        import json  # only a --witness-out run needs it

        rows = {f"{x}|{y}": z for (x, y), z in sorted(self.witnesses.items())}
        return json.dumps(rows, sort_keys=True, indent=2) + "\n"


def class_partition(ball_, depth, radius, escalate_to=None):
    """Certified conjugacy bracket over the members of a ball.

    Buckets are keyed by (depth invariant, class in G_m, m = bucket_level);
    merges run conjugator searches within buckets, shortest members first.
    Classes still sharing a bucket are separated by the layer lift, an exact
    conjugacy decision in the level-SEPARATION_LEVEL quotient, in (length,
    word) order of their shortest member, so the bracket restricts to every
    sub-ball; the lower bound counts the largest exhibited pairwise-separated
    set.  A bucket left with unresolved pairs gets one more root-pair pass at
    escalate_to on the same union-find, so escalation only adds merges.
    The searches of a bucket share one dict of half tables, dropped with
    the bucket.
    """
    entries = ball_.entries  # in (length, word) order
    level = bucket_level(ball_.preset)
    buckets = {}
    for e in entries:
        key = (depth_invariant(e, depth), quotient_class_id(e, level))
        buckets.setdefault(key, []).append(e)
    uf = UnionFind(entries)
    witnesses = {}

    def merge(x, y, r, tables):
        z = conjugator_search(x, y, r, tables)
        if z is not None and uf.union(x, y):
            witnesses[(entries[x][1], entries[y][1])] = z

    def merge_roots(group, r, tables):
        roots = sorted({uf.find(e) for e in group}, key=entries.__getitem__)
        for i, x in enumerate(roots):
            for y in roots[i + 1 :]:
                if uf.find(x) is not uf.find(y):
                    merge(y, x, r, tables)

    def separate(group):
        # count classes pairwise separated from everything already counted
        # in this bucket; separation failures stay in the bracket gap
        shortest = {}
        for e in group:
            shortest.setdefault(uf.find(e), e)
        counted, open_pairs = [], []
        # the lift decides conjugacy in G_m and counted classes are pairwise
        # separated, so a failing class is unseparated from exactly one
        for r in shortest.values():
            c = next((c for c in counted if not quotient_separated(r, c, SEPARATION_LEVEL)), None)
            if c is None:
                counted.append(r)
            else:
                open_pairs.append((entries[r][1], entries[c][1]))
        return list(shortest.values()), counted, open_pairs

    classes, separated, unresolved = [], [], []
    for group in buckets.values():
        tables = {}
        for other in group[1:]:
            merge(other, group[0], radius, tables)
        merge_roots(group, radius, tables)
        reps, counted, open_pairs = separate(group)
        if open_pairs and escalate_to and escalate_to > radius:
            merge_roots(group, escalate_to, tables)
            reps, counted, open_pairs = separate(group)
        classes += reps
        separated += counted
        unresolved += open_pairs
    return ClassPartition(
        ball_, witnesses, tuple(classes), tuple(separated), tuple(unresolved)
    )


def subball(ball_, n):
    """The radius-n ball carved out of a larger one."""
    if n > ball_.radius:
        raise ValueError(f"radius {n} exceeds the computed radius {ball_.radius}")
    entries = {e: lw for e, lw in ball_.entries.items() if lw[0] <= n}
    return enumeration.Ball(ball_.preset, n, entries)


def conj_growth_table(preset, n_max, depth, radius=6, ball_=None, escalate_to=None):
    """Bracket rows for conjugacy growth up to radius n_max.

    Every row is read off one class_partition of B(n_max).
    """
    if ball_ is None or ball_.radius < n_max:
        ball_ = enumeration.ball(preset, n_max)
    return class_partition(subball(ball_, n_max), depth, radius, escalate_to).rows()


def conj_rows_to_csv(rows):
    lines = ["n,lower,upper,exact"]
    for r in rows:
        lines.append(f"{r.n},{r.lower},{r.upper},{'true' if r.exact else 'false'}")
    return "\n".join(lines) + "\n"
