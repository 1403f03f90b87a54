"""Certified conjugacy separation and merging for every preset with a
layered basis (prime arity, generators that rotate the children).

The bracket [lower, upper] around a class count is maintained from two
sides.  Separations (lower bound) come from class functions: the recursive
depth invariant, conjugacy classes of images in a small level quotient, and
for stubborn pairs an exact conjugacy decision in a deeper level quotient,
lifted layer by layer through its layered basis.  Merges (upper bound) come
from paths in the conjugation graph of a larger ball, whose labels are
conjugator witnesses re-verified by the equality oracle before they count.

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
# conjugator search and the conjugation graph


def conjugator_search(x, y, radius):
    """Find z with x^z = y, |z| <= radius, or certify there is none.

    Meet in the middle: z = u*v with u in B(ceil(R/2)) and v in B(floor(R/2))
    covers B(R) exactly, because a geodesic word for z splits at the middle.
    Returns the witness word (re-verified before returning) or None, which
    certifies only that no conjugator exists within B(radius).  The witness
    is the first u*v in the right half's (length, word) order whose target
    y^(v^-1) meets the left half {x^u: first word u}.  The first target is
    y itself (v = ""), so the left half is scanned in ball order, along the
    half ball's word tree by `core.conjugates`, and the search stops at the
    first u with x^u = y; only a scan that ends streams the right half.
    Both halves live for the call.
    """
    core._check_same_preset(x, y)
    preset = x.preset
    r1 = (radius + 1) // 2
    r2 = radius - r1

    def verified(z_word):
        return core.equals(core.conjugate(x, core.evaluate(preset, z_word)), y)

    words = [word for sphere in enumeration.spheres(preset, r1) for _, word in sphere]
    left = {}
    for e, u in zip(core.conjugates(x, words), words):
        if e not in left:
            if e is y and verified(u):
                return u
            left[e] = u
    # ball words are geodesic, so B(r2) is the words of length <= r2
    short = [word for word in words if len(word) <= r2]
    for target, v in zip(core.conjugates(y, short, inverse=True), short):
        u = left.get(target)
        if u is not None and verified(u + v):
            return u + v
    return None


def _conjugation_step(preset):
    """The conjugation graph's edges on shapes: step(s) -> [(label, t)].

    t = g*s*g**-1 for each generator g in label order, so t^g = s: labels
    read from a path's end back to its start form a positive word, though a
    generator may lack a labelled inverse or have infinite order.  t is
    built as `_sandwich` builds its top level, sections through `_sandwich`.
    """
    sandwich, inv = preset._sandwich, preset._inverse_atom
    composed, compose = preset._composed, preset.compose_perms
    moves = [
        (label, g.perm, g.sections.__getitem__, inv[g].perm, inv[g].sections)
        for label in sorted(preset.gen_labels)
        for g in [preset.atoms[label]]
    ]

    def step(shape):
        perm, sections = shape
        get, out = sections.__getitem__, []
        for label, gp, gs, kp, ks in moves:
            sk = composed.get((perm, kp)) or compose(perm, kp)
            t_perm = composed.get((gp, sk)) or compose(gp, sk)
            # map, not a comprehension: no frame per product
            out.append((label, (t_perm, tuple(map(sandwich, map(gs, sk), map(get, kp), ks)))))
        return out

    return step


def _paths(start, step, walked):
    """Yield (t, z) breadth first, once per shape t in `walked` that `step`
    reaches from the shape `start`; z is the labels from t back, t^z = start."""
    seen, frontier = {start}, [(start, "")]
    while frontier:
        prev, frontier = frontier, []
        for shape, z in prev:
            for label, t in step(shape):
                if t in walked and t not in seen:
                    seen.add(t)
                    frontier.append((t, label + z))
                    yield t, label + z


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
    """Certified conjugacy bracket over the members of a ball B(n).

    Buckets are keyed by (depth invariant, class in G_m, m = bucket_level).
    Merges follow the conjugation graph on B(n + R), R = max(radius,
    escalate_to), walked once as shapes: a conjugator g1...gk with k <= R
    keeps every x^(g1...gi) within B(n + k), so every merge of a radius-R
    search is a path there.  Each member no search has reached, in
    (length, word) order, is the shortest member of a new class; a
    breadth-first search from it gives each member it reaches the path's
    labels as a witness, counted once re-verified, and stops when its
    bucket has no member left in no class.  Conjugation keeps the bucket
    key, so reaching another bucket is a fault.  Classes still sharing a
    bucket are separated by the layer lift, an exact conjugacy decision in
    the level-SEPARATION_LEVEL quotient, in (length, word) order of their
    shortest member, so the bracket restricts to every sub-ball; the lower
    bound counts the largest exhibited pairwise-separated set.
    """
    preset = ball_.preset
    entries = ball_.entries  # in (length, word) order
    level = bucket_level(preset)
    buckets, key_of = {}, {}
    for e in entries:
        key = key_of[e] = (depth_invariant(e, depth), quotient_class_id(e, level))
        buckets.setdefault(key, []).append(e)
    reach = ball_.radius + max(radius, escalate_to or 0)
    walked = {shape for sphere in enumeration.spheres(preset, reach) for shape, _ in sphere}
    members = {(e.perm, e.sections): e for e in entries}
    step = _conjugation_step(preset)
    witnesses, classes, separated, unresolved = {}, [], [], []
    for key, group in buckets.items():
        open_, reps = set(group), []  # members in no class yet; shortest members
        for x in group:
            if x not in open_:
                continue
            open_.remove(x)
            reps.append(x)
            for t, z in _paths((x.perm, x.sections), step, walked) if open_ else ():
                y = members.get(t)
                if y is not None and key_of[y] != key:
                    raise AssertionError(
                        f"conjugates {entries[y][1]!r}, {entries[x][1]!r} in different buckets"
                    )
                if y in open_ and core.conjugate(y, core.evaluate(preset, z)) is x:
                    open_.remove(y)
                    witnesses[(entries[y][1], entries[x][1])] = z
                    if not open_:
                        break
        # the lift decides conjugacy in G_m and counted classes are pairwise
        # separated, so a class that fails is unseparated from exactly one;
        # separation failures stay in the bracket gap
        counted = []
        for r in reps:
            c = next((c for c in counted if not quotient_separated(r, c, SEPARATION_LEVEL)), None)
            if c is None:
                counted.append(r)
            else:
                unresolved.append((entries[r][1], entries[c][1]))
        classes += reps
        separated += counted
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
