"""Constructive machinery: finite quotients, branching data, section encoding
and products-of-conjugates builders.

Everything here is verification-first.  Quotient models are accepted only
after their index stabilizes across two consecutive levels, lift-table
entries are checked on both sections, and every builder re-evaluates its
output against the exact element arithmetic before returning it.
"""

from __future__ import annotations

from . import conjugacy, core, enumeration, expressions, words

# highest level searched for a stable normal-closure index
MAX_LEVEL = 5
# the branching subgroup K is the normal closure of this word
K_WORD = "abab"
# ball radius of the lift table
LIFT_RADIUS = 16
# largest radius over which section pairs are searched
MAX_SCAN_RADIUS = 20


class UnstabilizedError(RuntimeError):
    """Quotient index kept changing within the level budget."""


class LiftUnavailableError(RuntimeError):
    """No verified lift with the requested sections inside the budget."""


# ----------------------------------------------------------------------
# level quotients


def level_quotient(preset, m):
    """All leaf permutations of level m realized by the group, as a set.

    Cached per preset; the closure of the identity under the generator
    actions, kept as the enumeration the layered bases are tested against.
    """
    cache = preset.cache("level_quotient")
    if m not in cache:
        moves = [core.right_mul(g) for g in core.generator_actions(preset, m)]
        cache[m], _ = core.closure([core.state(range(preset.arity**m))], moves)
    return cache[m]


def finite_quotient_order(preset, m):
    """Order of the quotient by the level-m stabilizer, read off its layered basis."""
    if m < 0:
        raise ValueError("level must be >= 0")
    return conjugacy.layered_basis(preset, m).order()


def normal_closure_basis(preset, word, m):
    """Layered basis of the normal closure of a word in the level-m quotient."""
    seed = core.state(core.level_action(core.evaluate(preset, word), m))
    return conjugacy.LayeredBasis(preset, m, [seed])


def normal_closure_index(preset, word, m):
    """Index of the normal closure of a word in the level-m quotient."""
    return finite_quotient_order(preset, m) // normal_closure_basis(preset, word, m).order()


# ----------------------------------------------------------------------
# branching data


class BranchingData:
    """Stabilized quotient model of a branching subgroup plus lift tables.

    The subgroup K is the normal closure of K_WORD.  `level` is the first
    level whose normal-closure index agrees with the next one; `k_image` is
    the set of K's level-`level` actions, and a right coset K*x is named by
    its least action.  The lift map sends u to a verified element with
    sections (u, identity), and `h1_reps` keeps the first element in ball
    order of each K x K coset; only those elements are interned.
    """

    def __init__(self, preset, level, index, k_image):
        self.preset = preset
        self.level = level
        self.index = index
        self.k_image = k_image  # set of closure states
        self.lift_map = {}  # u -> (elem, word)
        self.h1_reps = {}  # h1 key -> (elem, word)
        self.h1_rep_max = 0
        self._coset_ids = {}  # element -> least state of its coset

    def k_membership(self, x):
        """Membership of x's level-`level` action in K's image."""
        return core.state(core.level_action(x, self.level)) in self.k_image

    def coset_id(self, x):
        """The least level-`level` action in the right coset K*x."""
        got = self._coset_ids.get(x)
        if got is None:
            move = core.right_mul(core.level_action(x, self.level))
            got = self._coset_ids[x] = min(map(move, self.k_image))
        return got

    def h1_key(self, perm, sections):
        """Coset key of the level-1 branching subgroup K x K.

        Two elements lie in the same coset exactly when their root
        permutations agree and corresponding sections share K-cosets.  The
        element with this shape need not be interned.
        """
        return (perm, self.coset_id(sections[0]), self.coset_id(sections[1]))

    def h1_rep(self, x):
        """Shortest known (element, word) in the same K x K coset, or None."""
        return self.h1_reps.get(self.h1_key(x.perm, x.sections))

    def lift_for(self, u):
        """Verified (element, word) with sections (u, identity)."""
        got = self.lift_map.get(u)
        if got is None:
            raise LiftUnavailableError(
                f"no lift with sections ({u!r}, 1) within radius {LIFT_RADIUS}"
            )
        return got


def _stabilized_level(preset, k_word, max_level=MAX_LEVEL):
    indices = {}
    prev = None
    for m in range(1, max_level + 1):
        indices[m] = normal_closure_index(preset, k_word, m)
        if prev is not None and indices[m] == prev:
            return m - 1, indices
        prev = indices[m]
    raise UnstabilizedError(
        f"normal closure index of {k_word!r} did not stabilize by level {max_level}: "
        f"{indices}"
    )


def branching_data(preset):
    """Build (and cache) the branching model of the normal closure of K_WORD."""
    cache = preset.cache("branching_data")
    if K_WORD in cache:
        return cache[K_WORD]

    level, indices = _stabilized_level(preset, K_WORD)
    k_basis = normal_closure_basis(preset, K_WORD, level)
    rows = [row for layer in k_basis.rows for _, row, _ in layer]
    k_image, _ = core.closure([k_basis.identity], list(map(core.right_mul, rows)))
    data = BranchingData(preset, level, indices[level], k_image)

    # the shortest word of each section pair (u, 1), re-evaluated
    identity = preset.identity
    pair_map = _section_pair_map(preset, LIFT_RADIUS)
    for (u, v), (ln, word) in pair_map.items():
        if v is not identity or ln > LIFT_RADIUS:
            continue
        e = core.evaluate(preset, word)
        if e.perm != (0, 1) or e.sections != (u, identity):
            raise AssertionError(f"lift table entry for {u!r} failed verification")
        data.lift_map[u] = (e, word)

    # the keys are right cosets of K x K: once a sphere meets no new one,
    # no later sphere does, and at most 2 * index**2 spheres meet new ones
    for sphere in enumeration.spheres(preset, 2 * data.index**2):
        met = len(data.h1_reps)
        for shape, word in sphere:
            key = data.h1_key(*shape)
            if key not in data.h1_reps:
                data.h1_reps[key] = (preset.make_element(*shape), word)
        if len(data.h1_reps) == met:
            break
    data.h1_rep_max = max((len(w) for _, w in data.h1_reps.values()), default=0)

    cache[K_WORD] = data
    return data


# ----------------------------------------------------------------------
# writing prescribed words on the right subtree
#
# Scanning a level-1 stabilizer word left to right, a letter from {b,c,d}
# whose prefix holds an even number of a's contributes its right section to
# the right subtree and its left section to the left one; an odd prefix
# swaps the roles.  Emitting a target letter therefore picks the generator
# whose relevant section is that letter, inserting a steering 'a' first
# when the parity is wrong.  Leftovers land in the dihedral subgroup
# generated by a and d.

_EMIT_AT_EVEN = {"c": "b", "d": "c", "b": "d"}  # target -> letter placed
_EMIT_AT_ODD = "c"  # contributes 'a' rightward, leftover 'd' leftward


class EncodeResult:
    def __init__(self, word, sections):
        self.word = word
        self.sections = sections  # reduced section words (left, right)


def encode_right(w1, preset=None):
    """Word in the level-1 stabilizer whose right section is exactly w1.

    The output length is at most 2*len(w1) + 4 and the left section always
    reduces into the subgroup generated by a and d.  Both sections are
    verified against the element arithmetic before returning.
    """
    preset = preset or core.load_preset("grigorchuk")
    if words.reduce(w1, preset) != w1:
        raise ValueError(f"target {w1!r} is not reduced")
    out = []
    parity = 0
    for ch in w1:
        if ch == "a":
            if parity == 0:
                out.append("a")
                parity = 1
            out.append(_EMIT_AT_ODD)
        else:
            if parity == 1:
                out.append("a")
                parity = 0
            out.append(_EMIT_AT_EVEN[ch])
    if parity == 1:
        out.append("a")
    word = "".join(out)
    s0, s1 = words.word_sections(word, preset)
    elem = core.evaluate(preset, word)
    if (
        s1 != w1
        or not core.equals(core.evaluate(preset, s1), elem.sections[1])
        or not core.equals(core.evaluate(preset, s0), elem.sections[0])
        or len(word) > 2 * len(w1) + 4
    ):
        raise AssertionError(f"section encoding failed verification for {w1!r}")
    return EncodeResult(word=word, sections=(s0, s1))


# ----------------------------------------------------------------------
# exact section pairs by exhaustive search

ACHIEVED = "achieved"
UNREACHABLE = "unreachable-within-bound"
INCONCLUSIVE = "inconclusive"


class PairEncodeResult:
    def __init__(self, status, word, sections, bound):
        self.status = status
        self.word = word  # None unless achieved
        self.sections = sections  # None unless achieved
        self.bound = bound


def _section_pair_map(preset, radius):
    """Minimum-cost word per section pair over the stabilizer ball.

    Scans the shape of every element of B(radius) in the level-1
    stabilizer once, interning none of them; the map is cached at the
    largest radius scanned so far.
    """
    cache = preset.cache("section_pair_map")
    if cache.get("radius", -1) < radius:
        pair_map = {}
        for ln, sphere in enumerate(enumeration.spheres(preset, radius)):
            for (perm, sections), word in sphere:
                if perm == (0, 1):
                    pair_map.setdefault(sections, (ln, word))
        cache["map"], cache["radius"] = pair_map, radius
    return cache["map"]


def encode_pair(w0, w1, preset=None):
    """Word with section pair exactly (w0, w1), or a certificate about the bound.

    The search is exhaustive over the level-1 stabilizer part of the ball of
    radius 2*(len(w0)+len(w1)); achieving words longer than that bound do not
    count, and a miss from a complete scan certifies unreachability within
    the bound.  Scans beyond MAX_SCAN_RADIUS come back inconclusive.
    """
    preset = preset or core.load_preset("grigorchuk")
    t0 = core.evaluate(preset, w0)
    t1 = core.evaluate(preset, w1)
    bound = 2 * (len(words.reduce(w0, preset)) + len(words.reduce(w1, preset)))
    if bound > MAX_SCAN_RADIUS:
        return PairEncodeResult(INCONCLUSIVE, None, None, bound)
    pair_map = _section_pair_map(preset, max(bound, 1))
    got = pair_map.get((t0, t1))
    if got is not None and got[0] <= bound:
        ln, word = got
        elem = core.evaluate(preset, word)
        if elem.sections != (t0, t1) or elem.perm != (0, 1):
            raise AssertionError(f"pair map entry for {word!r} failed verification")
        return PairEncodeResult(ACHIEVED, word, words.word_sections(word, preset), bound)
    return PairEncodeResult(UNREACHABLE, None, None, bound)


class CoverageReport:
    def __init__(self, reachable, unreachable, unknown, total, beyond_bound):
        self.reachable = reachable
        self.unreachable = unreachable
        self.unknown = unknown
        self.total = total
        self.beyond_bound = beyond_bound  # reachable only above the pair bound

    def consistent(self):
        return self.reachable + self.unreachable + self.unknown == self.total


def image_coverage_report(n, preset=None):
    """Reachability of every section pair with targets in B(n // 2).

    Scans the level-1 stabilizer inside B(2n) once and classifies each
    target pair against its own budget 2*(|w0| + |w1|).  Pairs reachable
    only above that budget are listed separately as discrepancies.
    """
    preset = preset or core.load_preset("grigorchuk")
    if n < 0:
        raise ValueError("budget must be >= 0")
    scan = min(2 * n, MAX_SCAN_RADIUS)
    pair_map = _section_pair_map(preset, max(scan, 1))
    targets = enumeration.ball(preset, n // 2).entries.items()
    beyond = []
    reachable = unreachable = unknown = 0
    for u, (lu, wu) in targets:
        for v, (lv, wv) in targets:
            bound = 2 * (lu + lv)
            got = pair_map.get((u, v))
            if got is not None and got[0] <= bound:
                reachable += 1
            elif bound <= scan:
                unreachable += 1
                if got is not None:
                    beyond.append((wu, wv, got[0], got[1]))
            else:
                unknown += 1
    return CoverageReport(
        reachable=reachable,
        unreachable=unreachable,
        unknown=unknown,
        total=len(targets) ** 2,
        beyond_bound=beyond,
    )


# ----------------------------------------------------------------------
# products of conjugates for branching commutators


def comm_k_product(k1, k2, data):
    """Product of exactly 4 conjugates of the rooted generator evaluating to
    the element with sections ([k1, k2], 1).

    Uses lifts kappa = (k1^-1, 1) and lam = (k2, 1): conjugating the rooted
    involution a by them telescopes into the commutator on the left subtree
    while the right subtree cancels.
    """
    preset = data.preset
    if not (data.k_membership(k1) and data.k_membership(k2)):
        raise LiftUnavailableError("inputs are not in the branching subgroup image")
    kappa_elem, kappa_word = data.lift_for(core.invert(k1))
    lam_elem, lam_word = data.lift_for(k2)
    kl_word = words.reduce(kappa_word + lam_word, preset)
    factors = [
        expressions.ConjugateFactor("a", ""),
        expressions.ConjugateFactor("a", kappa_word),
        expressions.ConjugateFactor("a", kl_word),
        expressions.ConjugateFactor("a", lam_word),
    ]
    expr = expressions.conjugate_product(preset, factors)
    target = preset.make_element(
        (0, 1), (core.commutator(k1, k2), preset.identity)
    )
    if not expr.verify(target):
        raise AssertionError("4-conjugate product failed verification")
    return expr


def comm_g_decompose(gamma_word, xi_word, data):
    """Commutator [gamma, xi] as a verified product of generator conjugates.

    Splits both inputs over the level-1 branching subgroup, walks the coset
    representatives letter by letter (each letter commutator costs two
    conjugates), and delegates the branching part to two 4-conjugate
    products, one per subtree.  The factor count is bounded by
    2*(len(sigma) + len(tau)) + 8.
    """
    preset = data.preset
    gamma = core.evaluate(preset, gamma_word)
    xi = core.evaluate(preset, xi_word)
    target = core.commutator(gamma, xi)
    if core.equals(gamma, xi):
        return expressions.conjugate_product(preset, ())

    def split(elem, word):
        rep = data.h1_rep(elem)
        if rep is None:
            sigma_e, sigma_w = elem, word
        else:
            sigma_e, sigma_w = rep
        kap_e = core.multiply(core.invert(sigma_e), elem)
        kap_w = words.reduce(words.invert_word(sigma_w) + word, preset)
        if not core.equals(core.evaluate(preset, kap_w), kap_e):
            raise AssertionError("coset split failed verification")
        return sigma_w, kap_e, kap_w

    sigma_w, kappa, kappa_w = split(gamma, words.reduce(gamma_word, preset))
    tau_w, lam, lam_w = split(xi, words.reduce(xi_word, preset))

    factors = []
    # [sigma, xi]^kappa expanded over the letters of sigma
    for i, x in enumerate(sigma_w):
        zeta = words.reduce(sigma_w[i + 1 :] + kappa_w, preset)
        factors.append(expressions.ConjugateFactor(x, zeta))
        factors.append(
            expressions.ConjugateFactor(x, words.reduce(xi_word + zeta, preset))
        )
    # [kappa, lam] on the two subtrees via 4-conjugate products
    k0, k1 = kappa.sections
    l0, l1 = lam.sections
    left = comm_k_product_sections(k0, l0, data)
    factors.extend(left.factors)
    right = comm_k_product_sections(k1, l1, data)
    factors.extend(
        expressions.ConjugateFactor(f.base, words.reduce(f.conjugator + "a", preset))
        for f in right.factors
    )
    # [kappa, tau]^lam expanded over the letters of tau, innermost first
    n = len(tau_w)
    for j in range(n - 1, -1, -1):
        eta = words.reduce(tau_w[j + 1 :] + lam_w, preset)
        factors.append(
            expressions.ConjugateFactor(tau_w[j], words.reduce(kappa_w + eta, preset))
        )
        factors.append(expressions.ConjugateFactor(tau_w[j], eta))

    expr = expressions.conjugate_product(preset, factors)
    if not expr.verify(target):
        raise AssertionError("conjugate decomposition failed verification")
    return expr


def comm_k_product_sections(k1, k2, data):
    """comm_k_product, short-circuiting the trivial commutator to 0 factors."""
    preset = data.preset
    if core.equals(core.commutator(k1, k2), preset.identity):
        return expressions.conjugate_product(preset, ())
    return comm_k_product(k1, k2, data)
