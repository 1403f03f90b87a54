"""Constructive machinery: finite quotients, branching data, section encoding
and products-of-conjugates builders.

Everything here is verification-first.  Quotient models are accepted only
after their index stabilizes across two consecutive levels, lift-table
entries are checked on both sections, and every builder re-evaluates its
output against the exact element arithmetic before returning it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from . import core, enumeration, expressions, words
from .core import BudgetError  # noqa: F401 - raised by the quotient closures


class UnstabilizedError(RuntimeError):
    """Quotient index kept changing within the level budget."""


class LiftUnavailableError(RuntimeError):
    """No verified lift with the requested sections inside the budget."""


# ----------------------------------------------------------------------
# level quotients


def level_quotient(preset, m, budget=5_000_000):
    """All leaf permutations of level m realized by the group, as a set.

    Cached per preset; the closure of the identity under the generator
    actions.
    """
    cache = preset.cache("level_quotient")
    if m not in cache:
        moves = [core.right_mul(g) for g in core.generator_actions(preset, m)]
        cache[m], _ = core.closure([core.state(range(preset.arity**m))], moves, budget)
    return cache[m]


def finite_quotient_order(preset, m):
    """Order of the quotient by the level-m stabilizer, read off its layered basis."""
    if m < 0:
        raise ValueError("level must be >= 0")
    return core.layered_basis(preset, m).order()


def normal_closure_image(preset, word, m, budget=5_000_000):
    """Image in the level-m quotient of the normal closure of a word.

    The closure of the identity under right multiplication by the word's
    image t and conjugation by the generators: it contains y*t^h whenever it
    contains y, because y*t^h = (y^(h^-1) * t)^h, so it is the subgroup
    generated by the conjugates of t.
    """
    target = core.level_action(core.evaluate(preset, word), m)
    moves = [core.right_mul(target)]
    moves += [core.conjugation(g) for g in core.generator_actions(preset, m)]
    image, _ = core.closure([core.state(range(preset.arity**m))], moves, budget)
    return image


def normal_closure_index(preset, word, m, budget=5_000_000):
    """Index of the normal closure image inside the level-m quotient."""
    if m == 0:
        return 1
    order = finite_quotient_order(preset, m)
    return order // len(normal_closure_image(preset, word, m, budget))


# ----------------------------------------------------------------------
# branching data


@dataclass
class BranchingData:
    """Stabilized quotient model of a branching subgroup plus lift tables.

    The subgroup K is the normal closure of `k_word`.  `level` is the first
    level whose normal-closure index agrees with the next one; membership
    and coset identity are read off the level-`level` image.  The transversal
    stores one shortest representative per realized coset, and the lift map
    sends u to a verified element with sections (u, identity).
    """

    preset: object
    k_word: str
    level: int
    index: int
    k_image: frozenset = field(repr=False)
    coset_table: dict = field(repr=False)  # closure state -> coset id
    transversal: dict = field(repr=False)  # coset id -> (element, word)
    coset_rep_max: int = 0
    lift_radius: int = 0
    lift_map: dict = field(repr=False, default_factory=dict)  # u -> (elem, word)
    h1_reps: dict = field(repr=False, default_factory=dict)  # h1 key -> (elem, word)
    h1_rep_max: int = 0
    h1_key_count: int = 0

    def k_membership(self, x):
        """Membership of x's image in the K-image at the stabilized level."""
        return core.state(core.level_action(x, self.level)) in self.k_image

    def coset_id(self, x):
        return self.coset_table[core.state(core.level_action(x, self.level))]

    def h1_key(self, x):
        """Coset key of the level-1 branching subgroup K x K.

        Two elements lie in the same coset exactly when their root
        permutations agree and corresponding sections share K-cosets.
        """
        return (x.perm, self.coset_id(x.sections[0]), self.coset_id(x.sections[1]))

    def h1_rep(self, x):
        """Shortest known element in the same K x K coset; x itself if new."""
        return self.h1_reps.get(self.h1_key(x))

    def lift_for(self, u, compose_budget=20_000):
        """Verified (element, word) with sections (u, identity).

        Falls back to composing already-verified lifts, which is sound
        because lifts multiply: sections multiply coordinatewise inside the
        level-1 stabilizer.
        """
        got = self.lift_map.get(u)
        if got is not None:
            return got
        base = sorted(self.lift_map.items(), key=lambda kv: kv[1][1])
        frontier = dict(self.lift_map)
        seen = set(self.lift_map)
        while frontier and len(seen) < compose_budget:
            new = {}
            for tu, (te, tw) in sorted(frontier.items(), key=lambda kv: kv[1][1]):
                for bu, (be, bw) in base:
                    nu = core.multiply(tu, bu)
                    if nu in seen:
                        continue
                    ne = core.multiply(te, be)
                    nw = words.reduce(tw + bw, self.preset)
                    seen.add(nu)
                    new[nu] = (ne, nw)
                    if nu is u:
                        return ne, nw
            frontier = new
        raise LiftUnavailableError(
            f"no lift with sections ({u!r}, 1) within radius {self.lift_radius} "
            "or its composition closure"
        )


def _stabilized_level(preset, k_word, max_level=5, budget=5_000_000):
    indices = {}
    prev = None
    for m in range(1, max_level + 1):
        indices[m] = normal_closure_index(preset, k_word, m, budget)
        if prev is not None and indices[m] == prev:
            return m - 1, indices
        prev = indices[m]
    raise UnstabilizedError(
        f"normal closure index of {k_word!r} did not stabilize by level {max_level}: "
        f"{indices}"
    )


def branching_data(
    preset,
    k_word="abab",
    max_level=5,
    transversal_radius=12,
    lift_radius=16,
    h1_radius=12,
):
    """Build (and cache) the branching model for the given subgroup word."""
    cache = preset.cache("branching_data")
    if k_word in cache:
        return cache[k_word]

    level, indices = _stabilized_level(preset, k_word, max_level)
    image = normal_closure_image(preset, k_word, level)
    quotient = level_quotient(preset, level)
    index = len(quotient) // len(image)

    # right cosets K*g; the table is exact for the level image
    coset_table = {}
    reps_actions = []
    for p in sorted(quotient):
        if p in coset_table:
            continue
        cid = len(reps_actions)
        reps_actions.append(p)
        coset_table.update(dict.fromkeys(map(core.right_mul(p), image), cid))

    data = BranchingData(
        preset=preset,
        k_word=k_word,
        level=level,
        index=index,
        k_image=frozenset(image),
        coset_table=coset_table,
        transversal={},
    )

    big = enumeration.ball(preset, max(transversal_radius, h1_radius, lift_radius))
    items = big.sorted_items()

    for e, (ln, word) in items:
        if ln > transversal_radius:
            break
        cid = data.coset_id(e)
        if cid not in data.transversal:
            data.transversal[cid] = (e, word)
            if len(data.transversal) == index:
                break
    data.coset_rep_max = max(
        (len(w) for _, w in data.transversal.values()), default=0
    )

    identity = preset.identity
    for e, (ln, word) in items:
        if ln > lift_radius:
            break
        if e.perm == (0, 1) and e.sections[1] is identity:
            data.lift_map.setdefault(e.sections[0], (e, word))
    data.lift_radius = lift_radius
    for u, (e, w) in data.lift_map.items():
        if e.sections != (u, identity) or core.evaluate(preset, w) is not e:
            raise AssertionError(f"lift table entry for {u!r} failed verification")

    for e, (ln, word) in items:
        if ln > h1_radius:
            break
        key = data.h1_key(e)
        if key not in data.h1_reps:
            data.h1_reps[key] = (e, word)
    data.h1_key_count = len(data.h1_reps)
    data.h1_rep_max = max((len(w) for _, w in data.h1_reps.values()), default=0)

    cache[k_word] = data
    return data


def k_membership(preset, x, k_word="abab"):
    return branching_data(preset, k_word).k_membership(x)


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


@dataclass
class EncodeResult:
    word: str
    sections: tuple  # reduced section words (left, right)


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


@dataclass
class PairEncodeResult:
    status: str
    word: str | None
    sections: tuple | None
    bound: int


def _section_pair_map(preset, radius):
    """Minimum-cost word per section pair over the stabilizer ball.

    Scans every element of B(radius) in the level-1 stabilizer once; the
    map is cached at the largest radius scanned so far.
    """
    cache = preset.cache("section_pair_map")
    if cache.get("radius", -1) >= radius:
        return cache["map"], cache["radius"]
    big = enumeration.ball(preset, radius)
    pair_map = {}
    for e, (ln, word) in big.sorted_items():
        if e.perm == (0, 1):
            pair_map.setdefault((e.sections[0], e.sections[1]), (ln, word))
    cache["radius"] = radius
    cache["map"] = pair_map
    return pair_map, radius


def encode_pair(w0, w1, preset=None, max_scan_radius=20):
    """Word with section pair exactly (w0, w1), or a certificate about the bound.

    The search is exhaustive over the level-1 stabilizer part of the ball of
    radius 2*(len(w0)+len(w1)); achieving words longer than that bound do not
    count, and a miss from a complete scan certifies unreachability within
    the bound.  Scans beyond max_scan_radius come back inconclusive.
    """
    preset = preset or core.load_preset("grigorchuk")
    t0 = core.evaluate(preset, w0)
    t1 = core.evaluate(preset, w1)
    bound = 2 * (len(words.reduce(w0, preset)) + len(words.reduce(w1, preset)))
    if bound > max_scan_radius:
        return PairEncodeResult(INCONCLUSIVE, None, None, bound)
    pair_map, _ = _section_pair_map(preset, max(bound, 1))
    got = pair_map.get((t0, t1))
    if got is not None and got[0] <= bound:
        ln, word = got
        elem = core.evaluate(preset, word)
        if elem.sections != (t0, t1) or elem.perm != (0, 1):
            raise AssertionError(f"pair map entry for {word!r} failed verification")
        return PairEncodeResult(ACHIEVED, word, words.word_sections(word, preset), bound)
    return PairEncodeResult(UNREACHABLE, None, None, bound)


@dataclass
class CoverageReport:
    budget: int
    scan_radius: int
    reachable: int
    unreachable: int
    unknown: int
    total: int
    rows: list = field(repr=False)  # (w0, w1, status, cost, witness)
    beyond_bound: list = field(repr=False)  # reachable only above the pair bound

    def consistent(self):
        return self.reachable + self.unreachable + self.unknown == self.total


def image_coverage_report(n, preset=None, max_scan_radius=20):
    """Reachability of every section pair with targets in B(n // 2).

    Scans the level-1 stabilizer inside B(2n) once and classifies each
    target pair against its own budget 2*(|w0| + |w1|).  Pairs reachable
    only above that budget are listed separately as discrepancies.
    """
    preset = preset or core.load_preset("grigorchuk")
    if n < 0:
        raise ValueError("budget must be >= 0")
    scan = min(2 * n, max_scan_radius)
    pair_map, _ = _section_pair_map(preset, max(scan, 1))
    half = enumeration.ball(preset, n // 2)
    targets = half.sorted_items()
    rows = []
    beyond = []
    reachable = unreachable = unknown = 0
    for u, (lu, wu) in targets:
        for v, (lv, wv) in targets:
            bound = 2 * (lu + lv)
            got = pair_map.get((u, v))
            if got is not None and got[0] <= bound:
                reachable += 1
                rows.append((wu, wv, ACHIEVED, got[0], got[1]))
            elif bound <= scan:
                unreachable += 1
                rows.append((wu, wv, UNREACHABLE, None, None))
                if got is not None:
                    beyond.append((wu, wv, got[0], got[1]))
            else:
                unknown += 1
                rows.append((wu, wv, INCONCLUSIVE, None, None))
    return CoverageReport(
        budget=n,
        scan_radius=scan,
        reachable=reachable,
        unreachable=unreachable,
        unknown=unknown,
        total=len(targets) ** 2,
        rows=rows,
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


def _conjugated_factors(factors, suffix, preset):
    return [
        expressions.ConjugateFactor(
            f.base, words.reduce(f.conjugator + suffix, preset)
        )
        for f in factors
    ]


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
    factors.extend(_conjugated_factors(right.factors, "a", preset))
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
