"""Bounded-width searches: products of conjugates, commutators, palindromes.

All width properties are universally quantified, so a search can only ever
confirm a decomposition or come back inconclusive; the result type has no
"refuted" state.  Every mode runs the same meet-in-the-middle driver over
its deduplicated factor set: it tries 0, 1, 2, ... factors up to the cap
(more than two only for conjugates, the one mode with a pair set),
scanning one set in value order and looking up the rest of the target in
another, so results are deterministic and never degrade when budgets grow.
Every decomposition is re-evaluated through the element arithmetic before
it is returned.  An optional time limit bounds the element search of every
mode; palindromes then fall back to a syntactic split of their word.
"""

from __future__ import annotations

import operator
import time

from . import core, enumeration, expressions, words

DECOMPOSED = "decomposed"
INCONCLUSIVE = "inconclusive"

MAX_SET = 2_000_000  # cap on the materialized pair and commutator sets


class SearchBudget:
    def __init__(self, radius=6, factor_cap=4, time_limit=None):
        if radius < 0 or factor_cap < 0:
            raise ValueError("budget fields must be nonnegative")
        self.radius = radius  # conjugator / entry radius
        self.factor_cap = factor_cap
        self.time_limit = time_limit  # seconds, soft; None for no limit

    def __repr__(self):  # part of an inconclusive result's note
        return (
            f"SearchBudget(radius={self.radius!r}, factor_cap={self.factor_cap!r},"
            f" time_limit={self.time_limit!r})"
        )


class WidthResult:
    def __init__(self, status, expression, target, note=""):
        self.status = status
        self.expression = expression  # None unless decomposed
        self.target = target
        self.note = note

    @property
    def factors(self):
        return None if self.expression is None else len(self.expression.factors)


# ----------------------------------------------------------------------
# deduplicated factor sets
#
# A singles set maps each element to its first realization in ball order and
# is then kept in value order, the order the driver scans it in.  A value
# (a palindrome, or the words of a conjugate or commutator) determines its
# element, so no two values are equal and the order is total.


def _in_value_order(table):
    items = sorted(table.items(), key=operator.itemgetter(1))
    table.clear()
    table.update(items)
    return table


def conjugate_set(preset, radius, bases=None):
    """Deduplicated conjugates of the chosen generators by B(radius).

    Maps each element x^t to its first (base, conjugator) pair in sorted
    ball order; the set itself is kept in value order.
    """
    bases = tuple(preset.gen_labels if bases is None else bases)
    cache = preset.cache("conjugate_set")
    key = (radius, bases)
    if key in cache:
        return cache[key]
    ts = [tw for sphere in enumeration.spheres(preset, radius) for _, tw in sphere]
    tables = [core.conjugates(preset.atoms[base], ts) for base in bases]
    out = {}
    for tw, *values in zip(ts, *tables):
        for base, e in zip(bases, values):
            out.setdefault(e, (base, tw))
    cache[key] = _in_value_order(out)
    return out


def conjugate_pair_set(preset, radius, bases=None):
    """Deduplicated products of two conjugates, keyed by element."""
    bases = tuple(preset.gen_labels if bases is None else bases)
    cache = preset.cache("conjugate_pair_set")
    key = (radius, bases)
    if key in cache:
        return cache[key]
    items = conjugate_set(preset, radius, bases).items()
    out = {}
    for e1, f1 in items:
        for e2, f2 in items:
            e = core.multiply(e1, e2)
            out.setdefault(e, (f1, f2))
        if len(out) > MAX_SET:
            raise MemoryError("conjugate pair set exceeded budget")
    cache[key] = out
    return out


def commutator_set(preset, radius):
    """Deduplicated commutators with both entries in B(radius), in value order."""
    cache = preset.cache("commutator_set")
    if radius not in cache:
        _first_commutator(preset, radius, None)
    return cache[radius]


def _first_commutator(preset, radius, g):
    """The first (x word, y word) in ball order with [x, y] = g, or None.

    Scans the pairs of B(radius) in ball order, each x with its table of
    conjugates x^y, since [x, y] = x**-1 * x^y, and stops at g, so the
    witness is the one the full set keeps.  Only a scan that reaches the
    end caches what it saw, as the full commutator set.
    """
    cache = preset.cache("commutator_set")
    if radius in cache:
        return cache[radius].get(g)
    items = enumeration.ball(preset, radius).entries.items()
    ys = [yw for _, (_, yw) in items]
    mul, out = preset._mul, {}
    for x, (_, xw) in items:
        xi = core.invert(x)
        for xy, yw in zip(core.conjugates(x, ys), ys):
            e = mul(xi, xy)
            if e is g:
                return xw, yw
            out.setdefault(e, (xw, yw))
        if len(out) > MAX_SET:
            raise MemoryError("commutator set exceeded budget")
    cache[radius] = _in_value_order(out)
    return None


def palindrome_set(preset, radius):
    """Elements of odd palindromic words with arm length <= radius.

    Over involutive generators those are exactly the conjugates of the
    generators; each element keeps its shortest palindrome realization.
    """
    cache = preset.cache("palindrome_set")
    if radius not in cache:
        cache[radius] = _in_value_order({
            e: words.invert_word(tw) + base + tw
            for e, (base, tw) in conjugate_set(preset, radius).items()
        })
    return cache[radius]


# ----------------------------------------------------------------------
# the meet-in-the-middle driver


def _search(g, budget, product, factor, singles, pairs=None, single=None):
    """Express g as a product of at most factor_cap factors from a set.

    `singles()` returns the deduplicated factor set (element -> factor) and
    `pairs()` the set of its pairwise products (element -> two factors);
    `single(g)`, when given, finds g's factor in the set, or None, without
    building the set;
    `product(preset, factors)` builds the Expression of factor(f) over the
    factors found.  The time limit is checked after every scanned candidate;
    when it passes, the result is inconclusive with the note "time budget".
    """
    deadline = None if budget.time_limit is None else time.monotonic() + budget.time_limit
    if core.is_identity(g):
        return _decomposed(g, product, factor, ())
    if budget.factor_cap >= 1:
        f = single(g) if single is not None else singles().get(g)
        if f is not None:
            return _decomposed(g, product, factor, (f,))
    for scan, table, join in _splits(singles, pairs, budget.factor_cap):
        for c, left in scan:
            right = table.get(core.multiply(core.invert(c), g))
            if right is not None:
                return _decomposed(g, product, factor, join(left, right))
            if deadline is not None and time.monotonic() > deadline:
                return WidthResult(INCONCLUSIVE, None, g, "time budget")
    return WidthResult(INCONCLUSIVE, None, g, f"no decomposition within budget {budget}")


def _splits(singles, pairs, factor_cap):
    """(scan, lookup table, join) for 2, 3 and 4 factors, up to factor_cap.

    Both sets are scanned in their insertion order, which is value order;
    `singles()` is called only on reaching two factors and `pairs()` only
    on reaching three.  Without `pairs` the search stops at two factors.
    """
    if factor_cap < 2:
        return
    one = singles()
    yield one.items(), one, lambda f, h: (f, h)
    if factor_cap < 3 or pairs is None:
        return
    two = pairs()
    yield one.items(), two, lambda f, hs: (f, *hs)
    if factor_cap >= 4:
        yield two.items(), two, operator.add


def _decomposed(target, product, factor, parts):
    expr = product(target.preset, [factor(f) for f in parts])
    if not expr.verify(target):
        raise AssertionError(f"{expr.kind} decomposition failed verification")
    return WidthResult(DECOMPOSED, expr, target)


# ----------------------------------------------------------------------
# conjugate width


def conjugate_width(g, budget=None, bases=None):
    """Express g as at most factor_cap conjugates of generators.

    Lookups in the conjugate set handle one and two factors, singles
    against the pair set three, and the pair set against itself four.
    """
    preset, budget = g.preset, budget or SearchBudget()
    return _search(
        g,
        budget,
        expressions.conjugate_product,
        lambda f: expressions.ConjugateFactor(*f),
        lambda: conjugate_set(preset, budget.radius, bases),
        lambda: conjugate_pair_set(preset, budget.radius, bases),
    )


# ----------------------------------------------------------------------
# commutator width


def commutator_width(g, budget=None):
    """Express g as at most factor_cap (two at most) commutators of B(radius) entries."""
    preset, budget = g.preset, budget or SearchBudget(radius=6, factor_cap=2)
    if words.parity_vector(_word_of(g)) != (0, 0, 0):
        return WidthResult(
            INCONCLUSIVE, None, g, "nonzero parity vector rules out membership"
        )
    return _search(
        g,
        budget,
        expressions.commutator_product,
        lambda f: expressions.CommutatorFactor(*f),
        lambda: commutator_set(preset, budget.radius),
        single=lambda g: _first_commutator(preset, budget.radius, g),
    )


def _word_of(g):
    if g.word is not None:
        return g.word
    b = enumeration.ball(g.preset, 8)
    if g in b.entries:
        return b.entries[g][1]
    raise ValueError("element has no known word; pass one explicitly")


# ----------------------------------------------------------------------
# palindromic width


def _palindromic_splits(word):
    """Minimal split of a word into palindromic substrings, by DP.

    best[j] is the first shortest split of word[:j], cut points ascending.
    """
    best = [[]]
    for j in range(1, len(word) + 1):
        splits = (best[i] + [word[i:j]] for i in range(j) if word[i:j] == word[i:j][::-1])
        best.append(min(splits, key=len))
    return best[-1]


def palindromic_width(g, budget=None, word=None):
    """Express g as at most factor_cap palindromic words.

    The element search handles up to two factors; when it finds none or
    runs out of time, a syntactic split of a geodesic word into palindromic
    blocks takes over, which always succeeds and rarely needs more than
    four blocks at desk scale.
    """
    preset = g.preset
    # the certified inverse pairs decide, not the declared involution flags
    if any(preset._inverse_atom[a] is not a for a in preset.generators):
        raise ValueError("palindromic width needs an all-involution generating set")
    budget = budget or SearchBudget(radius=4, factor_cap=5)
    product, factor = expressions.palindrome_product, expressions.PalindromeFactor
    found = _search(g, budget, product, factor, lambda: palindrome_set(preset, budget.radius))
    if found.status == DECOMPOSED:
        return found
    blocks = _palindromic_splits(word or _word_of(g))
    if len(blocks) <= budget.factor_cap:
        return _decomposed(g, product, factor, blocks)
    return found


def palindrome_conjugate_check(max_length, preset=None):
    """Exhaustively relate palindromic words to conjugates of generators.

    Every odd palindrome u x u-reversed must equal the conjugate of its
    middle letter by the element of u-reversed; every even palindrome must
    reduce to the empty word.  The arms u and their reverses are built
    along the arm tree, one product each per arm, so no palindrome is
    evaluated letter by letter.  Returns the number of palindromes checked
    and the list of violations (empty on involutive generating sets).
    """
    preset = preset or core.load_preset("grigorchuk")
    mul, one = preset._mul, preset.identity
    gens = [(s["label"], preset.atoms[s["label"]]) for s in preset.generator_specs]
    violations = []
    checked = 0
    # (u, element of u, element of u reversed), breadth first
    frontier = [("", one, one)]
    arms = frontier[:]
    for _ in range((max_length - 1) // 2):
        frontier = [(u + ch, mul(e, g), mul(g, r)) for u, e, r in frontier for ch, g in gens]
        arms += frontier
    for u, e, r in arms:
        # even palindromes u + reverse(u)
        p = u + words.invert_word(u)
        if len(p) <= max_length:
            checked += 1
            if words.reduce(p, preset) != "":
                violations.append((p, "even palindrome does not reduce to identity"))
        # odd palindromes u + x + reverse(u)
        for x, g in gens:
            p = u + x + words.invert_word(u)
            if len(p) > max_length:
                continue
            checked += 1
            if mul(mul(e, g), r) is not core.conjugate(g, r):
                violations.append((p, "odd palindrome is not a conjugate of its middle"))
    return checked, violations


# ----------------------------------------------------------------------
# conjugate products to commutator products


def rewrite_conjugates_to_commutators(expr):
    """Rewrite x1^r1 * ... * xN^rN as (x1...xN) * (product of N commutators).

    Each factor satisfies x^r = x * [x, r]; shifting every base letter to
    the left conjugates the commutators by the letters passed over, and a
    conjugated commutator is again a commutator.  The pair (prefix word,
    commutator product) multiplies back to the input, which is verified.
    """
    if expr.kind != expressions.CONJUGATE_PRODUCT:
        raise ValueError("expected a conjugate-product expression")
    preset = expr.preset
    bases = [f.base for f in expr.factors]
    comm_factors = []
    for j, f in enumerate(expr.factors):
        suffix = "".join(bases[j + 1 :])
        left = words.reduce(words.invert_word(suffix) + f.base + suffix, preset)
        right = words.reduce(words.invert_word(suffix) + f.conjugator + suffix, preset)
        comm_factors.append(expressions.CommutatorFactor(left, right))
    z_word = words.reduce("".join(bases), preset)
    comm_expr = expressions.commutator_product(preset, tuple(comm_factors))
    recomposed = core.multiply(core.evaluate(preset, z_word), comm_expr.evaluate())
    if not core.equals(recomposed, expr.evaluate()):
        raise AssertionError("rewriting failed verification")
    return z_word, comm_expr


def conjugate_identity_audit(preset, samples):
    """Check a^x * a^y == [x y^-1, a]^y on sampled conjugator words."""
    a = preset.atoms["a"]
    failures = []
    for xw, yw in samples:
        x = core.evaluate(preset, xw)
        y = core.evaluate(preset, yw)
        lhs = core.multiply(core.conjugate(a, x), core.conjugate(a, y))
        rhs = core.conjugate(
            core.commutator(core.multiply(x, core.invert(y)), a), y
        )
        if not core.equals(lhs, rhs):
            failures.append((xw, yw))
    return failures


# ----------------------------------------------------------------------
# the infinite dihedral group, checked through the element arithmetic
#
# s is the rooted swap and r = (s, r); both are involutions, and every
# element of the group they generate is a product of at most two conjugates
# of them.  An odd reduced word is a palindrome, so one conjugate of its
# middle letter; an even one is its first letter times such a conjugate.

DIHEDRAL_SPECS = [
    {"label": "r", "involution": True, "perm": [0, 1], "sections": ["s", "r"]},
    {"label": "s", "involution": True, "perm": [1, 0], "sections": ["1", "1"]},
]


def dihedral_width_report(max_length):
    """Decompose every element of B(max_length) of the infinite dihedral group.

    Returns the rows (word, number of conjugates) in ball order and the
    largest count; raises AssertionError when a product fails verification.
    """
    preset = core.GroupPreset("infinite-dihedral", 2, DIHEDRAL_SPECS)
    rows = []
    for e, (n, w) in enumeration.ball(preset, max_length).entries.items():
        head, rest = ("", w) if n % 2 else (w[:1], w[1:])
        factors = [expressions.ConjugateFactor(x, "") for x in head]
        if rest:
            mid = len(rest) // 2
            factors.append(expressions.ConjugateFactor(rest[mid], rest[:mid][::-1]))
        if not expressions.conjugate_product(preset, factors).verify(e):
            raise AssertionError(f"dihedral decomposition failed for {w!r}")
        rows.append((w, len(factors)))
    return rows, max(k for _, k in rows)
