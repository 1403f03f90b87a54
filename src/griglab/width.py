"""Bounded-width searches: products of conjugates, commutators, palindromes.

All width properties are universally quantified, so a search can only ever
confirm a decomposition or come back inconclusive; the result type has no
"refuted" state.  Every decomposition is re-evaluated through the element
arithmetic before it is returned, and witness selection follows sorted ball
order so results are deterministic and never degrade when budgets grow.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import core, enumeration, expressions, words

DECOMPOSED = "decomposed"
INCONCLUSIVE = "inconclusive"


@dataclass
class SearchBudget:
    radius: int = 6  # conjugator / entry radius
    factor_cap: int = 4
    time_limit: float | None = None  # seconds, soft
    max_set: int = 2_000_000  # cap on materialized product sets

    def __post_init__(self):
        if self.radius < 0 or self.factor_cap < 0:
            raise ValueError("budget fields must be nonnegative")

    def deadline(self):
        return None if self.time_limit is None else time.monotonic() + self.time_limit


@dataclass
class WidthResult:
    status: str
    expression: object | None
    target: object
    note: str = ""

    @property
    def factors(self):
        return None if self.expression is None else len(self.expression.factors)


class _Deadline:
    def __init__(self, deadline):
        self.deadline = deadline

    def expired(self):
        return self.deadline is not None and time.monotonic() > self.deadline


# ----------------------------------------------------------------------
# deduplicated factor sets


def conjugate_set(preset, radius, bases=None, ball_=None):
    """Deduplicated conjugates of the chosen generators by B(radius).

    Maps each element x^t to its first (base, conjugator) pair in sorted
    ball order; the word realization is deterministic.
    """
    bases = list(bases) if bases is not None else list(preset.gen_labels)
    cache = preset.cache("conjugate_set")
    key = (radius, tuple(bases))
    if key in cache:
        return cache[key]
    if ball_ is None or ball_.radius < radius:
        ball_ = enumeration.ball(preset, radius)
    out = {}
    for t, (ln, tw) in ball_.sorted_items():
        if ln > radius:
            break
        for base in bases:
            e = core.conjugate(preset.atoms[base], t)
            out.setdefault(e, (base, tw))
    cache[key] = out
    return out


def conjugate_pair_set(preset, radius, bases=None, max_set=2_000_000):
    """Deduplicated products of two conjugates, keyed by element."""
    cache = preset.cache("conjugate_pair_set")
    key = (radius, None if bases is None else tuple(bases))
    if key in cache:
        return cache[key]
    p1 = conjugate_set(preset, radius, bases)
    items = sorted(p1.items(), key=lambda kv: kv[1])
    out = {}
    for e1, f1 in items:
        for e2, f2 in items:
            e = core.multiply(e1, e2)
            out.setdefault(e, (f1, f2))
        if len(out) > max_set:
            raise MemoryError("conjugate pair set exceeded budget")
    cache[key] = out
    return out


def commutator_set(preset, radius, ball_=None, max_set=2_000_000):
    """Deduplicated commutators with both entries in B(radius)."""
    cache = preset.cache("commutator_set")
    if radius in cache:
        return cache[radius]
    if ball_ is None or ball_.radius < radius:
        ball_ = enumeration.ball(preset, radius)
    items = ball_.sorted_items()
    out = {}
    for x, (_, xw) in items:
        xi = core.invert(x)
        for y, (_, yw) in items:
            e = core.multiply(core.multiply(xi, core.invert(y)), core.multiply(x, y))
            out.setdefault(e, (xw, yw))
        if len(out) > max_set:
            raise MemoryError("commutator set exceeded budget")
    cache[radius] = out
    return out


def palindrome_set(preset, radius):
    """Elements of odd palindromic words with arm length <= radius.

    Over involutive generators those are exactly the conjugates of the
    generators; each element keeps its shortest palindrome realization.
    """
    p1 = conjugate_set(preset, radius)
    out = {}
    for e, (base, tw) in p1.items():
        out[e] = words.invert_word(tw) + base + tw
    return out


# ----------------------------------------------------------------------
# conjugate width


def conjugate_width(g, budget=None, preset=None, bases=None):
    """Express g as at most factor_cap conjugates of generators.

    Meet in the middle over the deduplicated conjugate set: direct lookups
    handle one or two factors, a loop over singles against the pair set
    handles three, and a loop over the pair set against itself handles four.
    """
    preset = preset or g.preset
    budget = budget or SearchBudget()
    deadline = _Deadline(budget.deadline())
    target = g
    if core.is_identity(g):
        expr = expressions.conjugate_product(preset, ())
        return WidthResult(DECOMPOSED, expr, target)

    p1 = conjugate_set(preset, budget.radius, bases)

    def build(pairs):
        factors = tuple(expressions.ConjugateFactor(b, t) for b, t in pairs)
        expr = expressions.conjugate_product(preset, factors)
        if not expr.verify(target):
            raise AssertionError("conjugate decomposition failed verification")
        return WidthResult(DECOMPOSED, expr, target)

    if budget.factor_cap >= 1 and g in p1:
        return build([p1[g]])
    if budget.factor_cap >= 2:
        for c, f in sorted(p1.items(), key=lambda kv: kv[1]):
            rest = core.multiply(core.invert(c), g)
            if rest in p1:
                return build([f, p1[rest]])
            if deadline.expired():
                return WidthResult(INCONCLUSIVE, None, target, "time budget")
    if budget.factor_cap >= 3:
        p2 = conjugate_pair_set(preset, budget.radius, bases, budget.max_set)
        for c, f in sorted(p1.items(), key=lambda kv: kv[1]):
            rest = core.multiply(core.invert(c), g)
            if rest in p2:
                return build([f, *p2[rest]])
            if deadline.expired():
                return WidthResult(INCONCLUSIVE, None, target, "time budget")
        if budget.factor_cap >= 4:
            for s, fs in p2.items():
                rest = core.multiply(core.invert(s), g)
                if rest in p2:
                    return build([*fs, *p2[rest]])
                if deadline.expired():
                    return WidthResult(INCONCLUSIVE, None, target, "time budget")
    return WidthResult(
        INCONCLUSIVE, None, target, f"no decomposition within budget {budget}"
    )


# ----------------------------------------------------------------------
# commutator width


def commutator_width(g, budget=None, preset=None):
    """Express g as at most factor_cap commutators with entries in B(radius)."""
    preset = preset or g.preset
    budget = budget or SearchBudget(radius=6, factor_cap=2)
    deadline = _Deadline(budget.deadline())
    target = g
    if words.parity_vector(_word_of(g, preset)) != (0, 0, 0):
        return WidthResult(
            INCONCLUSIVE, None, target, "nonzero parity vector rules out membership"
        )
    if core.is_identity(g):
        return WidthResult(DECOMPOSED, expressions.commutator_product(preset, ()), target)
    comm = commutator_set(preset, budget.radius, max_set=budget.max_set)

    def build(pairs):
        factors = tuple(expressions.CommutatorFactor(x, y) for x, y in pairs)
        expr = expressions.commutator_product(preset, factors)
        if not expr.verify(target):
            raise AssertionError("commutator decomposition failed verification")
        return WidthResult(DECOMPOSED, expr, target)

    if budget.factor_cap >= 1 and g in comm:
        return build([comm[g]])
    if budget.factor_cap >= 2:
        for c, f in sorted(comm.items(), key=lambda kv: kv[1]):
            rest = core.multiply(core.invert(c), g)
            if rest in comm:
                return build([f, comm[rest]])
            if deadline.expired():
                return WidthResult(INCONCLUSIVE, None, target, "time budget")
    return WidthResult(
        INCONCLUSIVE, None, target, f"no decomposition within budget {budget}"
    )


def _word_of(g, preset):
    if g.word is not None:
        return g.word
    b = enumeration.ball(preset, 8)
    if g in b.entries:
        return b.entries[g][1]
    raise ValueError("element has no known word; pass one explicitly")


# ----------------------------------------------------------------------
# palindromic width


def _palindromic_splits(word):
    """Minimal split of a word into palindromic substrings, by DP."""
    n = len(word)
    if n == 0:
        return []
    is_pal = [[False] * n for _ in range(n)]
    for i in range(n):
        is_pal[i][i] = True
    for ln in range(2, n + 1):
        for i in range(n - ln + 1):
            j = i + ln - 1
            if word[i] == word[j] and (ln == 2 or is_pal[i + 1][j - 1]):
                is_pal[i][j] = True
    best = [None] * (n + 1)
    best[0] = []
    for j in range(1, n + 1):
        for i in range(j):
            if best[i] is not None and is_pal[i][j - 1]:
                cand = best[i] + [word[i:j]]
                if best[j] is None or len(cand) < len(best[j]):
                    best[j] = cand
    return best[n]


def palindromic_width(g, budget=None, preset=None, word=None):
    """Express g as at most factor_cap palindromic words.

    Element-level search handles up to three factors; the syntactic
    fallback splits a geodesic word into palindromic blocks, which always
    succeeds and rarely needs more than four blocks at desk scale.
    """
    preset = preset or g.preset
    for spec in preset.generator_specs:
        if not spec["involution"]:
            raise ValueError("palindromic width needs an all-involution generating set")
    budget = budget or SearchBudget(radius=4, factor_cap=5)
    target = g
    if core.is_identity(g):
        return WidthResult(DECOMPOSED, expressions.palindrome_product(preset, ()), target)

    def build(pal_words):
        factors = tuple(expressions.PalindromeFactor(w) for w in pal_words)
        expr = expressions.palindrome_product(preset, factors)
        if not expr.verify(target):
            raise AssertionError("palindrome decomposition failed verification")
        return WidthResult(DECOMPOSED, expr, target)

    pal = palindrome_set(preset, budget.radius)
    if budget.factor_cap >= 1 and g in pal:
        return build([pal[g]])
    if budget.factor_cap >= 2:
        for c, w in sorted(pal.items(), key=lambda kv: kv[1]):
            rest = core.multiply(core.invert(c), g)
            if rest in pal:
                return build([w, pal[rest]])
    word = word or _word_of(g, preset)
    blocks = _palindromic_splits(word)
    if blocks is not None and len(blocks) <= budget.factor_cap:
        return build(blocks)
    return WidthResult(
        INCONCLUSIVE, None, target, f"no decomposition within budget {budget}"
    )


def palindrome_conjugate_check(max_length, preset=None):
    """Exhaustively relate palindromic words to conjugates of generators.

    Every odd palindrome u x u-reversed must equal the conjugate of its
    middle letter by the inverse of u; every even palindrome must reduce to
    the empty word.  Returns the list of violations (empty on involutive
    generating sets).
    """
    preset = preset or core.load_preset("grigorchuk")
    alphabet = [s["label"] for s in preset.generator_specs]
    violations = []
    checked = 0
    max_arm = (max_length - 1) // 2
    arms = [""]
    frontier = [""]
    for _ in range(max_arm):
        frontier = [w + ch for w in frontier for ch in alphabet]
        arms.extend(frontier)
    for u in arms:
        # even palindromes u + reverse(u)
        p = u + words.invert_word(u)
        if len(p) <= max_length:
            checked += 1
            if words.reduce(p, preset) != "":
                violations.append((p, "even palindrome does not reduce to identity"))
        # odd palindromes u + x + reverse(u)
        for x in alphabet:
            p = u + x + words.invert_word(u)
            if len(p) > max_length:
                continue
            checked += 1
            elem = core.evaluate(preset, p)
            conj = core.conjugate(
                preset.atoms[x], core.evaluate(preset, words.invert_word(u))
            )
            if not core.equals(elem, conj):
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
# infinite dihedral sanity preset (independent word-based engine)


def dihedral_reduce(word):
    out = []
    for ch in word:
        if ch not in "rs":
            raise ValueError(f"dihedral words use 'r' and 's', got {ch!r}")
        if out and out[-1] == ch:
            out.pop()
        else:
            out.append(ch)
    return "".join(out)


def dihedral_elements(max_length):
    out = [""]
    for n in range(1, max_length + 1):
        for first in "rs":
            w = "".join(first if i % 2 == 0 else ("s" if first == "r" else "r") for i in range(n))
            out.append(w)
    return out


def dihedral_conjugate_decomposition(word):
    """At most 2 conjugates of r and s multiplying to the given element.

    Odd alternating words are palindromes, hence single conjugates of their
    middle letter; even ones split off their first letter.  Verified by the
    dihedral normal form.
    """
    w = dihedral_reduce(word)
    if not w:
        return []
    if len(w) % 2 == 1:
        mid = len(w) // 2
        u = w[:mid]
        return [(w[mid], u[::-1])]
    head, rest = w[0], w[1:]
    mid = len(rest) // 2
    u = rest[:mid]
    return [(head, ""), (rest[mid], u[::-1])]


def dihedral_width_report(max_length):
    """Decompose every dihedral element of length <= max_length."""
    rows = []
    for w in dihedral_elements(max_length):
        factors = dihedral_conjugate_decomposition(w)
        recomposed = dihedral_reduce(
            "".join(z[::-1] + x + z for x, z in factors)
        )
        if recomposed != w:
            raise AssertionError(f"dihedral decomposition failed for {w!r}")
        rows.append((w, len(factors)))
    worst = max((k for _, k in rows), default=0)
    return rows, worst
