"""Exact ball enumeration, word growth tables and level-1 stabiliser counts.

A ball of radius n maps each element to its geodesic length and one geodesic
word.  Its one breadth-first walk, `spheres`, deduplicates on the intern key
(permutation, interned sections) and interns nothing itself, so readers
that need only counts, words or sections intern nothing at the top level.
Growth counts are deduplicated twice: once on that key and once as the
image of the ball in a level quotient, built from leaf permutations of the
raw generator table, and the two counts must agree.
"""

from __future__ import annotations

import math

from . import core


class DedupMismatchError(RuntimeError):
    """The two deduplication paths disagreed; a correctness bug somewhere."""


class Ball:
    """Elements of B(radius), each with its geodesic length and word.

    `entries` is kept in (length, word) order: `ball` inserts each sphere
    sorted by word after the shorter ones, and a sub-ball filters that
    order, so no caller needs to sort it again.
    """

    def __init__(self, preset, radius, entries):
        self.preset = preset
        self.radius = radius
        self.entries = entries  # Element -> (geodesic length, word)

    def __len__(self):
        return len(self.entries)

    def sorted_items(self):
        """Entries ordered by (length, word); the canonical iteration order."""
        return list(self.entries.items())

    def count_within(self, n):
        return sum(1 for ln, _ in self.entries.values() if ln <= n)


class GrowthTable:
    def __init__(self, rows):
        self.rows = rows  # (n, gamma)

    def to_csv(self):
        lines = ["n,gamma"]
        lines.extend(f"{n},{g}" for n, g in self.rows)
        return "\n".join(lines) + "\n"


def spheres(preset, n):
    """The spheres S(0), ..., S(n) of the Cayley graph, breadth-first.

    Yields each sphere as a list of ((perm, sections), word) sorted by
    word: the shape of an element, its wreath recursion, and the least of
    its words that extend a word of the previous sphere by one generator,
    so the content is a pure function of (preset, n).  The order holds by
    construction: the previous sphere is extended in word order by the
    generators in label order, so extensions come in increasing word order
    and the first word that reaches a new shape is its least one.  x*g is
    one wreath step on x's shape, with sections multiplied by the product
    kernel; the sections are interned, so the shape is the element's intern
    key and deduplication on shapes is deduplication in the group.  Nothing
    at the top level is interned or memoised: a caller interns with
    `preset.make_element(*shape)` only the elements it keeps.  An extension
    whose last two letters form a certified pair rule is skipped: it equals
    a word at most as long, already met.
    """
    if n < 0:
        raise ValueError("radius must be >= 0")
    one, mul = preset.identity, preset._mul
    composed, compose = preset._composed, preset.compose_perms
    gens = [(label, preset.atoms[label]) for label in sorted(preset.gen_labels)]
    rules = preset.pair_rules
    # a word's last letter -> (label, perm, sections) of the generators that may follow it
    follow = {
        last: [(label, g.perm, g.sections) for label, g in gens if last + label not in rules]
        for last in ["", *preset.gen_labels]
    }
    sphere = [((one.perm, one.sections), "")]
    seen = {sphere[0][0]}
    yield sphere
    for _ in range(n):
        prev, sphere = sphere, []
        for (perm, sections), word in prev:
            get = sections.__getitem__
            for label, gp, gs in follow[word[-1:]]:
                p = composed.get((perm, gp)) or compose(perm, gp)
                # map, not a comprehension: no frame per product
                shape = (p, tuple(map(mul, map(get, gp), gs)))
                if shape not in seen:
                    seen.add(shape)
                    sphere.append((shape, word + label))
        yield sphere


def ball(preset, n, threads=1):
    """Deduplicated ball of radius n with geodesic words.

    The elements of `spheres(preset, n)`, interned, each with its sphere
    index and word.  `threads` must be at least 1 and has no effect; the
    ball is always built serially.
    """
    if threads < 1:
        raise ValueError("threads must be >= 1")
    make = preset.make_element
    entries = {}
    for level, sphere in enumerate(spheres(preset, n)):
        for shape, word in sphere:
            entries[make(*shape)] = (level, word)
    return Ball(preset, n, entries)


# the growth cross-check deepens only to levels with fewer leaves than this
MAX_CHECK_LEAVES = 4096


def default_action_depth(n):
    """Depth used by the second deduplication path for radius-n balls."""
    return max(1, math.ceil(math.log2(max(n, 2)))) + 2


def independent_gamma(preset, n_max, depth):
    """Growth counts by leaf-permutation dedup in the level-`depth` quotient.

    Uses no Element arithmetic at all: the generators' actions on level
    `depth` come straight from the generator table, and the image of B(n)
    is the radius-n ball of the quotient's Cayley graph on them, counted by
    breadth-first search.
    """
    moves = [
        core.right_mul(core.word_leaf_permutation(preset, label, depth))
        for label in preset.gen_labels
    ]
    _, sizes = core.closure([core.state(range(preset.arity**depth))], moves, radius=n_max)
    return list(enumerate(sizes))


def cross_check(preset, rows):
    """Raise DedupMismatchError unless the level-action counts equal `rows`.

    `rows` are the canonical counts (n, |B(n)|) for n = 0 .. n_max; the
    independent leaf-permutation counts start at default_action_depth(n_max),
    or, if that level is too wide, at the deepest level (at least 1) with
    fewer than MAX_CHECK_LEAVES leaves.  Distinct level actions are distinct
    elements, so a level count above a canonical one is a fault; one below
    it may only mean the level is too shallow, so the check deepens one
    level at a time while every level count is at most the canonical one
    and the level has fewer than MAX_CHECK_LEAVES leaves.  A disagreement
    that remains raises.
    """
    n_max = rows[-1][0]
    depth = default_action_depth(n_max)
    while depth > 1 and preset.arity**depth >= MAX_CHECK_LEAVES:
        depth -= 1
    other = independent_gamma(preset, n_max, depth)
    while (
        other != rows
        and all(level <= canon for (_, canon), (_, level) in zip(rows, other))
        and preset.arity ** (depth + 1) < MAX_CHECK_LEAVES
    ):
        depth += 1
        other = independent_gamma(preset, n_max, depth)
    if other != rows:
        raise DedupMismatchError(
            f"canonical dedup {rows} != level-action dedup {other} at depth {depth}"
        )


def growth_table(preset, n_max):
    """Growth function rows (n, gamma(n)) for n <= n_max, cross-checked.

    The canonical counts are the running sizes of the spheres, deduplicated
    on the intern key without interning; `cross_check` holds them to the
    level-action counts.
    """
    rows, total = [], 0
    for n, sphere in enumerate(spheres(preset, n_max)):
        total += len(sphere)
        rows.append((n, total))
    cross_check(preset, rows)
    return GrowthTable(rows)


# ----------------------------------------------------------------------
# membership counts


def membership_counts(ball_, filt):
    """Count the ball members in the level-1 stabiliser, the one filter: "st1"."""
    if filt != "st1":
        raise ValueError(f"unknown filter {filt!r}; expected 'st1'")
    fixed = tuple(range(ball_.preset.arity))
    return sum(1 for e in ball_.entries if e.perm == fixed)
