"""Exact ball enumeration, word growth tables and level-1 stabiliser counts.

A ball of radius n maps each element to its geodesic length and one geodesic
word.  Growth counts are deduplicated twice: once through canonical
interning (object identity) and once as the image of the ball in a level
quotient, built from leaf permutations of the raw generator table, and the
two counts must agree.
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


def ball(preset, n, threads=1):
    """Deduplicated ball of radius n with geodesic words.

    Breadth-first, one sphere at a time: a new element keeps the least of
    its words that extend a word of the previous sphere by one generator,
    so the content is a pure function of (preset, n).  An extension whose
    last two letters form a certified pair rule is not multiplied: it
    equals a word at most as long, already in the ball.  `threads` must be
    at least 1 and has no effect; the ball is always built serially.
    """
    if n < 0:
        raise ValueError("radius must be >= 0")
    if threads < 1:
        raise ValueError("threads must be >= 1")
    entries = {preset.identity: (0, "")}
    frontier = [(preset.identity, "")]
    gens = [(label, preset.atoms[label]) for label in preset.gen_labels]
    rules = preset.pair_rules
    for level in range(1, n + 1):
        candidates = {}
        for elem, word in frontier:
            last = word[-1:]
            for label, g in gens:
                if last + label in rules:
                    continue
                ne = core.multiply(elem, g)
                if ne in entries:
                    continue
                nw = word + label
                cur = candidates.get(ne)
                if cur is None or nw < cur:
                    candidates[ne] = nw
        fresh = sorted(candidates.items(), key=lambda kv: kv[1])
        for elem, word in fresh:
            entries[elem] = (level, word)
        frontier = fresh
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


def growth_table(preset, n_max):
    """Growth function rows (n, gamma(n)) for n <= n_max.

    The canonical-key counts of the ball must coincide with the independent
    leaf-permutation counts, which start at default_action_depth(n_max).
    Distinct level actions are distinct elements, so a level count above a
    canonical one is a fault; one below it may only mean the level is too
    shallow, so the check deepens one level at a time while every level
    count is at most the canonical one and the level has fewer than
    MAX_CHECK_LEAVES leaves.  A disagreement that remains raises
    DedupMismatchError.
    """
    ball_ = ball(preset, n_max)
    rows = [(n, ball_.count_within(n)) for n in range(n_max + 1)]
    depth = default_action_depth(n_max)
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
    return GrowthTable(rows)


# ----------------------------------------------------------------------
# membership counts


def membership_counts(ball_, filt):
    """Count the ball members in the level-1 stabiliser, the one filter: "st1"."""
    if filt != "st1":
        raise ValueError(f"unknown filter {filt!r}; expected 'st1'")
    fixed = tuple(range(ball_.preset.arity))
    return sum(1 for e in ball_.entries if e.perm == fixed)
