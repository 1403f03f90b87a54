"""Exact ball enumeration, word growth tables, filters and disk caching.

A ball of radius n maps each element to its geodesic length and one geodesic
word.  Growth counts are deduplicated twice: once through canonical
interning (object identity) and once as the image of the ball in a level
quotient, built from leaf permutations of the raw generator table, and the
two counts must agree.
"""

from __future__ import annotations

import json
import math
import struct
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

from . import core, words

BALL_FORMAT = "ballv1"
BALL_VERSION = 1


class BallBudgetError(RuntimeError):
    """Enumeration ran out of budget; carries the last complete radius."""

    def __init__(self, message, last_complete):
        super().__init__(message)
        self.last_complete = last_complete


class DedupMismatchError(RuntimeError):
    """The two deduplication paths disagreed; a correctness bug somewhere."""


class FilterUnavailableError(RuntimeError):
    """A membership filter cannot be evaluated yet."""


@dataclass
class Ball:
    preset: object
    radius: int
    entries: dict = field(repr=False)  # Element -> (geodesic length, word)

    def __len__(self):
        return len(self.entries)

    def __contains__(self, element):
        return element in self.entries

    def sorted_items(self):
        """Entries ordered by (length, word); the canonical iteration order."""
        return sorted(self.entries.items(), key=lambda kv: kv[1])

    def count_within(self, n):
        return sum(1 for ln, _ in self.entries.values() if ln <= n)


@dataclass
class GrowthTable:
    rows: list  # (n, gamma)

    def gamma(self, n):
        for m, g in self.rows:
            if m == n:
                return g
        raise KeyError(n)

    def to_csv(self):
        lines = ["n,gamma"]
        lines.extend(f"{n},{g}" for n, g in self.rows)
        return "\n".join(lines) + "\n"


def _expand_chunk(chunk, gens):
    out = {}
    for elem, word in chunk:
        for label, g in gens:
            ne = core.multiply(elem, g)
            nw = word + label
            cur = out.get(ne)
            if cur is None or nw < cur:
                out[ne] = nw
    return out


def ball(preset, n, threads=1, max_elements=None):
    """Deduplicated ball of radius n with geodesic words.

    The frontier is split into contiguous chunks of its sorted order and the
    chunks may be expanded by a worker pool; per-element minima are merged,
    so the content is a pure function of (preset, n) whatever the thread
    count.  Exceeding max_elements raises BallBudgetError carrying the last
    completed radius.
    """
    if n < 0:
        raise ValueError("radius must be >= 0")
    entries = {preset.identity: (0, "")}
    frontier = [(preset.identity, "")]
    gens = [(label, preset.atoms[label]) for label in preset.gen_labels]
    for level in range(1, n + 1):
        if threads > 1 and len(frontier) > 64:
            size = math.ceil(len(frontier) / threads)
            chunks = [frontier[i : i + size] for i in range(0, len(frontier), size)]
            with ThreadPoolExecutor(max_workers=threads) as pool:
                partials = list(pool.map(lambda ch: _expand_chunk(ch, gens), chunks))
        else:
            partials = [_expand_chunk(frontier, gens)]
        candidates = {}
        for part in partials:
            for elem, word in part.items():
                cur = candidates.get(elem)
                if cur is None or word < cur:
                    candidates[elem] = word
        fresh = [
            (elem, word) for elem, word in candidates.items() if elem not in entries
        ]
        fresh.sort(key=lambda kv: kv[1])
        for elem, word in fresh:
            entries[elem] = (level, word)
        if max_elements is not None and len(entries) > max_elements:
            raise BallBudgetError(
                f"ball exceeded {max_elements} elements at radius {level}",
                last_complete=level - 1,
            )
        frontier = fresh
    return Ball(preset, n, entries)


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
    _, sizes = core.closure([tuple(range(preset.arity**depth))], moves, radius=n_max)
    return list(enumerate(sizes))


def growth_table(preset, n_max, threads=1, ball_=None):
    """Growth function rows (n, gamma(n)) for n <= n_max.

    The canonical-key counts of the ball must coincide with the independent
    leaf-permutation counts at default_action_depth(n_max); any disagreement
    raises DedupMismatchError.  A given ball_ must have radius >= n_max.
    """
    if ball_ is None:
        ball_ = ball(preset, n_max, threads=threads)
    rows = [(n, ball_.count_within(n)) for n in range(n_max + 1)]
    depth = default_action_depth(n_max)
    other = independent_gamma(preset, n_max, depth)
    if other != rows:
        raise DedupMismatchError(
            f"canonical dedup {rows} != level-action dedup {other} at depth {depth}"
        )
    return GrowthTable(rows)


# ----------------------------------------------------------------------
# membership filters

FILTERS = ("st1", "derived", "k")


def in_level1_stabilizer(element):
    return element.perm == tuple(range(element.preset.arity))


def passes_derived_filter(word):
    """Sound direction only: a nonzero parity vector rules membership out."""
    return words.parity_vector(word) == (0, 0, 0)


def membership_counts(ball_, filt, k_test=None):
    """Count ball members passing a filter: "st1", "derived" or "k".

    The K filter needs a membership oracle; without one the branching data
    for the ball's preset is built on demand, and an unstabilized quotient
    model surfaces as FilterUnavailableError.
    """
    if filt not in FILTERS:
        raise ValueError(f"unknown filter {filt!r}; expected one of {FILTERS}")
    if filt == "st1":
        return sum(1 for e in ball_.entries if in_level1_stabilizer(e))
    if filt == "derived":
        return sum(
            1 for _, (_, w) in ball_.entries.items() if passes_derived_filter(w)
        )
    if k_test is None:
        from . import constructions

        try:
            data = constructions.branching_data(ball_.preset)
        except constructions.UnstabilizedError as exc:
            raise FilterUnavailableError(str(exc)) from exc
        k_test = data.k_membership
    return sum(1 for e in ball_.entries if k_test(e))


def geodesic_length(element, ball_):
    try:
        return ball_.entries[element][0]
    except KeyError:
        raise KeyError(
            f"element {element!r} lies outside the radius-{ball_.radius} ball"
        ) from None


# ----------------------------------------------------------------------
# disk cache
#
# Layout: one JSON header line, then per entry a 4-byte little-endian word
# length followed by the ASCII geodesic word and a 4-byte key length followed
# by the canonical key.  Entries are sorted by (length, word), which makes
# the file a pure function of the ball.


class BallCacheError(RuntimeError):
    """Version, preset or integrity mismatch in a ball cache file."""


def save_ball(ball_, path):
    header = {
        "format": BALL_FORMAT,
        "version": BALL_VERSION,
        "preset": ball_.preset.name,
        "arity": ball_.preset.arity,
        "radius": ball_.radius,
        "count": len(ball_.entries),
    }
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8") + b"\n")
        for elem, (_, word) in ball_.sorted_items():
            wb = word.encode("ascii")
            key = elem.key()
            fh.write(struct.pack("<I", len(wb)) + wb)
            fh.write(struct.pack("<I", len(key)) + key)


def load_ball(preset, path):
    """Reload a cached ball; bit-exact inverse of save_ball.

    Words are re-evaluated and their recomputed canonical keys must match
    the stored ones, so a stale or foreign cache cannot smuggle in wrong
    elements.
    """
    with open(path, "rb") as fh:
        header_line = fh.readline()
        try:
            header = json.loads(header_line.decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise BallCacheError(f"{path}: unreadable header") from exc
        if header.get("format") != BALL_FORMAT or header.get("version") != BALL_VERSION:
            raise BallCacheError(
                f"{path}: format {header.get('format')!r} v{header.get('version')!r}, "
                f"expected {BALL_FORMAT!r} v{BALL_VERSION!r}"
            )
        if header.get("preset") != preset.name or header.get("arity") != preset.arity:
            raise BallCacheError(
                f"{path}: cached for preset {header.get('preset')!r} "
                f"(arity {header.get('arity')!r}), not {preset.name!r}"
            )
        entries = {}
        for i in range(header["count"]):
            raw = fh.read(4)
            if len(raw) < 4:
                raise BallCacheError(f"{path}: truncated at entry {i}")
            (wlen,) = struct.unpack("<I", raw)
            wb = fh.read(wlen)
            raw = fh.read(4)
            if len(wb) < wlen or len(raw) < 4:
                raise BallCacheError(f"{path}: truncated at entry {i}")
            (klen,) = struct.unpack("<I", raw)
            key = fh.read(klen)
            if len(key) < klen:
                raise BallCacheError(f"{path}: truncated at entry {i}")
            word = wb.decode("ascii")
            elem = core.evaluate(preset, word)
            if elem.key() != key:
                raise BallCacheError(
                    f"{path}: key mismatch for word {word!r}; cache does not match preset"
                )
            if elem not in entries:
                entries[elem] = (len(word), word)
        if fh.read(1):
            raise BallCacheError(f"{path}: trailing data after {header['count']} entries")
    return Ball(preset, header["radius"], entries)
