import json
import random
from collections import Counter

import pytest

from griglab import conjugacy, constructions, core, enumeration
from griglab.conjugacy import (
    class_partition,
    conj_growth_table,
    conjugator_search,
    depth_invariant,
    quotient_separated,
    subball,
)


def test_invariant_of_identity_is_all_trivial(ball6):
    # the members sharing the identity's depth-m invariant are exactly the
    # members that fix level m
    gs_ball = enumeration.ball(core.load_preset("gupta-sidki-3"), 4)
    for ball_ in (ball6, gs_ball):
        one = ball_.preset.identity
        for m in range(6):
            fixed = core.level_action(one, m)
            trivial = [e for e in ball_.entries if depth_invariant(e, m) == depth_invariant(one, m)]
            assert trivial == [e for e in ball_.entries if core.level_action(e, m) == fixed]


def test_invariant_constant_on_conjugates(grig):
    a = grig.atom("a")
    twisted = core.conjugate(a, grig.atom("b"))
    for m in range(9):
        assert depth_invariant(a, m) == depth_invariant(twisted, m)


def test_invariant_separates_activity(grig):
    assert depth_invariant(grig.atom("a"), 1) != depth_invariant(grig.atom("b"), 1)


def test_invariant_refines_with_depth(grig, ball6):
    members = [e for e, _ in ball6.sorted_items()]
    for m in range(1, 7):
        coarse = {}
        for e in members:
            coarse.setdefault(depth_invariant(e, m - 1), set()).add(
                depth_invariant(e, m)
            )
        fine_keys = [depth_invariant(e, m) for e in members]
        # each depth-m bucket maps into exactly one depth-(m-1) bucket
        owner = {}
        for e in members:
            k = depth_invariant(e, m)
            prev = depth_invariant(e, m - 1)
            assert owner.setdefault(k, prev) == prev
        assert len(set(fine_keys)) >= len(coarse)


def _binary_invariant(x, m, memo):
    # the binary-only formula the first-return invariant replaced
    if m == 0:
        return ("u",)
    if (x, m) not in memo:
        s0, s1 = x.sections
        if x.perm == (0, 1):
            pair = sorted(_binary_invariant(s, m - 1, memo) for s in (s0, s1))
            memo[(x, m)] = ("p", *pair)
        else:
            memo[(x, m)] = ("a", _binary_invariant(core.multiply(s0, s1), m - 1, memo))
    return memo[(x, m)]


def test_invariant_partitions_grigorchuk_as_the_binary_formula(grig):
    members = list(enumeration.ball(grig, 10).entries)
    memo = {}
    for m in range(9):
        pairs = {(_binary_invariant(e, m, memo), depth_invariant(e, m)) for e in members}
        # a bijection between the two sets of keys: the same partition
        assert len({old for old, _ in pairs}) == len({new for _, new in pairs}) == len(pairs)
    assert len(pairs) == 30


def test_invariant_constant_on_conjugates_in_gupta_sidki_3():
    gs = core.load_preset("gupta-sidki-3")
    pool = [e for e, _ in enumeration.ball(gs, 4).sorted_items()]
    rng = random.Random(3)
    for _ in range(200):
        x, z = rng.choice(pool), rng.choice(pool)
        y = core.conjugate(x, z)
        for m in range(7):
            assert depth_invariant(x, m) == depth_invariant(y, m)
    # t and ut rotate the root alike; their first returns, 1 and a conjugate
    # of u = (t, s, u), differ at depth 2
    t, ut = gs.atom("t"), core.evaluate(gs, "ut")
    assert depth_invariant(t, 2) == depth_invariant(ut, 2)
    assert depth_invariant(t, 3) != depth_invariant(ut, 3)


def test_bucket_level_is_the_deepest_quotient_within_the_cap(grig):
    gs = core.load_preset("gupta-sidki-3")
    assert conjugacy.bucket_level(grig) == 4  # |G_4| = 4,096, |G_5| = 2^22
    assert conjugacy.bucket_level(gs) == 3  # |G_3| = 3^7, |G_4| = 3^19
    # a finite group: G_1 = G_2 = C_3, so every deeper level is G_1 as well
    rotation = {"label": "r", "involution": False, "perm": [1, 2, 0], "sections": ["1"] * 3}
    assert conjugacy.bucket_level(core.GroupPreset("cyclic-3", 3, [rotation])) == 1


def test_bucket_level_stops_at_a_leaf_orbit_over_the_cap():
    # the binary adding machine acts on each level as one cycle, so its
    # level-14 leaf orbit of 16,384 ends the search before that basis
    spec = {"label": "s", "involution": False, "perm": [1, 0], "sections": ["1", "s"]}
    adding = core.GroupPreset("adding-machine", 2, [spec])
    assert conjugacy.bucket_level(adding) == 13  # |G_13| = 2^13
    assert max(adding.cache("layered_basis")) == 13


def test_conjugator_search_examples(grig):
    a = grig.atom("a")
    bab = core.evaluate(grig, "bab")
    assert conjugator_search(a, bab, 1) == "b"
    assert conjugator_search(a, grig.atom("b"), 6) is None
    y = core.conjugate(grig.atom("b"), core.evaluate(grig, "aba"))
    z = conjugator_search(grig.atom("b"), y, 3)
    assert z is not None
    assert core.equals(core.conjugate(grig.atom("b"), core.evaluate(grig, z)), y)


def test_no_registry_entry_keeps_a_half_table():
    # a search's half tables and a partition's walk live for one call
    fresh = core.GroupPreset("grigorchuk", 2, core.GRIGORCHUK_SPECS)
    conj_growth_table(fresh, 6, depth=4, radius=4)
    registry = set(fresh._caches)
    assert conjugator_search(fresh.atom("a"), fresh.atom("b"), 6) is None
    assert set(fresh._caches) == registry
    assert registry == {
        "depth_invariant", "depth_invariant_ids", "quotient_class_table", "layered_basis",
    }


def _full_table_search(x, y, radius, tables):
    # the meet in the middle with both half tables built in full, scanning
    # the right one in (length, word) order: the reference for the search's
    # first-hit scan and streamed right half; returns (u, v) or None
    preset = x.preset
    r1 = (radius + 1) // 2
    r2 = radius - r1
    words = [w for sphere in enumeration.spheres(preset, r1) for _, w in sphere]
    left = tables.get(("left", x, r1))
    if left is None:
        left = tables["left", x, r1] = {}
        for u in words:
            left.setdefault(core.conjugate(x, core.evaluate(preset, u)), u)
    right = tables.get(("right", y, r2))
    if right is None:
        right = tables["right", y, r2] = [
            (core.conjugate(y, core.invert(core.evaluate(preset, v))), v)
            for v in words
            if len(v) <= r2
        ]
    for target, v in right:
        u = left.get(target)
        if u is not None:
            return u, v
    return None


# at radius 4 a witness may need a non-empty right word, so the path past
# the scan runs; at radius 6 every witness of two B(5) elements is in B(3)
@pytest.mark.parametrize("radius, right_hits", [(4, 16), (6, 0)])
def test_first_hit_scan_matches_the_full_tables(radius, right_hits):
    # every path of the search: a left scan that stops at y, and one that
    # ends and streams the right half to a hit or to its end
    preset = core.GroupPreset("grigorchuk", 2, core.GRIGORCHUK_SPECS)
    members = list(enumeration.ball(preset, 5).entries)
    tables, found = {}, []
    for x in members:
        for y in reversed(members):
            if x is y:
                continue
            expected = _full_table_search(x, y, radius, tables)
            if expected is None:
                assert conjugator_search(x, y, radius) is None
            else:
                assert conjugator_search(x, y, radius) == "".join(expected)
                found.append(expected)
    assert len(members) * (len(members) - 1) == 4556
    assert len(found) == 308
    assert sum(1 for _, v in found if v) == right_hits


def test_search_success_implies_equal_invariants(grig, ball6):
    rng = random.Random(9)
    pool = [e for e, _ in ball6.sorted_items()]
    found = 0
    for _ in range(300):
        x, y = rng.choice(pool), rng.choice(pool)
        z = conjugator_search(x, y, 4)
        if z is None:
            continue
        found += 1
        for m in range(11):
            assert depth_invariant(x, m) == depth_invariant(y, m)
    assert found > 20


def test_class_partition_ball1(grig):
    part = class_partition(enumeration.ball(grig, 1), 4, 4)
    assert part.lower == part.upper == 5
    assert part.exact


def test_class_partition_ball0(grig):
    part = class_partition(enumeration.ball(grig, 0), 4, 4)
    assert part.lower == part.upper == 1


def test_bracket_validity_and_witnesses(grig, ball6):
    part = class_partition(ball6, 6, 6)
    assert part.lower <= part.upper
    for (wx, wy), z in part.witnesses.items():
        x, y = core.evaluate(grig, wx), core.evaluate(grig, wy)
        assert core.equals(core.conjugate(x, core.evaluate(grig, z)), y)


def test_escalation_never_increases_upper(grig, ball6):
    small = class_partition(ball6, 6, 2)
    big = class_partition(ball6, 6, 4)
    assert big.upper <= small.upper


def test_conj_growth_rows(grig, ball8):
    rows = conj_growth_table(grig, 8, depth=8, radius=6, ball_=ball8, escalate_to=8)
    by_n = {r.n: r for r in rows}
    assert (by_n[0].lower, by_n[0].upper, by_n[0].exact) == (1, 1, True)
    assert (by_n[1].lower, by_n[1].upper, by_n[1].exact) == (5, 5, True)
    for r in rows:
        assert r.lower <= r.upper
        assert r.upper <= ball8.count_within(r.n)


def test_conj_growth_table_reads_every_row_off_one_partition(grig, monkeypatch):
    calls = []
    real = conjugacy.class_partition
    monkeypatch.setattr(
        conjugacy, "class_partition", lambda *a, **kw: calls.append(a) or real(*a, **kw)
    )
    rows = conj_growth_table(grig, 10, depth=8, radius=6, escalate_to=8)
    assert len(calls) == 1
    assert [(r.lower, r.upper, r.exact) for r in rows[:10]] == [
        (f, f, True) for f in (1, 5, 8, 8, 14, 14, 20, 20, 32, 32)
    ]
    assert rows[10].lower == 38 and rows[10].upper <= 43


def test_unresolved_lists_only_unseparated_pairs(grig):
    # the conjgrowth --max-length 10 --depth 8 --radius 6 partition
    part = class_partition(enumeration.ball(grig, 10), 8, 6)
    assert part.upper > part.lower
    assert len(part.unresolved) == part.upper - part.lower
    for wx, wy in part.unresolved:
        x, y = core.evaluate(grig, wx), core.evaluate(grig, wy)
        assert not quotient_separated(x, y, conjugacy.SEPARATION_LEVEL)


@pytest.mark.parametrize("name, n, pairs", [("grigorchuk", 10, 2868), ("gupta-sidki-3", 9, 1142)])
def test_the_graph_covers_the_radius_6_search(name, n, pairs):
    # no two members of a bucket that the graph on B(n + 6) leaves in
    # different classes are conjugate by a word of length at most 6
    preset = core.load_preset(name)
    ball_ = enumeration.ball(preset, n)
    part = class_partition(ball_, 8, 6)
    by_word = {w: e for e, (_, w) in ball_.entries.items()}
    class_of = {e: e for e in part.classes}
    for wy, wx in part.witnesses:
        class_of[by_word[wy]] = by_word[wx]
    level = conjugacy.bucket_level(preset)
    buckets = {}
    for e in ball_.entries:
        key = (depth_invariant(e, 8), conjugacy.quotient_class_id(e, level))
        buckets.setdefault(key, []).append(e)
    checked = 0
    for group in buckets.values():
        for i, x in enumerate(group):
            for y in group[i + 1 :]:
                if class_of[x] is not class_of[y]:
                    checked += 1
                    assert conjugator_search(y, x, 6) is None
    assert checked == pairs


def test_a_conjugate_in_another_bucket_is_a_fault(grig, monkeypatch):
    ball_ = enumeration.ball(grig, 3)
    # a key that is no class function: it parts b from its conjugate aba
    monkeypatch.setattr(conjugacy, "depth_invariant", lambda x, m: ball_.entries[x][0] == 1)
    monkeypatch.setattr(conjugacy, "quotient_class_id", lambda x, m: 0)
    with pytest.raises(AssertionError, match="'b', 'aba' in different buckets"):
        class_partition(ball_, 8, 0)


def test_conj_rows_csv(grig, ball8):
    rows = conj_growth_table(grig, 2, depth=6, radius=6, ball_=ball8)
    csv = conjugacy.conj_rows_to_csv(rows)
    assert csv.startswith("n,lower,upper,exact\n0,1,1,true\n1,5,5,true\n")


def test_quotient_separation_is_sound(grig, ball6):
    # merged pairs must never be separated by any quotient level
    part = class_partition(ball6, 6, 6)
    assert len(part.witnesses) == 88
    for wx, wy in part.witnesses:
        x, y = core.evaluate(grig, wx), core.evaluate(grig, wy)
        for m in (3, 4, 5):
            assert not quotient_separated(x, y, m)


def test_residue_pairs_meet_at_radius_28(grig):
    # two of the B(16) pairs that level 8 leaves unseparated; the witnesses
    # are the first in the half tables' (length, word) order
    for wx, wy, z in [
        ("ababababadacad", "ababac", "adababacababacabababababad"),
        ("ababababacacac", "ababadacad", "dababababacacababababadabac"),
    ]:
        assert conjugator_search(core.evaluate(grig, wx), core.evaluate(grig, wy), 28) == z


def test_known_nonconjugate_pair_separates(grig):
    x = core.evaluate(grig, "ab")
    y = core.evaluate(grig, "ababab")
    assert conjugator_search(x, y, 8) is None
    assert quotient_separated(x, y, 4)


def test_subball(grig, ball8):
    sub = subball(ball8, 3)
    assert len(sub) == ball8.count_within(3)
    with pytest.raises(ValueError):
        subball(sub, 5)


def test_quotient_class_tables(grig):
    for m, classes, order in ((3, 20, 128), (4, 61, 4096)):
        quotient = constructions.level_quotient(grig, m)
        ids = {conjugacy.quotient_class(grig, m, s) for s in quotient}
        assert len(quotient) == order
        assert len(ids) == classes
        assert conjugacy.quotient_class_table(grig, m).keys() == quotient


def _orbit(x, m):
    # independent of the lift: the conjugation orbit of x's level-m image
    moves = [core.conjugation(g) for g in core.generator_actions(x.preset, m)]
    orbit, _ = core.closure([core.state(core.level_action(x, m))], moves)
    return orbit


def _audit_lift(x, ys, m):
    """Lift and orbit agree on every pair (x, y); counts of each answer."""
    basis = conjugacy.layered_basis(x.preset, m)
    orbit = _orbit(x, m)
    x_perm = core.level_action(x, m)
    answers = Counter()
    for y in ys:
        lifted = conjugacy._layer_lift(x, y, m)
        assert (lifted is not None) == (core.state(core.level_action(y, m)) in orbit)
        if lifted is not None:
            g, centraliser = lifted
            assert core.compose(core.inverse(g), core.compose(x_perm, g)) == (
                core.level_action(y, m)
            )
            # |C(y)| * |class of y| = |G_m|
            assert basis.p ** len(centraliser) * len(orbit) == basis.order()
        answers[lifted is not None] += 1
    return answers


def test_lift_agrees_with_conjugation_orbits_on_grigorchuk(grig, ball8):
    by_class = {}
    for e, _ in ball8.sorted_items():
        by_class.setdefault(conjugacy.quotient_class_id(e, 4), []).append(e)
    for m in (3, 4):
        for group in by_class.values():
            assert _audit_lift(group[0], group, m)[False] == 0
    # the two level-4 classes of B(8) that level 5 splits; a level-5 orbit
    # has up to 131,072 states, so only their orbits are enumerated
    answers = Counter()
    for word in ("ababab", "ababac"):
        x = core.evaluate(grig, word)
        answers += _audit_lift(x, by_class[conjugacy.quotient_class_id(x, 4)], 5)
    assert answers == {True: 16, False: 16}


def test_lift_agrees_with_conjugation_orbits_on_gupta_sidki_3():
    gs = core.load_preset("gupta-sidki-3")
    members = [e for e, _ in enumeration.ball(gs, 4).sorted_items()]
    by_class = {}
    for e in members:
        by_class.setdefault(conjugacy.quotient_class_id(e, 2), []).append(e)
    answers = Counter()
    for group in by_class.values():
        for x in group[:2]:
            answers += _audit_lift(x, group, 3)
    assert answers[True] > 0 and answers[False] > 0


def test_lift_finds_planted_conjugates_past_the_orbits(grig, ball8):
    # |G_7| = 2^82, far past any orbit enumeration; y = x^z is conjugate to x
    # in every quotient, so the lift must find a conjugator there, and the
    # centralisers of x and y must have the same order
    rng = random.Random(7)
    members = [e for e, _ in ball8.sorted_items()]
    for _ in range(40):
        x, z = rng.choice(members), rng.choice(members)
        y = core.conjugate(x, z)
        for m in (6, 7):
            lifted = conjugacy._layer_lift(x, y, m)
            assert lifted is not None
            assert len(lifted[1]) == len(conjugacy._layer_lift(x, x, m)[1])


def test_quotient_separated_rejects_mixed_presets(grig):
    gs = core.load_preset("gupta-sidki-3")
    with pytest.raises(core.MixedPresetError):
        quotient_separated(grig.atom("a"), gs.atom("t"), 3)


# ----------------------------------------------------------------------
# a ground truth for the bracket: finitary presets, where every section
# names an earlier generator or 1, so the group is finite and acts
# faithfully on level k, the depth of its deepest generator: G = G_k


def _spec(label, perm, sections, involution):
    return {"label": label, "involution": involution, "perm": perm, "sections": sections}


FINITARY = {  # name -> (arity, generators, ball radius)
    # the Sylow 2-subgroup of S_16, of order 2^15
    "sylow-2-s16": (2, [
        _spec("a", [1, 0], ["1", "1"], True),
        _spec("b", [0, 1], ["a", "1"], True),
        _spec("c", [0, 1], ["b", "1"], True),
        _spec("d", [0, 1], ["c", "1"], True),
    ], 6),
    # C_3 wr C_3, of order 81 with 17 classes; B(10) is the whole group
    "c3-wr-c3": (3, [
        _spec("a", [1, 2, 0], ["1", "1", "1"], False),
        _spec("b", [0, 1, 2], ["a", "1", "1"], False),
    ], 10),
    # C_2 wr C_2 wr C_2, the Sylow 2-subgroup of S_8, of order 128 with 20
    # classes, from a generator with two nontrivial sections
    "sylow-2-s8": (2, [
        _spec("a", [1, 0], ["1", "1"], True),
        _spec("b", [0, 1], ["a", "1"], True),
        _spec("c", [0, 1], ["a", "b"], True),
    ], 10),
}


def _finitary_depth(specs):
    depth = {"1": 0}
    for s in specs:  # sections name earlier generators
        depth[s["label"]] = 1 + max(depth[t] for t in s["sections"])
    return max(depth.values())


def _true_class_counts(ball_, k):
    """The number of conjugacy classes of G = G_k that meet B(n), per n."""
    moves = [core.conjugation(g) for g in core.generator_actions(ball_.preset, k)]
    class_of, first_met = {}, []
    for e, (n, _) in ball_.sorted_items():
        s = core.state(core.level_action(e, k))
        if s not in class_of:
            orbit, _ = core.closure([s], moves)
            class_of.update(dict.fromkeys(orbit, len(first_met)))
            first_met.append(n)
    return [sum(m <= n for m in first_met) for n in range(ball_.radius + 1)]


def _bracket_violations(name, radius):
    """Rows of the CLI's partition at `radius` that miss the true count."""
    arity, specs, n = FINITARY[name]
    preset = core.GroupPreset(name, arity, specs)
    ball_ = enumeration.ball(preset, n)
    truth = _true_class_counts(ball_, _finitary_depth(specs))
    rows = class_partition(ball_, 8, radius, escalate_to=radius + 2).rows()
    return [
        (r.n, r.lower, r.upper, t)
        for r, t in zip(rows, truth)
        if not r.lower <= t <= r.upper or (r.exact and r.lower != t)
    ]


@pytest.mark.parametrize("radius", [0, 6])
@pytest.mark.parametrize("name", sorted(FINITARY))
def test_brackets_contain_the_true_class_counts_of_finitary_presets(name, radius):
    assert _bracket_violations(name, radius) == []


def test_conjgrowth_on_a_finitary_preset_file_is_exact_and_true(tmp_path, capsys):
    from griglab import cli

    arity, specs, n = FINITARY["c3-wr-c3"]
    group = tmp_path / "c3-wr-c3.json"
    group.write_text(json.dumps(
        {"schema": "asg-1", "name": "c3-wr-c3", "arity": arity, "generators": specs}
    ))
    # the subcommand cross-checks its ball against the second dedup path
    argv = ["conjgrowth", "--group", str(group), "--max-length", str(n), "--radius", "6"]
    assert cli.main(argv) == 0
    preset = core.GroupPreset("c3-wr-c3", arity, specs)
    truth = _true_class_counts(enumeration.ball(preset, n), _finitary_depth(specs))
    assert truth[-1] == 17
    assert capsys.readouterr().out.splitlines()[1:] == [
        f"{i},{t},{t},true" for i, t in enumerate(truth)
    ]


def test_the_true_class_counts_catch_a_wrong_separation(monkeypatch):
    # a separation that always answers "not conjugate" overcounts the
    # classes, which only a run that merges nothing is sure to show: the
    # graph on B(n) alone already merges every class of these presets.  So
    # every conjugation step leaves the walked ball.
    monkeypatch.setattr(conjugacy, "quotient_separated", lambda x, y, m: True)
    monkeypatch.setattr(conjugacy, "_conjugation_step", lambda preset: lambda s: [("a", None)])
    for name in FINITARY:
        assert _bracket_violations(name, 0)
