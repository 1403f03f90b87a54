import itertools

import pytest

from griglab import core, enumeration, words
from griglab.conjugacy import subball
from griglab.enumeration import (
    Ball,
    DedupMismatchError,
    ball,
    growth_table,
    membership_counts,
)


def test_ball_sizes(grig):
    assert len(ball(grig, 0)) == 1
    assert len(ball(grig, 1)) == 5
    assert len(ball(grig, 2)) == 11


def test_ball_closure_invariant(grig, ball6):
    gens = [grig.atom(x) for x in grig.gen_labels]
    for e, (ln, _) in ball6.entries.items():
        if ln < ball6.radius:
            for g in gens:
                assert core.multiply(e, g) in ball6.entries


def _reference_ball(preset, n):
    """B(n) by plain BFS through core.multiply: every frontier element times
    every generator, each sphere in word order."""
    entries = {preset.identity: (0, "")}
    frontier = {preset.identity: ""}
    for level in range(1, n + 1):
        fresh = {}
        for elem, word in frontier.items():
            for label in preset.gen_labels:
                ne, nw = core.multiply(elem, preset.atom(label)), word + label
                if ne not in entries and (ne not in fresh or nw < fresh[ne]):
                    fresh[ne] = nw
        fresh = dict(sorted(fresh.items(), key=lambda kv: kv[1]))
        entries.update((e, (level, w)) for e, w in fresh.items())
        frontier = fresh
    return entries


@pytest.mark.parametrize(
    "name, n",
    [("grigorchuk", 10), ("gupta-sidki-3", 6), ("grigorchuk", 12), ("gupta-sidki-3", 8)],
)
def test_ball_skipping_pair_rules_matches_plain_bfs(name, n):
    # entry for entry and in the same order
    preset = core.load_preset(name)
    assert preset.pair_rules  # so ball could skip products
    assert list(ball(preset, n).entries.items()) == list(_reference_ball(preset, n).items())


@pytest.mark.parametrize("name, n", [("grigorchuk", 12), ("gupta-sidki-3", 8)])
def test_sphere_running_sizes_are_the_growth_rows(name, n):
    preset = core.load_preset(name)
    sizes = list(itertools.accumulate(len(s) for s in enumeration.spheres(preset, n)))
    assert list(enumerate(sizes)) == growth_table(preset, n).rows
    assert sizes == [ball(preset, n).count_within(k) for k in range(n + 1)]


def test_spheres_intern_no_element(grig):
    fresh = core.GroupPreset("grigorchuk", 2, core.GRIGORCHUK_SPECS)
    walked = list(enumeration.spheres(fresh, 6))
    shapes = [shape for sphere in walked for shape, _ in sphere]
    assert len(set(shapes)) == len(shapes) == len(ball(grig, 6))
    # the sections of a word of length 6 have length at most 3, so the walk
    # itself interns no element of length 4 to 6
    assert not any(shape in fresh._intern for sphere in walked[4:] for shape, _ in sphere)


def test_ball_entries_are_already_in_length_word_order(grig):
    ball10 = enumeration.ball(grig, 10)
    for b in (ball10, subball(ball10, 7)):
        assert b.sorted_items() == sorted(b.entries.items(), key=lambda kv: kv[1])


def test_geodesic_words_are_geodesic(grig, ball6):
    for e, (ln, w) in ball6.entries.items():
        assert len(w) == ln
        assert core.evaluate(grig, w) is e


def test_growth_rows_and_monotonicity(grig, ball12):
    rows = [(n, ball12.count_within(n)) for n in range(13)]
    assert rows[0] == (0, 1)
    assert rows[1] == (1, 5)
    assert rows[2] == (2, 11)
    gammas = [g for _, g in rows]
    assert gammas == sorted(gammas)
    # submultiplicativity on all computed pairs
    lookup = dict(rows)
    for n in range(13):
        for m in range(13 - n):
            assert lookup[n + m] <= lookup[n] * lookup[m]


def test_dual_dedup_agreement_small(grig):
    table = growth_table(grig, 7)
    assert table.rows[7] == (7, 176)


def test_thread_count_invariance(grig):
    b1 = ball(grig, 7, threads=1)
    b8 = ball(grig, 7, threads=8)
    assert b1.entries == b8.entries
    with pytest.raises(ValueError):
        ball(grig, 1, threads=0)


def test_membership_counts_examples(grig):
    b1 = ball(grig, 1)
    assert membership_counts(b1, "st1") == 4
    assert membership_counts(b1, "st1") / len(b1) == 4 / 5
    for retired in ("bogus", "derived", "k"):
        with pytest.raises(ValueError):
            membership_counts(b1, retired)


def test_parity_vector_well_defined_on_ball6(grig):
    by_element = {}
    for n in range(7):
        for w in words.enumerate_reduced(n):
            e = core.evaluate(grig, w)
            by_element.setdefault(e, []).append(w)
    for e, ws in by_element.items():
        vectors = {words.parity_vector(w) for w in ws}
        assert len(vectors) == 1


def test_ball_closure_radius_3(grig):
    b3 = ball(grig, 3)
    gens = [grig.atom(x) for x in grig.gen_labels]
    for e, (ln, _) in b3.entries.items():
        if ln < b3.radius:
            for g in gens:
                assert core.multiply(e, g) in b3.entries


def test_growth_csv_shape(grig):
    table = growth_table(grig, 3)
    assert table.to_csv() == "n,gamma\n0,1\n1,5\n2,11\n3,23\n"


def test_growth_gupta_sidki_3_both_dedup_paths():
    gs = core.load_preset("gupta-sidki-3")
    gammas = [1, 4, 9, 19, 35, 65, 117]
    assert [g for _, g in growth_table(gs, 6).rows] == gammas
    depth = enumeration.default_action_depth(6)
    assert enumeration.independent_gamma(gs, 6, depth) == list(enumerate(gammas))


def test_growth_gupta_sidki_3_cross_check_above_the_bytes_limit():
    # level 6 has 3**6 = 729 points, so the quotient ball runs on tuple states
    gs = core.load_preset("gupta-sidki-3")
    assert gs.arity ** enumeration.default_action_depth(9) == 729 > core.BYTES_POINTS
    rows = [g for _, g in growth_table(gs, 9).rows]
    assert rows == [1, 4, 9, 19, 35, 65, 117, 209, 373, 661]


def test_cross_check_deepens_past_a_shallow_quotient(grig, ball6, monkeypatch):
    # level 1 sees only the root swap, so its quotient ball stops at 2
    monkeypatch.setattr(enumeration, "default_action_depth", lambda n: 1)
    assert growth_table(grig, 6).rows == [(n, ball6.count_within(n)) for n in range(7)]


def test_cross_check_starts_within_the_leaf_cap(monkeypatch, dihedral_22_specs):
    # default_action_depth(6) is 5, and 11**5 leaves are far over the cap
    dihedral = core.GroupPreset("dihedral-22", 11, dihedral_22_specs)
    depths = []
    real = enumeration.independent_gamma

    def recorded(preset, n_max, depth):
        depths.append(depth)
        return real(preset, n_max, depth)

    monkeypatch.setattr(enumeration, "independent_gamma", recorded)
    assert growth_table(dihedral, 6).rows[-1] == (6, 22)
    assert depths and all(11**depth < enumeration.MAX_CHECK_LEAVES for depth in depths)


@pytest.mark.parametrize(
    "shift, depths",
    # a level count above the canonical one is a fault at once; one below it
    # is a fault once the level reaches enumeration.MAX_CHECK_LEAVES leaves
    [(1, [5]), (-1, [5, 6, 7, 8, 9, 10, 11])],
)
def test_cross_check_rejects_real_faults(grig, monkeypatch, shift, depths):
    true = enumeration.independent_gamma(grig, 6, 5)
    checked = []

    def faulty(preset, n_max, depth):
        checked.append(depth)
        return true[:-1] + [(6, true[-1][1] + shift)]

    monkeypatch.setattr(enumeration, "independent_gamma", faulty)
    with pytest.raises(DedupMismatchError):
        growth_table(grig, 6)
    assert checked == depths
