import random

import pytest

from griglab import conjugacy, constructions, core, enumeration, words
from griglab.constructions import (
    ACHIEVED,
    INCONCLUSIVE,
    UNREACHABLE,
    branching_data,
    comm_g_decompose,
    comm_k_product,
    encode_pair,
    encode_right,
    finite_quotient_order,
    image_coverage_report,
    normal_closure_index,
)


def test_finite_quotient_orders(grig):
    assert finite_quotient_order(grig, 0) == 1
    assert finite_quotient_order(grig, 1) == 2
    assert finite_quotient_order(grig, 2) == 8
    assert finite_quotient_order(grig, 3) == 128
    assert finite_quotient_order(grig, 4) == 4096


@pytest.mark.parametrize("name, levels", [("grigorchuk", 5), ("gupta-sidki-3", 4)])
def test_basis_agrees_with_the_enumerated_quotient(name, levels):
    # every level whose enumeration stays small: G_4 has 4,096 elements and
    # the gupta-sidki-3 G_3 has 2,187
    preset = core.load_preset(name)
    rng = random.Random(levels)
    for m in range(levels):
        quotient = constructions.level_quotient(preset, m)
        basis = conjugacy.layered_basis(preset, m)
        assert finite_quotient_order(preset, m) == len(quotient) == basis.order()
        assert all(s in basis for s in quotient)
        # random elements of the rotation wreath product, members or not
        for _ in range(300):
            s = core.state(_random_rotations(preset.arity, m, rng))
            assert (s in basis) == (s in quotient)


def _random_rotations(p, m, rng):
    """Level-m action of a random portrait of rotations c -> c + k mod p."""
    if m == 0:
        return (0,)
    k, half = rng.randrange(p), p ** (m - 1)
    # one independent portrait below each child, as in core.level_action
    return tuple(
        (v + k) % p * half + i for v in range(p) for i in _random_rotations(p, m - 1, rng)
    )


@pytest.mark.parametrize("arity, perm", [(3, [0, 2, 1]), (4, [1, 2, 3, 0])])
def test_basis_rejects_vertex_groups_that_are_not_rotations_of_prime_order(arity, perm):
    spec = {"label": "x", "involution": arity == 3, "perm": perm, "sections": ["1"] * arity}
    preset = core.GroupPreset("x", arity, [spec])
    with pytest.raises(core.PresetError):
        finite_quotient_order(preset, 1)


def test_basis_orders_beyond_the_enumeration():
    gs = core.load_preset("gupta-sidki-3")
    assert finite_quotient_order(gs, 4) == 3**19
    # |G/St(m)| = 2^(5 * 2^(m-3) + 2) for the Grigorchuk group, m >= 3
    grig = core.load_preset("grigorchuk")
    for m in range(3, 8):
        assert finite_quotient_order(grig, m) == 2 ** (5 * 2 ** (m - 3) + 2)


def test_normal_closure_index_stabilizes(grig):
    values = [normal_closure_index(grig, "abab", m) for m in (1, 2, 3, 4)]
    assert values == [2, 4, 16, 16]


def _enumerated_normal_closure(preset, word, m):
    """The normal closure of a word in G_m, enumerated.

    The closure of the identity under right multiplication by the word's
    image t and conjugation by the generators: it contains y*t^h whenever
    it contains y, because y*t^h = (y^(h^-1) * t)^h.
    """
    target = core.level_action(core.evaluate(preset, word), m)
    moves = [core.right_mul(target)]
    moves += [core.conjugation(g) for g in core.generator_actions(preset, m)]
    image, _ = core.closure([core.state(range(preset.arity**m))], moves)
    return image


@pytest.mark.parametrize(
    "name, word, levels", [("grigorchuk", "abab", 5), ("gupta-sidki-3", "suutu", 4)]
)
def test_normal_closure_basis_agrees_with_the_enumeration(name, word, levels):
    # [t, u] = t^-1 u^-1 t u is "suutu" on gupta-sidki-3, where s = t^-1
    preset = core.load_preset(name)
    rng = random.Random(levels)
    for m in range(levels):
        quotient = constructions.level_quotient(preset, m)
        image = _enumerated_normal_closure(preset, word, m)
        basis = constructions.normal_closure_basis(preset, word, m)
        assert basis.order() == len(image)
        for _ in range(300):
            s = core.state(_random_rotations(preset.arity, m, rng))
            assert (s in basis) == (s in image)
        # right cosets N*g, each named by its least member: the enumeration
        # multiplies the image out, the basis sifts s * r**-1 for every
        # coset name r so far; the identity comes first, so this also
        # decides the membership of every element of the quotient
        by_closure, by_basis, names = {}, {}, []
        for s in sorted(quotient):
            if s not in by_closure:
                by_closure.update(dict.fromkeys(map(core.right_mul(s), image), s))
            r = next((r for r in names if basis.mul(s, basis.inv(r)) in basis), None)
            if r is None:
                names.append(r := s)
            by_basis[s] = r
        assert by_basis == by_closure


def test_normal_closure_index_beyond_the_enumeration():
    # the parent's enumeration needed 3^17 states for this one
    gs = core.load_preset("gupta-sidki-3")
    assert [normal_closure_index(gs, "suutu", m) for m in (2, 3, 4)] == [9, 9, 9]
    grig = core.load_preset("grigorchuk")
    for m in range(5, 8):
        assert normal_closure_index(grig, "abab", m) == 16


def test_branching_data(grig):
    data = branching_data(grig)
    assert data.level == 3
    assert data.index == 16
    assert len(data.h1_reps) == 64


def test_k_membership_examples(grig):
    data = branching_data(grig)
    assert data.k_membership(grig.identity)
    assert not data.k_membership(grig.atom("a"))
    assert data.k_membership(core.evaluate(grig, "abab"))


def test_k_image_and_cosets_match_the_sifted_quotient(grig, ball8):
    # the enumerated construction: sift G_3 into K's basis, then number the
    # right cosets K*p in sorted order of p
    data = branching_data(grig)
    quotient = constructions.level_quotient(grig, 3)
    k_basis = constructions.normal_closure_basis(grig, "abab", 3)
    image = {s for s in quotient if s in k_basis}
    table = {}
    for p in sorted(quotient):
        if p not in table:
            table.update(dict.fromkeys(map(core.right_mul(p), image), len(set(table.values()))))
    assert data.level == 3 and len(image) == 8
    assert data.k_image == image
    old, new = {}, {}
    for e in ball8.entries:
        s = core.state(core.level_action(e, 3))
        assert data.k_membership(e) == (s in k_basis)
        old.setdefault(table[s], set()).add(e)
        new.setdefault(data.coset_id(e), set()).add(e)
    assert set(map(frozenset, old.values())) == set(map(frozenset, new.values()))
    assert len(new) == data.index == 16


def test_unstabilized_error(grig):
    with pytest.raises(constructions.UnstabilizedError):
        constructions._stabilized_level(grig, "abab", max_level=2)


def test_lift_table_soundness(grig):
    data = branching_data(grig)
    for u, (e, w) in data.lift_map.items():
        assert e.sections == (u, grig.identity)
        assert e.perm == (0, 1)
        assert core.evaluate(grig, w) is e


def test_lift_table_covers_every_comm_k_input(grig, ball8):
    # comm-k draws k1 and k2 from K within B(8) and looks up the lifts of
    # k1^-1 and k2, so the table alone serves the whole audit
    data = branching_data(grig)
    members = [e for e in ball8.entries if data.k_membership(e)]
    assert len(members) == 20
    for k in members:
        assert k in data.lift_map and core.invert(k) in data.lift_map
    with pytest.raises(constructions.LiftUnavailableError):
        data.lift_for(grig.atom("a"))


def test_lift_and_coset_tables_match_the_interned_balls(grig):
    data = branching_data(grig)
    lifts = {}
    for e, (_, w) in enumeration.ball(grig, constructions.LIFT_RADIUS).sorted_items():
        if e.perm == (0, 1) and e.sections[1] is grig.identity:
            lifts.setdefault(e.sections[0], (e, w))
    assert list(data.lift_map.items()) == list(lifts.items())
    reps = {}
    for e, (_, w) in enumeration.ball(grig, 12).sorted_items():
        reps.setdefault(data.h1_key(e.perm, e.sections), (e, w))
    assert list(data.h1_reps.items()) == list(reps.items())
    assert len(reps) == 64


def test_coset_walk_stops_at_the_first_sphere_with_no_new_coset(monkeypatch):
    fresh = core.GroupPreset("grigorchuk", 2, core.GRIGORCHUK_SPECS)
    constructions._section_pair_map(fresh, constructions.LIFT_RADIUS)
    real, read = enumeration.spheres, []

    def spheres(preset, n):
        for sphere in real(preset, n):
            read.append(len(sphere))
            yield sphere

    monkeypatch.setattr(enumeration, "spheres", spheres)
    data = branching_data(fresh)
    # sphere 9 meets no new coset, so spheres 10-12 are never built; the
    # test above compares the cosets met with a radius-12 walk
    assert len(read) <= 10
    assert len(data.h1_reps) == 64 and data.h1_rep_max == 8


def test_ball_readers_intern_only_what_they_keep():
    # B(16) has 7,213 elements and B(12) 1,487; the coverage scan and the
    # branching data read them as shapes and keep far fewer
    fresh = core.GroupPreset("grigorchuk", 2, core.GRIGORCHUK_SPECS)
    image_coverage_report(8, fresh)
    branching_data(fresh)
    assert len(fresh._intern) < 1000


def test_encode_right_examples(grig):
    r = encode_right("ab")
    assert r.word == "acad"
    assert r.sections == ("d", "ab")
    r = encode_right("")
    assert r.word == "" and r.sections == ("", "")
    r = encode_right("ac")
    assert r.word == "acab"
    assert r.sections[1] == "ac"


def test_encode_right_bound_all_short_words(grig):
    for n in range(7):
        for w1 in words.enumerate_reduced(n):
            r = encode_right(w1)
            assert len(r.word) <= 2 * len(w1) + 4
            assert r.sections[1] == w1
            # leftover stays inside the dihedral subgroup of a and d
            assert set(r.sections[0]) <= {"a", "d"}


def test_encode_right_rejects_unreduced(grig):
    with pytest.raises(ValueError):
        encode_right("bb")


def test_encode_pair_examples(grig):
    r = encode_pair("", "")
    assert r.status == ACHIEVED and r.word == ""
    r = encode_pair("d", "ab")
    assert r.status == ACHIEVED and r.word == "acad"
    r = encode_pair("", "ab")
    assert r.status == UNREACHABLE
    r = encode_pair("ababab", "bababa")
    assert r.status == INCONCLUSIVE and r.bound > constructions.MAX_SCAN_RADIUS


def test_encode_pair_achieved_words_are_exact(grig, ball6):
    rng = random.Random(4)
    pool = [w for _, (ln, w) in ball6.sorted_items() if ln <= 3]
    for _ in range(30):
        w0, w1 = rng.choice(pool), rng.choice(pool)
        r = encode_pair(w0, w1)
        if r.status == ACHIEVED:
            e = core.evaluate(grig, r.word)
            assert e.sections == (core.evaluate(grig, w0), core.evaluate(grig, w1))
            assert len(r.word) <= 2 * (len(w0) + len(w1))


def test_image_coverage_report(grig):
    rep = image_coverage_report(4)
    assert rep.consistent()
    assert rep.reachable > 0
    # the lemma bound misses at least one pair at desk scale: (b, 1) needs 3
    assert any(w0 == "b" and w1 == "" for w0, w1, _, _ in rep.beyond_bound)


def test_comm_k_product(grig, ball8):
    data = branching_data(grig)
    members = [e for e in ball8.entries if data.k_membership(e)]
    assert len(members) == 20
    rng = random.Random(20260810)
    for _ in range(100):
        k1, k2 = rng.choice(members), rng.choice(members)
        expr = comm_k_product(k1, k2, data)
        assert len(expr.factors) == 4
        assert all(f.base == "a" for f in expr.factors)
        target = grig.make_element(
            (0, 1), (core.commutator(k1, k2), grig.identity)
        )
        assert expr.verify(target)


def test_comm_k_t_step(grig):
    data = branching_data(grig)
    k1 = core.evaluate(grig, "abab")
    kappa, _ = data.lift_for(core.invert(k1))
    t = core.multiply(core.conjugate(grig.atom("a"), kappa), grig.atom("a"))
    assert t.sections == (k1, core.invert(k1))


def test_comm_k_rejects_non_members(grig):
    data = branching_data(grig)
    with pytest.raises(constructions.LiftUnavailableError):
        comm_k_product(grig.atom("a"), grig.atom("b"), data)


def test_comm_g_examples(grig):
    data = branching_data(grig)
    expr = comm_g_decompose("ab", "ab", data)
    assert len(expr.factors) == 0
    expr = comm_g_decompose("a", "b", data)
    target = core.commutator(grig.atom("a"), grig.atom("b"))
    assert expr.verify(target)


def test_comm_g_random_pairs_within_bound(grig, ball6):
    data = branching_data(grig)
    pool = [w for _, (_, w) in ball6.sorted_items()]
    rng = random.Random(77)
    bound = 4 * data.h1_rep_max + 2 * 4
    for _ in range(40):
        gw, xw = rng.choice(pool), rng.choice(pool)
        expr = comm_g_decompose(gw, xw, data)
        assert len(expr.factors) <= bound
