import itertools
import json
import random
from concurrent.futures import ThreadPoolExecutor

import pytest

from griglab import conjugacy, constructions, core, enumeration, width
from griglab.core import (
    MixedPresetError,
    NonContractingError,
    PresetError,
    canonical_key,
    commutator,
    conjugate,
    equals,
    evaluate,
    invert,
    is_identity,
    level_action,
    load_preset,
    multiply,
)


def test_grigorchuk_preset_table(grig):
    assert grig.arity == 2
    assert grig.gen_labels == ["a", "b", "c", "d"]
    a, b, c, d = (grig.atom(x) for x in "abcd")
    assert a.perm == (1, 0) and a.sections == (grig.identity, grig.identity)
    assert b.sections == (a, c)
    assert c.sections == (a, d)
    assert d.sections == (grig.identity, b)


def test_preset_file_with_undeclared_section(tmp_path):
    data = {
        "schema": "asg-1",
        "name": "broken",
        "arity": 2,
        "generators": [
            {"label": "x", "involution": True, "perm": [1, 0], "sections": ["1", "y"]}
        ],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(data))
    with pytest.raises(PresetError, match="'x'"):
        load_preset(path)


def test_preset_file_schema_version(tmp_path):
    path = tmp_path / "old.json"
    path.write_text(json.dumps({"schema": "asg-0", "name": "x", "arity": 2, "generators": []}))
    with pytest.raises(PresetError, match="schema"):
        load_preset(path)


def test_sample_arity3_preset_loads():
    gs = load_preset("gupta-sidki-3")
    assert gs.arity == 3
    t, s, u = gs.atom("t"), gs.atom("s"), gs.atom("u")
    assert is_identity(multiply(t, s))
    assert is_identity(multiply(multiply(u, u), u))
    assert invert(t) is s
    els = [t, s, u, multiply(t, u), multiply(u, u), invert(multiply(t, u))]
    for x, y, z in itertools.product(els, repeat=3):
        assert multiply(multiply(x, y), z) is multiply(x, multiply(y, z))


def test_multiply_examples(grig):
    b, c, d = grig.atom("b"), grig.atom("c"), grig.atom("d")
    assert multiply(b, c) is d
    x = evaluate(grig, "acab")
    assert multiply(x, grig.identity) is x
    assert multiply(grig.identity, x) is x
    aba = evaluate(grig, "aba")
    assert aba.perm == (0, 1)
    assert aba.sections == (grig.atom("c"), grig.atom("a"))


def test_elements_share_one_tuple_per_permutation():
    for fresh in (
        core.GroupPreset("grigorchuk", 2, core.GRIGORCHUK_SPECS),
        load_preset("gupta-sidki-3"),
    ):
        ball_ = enumeration.ball(fresh, 5)
        for e in list(ball_.entries):
            invert(e)
        shared = {}
        for e in fresh._intern.values():
            assert shared.setdefault(e.perm, e.perm) is e.perm
        assert len(shared) == fresh.arity  # both permute the children by rotations


def test_multiply_rejects_mixed_presets(grig):
    # conjugate and commutator call the product kernel without multiply,
    # so each makes the preset check itself
    gs = load_preset("gupta-sidki-3")
    for op in (multiply, conjugate, commutator):
        with pytest.raises(MixedPresetError):
            op(grig.atom("a"), gs.atom("t"))
        with pytest.raises(MixedPresetError):
            op(gs.atom("t"), grig.atom("a"))


def test_evaluate_contract():
    # a fresh preset, so that no element has a word yet and every product
    # is first a memo miss and then, evaluated again, a memo hit
    preset = core.GroupPreset("grigorchuk", 2, core.GRIGORCHUK_SPECS)
    for _ in range(2):
        assert evaluate(preset, "") is preset.identity
        assert evaluate(preset, "1") is evaluate(preset, "111") is preset.identity
        # c*d = b, so all three words reach one element; the first is kept
        aba = evaluate(preset, "acda")
        assert aba.word == "acda"
        assert evaluate(preset, "aba") is evaluate(preset, "a1b1a") is aba
        assert aba.word == "acda"
        assert aba is multiply(multiply(preset.atom("a"), preset.atom("b")), preset.atom("a"))
        for word, label in (("abxa", "x"), ("ab'", "'"), ("a b", " ")):
            with pytest.raises(PresetError, match=f"unknown generator {label!r}"):
                evaluate(preset, word)


def test_invert_examples(grig):
    a = grig.atom("a")
    assert invert(a) is a
    assert invert(grig.identity) is grig.identity
    assert invert(evaluate(grig, "ab")) is evaluate(grig, "ba")
    rng = random.Random(3)
    for _ in range(50):
        w = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 10)))
        x = evaluate(grig, w)
        assert is_identity(multiply(x, invert(x)))


def test_section_examples(grig):
    assert grig.atom("b").sections[1] is grig.atom("c")
    assert grig.identity.sections[0].sections[1].sections[1].sections[0] is grig.identity
    acad = evaluate(grig, "acad")
    assert acad.sections == (grig.atom("d"), evaluate(grig, "ab"))


def test_is_identity_examples(grig):
    assert is_identity(evaluate(grig, "adadadad"))
    assert is_identity(grig.identity)
    ad2 = evaluate(grig, "adad")
    assert not is_identity(ad2)
    assert ad2.sections == (grig.atom("b"), grig.atom("b"))


def test_equals_is_identity_of_quotient(grig):
    rng = random.Random(11)
    pool = [
        evaluate(grig, "".join(rng.choice("abcd") for _ in range(rng.randint(0, 8))))
        for _ in range(40)
    ]
    for x in pool:
        for y in pool:
            assert equals(x, y) == is_identity(multiply(x, invert(y)))


def test_canonical_key_examples(grig):
    assert canonical_key(evaluate(grig, "bc")) == canonical_key(grig.atom("d"))
    assert canonical_key(grig.identity) == b"\x00"
    keys = {canonical_key(grig.atom(x)) for x in "abcd"}
    assert len(keys) == 4
    actions = {level_action(grig.atom(x), 3) for x in "abcd"}
    assert len(actions) == 4


def test_level_action_examples(grig):
    assert level_action(grig.atom("a"), 1) == (1, 0)
    assert level_action(evaluate(grig, "bcd"), 0) == (0,)
    assert level_action(grig.atom("d"), 2) == (0, 1, 2, 3)


def test_level_action_homomorphism(grig, ball6):
    # gupta-sidki-3 gives the product kernel its only non-binary input
    cases = [
        ([e for e, (ln, _) in ball6.sorted_items() if ln <= 5], 6),
        ([e for e, _ in enumeration.ball(load_preset("gupta-sidki-3"), 3).sorted_items()], 4),
    ]
    for pool, levels in cases:
        for m in range(1, levels + 1):
            for x in pool:
                ax = level_action(x, m)
                for y in pool:
                    ay = level_action(y, m)
                    composed = tuple(ax[ay[i]] for i in range(len(ay)))
                    assert level_action(multiply(x, y), m) == composed


def test_associativity_on_ball_sample(grig, ball6):
    rng = random.Random(20260810)
    pool = [e for e, _ in ball6.sorted_items()]
    for _ in range(1000):
        x, y, z = (rng.choice(pool) for _ in range(3))
        assert multiply(multiply(x, y), z) is multiply(x, multiply(y, z))


@pytest.mark.parametrize("name, radius", [("grigorchuk", 5), ("gupta-sidki-3", 4)])
def test_sandwich_kernel_and_conjugate_tables_match_the_product(name, radius):
    preset = load_preset(name)
    items = enumeration.ball(preset, radius).sorted_items()
    ws = [w for _, (_, w) in items]
    atoms = list(preset.atoms.values())  # the identity and the inverse atoms too
    for c, _ in items:
        for h in atoms:
            for k in atoms:
                assert preset._sandwich(h, c, k) is multiply(multiply(h, c), k)
    for x, _ in items:
        forward = core.conjugates(x, ws)
        backward = core.conjugates(x, ws, inverse=True)
        for w, xw, xw_inv in zip(ws, forward, backward):
            u = evaluate(preset, w)
            assert xw is conjugate(x, u)
            assert xw_inv is conjugate(x, invert(u))


def test_oracle_agreement_length7(grig):
    from griglab import words

    by_element = {}
    by_action = {}
    for n in range(8):
        for w in words.enumerate_reduced(n):
            e = evaluate(grig, w)
            by_element.setdefault(e, set()).add(w)
            by_action.setdefault(core.word_leaf_permutation(grig, w, 7), set()).add(w)
    assert len(by_element) == len(by_action)
    groups_e = {frozenset(v) for v in by_element.values()}
    groups_a = {frozenset(v) for v in by_action.values()}
    assert groups_e == groups_a


def test_contraction_sections_within_half_length(grig):
    from griglab import enumeration, words

    b7 = enumeration.ball(grig, 7)
    for n in range(13):
        for w in words.enumerate_reduced(n):
            e = evaluate(grig, w)
            bound = (n + 1 + 1) // 2
            for s in e.sections:
                assert s in b7.entries
                assert b7.entries[s][0] <= bound


def test_generator_relations(grig):
    for x in "abcd":
        assert is_identity(evaluate(grig, x + x))
    for x, y in itertools.combinations("bcd", 2):
        assert is_identity(evaluate(grig, x + y + x + y))


def test_word_leaf_permutation_matches_level_action(grig, dihedral_22_specs):
    rng = random.Random(5)
    gs = core.load_preset("gupta-sidki-3")
    dihedral = core.GroupPreset("dihedral-22", 11, dihedral_22_specs)
    for preset, levels in ((grig, (1, 3, 5)), (gs, (1, 3, 5)), (dihedral, (1, 2))):
        alphabet = "".join(preset.gen_labels)
        for _ in range(100):
            w = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 9)))
            for m in levels:
                assert core.word_leaf_permutation(preset, w, m) == level_action(
                    evaluate(preset, w), m
                )


def test_word_leaf_permutation_interns_nothing():
    # the second dedup path reads only the generator table
    fresh = core.GroupPreset("grigorchuk", 2, core.GRIGORCHUK_SPECS)
    interned, memo = len(fresh._intern), len(fresh._mul_memo)
    for w in ("", "abacabad", "dacab", "bcbd"):
        core.word_leaf_permutation(fresh, w, 6)
    assert (len(fresh._intern), len(fresh._mul_memo)) == (interned, memo)


def test_interning_is_thread_safe(grig):
    words_pool = ["abab", "acac", "adad", "bcd", "abacad", "dacaba", "badcba"]

    def build(w):
        return evaluate(grig, w * 3)

    with ThreadPoolExecutor(max_workers=8) as pool:
        results = list(pool.map(build, words_pool * 20))
    serial = [evaluate(grig, w * 3) for w in words_pool * 20]
    assert all(x is y for x, y in zip(results, serial))


def test_non_contracting_preset_rejected():
    # x*y reproduces itself in its own left section, so it has no finite
    # portrait over the atom set and canonicalization must refuse
    specs = [
        {"label": "x", "involution": False, "perm": [1, 0], "sections": ["x", "y"]},
        {"label": "y", "involution": False, "perm": [0, 1], "sections": ["y", "x"]},
    ]
    with pytest.raises((NonContractingError, core.UndecidedError)):
        core.GroupPreset("cycling", 2, specs)


def test_permutation_kernel_compose_and_inverse():
    p, q = (1, 2, 0, 3), (3, 0, 1, 2)
    assert core.compose(p, q) == tuple(p[i] for i in q)
    assert core.compose(p, core.inverse(p)) == (0, 1, 2, 3)
    conjugate = core.compose(core.inverse(q), core.compose(p, q))
    assert core.conjugation(q)(core.state(p)) == core.state(conjugate)
    # the one-point permutation composes trivially, as a tuple and as a state
    one = (0,)
    assert core.compose(one, one) == one
    assert core.inverse(one) == one
    moves = [core.right_mul(one), core.conjugation(one)]
    seed = core.state(one)
    assert core.closure([seed], moves) == ({seed}, [1, 1])
    assert core.closure([seed], moves, radius=3) == ({seed}, [1, 1, 1, 1])


def test_permutation_kernel_closure_layers_and_budget():
    cycle = core.right_mul((1, 2, 0))
    reached, sizes = core.closure([core.state((0, 1, 2))], [cycle], radius=5)
    assert reached == {core.state(p) for p in [(0, 1, 2), (1, 2, 0), (2, 0, 1)]}
    # padded to radius + 1 entries after saturating at radius 2
    assert sizes == [1, 2, 3, 3, 3, 3]
    six = core.right_mul((1, 2, 3, 4, 5, 0))
    ident = core.state(range(6))
    assert core.closure([ident], [six], radius=2)[1] == [1, 2, 3]
    assert len(core.closure([ident], [six])[0]) == 6


@pytest.mark.parametrize("points, state_type", [(8, bytes), (256, bytes), (257, tuple)])
def test_permutation_kernel_moves_agree_across_the_bytes_limit(points, state_type):
    rng = random.Random(points)
    perms = [tuple(rng.sample(range(points), points)) for _ in range(6)]
    p, g = perms[:2]
    moved = core.right_mul(g)(core.state(p))
    conjugated = core.conjugation(g)(core.state(p))
    assert type(core.state(p)) is type(moved) is type(conjugated) is state_type
    assert moved == core.state(core.compose(p, g))
    assert conjugated == core.state(core.compose(core.inverse(g), core.compose(p, g)))
    # states sort like the tuples they stand for, so numberings do not move
    assert sorted(map(core.state, perms)) == [core.state(q) for q in sorted(perms)]


def test_layered_basis_on_tuple_states(monkeypatch):
    # above BYTES_POINTS the basis composes tuple states with itemgetter;
    # lowering the limit sends level 4 (16 points) down that path
    fresh = core.GroupPreset("grigorchuk", 2, core.GRIGORCHUK_SPECS)
    monkeypatch.setattr(core, "BYTES_POINTS", 8)
    basis = conjugacy.layered_basis(fresh, 4)
    assert type(basis.identity) is tuple and basis.order() == 4096
    x = evaluate(fresh, "ab")
    assert conjugacy.quotient_separated(x, evaluate(fresh, "ababab"), 4)
    assert not conjugacy.quotient_separated(x, core.conjugate(x, evaluate(fresh, "cad")), 4)


def test_derived_data_is_cached_only_in_the_registry():
    fresh = core.GroupPreset("grigorchuk", 2, core.GRIGORCHUK_SPECS)
    attributes = set(vars(fresh))
    enumeration.growth_table(fresh, 4)
    # at radius 0 the graph on B(6) leaves classes that share a bucket, so
    # their pairs reach the level-5 layer lift
    conjugacy.conj_growth_table(fresh, 6, depth=2, radius=0)
    constructions.branching_data(fresh)
    constructions.encode_pair("", "ab", fresh)
    budget = width.SearchBudget(radius=1, factor_cap=4)
    # three conjugates at radius 1, so the search builds the pair set too
    width.conjugate_width(evaluate(fresh, "abacabad"), budget)
    width.commutator_width(evaluate(fresh, "abab"), budget)
    width.palindromic_width(evaluate(fresh, "abab"), budget, word="abab")
    assert set(vars(fresh)) == attributes
    assert set(fresh._caches) == {
        "branching_data",
        "section_pair_map",
        "depth_invariant",
        "depth_invariant_ids",
        "quotient_class_table",
        "layered_basis",
        "conjugate_set",
        "palindrome_set",
        "conjugate_pair_set",
        "commutator_set",
    }
