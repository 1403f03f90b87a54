import random

import pytest

from griglab import conjugacy, core, enumeration
from griglab.conjugacy import (
    class_partition,
    conj_growth_table,
    conjugator_search,
    depth_invariant,
    infinite_classes_witness,
    quotient_separated,
    subball,
)


def test_invariant_of_identity_is_all_trivial(grig):
    inv = depth_invariant(grig.identity, 3)
    assert "a" not in str(inv)
    assert depth_invariant(grig.identity, 0) == ("u",)


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


def test_conjugator_search_examples(grig):
    a = grig.atom("a")
    bab = core.evaluate(grig, "bab")
    assert conjugator_search(a, bab, 1) == "b"
    assert conjugator_search(a, grig.atom("b"), 6) is None
    y = core.conjugate(grig.atom("b"), core.evaluate(grig, "aba"))
    z = conjugator_search(grig.atom("b"), y, 3)
    assert z is not None
    assert core.equals(core.conjugate(grig.atom("b"), core.evaluate(grig, z)), y)


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


def test_conj_rows_csv(grig, ball8):
    rows = conj_growth_table(grig, 2, depth=6, radius=6, ball_=ball8)
    csv = conjugacy.conj_rows_to_csv(rows)
    assert csv.startswith("n,lower,upper,exact\n0,1,1,true\n1,5,5,true\n")


def test_quotient_separation_is_sound(grig, ball6):
    # merged pairs must never be separated by any quotient level
    part = class_partition(ball6, 6, 6)
    merged = list(part.witnesses)[:10]
    for wx, wy in merged:
        x, y = core.evaluate(grig, wx), core.evaluate(grig, wy)
        for m in (3, 4):
            assert not quotient_separated(x, y, m)


def test_known_nonconjugate_pair_separates(grig):
    x = core.evaluate(grig, "ab")
    y = core.evaluate(grig, "ababab")
    assert conjugator_search(x, y, 8) is None
    assert quotient_separated(x, y, 4)


def test_infinite_classes_witness(grig):
    assert infinite_classes_witness(grig, 1) == [grig.identity]
    w2 = infinite_classes_witness(grig, 2)
    assert w2 == [grig.atom("a"), grig.atom("b")]
    w5 = infinite_classes_witness(grig, 5, depth=6)
    assert len(w5) == 5
    invs = [depth_invariant(x, 6) for x in w5]
    assert len(set(invs)) == 5
    with pytest.raises(ValueError):
        infinite_classes_witness(grig, 0)


def test_subball(grig, ball8):
    sub = subball(ball8, 3)
    assert len(sub) == ball8.count_within(3)
    with pytest.raises(ValueError):
        subball(sub, 5)


def test_quotient_class_tables(grig):
    for m, classes, order in ((3, 20, 128), (4, 61, 4096)):
        table = conjugacy.quotient_class_table(grig, m)
        assert len(table) == order
        assert len(set(table.values())) == classes


def test_level5_conjugation_orbit():
    # a fresh preset, so no other test's orbit cache answers for it
    fresh = core.GroupPreset("grigorchuk", 2, core.GRIGORCHUK_SPECS)
    x = core.evaluate(fresh, "abadac")
    with pytest.raises(conjugacy.OrbitBudgetError):
        quotient_separated(x, fresh.identity, 5, budget=1000)
    assert len(conjugacy._conjugation_orbit(x, 5, 131_072)) == 131_072


def test_conjugation_orbit_is_reused_for_another_member(monkeypatch):
    fresh = core.GroupPreset("grigorchuk", 2, core.GRIGORCHUK_SPECS)
    x = core.evaluate(fresh, "abadac")
    y = core.conjugate(x, fresh.atom("b"))
    assert core.level_action(y, 4) != core.level_action(x, 4)
    orbit = conjugacy._conjugation_orbit(x, 4, 1000)
    calls = []
    real_closure = core.closure
    monkeypatch.setattr(
        core, "closure", lambda *args, **kw: calls.append(args) or real_closure(*args, **kw)
    )
    assert conjugacy._conjugation_orbit(y, 4, 1000) is orbit
    assert calls == []
