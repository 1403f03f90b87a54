import pytest

from griglab import bounds
from griglab.bounds import estimate_T, grig_recursion_audit, sigma
from griglab.conjugacy import ConjGrowthRow


def test_sigma_values():
    assert abs(sigma(2, 24) - 0.179) <= 0.001
    assert abs(sigma(2, 1) - 1.0) <= 1e-12
    assert abs(sigma(2, 2) - 0.5) <= 1e-12


def test_sigma_domain():
    with pytest.raises(ValueError):
        sigma(1, 5)
    with pytest.raises(ValueError):
        sigma(2, 0)


def test_sigma_monotone_grid():
    for d in (2, 3, 5):
        values = [sigma(d, M) for M in range(1, 40)]
        assert all(0 < v <= 1 for v in values)
        assert all(x > y for x, y in zip(values, values[1:]))


def test_estimate_T_examples():
    assert estimate_T([(1, 5)], [(1, 4)]) == 5 / 4
    assert estimate_T([(0, 1)], [(0, 1)]) == 1.0
    small = estimate_T([(0, 1), (1, 5)], [(0, 1), (1, 4)])
    bigger = estimate_T(
        [(0, 1), (1, 5), (3, 23)], [(0, 1), (1, 4), (3, 7)]
    )
    assert bigger >= small
    with pytest.raises(ValueError):
        estimate_T([], [])


def test_recursion_audit_rows():
    rows = [
        ConjGrowthRow(0, 1, 1, True),
        ConjGrowthRow(1, 5, 5, True),
        ConjGrowthRow(2, 8, 8, True),
        ConjGrowthRow(4, 14, 14, True),
        ConjGrowthRow(8, 32, 32, False),
    ]
    rep = grig_recursion_audit(rows, T=2.0)
    audited = {r.n for r in rep.rows}
    assert audited == {0, 1}
    assert rep.skipped == [8]
    assert all(r.holds for r in rep.rows)


def test_recursion_trivial_row():
    rows = [ConjGrowthRow(0, 1, 1, True)]
    rep = grig_recursion_audit(rows, T=1.0)
    assert rep.rows[0].holds


def test_assembly_audit_n1(grig):
    rep = bounds.assembly_audit(1)
    assert rep.separated
    assert rep.swap_merged
    assert rep.assembled >= 1
    identity_pair = [p for p, _ in rep.skipped_unreachable if p == ("", "")]
    assert not identity_pair  # the trivial pair assembles to the identity
    with pytest.raises(ValueError):
        bounds.assembly_audit(5)


def test_assembly_audit_pairs_the_shortest_class_members(grig):
    rep = bounds.assembly_audit(3)
    assert (rep.pairs_total, rep.assembled, len(rep.skipped_unreachable)) == (36, 7, 29)
    assert rep.representatives == ("", "a", "b", "c", "d", "ab", "ac", "ad")
    assert rep.separated and rep.swap_merged
