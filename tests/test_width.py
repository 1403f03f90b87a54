import itertools
import random

import pytest

from griglab import core, enumeration, expressions, width, words
from griglab.width import (
    DECOMPOSED,
    INCONCLUSIVE,
    SearchBudget,
    commutator_width,
    conjugate_identity_audit,
    conjugate_set,
    conjugate_width,
    dihedral_width_report,
    palindrome_conjugate_check,
    palindromic_width,
    rewrite_conjugates_to_commutators,
)


def test_conjugate_width_examples(grig):
    r = conjugate_width(grig.atom("a"))
    assert r.status == DECOMPOSED and r.factors == 1
    r = conjugate_width(core.evaluate(grig, "bab"))
    assert r.status == DECOMPOSED and r.factors == 1
    comm = core.commutator(grig.atom("a"), grig.atom("b"))
    r = conjugate_width(comm)
    assert r.status == DECOMPOSED and r.factors == 2
    r = conjugate_width(grig.identity)
    assert r.factors == 0


def test_conjugate_width_verifies(grig, ball6):
    rng = random.Random(6)
    pool = [e for e, (ln, _) in ball6.sorted_items() if ln <= 4]
    for _ in range(30):
        g = rng.choice(pool)
        r = conjugate_width(g, SearchBudget(radius=4, factor_cap=4))
        if r.status == DECOMPOSED:
            assert r.expression.verify(g)


def test_conjugate_width_builds_no_pair_set_below_three_factors(grig, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("pair set built for a target of at most two conjugates")

    monkeypatch.setattr(width, "conjugate_pair_set", refuse)
    for word, factors in [("bab", 1), ("abab", 2)]:
        r = conjugate_width(core.evaluate(grig, word), SearchBudget(radius=2, factor_cap=4))
        assert r.status == DECOMPOSED and r.factors == factors


def test_conjugate_width_time_budget_is_inconclusive(grig):
    # three conjugates by B(1): the two-factor scan passes the deadline first
    g = core.evaluate(grig, "abacabad")
    assert conjugate_width(g, SearchBudget(radius=1, factor_cap=4)).factors == 3
    r = conjugate_width(g, SearchBudget(radius=1, factor_cap=4, time_limit=0))
    assert r.status == INCONCLUSIVE and r.expression is None and r.note == "time budget"


def test_budget_rejects_negative_fields_and_is_named_in_the_note(grig):
    for bad in ({"radius": -1}, {"factor_cap": -1}):
        with pytest.raises(ValueError, match="nonnegative"):
            SearchBudget(**bad)
    # two conjugates, one allowed
    r = conjugate_width(core.evaluate(grig, "abab"), SearchBudget(radius=1, factor_cap=1))
    assert r.status == INCONCLUSIVE and r.expression is None
    assert r.note == (
        "no decomposition within budget"
        " SearchBudget(radius=1, factor_cap=1, time_limit=None)"
    )


def test_commutator_width_examples(grig):
    r = commutator_width(grig.identity)
    assert r.status == DECOMPOSED and r.factors == 0
    comm = core.evaluate(grig, "abab")
    r = commutator_width(comm, SearchBudget(radius=4, factor_cap=2))
    assert r.status == DECOMPOSED and r.factors == 1
    # nonzero parity blocks the search without claiming anything
    r = commutator_width(grig.atom("a"), SearchBudget(radius=2, factor_cap=2))
    assert r.status == INCONCLUSIVE


def test_one_commutator_stops_at_the_first_hit(grig, monkeypatch):
    expected = width.commutator_set(grig, 3)
    fresh = core.GroupPreset("grigorchuk", 2, core.GRIGORCHUK_SPECS)

    def refuse(*args, **kwargs):
        raise AssertionError("commutator set built for a single commutator")

    monkeypatch.setattr(width, "commutator_set", refuse)
    inv = words.invert_word
    # every 7th commutator after the identity's, with the witness the full
    # set keeps for it: the first pair in ball order
    for xw, yw in list(expected.values())[1::7]:
        g = core.evaluate(fresh, inv(xw) + inv(yw) + xw + yw)
        r = commutator_width(g, SearchBudget(radius=3, factor_cap=2))
        assert r.status == DECOMPOSED and r.factors == 1
        (f,) = r.expression.factors
        assert (f.left, f.right) == (xw, yw)
    assert fresh.cache("commutator_set") == {}  # no partial scan is kept as the set
    monkeypatch.undo()
    # two commutators: the scan runs to the end and is kept as the set
    r = commutator_width(core.evaluate(fresh, "bacad"), SearchBudget(radius=1, factor_cap=2))
    assert r.status == DECOMPOSED and r.factors == 2
    assert list(fresh.cache("commutator_set")[1].values()) == list(
        width.commutator_set(grig, 1).values()
    )


def test_palindromic_width_examples(grig):
    r = palindromic_width(core.evaluate(grig, "aba"), word="aba")
    assert r.status == DECOMPOSED and r.factors == 1
    r = palindromic_width(grig.identity)
    assert r.factors == 0
    r = palindromic_width(core.evaluate(grig, "ab"), word="ab")
    assert r.status == DECOMPOSED and r.factors == 2


def test_palindromic_width_reads_involutions_off_the_certified_inverses():
    # the involution flags declared false, yet r and s certify as involutions
    specs = [dict(spec, involution=False) for spec in width.DIHEDRAL_SPECS]
    dihedral = core.GroupPreset("infinite-dihedral", 2, specs)
    r = palindromic_width(core.evaluate(dihedral, "rsr"), word="rsr")
    assert r.status == DECOMPOSED and r.factors == 1
    assert [f.word for f in r.expression.factors] == ["rsr"]
    gupta_sidki = core.load_preset("gupta-sidki-3")
    with pytest.raises(ValueError, match="all-involution"):
        palindromic_width(core.evaluate(gupta_sidki, "t"), word="t")


def test_palindromic_factors_are_palindromes(grig, ball6):
    for e, (_, w) in ball6.sorted_items():
        r = palindromic_width(e, SearchBudget(radius=4, factor_cap=5), word=w)
        assert r.status == DECOMPOSED
        assert r.factors <= 5
        for f in r.expression.factors:
            assert f.word == f.word[::-1]
        assert r.expression.verify(e)


def _palindromic_splits_reference(word):
    # the table-and-scan DP the one-line DP replaced, kept as its reference
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


def test_palindromic_splits_match_the_table_dp():
    pool = [w for n in range(11) for w in words.enumerate_reduced(n)]
    pool += ["".join(p) for n in range(7) for p in itertools.product("abcd", repeat=n)]
    assert len(pool) == 6672
    for w in pool:
        assert width._palindromic_splits(w) == _palindromic_splits_reference(w)


def test_palindrome_conjugate_check(grig):
    checked, violations = palindrome_conjugate_check(9)
    assert checked == 1705
    assert violations == []


def test_palindrome_conjugate_check_flags_a_non_involutive_generator():
    # the binary adding machine s = σ(s, 1) generates Z: no power s^k with
    # k > 0 is trivial, and s^(2k+1) is not s, the conjugate of s by s^k
    spec = {"label": "s", "involution": False, "perm": [1, 0], "sections": ["s", "1"]}
    adding = core.GroupPreset("adding-machine", 2, [spec])
    checked, violations = palindrome_conjugate_check(7, adding)
    assert checked == 8
    even = "even palindrome does not reduce to identity"
    odd = "odd palindrome is not a conjugate of its middle"
    assert violations == [("s" * k, even if k % 2 == 0 else odd) for k in range(2, 8)]


def test_monotone_in_budget(grig, ball6):
    rng = random.Random(8)
    pool = [e for e, (ln, _) in ball6.sorted_items() if ln <= 4]
    for _ in range(15):
        g = rng.choice(pool)
        small = conjugate_width(g, SearchBudget(radius=3, factor_cap=4))
        if small.status == DECOMPOSED:
            big = conjugate_width(g, SearchBudget(radius=5, factor_cap=4))
            assert big.status == DECOMPOSED
            assert big.factors <= small.factors


def test_default_bases_share_the_cached_pair_set(grig):
    first = width.conjugate_pair_set(grig, 1)
    assert width.conjugate_pair_set(grig, 1, bases=grig.gen_labels) is first


def test_conjugate_set_dedup_dual_path(grig):
    # canonical count against an element-free count over raw words
    for radius in (2, 4, 6):
        cset = conjugate_set(grig, radius)
        ball_ = enumeration.ball(grig, radius)
        seen = set()
        depth = 9
        for _, (_, tw) in ball_.sorted_items():
            for base in grig.gen_labels:
                w = words.invert_word(tw) + base + tw
                seen.add(core.word_leaf_permutation(grig, w, depth))
        assert len(cset) == len(seen)


def test_rewrite_examples(grig):
    expr = expressions.conjugate_product(
        grig, (expressions.ConjugateFactor("a", "bab"),)
    )
    z, comm = rewrite_conjugates_to_commutators(expr)
    assert z == "a"
    assert 1 <= len(comm.factors) <= 2
    expr = expressions.conjugate_product(grig, ())
    z, comm = rewrite_conjugates_to_commutators(expr)
    assert z == "" and len(comm.factors) == 0


def test_rewrite_seeded_bound_and_parity(grig):
    rng = random.Random(20260810)
    conj_pool = [w for n in range(5) for w in words.enumerate_reduced(n)]
    for _ in range(100):
        n_factors = rng.randint(1, 4)
        factors = tuple(
            expressions.ConjugateFactor(rng.choice("abcd"), rng.choice(conj_pool))
            for _ in range(n_factors)
        )
        expr = expressions.conjugate_product(grig, factors)
        z, comm = rewrite_conjugates_to_commutators(expr)
        assert len(comm.factors) <= 3 * n_factors
        recomposed = core.multiply(core.evaluate(grig, z), comm.evaluate())
        assert core.equals(recomposed, expr.evaluate())
        if words.parity_vector(_expr_word(expr)) == (0, 0, 0):
            assert words.parity_vector(words.reduce(z)) == (0, 0, 0)


def _expr_word(expr):
    out = ""
    for f in expr.factors:
        out += words.invert_word(f.conjugator) + f.base + f.conjugator
    return out


def test_conjugate_identity_audit(grig):
    rng = random.Random(13)
    pool = [w for n in range(6) for w in words.enumerate_reduced(n)]
    samples = [(rng.choice(pool), rng.choice(pool)) for _ in range(60)]
    assert conjugate_identity_audit(grig, samples) == []


def test_dihedral_report(grig):
    rows, worst = dihedral_width_report(20)
    assert worst <= 2
    by_word = dict(rows)
    assert by_word["r"] == 1
    assert by_word["rs"] == 2
    assert by_word[""] == 0
    assert len(rows) == 41


def test_dihedral_lemma_runs_through_the_element_arithmetic(monkeypatch):
    preset = core.GroupPreset("infinite-dihedral", 2, width.DIHEDRAL_SPECS)
    # growth_table cross-checks B(20) against the leaf-permutation path
    assert enumeration.growth_table(preset, 20).rows == [(n, 2 * n + 1) for n in range(21)]
    # both flags certified: each generator is its own inverse atom
    assert set(preset.atoms) == {"1", "r", "s"}
    assert all(core.invert(g) is g for g in preset.generators)
    # every product is checked, so a failing check cannot pass unnoticed
    monkeypatch.setattr(expressions.Expression, "verify", lambda self, target: False)
    with pytest.raises(AssertionError, match="dihedral decomposition failed"):
        dihedral_width_report(3)
