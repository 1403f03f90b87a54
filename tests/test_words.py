import itertools
import random

import pytest

from griglab import core, words


def test_reduce_examples(grig):
    assert words.reduce("aabb") == ""
    assert words.reduce("bc") == "d"
    assert words.reduce("abba") == ""


def test_reduce_is_fixpoint(grig):
    rng = random.Random(1)
    for _ in range(500):
        w = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 20)))
        r = words.reduce(w)
        assert words.reduce(r) == r
        assert words.is_reduced(r)


def test_reduce_preserves_element(grig):
    rng = random.Random(2)
    for _ in range(10_000):
        w = "".join(rng.choice("abcd") for _ in range(rng.randint(0, 20)))
        assert core.evaluate(grig, words.reduce(w)) is core.evaluate(grig, w)


def test_reduced_shape(grig):
    for n in range(7):
        for w in words.enumerate_reduced(n):
            assert "aa" not in w
            for i in range(len(w) - 1):
                assert not (w[i] in "bcd" and w[i + 1] in "bcd")


def test_rule_confluence_by_joinability(grig):
    # every single-step rewrite of every short word reduces to the same
    # normal form, which with termination gives confluence on this system
    def all_words(n):
        if n == 0:
            yield ""
            return
        for w in all_words(n - 1):
            for ch in "abcd":
                yield w + ch

    for n in range(7):
        for w in all_words(n):
            base = words.reduce(w)
            for pos, rule, repl in words.applicable_rewrites(w):
                stepped = words.rewrite_once(w, pos, rule, repl)
                assert words.reduce(stepped) == base


def test_word_sections_examples(grig):
    assert words.word_sections("b") == ("a", "c")
    assert words.word_sections("") == ("", "")
    assert words.word_sections("aba") == ("c", "a")
    with pytest.raises(ValueError):
        words.word_sections("ab")


def test_word_sections_agree_with_element_sections(grig):
    gs = core.load_preset("gupta-sidki-3")
    cases = [
        (grig, w) for n in range(11) for w in words.enumerate_reduced(n) if w.count("a") % 2 == 0
    ]
    cases += [
        (gs, w)
        for n in range(7)
        for w in map("".join, itertools.product("tsu", repeat=n))
        if core.evaluate(gs, w).perm == (0, 1, 2)
    ]
    for preset, w in cases:
        sections = words.word_sections(w, preset)
        e = core.evaluate(preset, w)
        assert len(sections) == preset.arity
        for s, es in zip(sections, e.sections):
            assert core.evaluate(preset, s) is es


def test_enumerate_reduced_examples():
    assert list(words.enumerate_reduced(0)) == [""]
    assert list(words.enumerate_reduced(1)) == ["a", "b", "c", "d"]
    assert list(words.enumerate_reduced(2)) == ["ab", "ac", "ad", "ba", "ca", "da"]


def test_enumerate_reduced_lexicographic_and_counts():
    for n in range(9):
        ws = list(words.enumerate_reduced(n))
        assert ws == sorted(ws)
        assert len(ws) == len(set(ws)) == words.count_reduced(n)


def test_enumeration_is_restartable():
    gen = words.enumerate_reduced(3)
    first = list(gen)
    assert list(words.enumerate_reduced(3)) == first


def test_parity_vector():
    assert words.parity_vector("") == (0, 0, 0)
    assert words.parity_vector("d") == (0, 1, 1)
    assert words.parity_vector("bc") == (0, 1, 1)
    assert words.parity_vector("abab") == (0, 0, 0)


def test_parse_word_expr():
    assert words.parse_word_expr("(ab)^2") == "abab"
    assert words.parse_word_expr("[a,b]") == "abab"
    assert words.parse_word_expr("a b a") == "aba"
    assert words.parse_word_expr("(ad)^-1") == "da"
    assert words.parse_word_expr("[a,(bc)^2]") == "acbcbabcbc"
    with pytest.raises(ValueError):
        words.parse_word_expr("(ab")
    with pytest.raises(ValueError):
        words.parse_word_expr("a^")
