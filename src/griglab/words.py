"""Words over generator labels: rewriting, sections, enumeration.

Words are plain ASCII strings over single-character generator labels.
Rewriting uses only rules certified at preset startup (squares of
involutions cancel; products of two generators that equal a generator are
replaced), so a reduced word in the Grigorchuk preset has the shape
a^e * a * a ... * a *^f with * in {b,c,d}: no "aa" and no two adjacent
letters from {b,c,d}.
"""

from __future__ import annotations

from itertools import product

from . import core

GRIG_ALPHABET = "abcd"


def reduce(word, preset=None):
    """Shortest word for the same element under the certified pair rules.

    Leftmost-innermost: each letter is rewritten with the top of the stack
    until stable and then pushed, so the stack never holds a rewritable
    pair, one pass suffices and the result is a fixpoint.
    """
    rules = (preset or core.load_preset("grigorchuk")).pair_rules
    stack = []
    for ch in word:
        while stack:
            repl = rules.get(stack[-1] + ch)
            if repl is None:
                break
            stack.pop()
            ch = repl
            if not ch:
                break
        if ch:
            stack.append(ch)
    return "".join(stack)


def rewrite_once(word, pos, rule, repl):
    """Apply one pair rule at a position; used by the confluence tests."""
    assert word[pos : pos + 2] == rule
    return word[:pos] + repl + word[pos + 2 :]


def applicable_rewrites(word, preset=None):
    rules = (preset or core.load_preset("grigorchuk")).pair_rules
    out = []
    for i in range(len(word) - 1):
        pair = word[i : i + 2]
        if pair in rules:
            out.append((i, pair, rules[pair]))
    return out


def is_reduced(word, preset=None):
    return not applicable_rewrites(word, preset)


def word_sections(word, preset=None):
    """Level-1 sections (w_0, ..., w_{d-1}) of a word in the level-1 stabilizer.

    Read through the preset's identity oracle: the word's root permutation
    must be trivial, and section v is the oracle's section word at v.  Every
    output is reduced.
    """
    preset = preset or core.load_preset("grigorchuk")
    atoms = tuple(preset.atoms[ch] for ch in word)
    if preset._word_perm(atoms) != tuple(range(preset.arity)):
        raise ValueError(f"word {word!r} is not in the level-1 stabilizer")
    return tuple(
        reduce("".join(s.label for s in preset._word_section(atoms, v)), preset)
        for v in range(preset.arity)
    )


def enumerate_reduced(n):
    """All syntactically reduced Grigorchuk words of length n, lexicographically.

    Reduced words strictly alternate between 'a' and the letters 'bcd', so
    they are the words starting with 'a' and then those starting in 'bcd'.
    """
    if n < 0:
        raise ValueError("length must be >= 0")
    alternating = ["a", "bcd"] * n
    yield from map("".join, product(*alternating[:n]))
    if n:
        yield from map("".join, product(*alternating[1 : n + 1]))


def count_reduced(n):
    """Closed form for the number of reduced words of length n."""
    if n == 0:
        return 1
    return 3 ** (n // 2) + 3 ** ((n + 1) // 2)


def parity_vector(word):
    """Exponent sums mod 2 of (a, b+d, c+d); constant on elements."""
    na = word.count("a") % 2
    nb = (word.count("b") + word.count("d")) % 2
    nc = (word.count("c") + word.count("d")) % 2
    return (na, nb, nc)


def invert_word(word):
    """Inverse of a word over involutive generators: reverse it."""
    return word[::-1]


def parse_word_expr(text):
    """Expand an expression like "(ab)^2", "[a,b]" or "abab" into a Grigorchuk word.

    Supports letters, parenthesized groups, commutator brackets and integer
    powers (negative powers invert, assuming involutive generators).
    """
    text = text.replace(" ", "")
    pos = 0

    def fail(msg):
        raise ValueError(f"bad word expression {text!r} at {pos}: {msg}")

    def parse_seq(stop):
        nonlocal pos
        out = ""
        while pos < len(text) and text[pos] not in stop:
            out += parse_term()
        return out

    def parse_term():
        nonlocal pos
        ch = text[pos]
        if ch == "(":
            pos += 1
            inner = parse_seq(")")
            if pos >= len(text):
                fail("unclosed parenthesis")
            pos += 1
        elif ch == "[":
            pos += 1
            left = parse_seq(",")
            if pos >= len(text):
                fail("missing comma in commutator")
            pos += 1
            right = parse_seq("]")
            if pos >= len(text):
                fail("unclosed commutator")
            pos += 1
            inner = invert_word(left) + invert_word(right) + left + right
        elif ch in GRIG_ALPHABET:
            inner = ch
            pos += 1
        else:
            fail(f"unexpected character {ch!r}")
        if pos < len(text) and text[pos] == "^":
            pos += 1
            start = pos
            if pos < len(text) and text[pos] == "-":
                pos += 1
            while pos < len(text) and text[pos].isdigit():
                pos += 1
            if pos == start or text[start:pos] == "-":
                fail("missing exponent")
            n = int(text[start:pos])
            if n < 0:
                inner = invert_word(inner)
                n = -n
            inner = inner * n
        return inner

    out = parse_seq("")
    if pos != len(text):
        fail("trailing input")
    return out
