"""Symbolic products of conjugates, commutators and palindromes.

An Expression is a list of factors plus an evaluator; builders attach the
target they claim to hit and verification re-evaluates the whole product
through the element arithmetic.  No builder output counts until it verifies.
"""

from __future__ import annotations

from . import core

CONJUGATE_PRODUCT = "conjugate-product"
COMMUTATOR_PRODUCT = "commutator-product"
PALINDROME_PRODUCT = "palindrome-product"


class ConjugateFactor:
    def __init__(self, base, conjugator):
        self.base = base  # generator word
        self.conjugator = conjugator

    def evaluate(self, preset):
        z = core.evaluate(preset, self.conjugator)
        return core.conjugate(core.evaluate(preset, self.base), z)

    def describe(self):
        return f"{self.base}^{self.conjugator or '1'}"


class CommutatorFactor:
    def __init__(self, left, right):
        self.left = left
        self.right = right

    def evaluate(self, preset):
        return core.commutator(
            core.evaluate(preset, self.left), core.evaluate(preset, self.right)
        )

    def describe(self):
        return f"[{self.left or '1'},{self.right or '1'}]"


class PalindromeFactor:
    def __init__(self, word):
        self.word = word

    def evaluate(self, preset):
        return core.evaluate(preset, self.word)

    def describe(self):
        return self.word or "1"


class Expression:
    def __init__(self, kind, factors, preset):
        self.kind = kind
        self.factors = factors  # a tuple
        self.preset = preset

    def evaluate(self):
        out = self.preset.identity
        for f in self.factors:
            out = core.multiply(out, f.evaluate(self.preset))
        return out

    def verify(self, target):
        return core.equals(self.evaluate(), target)

    def describe(self):
        if not self.factors:
            return "1"
        return " * ".join(f.describe() for f in self.factors)


def conjugate_product(preset, factors):
    return Expression(CONJUGATE_PRODUCT, tuple(factors), preset)


def commutator_product(preset, factors):
    return Expression(COMMUTATOR_PRODUCT, tuple(factors), preset)


def palindrome_product(preset, factors):
    return Expression(PALINDROME_PRODUCT, tuple(factors), preset)
