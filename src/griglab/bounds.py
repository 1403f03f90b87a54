"""Numeric side of the growth estimates: exponents, measured constants,
recursion and assembly audits.

Everything here is a pure table transform.  No asymptotic exponent is ever
fitted from desk-scale data; the module reports per-row diagnostics and
inequalities with constants measured on the data actually computed.
"""

from __future__ import annotations

import math

from . import conjugacy, constructions, core, enumeration


def sigma(d, M):
    """Growth exponent log(d) / log(d*M)."""
    if d < 2 or M < 1:
        raise ValueError(f"need d >= 2 and M >= 1, got d={d}, M={M}")
    return math.log(d) / math.log(d * M)


def estimate_T(gamma_rows, st1_counts):
    """Smallest constant T with |B(n) & St(1)| >= gamma(n)/T on the data.

    That is the max over rows of gamma(n) / st1_count(n); a lower estimate
    of any constant valid for all n, reported as measured, never as the
    theorem's existential constant.
    """
    if not gamma_rows:
        raise ValueError("no growth data")
    worst = 0.0
    for (n, gamma_n), (n2, st1) in zip(gamma_rows, st1_counts):
        if n != n2:
            raise ValueError("misaligned rows")
        if st1 <= 0:
            raise ValueError(f"empty stabilizer count at n={n}")
        worst = max(worst, gamma_n / st1)
    return worst


class RecursionAuditRow:
    def __init__(self, n, f_n, f_4n, rhs, holds):
        self.n = n
        self.f_n = f_n
        self.f_4n = f_4n
        self.rhs = rhs
        self.holds = holds


class RecursionAuditReport:
    def __init__(self, T, rows, skipped):
        self.T = T
        self.rows = rows
        self.skipped = skipped  # n values without exact data

    @property
    def all_hold(self):
        return all(r.holds for r in self.rows)


def grig_recursion_audit(f_rows, T):
    """Check f(4n) >= f(n)^2 / (2T) on every exact pair available.

    f_rows are ConjGrowthRow-like entries; rows whose bracket has not
    collapsed are skipped with notice rather than silently used.
    """
    exact = {r.n: r.lower for r in f_rows if r.exact}
    present = {r.n for r in f_rows}
    rows = []
    skipped = []
    for n in sorted(exact):
        if 4 * n not in present:
            continue
        if 4 * n not in exact:
            skipped.append(4 * n)
            continue
        rhs = exact[n] ** 2 / (2 * T)
        rows.append(
            RecursionAuditRow(
                n=n, f_n=exact[n], f_4n=exact[4 * n], rhs=rhs, holds=exact[4 * n] >= rhs
            )
        )
    return RecursionAuditReport(T=T, rows=rows, skipped=skipped)


# ----------------------------------------------------------------------
# assembly audit


class AssemblyAuditReport:
    def __init__(self, n, pairs_total, assembled, skipped_unreachable, separated, swap_merged):
        self.n = n
        self.pairs_total = pairs_total
        self.assembled = assembled
        self.skipped_unreachable = skipped_unreachable
        self.separated = separated
        self.swap_merged = swap_merged


def assembly_audit(n, preset=None):
    """Assemble elements from pairs of class representatives on the subtrees.

    For each unordered pair of exact class representatives of B(n), a word
    with exactly those sections is searched; assemblies from distinct pairs
    must be separated by depth invariants, while the two orders of a pair
    must merge under conjugation by the rooted generator.  Unreachable pairs
    are skipped with notice.
    """
    preset = preset or core.load_preset("grigorchuk")
    if n > 3:
        raise ValueError("assembly audit is a desk-scale check; use n <= 3")
    ball_ = enumeration.ball(preset, n)
    depth = 8  # of the invariants in the partition and in the separation check
    part = conjugacy.class_partition(ball_, depth, 6)
    reps = sorted(
        {part.uf.find(e) for e in ball_.entries}, key=lambda e: ball_.entries[e]
    )
    rep_words = [ball_.entries[r][1] for r in reps]
    a = preset.atoms["a"]
    assembled = {}
    skipped = []
    for i, wi in enumerate(rep_words):
        for j in range(i, len(rep_words)):
            wj = rep_words[j]
            res = constructions.encode_pair(wi, wj, preset)
            if res.status != constructions.ACHIEVED:
                skipped.append(((wi, wj), res.status))
                continue
            assembled[(wi, wj)] = core.evaluate(preset, res.word)
    invariants = [conjugacy.depth_invariant(e, depth) for e in assembled.values()]
    separated = len(set(invariants)) == len(invariants)
    swap_merged = True
    for (wi, wj), elem in assembled.items():
        if wi == wj:
            continue
        swapped = core.conjugate(elem, a)
        res = constructions.encode_pair(wj, wi, preset)
        if res.status != constructions.ACHIEVED:
            continue
        other = core.evaluate(preset, res.word)
        if not core.equals(
            core.multiply(swapped, core.invert(other)), preset.identity
        ) and conjugacy.conjugator_search(elem, other, 6) is None:
            swap_merged = False
    return AssemblyAuditReport(
        n=n,
        pairs_total=len(rep_words) * (len(rep_words) + 1) // 2,
        assembled=len(assembled),
        skipped_unreachable=skipped,
        separated=separated,
        swap_merged=swap_merged,
    )
