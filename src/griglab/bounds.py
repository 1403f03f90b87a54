"""Numeric side of the growth estimates and the audit layer: exponents,
measured constants, the recursion and assembly audits, and the lemma
audits that `griglab audit` runs.

The estimates are pure table transforms.  No asymptotic exponent is ever
fitted from desk-scale data; the module reports per-row diagnostics and
inequalities with constants measured on the data actually computed.  Each
lemma audit returns (report, inconclusive), the report being the JSON
object that `griglab audit` prints for that lemma.
"""

from __future__ import annotations

import math

from . import conjugacy, constructions, core, enumeration, expressions, width, words


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
    def __init__(
        self, n, representatives, pairs_total, assembled, skipped_unreachable, separated,
        swap_merged,
    ):
        self.n = n
        self.representatives = representatives  # words, in (length, word) order
        self.pairs_total = pairs_total
        self.assembled = assembled
        self.skipped_unreachable = skipped_unreachable
        self.separated = separated
        self.swap_merged = swap_merged


def assembly_audit(n, preset=None):
    """Assemble elements from pairs of class representatives on the subtrees.

    For each unordered pair of class representatives of B(n), the shortest
    member of each class of its partition, a word with exactly those
    sections is searched; assemblies from distinct pairs must be separated
    by depth invariants, while the two orders of a pair must merge under
    conjugation by the rooted generator.  Unreachable pairs are skipped
    with notice.
    """
    preset = preset or core.load_preset("grigorchuk")
    if n > 3:
        raise ValueError("assembly audit is a desk-scale check; use n <= 3")
    ball_ = enumeration.ball(preset, n)
    depth = 8  # of the invariants in the partition and in the separation check
    part = conjugacy.class_partition(ball_, depth, 6)
    reps = sorted(part.classes, key=ball_.entries.__getitem__)  # (length, word)
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
        if swapped is not other and conjugacy.conjugator_search(elem, other, 6) is None:
            swap_merged = False
    return AssemblyAuditReport(
        n=n,
        representatives=tuple(rep_words),
        pairs_total=len(rep_words) * (len(rep_words) + 1) // 2,
        assembled=len(assembled),
        skipped_unreachable=skipped,
        separated=separated,
        swap_merged=swap_merged,
    )


# ----------------------------------------------------------------------
# lemma audits


def lemma_report(lemma, failed, counts, discrepancies=(), witnesses=()):
    """One lemma's audit report, as the JSON object that `griglab audit` prints."""
    return {
        "lemma": lemma,
        "status": "failed" if failed else "passed",
        "counts": counts,
        "witnesses": dict(witnesses),
        "discrepancies": list(discrepancies),
    }


def _audit_subwords(config, preset, rng):
    failures = []
    for n in range(7):
        for w1 in words.enumerate_reduced(n):
            try:
                constructions.encode_right(w1, preset)
            except AssertionError:
                failures.append(w1)
    coverage = constructions.image_coverage_report(
        min(config.max_length, 8), preset
    )
    one_ab = constructions.encode_pair("", "ab", preset)
    witnesses = {"pair_1_ab": {"status": one_ab.status, "word": one_ab.word}}
    if failures:
        witnesses["encode_right_failures"] = failures
    report = lemma_report(
        "subwords",
        failures or not coverage.consistent(),
        {
            "encode_right_checked": sum(words.count_reduced(n) for n in range(7)),
            "coverage_reachable": coverage.reachable,
            "coverage_unreachable": coverage.unreachable,
            "coverage_unknown": coverage.unknown,
            "coverage_total": coverage.total,
        },
        [
            {"pair": [w0, w1], "cost": cost, "word": word}
            for w0, w1, cost, word in coverage.beyond_bound
        ],
        witnesses,
    )
    return report, coverage.unknown > 0


def _audit_comm_k(config, preset, rng):
    data = constructions.branching_data(preset)
    members = [e for e in enumeration.ball(preset, 8).entries if data.k_membership(e)]
    ok = 0
    failures = []
    for _ in range(100):
        k1, k2 = rng.choice(members), rng.choice(members)
        try:
            expr = constructions.comm_k_product(k1, k2, data)
        except (AssertionError, constructions.LiftUnavailableError) as exc:
            failures.append(str(exc))
            continue
        if len(expr.factors) == 4:
            ok += 1
        else:
            failures.append(f"{len(expr.factors)} factors, expected 4")
    counts = {"verified": ok, "sampled": 100, "k_ball_members": len(members)}
    return lemma_report("comm-k", ok != 100, counts, failures), False


def _audit_comm_g(config, preset, rng):
    data = constructions.branching_data(preset)
    ball_ = enumeration.ball(preset, min(config.max_length, 6))
    pool = [w for _, w in ball_.entries.values()]
    bound = 4 * data.h1_rep_max + 2 * 4
    worst = 0
    failures = []
    for _ in range(50):
        gw, xw = rng.choice(pool), rng.choice(pool)
        try:
            expr = constructions.comm_g_decompose(gw, xw, data)
            worst = max(worst, len(expr.factors))
            if len(expr.factors) > bound:
                failures.append({"pair": [gw, xw], "factors": len(expr.factors)})
        except (AssertionError, constructions.LiftUnavailableError) as exc:
            failures.append({"pair": [gw, xw], "error": str(exc)})
    counts = {
        "sampled": 50,
        "max_factors": worst,
        "bound": bound,
        # the longest shortest K x K coset representative, not a K-coset
        # one; the key keeps its old name so stdout stays the same
        "coset_rep_max": data.h1_rep_max,
    }
    return lemma_report("comm-g", failures, counts, failures), False


def _audit_bcw_rewrite(config, preset, rng):
    gens = preset.gen_labels
    conj_pool = [w for n in range(5) for w in words.enumerate_reduced(n)]
    failures = []
    for _ in range(100):
        n_factors = rng.randint(0, 4)
        factors = tuple(
            expressions.ConjugateFactor(rng.choice(gens), rng.choice(conj_pool))
            for _ in range(n_factors)
        )
        expr = expressions.conjugate_product(preset, factors)
        try:
            _, comm = width.rewrite_conjugates_to_commutators(expr)
            if len(comm.factors) > 3 * n_factors:
                failures.append({"factors": n_factors, "commutators": len(comm.factors)})
        except AssertionError as exc:
            failures.append({"error": str(exc)})
    samples = [(rng.choice(conj_pool), rng.choice(conj_pool)) for _ in range(50)]
    identity_failures = width.conjugate_identity_audit(preset, samples)
    report = lemma_report(
        "bcw-rewrite",
        failures or identity_failures,
        {"rewrites": 100, "identity_samples": 50},
        failures + [list(p) for p in identity_failures],
        {"axay_identity": "violated" if identity_failures else "confirmed"},
    )
    return report, False


def _audit_palindrome(config, preset, rng):
    checked, violations = width.palindrome_conjugate_check(9, preset)
    ball_ = enumeration.ball(preset, 6)
    decomposed = 0
    inconclusive = 0
    for e, (_, w) in ball_.entries.items():
        res = width.palindromic_width(e, width.SearchBudget(radius=4, factor_cap=5), word=w)
        if res.status == width.DECOMPOSED and len(res.expression.factors) <= 5:
            decomposed += 1
        else:
            inconclusive += 1
    report = lemma_report(
        "palindrome",
        violations or decomposed < 0.95 * len(ball_.entries),
        {
            "palindromes_checked": checked,
            "violations": len(violations),
            "ball6_decomposed": decomposed,
            "ball6_inconclusive": inconclusive,
        },
        [list(v) for v in violations],
    )
    return report, inconclusive > 0


def _audit_dihedral(config, preset, rng):
    rows, worst = width.dihedral_width_report(20)
    counts = {"elements": len(rows), "max_conjugates": worst}
    return lemma_report("dihedral", worst > 2, counts), False


def _audit_recursion(config, preset, rng):
    n_max = min(config.max_length, 8)
    ball_ = enumeration.ball(preset, n_max)
    gamma_rows = [(n, ball_.count_within(n)) for n in range(n_max + 1)]
    enumeration.cross_check(preset, gamma_rows)
    st1 = [
        (n, enumeration.membership_counts(conjugacy.subball(ball_, n), "st1"))
        for n in range(n_max + 1)
    ]
    T = estimate_T(gamma_rows, st1)
    f_rows = conjugacy.conj_growth_table(
        preset, n_max, depth=config.depth, radius=config.radius, ball_=ball_
    )
    rep = grig_recursion_audit(f_rows, T)
    rows = [vars(r) for r in rep.rows]
    skipped = [{"skipped_nonexact": rep.skipped}] if rep.skipped else []
    report = lemma_report("recursion", not rep.all_hold, {"T": T, "rows": rows}, skipped)
    return report, bool(skipped)


def _audit_assembly(config, preset, rng):
    rep = assembly_audit(min(config.max_length, 2), preset)
    report = lemma_report(
        "assembly",
        not (rep.separated and rep.swap_merged),
        {
            "pairs_total": rep.pairs_total,
            "assembled": rep.assembled,
            "skipped": len(rep.skipped_unreachable),
        },
        [{"pair": list(p), "status": s} for p, s in rep.skipped_unreachable],
    )
    inconclusive = any(
        s == constructions.INCONCLUSIVE for _, s in rep.skipped_unreachable
    )
    return report, inconclusive


AUDITS = {  # lemma -> its audit, in the order `--lemma all` runs them
    "subwords": _audit_subwords,
    "comm-k": _audit_comm_k,
    "comm-g": _audit_comm_g,
    "bcw-rewrite": _audit_bcw_rewrite,
    "palindrome": _audit_palindrome,
    "dihedral": _audit_dihedral,
    "recursion": _audit_recursion,
    "assembly": _audit_assembly,
}
