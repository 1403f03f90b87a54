"""Command line entry point: growth tables, conjugacy brackets, audits,
width searches.

Outputs are UTF-8 with LF line endings and are byte-identical for identical
run configurations; all sampling flows from the single --seed, and
--threads is accepted but has no effect.  Exit codes: 0 all checked
properties passed, 1 a verified property failed (in an audit, also a
builder whose output failed verification), 2 inconclusive searches present
but none failed, 3 usage error, outputs that name the same file, or a
preset that cannot be loaded or is not supported by the subcommand,
4 internal error (traceback on stderr).
"""

from __future__ import annotations

import argparse
import atexit
import gc
import json
import os
import random
import sys

# A growth run needs only these; every other layer is imported by the
# subcommand or audit that uses it, so start-up pays for nothing unused.
from . import core, enumeration, words

# Every element points to its preset, whose intern and product tables point
# back, so the interned heap is one reference cycle that lives until exit
# and a cyclic collection finds almost nothing to free in it.  main runs
# with the collector off, and exit freezes the heap instead of collecting
# it once more.
atexit.register(gc.freeze)

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_INCONCLUSIVE = 2
EXIT_USAGE = 3
EXIT_INTERNAL = 4


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _preset(config):
    try:
        return core.load_preset(config.group)
    except (core.PresetError, core.NonContractingError, core.UndecidedError) as exc:
        raise UsageError(f"--group {config.group}: {exc}") from exc


# argparse keywords of every flag; each subcommand adds the ones it reads
_FLAGS = {
    "--group": dict(default="grigorchuk"),
    "--max-length": dict(type=int, default=8),
    "--depth": dict(type=int, default=8),
    "--radius": dict(type=int, default=6),
    "--format": dict(dest="out_format", choices=("csv", "json"), default="csv"),
    "--seed": dict(type=int, default=0),
    "--budget-seconds": dict(type=float, default=None),
    "--witness-out": dict(default=None),
    "--lemma": dict(default="all"),
    "--target": dict(required=True),
    "--mode": dict(choices=("conjugates", "commutators", "palindromes"), default="conjugates"),
    "--threads": dict(type=int, default=1, help="accepted; no effect"),
    "--out": dict(default=None, help="output file (default stdout)"),
}

# subcommand -> (help, the flags it reads besides --group, --threads and --out)
_COMMANDS = {
    "growth": ("word growth table", ("--max-length", "--format")),
    "conjgrowth": (
        "conjugacy growth bracket table",
        ("--max-length", "--depth", "--radius", "--format", "--witness-out"),
    ),
    "audit": (
        "run a constructive audit",
        ("--max-length", "--depth", "--radius", "--seed", "--lemma"),
    ),
    "width": (
        "width search for one target",
        ("--radius", "--budget-seconds", "--target", "--mode"),
    ),
}


def _check_writable(path, flag):
    """Raise before any work the UsageError that _emit would raise after it."""
    parent = os.path.dirname(path) or "."
    if os.path.isdir(path):
        reason = "is a directory"
    elif not os.path.isdir(parent):
        reason = "no such directory"
    elif not os.access(path if os.path.exists(path) else parent, os.W_OK):
        reason = "permission denied"
    else:
        return
    raise UsageError(f"cannot write {flag} {path}: {reason}")


def _emit(text, out_path, flag="--out"):
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8", newline="\n") as fh:
                fh.write(text)
        except OSError as exc:
            raise UsageError(f"cannot write {flag} {out_path}: {exc.strerror or exc}") from exc
    else:
        sys.stdout.write(text)


# ----------------------------------------------------------------------
# subcommands


def cmd_growth(config):
    preset = _preset(config)
    table = enumeration.growth_table(preset, config.max_length)
    if config.out_format == "json":
        _emit(json.dumps({"rows": table.rows}, sort_keys=True) + "\n", config.out)
    else:
        _emit(table.to_csv(), config.out)
    return EXIT_OK


def cmd_conjgrowth(config):
    from . import conjugacy

    preset = _preset(config)
    try:  # the check class_partition makes, before the ball is built
        conjugacy.bucket_level(preset)
    except core.PresetError as exc:
        raise UsageError(f"--group {config.group}: {exc}") from exc
    ball_ = enumeration.ball(preset, config.max_length)
    enumeration.cross_check(
        preset, [(n, ball_.count_within(n)) for n in range(config.max_length + 1)]
    )
    part = conjugacy.class_partition(
        ball_, config.depth, config.radius, escalate_to=config.radius + 2
    )
    if config.witness_out:
        _emit(part.witness_json(), config.witness_out, "--witness-out")
    if config.out_format == "json":
        payload = [vars(r) for r in part.rows()]
        _emit(json.dumps(payload, sort_keys=True) + "\n", config.out)
    else:
        _emit(conjugacy.conj_rows_to_csv(part.rows()), config.out)
    return EXIT_OK


def cmd_width(config):
    from . import width

    if config.group != "grigorchuk":
        raise UsageError("width targets are words of the built-in grigorchuk preset only")
    preset = _preset(config)
    try:
        word = words.parse_word_expr(config.target)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc
    target = core.evaluate(preset, word)
    budget = width.SearchBudget(
        radius=config.radius,
        factor_cap={"conjugates": 4, "commutators": 2, "palindromes": 5}[config.mode],
        time_limit=config.budget_seconds,
    )
    if config.mode == "conjugates":
        result = width.conjugate_width(target, budget)
    elif config.mode == "commutators":
        result = width.commutator_width(target, budget)
    else:
        result = width.palindromic_width(target, budget, word=word)
    witness = result.expression.describe() if result.expression is not None else ""
    factors = result.factors if result.factors is not None else ""
    lines = [
        "length,element,status,factors,witness",
        f"{len(word)},{word},{result.status},{factors},{witness}",
    ]
    _emit("\n".join(lines) + "\n", config.out)
    return EXIT_OK if result.status == width.DECOMPOSED else EXIT_INCONCLUSIVE


# ----------------------------------------------------------------------
# audits


def _report(lemma, failed, counts, discrepancies=(), witnesses=()):
    """One lemma's audit report, as the JSON that cmd_audit prints."""
    return {
        "lemma": lemma,
        "status": "failed" if failed else "passed",
        "counts": counts,
        "witnesses": dict(witnesses),
        "discrepancies": list(discrepancies),
    }


def _audit_subwords(config, preset, rng):
    from . import constructions

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
    report = _report(
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
    from . import constructions

    data = constructions.branching_data(preset)
    members = [e for e, _ in enumeration.ball(preset, 8).sorted_items() if data.k_membership(e)]
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
    return _report("comm-k", ok != 100, counts, failures), False


def _audit_comm_g(config, preset, rng):
    from . import constructions

    data = constructions.branching_data(preset)
    ball_ = enumeration.ball(preset, min(config.max_length, 6))
    pool = [w for _, (_, w) in ball_.sorted_items()]
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
        # the longest K x K coset representative in B(H1_RADIUS), not a
        # K-coset one; the key keeps its old name so stdout stays the same
        "coset_rep_max": data.h1_rep_max,
    }
    return _report("comm-g", failures, counts, failures), False


def _audit_bcw_rewrite(config, preset, rng):
    from . import expressions, width

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
    report = _report(
        "bcw-rewrite",
        failures or identity_failures,
        {"rewrites": 100, "identity_samples": 50},
        failures + [list(p) for p in identity_failures],
        {"axay_identity": "violated" if identity_failures else "confirmed"},
    )
    return report, False


def _audit_palindrome(config, preset, rng):
    from . import width

    checked, violations = width.palindrome_conjugate_check(9, preset)
    ball_ = enumeration.ball(preset, 6)
    decomposed = 0
    inconclusive = 0
    for e, (_, w) in ball_.sorted_items():
        res = width.palindromic_width(e, width.SearchBudget(radius=4, factor_cap=5), word=w)
        if res.status == width.DECOMPOSED and len(res.expression.factors) <= 5:
            decomposed += 1
        else:
            inconclusive += 1
    report = _report(
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
    from . import width

    rows, worst = width.dihedral_width_report(20)
    counts = {"elements": len(rows), "max_conjugates": worst}
    return _report("dihedral", worst > 2, counts), False


def _audit_recursion(config, preset, rng):
    from . import bounds, conjugacy

    n_max = min(config.max_length, 8)
    ball_ = enumeration.ball(preset, n_max)
    gamma_rows = [(n, ball_.count_within(n)) for n in range(n_max + 1)]
    enumeration.cross_check(preset, gamma_rows)
    st1 = [
        (n, enumeration.membership_counts(conjugacy.subball(ball_, n), "st1"))
        for n in range(n_max + 1)
    ]
    T = bounds.estimate_T(gamma_rows, st1)
    f_rows = conjugacy.conj_growth_table(
        preset, n_max, depth=config.depth, radius=config.radius, ball_=ball_,
        escalate_to=config.radius + 2,
    )
    rep = bounds.grig_recursion_audit(f_rows, T)
    rows = [
        {"n": r.n, "f_n": r.f_n, "f_4n": r.f_4n, "rhs": r.rhs, "holds": r.holds}
        for r in rep.rows
    ]
    skipped = [{"skipped_nonexact": rep.skipped}] if rep.skipped else []
    return _report("recursion", not rep.all_hold, {"T": T, "rows": rows}, skipped), bool(skipped)


def _audit_assembly(config, preset, rng):
    from . import bounds, constructions

    rep = bounds.assembly_audit(min(config.max_length, 2), preset)
    report = _report(
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


_AUDITS = {
    "subwords": _audit_subwords,
    "comm-k": _audit_comm_k,
    "comm-g": _audit_comm_g,
    "bcw-rewrite": _audit_bcw_rewrite,
    "palindrome": _audit_palindrome,
    "dihedral": _audit_dihedral,
    "recursion": _audit_recursion,
    "assembly": _audit_assembly,
}


def cmd_audit(config):
    lemma = config.lemma
    if lemma != "all" and lemma not in _AUDITS:
        raise UsageError(
            f"unknown lemma {lemma!r}; expected one of {', '.join(_AUDITS)} or all"
        )
    if config.group != "grigorchuk":
        raise UsageError("audit lemmas are stated for the built-in grigorchuk preset only")
    preset = _preset(config)
    names = list(_AUDITS) if lemma == "all" else [lemma]
    reports = []
    any_failed = False
    any_inconclusive = False
    for name in names:
        rng = random.Random(config.seed)
        try:
            report, inconclusive = _AUDITS[name](config, preset, rng)
        except AssertionError as exc:  # a builder's output failed verification
            report, inconclusive = _report(name, True, {}, [str(exc)]), False
        reports.append(report)
        any_failed |= report["status"] == "failed"
        any_inconclusive |= inconclusive
    payload = reports[0] if len(reports) == 1 else reports
    _emit(json.dumps(payload, indent=2, sort_keys=True) + "\n", config.out)
    if any_failed:
        return EXIT_FAILED
    if any_inconclusive:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


# ----------------------------------------------------------------------


def build_parser():
    parser = _Parser(prog="griglab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for command, (help_, flags) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_)
        for flag in ("--group", *flags, "--threads", "--out"):
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def main(argv=None):
    collecting = gc.isenabled()
    gc.disable()
    try:
        args = build_parser().parse_args(argv)
        minima = {"max_length": 0, "depth": 0, "radius": 0, "threads": 1, "budget_seconds": 0}
        for name, least in minima.items():
            value = getattr(args, name, None)
            if value is not None and not value >= least:  # NaN fails too
                raise UsageError(f"--{name.replace('_', '-')} must be at least {least}")
        out, witness = args.out, getattr(args, "witness_out", None)
        for flag, path in (("--out", out), ("--witness-out", witness)):
            if path:
                _check_writable(path, flag)
        if out and witness and os.path.realpath(out) == os.path.realpath(witness):
            raise UsageError(f"--out and --witness-out name the same file {out}")
        return globals()[f"cmd_{args.command}"](args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception:  # noqa: BLE001 - never let a crash read as exit 1
        import traceback

        traceback.print_exc()
        return EXIT_INTERNAL
    finally:
        if collecting:  # give in-process callers their collector back
            # freeze and unfreeze move what the run built to the oldest
            # generation (objects a caller froze are unfrozen too), so the
            # first collection after main does not traverse all of it
            gc.freeze()
            gc.unfreeze()
            gc.enable()


if __name__ == "__main__":
    sys.exit(main())
