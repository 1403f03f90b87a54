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
import os
import sys

# A growth run needs only these; every other layer, and json and random, is
# imported by the subcommand or branch that uses it, so start-up pays for
# nothing unused.
from . import core, enumeration

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


def _emit_table(config, payload, csv_text):
    """Write a table as --format asks: `csv_text`, or `payload` as JSON."""
    if config.out_format == "csv":
        _emit(csv_text, config.out)
    else:
        import json  # a CSV run does not load json

        _emit(json.dumps(payload, sort_keys=True) + "\n", config.out)


# ----------------------------------------------------------------------
# subcommands


def cmd_growth(config):
    preset = _preset(config)
    table = enumeration.growth_table(preset, config.max_length)
    _emit_table(config, {"rows": table.rows}, table.to_csv())
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
    rows = part.rows()
    _emit_table(config, [vars(r) for r in rows], conjugacy.conj_rows_to_csv(rows))
    return EXIT_OK


def cmd_width(config):
    from . import width, words

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


def cmd_audit(config):
    import json
    import random

    from . import bounds

    lemma = config.lemma
    if lemma != "all" and lemma not in bounds.AUDITS:
        raise UsageError(
            f"unknown lemma {lemma!r}; expected one of {', '.join(bounds.AUDITS)} or all"
        )
    if config.group != "grigorchuk":
        raise UsageError("audit lemmas are stated for the built-in grigorchuk preset only")
    preset = _preset(config)
    names = list(bounds.AUDITS) if lemma == "all" else [lemma]
    reports = []
    any_failed = False
    any_inconclusive = False
    for name in names:
        rng = random.Random(config.seed)
        try:
            report, inconclusive = bounds.AUDITS[name](config, preset, rng)
        except AssertionError as exc:  # a builder's output failed verification
            report, inconclusive = bounds.lemma_report(name, True, {}, [str(exc)]), False
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
