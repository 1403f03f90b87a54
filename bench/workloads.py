"""The benchmark's workloads: the argv of each operation and its checks.

An operation is one `griglab` process.  A workload turns the benchmark's
seed into a sequence of rounds; a round is the list of operations that one
timing sample covers (one process, except for `width`, whose round runs
one process per search mode).  Every operation's output is checked here,
independently of the code under test wherever that is possible.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass, field

PRESET = "grigorchuk"

# gamma(n) for n <= 13.  n <= 12 is the acceptance suite's GAMMA_FROZEN;
# n = 13 is confirmed by the CLI's two dedup paths (canonical interning and
# leaf permutations), which must agree before it prints a row.
GAMMA_PINNED = (1, 5, 11, 23, 40, 68, 108, 176, 271, 427, 643, 999, 1487, 2259)

# Certified class-count brackets [lower, upper] per radius.  n <= 8 is the
# acceptance suite's F_FROZEN and n = 9 is exact at 32; n = 10 is the
# certified bracket [38, 44].  A correct row must overlap its pin, so a
# tighter bracket passes and a wrong one fails.
CLASS_PINNED = {n: (f, f) for n, f in enumerate((1, 5, 8, 8, 14, 14, 20, 20, 32, 32))}
CLASS_PINNED[10] = (38, 44)

AUDIT_LEMMAS = (
    "subwords",
    "comm-k",
    "comm-g",
    "bcw-rewrite",
    "palindrome",
    "dihedral",
    "recursion",
    "assembly",
)

# width searches: mode -> (radius, factor cap the CLI applies)
WIDTH_MODES = {"commutators": (10, 2), "conjugates": (8, 4), "palindromes": (8, 5)}
WIDTH_TARGET_LENGTH = 16

COMMON = ("--group", PRESET, "--threads", "1")


@dataclass
class Outcome:
    """What the checks learned from one operation."""

    errors: list = field(default_factory=list)
    brackets: list = field(default_factory=list)  # (n, lower, upper)
    searches: int = 0  # width searches run
    inconclusive: int = 0  # width searches that came back inconclusive


# ----------------------------------------------------------------------
# inputs


def parity_vector(word):
    """Exponent sums mod 2 of (a, b+d, c+d); zero on commutators."""
    return (
        word.count("a") % 2,
        (word.count("b") + word.count("d")) % 2,
        (word.count("c") + word.count("d")) % 2,
    )


def width_target(rng, parity_zero=False):
    """A word of WIDTH_TARGET_LENGTH letters alternating `a` with `bcd`."""
    while True:
        a_first = rng.random() < 0.5
        word = "".join(
            "a" if (i % 2 == 0) == a_first else rng.choice("bcd")
            for i in range(WIDTH_TARGET_LENGTH)
        )
        if not parity_zero or parity_vector(word) == (0, 0, 0):
            return word


def width_argv(mode, target):
    radius, _ = WIDTH_MODES[mode]
    return ["width", *COMMON, "--radius", str(radius), "--mode", mode, "--target", target]


def rounds(name, seed):
    """Endless rounds of argv lists for a workload, drawn from the seed."""
    rng = random.Random(f"{name}:{seed}")
    while True:
        if name == "growth":
            yield [["growth", *COMMON, "--max-length", "13"]]
        elif name == "conjgrowth":
            yield [["conjgrowth", *COMMON, "--max-length", "10", "--depth", "8", "--radius", "6"]]
        elif name == "width":
            yield [
                width_argv(mode, width_target(rng, parity_zero=mode == "commutators"))
                for mode in WIDTH_MODES
            ]
        elif name == "audit":
            yield [["audit", *COMMON, "--lemma", "all", "--seed", str(rng.randrange(2**31))]]
        else:
            raise ValueError(f"unknown workload {name!r}")


# BENCHMARK.json times TIMED; BY_HAND runs the same way from the command
# line.  Why each is there: BENCHMARK.json and README.md.
TIMED = ("growth", "audit")
BY_HAND = ("conjgrowth", "width")
WORKLOADS = TIMED + BY_HAND

# the traced run also probes every subcommand, at small sizes, on this preset
CRASH_PRESET = "gupta-sidki-3"
CRASH_PROBES = (
    ["growth", "--group", CRASH_PRESET, "--max-length", "3"],
    ["conjgrowth", "--group", CRASH_PRESET, "--max-length", "3", "--depth", "4", "--radius", "2"],
    ["audit", "--group", CRASH_PRESET, "--lemma", "all", "--max-length", "3"],
    ["width", "--group", CRASH_PRESET, "--radius", "2", "--mode", "conjugates", "--target", "tu"],
)


# ----------------------------------------------------------------------
# checks


def check(argv, code, stdout, stderr, preset=None):
    """Check one operation's exit code and output; returns an Outcome.

    `preset` is the benchmark process's own Grigorchuk preset; width
    witnesses are re-evaluated through its element arithmetic.
    """
    out = Outcome()
    if "Traceback" in stderr:
        out.errors.append(f"traceback: {stderr.strip().splitlines()[-1]}")
    command = argv[0]
    expected_codes = {0, 2} if command == "width" else {0}
    if code not in expected_codes:
        out.errors.append(f"exit code {code}, expected one of {sorted(expected_codes)}")
        return out
    if command == "growth":
        _check_growth(stdout, out)
    elif command == "conjgrowth":
        _check_conjgrowth(stdout, out)
    elif command == "width":
        _check_width(argv, code, stdout, out, preset)
    elif command == "audit":
        _check_audit(stdout, out)
    else:
        out.errors.append(f"no check for command {command!r}")
    return out


def _check_growth(stdout, out):
    expected = "n,gamma\n" + "".join(f"{n},{g}\n" for n, g in enumerate(GAMMA_PINNED))
    if stdout != expected:
        got = stdout.splitlines()
        want = expected.splitlines()
        bad = [i for i in range(max(len(got), len(want))) if got[i:i + 1] != want[i:i + 1]]
        where = f"line {bad[0]}" if bad else "the line endings"
        out.errors.append(f"growth rows differ from the pinned values at {where}")


def _check_conjgrowth(stdout, out):
    lines = stdout.splitlines()
    if not lines or lines[0] != "n,lower,upper,exact":
        out.errors.append("conjgrowth: missing header")
        return
    rows = lines[1:]
    if len(rows) != len(CLASS_PINNED):
        out.errors.append(f"conjgrowth: {len(rows)} rows, expected {len(CLASS_PINNED)}")
        return
    for n, row in enumerate(rows):
        try:
            rn, lower, upper, exact = row.split(",")
            rn, lower, upper = int(rn), int(lower), int(upper)
        except ValueError:
            out.errors.append(f"conjgrowth: malformed row {row!r}")
            continue
        pin_lo, pin_hi = CLASS_PINNED[n]
        if rn != n:
            out.errors.append(f"conjgrowth: row {n} is labelled {rn}")
        elif lower > upper:
            out.errors.append(f"conjgrowth: n={n} lower {lower} > upper {upper}")
        elif exact != ("true" if lower == upper else "false"):
            out.errors.append(f"conjgrowth: n={n} exact flag {exact!r} for [{lower}, {upper}]")
        elif upper < pin_lo or lower > pin_hi:
            out.errors.append(
                f"conjgrowth: n={n} bracket [{lower}, {upper}] misses pinned [{pin_lo}, {pin_hi}]"
            )
        out.brackets.append((n, lower, upper))


def _check_width(argv, code, stdout, out, preset):
    mode = argv[argv.index("--mode") + 1]
    target = argv[argv.index("--target") + 1]
    out.searches = 1
    lines = stdout.splitlines()
    if len(lines) != 2 or lines[0] != "length,element,status,factors,witness":
        out.errors.append("width: malformed output")
        return
    length, element, status, factors, witness = lines[1].split(",", 4)
    if element != target or length != str(len(target)):
        out.errors.append(f"width: reports {element!r} for target {target!r}")
    if status == "inconclusive":
        out.inconclusive = 1
        if code != 2 or factors or witness:
            out.errors.append("width: inconclusive result with exit 0 or a witness")
        return
    if status != "decomposed" or code != 0:
        out.errors.append(f"width: status {status!r} with exit code {code}")
        return
    # the CLI prints an empty witness for the empty product (factors 0)
    parts = [] if witness in ("", "1") else witness.split(" * ")
    _, cap = WIDTH_MODES[mode]
    if factors != str(len(parts)) or len(parts) > cap:
        out.errors.append(f"width: {factors} factors claimed, {len(parts)} printed, cap {cap}")
        return
    try:
        ok = _witness_hits(mode, parts, target, preset)
    except ValueError as exc:
        out.errors.append(f"width: witness {witness!r}: {exc}")
        return
    if not ok:
        out.errors.append(f"width: witness {witness!r} does not evaluate to {target!r}")


def _word(text):
    return "" if text == "1" else text


def _witness_hits(mode, parts, target, preset):
    """Re-evaluate a printed witness through the element arithmetic."""
    from griglab import core

    value = preset.identity
    for part in parts:
        if mode == "commutators":
            if not (part.startswith("[") and part.endswith("]") and part.count(",") == 1):
                raise ValueError(f"not a commutator: {part!r}")
            left, right = part[1:-1].split(",")
            factor = core.commutator(
                core.evaluate(preset, _word(left)), core.evaluate(preset, _word(right))
            )
        elif mode == "conjugates":
            base, _, conj = part.partition("^")
            if base not in preset.gen_labels or not conj:
                raise ValueError(f"not a conjugate of a generator: {part!r}")
            factor = core.conjugate(
                core.evaluate(preset, base), core.evaluate(preset, _word(conj))
            )
        else:
            if part != part[::-1]:
                raise ValueError(f"not a palindrome: {part!r}")
            factor = core.evaluate(preset, part)
        value = core.multiply(value, factor)
    return core.equals(value, core.evaluate(preset, target))


def _check_audit(stdout, out):
    try:
        reports = json.loads(stdout)
    except json.JSONDecodeError:
        out.errors.append("audit: output is not JSON")
        return
    if [r.get("lemma") for r in reports] != list(AUDIT_LEMMAS):
        out.errors.append("audit: lemma list differs")
        return
    for r in reports:
        if r["status"] != "passed":
            out.errors.append(f"audit: lemma {r['lemma']} reports {r['status']!r}")
        if r["lemma"] == "palindrome":
            counts = r["counts"]
            out.searches = counts["ball6_decomposed"] + counts["ball6_inconclusive"]
            out.inconclusive = counts["ball6_inconclusive"]
