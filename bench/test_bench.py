"""Tests of the benchmark itself: its checks, its metric lists and its tracing."""

from __future__ import annotations

import json
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import measure  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

sys.path.insert(0, str(measure.SRC))

from griglab import core  # noqa: E402

TARGET = "abacabadabacabad"
WIDTH_HEADER = "length,element,status,factors,witness\n"


@pytest.fixture(scope="module")
def grig():
    return core.load_preset("grigorchuk")


def growth_output(values):
    return "n,gamma\n" + "".join(f"{n},{g}\n" for n, g in enumerate(values))


def conj_output(rows):
    lines = ["n,lower,upper,exact"]
    lines += [f"{n},{lo},{hi},{'true' if lo == hi else 'false'}" for n, (lo, hi) in enumerate(rows)]
    return "\n".join(lines) + "\n"


def errors(argv, code, stdout, preset=None):
    return workloads.check(argv, code, stdout, "", preset).errors


# ----------------------------------------------------------------------
# correctness checks


def test_growth_check_rejects_a_row_off_by_one():
    argv = next(workloads.rounds("growth", 0))[0]
    assert not errors(argv, 0, growth_output(workloads.GAMMA_PINNED))
    for n in (1, 13):
        bad = list(workloads.GAMMA_PINNED)
        bad[n] += 1
        assert errors(argv, 0, growth_output(bad))
    assert errors(argv, 0, growth_output(workloads.GAMMA_PINNED[:-1]))
    assert errors(argv, 1, growth_output(workloads.GAMMA_PINNED))


def test_conjgrowth_check_accepts_tighter_and_rejects_excluding_brackets():
    argv = next(workloads.rounds("conjgrowth", 0))[0]
    pinned = [workloads.CLASS_PINNED[n] for n in range(11)]
    assert not errors(argv, 0, conj_output(pinned))
    for row10 in [(40, 42), (38, 38), (44, 44), (36, 44), (30, 38)]:
        assert not errors(argv, 0, conj_output(pinned[:10] + [row10])), row10
    for row10 in [(45, 50), (30, 37)]:
        assert errors(argv, 0, conj_output(pinned[:10] + [row10])), row10
    assert not errors(argv, 0, conj_output(pinned[:9] + [(31, 33), (38, 44)]))
    assert errors(argv, 0, conj_output(pinned[:9] + [(33, 34), (38, 44)]))
    assert errors(argv, 0, conj_output(pinned[:8] + [(31, 31)] + pinned[9:]))
    assert errors(argv, 0, conj_output(pinned[:10] + [(44, 38)]))
    flag_lies = conj_output(pinned).replace("10,38,44,false", "10,38,44,true")
    assert errors(argv, 0, flag_lies)
    outcome = workloads.check(argv, 0, conj_output(pinned), "")
    assert sum(hi - lo for _, lo, hi in outcome.brackets) == 6


@pytest.mark.parametrize(
    "mode, witness, wrong",
    [
        ("commutators", "[b,acacacab]", "[c,acacacab]"),
        ("conjugates", "b^1 * b^acacacab", "b^1 * c^acacacab"),
        ("palindromes", "ababadacadababa * dababadacadababad", "aba * dababadacadababad"),
    ],
)
def test_width_check_reevaluates_witnesses(grig, mode, witness, wrong):
    argv = workloads.width_argv(mode, TARGET)
    n = len(witness.split(" * "))

    def output(w, factors=n):
        return f"{WIDTH_HEADER}16,{TARGET},decomposed,{factors},{w}\n"

    assert not errors(argv, 0, output(witness), grig)
    assert errors(argv, 0, output(wrong, len(wrong.split(" * "))), grig)
    assert errors(argv, 0, output(witness, n + 1), grig)
    assert errors(argv, 2, output(witness), grig)


def test_width_check_accepts_the_empty_product_only_for_the_identity(grig):
    identity = "adadabadadadabad"
    for witness in ("", "1"):
        out = f"{WIDTH_HEADER}16,{identity},decomposed,0,{witness}\n"
        assert not errors(workloads.width_argv("commutators", identity), 0, out, grig)
        out = f"{WIDTH_HEADER}16,{TARGET},decomposed,0,{witness}\n"
        assert errors(workloads.width_argv("commutators", TARGET), 0, out, grig)


def test_width_check_rules(grig):
    argv = workloads.width_argv("palindromes", TARGET)
    not_palindromes = f"{WIDTH_HEADER}16,{TARGET},decomposed,2,abacabad * abacabad\n"
    assert errors(argv, 0, not_palindromes, grig)
    inconclusive = f"{WIDTH_HEADER}16,{TARGET},inconclusive,,\n"
    assert not errors(argv, 2, inconclusive, grig)
    assert errors(argv, 0, inconclusive, grig)
    assert workloads.check(argv, 2, inconclusive, "", grig).inconclusive == 1
    assert errors(argv, 3, "", grig)


def test_audit_check_needs_every_lemma_passed():
    argv = next(workloads.rounds("audit", 0))[0]
    counts = {"ball6_decomposed": 2, "ball6_inconclusive": 0}
    reports = [
        {"lemma": name, "status": "passed", "counts": counts}
        for name in workloads.AUDIT_LEMMAS
    ]
    assert not errors(argv, 0, json.dumps(reports))
    reports[3]["status"] = "failed"
    assert errors(argv, 0, json.dumps(reports))
    assert errors(argv, 0, json.dumps(reports[:3]))


def test_width_targets_are_seeded_alternating_words():
    for seed in range(5):
        first = next(workloads.rounds("width", seed))
        assert first == next(workloads.rounds("width", seed))
        for argv in first:
            target = argv[argv.index("--target") + 1]
            assert len(target) == workloads.WIDTH_TARGET_LENGTH
            letters = target[0::2] if target[0] == "a" else target[1::2]
            assert set(letters) == {"a"}
            assert "a" not in (target[1::2] if target[0] == "a" else target[0::2])
            if "commutators" in argv:
                assert workloads.parity_vector(target) == (0, 0, 0)


# ----------------------------------------------------------------------
# metric lists


def test_benchmark_json_lists_the_emitted_metrics():
    spec = json.loads((measure.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(workloads.TIMED)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert max(m["bound"] for m in spec["end_to_end"]) == next(
        m["bound"] for m in spec["end_to_end"] if m["name"] == "setup_s"
    )


def _fake_child(argv):
    stdout = {
        "growth": growth_output(workloads.GAMMA_PINNED),
        "conjgrowth": conj_output([workloads.CLASS_PINNED[n] for n in range(11)]),
    }.get(argv[0], "")
    crashes = workloads.CRASH_PRESET in argv
    return measure.Child(0.5, 0.5, 20.0, 1 if crashes else 0, stdout, "")


@pytest.mark.parametrize("trace", [0, 1])
def test_emitted_metric_names(monkeypatch, capsys, trace):
    def run_traced(argv, spans_path, op_id):
        spans = [["cli.main", 0.0, 1.0, -1, 0, None, op_id]]
        memo = {m: 1 for m in tracing.MEMO_METRICS}
        Path(spans_path).write_text(json.dumps({"spans": spans, "memo": memo}))
        return _fake_child(argv)

    setup = measure.Child(0.1, 0.1, 9.0, 0, "", "")
    monkeypatch.setattr(measure, "run_setup", lambda preset: setup)
    monkeypatch.setattr(measure, "run_cli", lambda argv: _fake_child(list(argv)))
    monkeypatch.setattr(measure, "run_traced", run_traced)
    argv = ["--workload", "conjgrowth", "--seed", "1", "--seconds", "0", "--trace", str(trace)]
    assert run.main(argv) == 0
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0
    expected = run.PER_LAYER if trace else run.END_TO_END
    assert list(result["metrics"]) == list(expected)
    metrics = {k: v["value"] for k, v in result["metrics"].items()}
    if trace:
        assert metrics["bracket_gap"] == 6
        assert metrics["cli.gupta_sidki_3_crashes"] == 4
        assert metrics["cli.main.self_s"] == 1.0
    else:
        assert metrics["bracket_choices"] == 7


# ----------------------------------------------------------------------
# tracing


def test_span_arithmetic():
    spans = [
        ["cli.main", 0.0, 10.0, -1, 0, None, 0],
        ["enumeration.ball", 1.0, 4.0, 0, 5, None, 0],
        ["enumeration.ball", 2.0, 3.0, 1, 2, None, 0],
        ["conjugacy.quotient_separated", 5.0, 6.0, 0, 0, "OrbitBudgetError", 0],
        ["conjugacy.quotient_separated", 6.0, 6.5, 0, 1, None, 0],
    ]
    memo = {"core.interned_elements": 3, "core.mul_memo_entries": -1}
    m = tracing.operation_metrics([{"spans": spans, "memo": memo}])
    assert m["cli.main.self_s"] == pytest.approx(10.0 - 3.0 - 1.0 - 0.5)
    assert m["enumeration.ball.s"] == pytest.approx(3.0)
    assert m["enumeration.ball.calls"] == 2
    assert m["enumeration.ball.elements"] == 7
    assert m["conjugacy.quotient_separated.budget_exhausted"] == 1
    assert m["conjugacy.quotient_separated.separated"] == 1
    assert m["core.interned_elements"] == 3
    assert m["core.mul_memo_entries"] == -1


@pytest.mark.parametrize(
    "args",
    [
        ["growth", "--max-length", "5"],
        ["conjgrowth", "--max-length", "4", "--depth", "6", "--radius", "4"],
        ["width", "--radius", "3", "--mode", "conjugates", "--target", "abacab"],
        ["audit", "--lemma", "dihedral"],
        ["width", "--target", "xyz"],
    ],
)
def test_traced_output_is_byte_identical(tmp_path, args):
    plain = measure.run_cli(args)
    spans_path = tmp_path / "spans.json"
    traced = measure.run_traced(args, spans_path, 7)
    assert (traced.code, traced.stdout, traced.stderr) == (plain.code, plain.stdout, plain.stderr)
    dump = json.loads(spans_path.read_text(encoding="utf-8"))
    names = {span[0] for span in dump["spans"]}
    assert {span[6] for span in dump["spans"]} == {7}
    assert "cli.main" in names
    if plain.code == 0:
        assert "core.load_preset" in names
