import gc
import json
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from griglab import cli, core, enumeration


def run(argv):
    return cli.main(argv)


def test_growth_rows(tmp_path):
    out = tmp_path / "g.csv"
    assert run(["growth", "--max-length", "6", "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,gamma"
    assert len(lines) == 8
    assert "1,5" in lines


def test_growth_thread_invariance(tmp_path):
    out1, out8 = tmp_path / "t1.csv", tmp_path / "t8.csv"
    assert run(["growth", "--max-length", "8", "--threads", "1", "--out", str(out1)]) == 0
    assert run(["growth", "--max-length", "8", "--threads", "8", "--out", str(out8)]) == 0
    assert out1.read_bytes() == out8.read_bytes()


def test_growth_gupta_sidki_3(tmp_path):
    out = tmp_path / "g.csv"
    args = ["growth", "--group", "gupta-sidki-3", "--max-length", "6", "--out", str(out)]
    assert run(args) == 0
    gammas = (1, 4, 9, 19, 35, 65, 117)
    assert out.read_text().splitlines() == ["n,gamma"] + [
        f"{n},{g}" for n, g in enumerate(gammas)
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["audit", "--lemma", "all", "--max-length", "3"],
        ["width", "--target", "a", "--radius", "2"],
    ],
)
def test_grigorchuk_only_subcommands_reject_gupta_sidki_3(argv, capsys):
    assert run(argv + ["--group", "gupta-sidki-3"]) == 3
    assert capsys.readouterr().err.startswith("error: ")


def test_conjgrowth_gupta_sidki_3(tmp_path):
    out, wit = tmp_path / "f.csv", tmp_path / "wit.json"
    argv = ["conjgrowth", "--group", "gupta-sidki-3", "--max-length", "6"]
    assert run(argv + ["--out", str(out), "--witness-out", str(wit)]) == 0
    classes = (1, 4, 7, 9, 12, 16, 23)
    assert out.read_text().splitlines() == ["n,lower,upper,exact"] + [
        f"{n},{f},{f},true" for n, f in enumerate(classes)
    ]
    gs = core.load_preset("gupta-sidki-3")
    witnesses = json.loads(wit.read_text())
    for pair, z in witnesses.items():
        x, y = (core.evaluate(gs, w) for w in pair.split("|"))
        assert core.equals(core.conjugate(x, core.evaluate(gs, z)), y)
    assert len(witnesses) == len(enumeration.ball(gs, 6)) - classes[-1]


def test_conjgrowth_rejects_a_preset_without_a_layered_basis(tmp_path, capsys, monkeypatch):
    # arity 4 is not prime, so no level quotient is a p-group; the check
    # comes before the ball, which would crash here
    monkeypatch.setattr(enumeration, "ball", lambda *a: 1 / 0)
    spec = {"label": "r", "involution": False, "perm": [1, 2, 3, 0], "sections": ["1"] * 4}
    group = tmp_path / "cyclic-4.json"
    group.write_text(
        json.dumps({"schema": "asg-1", "name": "cyclic-4", "arity": 4, "generators": [spec]})
    )
    out, wit = tmp_path / "f.csv", tmp_path / "wit.json"
    argv = ["conjgrowth", "--group", str(group), "--out", str(out), "--witness-out", str(wit)]
    assert run(argv) == 3
    assert capsys.readouterr().err.startswith(f"error: --group {group}: ")
    assert not out.exists() and not wit.exists()


def test_growth_json_format(tmp_path):
    out = tmp_path / "g.json"
    assert run(["growth", "--max-length", "2", "--format", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["rows"] == [[0, 1], [1, 5], [2, 11]]


def test_conjgrowth_rows(tmp_path):
    out = tmp_path / "f.csv"
    wit = tmp_path / "wit.json"
    code = run(
        [
            "conjgrowth",
            "--max-length",
            "4",
            "--radius",
            "6",
            "--out",
            str(out),
            "--witness-out",
            str(wit),
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "n,lower,upper,exact"
    assert lines[1] == "0,1,1,true"
    assert lines[2] == "1,5,5,true"
    # every witness re-verifies, and each one is a merge of two classes
    grig = core.load_preset("grigorchuk")
    witnesses = json.loads(wit.read_text())
    for pair, z in witnesses.items():
        x, y = (core.evaluate(grig, w) for w in pair.split("|"))
        assert core.equals(core.conjugate(x, core.evaluate(grig, z)), y)
    upper = int(lines[-1].split(",")[2])
    assert len(witnesses) == len(enumeration.ball(grig, 4)) - upper


def test_conjgrowth_json_rows_are_the_row_attributes(tmp_path, capsys):
    argv = ["conjgrowth", "--max-length", "2", "--depth", "4", "--radius", "2"]
    assert run(argv + ["--format", "json"]) == 0
    rows = json.loads(capsys.readouterr().out)
    assert rows[:2] == [
        {"exact": True, "lower": 1, "n": 0, "upper": 1},
        {"exact": True, "lower": 5, "n": 1, "upper": 5},
    ]
    assert all(set(r) == {"n", "lower", "upper", "exact"} for r in rows)


def test_width_targets(tmp_path):
    out = tmp_path / "w.csv"
    assert run(["width", "--target", "a", "--mode", "conjugates", "--out", str(out)]) == 0
    assert ",decomposed,1," in out.read_text()
    assert run(["width", "--target", "", "--mode", "conjugates", "--out", str(out)]) == 0
    assert ",decomposed,0," in out.read_text()
    assert run(["width", "--target", "[a,b]", "--mode", "commutators", "--out", str(out)]) == 0
    assert ",decomposed,1," in out.read_text()


def test_width_identity_target_prints_empty_product(tmp_path):
    out = tmp_path / "w.csv"
    for mode in ("conjugates", "commutators", "palindromes"):
        assert run(["width", "--target", "aa", "--mode", mode, "--out", str(out)]) == 0
        assert out.read_text().splitlines()[1] == "2,aa,decomposed,0,1"


@pytest.mark.parametrize("mode", ["conjugates", "commutators", "palindromes"])
def test_width_zero_time_budget_exits_0_or_2(tmp_path, mode):
    out = tmp_path / "w.csv"
    # parity zero, so the commutator search runs too
    argv = ["width", "--target", "abacabad", "--mode", mode, "--radius", "4"]
    assert run(argv + ["--budget-seconds", "0", "--out", str(out)]) in (0, 2)
    assert out.read_text().splitlines()[1].startswith("8,abacabad,")


def test_width_zero_time_budget_falls_back_to_a_palindromic_split(tmp_path):
    out = tmp_path / "w.csv"
    argv = ["width", "--target", "abacabadacab", "--mode", "palindromes", "--radius", "4"]
    assert run(argv + ["--budget-seconds", "0", "--out", str(out)]) == 0
    _, _, status, factors, witness = out.read_text().splitlines()[1].split(",")
    blocks = witness.split(" * ")
    assert status == "decomposed" and int(factors) == len(blocks) <= 5
    assert all(w == w[::-1] for w in blocks)
    grig = core.load_preset("grigorchuk")
    product = core.evaluate(grig, "".join(blocks))
    assert core.equals(product, core.evaluate(grig, "abacabadacab"))


def test_width_bad_target_exits_3():
    assert run(["width", "--target", "(ab", "--mode", "conjugates"]) == 3


def test_audit_palindrome_exit_0(tmp_path):
    out = tmp_path / "p.json"
    assert run(["audit", "--lemma", "palindrome", "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert report["status"] == "passed"
    assert report["counts"]["violations"] == 0


def test_audit_unknown_lemma_exit_3():
    assert run(["audit", "--lemma", "no-such-thing"]) == 3


def test_audit_determinism(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(["audit", "--lemma", "comm-k", "--seed", "5", "--out", str(a)]) == 0
    assert run(["audit", "--lemma", "comm-k", "--seed", "5", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_outputs_use_lf(tmp_path):
    out = tmp_path / "g.csv"
    assert run(["growth", "--max-length", "3", "--out", str(out)]) == 0
    assert b"\r" not in out.read_bytes()


def test_bad_flag_value_exits_3():
    assert run(["growth", "--threads", "0"]) == 3


_WIDTH = ["width", "--target", "a"]


@pytest.mark.parametrize(
    "flags, message",
    [
        (["growth", "--max-length", "-1"], "--max-length must be at least 0"),
        (_WIDTH + ["--radius", "-2"], "--radius must be at least 0"),
        (_WIDTH + ["--threads", "0"], "--threads must be at least 1"),
        (_WIDTH + ["--budget-seconds", "-1"], "--budget-seconds must be at least 0"),
        (_WIDTH + ["--budget-seconds", "nan"], "--budget-seconds must be at least 0"),
    ],
)
def test_flag_below_its_minimum_exits_3(flags, message, capsys):
    assert run(flags) == 3
    assert capsys.readouterr().err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["growth", "--seed", "1"], "--seed"),
        (["conjgrowth", "--budget-seconds", "1"], "--budget-seconds"),
        (["audit", "--format", "json"], "--format"),
        (_WIDTH + ["--max-length", "3"], "--max-length"),
    ],
)
def test_a_flag_the_subcommand_does_not_read_exits_3(argv, flag, capsys):
    assert run(argv) == 3
    assert capsys.readouterr().err.startswith(f"error: unrecognized arguments: {flag}")


def test_zero_max_length_is_accepted(tmp_path):
    out = tmp_path / "g.csv"
    assert run(["growth", "--max-length", "0", "--out", str(out)]) == 0
    assert out.read_text() == "n,gamma\n0,1\n"


def test_unloadable_preset_exits_3(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"schema": "asg-0", "name": "bad", "arity": 2, "generators": []}))
    # x*y reproduces itself in a section: no finite canonical form
    cycling = tmp_path / "cycling.json"
    gens = [
        {"label": "x", "involution": False, "perm": [1, 0], "sections": ["x", "y"]},
        {"label": "y", "involution": False, "perm": [0, 1], "sections": ["y", "x"]},
    ]
    cycling.write_text(
        json.dumps({"schema": "asg-1", "name": "cycling", "arity": 2, "generators": gens})
    )
    x = {"label": "x", "involution": True, "perm": [1, 0], "sections": ["1", "1"]}
    malformed = [
        [1, 2],
        {"schema": "asg-1", "name": "m", "arity": 2, "generators": {"x": x}},
        {"schema": "asg-1", "name": "m", "arity": 2, "generators": [x, 5]},
        {"schema": "asg-1", "name": "m", "arity": 2,
         "generators": [dict(x, sections=[["1"], "1"])]},
        {"schema": "asg-1", "name": "m", "arity": 2, "generators": [dict(x, perm=[0, "1"])]},
    ]
    # words are strings of one-character labels, and "'" marks inverse atoms
    for label in ("xb", "'", "t'"):
        extra = {"label": label, "involution": True, "perm": [0, 1], "sections": ["b", "b"]}
        gens = core.GRIGORCHUK_SPECS + [extra]
        malformed.append({"schema": "asg-1", "name": "m", "arity": 2, "generators": gens})
    files = []
    for i, data in enumerate(malformed):
        files.append(tmp_path / f"malformed{i}.json")
        files[-1].write_text(json.dumps(data))
    for group in ["nosuch", str(bad), str(cycling)] + [str(f) for f in files]:
        assert run(["growth", "--group", group, "--max-length", "2"]) == 3
        assert capsys.readouterr().err.startswith("error: --group ")


def test_internal_error_exits_4(monkeypatch, capsys):
    def crash(config):
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "cmd_growth", crash)
    assert run(["growth", "--max-length", "2"]) == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err.startswith("Traceback") and "RuntimeError: boom" in err


@pytest.mark.parametrize(
    "lemma, builder",
    [
        ("comm-k", "comm_k_product"),
        ("comm-g", "comm_g_decompose"),
        ("subwords", "encode_right"),
        ("palindrome", "palindromic_width"),
        ("dihedral", "dihedral_width_report"),
        ("assembly", "encode_pair"),
        ("recursion", "class_partition"),
        ("bcw-rewrite", "rewrite_conjugates_to_commutators"),
    ],
)
def test_audit_crash_exits_4_and_failed_verification_exits_1(
    monkeypatch, capsys, lemma, builder
):
    from griglab import conjugacy, constructions, width

    module = next(m for m in (constructions, width, conjugacy) if hasattr(m, builder))

    def raising(exc):
        def builder_(*args, **kwargs):
            raise exc("boom")

        return builder_

    monkeypatch.setattr(module, builder, raising(TypeError))
    assert run(["audit", "--lemma", lemma]) == cli.EXIT_INTERNAL
    assert "TypeError: boom" in capsys.readouterr().err
    monkeypatch.setattr(module, builder, raising(AssertionError))
    assert run(["audit", "--lemma", lemma]) == cli.EXIT_FAILED
    assert json.loads(capsys.readouterr().out)["status"] == "failed"


def test_a_failed_lemma_leaves_the_other_lemmas_running(monkeypatch, capsys):
    from griglab import bounds, width

    def failing(*args, **kwargs):
        raise AssertionError("palindrome-product decomposition failed verification")

    monkeypatch.setattr(width, "palindromic_width", failing)
    assert run(["audit", "--lemma", "all"]) == cli.EXIT_FAILED
    reports = {r["lemma"]: r for r in json.loads(capsys.readouterr().out)}
    assert list(reports) == list(bounds.AUDITS)
    assert reports.pop("palindrome") == {
        "lemma": "palindrome",
        "status": "failed",
        "counts": {},
        "witnesses": {},
        "discrepancies": ["palindrome-product decomposition failed verification"],
    }
    assert {r["status"] for r in reports.values()} == {"passed"}


_FIVE_FACTOR_COMM_K = """
import sys
from griglab import cli, constructions
real = constructions.comm_k_product

def five(*args):
    expr = real(*args)
    expr.factors += expr.factors[:1]
    return expr

constructions.comm_k_product = five
sys.exit(cli.main(["audit", "--lemma", "comm-k"]))
"""


def test_comm_k_factor_count_is_checked_under_python_O():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-O", "-c", _FIVE_FACTOR_COMM_K],
        env=env, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == cli.EXIT_FAILED, proc.stderr
    report = json.loads(proc.stdout)
    assert report["status"] == "failed" and report["counts"]["verified"] == 0
    assert report["discrepancies"][0] == "5 factors, expected 4"


@pytest.mark.parametrize("flag", ["--out", "--witness-out"])
def test_unwritable_output_exits_3(tmp_path, flag, capsys):
    missing = tmp_path / "no" / "such" / "file"
    argv = ["conjgrowth", "--max-length", "2", "--depth", "4", "--radius", "2"]
    assert run(argv + [flag, str(missing)]) == 3
    assert capsys.readouterr().err.startswith(f"error: cannot write {flag} {missing}: ")


def test_unwritable_output_is_rejected_before_any_work(tmp_path):
    # radius 60 would run for hours, so only the up-front check can finish
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    argv = ["growth", "--max-length", "60", "--out", str(tmp_path / "no" / "x.csv")]
    proc = subprocess.run(
        [sys.executable, "-m", "griglab.cli", *argv],
        env=env, capture_output=True, text=True, timeout=5,
    )
    assert proc.returncode == 3
    assert proc.stderr.startswith("error: cannot write --out ")


def test_out_and_witness_out_naming_one_file_exit_3(tmp_path, capsys):
    out = tmp_path / "f.csv"
    argv = ["conjgrowth", "--max-length", "3", "--out", str(out)]
    assert run(argv + ["--witness-out", str(tmp_path / "." / "f.csv")]) == cli.EXIT_USAGE
    assert capsys.readouterr().err == f"error: --out and --witness-out name the same file {out}\n"
    assert not out.exists()
    (tmp_path / "link").symlink_to(tmp_path)
    assert run(argv + ["--witness-out", str(tmp_path / "link" / "f.csv")]) == cli.EXIT_USAGE
    assert not out.exists()


def test_unwritable_out_writes_no_witness_file(tmp_path, capsys):
    witness = tmp_path / "w.json"
    argv = ["conjgrowth", "--max-length", "2", "--depth", "4", "--radius", "2"]
    argv += ["--witness-out", str(witness), "--out", str(tmp_path / "no" / "f.csv")]
    assert run(argv) == 3
    assert capsys.readouterr().err.startswith("error: cannot write --out ")
    assert not witness.exists()


# Prints the modules a fresh process newly imports while running the CLI;
# modules that a site hook loads before griglab do not count.
_LOADED_BY_MAIN = """
import json, os, sys
before = set(sys.modules)
from griglab import cli
code = cli.main(sys.argv[1:] + ["--out", os.devnull])
print(json.dumps({"code": code, "new": sorted(set(sys.modules) - before)}))
"""


def _loaded_by(argv):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_BY_MAIN, *argv],
        env=env, capture_output=True, text=True, check=True,
    )
    result = json.loads(proc.stdout)
    assert result["code"] == 0, proc.stderr
    return set(result["new"])


def test_subcommands_import_only_their_layers():
    new = _loaded_by(["growth", "--max-length", "3"])
    assert {m for m in new if m.split(".")[0] == "griglab"} == {
        "griglab",
        "griglab.cli",
        "griglab.core",
        "griglab.enumeration",
    }
    assert not new & {"dataclasses", "traceback"}
    new = _loaded_by(["conjgrowth", "--max-length", "3", "--depth", "4", "--radius", "2"])
    assert "griglab.conjugacy" in new
    assert not new & {"griglab.bounds", "griglab.width", "dataclasses"}
    new = _loaded_by(["width", "--target", "abab", "--radius", "2"])
    assert "griglab.width" in new
    assert not new & {
        "griglab.conjugacy", "griglab.constructions", "griglab.bounds", "dataclasses"
    }
    new = _loaded_by(["audit", "--lemma", "all", "--max-length", "4", "--radius", "2"])
    assert {"griglab.bounds", "griglab.constructions", "griglab.width"} <= new
    assert "dataclasses" not in new


# Runs argv[1] in a process started with `python -S`, so no site hook loads
# anything first, and prints the modules it newly imported; json is
# imported only after the count.
_NEW_WITHOUT_SITE = """
import sys
before = set(sys.modules)
exec(sys.argv[1])
new = sorted(set(sys.modules) - before)
import json
print(json.dumps(new))
"""


@pytest.mark.parametrize(
    "code",
    [
        "import os\nfrom griglab import cli\n"
        "assert cli.main(['growth', '--max-length', '3', '--out', os.devnull]) == 0",
        # the benchmark's set-up process
        "import griglab.cli; from griglab import core; core.load_preset('grigorchuk')",
        # json is for --witness-out and --format json only
        "import os\nfrom griglab import cli\nassert cli.main(['conjgrowth', '--max-length', '3',"
        " '--depth', '4', '--radius', '2', '--out', os.devnull]) == 0",
    ],
    ids=["growth", "set-up", "conjgrowth"],
)
def test_growth_start_up_loads_no_json_pathlib_random_or_words(code):
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-S", "-c", _NEW_WITHOUT_SITE, code],
        env=env, capture_output=True, text=True, check=True,
    )
    new = set(json.loads(proc.stdout))
    assert "griglab.core" in new
    assert not new & {"json", "pathlib", "random", "griglab.words"}


@pytest.mark.parametrize("enabled", [True, False])
def test_main_restores_the_callers_collector_setting(enabled, tmp_path):
    # the gupta-sidki-3 file is loaded afresh, so the run builds a new heap
    argv = ["growth", "--group", "gupta-sidki-3", "--max-length", "8"]
    was = gc.isenabled()
    try:
        (gc.enable if enabled else gc.disable)()
        assert run(argv + ["--out", str(tmp_path / "g.csv")]) == 0
        assert gc.isenabled() is enabled
        if enabled:  # the heap went to the oldest generation, not a young one
            assert len(gc.get_objects(generation=0)) + len(gc.get_objects(generation=1)) < 100
        assert run(["growth", "--max-length", "-1"]) == 3
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


# atexit runs handlers last in, first out, so a handler registered before
# griglab.cli is imported runs after the one that module registers
_FROZEN_AT_EXIT = """
import atexit, gc, os, sys
atexit.register(lambda: print("frozen", gc.get_freeze_count() > 0))
from griglab import cli
print("code", cli.main(["growth", "--max-length", "3", "--out", os.devnull]))
"""


def test_exit_freezes_the_heap_instead_of_collecting_it():
    env = dict(os.environ, PYTHONPATH=str(Path(cli.__file__).resolve().parents[1]))
    proc = subprocess.run(
        [sys.executable, "-c", _FROZEN_AT_EXIT],
        env=env, capture_output=True, text=True, check=True,
    )
    assert proc.stdout.splitlines() == ["code 0", "frozen True"]


# Byte-exact outputs of reference runs; a change that alters them on
# purpose replaces the files and says why in CHANGES.md.
GOLDEN = Path(__file__).parent / "golden"


def test_audit_stdout_matches_the_golden_file(capsysbinary):
    assert run(["audit", "--lemma", "all", "--seed", "0"]) == cli.EXIT_OK
    assert capsysbinary.readouterr().out == (GOLDEN / "audit_all_seed0.json").read_bytes()


def test_conjgrowth_outputs_match_the_golden_files(tmp_path, capsysbinary):
    witness = tmp_path / "w.json"
    argv = ["conjgrowth", "--max-length", "10", "--depth", "8", "--radius", "6"]
    assert run(argv + ["--witness-out", str(witness)]) == cli.EXIT_OK
    assert capsysbinary.readouterr().out == (GOLDEN / "conjgrowth_10.csv").read_bytes()
    assert witness.read_bytes() == (GOLDEN / "conjgrowth_10_witness.json").read_bytes()


# stdout file -> the run that prints it; a run whose stdout file has a
# "_witness.json" companion also writes and compares its witness file
GOLDEN_RUNS = {
    "growth_14.csv": ["growth", "--max-length", "14"],
    "growth_gupta_sidki_3_9.csv": ["growth", "--group", "gupta-sidki-3", "--max-length", "9"],
    "conjgrowth_12.csv": ["conjgrowth", "--max-length", "12", "--depth", "8", "--radius", "6"],
    "conjgrowth_gupta_sidki_3_9.csv": [
        "conjgrowth", "--group", "gupta-sidki-3", "--max-length", "9"
    ],
    "width_commutators_ab.csv": [
        "width", "--target", "[a,b]", "--mode", "commutators", "--radius", "10"
    ],
    "width_conjugates_abacabadabacabad.csv": [
        "width", "--target", "abacabadabacabad", "--mode", "conjugates", "--radius", "8"
    ],
    "width_palindromes_abacabadabacabad.csv": [
        "width", "--target", "abacabadabacabad", "--mode", "palindromes", "--radius", "8"
    ],
    "audit_all_seed5.json": ["audit", "--lemma", "all", "--seed", "5"],
    "audit_all_seed7.json": ["audit", "--lemma", "all", "--seed", "7"],
}


@pytest.mark.parametrize("stdout, argv", GOLDEN_RUNS.items(), ids=list(GOLDEN_RUNS))
def test_outputs_match_the_golden_files(stdout, argv, tmp_path, capsysbinary):
    witness = GOLDEN / f"{Path(stdout).stem}_witness.json"
    witness_out = tmp_path / "w.json"
    if witness.exists():
        argv = argv + ["--witness-out", str(witness_out)]
    assert run(argv) == cli.EXIT_OK
    assert capsysbinary.readouterr().out == (GOLDEN / stdout).read_bytes()
    if witness.exists():
        assert witness_out.read_bytes() == witness.read_bytes()


def _write_preset(path, arity, generators):
    path.write_text(json.dumps(
        {"schema": "asg-1", "name": path.stem, "arity": arity, "generators": generators}
    ))
    return str(path)


def test_a_false_involution_flag_is_rejected(tmp_path, capsys):
    # the binary adding machine s = σ(s, 1) generates Z; its square moves the
    # leaves of level 2, so a check that trusts the flag counts the group Z/2
    spec = {"label": "s", "involution": True, "perm": [1, 0], "sections": ["s", "1"]}
    group = _write_preset(tmp_path / "adding-machine.json", 2, [spec])
    for command in ("growth", "conjgrowth"):
        assert run([command, "--group", group, "--max-length", "5"]) == cli.EXIT_USAGE
        assert capsys.readouterr().err == (
            f"error: --group {group}: generator 's': declared involution but square is"
            " nontrivial\n"
        )


def test_growth_cross_check_deepens_past_a_level_too_shallow(tmp_path, capsys):
    # level 5 tells apart only 212 of the 215 elements of B(6); level 6 all
    gens = [
        {"label": "a", "involution": False, "perm": [0, 1], "sections": ["c", "c"]},
        {"label": "b", "involution": True, "perm": [0, 1], "sections": ["a", "1"]},
        {"label": "c", "involution": False, "perm": [1, 0], "sections": ["1", "1"]},
        {"label": "d", "involution": True, "perm": [0, 1], "sections": ["b", "d"]},
    ]
    group = _write_preset(tmp_path / "deep.json", 2, gens)
    preset = core.load_preset(group)
    depth = enumeration.default_action_depth(6)
    assert enumeration.independent_gamma(preset, 6, depth)[-1] == (6, 212)
    assert run(["growth", "--group", group, "--max-length", "6"]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "6,215"


def test_growth_of_an_arity_11_preset(tmp_path, capsys, dihedral_22_specs):
    # level coordinates run to 10, past one decimal digit
    group = _write_preset(tmp_path / "dihedral-22.json", 11, dihedral_22_specs)
    assert run(["growth", "--group", group, "--max-length", "6"]) == cli.EXIT_OK
    assert capsys.readouterr().out.splitlines()[-1] == "6,22"


def test_conjgrowth_of_an_arity_11_adding_machine_is_fast(tmp_path, capsys):
    # a bucket key's hash must not grow with the arity: a depth-8 invariant
    # spans 11**8 vertices, so it is keyed by its interned id
    spec = {"label": "a", "involution": False, "perm": [(i + 1) % 11 for i in range(11)],
            "sections": ["1"] * 10 + ["a"]}
    group = _write_preset(tmp_path / "adding-11.json", 11, [spec])
    start = time.perf_counter()
    assert run(["conjgrowth", "--group", group, "--max-length", "8"]) == cli.EXIT_OK
    assert time.perf_counter() - start < 1.0
    assert capsys.readouterr().out.splitlines()[-1] == "8,9,9,true"


@pytest.fixture
def miscounting_second_path(monkeypatch):
    """Make the level-action counts one too high at the largest radius."""
    true = enumeration.independent_gamma

    def off_by_one(preset, n_max, depth):
        rows = true(preset, n_max, depth)
        return rows[:-1] + [(n_max, rows[-1][1] + 1)]

    monkeypatch.setattr(enumeration, "independent_gamma", off_by_one)


def test_conjgrowth_cross_checks_its_ball(miscounting_second_path, capsys):
    argv = ["conjgrowth", "--max-length", "5", "--depth", "4", "--radius", "2"]
    assert run(argv) == cli.EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == "" and "DedupMismatchError" in captured.err


def test_audit_recursion_cross_checks_its_ball(miscounting_second_path, capsys):
    assert run(["audit", "--lemma", "recursion"]) == cli.EXIT_INTERNAL
    captured = capsys.readouterr()
    assert captured.out == "" and "DedupMismatchError" in captured.err


def _random_preset(rng):
    arity = rng.randint(2, 5)
    labels = "abcd"[: rng.randint(1, 4)]
    gens = []
    for label in labels:
        if rng.random() < 0.6:
            shift = rng.randrange(1, arity)
            perm = [(i + shift) % arity for i in range(arity)]
        else:
            perm = rng.sample(range(arity), arity)
        sections = [rng.choice(labels + "1") for _ in range(arity)]
        gens.append(
            {"label": label, "involution": rng.random() < 0.5, "perm": perm, "sections": sections}
        )
    return arity, gens


def test_random_presets_work_or_are_rejected_up_front(tmp_path, capsys):
    # exit 0 from growth means the two dedup paths agreed; exit 4 would be a
    # crash or a disagreement
    rng = random.Random(2)
    for i in range(60):
        group = _write_preset(tmp_path / f"fuzz{i}.json", *_random_preset(rng))
        for argv in (["growth", "--max-length", "6"], ["conjgrowth", "--max-length", "5"]):
            code = run(argv + ["--group", group])
            err = capsys.readouterr().err
            assert code in (0, 2, 3) and "Traceback" not in err, (argv, Path(group).read_text())
