"""End-to-end tests for the command-line front end."""

import dataclasses
import hashlib
import itertools
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import doxatest
from doxatest import cli, correspondence
from doxatest.axioms import AxiomId
from doxatest.changegen import ChangeFunctionTable, random_update_table
from doxatest.cli import main
from doxatest.frames import Frame, Model, complete_selection, frame_to_obj, model_to_obj
from doxatest.properties import FrameClass

SEPARATION = "tests/data/pd57_separation.json"
ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def runner():
    return CliRunner()


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    frame = complete_selection(Frame(("s0", "s1"), (0b01, 0b10), {}))
    model = Model(frame, {"p": 0b01, "q": 0b11})
    paths = {"model2": str(root / "model2.json")}
    with open(paths["model2"], "w") as fh:
        json.dump(model_to_obj(model), fh)

    fat = Model(
        complete_selection(Frame(("s0", "s1"), (0b11, 0b11), {})), {"p": 0b01}
    )
    paths["fat"] = str(root / "fat.json")
    with open(paths["fat"], "w") as fh:
        json.dump(model_to_obj(fat), fh)

    paths["bad"] = str(root / "bad.json")
    with open(paths["bad"], "w") as fh:
        json.dump(
            {"states": ["s0", "s1"], "belief": {"s0": [], "s1": ["s1"]}, "selection": []},
            fh,
        )

    paths["frame_only"] = str(root / "frame.json")
    with open(paths["frame_only"], "w") as fh:
        json.dump(
            {
                "states": ["s0"],
                "belief": {"s0": ["s0"]},
                "selection": [{"s": "s0", "event": ["s0"], "selects": ["s0"]}],
            },
            fh,
        )

    # a valuation naming an atom with a constant's word
    paths["reserved"] = str(root / "reserved.json")
    with open(paths["reserved"], "w") as fh:
        json.dump(dict(model_to_obj(model), valuation={"true": ["s0"]}), fh)

    paths["no_states"] = str(root / "no_states.json")
    with open(paths["no_states"], "w") as fh:
        json.dump({"belief": {}}, fh)

    paths["garbage"] = str(root / "garbage.json")
    with open(paths["garbage"], "w") as fh:
        fh.write("{not json")

    paths["undecodable"] = str(root / "undecodable.json")
    with open(paths["undecodable"], "wb") as fh:
        fh.write(b"\xff\xfe{}")

    for name, sid in (("list_s", ["a"]), ("object_s", {"id": "a"})):
        paths[name] = str(root / f"{name}.json")
        with open(paths[name], "w") as fh:
            json.dump(
                {
                    "states": ["a", "b"],
                    "belief": {"a": ["a"], "b": ["b"]},
                    "selection": [{"s": sid, "event": ["a"], "selects": ["a"]}],
                    "valuation": {"p": ["a"]},
                },
                fh,
            )

    # complete, but f(s0, {s1}) = {s0} breaks the success clause
    unsuccessful = complete_selection(Frame(("s0", "s1"), (0b01, 0b10), {(0, 0b10): 0b01}))
    paths["unsuccessful"] = str(root / "unsuccessful.json")
    with open(paths["unsuccessful"], "w") as fh:
        json.dump(frame_to_obj(unsuccessful), fh)
    return paths


# --- validate ---


def test_validate_clean_file_exits_zero(runner, files):
    result = runner.invoke(main, ["validate", files["model2"]])
    assert result.exit_code == 0
    assert "valid: yes" in result.output


def test_validate_reports_violating_state(runner, files):
    result = runner.invoke(main, ["validate", files["bad"]])
    assert result.exit_code == 1
    assert "seriality" in result.output and "s0" in result.output


def test_validate_input_errors_exit_two(runner, files):
    for path in (files["no_states"], files["garbage"], files["undecodable"], files["reserved"],
                 "/nonexistent.json"):
        result = runner.invoke(main, ["validate", path])
        assert result.exit_code == 2, path
        assert "error:" in result.stderr


@pytest.mark.parametrize(
    "name, message",
    [
        ("bad_selection_event", "selection entry 1 event mentions unknown state 's3'"),
        ("bad_valuation_state", "valuation[q] mentions unknown state 's9'"),
    ],
)
def test_validate_names_the_field_with_an_unknown_state(runner, name, message):
    path = f"tests/data/{name}.json"
    result = runner.invoke(main, ["validate", path])
    assert result.exit_code == 2
    assert result.stderr == f"error: {path}: {message}\n"


@pytest.mark.parametrize(
    "args",
    [
        ["validate"],
        ["check", "--class", "update"],
        ["correspond"],
        ["ri", "--state", "s0", "--formula", "p"],
    ],
    ids=["validate", "check", "correspond", "ri"],
)
def test_deeply_nested_json_exits_two_without_traceback(tmp_path, args):
    # a real process, so the interpreter's own stack limit is the one that counts
    deep = tmp_path / "deep.json"
    deep.write_text("[" * 200_000)
    src = os.path.dirname(os.path.dirname(doxatest.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    result = subprocess.run(
        [sys.executable, "-m", "doxatest.cli", args[0], str(deep), *args[1:]],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=60,
    )
    assert result.returncode == 2
    assert "error:" in result.stderr
    assert "Traceback" not in result.stderr


# --- check ---


def test_check_property_prints_separation_witness(runner):
    result = runner.invoke(
        main,
        [
            "check",
            SEPARATION,
            "--property",
            "PD57-strong",
            "--complete",
            "default",
            "--format",
            "json",
        ],
    )
    assert result.exit_code == 1
    report = json.loads(result.output)
    assert report == {
        "command": "check",
        "mode": "property",
        "property": "PD57_STRONG",
        "holds": False,
        "witness": {
            "s": "s0",
            "sPrime": "s1",
            "E": ["s3", "s4", "s5"],
            "F": ["s3", "s4"],
        },
    }


def test_check_property_that_holds_exits_zero(runner):
    result = runner.invoke(
        main, ["check", SEPARATION, "--property", "pd57", "--complete", "default"]
    )
    assert result.exit_code == 0
    assert "holds: yes" in result.output


def test_check_class_lists_every_property(runner):
    result = runner.invoke(
        main,
        [
            "check",
            SEPARATION,
            "--class",
            "revision-def12",
            "--complete",
            "default",
            "--format",
            "json",
        ],
    )
    assert result.exit_code == 1
    report = json.loads(result.output)
    assert report["class"] == "REVISION_DEF12" and report["holds"] is False
    names = [entry["property"] for entry in report["properties"]]
    assert names == ["BASE", "PR4", "PR8"]
    pr4 = next(e for e in report["properties"] if e["property"] == "PR4")
    assert pr4["witness"]["E"] == ["s0", "s1"]


def test_check_axiom_paths(runner, files):
    ok = runner.invoke(main, ["check", files["model2"], "--axiom", "d5", "--state", "s0"])
    assert ok.exit_code == 0 and "holds: yes" in ok.output
    gated = runner.invoke(
        main, ["check", files["fat"], "--axiom", "D7", "--state", "s0", "--format", "json"]
    )
    assert gated.exit_code == 0
    report = json.loads(gated.output)
    assert report["holds"] is None and report["applicable"] is False
    assert runner.invoke(
        main, ["check", files["frame_only"], "--axiom", "D5", "--state", "s0"]
    ).exit_code == 2
    assert runner.invoke(main, ["check", files["model2"], "--axiom", "D5"]).exit_code == 2
    assert runner.invoke(
        main, ["check", files["model2"], "--axiom", "D5", "--state", "zz"]
    ).exit_code == 2
    # --max-states bounds the model's cells (two here) for an axiom check
    over = runner.invoke(
        main, ["check", files["model2"], "--axiom", "D5", "--state", "s0", "--max-states", "1"]
    )
    assert over.exit_code == 2 and "cells" in over.stderr


def test_check_selector_validation(runner, files):
    assert runner.invoke(
        main, ["check", files["model2"], "--property", "PDX"]
    ).exit_code == 2
    assert runner.invoke(main, ["check", files["model2"]]).exit_code == 2
    both = runner.invoke(
        main, ["check", files["model2"], "--property", "PD2", "--class", "UPDATE"]
    )
    assert both.exit_code == 2
    assert "exactly one" in both.stderr
    # `default` is the only completion rule
    assert runner.invoke(
        main, ["check", SEPARATION, "--property", "PD2", "--complete", "nope"]
    ).exit_code == 2


@pytest.mark.parametrize(
    "frame_class", ["update", "strong-update", "revision-def12", "revision-strict"]
)
def test_check_class_on_unsuccessful_frame_reports_base(runner, files, frame_class):
    # PD9 and PR8 skip E∩F = ∅ instead of asking for a selection there
    result = runner.invoke(
        main, ["check", files["unsuccessful"], "--class", frame_class, "--format", "json"]
    )
    assert result.exit_code == 1, result.output
    base, *rest = json.loads(result.output)["properties"]
    assert base == {
        "property": "BASE",
        "holds": False,
        "witness": {"clause": "success", "s": "s0", "E": ["s1"]},
    }
    assert all(p["holds"] for p in rest)


@pytest.mark.parametrize("name", ["list_s", "object_s"])
def test_non_string_selection_state_exits_two(runner, files, name):
    for args in (
        ["check", files[name], "--class", "update"],
        ["correspond", files[name]],
        ["ri", files[name], "--state", "a", "--formula", "p"],
    ):
        result = runner.invoke(main, args)
        assert result.exit_code == 2, args
        assert "'s' must be a state id" in result.stderr
        assert result.exception is None or isinstance(result.exception, SystemExit)


def test_check_surfaces_missing_selection_entries(runner):
    result = runner.invoke(main, ["check", SEPARATION, "--property", "PD57"])
    assert result.exit_code == 2
    assert "selection undefined" in result.stderr


def test_max_states_flag_beats_environment(runner):
    small = runner.invoke(
        main,
        ["check", SEPARATION, "--property", "PD2", "--complete", "default"],
        env={"DOXATEST_MAX_STATES": "5"},
    )
    assert small.exit_code == 2

    lifted = runner.invoke(
        main,
        [
            "check",
            SEPARATION,
            "--property",
            "PD2",
            "--complete",
            "default",
            "--max-states",
            "8",
        ],
        env={"DOXATEST_MAX_STATES": "5"},
    )
    assert lifted.exit_code == 0

    broken = runner.invoke(
        main,
        ["check", SEPARATION, "--property", "PD2"],
        env={"DOXATEST_MAX_STATES": "abc"},
    )
    assert broken.exit_code == 2
    # the error names the variable the bad value came from
    assert "DOXATEST_MAX_STATES" in broken.stderr

    # an empty variable counts as unset: the default bound, 8, applies
    unset = runner.invoke(
        main,
        ["check", SEPARATION, "--property", "PD2", "--complete", "default"],
        env={"DOXATEST_MAX_STATES": ""},
    )
    assert unset.exit_code == 0



def test_check_refuses_a_scan_beyond_the_instance_bound(runner):
    # 12 states all believing {s0}, whose row fails success at {s1}: PD57's
    # gate is closed, so its scan would walk 4095² pairs, and it is refused
    # before it starts
    path = "tests/data/pd57_gate_closed_12state.json"
    result = runner.invoke(main, ["check", path, "--property", "pd57", "--max-states", "12"])
    assert result.exit_code == 2 and isinstance(result.exception, SystemExit)
    assert result.stderr == (
        "error: instances in an exhaustive PD57 scan: 16769025 exceeds the bound 1048576\n"
    )


def test_max_states_error_names_the_variable_only_when_read_from_it(runner):
    argv = ["check", SEPARATION, "--property", "PD2"]
    flag = runner.invoke(main, [*argv, "--max-states", "0"], env={"DOXATEST_MAX_STATES": None})
    env = runner.invoke(main, argv, env={"DOXATEST_MAX_STATES": "0"})
    both = runner.invoke(main, [*argv, "--max-states", "0"], env={"DOXATEST_MAX_STATES": "5"})
    for result in (flag, env, both):
        assert result.exit_code == 2
        assert "Invalid value for '--max-states'" in result.stderr
    assert "DOXATEST_MAX_STATES" not in flag.stderr + both.stderr
    assert "(env var: 'DOXATEST_MAX_STATES')" in env.stderr

# --- correspond ---


def test_correspond_enumerate_two_states_agrees_everywhere(runner):
    result = runner.invoke(
        main, ["correspond", "--enumerate", "2", "--format", "json"]
    )
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["summary"] == {"frameCount": 36, "disagreements": 0}
    assert all(len(row["pairs"]) == 7 for row in report["frames"])


def test_correspond_single_frame_with_pair_filter(runner, files):
    result = runner.invoke(
        main, ["correspond", files["model2"], "--pairs", "PR4:R4", "--format", "json"]
    )
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["summary"]["frameCount"] == 1
    pairs = report["frames"][0]["pairs"]
    assert [p["axiom"] for p in pairs] == ["R4"]
    assert pairs[0]["agrees"] is True


def test_correspond_counts_a_disagreement_and_exits_1(runner, files, monkeypatch):
    # one pair's report flipped to disagree: the census counts it once, in
    # both formats, and the command exits 1
    real = correspondence._verdict

    def flipped(frame, pair, *args):
        report = real(frame, pair, *args)
        return dataclasses.replace(report, agrees=False) if pair.axiom is AxiomId.R4 else report

    monkeypatch.setattr(correspondence, "_verdict", flipped)
    as_json = runner.invoke(main, ["correspond", files["model2"], "--format", "json"])
    as_text = runner.invoke(main, ["correspond", files["model2"]])
    assert (as_json.exit_code, as_text.exit_code) == (1, 1)
    report = json.loads(as_json.output)
    assert report["summary"] == {"frameCount": 1, "disagreements": 1}
    assert [p["agrees"] for p in report["frames"][0]["pairs"]].count(False) == 1
    assert as_text.output.endswith("summary:\n  frameCount: 1\n  disagreements: 1\n")


def test_correspond_usage_errors(runner, files):
    cases = [
        ["correspond"],
        ["correspond", files["model2"], "--enumerate", "2"],
        ["correspond", files["model2"], "--pairs", "NOPE"],
        ["correspond", files["model2"], "--pairs", "PD57_STRONG"],
        ["correspond", files["model2"], "--pairs", "PR4:R8"],
        ["correspond", "--enumerate", "9"],
        ["correspond", "--enumerate", "3"],
        ["correspond", "--enumerate", "0"],
        ["correspond", "--enumerate", "-1"],
        ["correspond", "--enumerate", "1", "--atom-budget", "0"],
        ["correspond", "--enumerate", "1", "--atom-budget", "4"],
    ]
    for args in cases:
        assert runner.invoke(main, args).exit_code == 2, args
    # 3 states would mean count_base_tables(3) * 7**3 frames: refused up front
    assert "37933056" in runner.invoke(main, ["correspond", "--enumerate", "3"]).stderr


def test_correspond_repeat_is_byte_identical(runner):
    args = ["correspond", "--enumerate", "2", "--seed", "3", "--format", "json"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.output == second.output


# --- roundtrip ---


def test_roundtrip_revision_trials_all_pass(runner):
    result = runner.invoke(
        main,
        ["roundtrip", "--atoms", "2", "--kind", "revision", "--trials", "25", "--format", "json"],
    )
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["passed"] == 25 and report["failures"] == []
    assert report["class"] == "REVISION_STRICT" and report["suite"] == "AGM"


def test_roundtrip_update_kinds(runner):
    one_atom = runner.invoke(
        main, ["roundtrip", "--atoms", "1", "--kind", "update", "--trials", "10"]
    )
    assert one_atom.exit_code == 0 and "passed: 10" in one_atom.output
    strong = runner.invoke(
        main,
        ["roundtrip", "--atoms", "2", "--kind", "strong-update", "--trials", "6", "--format", "json"],
    )
    assert strong.exit_code == 0
    assert json.loads(strong.output)["class"] == "STRONG_UPDATE"


def test_roundtrip_usage_errors(runner):
    assert runner.invoke(
        main, ["roundtrip", "--atoms", "2", "--kind", "sideways"]
    ).exit_code == 2
    assert runner.invoke(
        main, ["roundtrip", "--atoms", "5", "--kind", "update"]
    ).exit_code == 2
    assert runner.invoke(
        main, ["roundtrip", "--atoms", "2", "--kind", "update", "--trials", "0"]
    ).exit_code == 2


def _broken_update_draw():
    # trial 1 draws a hand-built table whose one row (world 00's default
    # choices) differs from its results at {01, 10}, where the result, {11},
    # leaves the event and fails D1; every other trial draws as `update` does
    trials = itertools.count()

    def draw(rng, ctx):
        if next(trials) != 1:
            return random_update_table(rng, ctx)
        row = [0] + [1 if e & 1 else e & -e for e in range(1, 16)]
        results = list(row)
        results[0b0110] = 0b1000
        return ChangeFunctionTable(ctx, 0b0001, results, {0: row})

    return draw


def test_roundtrip_reports_each_failing_trial_in_both_formats(runner, monkeypatch):
    out = {}
    for fmt in ("json", "text"):
        monkeypatch.setitem(cli.KIND_SETTINGS, "UPDATE", (FrameClass.UPDATE, _broken_update_draw()))
        result = runner.invoke(main, ["roundtrip", "--atoms", "2", "--kind", "update",
                                      "--trials", "3", "--format", fmt])
        assert result.exit_code == 1, fmt
        out[fmt] = result.stdout
    report = json.loads(out["json"])
    assert report["passed"] == 2
    [failure] = report["failures"]
    assert failure["trial"] == 1
    assert failure["roundtrip"]["ok"] is False
    assert failure["roundtrip"]["mismatchedEvents"] == [["01", "10"]]
    assert failure["audit"]["ok"] is False
    assert {"axiom": "D1", "holds": False, "applicable": True,
            "witness": {"E": ["01", "10"]}} in failure["audit"]["axioms"]
    # the same facts in text; a list of lists renders each inner list as
    # "- " and its first item, then its other items beneath
    text = out["text"]
    assert "passed: 2\nfailures:\n  - trial: 1\n    roundtrip:\n" in text
    assert "      ok: no\n" in text
    assert "      mismatchedEvents:\n        - - 01\n          - 10\n" in text
    assert "    audit:\n      suite: KM\n      ok: no\n" in text


def test_roundtrip_repeat_is_deterministic(runner):
    args = ["roundtrip", "--atoms", "2", "--kind", "update", "--trials", "5",
            "--seed", "9", "--format", "json"]
    assert runner.invoke(main, args).output == runner.invoke(main, args).output


# --- ri ---


def test_ri_selection_branch_with_separating_state(runner, files):
    result = runner.invoke(
        main,
        [
            "ri",
            files["model2"],
            "--state",
            "s0",
            "--formula",
            "p | q",
            "--probe",
            "q",
            "--probe",
            "!p",
            "--format",
            "json",
        ],
    )
    assert result.exit_code == 0
    report = json.loads(result.output)
    assert report["belief"] == ["s0"]
    assert report["conditional"]["branch"] == "selection"
    assert report["conditional"]["support"] == ["s0"]
    probe_q, probe_notp = report["probes"]
    assert probe_q["member"] is True and "separatingState" not in probe_q
    assert probe_notp["member"] is False
    assert probe_notp["separatingState"] == "s0"


def test_ri_empty_input_branch_reports_consequences(runner, files):
    contradiction = runner.invoke(
        main,
        ["ri", files["model2"], "--state", "s0", "--formula", "p & !p",
         "--probe", "q", "--format", "json"],
    )
    assert contradiction.exit_code == 0
    report = json.loads(contradiction.output)
    assert report["conditional"]["branch"] == "empty-input"
    assert report["conditional"]["support"] is None
    assert report["probes"][0]["member"] is True

    unsatisfied = runner.invoke(
        main,
        ["ri", files["model2"], "--state", "s0", "--formula", "p & !q",
         "--probe", "p", "--probe", "q", "--format", "json"],
    )
    assert unsatisfied.exit_code == 0
    report = json.loads(unsatisfied.output)
    assert report["conditional"]["branch"] == "empty-input"
    probe_p, probe_q = report["probes"]
    assert probe_p["member"] is True
    assert probe_q["member"] is False and "separatingState" not in probe_q


def test_ri_input_errors(runner, files):
    cases = [
        ["ri", files["frame_only"], "--state", "s0", "--formula", "p"],
        ["ri", files["model2"], "--state", "zz", "--formula", "p"],
        ["ri", files["model2"], "--state", "s0", "--formula", "(p &"],
        ["ri", files["model2"], "--state", "s0", "--formula", "r"],
        ["ri", files["reserved"], "--state", "s0", "--formula", "true"],
    ]
    for args in cases:
        assert runner.invoke(main, args).exit_code == 2, args
    # a probe's atoms are checked before any work, whatever the answer
    for probe in ("r", "r | !r"):
        args = ["ri", files["model2"], "--state", "s0", "--formula", "p", "--probe", probe]
        result = runner.invoke(main, args)
        assert result.exit_code == 2, args
        assert result.stderr == "error: atom 'r' is not interpreted by the model\n"


@pytest.mark.parametrize("option", ["--formula", "--probe"])
@pytest.mark.parametrize(
    "deep",
    [
        "(" * 600 + "p" + ")" * 600,
        "!(" * 190 + "p" + ")" * 190,
        " & ".join(["p"] * 3000),
        " -> ".join(["p"] * 3000),
    ],
    ids=["parens", "not-parens", "and-chain", "imp-chain"],
)
def test_ri_deep_formula_exits_two_without_traceback(files, option, deep):
    # a real process, so the interpreter's own stack limit is the one that counts
    src = os.path.dirname(os.path.dirname(doxatest.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    formula = ["--formula", deep] if option == "--formula" else ["--formula", "p", "--probe", deep]
    result = subprocess.run(
        [sys.executable, "-m", "doxatest.cli", "ri", files["model2"], "--state", "s0", *formula],
        capture_output=True,
        text=True,
        env=env,
        timeout=60,
    )
    assert result.returncode == 2
    assert "Traceback" not in result.stderr
    assert "deeper than" in result.stderr


# --- exit contract ---


# a fixed list, so that a new fixture does not re-draw the examples
DATA_FILES = [
    os.path.join("tests", "data", name + ".json") for name in (
        "bad_selection_event", "bad_valuation_state", "census_5state_centered",
        "census_7state_centered", "centered_8state_partial", "def12_gap", "demo_model",
        "pd57_fails_unpointed", "pd57_gate_closed_12state", "pd57_separation", "pd6_failure",
        "pd7_failure", "pd9_failure", "unsuccessful_unbelieved_row", "validate_violations",
    )
]
JUNK = ["", " ", "abc", "-", "--", "1.5", "0x3", "1e3", "\u00e9", "nope", "None", "[]"]
ANY_VALUE = st.integers(-2, 20).map(str) | st.sampled_from(JUNK + DATA_FILES) | st.text(max_size=4)
# values each option accepts, drawn three times in four so that the runs
# reach verdicts as well as usage errors
GOOD_VALUES = {
    "--class": ["update", "strong-update", "revision-strict", "revision-def12"],
    "--property": ["base", "pd2", "PD57-strong", "pd6", "PD7", "pd9", "pr4", "PR8"],
    "--axiom": ["D1", "d2", "D5", "D7", "r3", "R8", "D3", "D0"],
    "--state": ["s0", "s1"],
    "--complete": ["default"],
    "--max-states": ["2", "8", "12"],
    "--kind": ["update", "strong-update", "revision"],
    "--formula": ["p", "p | q", "!p", "p & !p", "p -> q"],
    "--probe": ["q", "!p", "p | !p", "r"],
    "--pairs": ["all", "PR4:R4", "PD2,PD9:D9", "PR8"],
    "--atom-budget": ["1", "2", "3"],
    "--seed": ["0", "7"],
    "--enumerate": ["1", "2"],
    "--trials": ["1", "2"],
    "--atoms": ["1", "2", "3"],
}
# the work each run may do is bounded: at most 3 enumerated states, 2 trials,
# and no 4-atom round trip (about a second per trial)
BOUNDED = {"--enumerate": range(-2, 4), "--trials": range(-2, 3), "--atoms": (-2, 0, 1, 3, 5, 20)}
# (options always given, with one of the first group's; options that may be given)
COMMAND_OPTIONS = {
    "validate": ((), ()),
    "check": (("--class", "--property", "--axiom"),
              ("--class", "--complete", "--complete", "--max-states")),
    "roundtrip": (("--atoms",), ("--kind", "--trials", "--seed")),
    "ri": (("--formula",), ("--state", "--probe", "--probe", "--complete")),
    "correspond": ((), ("--enumerate", "--pairs", "--atom-budget", "--seed")),
}


def _value(draw, option):
    if draw(st.integers(0, 3)):
        return draw(st.sampled_from(GOOD_VALUES[option]))
    if option in BOUNDED:
        return draw(st.sampled_from([str(k) for k in BOUNDED[option]] + JUNK))
    return draw(ANY_VALUE)


def _argv(draw, command, model_path):
    argv = [command]
    if command != "roundtrip" and draw(st.integers(0, 7)):
        paths = [model_path] * len(DATA_FILES) + DATA_FILES + ["/nonexistent.json"]
        argv.append(draw(st.sampled_from(paths)))
    first, rest = COMMAND_OPTIONS[command]
    options = draw(st.lists(st.sampled_from(rest), max_size=3)) if rest else []
    if first:
        options.insert(0, draw(st.sampled_from(first)))
    if command in ("check", "ri") and draw(st.integers(0, 3)):
        options.append("--state")
    if command == "roundtrip" and draw(st.integers(0, 3)):
        options.append("--kind")
    for option in options:
        argv += [option, _value(draw, option)]
    return argv + draw(st.sampled_from([[], ["--format", "json"], ["--format", "text"]]))


@pytest.mark.parametrize("command", sorted(COMMAND_OPTIONS))
@settings(max_examples=100, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_every_argv_exits_zero_one_or_two(runner, files, command, data):
    argv = _argv(data.draw, command, files["model2"])
    bound = data.draw(st.sampled_from([None] * 4 + ["", "abc", "0", "-1", "1", "3", " 5", "8", "20"]))
    result = runner.invoke(main, argv, env={"DOXATEST_MAX_STATES": bound})
    assert result.exit_code in (0, 1, 2), (argv, bound, result.output)
    assert result.exception is None or isinstance(result.exception, SystemExit), (
        argv, bound, repr(result.exception))
    assert "Traceback" not in result.stdout + result.stderr, (argv, bound)
    if result.exit_code != 2 and argv[-2:] == ["--format", "json"]:
        json.loads(result.stdout)


# --- frozen console output ---


def _tier1_pins():
    """The rows of tests/data/console_pins.txt not marked CI-only, as
    (exit code, md5 of stdout, argv)."""
    rows, ids = [], set()
    for line in (ROOT / "tests" / "data" / "console_pins.txt").read_text().splitlines():
        if line.startswith("all "):
            _, code, digest, *argv = line.split()
            # two commands may print the same bytes; a repeat names its file
            key = f"{argv[0]}-{digest}"
            key += f"-{Path(argv[1]).stem}" if key in ids else ""
            ids.add(key)
            rows.append(pytest.param(int(code), digest, argv, id=key))
    return rows


@pytest.mark.parametrize("code, digest, argv", _tier1_pins())
def test_console_output_is_frozen(runner, monkeypatch, code, digest, argv):
    monkeypatch.chdir(ROOT)  # the table's paths are relative to the repository
    result = runner.invoke(main, argv)
    assert result.exit_code == code
    assert hashlib.md5(result.stdout_bytes).hexdigest() == digest


def _readme_block(heading, fence):
    """The first fenced block opened by ``fence`` under a README heading."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index(f"\n{heading}\n"):]
    start = section.index(f"\n{fence}\n") + len(fence) + 2
    return section[start:section.index("\n```\n", start) + 1]


def test_readme_examples_are_the_pinned_files_and_output(runner, monkeypatch):
    demo = ROOT / "tests" / "data" / "demo_model.json"
    assert json.loads(_readme_block("## File format", "```json")) == json.loads(demo.read_text())
    # the `ri` example is the first pinned `ri` row, on that file
    command, shown = _readme_block("### ri", "```").split("\n", 1)
    assert command.startswith("$ doxatest ri tests/data/demo_model.json --state s0 ")
    argv = next(row.values[2] for row in _tier1_pins() if row.values[2][0] == "ri")
    monkeypatch.chdir(ROOT)
    result = runner.invoke(main, argv)
    assert result.exit_code == 0
    assert result.stdout == shown


# --- shared rendering ---


def test_text_output_renders_the_same_report(runner, files):
    as_json = runner.invoke(
        main, ["check", files["model2"], "--class", "update", "--format", "json"]
    )
    as_text = runner.invoke(main, ["check", files["model2"], "--class", "update"])
    report = json.loads(as_json.output)
    for entry in report["properties"]:
        assert entry["property"] in as_text.output
    assert "holds: yes" in as_text.output


def test_text_lines_of_empty_containers_and_bare_scalars():
    # shapes no command's report has today: empty containers nested in a
    # list, a bare top-level scalar, None and an empty dict
    assert cli._text_lines([{}, [], [[]], 3, None]) == ["-", "-", "- -", "- 3", "- -"]
    assert cli._text_lines(7) == ["7"]
    assert cli._text_lines(None, indent=1) == ["  -"]
    assert cli._text_lines({"a": {}, "b": None, "c": [], "d": [None, False, 2]}) == [
        "a: {}", "b: -", "c: []", "d: [-, no, 2]",
    ]


@settings(max_examples=150, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(data=st.data())
def test_text_output_is_the_rendering_of_the_json(runner, files, data):
    # JSON output sorts its keys, so the text run's report is caught on its
    # way to the renderer: the text is `_text_lines` of it, and it equals
    # the JSON output of the same argv
    command = data.draw(st.sampled_from(sorted(COMMAND_OPTIONS)))
    argv = _argv(data.draw, command, files["model2"])
    if argv[-2:-1] == ["--format"]:
        argv = argv[:-2]
    reports, real_emit = [], cli._emit

    def emit(report, fmt):
        reports.append(report)
        return real_emit(report, fmt)

    as_json = runner.invoke(main, argv + ["--format", "json"])
    with pytest.MonkeyPatch.context() as patched:
        patched.setattr(cli, "_emit", emit)
        as_text = runner.invoke(main, argv)
    assert as_text.exit_code == as_json.exit_code, argv
    if as_text.exit_code == 2:
        assert as_text.stdout == as_json.stdout == "", argv
        return
    [report] = reports
    assert as_text.stdout == "\n".join(cli._text_lines(report)) + "\n", argv
    assert json.loads(as_json.stdout) == report, argv
