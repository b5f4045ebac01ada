import json
import pathlib
import sys

import pytest

from ddcp.cli import (
    EXIT_FALSE,
    EXIT_INPUT,
    EXIT_OK,
    EXIT_PRECONDITION,
    main,
    object_from_json,
    object_to_json,
    run,
)
from ddcp.quiver import Algebra, InputError, Interval
from ddcp.derived import DerivedObject

GOLDEN = pathlib.Path(__file__).parent / "golden"


def obj_json(*triples):
    return json.dumps(
        {"summands": [{"a": a, "b": b, "shift": s} for a, b, s in triples]}
    )


T1_JSON = obj_json((1, 1, 0), (2, 2, 1), (2, 3, 1))
V2_JSON = obj_json((2, 3, 0), (1, 3, 0), (1, 2, 0))
SIMPLES_JSON = obj_json((1, 1, 0), (2, 2, 0), (3, 3, 0))


def test_object_json_round_trip():
    alg = Algebra(3)
    x = DerivedObject(
        alg, [(Interval(2, 3), 1), (Interval(1, 1), 0), (Interval(1, 2), 0)]
    )
    assert object_from_json(object_to_json(x)) == x


def test_hom_ext_commands(capsys):
    assert run(["hom", "--n", "3", "--from", "1,3", "--to", "2,3"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "0"
    assert run(["hom", "--n", "3", "--from", "2,3", "--to", "1,3"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1"
    assert run(["ext", "--n", "3", "--from", "1,1", "--to", "2,2"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "1"


def test_hom_bad_interval(capsys):
    assert run(["hom", "--n", "3", "--from", "1,4", "--to", "2,3"]) == EXIT_INPUT
    assert run(["hom", "--n", "3", "--from", "x", "--to", "2,3"]) == EXIT_INPUT
    capsys.readouterr()


def test_end_command(capsys):
    assert run(["end", "--n", "3", "--object", T1_JSON]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["dimension"] == 6
    assert out["hereditary"] is True
    assert out["linear_chain"] == 3


def test_end_command_on_a_non_basic_object(capsys):
    """A repeated summand makes End non-basic: end prints the algebra,
    says it is not basic instead of answering the structure queries, and
    exits 0."""
    twice = obj_json((1, 2, 0), (1, 2, 0))
    assert run(["end", "--n", "2", "--object", twice]) == EXIT_OK
    out = json.loads(capsys.readouterr().out)
    assert out["dimension"] == 4
    assert out["basic"] is False
    assert not {"quiver_arrows", "hereditary", "linear_chain"} & set(out)


def test_approximate_command(capsys):
    regular = obj_json((1, 3, 0), (2, 3, 0), (3, 3, 0))
    assert (
        run(["approximate", "--n", "3", "--target", regular, "--wrt", V2_JSON])
        == EXIT_OK
    )
    out = json.loads(capsys.readouterr().out)
    t0 = [(s["a"], s["b"], s["shift"]) for s in out["t0"]["summands"]]
    assert sorted(t0) == [(1, 3, 0), (2, 3, 0), (2, 3, 0)]
    t1 = [(s["a"], s["b"], s["shift"]) for s in out["t1"]["summands"]]
    assert t1 == [(1, 2, 0)]


def test_check_exit_codes(capsys):
    base = ["check", "--n", "3", "--object"]
    assert run(base + [T1_JSON, "--mode", "ddcp"]) == EXIT_OK
    assert run(base + [T1_JSON, "--mode", "ddcp-derived"]) == EXIT_OK
    assert run(base + [T1_JSON, "--mode", "tilting"]) == EXIT_OK
    assert run(base + [T1_JSON, "--mode", "corners"]) == EXIT_OK
    assert run(base + [V2_JSON, "--mode", "tilting"]) == EXIT_FALSE
    assert run(base + [V2_JSON, "--mode", "dcp"]) == EXIT_OK
    assert run(base + [SIMPLES_JSON, "--mode", "ddcp"]) == EXIT_FALSE
    capsys.readouterr()


def test_check_precondition_exit(capsys):
    non_basic = obj_json((1, 2, 0), (1, 2, 0))
    assert (
        run(["check", "--n", "2", "--object", non_basic, "--mode", "ddcp"])
        == EXIT_PRECONDITION
    )
    non_hered = obj_json((3, 3, 0), (1, 3, 0), (1, 1, 0))
    assert (
        run(["check", "--n", "3", "--object", non_hered, "--mode", "tilting-module"])
        == EXIT_PRECONDITION
    )
    capsys.readouterr()


def test_check_module_mode_requires_shift_zero(capsys):
    assert (
        run(["check", "--n", "3", "--object", T1_JSON, "--mode", "dcp"])
        == EXIT_INPUT
    )
    capsys.readouterr()


def test_malformed_json(capsys):
    assert (
        run(["check", "--n", "3", "--object", "{not json", "--mode", "ddcp"])
        == EXIT_INPUT
    )
    assert (
        run(["check", "--n", "3", "--object", '{"summands": 3}', "--mode", "ddcp"])
        == EXIT_INPUT
    )
    capsys.readouterr()
    assert run(["end", "--n", "3", "--object", "[1, 2]"]) == EXIT_INPUT
    assert capsys.readouterr().err == "input error: object JSON must be a mapping\n"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_classify_golden_json(n, capsys):
    assert run(["classify", "--n", str(n), "--format", "json"]) == EXIT_OK
    out = capsys.readouterr().out
    golden = (GOLDEN / ("classify_n%d.json" % n)).read_text()
    assert out == golden


@pytest.mark.parametrize("n", [1, 2, 3])
def test_classify_golden_text(n, capsys):
    assert run(["classify", "--n", str(n), "--format", "text"]) == EXIT_OK
    out = capsys.readouterr().out
    golden = (GOLDEN / ("classify_n%d.txt" % n)).read_text()
    assert out == golden


def test_classify_text_and_json_agree(capsys):
    run(["classify", "--n", "3", "--format", "json"])
    data = json.loads(capsys.readouterr().out)
    run(["classify", "--n", "3", "--format", "text"])
    text = capsys.readouterr().out
    for survivor in data["survivors"]:
        assert survivor["label"] in text


def test_audit_command(capsys):
    assert run(["audit", "--n", "3", "--length", "3"]) == EXIT_OK
    assert run(["audit", "--n", "3", "--length", "2"]) == EXIT_FALSE
    capsys.readouterr()


@pytest.mark.parametrize("argv,code", [
    (["audit", "--n", "3", "--length", "3"], EXIT_OK),
    (["audit", "--n", "3", "--length", "2"], EXIT_FALSE),
    (["hom", "--n", "3", "--from", "1,4", "--to", "2,3"], EXIT_INPUT),
])
def test_main_exits_with_the_code_of_run(argv, code, monkeypatch, capsys):
    monkeypatch.setattr(sys, "argv", ["ddcp"] + argv)
    with pytest.raises(SystemExit) as exc:
        main()
    assert exc.value.code == code == run(argv)
    capsys.readouterr()


def test_bad_subcommand_is_input_error(capsys):
    assert run(["frobnicate"]) == 2
    capsys.readouterr()


def test_object_json_accepts_only_integers(capsys):
    bad = '{"summands": [{"a": "1", "b": 1.9, "shift": true}]}'
    assert run(["check", "--n", "3", "--object", bad, "--mode", "ddcp"]) == EXIT_INPUT
    capsys.readouterr()
    good = {"n": 3, "summands": [{"a": 1, "b": 1, "shift": 1}]}
    assert object_from_json(good) == DerivedObject(
        Algebra(3), [(Interval(1, 1), 1)]
    )
    for key, value in [
        ("a", "1"), ("b", 1.0), ("b", 1.9), ("shift", True), ("shift", None)
    ]:
        summand = dict(good["summands"][0], **{key: value})
        with pytest.raises(InputError):
            object_from_json({"n": 3, "summands": [summand]})
    for n in (True, 3.0, "3"):
        with pytest.raises(InputError):
            object_from_json(dict(good, n=n))
        with pytest.raises(InputError):
            object_from_json(dict(good, n=n), 3)
    assert object_from_json(good, 3) == object_from_json(good)
    with pytest.raises(InputError):
        object_from_json(good, 4)
    # a present n is checked against --n, not overridden by it
    bad_n = '{"n": "x", "summands": [{"a": 1, "b": 1, "shift": 0}]}'
    assert run(["check", "--n", "3", "--mode", "ddcp", "--object", bad_n]) == EXIT_INPUT
    other_n = '{"n": 3, "summands": [{"a": 1, "b": 4, "shift": 0}]}'
    assert run(["end", "--n", "4", "--object", other_n]) == EXIT_INPUT
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize("window", ["0", "-1"])
def test_classify_window_below_one_is_input_error(window, capsys):
    assert run(["classify", "--n", "3", "--window", window]) == EXIT_INPUT
    assert capsys.readouterr().out == ""


ZERO_REASONS = {
    "dcp": ["approximation of the regular module not injective"],
    "ddcp": [
        "vertex %d: supported in shifts [], expected exactly one" % e
        for e in (1, 2, 3)
    ],
    "corners": ["object does not have the derived property"],
}
ZERO_REASONS["tilting-module"] = ZERO_REASONS["dcp"]
ZERO_REASONS["ddcp-derived"] = ZERO_REASONS["tilting"] = ZERO_REASONS["ddcp"]


@pytest.mark.parametrize("mode", sorted(ZERO_REASONS))
def test_check_zero_object(mode, capsys):
    expected = EXIT_PRECONDITION if mode == "corners" else EXIT_FALSE
    zero = obj_json()
    assert run(["check", "--n", "3", "--object", zero, "--mode", mode]) == expected
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] is False
    assert out["applicable"] is (mode != "corners")
    assert out["reasons"] == ZERO_REASONS[mode]


@pytest.mark.parametrize(
    "argv",
    [
        ["hom", "--n", "1_0", "--from", "1,1", "--to", "1,1"],
        ["hom", "--n", "10", "--from", "1_0,1_0", "--to", "1,10"],
        ["hom", "--n", "3", "--from", "1,3", "--to", "٣,3"],
        ["ext", "--n", "3", "--from", " 1 , 3", "--to", "2,3"],
        ["ext", "--n", "3", "--from", "+1,3", "--to", "2,3"],
        ["ext", "--n", "３", "--from", "1,3", "--to", "2,3"],
        ["ext", "--n", " 3", "--from", "1,3", "--to", "2,3"],
        ["classify", "--n", "3", "--window", "0_2"],
        ["audit", "--n", "3", "--length", "3 "],
    ],
)
def test_integer_arguments_are_ascii_digits(argv, capsys):
    """int() would coerce each of these (underscores, spaces, a plus sign,
    non-ASCII digits); the CLI rejects them as input errors."""
    assert run(argv) == EXIT_INPUT
    assert capsys.readouterr().out == ""
