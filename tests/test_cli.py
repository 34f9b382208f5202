"""End-to-end CLI: golden outputs, determinism, exit codes."""

import hashlib
import json
import os
import resource
import shlex
import subprocess
import sys

import pytest

import epshift
from epshift import cli, grammar
from epshift.family import MAX_WINDOW_BITS

SRC = os.path.dirname(os.path.dirname(epshift.__file__))


def run_fresh(args, timeout=None, preexec_fn=None):
    """Run ``python <args>`` in a new interpreter on this checkout's sources."""
    env = {**os.environ, "PYTHONPATH": SRC}
    return subprocess.run([sys.executable, *args], capture_output=True,
                          text=True, env=env, timeout=timeout,
                          preexec_fn=preexec_fn)


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr().out.strip()
    return code, out


def test_eval_golden(capsys):
    code, out = run_cli(capsys, "eval", "(0,0;[0)) * (1,1;[0))")
    assert code == 0
    assert out == '{"result":"(1,1;[0))"}'


def test_parse_run_library_surface():
    cmd = grammar.parse_command("eval (0,0;[0)) * (1,1;[0))")
    assert cli.run_with_code(cmd) == ('{"result":"(1,1;[0))"}', cli.EXIT_OK)
    # the command's text is parsed inside the same handler as running it
    assert cli.run_with_code("eval (0,0;[0)) * (1,1;[0))") \
        == cli.run_with_code(cmd)
    out, code = cli.run_with_code("eval (0,0;[0)) *")
    assert code == cli.EXIT_SYNTAX
    assert json.loads(out)["error"]["code"] == "syntax_error"
    out, _ = cli.run_with_code(grammar.parse_command("classify closure{ {3} }"))
    assert json.loads(out)["result"]["iso_type"] == "MatrixUnitsOmega"


def test_eval_zero_collapse(capsys):
    code, out = run_cli(capsys, "eval", "(0,5;2+3*w) * (1,0;2+3*w)")
    assert code == 0 and out == '{"result":"0"}'


def test_eval_explicit_zero(capsys):
    code, out = run_cli(capsys, "eval", "0 * (1,1;{2})")
    assert code == 0 and out == '{"result":"0"}'


def test_classify_progression_golden(capsys):
    code, out = run_cli(capsys, "classify", "family{ {}; 2+3*w }")
    assert code == 0
    payload = json.loads(out)["result"]
    assert payload["iso_type"] == "ZeroBisimpleProgression"
    assert payload["i0"] == 2 and payload["j0"] == 3
    assert payload["zero_bisimple"] is True


def test_classify_rejects_open_family(capsys):
    code, out = run_cli(capsys, "classify", "family{ {0,1} }")
    assert code == 1
    err = json.loads(out)["error"]
    assert err["code"] == "not_omega_closed"
    assert err["n"] == 1


def test_closure_command(capsys):
    code, out = run_cli(capsys, "closure{ {0,1} }")
    assert code == 0
    payload = json.loads(out)["result"]
    assert payload["members"] == ["{}", "{0}", "{0,1}"]
    assert payload["has_empty"] is True and payload["size"] == 3


def test_map_sigma_golden(capsys):
    code, out = run_cli(capsys, "map", "sigma", "(2,5;[0))")
    assert code == 0 and out == '{"result":-3}'


def test_map_brandt_and_reindex(capsys):
    code, out = run_cli(capsys, "map", "brandt", "(-2,3;{4})")
    assert code == 0 and json.loads(out)["result"] == "(2,4,7)"
    code, out = run_cli(capsys, "map", "reindex(2,0,3)", "(0,1;2+3*w)")
    assert code == 0 and json.loads(out)["result"] == "(0,1;0+3*w)"


def test_map_domain_errors(capsys):
    code, out = run_cli(capsys, "map", "sigma", "0")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "zero_in_family"
    code, out = run_cli(capsys, "map", "ext-bicyclic", "(0,0;{3})")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "wrong_iso_type"
    code, out = run_cli(capsys, "map", "brandt", "(0,0;{1,2})")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "not_singleton_set"


def test_green_with_witness(capsys):
    code, out = run_cli(capsys, "green", "(0,3;{2})", "(0,7;{2})", "R")
    assert code == 0
    payload = json.loads(out)
    assert payload["result"] is True
    assert payload["witness"] == ["(3,7;{2})", "(7,3;{2})"]
    code, out = run_cli(capsys, "green", "(0,3;{2})", "(1,3;{2})", "R")
    assert json.loads(out)["result"] is False


def test_order_command(capsys):
    code, out = run_cli(capsys, "order", "(1,1;[0))", "(0,0;[0))")
    assert code == 0 and json.loads(out)["result"] is True
    code, out = run_cli(capsys, "order", "(0,0;[0))", "(1,1;[0))")
    assert json.loads(out)["result"] is False


def test_syntax_error_exit_code(capsys):
    code, out = run_cli(capsys, "eval", "(0,0;[0)) *")
    assert code == 2
    err = json.loads(out)["error"]
    assert err["code"] == "syntax_error"
    assert err["line"] == 1 and err["col"] > 0


def test_an_integer_literal_too_long_for_int_is_a_syntax_error(capsys):
    # past Python's default 4300-digit limit of int() on a string
    code, out = run_cli(capsys, "eval", "(0,0;{" + "9" * 5000 + "})")
    assert code == 2
    err = json.loads(out)["error"]
    assert err["code"] == "syntax_error"
    # the position is in the command text, "eval (0,0;{999..."
    assert err["line"] == 1 and err["col"] == len("eval (0,0;{") + 1
    assert "5000" in err["message"]


def syntax_error(line, col, expected, message):
    return json.dumps({"error": {"code": "syntax_error", "col": col,
                                 "expected": expected, "line": line,
                                 "message": message}},
                      separators=(",", ":"), sort_keys=True) + "\n"


HEADS = ["eval", "closure", "classify", "green", "order", "map", "check-hom",
         "oracle-check", "selftest"]

# The exact stdout and exit code of inputs at the grammar's edges: each
# row is the argv, the exit code and the whole of stdout.
SYNTAX_ANSWERS = [
    pytest.param(["eval", "(0,0;[0)) *"], 2, syntax_error(
        1, 17, ["'(' or '0'"], "expected '(' or '0', found 'end of input'"),
        id="end-after-star"),
    # only a newline starts a line
    pytest.param(["eval", "(0,0;{1}\n| [x))"], 2, syntax_error(
        2, 4, ["a natural ray start"], "expected a natural ray start, "
        "found 'x'"), id="newline-in-word"),
    # a tab is one column
    pytest.param(["eval\t(0,0;\t{1}) x"], 2, syntax_error(
        1, 17, ["end of input"], "unexpected trailing input 'x'"), id="tab"),
    # a digit that is not decimal is no integer literal
    pytest.param(["eval", "(\u00b2,0;{1})"], 2, syntax_error(
        1, 7, [], "unexpected character '\u00b2'"), id="superscript-two"),
    # a decimal digit of another script is one
    pytest.param(["eval", "(\u0663,0;{1})"], 0, '{"result":"(3,0;{1})"}\n',
                 id="arabic-indic-three"),
    pytest.param(["eval", "(0,0;{" + "9" * 5000 + "})"], 2, syntax_error(
        1, 12, ["a natural member"],
        "integer literal of 5000 characters is too long"), id="long-literal"),
    pytest.param(["order", "(0,0;{1})", "(0,0;{1})", "extra"], 2,
                 syntax_error(1, 27, ["end of input"],
                              "unexpected trailing input 'extra'"),
                 id="trailing-input"),
    pytest.param(["eval", "(0,1;2+0*w)"], 2, syntax_error(
        1, 13, ["a positive step"], "expected a positive step, found 0"),
        id="zero-step"),
    pytest.param(["frobnicate", "{0}"], 2, syntax_error(
        1, 1, HEADS, f"expected {' or '.join(HEADS)}, found 'frobnicate'"),
        id="unknown-head"),
    # the command's syntax is reported before a flag's value
    pytest.param(["--seed", "x", "eval", "(0,0;"], 2, syntax_error(
        1, 11, ["set"], "expected a set: '{...}', '[k)' or 'a+p*w'"),
        id="syntax-before-flag-value"),
    # a letter outside ASCII is an unexpected character, wherever it stands
    pytest.param(["selftest", "\u00e9"], 2, syntax_error(
        1, 10, [], "unexpected character '\u00e9'"), id="non-ascii-suite"),
    pytest.param(["map", "\u03c3", "(0,0;{1})"], 2, syntax_error(
        1, 5, [], "unexpected character '\u03c3'"), id="non-ascii-map"),
]


@pytest.mark.parametrize("argv, code, stdout", SYNTAX_ANSWERS)
def test_syntax_answers_are_pinned(capsys, argv, code, stdout):
    assert cli.main(argv) == code
    assert capsys.readouterr().out == stdout


def test_no_command_prints_usage(capsys):
    code = cli.main([])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("usage: epshift")


def test_selftest_small_passes(capsys):
    code, out = run_cli(capsys, "selftest", "natural-order",
                        "--samples", "60", "--seed", "5")
    assert code == 0
    payload = json.loads(out)["result"]
    assert payload["passed"] is True
    assert payload["suites"][0]["failures"] == 0
    assert payload["suites"][0]["seed"] == 5


def test_selftest_unknown_suite(capsys):
    code, out = run_cli(capsys, "selftest", "bogus", "--samples", "5")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "invalid_value"


def test_check_hom_and_oracle(capsys):
    code, out = run_cli(capsys, "check-hom", "reindex", "--samples", "40")
    assert code == 0 and json.loads(out)["result"]["passed"] is True
    code, out = run_cli(capsys, "oracle-check", "--samples", "30")
    assert code == 0 and json.loads(out)["result"]["passed"] is True


# of ``epshift check-hom <name> --samples 300`` at seed 7, newline
# included: a change that moves any check, count or rng draw moves it
CHECK_HOM_MD5 = {
    "sigma": "acfc587fe352efc7974586e04dbf3742",
    "ext-bicyclic": "27f3bbb86838051efe6f386211e7036d",
    "shift-iso": "166744fbe0f256f0e600b143677568cb",
    "matrix-units": "948aeacf18063d451a5a421a4df964bb",
    "brandt": "b0dbfdca946b2ee7d705ba76469142f4",
    "reindex": "c16e6b94b310a5fbbd3275aa41edeb89",
}


@pytest.mark.parametrize("name", sorted(CHECK_HOM_MD5))
def test_check_hom_output_is_pinned(capsys, name):
    from epshift import selftest

    # the grammar's names and the harness's are one list
    assert set(grammar.HOM_NAMES) == set(selftest._HOM_SUITES) \
        == set(CHECK_HOM_MD5)
    assert cli.main(["check-hom", name, "--samples", "300"]) == 0
    out = capsys.readouterr().out
    assert hashlib.md5(out.encode()).hexdigest() == CHECK_HOM_MD5[name]


def test_oracle_check_is_selftest_oracle(capsys):
    _, alias = run_cli(capsys, "oracle-check", "--samples", "50", "--seed", "3")
    _, suite = run_cli(capsys, "selftest", "oracle", "--samples", "50",
                       "--seed", "3")
    assert alias == suite


def test_determinism_same_seed_same_bytes(capsys):
    args = ("selftest", "green", "--samples", "40", "--seed", "11")
    _, first = run_cli(capsys, *args)
    _, second = run_cli(capsys, *args)
    assert first == second
    _, third = run_cli(capsys, "selftest", "green", "--samples", "40",
                       "--seed", "12")
    assert json.loads(third)["result"]["suites"][0]["seed"] == 12


def test_flags_after_command_text(capsys):
    code, out = run_cli(capsys, "classify", "closure{ {3} }", "--pretty")
    assert code == 0
    assert out.startswith("{\n")
    assert json.loads(out)["result"]["iso_type"] == "MatrixUnitsOmega"


def test_pretty_and_compact_agree(capsys):
    _, compact = run_cli(capsys, "classify", "closure{ {3} }")
    _, pretty = run_cli(capsys, "--pretty", "classify", "closure{ {3} }")
    assert json.loads(compact) == json.loads(pretty)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "epshift.cli", "eval", "(0,0;[0))"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["result"] == "(0,0;[0))"


def test_closure_cap_flag(capsys):
    code, out = run_cli(capsys, "--max-family", "2",
                        "closure{ {0,1,4} }")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "closure_diverged"
    # the generators alone already exceed the cap
    code, out = run_cli(capsys, "--max-family", "1", "closure{ {}; [0) }")
    assert code == 1
    assert json.loads(out)["error"]["code"] == "closure_diverged"


@pytest.mark.parametrize("argv, message", [
    (("--max-family", "-5", "closure{ [0) }"),
     "--max-family must be at least 1, got -5"),
    (("--max-family", "0", "eval", "(0,0;[0)) * (1,1;[0))"),
     "--max-family must be at least 1, got 0"),
    (("--samples", "-3", "selftest"), "--samples must be at least 0, got -3"),
    # values that are not integers at all
    (("--samples", "x", "selftest"), "--samples expects an integer, got 'x'"),
    (("--seed=abc", "selftest", "green"),
     "--seed expects an integer, got 'abc'"),
    (("eval", "(0,0;[0))", "--max-family", "1.5"),
     "--max-family expects an integer, got '1.5'"),
])
def test_out_of_range_flags_are_invalid_values(capsys, argv, message):
    code, out = run_cli(capsys, *argv)
    assert code == 1
    assert json.loads(out) == {"error": {"code": "invalid_value",
                                         "message": message}}


def test_smallest_flag_values_still_run(capsys):
    code, out = run_cli(capsys, "--max-family", "1", "closure{ [0) }")
    assert code == 0 and json.loads(out)["result"]["size"] == 1
    code, out = run_cli(capsys, "--samples", "0", "selftest", "green")
    assert code == 0 and json.loads(out)["result"]["passed"] is True
    # the cap is for the command's own input, not the harness's families
    code, out = run_cli(capsys, "--max-family", "1", "--samples", "5",
                        "selftest")
    assert code == 0 and json.loads(out)["result"]["passed"] is True


def test_flag_forms_and_leftover_words(capsys):
    args = ("selftest", "natural-order", "--samples", "20")
    _, spaced = run_cli(capsys, *args, "--seed", "4")
    _, joined = run_cli(capsys, *args, "--seed=4")
    assert spaced == joined and json.loads(spaced)["result"]["passed"] is True
    # a flag with no value after it, an unknown flag and the removed
    # ``--window`` are command words, hence syntax errors
    for argv in (("selftest", "--seed"), ("--foo", "selftest"),
                 ("--window", "128", "oracle-check")):
        code, out = run_cli(capsys, *argv)
        assert code == 2
        assert json.loads(out)["error"]["code"] == "syntax_error"


@pytest.mark.parametrize("flag", ["-h", "--help"])
def test_help_prints_every_flag(capsys, flag):
    code = cli.main([flag])
    out = capsys.readouterr().out
    assert code == 0
    for name in ("--seed", "--samples", "--max-family", "--pretty", "--help"):
        assert name in out
    # anywhere on the line, ahead of any other error
    assert cli.main(["eval", flag, "--samples", "x"]) == 0
    assert capsys.readouterr().out == out


def test_small_sample_counts_cover_every_case_split(capsys):
    code, out = run_cli(capsys, "--samples", "1", "selftest", "morphisms")
    assert code == 0 and json.loads(out)["result"]["passed"] is True
    code, out = run_cli(capsys, "--samples", "3", "check-hom", "brandt")
    assert code == 0 and json.loads(out)["result"]["passed"] is True


def limit_memory():
    resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))


def holds(want, got):
    """Whether ``got`` has every key of ``want``, at every depth, alike."""
    if isinstance(want, dict):
        return isinstance(got, dict) and all(
            k in got and holds(v, got[k]) for k, v in want.items())
    return type(want) is type(got) and want == got


def row(name, command, timeout, code, want, marks=()):
    """A row of ``HOSTILE``; ``command`` is split as a shell splits it."""
    return pytest.param(shlex.split(command), timeout, code, want, id=name,
                        marks=marks)


RESOURCE_LIMIT = {"error": {"code": "resource_limit"}}


def too_wide(bits):
    return {"error": {"code": "resource_limit", "quantity": "window_bits",
                      "value": bits, "limit": MAX_WINDOW_BITS}}


def bad_step(col, what):
    return {"error": {"code": "syntax_error", "line": 1, "col": col,
                      "expected": [what]}}


# Still slower than their timeout: each row holds the answer the input gives
# when let run, so a change that mends one fails (a strict xfail) until the
# row is promoted, and a wrong answer fails at once.
TOO_SLOW = pytest.mark.xfail(raises=subprocess.TimeoutExpired)

# Hostile inputs, each run as a new 1 GiB child: the command, a timeout in
# seconds, the exit code, and what stdout must hold, either a nested subset
# of its JSON or an exact prefix of its text.
HOSTILE = [
    # an lcm-wide mask; only the memory limit answers
    row("green-lcm-mask", "green '(0,0;1+100003*w)' '(0,0;2+100019*w)' J",
        1, 1, RESOURCE_LIMIT),
    # closure windows over the bound are refused before they are built
    row("wide-period", "eval '(0,0;2+10007*w) * (0,0;3+10009*w)'",
        1, 1, too_wide(10007 * 10009)),
    row("wide-threshold", "eval '(0,0;{100000000}) * (5,0;[0))'",
        1, 1, too_wide(10**8 + 2)),
    row("giga-head", "eval '(0,0;{1000000000})'", 5, 1, too_wide(10**9 + 2)),
    # the grammar finds the least period of a 10^8-bit pattern first
    row("long-period", "eval '(0,0;0+100000000*w)'", 5, 1, too_wide(10**8)),
    # the grammar builds a 10^10-bit mask, or the least period of a 10^9-bit
    # pattern, before any command runs
    row("eval-head", "eval '(0,0;{10000000000})'", 5, 1, RESOURCE_LIMIT),
    row("closure-ray", "'closure{ [10000000000) }'", 5, 1, RESOURCE_LIMIT),
    row("order-head", "order '(0,0;{10000000000})' '(0,0;[0))'",
        5, 1, RESOURCE_LIMIT),
    row("eval-period", "eval '(0,0;0+1000000000*w)'", 5, 1, RESOURCE_LIMIT),
    # each witness prints a head of 100002 members
    row("dense-head", "green '(0,0;{200001}|0+2*w)' '(0,0;{200001}|0+2*w)' R",
        2, 0, '{"result":true,"witness":["(0,0;{0,2,4,'),
    row("green-shift-window", "green '(0,0;{0,2}|[50000))' "
        "'(0,0;{1}|[50001))' J", 2, 0, {"result": True}),
    # validation cuts each member with p down-shifts of a p-bit window
    row("validate-period", "classify 'family{ {}; 0+20011*w }'", 2, 0,
        {"result": {"iso_type": "ZeroBisimpleProgression", "i0": 0,
                    "j0": 20011}}),
    row("validate-long-period", "classify 'family{ {}; 0+100003*w }'", 10, 0,
        {"result": {"iso_type": "ZeroBisimpleProgression", "j0": 100003}}),
    row("validate-wide-ray", "classify 'family{ [2000000) }'", 10, 1,
        too_wide(2000001)),
    row("open-family-witness", "classify 'family{ {3}; {4} }'", 10, 1,
        '{"error":{"code":"not_omega_closed","f1":"{3}","f2":"{3}","message":'
        '"{3} \\u2229 shift({3}, -1) = {} is outside the family","n":1}}\n'),
    row("reindex-zero-step", "map 'reindex(2,0,0)' '(0,1;2+3*w)'", 1, 2,
        bad_step(17, "a positive progression step")),
    row("reindex-zero-step-on-zero", "map 'reindex(2,0,0)' 0", 1, 2,
        bad_step(17, "a positive progression step")),
    row("set-zero-step", "eval '(0,1;2+0*w)'", 1, 2,
        bad_step(13, "a positive step")),
    # close() folds every down-shift of a window of about a million bits
    row("close-long-period", "eval '(0,0;0+1000003*w)'", 1, 0,
        {"result": "(0,0;0+1000003*w)"}, TOO_SLOW),
    row("close-singleton", "eval '(7,5;{703601})'", 1, 0,
        {"result": "(7,5;{703601})"}, TOO_SLOW),
    row("close-ray", "'closure{ [563444) }'", 1, 0, {"result": {
        "has_empty": False, "members": ["[563444)"], "size": 1}}, TOO_SLOW),
    # exists_shift_subset tests each k < t2 + p2 on a t2-wide window
    row("green-shift-scan", "green '(-7,-5;44+4*w|{})' "
        "'(-8,7;[567694)|{238,118})' J", 1, 0, {"result": False}, TOO_SLOW),
    # validation: 500001 cuts of 500001 bits
    row("validate-ray", "classify 'family{ [500000) }'", 1, 0, {"result": {
        "iso_type": "ExtendedBicyclic", "simple": True, "bisimple": True}},
        TOO_SLOW),
]


@pytest.mark.parametrize("argv, timeout, code, want", HOSTILE)
def test_hostile_input(argv, timeout, code, want):
    proc = run_fresh(["-m", "epshift.cli", *argv], timeout=timeout,
                     preexec_fn=limit_memory)
    assert proc.returncode == code, proc.stderr
    if isinstance(want, str):
        assert proc.stdout.startswith(want), proc.stdout[:200]
    else:
        assert holds(want, json.loads(proc.stdout)), proc.stdout[:200]


@pytest.mark.parametrize("unbuffered", ["", "1"],
                         ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_1_without_a_traceback(unbuffered):
    # the read end is closed before the child starts, so its first write
    # to stdout meets a broken pipe
    r, w = os.pipe()
    os.close(r)
    env = {**os.environ, "PYTHONPATH": SRC, "PYTHONUNBUFFERED": unbuffered}
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "epshift.cli", "--pretty", "selftest",
             "natural-order", "--samples", "5"],
            stdout=w, stderr=subprocess.PIPE, text=True, env=env, timeout=60)
    finally:
        os.close(w)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "BrokenPipeError" not in proc.stderr


def test_an_internal_error_is_json_with_exit_4(capsys, monkeypatch):
    def broken(cmd, opts):
        raise TypeError("unsupported operand")

    monkeypatch.setitem(cli._RUNNERS, cli.grammar.OrderCmd, broken)
    argv = ["order", "(1,1;[0))", "(0,0;[0))"]
    # in-process callers still see the exception
    with pytest.raises(TypeError):
        cli.main(argv)
    monkeypatch.setattr(sys, "argv", ["epshift", "--pretty", *argv])
    assert cli._process_main() == cli.EXIT_INTERNAL == 4
    out, err = capsys.readouterr()
    assert out == ('{"error":{"code":"internal_error",'
                   '"message":"TypeError: unsupported operand"}}\n')
    assert err == ""
    # the other commands are untouched
    monkeypatch.setattr(sys, "argv", ["epshift", "eval", "(0,0;[0)) * (1,1;[0))"])
    assert cli._process_main() == cli.EXIT_OK
    assert capsys.readouterr().out == '{"result":"(1,1;[0))"}\n'


# the names ``epshift`` exports, by the module that defines them
EXPORTS = {
    "core": "Element SemigroupCtx ZERO green green_witness idempotent_leq "
            "inverse is_idempotent multiply natural_leq",
    "errors": "ClosureDiverged DomainError EmptyOutsideFamily NotIdempotent "
              "NotOmegaClosed NotRelated NotSingletonSet OutsideFamily "
              "ParseError ResourceLimit WrongIsoType WrongProgression "
              "ZeroInFamily",
    "family": "Family SingletonFamily close is_omega_closed",
    "omega_sets": "EMPTY EpSet as_arith_progression as_singleton "
                  "exists_shift_subset intersect is_inductive is_subset "
                  "shift union",
    "classify": "StructureReport classify d_class_count",
    "morphisms": "BrandtElt ExtBicyclicElt MatrixUnitElt brandt_mul "
                 "ext_bicyclic_mul matrix_unit_mul partial_shift_iso "
                 "progression_reindex sigma_hom singleton_ctx to_brandt "
                 "to_ext_bicyclic to_matrix_units",
    "partial_maps": "PartialShift compose_shifts restricted_compose_dom",
}

IMPORT_CHECK = f"""
import importlib, sys
import epshift.cli
heavy = ["epshift.selftest", "epshift.classify", "epshift.morphisms",
         "epshift.partial_maps", "epshift.values", "dataclasses", "argparse"]
assert not [m for m in heavy if m in sys.modules], sys.modules.keys()

import epshift
from epshift import kernel
exports = {EXPORTS!r}
names = {{n for names in exports.values() for n in names.split()}}
assert names | {{"KERNEL_BACKEND"}} == set(epshift.__all__)
assert epshift.KERNEL_BACKEND == kernel.BACKEND
# loading a submodule, as the classify command does, must not rebind the
# package's function of the same name to the module
importlib.import_module("epshift.classify")
for module, names in exports.items():
    home = importlib.import_module("epshift." + module)
    for name in names.split():
        assert getattr(epshift, name) is getattr(home, name), name
assert set(epshift.__all__) <= set(dir(epshift))
try:
    epshift.no_such_name
except AttributeError:
    pass
else:
    raise AssertionError("unknown attribute resolved")

star = {{}}
exec("from epshift import *", star)
assert set(epshift.__all__) <= set(star)
print("ok")
"""


def test_cli_import_loads_only_what_commands_share():
    # pytest has every module loaded already; only a new interpreter shows
    # what ``import epshift.cli`` itself pulls in
    proc = run_fresh(["-c", IMPORT_CHECK])
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "ok\n"


# prints the loaded modules to stderr once ``cli.main`` has answered
MODULES_AFTER = """
import sys
from epshift import cli, grammar
code = cli.main(sys.argv[1:])
sys.stderr.write(" ".join(sys.modules))
raise SystemExit(code)
"""

FOOTPRINT_COMMANDS = [
    ["eval", "(0,0;[0)) * (1,1;[0))"],
    ["closure{ {0,3} }"],
    ["classify", "closure{ {0,3} }"],
    ["green", "(0,0;[0))", "(1,1;[0))", "D"],
    ["order", "(0,0;[0))", "(1,1;[0))"],
    ["map", "sigma", "(1,2;[0))"],
    ["map", "brandt", "(1,2;{3})"],
    ["map", "reindex(2,4,3)", "(1,2;2+3*w)"],
    ["map", "ext-bicyclic", "(1,2;[0))"],
    ["map", "matrix-units", "(1,2;{3})"],
    ["check-hom", "brandt", "--samples", "2"],
    ["selftest", "oracle", "--samples", "2"],
    ["eval", "(0,0;"],
]

# maps that read no structure report
REPORT_FREE_MAPS = ("sigma", "brandt", "reindex")


def test_commands_load_no_dataclasses_and_maps_only_what_they_run(capsys):
    # what the interpreter loads before any epshift code runs, ``site``
    # included, is not the command's
    bare = set(run_fresh(["-c", "import sys\n"
                          "sys.stderr.write(' '.join(sys.modules))"])
               .stderr.split())
    for argv in FOOTPRINT_COMMANDS:
        proc = run_fresh(["-c", MODULES_AFTER, *argv])
        code, want = run_cli(capsys, *argv)
        assert (proc.stdout.strip(), proc.returncode) == (want, code), argv
        loaded = set(proc.stderr.split()) - bare
        assert not loaded & {"dataclasses", "inspect"}, argv
        if argv[0] == "map" and argv[1].startswith(REPORT_FREE_MAPS):
            assert not loaded & {"epshift.classify", "epshift.partial_maps"}, \
                argv
        if argv[0] == "map":
            assert "epshift.morphisms" in loaded and code == 0, argv

