import ast
import contextlib
import hashlib
import io
import json
import os
import re
import shutil
import subprocess
import sys
import time
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import pgarl
from pgarl.cli import _parse_binding, main
from pgarl.rigidloops import project
from pgarl.services import BudgetExceeded, DownCounter, FullCounter

from genprograms import nested_exits, soundness_corpus
from treeoracle import number, tree_apply_use_bounded

FIRST = "(3x{;a;b;4x{;c;}x;d;}x;e)^w"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_dump(capsys):
    code, out, _ = run(capsys, "parse", "-e", "+a;#2;(b)^w")
    assert code == 0
    assert out.splitlines() == ["part 1", "  1 +a", "  2 #2", "part 2 repeated", "  1 b"]


def test_parse_error_exit_code(capsys):
    code, _, err = run(capsys, "parse", "-e", "0x{;a")
    assert code == 2 and "parse error" in err


def test_normalize(capsys):
    code, out, _ = run(capsys, "normalize", "-e", "a;(b;a)^w")
    assert code == 0 and out.strip() == "(a;b)^w"


def test_annotate_golden_bytes(capsys):
    code, out, _ = run(capsys, "annotate", "-e", "3x{;a;b;4x{;+c;#4;}x;d;}x;+e;#3")
    assert code == 0
    assert out == "3x{;a;b;4x{;+c;#4(7,3)(9,2);3}x2;d;2}x7;+e;#3\n"


def test_annotate_omega(capsys):
    code, out, _ = run(capsys, "annotate", "-e", FIRST)
    assert code == 0 and out.strip() == "(3x{;a;b;4x{;c;3}x1;d;2}x6;e)^w"


def test_annotate_mixed_rejected(capsys):
    code, _, err = run(capsys, "annotate", "-e", "a;(1x{;b;}x)^w")
    assert code == 3


def test_annotate_ill_formed_exit_code(capsys):
    code, _, err = run(capsys, "annotate", "-e", "(+b;}x;a)^w")
    assert code == 3 and "well-formedness" in err


def test_project_counter_output(capsys):
    code, out, _ = run(capsys, "project", "--mode=counter", "-e", "(a;2x{;+b;#3;}x;c;d)^w")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == (
        "rlc:5.set:1;(a;#1;+b;u(rlc:5.set:1;#3);u(+rlc:5.dec;#3;rlc:5.set:1;#2;#5);c;d)^w"
    )
    assert lines[1] == "bind rlc:5=dc(init=0,max=1)"


def test_project_pure_output(capsys):
    code, out, _ = run(capsys, "project", "--mode=pure", "-e", "b;1x{;a;}x;c")
    assert code == 0 and out.strip() == "b;#1;a;#1;c"


def test_project_prints_the_program_via_reads(capsys):
    # one pure projection: a program without rigid loops gets its body's jumps
    # normalized on both paths, and the CLI imports no projection but project
    assert run(capsys, "project", "--mode=pure", "-e", "(a;#5)^w") == (0, "(a;#1)^w\n", "")
    pure = project(pgarl.parse_canonical("(a;#5)^w"), "pure").program
    assert pure == pgarl.parse_canonical("(a;#1)^w")
    tree = ast.parse(Path(pgarl.cli.__file__).read_text(encoding="utf-8"))
    names = {alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
             for alias in node.names}
    assert "project" in names and not names & {"project_counter", "project_pure"}


def test_extract_plain(capsys):
    code, out, _ = run(capsys, "extract", "--expr=-a;b;c")
    assert code == 0
    assert out.splitlines()[0] == "root 1"
    assert "X1 = X2 <a> X3" in out


def test_extract_uses_defining_projection(capsys):
    code_direct, out_direct, _ = run(capsys, "extract", "-e", FIRST)
    assert code_direct == 0 and "<c>" in out_direct


def test_extract_with_binding(capsys):
    code, out, _ = run(
        capsys, "extract", "-e", "(+c:1.dec;#2;!;a)^w", "--bind", "c:1=dc(init=1,max=1)"
    )
    assert code == 0
    # the counter grants one decrement, so: one a, then termination
    assert "X1 = X2 <a> X2" in out and "X2 = S" in out


def test_extract_unbounded_binding_needs_depth(capsys):
    code, _, err = run(capsys, "extract", "-e", "(c.inc;a)^w", "--bind", "c=counter()")
    assert code == 3 and "--depth" in err


def test_extract_unbounded_binding_with_depth(capsys):
    code, out, _ = run(
        capsys, "extract", "-e", "(a;c.inc)^w", "--bind", "c=counter()", "--depth", "3"
    )
    assert code == 0 and out.count("<a>") == 3


DEPTH_3_EQUATIONS = [
    "X1 = X2 <a> X3",
    "X2 = X4 <a> X5",
    "X3 = X4 <a> X5",
    "X4 = X6 <a> X6",
    "X5 = X6 <a> X6",
    "X6 = D",
]


def test_extract_depth_is_numbered_breadth_first(capsys):
    # breadth first from the root, yes before no, the terminal last
    argv = ("extract", "-e", "(+a;c.inc;#2;b;c.dec)^w", "--bind", "c=counter()", "--depth", "3")
    code, out, _ = run(capsys, *argv)
    assert code == 0 and out.splitlines() == ["root 1"] + DEPTH_3_EQUATIONS
    code, out, _ = run(capsys, *argv, "--format", "json")
    assert code == 0 and json.loads(out) == {
        "root": 1,
        "equations": [
            {"index": i, "text": text} for i, text in enumerate(DEPTH_3_EQUATIONS, 1)
        ],
    }


def test_equiv_equal_programs(capsys):
    code, out, _ = run(capsys, "equiv", "-e", "#0", "-e", "#1")
    assert code == 0 and out.strip() == "equivalent"


def test_equiv_unequal_programs(capsys):
    code, out, _ = run(capsys, "equiv", "-e", "#0;a", "-e", "#1;a")
    assert code == 1
    assert out.splitlines()[0] == "not equivalent"
    assert "differs: D vs action a" in out


def test_equiv_projects_rigid_loops(capsys):
    code, _, _ = run(capsys, "equiv", "-e", "(2x{;a;}x;b)^w", "-e", "(a;a;b)^w")
    assert code == 0


def test_equiv_via_pure(capsys):
    code, _, _ = run(
        capsys, "equiv", "--via=pure", "-e", "(2x{;a;}x;b)^w", "-e", "(a;a;b)^w"
    )
    assert code == 0


def test_extract_prints_the_same_bytes_via_either_projection(capsys):
    # the two routes number one spec, so the printed thread is the same
    for program in soundness_corpus()[::5]:
        text = pgarl.format_program(program)
        code, out, err = run(capsys, "extract", "-e", text)
        assert (code, err) == (0, "") and out.startswith("root 1\n")
        assert run(capsys, "extract", "--via=pure", "-e", text) == (0, out, ""), text


_UNIT_IN_LOOP = "well-formedness error: error at 2: unit instruction in a rigid-loop program\n"


@pytest.mark.parametrize("text", ["(3x{;u(a;#2);}x;b)^w", "(2x{;u(a;+b);}x;c)^w"])
@pytest.mark.parametrize("argv", [
    ("extract",), ("extract", "--via=pure"), ("project",), ("project", "--mode=pure"),
    ("equiv", "-e", "a"), ("equiv", "--via=pure", "-e", "a"), ("simulate", "--replies=TT"),
    ("stats",), ("annotate",),
])
def test_unit_in_a_rigid_loop_program_exits_3_on_either_route(capsys, text, argv):
    # before this was an error, extract printed two equations on the first
    # program and four with --via pure
    assert run(capsys, *argv, "-e", text) == (3, "", _UNIT_IN_LOOP)


@pytest.mark.parametrize("via", [(), ("--via=pure",)])
def test_equiv_body_closing_prefix_loops_in_later_periods(capsys, via):
    # the body's closure closes the inner loop in the first period and the
    # outer one in the second; after that it is a skip
    code, out, _ = run(
        capsys, "equiv", *via, "-e", "2x{;a;2x{;b;(}x;c)^w", "-e", "a;b;b;c;a;b;b;c;(c)^w"
    )
    assert code == 0 and out.strip() == "equivalent"


def test_simulate_plain(capsys):
    # F skips the halt to b, T wraps back to the test; the script then runs dry
    code, out, _ = run(capsys, "simulate", "-e", "(+a;!;b)^w", "--replies", "FT")
    assert code == 0
    assert out.splitlines() == ["a false", "b true", "cutoff"]


# actions are tuples, so json.dumps would write one as a list: every action
# the CLI puts in JSON goes through str(), and these bytes pin that
ACTION_TEXT = "(+c.dec;q:6.set:3;b)^w"


@pytest.mark.parametrize("argv, expected", [
    (("simulate", "-e", ACTION_TEXT, "--replies", "TFT"),
     (0, '{"status": "cutoff", "steps": [["c.dec", true], ["q:6.set:3", false], '
         '["b", true]]}\n')),
    (("equiv", "-e", ACTION_TEXT, "-e", "(+c.dec;q:6.set:4;b)^w"),
     (1, '{"equivalent": false, "witness": ["c.dec true", '
         '"differs: action q:6.set:3 vs action q:6.set:4"]}\n')),
])
def test_actions_in_json_are_their_text_golden(capsys, argv, expected):
    code, out, err = run(capsys, *argv, "--format", "json")
    assert (code, out, err) == (*expected, "")


def test_simulate_to_termination(capsys):
    code, out, _ = run(capsys, "simulate", "-e", "+a;!;b", "--replies", "T")
    assert code == 0 and out.splitlines() == ["a true", "S"]


def test_simulate_rigid_program_with_auto_bindings(capsys):
    code, out, _ = run(
        capsys, "simulate", "-e", FIRST, "--replies", "T" * 22, "--max-steps", "22"
    )
    assert code == 0
    names = [line.split()[0] for line in out.splitlines()[:-1]]
    assert names == (["a", "b"] + ["c"] * 4 + ["d"]) * 3 + ["e"]


def test_simulate_with_counter_service(capsys):
    # count up while a replies true, then emit one b per stored increment
    code, out, _ = run(
        capsys,
        "simulate",
        "-e",
        "(+a;#2;#4;+c.inc;#9;#8;+c.dec;#2;#4;+b;#9;#8;!)^w",
        "--bind",
        "c=counter()",
        "--replies",
        "TTFTT",
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[:5] == ["a true", "a true", "a false", "b true", "b true"]
    assert lines[-1] == "S"


def test_simulate_method_outside_the_counter_alphabet_deadlocks(capsys):
    assert run(
        capsys, "simulate", "-e", "(c.foo;a)^w", "--bind", "c=counter()", "--replies", "TT"
    ) == (0, "D\n", "")


@pytest.mark.parametrize("command", ["extract", "simulate"])
def test_duplicate_binding_focus_rejected(capsys, command):
    code, out, err = run(
        capsys, command, "-e", "(+c.dec;#2;!;a)^w",
        "--bind", "c=dc(init=2,max=2)", "--bind", "c=dc(init=0,max=0)",
    )
    assert code == 3 and out == "" and "c is bound more than once" in err


def test_simulate_binding_cannot_replace_loop_counter(capsys):
    code, out, err = run(
        capsys, "simulate", "-e", "(2x{;a;}x)^w", "--bind", "rlc:3=dc(init=0,max=0)"
    )
    assert code == 3 and out == "" and "rlc:3 is bound more than once" in err


def test_extract_depth_counts_visible_actions_of_all_bindings(capsys):
    # both counters are consumed in one pass, so neither c.inc nor d.inc
    # counts toward the visible depth
    code, out, _ = run(
        capsys, "extract", "-e", "(a;c.inc;d.inc)^w",
        "--bind", "c=counter()", "--bind", "d=counter()", "--depth", "3",
    )
    assert code == 0 and out.count("<a>") == 3


def test_extract_negative_depth_is_an_input_error(capsys):
    code, out, err = run(
        capsys, "extract", "-e", "(a;c.inc)^w", "--bind", "c=counter()", "--depth", "-3"
    )
    assert code == 3 and out == "" and err.startswith("error:") and "depth" in err


def test_simulate_negative_max_steps_is_an_input_error(capsys):
    code, out, err = run(
        capsys, "simulate", "-e", "(a;b)^w", "--replies", "TTT", "--max-steps", "-1"
    )
    assert (code, out) == (3, "") and err.startswith("error:") and "max_steps" in err


@pytest.mark.parametrize(
    "option, value", [("--max-steps", "\u0663"), ("--depth", "\u0662"), ("--max-steps", " 2 "),
                      ("--max-steps", "1_0"), ("--max-steps", "+2"), ("--depth", "9" * 5000)]
)
def test_numeric_options_read_ascii_digits(capsys, option, value):
    command = "simulate" if option == "--max-steps" else "extract"
    with pytest.raises(SystemExit) as info:
        main([command, "-e", "(a;b)^w", option, value])
    assert info.value.code == 2 and f"argument {option}:" in capsys.readouterr().err


def test_one_focus_spelling(capsys):
    # program text reads c:007 as the focus c:7, which --bind spells c:7;
    # the spelling with leading zeros is a bad binding, not an unused one
    program = "(+c:007.dec;!;a)^w"
    code, out, err = run(capsys, "extract", "-e", program, "--bind", "c:7=dc(init=1,max=1)")
    assert (code, out, err) == (0, "root 1\nX1 = S\n", "")
    code, out, err = run(capsys, "extract", "-e", program, "--bind", "c:007=dc(init=1,max=1)")
    assert (code, out) == (3, "") and err.startswith("bad binding 'c:007=dc(init=1,max=1)': ")
    assert "leading zeros" in err


def test_extract_binding_cannot_replace_loop_counter(capsys):
    code, out, err = run(
        capsys, "extract", "-e", "(2x{;a;}x)^w", "--bind", "rlc:3=dc(init=0,max=0)"
    )
    assert code == 3 and out == "" and "rlc:3 is bound more than once" in err


def test_extract_unbounded_binding_at_depth_3000(capsys):
    code, out, _ = run(
        capsys, "extract", "-e", "(a;c.inc)^w", "--bind", "c=counter()", "--depth", "3000"
    )
    assert code == 0 and out.count("<a>") == 3000


HUGE_NEST = "(1000000x{;1000000x{;a;}x;}x)^w"


def test_stats_pure_len_of_huge_nest(capsys):
    code, out, _ = run(capsys, "stats", "-e", HUGE_NEST)
    fields = dict(line.split() for line in out.splitlines())
    assert code == 0 and fields["pure_len"] == "3000002000000"


@pytest.mark.parametrize(
    "argv", [("project", "--mode=pure"), ("equiv", "--via=pure", "-e", "(a)^w")]
)
def test_pure_projection_budget_exit_code(capsys, argv):
    code, out, err = run(capsys, *argv, "-e", HUGE_NEST)
    assert code == 4 and out == "" and "3000002000000 instructions" in err


def test_stats_fields(capsys):
    code, out, _ = run(capsys, "stats", "-e", "(2x{;2x{;a;}x;}x)^w")
    assert code == 0
    fields = dict(line.split() for line in out.splitlines())
    assert fields["source_len"] == "5"
    assert fields["pure_len"] == "16"
    assert fields["counter_len"] == "7"
    assert fields["loop_product"] == "4"


def test_stats_loop_product_reads_unsplit_loops(capsys):
    # canonicalize moves the first closure into the body; the loop product
    # is read with that loop whole again
    code, out, _ = run(capsys, "stats", "-e", "2x{;a;}x;(3x{;b;}x)^w")
    fields = dict(line.split() for line in out.splitlines())
    assert code == 0 and fields["loop_product"] == "3"


def test_json_output_is_deterministic(capsys):
    code, out1, _ = run(capsys, "extract", "--format=json", "--expr=-a;b;c")
    _, out2, _ = run(capsys, "extract", "--format=json", "--expr=-a;b;c")
    assert code == 0 and out1 == out2
    payload = json.loads(out1)
    assert payload["root"] == 1


def test_round_trip_parse_print(capsys):
    for source in ["+a;#2;!", FIRST, "a;(b;c)^w", "u(+b;#3;c);d"]:
        code, out, _ = run(capsys, "normalize", "-e", source)
        assert code == 0
        code, out2, _ = run(capsys, "normalize", "-e", out.strip())
        assert out == out2


def test_file_input(tmp_path, capsys):
    path = tmp_path / "prog.pga"
    path.write_text("+a;#2;!\n")
    code, out, _ = run(capsys, "extract", str(path))
    assert code == 0 and "root 1" in out


def test_missing_program_reports_error(capsys):
    code, _, err = run(capsys, "equiv", "-e", "#0")
    assert code == 2 and "expected 2" in err


def test_unreadable_file_is_an_input_error(tmp_path, capsys):
    (tmp_path / "latin1.pga").write_bytes(b"\xff")
    for path in (tmp_path / "missing.pga", tmp_path / "latin1.pga"):
        code, out, err = run(capsys, "extract", str(path))
        assert (code, out) == (2, "") and err.startswith(f"cannot read {path}: ")


def test_argument_after_double_dash_is_a_path(tmp_path, capsys, monkeypatch):
    # -a would be an unknown option; after -- it names a file
    monkeypatch.chdir(tmp_path)
    (tmp_path / "-a").write_text("a;b\n")
    assert run(capsys, "normalize", "--", "-a") == (0, "a;b\n", "")


def test_simulate_reply_script_characters(capsys):
    # a comma between replies is skipped; any other stray character is an
    # input error
    code, out, _ = run(capsys, "simulate", "-e", "(+a;b)^w", "--replies", "T,F")
    assert (code, out.splitlines()) == (0, ["a true", "b false", "cutoff"])
    assert run(capsys, "simulate", "-e", "(+a;b)^w", "--replies", "TX") == (
        3, "", "error: bad reply character 'X'\n")


def test_project_then_extract_matches_defining_pipeline(capsys):
    # extracting the printed counter projection under its printed bindings
    # gives byte-identical output to extracting the source directly, on a
    # nest and on every fifth corpus program
    sources = ["(3x{;a;b;4x{;c;}x;d;}x;e)^w"]
    sources += [pgarl.format_program(program) for program in soundness_corpus()[::5]]
    for source in sources:
        code, projected, _ = run(capsys, "project", "--mode=counter", "-e", source)
        program_text, *binds = projected.splitlines()
        argv = ["extract", "-e", program_text]
        for bind in binds:
            argv += ["--bind", bind.removeprefix("bind ")]
        code2, via_projection, _ = run(capsys, *argv)
        code3, via_defining, _ = run(capsys, "extract", "-e", source)
        assert code == code2 == code3 == 0, source
        assert via_projection == via_defining, source


@pytest.mark.parametrize("command", ["project", "extract", "equiv", "simulate", "stats"])
def test_xi_tail_option_is_gone(capsys, command):
    with pytest.raises(SystemExit) as exc:
        main([command, "--xi-tail", "derived", "-e", "a;(1x{;b;}x;c)^w"])
    assert exc.value.code == 2 and "--xi-tail" in capsys.readouterr().err


@pytest.mark.parametrize(
    "program, binding, fmt, expected",
    [
        (
            "(2x{;+q.dec;#2;a;b;}x;c)^w",
            "q=dc(init=1,max=1)",
            "text",
            "root 1\nX1 = X2 <b> X2\nX2 = X3 <a> X3\nX3 = X4 <b> X4\n"
            "X4 = X5 <c> X5\nX5 = X1 <a> X1\n",
        ),
        (
            "(3x{;+q.dec;#3;a;!;b;}x;c)^w",
            "q=dc(init=2,max=2)",
            "json",
            '{"equations": [{"index": 1, "text": "X1 = X2 <b> X2"}, '
            '{"index": 2, "text": "X2 = X3 <b> X3"}, '
            '{"index": 3, "text": "X3 = X4 <a> X4"}, '
            '{"index": 4, "text": "X4 = S"}], "root": 1}\n',
        ),
    ],
)
def test_extract_rigid_program_with_finite_binding_golden(capsys, program, binding, fmt, expected):
    # the loop counters and the --bind service are applied in one product pass
    code, out, err = run(capsys, "extract", f"--format={fmt}", "-e", program, "--bind", binding)
    assert (code, out, err) == (0, expected, "")


def _nested_units(depth):
    return "u(" * depth + "a" + ")" * depth


def test_units_nested_3000_deep_are_a_parse_error(capsys):
    code, out, err = run(capsys, "normalize", "-e", _nested_units(3000))
    assert code == 2 and out == ""
    assert err == "parse error: units nested more than 100 deep at line 1, column 201\n"


@pytest.mark.parametrize(
    "argv",
    [
        ("parse",), ("normalize",), ("annotate",), ("project",), ("project", "--mode=pure"),
        ("extract",), ("extract", "--via=pure"), ("equiv", "-e", "a"), ("simulate",), ("stats",),
    ],
)
def test_units_at_the_nesting_limit(capsys, argv):
    code, _, err = run(capsys, *argv, "-e", _nested_units(100))
    assert code == 0 and err == ""
    code, out, err = run(capsys, *argv, "-e", _nested_units(101))
    assert code == 2 and out == "" and "nested more than 100 deep" in err


def test_budget_exhaustion_exit_code(capsys):
    # an increment loop never emits anything visible, so the silent-step
    # budget runs out; the budget holds for each silent run and does not grow
    # with the depth, so depth 1000 stops as soon as depth 1 does
    for depth in ("1", "1000"):
        code, _, err = run(
            capsys, "extract", "-e", "(c.inc)^w", "--bind", "c=counter()", "--depth", depth
        )
        assert code == 4 and "budget" in err


def test_product_state_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(pgarl.services, "PRODUCT_STATE_LIMIT", 1000)
    argv = ("extract", "-e", "(+d.dec;a;b)^w", "--bind")
    code, out, err = run(capsys, *argv, "d=dc(init=5000,max=5000)")
    assert code == 4 and out == "" and "budget exhausted:" in err and "1000 states" in err
    code, _, err = run(capsys, *argv, "d=dc(init=400,max=400)")
    assert code == 0 and err == ""


def test_unsplitting_many_prefix_loops(capsys, monkeypatch):
    # each period's closure closes one of 200 prefix headers, so the boundary
    # moves 200 periods of 200 instructions before no loop is split
    expr = "2x{;" * 200 + "(}x;" + "a;" * 198 + "a)^w"
    code, out, err = run(capsys, "stats", "-e", expr)
    fields = dict(line.split() for line in out.splitlines())
    assert code == 0 and err == "" and fields["loop_product"] == str(2**200)
    code, out, err = run(capsys, "equiv", "--via=pure", "-e", expr, "-e", expr)
    assert code == 4 and out == "" and "budget exhausted:" in err
    monkeypatch.setattr(pgarl.rigidloops, "UNSPLIT_LENGTH_LIMIT", 30000)
    code, out, err = run(capsys, "stats", "-e", expr)
    assert code == 4 and out == "" and "would exceed 30000 instructions" in err


def test_reset_budget(capsys, monkeypatch):
    # each of the three jumps crosses all three closures: 9 resets
    expr = nested_exits(3)
    monkeypatch.setattr(pgarl.rigidloops, "RESET_LIMIT", 9)
    code, out, err = run(capsys, "annotate", "-e", expr)
    assert (code, err) == (0, "") and out == (
        "(2x{;#9(8,1)(9,1)(10,1);2x{;#7(8,1)(9,1)(10,1);2x{;#5(8,1)(9,1)(10,1);"
        "a;1}x2;1}x5;1}x8;b)^w\n"
    )
    monkeypatch.setattr(pgarl.rigidloops, "RESET_LIMIT", 8)
    for command, *rest in (("annotate",), ("project",), ("extract",), ("stats",),
                           ("simulate", "--replies", "T"), ("equiv", "-e", "(b)^w")):
        code, out, err = run(capsys, command, "-e", expr, *rest)
        assert (code, out) == (4, "") and "9 counter resets, over the limit of 8" in err, command


def test_project_lists_every_reset(capsys):
    # 200 jumps, each resetting all 200 counters: 40000 resets that share 200
    # initializations print exactly as 40000 separately built ones
    code, out, err = run(capsys, "project", "-e", nested_exits(200))
    assert (code, err, len(out)) == (0, "", 579172)
    assert hashlib.sha1(out.encode()).hexdigest() == "6fa4b1fb35a49ec5a3b78e97857aad8e63ab43d6"


def timed(capsys, *argv):
    start = time.perf_counter()
    outcome = run(capsys, *argv)
    return outcome, time.perf_counter() - start


def test_long_jumps_take_no_time(capsys):
    # a jump's distance is read with arithmetic, not stepped through
    (code, out, err), took = timed(capsys, "annotate", "-e", "(2x{;a;}x;#1000000000000)^w")
    assert (code, out, err) == (0, "(2x{;a;1}x1;#1000000000000(3,1))^w\n", "") and took < 2
    (code, out, err), took = timed(capsys, "project", "-e", "#1000000000000;2x{;a;}x;(b)^w")
    assert code == 0 and err == "" and took < 2


def test_many_loops_with_jumps_take_no_time(capsys):
    # each jump finds the closures it crosses by bisection, not by a scan of all 8000
    expr = "(" + ";".join(f"2x{{;+a_{i};#2;b;}}x" for i in range(8000)) + ")^w"
    (code, out, err), took = timed(capsys, "project", "-e", expr)
    assert code == 0 and err == "" and out.count("\nbind rlc:") == 8000 and took < 2


def test_large_loop_count_exhausts_the_product_budget(capsys, monkeypatch):
    # a down counter's states are never listed, so a count of 10^12 only
    # runs into the product's budget
    monkeypatch.setattr(pgarl.services, "PRODUCT_STATE_LIMIT", 1000)
    (code, out, err), took = timed(
        capsys, "equiv", "-e", "(1000000000000x{;a;}x)^w", "-e", "(a)^w"
    )
    assert code == 4 and out == "" and "budget exhausted:" in err and took < 2


def test_equiv_answers_a_difference_met_within_the_budget(capsys, monkeypatch):
    # the two products are compared as they are walked: a pair that differs
    # before either runs out of states answers, and an equal pair still has
    # to walk all of them
    code, out, err = run(capsys, "equiv", "-e", "(b;100000000x{;a;}x)^w", "-e", "(a)^w")
    assert (code, out, err) == (1, "not equivalent\ndiffers: action b vs action a\n", "")
    monkeypatch.setattr(pgarl.services, "PRODUCT_STATE_LIMIT", 1000)
    for program in ("(100000000x{;a;}x)^w", "(100000000x{;a;}x;b)^w"):
        code, out, err = run(capsys, "equiv", "-e", program, "-e", "(a)^w")
        assert (code, out) == (4, "") and "budget exhausted:" in err and "1000 states" in err
    # the budget counts each side's distinct states: 2 and 3 here, in 6 pairs
    monkeypatch.setattr(pgarl.services, "PRODUCT_STATE_LIMIT", 3)
    assert run(capsys, "equiv", "-e", "(2x{;a;}x)^w", "-e", "(3x{;a;}x)^w")[0] == 0
    monkeypatch.setattr(pgarl.services, "PRODUCT_STATE_LIMIT", 2)
    assert run(capsys, "equiv", "-e", "(2x{;a;}x)^w", "-e", "(3x{;a;}x)^w")[0] == 4


def test_bounded_use_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setattr(pgarl.services, "PRODUCT_STATE_LIMIT", 1000)
    argv = ("extract", "-e", "(a;c.inc)^w", "--bind", "c=counter()", "--depth")
    code, out, err = run(capsys, *argv, "10000000")
    assert code == 4 and out == "" and "budget exhausted:" in err and "1000 states" in err
    code, out, err = run(capsys, *argv, "1000")
    assert code == 0 and err == "" and out.splitlines()[-1] == "X1001 = D"


def test_number_too_long_is_a_parse_error(capsys):
    code, out, err = run(capsys, "parse", "-e", "#" + "9" * 5000)
    assert (code, out) == (2, "")
    assert err.strip() == "parse error: number too long at line 1, column 2"


@pytest.mark.parametrize("text", ["#\u00b2", "#\u0663;a"])
def test_only_ascii_digits_are_numbers(capsys, text):
    # superscript two and Arabic-Indic three are digits to str.isdigit()
    code, out, err = run(capsys, "parse", "-e", text)
    assert (code, out) == (2, "")
    assert err == "parse error: expected a number at line 1, column 2\n"


@pytest.mark.parametrize("via", [(), ("--via", "pure")])
def test_equiv_loop_straddling_the_period_boundary(capsys, via):
    # canonicalize rotates the body to (}x;b;2x{;a)^w, whose 2x{ closes in
    # the next period
    code, out, _ = run(capsys, "equiv", *via, "-e", "}x;(b;2x{;a;}x)^w", "-e", "(b;a;a)^w")
    assert code == 0 and out.strip() == "equivalent"
    code, out, _ = run(capsys, "stats", "-e", "}x;(b;2x{;a;}x)^w")
    assert code == 0 and "loop_product 2" in out.splitlines()


NEGATIVE_FIRST = "-b;(-d;c)^w"


@pytest.mark.parametrize(
    "argv",
    [
        ("parse",), ("normalize",), ("annotate",), ("project",), ("extract",),
        ("equiv", "-e", "-b;(-d;c)^w"), ("simulate",), ("stats",),
    ],
)
def test_expr_text_may_start_with_minus(capsys, argv):
    # a program that starts with a negative test reads the same after -e,
    # after --expr, and attached with --expr=
    expected = run(capsys, *argv, f"--expr={NEGATIVE_FIRST}")
    assert "expected one argument" not in expected[2]
    assert run(capsys, *argv, "-e", NEGATIVE_FIRST) == expected
    assert run(capsys, *argv, "--expr", NEGATIVE_FIRST) == expected


def test_closed_stdout_exits_quietly():
    # the read end is closed before the command starts, so its first write
    # to stdout fails
    read_end, write_end = os.pipe()
    os.close(read_end)
    env = dict(os.environ, PYTHONPATH=str(Path(pgarl.__file__).parents[1]))
    try:
        done = subprocess.run(
            [sys.executable, "-m", "pgarl.cli", "parse", "-e", NEGATIVE_FIRST],
            stdout=write_end, stderr=subprocess.PIPE, env=env, timeout=60,
        )
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, b"")


def test_code_lines_tool_exits_quietly_on_a_closed_stdout():
    # as above: the reader is gone before the tool prints its first row
    read_end, write_end = os.pipe()
    os.close(read_end)
    tool = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
    try:
        done = subprocess.run([sys.executable, str(tool)], stdout=write_end,
                              stderr=subprocess.PIPE, timeout=60)
    finally:
        os.close(write_end)
    assert (done.returncode, done.stderr) == (0, b"")



def test_code_lines_tool_prints_the_change_against_a_git_ref():
    root = Path(__file__).resolve().parents[1]
    if shutil.which("git") is None or not (root / ".git").exists():
        pytest.skip("needs a git checkout")
    tool = [sys.executable, str(root / "tools" / "code_lines.py")]
    plain = subprocess.run(tool, capture_output=True, text=True, timeout=60, check=True)
    delta = subprocess.run(tool + ["--base", "HEAD"], capture_output=True, text=True,
                           timeout=60, check=True)
    now = {}
    for line in delta.stdout.splitlines():
        change, new, old, name = line.split()
        assert int(change) == int(new) - int(old)
        now[name] = int(new)
    assert now == {name: int(count) for count, name in map(str.split, plain.stdout.splitlines())}
    assert list(now)[-3:] == ["total", "exports", "tests"]
    bad = subprocess.run(tool + ["--base", "no-such-ref"], capture_output=True, text=True,
                         timeout=60)
    assert bad.returncode == 2 and bad.stderr.startswith("cannot read no-such-ref: ")

_BACK_TO_BACK = (
    ("extract", "-e", "(a;c.inc)^w", "--bind", "c=counter()", "--depth", "3"),
    ("extract", "-e", "(+c.dec;a;b)^w", "--bind", "c=dc(init=1,max=2)"),
    ("extract", "-e", "(2x{;a;}x;b)^w", "--depth", "2", "--format", "json"),
    ("extract", "-e", "(a;c.inc)^w", "--bind", "c=counter()"),
    ("equiv", "-e", "a", "-e", "a"),
    ("equiv", "--via", "pure", "-e", "(2x{;a;}x)^w", "-e", "(b)^w"),
    ("simulate", "-e", "(+c.dec;a;b)^w", "--bind", "c=counter(init=1)", "--replies", "TTT"),
    ("normalize", "-e", "c:.dec"),
    ("extract", "-e", "a;b"),
)


def test_back_to_back_main_calls_print_what_separate_calls_print(capsys):
    # each separate call is a fresh interpreter; the in-process calls share
    # one argument parser, and run in both orders
    env = dict(os.environ, PYTHONPATH=str(Path(pgarl.__file__).parents[1]))
    separate = []
    for argv in _BACK_TO_BACK:
        done = subprocess.run([sys.executable, "-m", "pgarl.cli", *argv], capture_output=True,
                              text=True, env=env, timeout=60)
        separate.append((done.returncode, done.stdout, done.stderr))
    assert {code for code, _, _ in separate} == {0, 1, 2, 3}
    assert [run(capsys, *argv) for argv in _BACK_TO_BACK] == separate
    assert [run(capsys, *argv) for argv in reversed(_BACK_TO_BACK)] == separate[::-1]


DROPPED = "warning: instructions after a repetition are unreachable and were dropped\n"
CLOSURE_AFTER_TEST = ("well-formedness error: error at 3: "
                      "loop closure directly preceded by a test instruction")


def test_dead_code_warning_is_one_line_whatever_the_filters():
    # turned into an error, the warning used to end an equal pair with a
    # traceback and exit code 1
    env = dict(os.environ, PYTHONPATH=str(Path(pgarl.__file__).parents[1]),
               PYTHONWARNINGS="error")
    done = subprocess.run([sys.executable, "-m", "pgarl.cli", "equiv", "-e", "(a)^w;b", "-e",
                           "(a)^w"], capture_output=True, text=True, env=env, timeout=60)
    assert (done.returncode, done.stdout, done.stderr) == (0, "equivalent\n", DROPPED)


def test_dead_code_warning_on_every_call(capsys):
    for _ in range(2):
        assert run(capsys, "extract", "-e", "(a)^w;b") == (0, "root 1\nX1 = X1 <a> X1\n", DROPPED)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run(capsys, "equiv", "-e", "(a)^w;b", "-e", "(a)^w;c") == (0, "equivalent\n",
                                                                          DROPPED)
    assert run(capsys, "extract", "-e", "(2x{;+a;}x)^w;b") == (
        3, "", DROPPED + CLOSURE_AFTER_TEST + "\n")
    assert run(capsys, "parse", "-e", "(a)^w;b")[2] == ""


@pytest.mark.parametrize("argv, message", [
    (("-e", "(2x{;+a;}x)^w", "--bind", "rlc:3=dc(max=1)"), CLOSURE_AFTER_TEST),
    (("--via", "pure", "-e", "(2x{;+a;}x)^w", "--bind", "c=dc(max=1)", "--bind", "c=dc(max=1)"),
     "error: focus c is bound more than once"),
    (("-e", "(2x{;+a;}x)^w", "--bind", "c=dc(max=x)"),
     "bad binding 'c=dc(max=x)': expected a number at line 1, column 10"),
    (("-e", "(2x{;+a;}x)^w", "--bind", "c=counter()"), CLOSURE_AFTER_TEST),
    (("-e", "(2x{;a;}x)^w", "--bind", "rlc:3=counter()"),
     "error: focus rlc:3 is bound more than once"),
])
def test_error_order_when_an_input_has_two_faults(capsys, argv, message):
    # the bindings are read first, the counter projection checks the program
    # before the foci are checked, the pure projection after
    assert run(capsys, "extract", *argv) == (3, "", message + "\n")


def test_missing_depth_is_reported_before_any_silent_step(capsys):
    # the loop counter's silent run would take a million steps and run out
    # of its budget before the program's first action
    assert run(capsys, "extract", "-e", "(1000000000000x{;}x;a)^w", "--bind", "c=counter()") == (
        3, "", "binding a service without a finite enumeration needs --depth\n")


def test_cli_imports_no_private_name_of_another_module_but_two():
    # the binding reader shares the program scanner, and annotate names the
    # form both projections read; everything else goes through the library
    tree = ast.parse(Path(pgarl.cli.__file__).read_text(encoding="utf-8"))
    private = {
        (node.module, alias.name)
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("pgarl"))
        for alias in node.names
        if alias.name.startswith("_")
    }
    assert private == {("parser", "_Scanner"), ("rigidloops", "_unsplit_loops")}


def test_readme_import_block_runs():
    # the README's list of library entry points imports
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    (block,) = re.findall(r"```python\n(from pgarl import \(.*?\))\n```", readme, re.S)
    exec(block, {})


_TOKENS = st.sampled_from(
    ("a", "b", "+a", "-b", "-d.dec", "+d.inc", "!", "#0", "#1", "#2", "#5",
     "2x{", "1x{", "}x", "u(a;#2)", "u(-b;u(a))", "2x{;a;}x", "#1000000000000",
     "1000000000000x{")
)
_MALFORMED = st.sampled_from(("#", "x", "(", ")^w", "0x{", "u()"))
_BINDINGS = st.sampled_from(
    ("d=dc(init=1,max=2)", "d=dc()", "c=counter()", "c=counter(init=2)", "d=counter()",
     "d=counter(init=2)", "rlc:1=dc()", "x=", "=dc()", "d=dc(foo=1)", "d=dc(init=z)",
     "d=dc(init=3,max=1)", "d=spin()", "d=dc(max=\u0663)", "X Y=dc()", "d=dc(max=1,max=2)")
)


@st.composite
def _programs(draw):
    tokens = draw(st.lists(_TOKENS, min_size=0, max_size=8))
    if draw(st.integers(min_value=0, max_value=7)) == 0:
        tokens.insert(draw(st.integers(0, len(tokens))), draw(_MALFORMED))
    cut = draw(st.integers(min_value=0, max_value=len(tokens)))
    head, tail = ";".join(tokens[:cut]), ";".join(tokens[cut:])
    if tail and draw(st.booleans()):
        tail = f"({tail})^w"
    return ";".join(part for part in (head, tail) if part)


@st.composite
def _argvs(draw):
    command = draw(st.sampled_from(
        ("parse", "normalize", "annotate", "project", "extract", "equiv", "simulate", "stats")
    ))
    argv = [command]
    for _ in range(2 if command == "equiv" else 1):
        argv += ["-e", draw(_programs())]
    if draw(st.booleans()):
        argv.append(draw(st.sampled_from(("--format=json", "--format=text"))))
    if command == "project":
        argv.append(draw(st.sampled_from(("--mode=counter", "--mode=pure"))))
    if command in ("extract", "equiv"):
        argv.append(draw(st.sampled_from(("--via=defining", "--via=pure"))))
    if command in ("extract", "simulate"):
        for binding in draw(st.lists(_BINDINGS, max_size=2)):
            argv += ["--bind", binding]
    if command == "extract" and draw(st.booleans()):
        argv += ["--depth", draw(st.integers(min_value=-2, max_value=6).map(str)
                                 | st.just("\u0663"))]
    if command == "simulate":
        argv += ["--replies", draw(st.sampled_from(("", "TF", "110", "TTFx")))]
        argv += ["--max-steps", draw(st.integers(min_value=-1, max_value=20).map(str)
                                     | st.just("\u0663"))]
    return argv


@settings(max_examples=150, deadline=None)
@given(_argvs())
def test_every_argv_gets_an_exit_code(argv):
    # the budgets are small, so a loop count of 10^12 runs into one of them
    # (exit 4) after a few thousand steps
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()), \
            mock.patch.object(pgarl.services, "PRODUCT_STATE_LIMIT", 1000), \
            mock.patch.object(pgarl.services, "SILENT_RUN_LIMIT", 1000), \
            mock.patch.object(pgarl.rigidloops, "PURE_LENGTH_LIMIT", 1000):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse's usage errors
            code = exc.code
    assert code in range(5), argv


# -- --bind texts: one reading of names and numbers ---------------------------

PROBE = "(+c.dec;a;b)^w"


@pytest.mark.parametrize(
    "binding",
    ["c=dc(init=\u0661,max=\u0663)", "X Y=dc(max=1)", "c.d=dc()", "c=dc(max=1,max=2)",
     "c=dc(max=x)", "c=dc(max=" + "9" * 5000 + ")", "c=dc(init=3,max=1)", "c=spin()",
     "c=counter(max=1)", "c=dc(init=1", "c=dc(init=1)x", "c=dc(init=1,)", "c=dc(init=+1)",
     "c=dc(init=1 max=2)", "c=counter()x"],
)
def test_malformed_binding_is_one_error(capsys, binding):
    code, out, err = run(capsys, "extract", "-e", PROBE, "--bind", binding)
    assert (code, out) == (3, "") and err.startswith(f"bad binding {binding!r}: ")


@pytest.mark.parametrize(
    "binding, expected",
    [
        ("c:1=dc(init=1,max=1)", ("c:1", DownCounter(1, 1))),
        ("c = dc( max = 2 )", ("c", DownCounter(0, 2))),
        (" c = dc ( init = 1 , max = 2 ) ", ("c", DownCounter(1, 2))),
        ("c=counter()", ("c", FullCounter(0))),
        ("c=counter(init=4)", ("c", FullCounter(4))),
    ],
)
def test_valid_bindings(capsys, binding, expected):
    assert _parse_binding(binding) == expected
    code, out, err = run(capsys, "extract", "-e", "(+c:1.dec;a;b)^w", "--bind", binding,
                         "--depth", "2")
    assert code == 0 and err == ""


def _pi_text(n, spec):
    return pgarl.format_spec(pgarl.pi(n, spec, spec.root)) + "\n"


def test_extract_depth_cuts_without_bindings(capsys):
    program = "(2x{;a;}x;b)^w"
    code, out, _ = run(capsys, "extract", "-e", program, "--depth", "2")
    assert code == 0 and out.splitlines() == ["root 1", "X1 = X2 <a> X2", "X2 = X3 <a> X3",
                                              "X3 = D"]
    assert out == _pi_text(2, pgarl.defining_thread(pgarl.parse_canonical(program)))
    code, out, _ = run(capsys, "extract", "-e", "a;b", "--depth", "0")
    assert (code, out) == (0, "root 1\nX1 = D\n")


def test_extract_depth_cuts_with_finite_bindings_only(capsys):
    code, out, _ = run(capsys, "extract", "-e", PROBE, "--bind", "c=dc(init=1,max=2)",
                       "--depth", "3")
    assert code == 0 and out.splitlines() == [
        "root 1", "X1 = X2 <a> X2", "X2 = X3 <b> X3", "X3 = X4 <b> X4", "X4 = D"
    ]
    spec = pgarl.extract_pgau(pgarl.parse_canonical(PROBE))
    assert out == _pi_text(3, pgarl.apply_use(spec, [("c", DownCounter(1, 2))]))


# -- extract --depth and equiv against the tree cut and built products ---------

def _corpus_texts():
    return [pgarl.format_program(program) for program in soundness_corpus()]


def _outcome(build):
    """What ``main`` returns for the outcome of ``build()``, an exit code
    and a text, or for the budget it runs out of."""
    try:
        code, text = build()
    except BudgetExceeded as exc:
        return 4, "", f"budget exhausted: {exc}\n"
    return code, text + "\n", ""


def _product_first(text, binds):
    """The extracted thread of ``text`` with its finite bindings applied as
    one numbered spec, and the unbounded bindings still to apply."""
    projected = project(pgarl.parse_canonical(text), "defining", map(_parse_binding, binds))
    spec = pgarl.extract_pgau(projected.program)
    finite = [(focus, svc) for focus, svc in projected.bindings if svc.finite]
    unbounded = [(focus, svc) for focus, svc in projected.bindings if not svc.finite]
    return (pgarl.apply_use(spec, finite) if finite else spec), unbounded


def _tree_then_number(text, binds, depth):
    """extract --depth by the tree oracle: build the depth-cut tree of the
    use operator, then number it."""
    tree = tree_apply_use_bounded(*_product_first(text, binds), depth)
    return 0, pgarl.format_spec(number(tree))


def test_extract_depth_matches_tree_then_number_on_corpus(capsys, monkeypatch):
    # c and d become counter actions; a short silent run limit stops the
    # programs that only count
    monkeypatch.setattr(pgarl.services, "SILENT_RUN_LIMIT", 200)
    codes = set()
    for i, text in enumerate(_corpus_texts()):
        text = re.sub(r"\bd\b", "d.dec", re.sub(r"\bc\b", "c.inc", text))
        binds = (["c=counter()"], ["c=counter(init=2)", "d=dc(init=1,max=2)"])[i % 2]
        for depth in (i % 41, 40 - i % 41):
            outcome = run(capsys, "extract", "-e", text, "--depth", str(depth),
                          *(arg for bind in binds for arg in ("--bind", bind)))
            assert outcome == _outcome(lambda: _tree_then_number(text, binds, depth))
            codes.add(outcome[0])
    assert codes == {0, 4}


def test_extract_depth_steps_only_the_product_states_within_the_cut(capsys):
    # the finite product has two million states, more than its budget; the
    # cut at depth 3 meets four of them
    code, out, err = run(capsys, "extract", "-e", "(+d.dec;a;b)^w",
                         "--bind", "d=dc(init=1000000,max=1000000)", "--depth", "3")
    assert (code, err) == (0, "")
    assert out.splitlines() == ["root 1", "X1 = X2 <a> X2", "X2 = X3 <b> X3",
                                "X3 = X4 <a> X4", "X4 = D"]


def test_a_down_counter_costs_nothing_until_the_product_reaches_its_values(capsys):
    # 10^12 + 1 states, next to a loop counter in the same code: neither
    # is listed, so the cut is as quick as for a limit of 3
    for text in ("(+d.dec;a;b)^w", "(2x{;+d.dec;a;}x;b)^w"):
        start = time.perf_counter()
        code, out, err = run(capsys, "extract", "-e", text, "--depth", "3",
                             "--bind", "d=dc(init=1000000000000,max=1000000000000)")
        assert time.perf_counter() - start < 1
        small = run(capsys, "extract", "-e", text, "--depth", "3", "--bind", "d=dc(init=3,max=3)")
        assert (code, out, err) == small and code == 0 and len(out.splitlines()) == 5


def _build_then_compare(threads):
    """equiv by its definition: build both products, then distinguish
    them. ``threads`` holds each program's extracted thread and the
    bindings still to apply to it."""
    witness = pgarl.distinguish(
        *(pgarl.apply_use(spec, bindings) if bindings else spec for spec, bindings in threads)
    )
    return (0, "equivalent") if witness is None else (1, f"not equivalent\n{witness}")


def test_equiv_matches_build_then_compare_on_corpus(capsys, monkeypatch):
    # with a product budget of 8 states an unequal pair may now answer where
    # the built products ran out; an equal pair runs out as it did. The pure
    # projection has no product, so it has no budget to run out of.
    texts = _corpus_texts()
    projected = {}
    for i, text in enumerate(texts):
        for via in ("defining", "pure"):
            p = project(pgarl.parse_canonical(text), via)
            projected[i, via] = (pgarl.extract_pgau(p.program), p.bindings)
    answered = 0
    for i, text in enumerate(texts):
        for via, j in (("pure", i - 1), ("defining", i - 1), ("defining", i)):
            argv = ("equiv", "--via", via, "-e", text, "-e", texts[j])
            pair = (projected[i, via], projected[j % len(texts), via])
            full = _outcome(lambda: _build_then_compare(pair))
            assert run(capsys, *argv) == full
            if via == "pure":
                continue
            with monkeypatch.context() as patched:
                patched.setattr(pgarl.services, "PRODUCT_STATE_LIMIT", 8)
                built = _outcome(lambda: _build_then_compare(pair))
                lazy = run(capsys, *argv)
            if built[0] == 4 and lazy[0] == 1:  # a difference met within the budget
                assert lazy == full
                answered += 1
            else:
                assert lazy == built
    assert answered > 0


def test_annotate_names_the_form_of_a_straddling_body(capsys):
    code, out, err = run(capsys, "annotate", "-e", "(}x;b;2x{;a)^w")
    assert (code, out) == (3, "")
    assert err == ("annotate expects a repetition-free or fully repeating program; "
                   "this one reads as }x;(b;2x{;a;}x)^w\n")
