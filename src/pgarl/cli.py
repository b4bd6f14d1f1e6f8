"""Command-line surface.

Exit codes: 0 success (or: equivalent), 1 not equivalent, 2 parse error,
3 well-formedness error, 4 internal budget exhaustion. A reader that closes
standard output early (``| head -1``) ends the command quietly with 0, and a
program with code after its repetition gets one ``warning:`` line on
standard error, whatever Python's warning filters say.

``project`` prints :func:`pgarl.rigidloops.project`'s program (``--mode
counter`` is the defining projection) and, for the counter projection, its
bindings. ``extract``, ``equiv`` and ``simulate`` reach a program's
behaviour through the library's one path: that projection, then
:func:`pgarl.services.bound_states`, numbered with
:func:`pgarl.threads.explore` or compared with
:func:`pgarl.threads.first_difference`, or walked one scripted reply at a
time by :func:`pgarl.services.simulate`; this module only reads the
arguments and prints.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
import warnings

from .parser import ParseError, _Scanner, parse_program
from .program import (
    ProgramError,
    RawProgram,
    canonicalize,
    format_instruction,
    format_program,
    format_sequence,
)
from .rigidloops import (
    WellFormednessError,
    _unsplit_loops,
    annotate,
    project,
    require_well_formed,
    size_report,
)
from .services import (
    BudgetExceeded,
    DownCounter,
    FullCounter,
    Service,
    ServiceError,
    bound_states,
    simulate,
)
from .threads import (
    FOCUS,
    NAME,
    NAT,
    LinearSpec,
    ReplyScript,
    SpecError,
    explore,
    first_difference,
    format_spec,
)

EXIT_OK = 0
EXIT_NOT_EQUIVALENT = 1
EXIT_PARSE_ERROR = 2
EXIT_ILL_FORMED = 3
EXIT_BUDGET = 4


class _CliError(Exception):
    def __init__(self, message: str, code: int):
        super().__init__(message)
        self.code = code


_SERVICES = {"dc": (DownCounter, ("init", "max")), "counter": (FullCounter, ("init",))}


def _parse_binding(text: str) -> tuple[str, Service]:
    """Read ``FOCUS=KIND(FIELD=N,...)`` with the scanner that reads programs,
    so a focus, a name and a number are what they are in program text. Each
    of the kind's fields may appear at most once and is 0 when left out."""
    sc = _Scanner(text)
    try:
        focus = sc.prefix(FOCUS, "a focus")
        if NAT.match(text, focus.end()):  # only a leading zero ends a focus before a digit
            raise sc.error("a focus number has no leading zeros", focus.start())
        sc.expect("=")
        kind = sc.prefix(NAME, "an identifier")
        if kind[0] not in _SERVICES:
            raise sc.error("expected 'dc' or 'counter'", kind.start())
        make, names = _SERVICES[kind[0]]
        values: dict[str, int] = {}
        sc.expect("(")
        while sc.token and not sc.token.startswith(")"):
            if values:
                sc.expect(",")
            name = sc.prefix(NAME, "an identifier")
            if name[0] not in names or name[0] in values:
                raise sc.error(f"{kind[0]}() takes {', '.join(names)}, once each", name.start())
            sc.expect("=")
            values[name[0]] = sc.nat()
        sc.expect(")")
        if sc.token:
            raise sc.error("unexpected input after ')'")
        return focus[0], make(*(values.get(name, 0) for name in names))
    except ValueError as exc:  # a ParseError, or a value the service rejects
        raise _CliError(f"bad binding {text!r}: {exc}", EXIT_ILL_FORMED) from None


def _number(text: str) -> int:
    """An integer option: ASCII digits with an optional leading ``-``, so
    that a negative value reaches the library's natural-number check."""
    try:
        if NAT.fullmatch(text.removeprefix("-")):
            return int(text)
    except ValueError:  # past the interpreter's limit on integer digits
        raise argparse.ArgumentTypeError("number too long") from None
    raise argparse.ArgumentTypeError(f"expected ASCII digits, got {text!r}")


def _load_programs(args, expected: int) -> list[RawProgram]:
    sources = list(args.expr or [])
    for path in args.inputs or []:
        try:
            with open(path, "r", encoding="utf-8") as handle:
                sources.append(handle.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise _CliError(f"cannot read {path}: {exc}", EXIT_PARSE_ERROR) from None
    if len(sources) != expected:
        raise _CliError(
            f"expected {expected} program(s), got {len(sources)}; pass -e TEXT or file paths",
            EXIT_PARSE_ERROR,
        )
    return [parse_program(text) for text in sources]


def _spec_json(spec: LinearSpec) -> dict:
    equations = []
    for i, line in enumerate(format_spec(spec).splitlines()[1:], 1):
        equations.append({"index": i, "text": line})
    return {"root": spec.root, "equations": equations}


def _emit(args, text: str, payload: dict) -> None:
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        print(text)


def _bindings(args) -> list[tuple[str, Service]]:
    """The ``--bind`` services, read before the program is projected."""
    return [_parse_binding(text) for text in args.bind or []]


def _cmd_parse(args) -> int:
    (raw,) = _load_programs(args, 1)
    lines = []
    parts_payload = []
    for number, part in enumerate(raw.parts, 1):
        texts = [format_instruction(i) for i in part.instructions]
        lines.append(f"part {number} repeated" if part.repeated else f"part {number}")
        lines += [f"  {pos} {text}" for pos, text in enumerate(texts, 1)]
        parts_payload.append({"repeated": part.repeated, "instructions": texts})
    _emit(args, "\n".join(lines), {"parts": parts_payload})
    return EXIT_OK


def _cmd_normalize(args) -> int:
    (raw,) = _load_programs(args, 1)
    text = format_program(canonicalize(raw))
    _emit(args, text, {"program": text})
    return EXIT_OK


def _cmd_annotate(args) -> int:
    (raw,) = _load_programs(args, 1)
    program = canonicalize(raw)
    require_well_formed(program)
    form = program if program.prefix else _unsplit_loops(program)
    if form.body and form.prefix:  # written so, or a loop straddles the period
        moved = "" if form is program else f"; this one reads as {format_program(form)}"
        raise _CliError("annotate expects a repetition-free or fully repeating program" + moved,
                        EXIT_ILL_FORMED)
    if program.body:
        text = f"({format_sequence(annotate(program.body, cyclic=True))})^w"
    else:
        text = format_sequence(annotate(program.prefix, cyclic=False))
    _emit(args, text, {"program": text})
    return EXIT_OK


def _cmd_project(args) -> int:
    (raw,) = _load_programs(args, 1)
    projected = project(canonicalize(raw), "pure" if args.mode == "pure" else "defining")
    text = format_program(projected.program)
    if args.mode == "pure":
        _emit(args, text, {"program": text})
        return EXIT_OK
    bind_lines = [  # the loop counters are down counters
        f"{focus}=dc(init={svc.initial},max={svc.limit})" for focus, svc in projected.bindings
    ]
    _emit(args, "\n".join([text] + [f"bind {b}" for b in bind_lines]),
          {"program": text, "bindings": bind_lines})
    return EXIT_OK


def _cmd_extract(args) -> int:
    (raw,) = _load_programs(args, 1)
    projected = project(canonicalize(raw), args.via, _bindings(args))
    if args.depth is None and not all(svc.finite for _, svc in projected.bindings):
        raise _CliError("binding a service without a finite enumeration needs --depth",
                        EXIT_ILL_FORMED)
    spec = explore(*bound_states(projected, args.depth))
    text = format_spec(spec)
    _emit(args, text, _spec_json(spec))
    return EXIT_OK


def _cmd_equiv(args) -> int:
    # compared as they are walked: neither is built, and a difference ends the walk
    spaces = [bound_states(project(canonicalize(raw), args.via)) for raw in _load_programs(args, 2)]
    witness = first_difference(*spaces, deadlock_below=False)
    if witness is None:
        _emit(args, "equivalent", {"equivalent": True})
        return EXIT_OK
    _emit(
        args,
        "not equivalent\n" + str(witness),
        {"equivalent": False, "witness": str(witness).splitlines()},
    )
    return EXIT_NOT_EQUIVALENT


def _cmd_simulate(args) -> int:
    (raw,) = _load_programs(args, 1)
    projected = project(canonicalize(raw), bindings=_bindings(args))
    script = ReplyScript.from_text(args.replies or "")
    trace = simulate(projected, script, args.max_steps)
    _emit(
        args,
        str(trace),
        {
            "steps": [[str(action), reply] for action, reply in trace.steps],
            "status": trace.status,
        },
    )
    return EXIT_OK


def _cmd_stats(args) -> int:
    (raw,) = _load_programs(args, 1)
    fields = dataclasses.asdict(size_report(canonicalize(raw)))
    _emit(args, "\n".join(f"{k} {v}" for k, v in fields.items()), fields)
    return EXIT_OK


def _add_program_args(sub) -> None:
    sub.add_argument("inputs", nargs="*", help="program file(s)")
    sub.add_argument("-e", "--expr", action="append", help="inline program text")
    sub.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="pgarl",
        description="Instruction-sequence workbench: canonical forms, thread "
        "extraction, counter services, and rigid-loop projections.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="dump the parsed instruction sequence")
    _add_program_args(p)
    p.set_defaults(handler=_cmd_parse)

    p = sub.add_parser("normalize", help="print the first canonical form")
    _add_program_args(p)
    p.set_defaults(handler=_cmd_normalize)

    p = sub.add_parser("annotate", help="annotate loop closures and exiting jumps")
    _add_program_args(p)
    p.set_defaults(handler=_cmd_annotate)

    p = sub.add_parser("project", help="project rigid loops away")
    _add_program_args(p)
    p.add_argument("--mode", choices=("counter", "pure"), default="counter")
    p.set_defaults(handler=_cmd_project)

    p = sub.add_parser("extract", help="print the extracted thread")
    _add_program_args(p)
    p.add_argument("--via", choices=("defining", "pure"), default="defining")
    p.add_argument("--bind", action="append", help="focus=dc(init=0,max=3) or focus=counter()")
    p.add_argument("--depth", type=_number, default=None,
                   help="cut the thread at this visible depth (needed for an unbounded service)")
    p.set_defaults(handler=_cmd_extract)

    p = sub.add_parser("equiv", help="decide behavioral equivalence of two programs")
    _add_program_args(p)
    p.add_argument("--via", choices=("defining", "pure"), default="defining")
    p.set_defaults(handler=_cmd_equiv)

    p = sub.add_parser("simulate", help="run a program against scripted replies")
    _add_program_args(p)
    p.add_argument("--bind", action="append", help="focus=dc(init=0,max=3) or focus=counter()")
    p.add_argument("--replies", default="", help="reply script, e.g. TTF or 110")
    p.add_argument("--max-steps", type=_number, default=1000)
    p.set_defaults(handler=_cmd_simulate)

    p = sub.add_parser("stats", help="compare projection sizes")
    _add_program_args(p)
    p.set_defaults(handler=_cmd_stats)

    return parser


def _attach_expr(argv: list[str]) -> list[str]:
    """``-e TEXT`` and ``--expr TEXT`` as ``--expr=TEXT``, so that TEXT may
    start with ``-`` (a negative test) without argparse taking it for an
    option. Arguments after ``--`` stay as they are."""
    out: list[str] = []
    rest = iter(argv)
    for arg in rest:
        if arg == "--":
            return out + [arg, *rest]
        if arg in ("-e", "--expr"):
            text = next(rest, None)
            arg = arg if text is None else f"--expr={text}"
        out.append(arg)
    return out


_parser = None  # built on the first call of main, so that importing the module stays cheap


def main(argv=None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(_attach_expr(sys.argv[1:] if argv is None else argv))
    try:
        # whatever the filters say, a warning is one line, once per run and place
        with warnings.catch_warnings():
            warnings.simplefilter("default")
            warnings.showwarning = lambda message, *_: print(f"warning: {message}", file=sys.stderr)
            code = args.handler(args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:
        # the reader took what it wanted; later writes and the flush at exit
        # go to the null device, so no traceback follows
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_OK
    except _CliError as exc:
        print(str(exc), file=sys.stderr)
        return exc.code
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_PARSE_ERROR
    except WellFormednessError as exc:
        print(f"well-formedness error: {exc}", file=sys.stderr)
        return EXIT_ILL_FORMED
    except (ProgramError, ServiceError, SpecError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ILL_FORMED
    except BudgetExceeded as exc:
        print(f"budget exhausted: {exc}", file=sys.stderr)
        return EXIT_BUDGET


if __name__ == "__main__":
    raise SystemExit(main())
