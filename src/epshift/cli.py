"""Command-line surface: parse, evaluate, classify, map and verify.

One command per invocation, JSON on stdout.  Commands:

* ``eval <element> * <element> ...``       product in the generated context
* ``closure{ <set>; ... }``                smallest closed family
* ``classify family{ ... } | closure{ ... }``  structure report
* ``green <a> <b> <R|L|H|D|J>``            Green relation query
* ``order <a> <b>``                        natural partial order query
* ``map <name> <element>``                 apply a named morphism
* ``check-hom <name>``                     verify one morphism suite
* ``oracle-check``                         same as ``selftest oracle``
* ``selftest [<suite>]``                   run the verification suites

Flags go anywhere on the line, as ``--flag N`` or ``--flag=N``:

* ``--seed N``          seed for the sampled suites (default 7)
* ``--samples N``       sample count per sampled suite (default 10000)
* ``--max-family N``    closure member cap for the input (default 4096)
* ``--pretty``          indent the JSON output
* ``-h``, ``--help``    print this text

A value that is not an integer, ``--max-family`` below 1 or ``--samples``
below 0 is an ``invalid_value`` error.

Exit codes:

* ``0``  ok
* ``1``  domain error, invalid value, or exhausted memory or recursion
* ``2``  syntax error
* ``3``  self-test failure
* ``4``  internal error: an exception that is a bug in epshift, answered
  as ``internal_error`` JSON without a traceback
"""

from __future__ import annotations

import json
import sys
from collections import namedtuple

from . import grammar
from .core import SemigroupCtx, green, green_witness
from .core import natural_leq as _natural_leq
from .errors import DomainError, ParseError
from .family import (DEFAULT_CLOSURE_CAP, DEFAULT_SAMPLES, DEFAULT_SEED,
                     Family, close)
from .omega_sets import EMPTY

# Each command imports the heavier modules it runs (``classify``,
# ``morphisms``, ``selftest``) itself, so a process pays only for its own.

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_SYNTAX = 2
EXIT_SELFTEST = 3
EXIT_INTERNAL = 4


RunOptions = namedtuple(
    "RunOptions", "seed samples max_family pretty",
    defaults=(DEFAULT_SEED, DEFAULT_SAMPLES, DEFAULT_CLOSURE_CAP, False))

# the integer flags and the RunOptions field each one sets
_INT_FLAGS = {"--seed": "seed", "--samples": "samples",
              "--max-family": "max_family"}

_USAGE = ("usage: epshift [--seed N] [--samples N] [--max-family N] "
         "[--pretty] <command>")


def _suite_options(opts: RunOptions):
    from .selftest import SuiteOptions

    return SuiteOptions(samples=opts.samples, seed=opts.seed)


def _run_eval(cmd, opts: RunOptions):
    factors = cmd.factors
    gens = [f.fset for f in factors if not f.is_zero]
    if any(f.is_zero for f in factors) or not gens:
        gens.append(EMPTY)
    ctx = SemigroupCtx(close(gens, cap=opts.max_family))
    return {"result": str(ctx.mul_all(*factors))}


def _run_closure(cmd, opts: RunOptions):
    fam = close(cmd.sets, cap=opts.max_family)
    return {"result": {
        "members": [str(f) for f in fam.members],
        "size": len(fam),
        "has_empty": fam.has_empty,
    }}


def _run_classify(cmd, opts: RunOptions):
    from .classify import classify

    if cmd.kind == "closure":
        fam = close(cmd.sets, cap=opts.max_family)
    else:
        fam = Family(cmd.sets)  # raises NotOmegaClosed with a witness
    report = classify(SemigroupCtx(fam))
    return {"result": report.as_dict()}


def _run_green(cmd, opts: RunOptions):
    related = green(cmd.a, cmd.b, cmd.rel)
    out = {"result": related}
    if related and cmd.rel in ("R", "L", "D"):
        x, y = green_witness(cmd.a, cmd.b, cmd.rel)
        out["witness"] = [str(x), str(y)]
    return out


def _run_order(cmd, opts: RunOptions):
    return {"result": _natural_leq(cmd.a, cmd.b)}


def _run_map(cmd, opts: RunOptions):
    from .morphisms import (progression_reindex, sigma_hom, to_brandt,
                            to_ext_bicyclic, to_matrix_units)

    a = cmd.element
    if cmd.name == "brandt":
        # the ambient family is the symbolic singleton one; nothing to close
        return {"result": str(to_brandt(a))}
    if cmd.name == "reindex":
        old_start, new_start, step = cmd.args
        return {"result": str(progression_reindex(a, old_start, new_start,
                                                  step))}
    ctx = SemigroupCtx(close([EMPTY if a.is_zero else a.fset],
                             cap=opts.max_family))
    if cmd.name == "sigma":
        return {"result": sigma_hom(a, ctx)}
    if cmd.name == "ext-bicyclic":
        return {"result": str(to_ext_bicyclic(ctx, a))}
    return {"result": str(to_matrix_units(ctx, a))}


def _suite_payload(results):
    return {"passed": all(r.passed for r in results),
            "suites": [r.as_dict() for r in results]}


def _run_check_hom(cmd, opts: RunOptions):
    from .selftest import run_check_hom

    res = run_check_hom(cmd.name, _suite_options(opts))
    return {"result": _suite_payload([res])}


def _run_selftest(cmd, opts: RunOptions):
    from .selftest import SUITES, run_suite

    sopts = _suite_options(opts)
    names = SUITES if cmd.suite is None else [cmd.suite]
    results = [run_suite(name, sopts) for name in names]
    return {"result": _suite_payload(results)}


_RUNNERS = {
    grammar.EvalCmd: _run_eval,
    grammar.ClosureCmd: _run_closure,
    grammar.ClassifyCmd: _run_classify,
    grammar.GreenCmd: _run_green,
    grammar.OrderCmd: _run_order,
    grammar.MapCmd: _run_map,
    grammar.CheckHomCmd: _run_check_hom,
    grammar.SelfTestCmd: _run_selftest,
}


def _check_options(opts: RunOptions):
    for flag, field in _INT_FLAGS.items():
        value = getattr(opts, field)
        if not isinstance(value, int):
            raise ValueError(f"{flag} expects an integer, got {value!r}")
    if opts.max_family < 1:
        raise ValueError(
            f"--max-family must be at least 1, got {opts.max_family}")
    if opts.samples < 0:
        raise ValueError(f"--samples must be at least 0, got {opts.samples}")


def run_with_code(cmd, opts: RunOptions = None):
    """The JSON and exit code of running ``cmd``, a parsed command or the
    command's text.

    Text is parsed inside the same handler, so an error while parsing gets
    the same answer as one while running: memory exhausted while the
    grammar builds a set is ``resource_limit``, as it is in ``close()``.
    """
    opts = opts or RunOptions()
    try:
        if isinstance(cmd, str):
            cmd = grammar.parse_command(cmd)
        _check_options(opts)
        payload = _RUNNERS[type(cmd)](cmd, opts)
        code = EXIT_OK
        if "result" in payload and isinstance(payload["result"], dict) \
                and payload["result"].get("passed") is False:
            code = EXIT_SELFTEST
    except ParseError as exc:
        payload = {"error": {"code": "syntax_error", "message": exc.message,
                             "line": exc.line, "col": exc.col,
                             "expected": list(exc.expected)}}
        code = EXIT_SYNTAX
    except DomainError as exc:
        payload = {"error": {"code": exc.code, "message": str(exc),
                             **exc.details}}
        code = EXIT_DOMAIN
    except ValueError as exc:
        payload = {"error": {"code": "invalid_value", "message": str(exc)}}
        code = EXIT_DOMAIN
    except (MemoryError, RecursionError) as exc:
        payload = {"error": {"code": "resource_limit",
                             "message": str(exc) or "out of memory"}}
        code = EXIT_DOMAIN
    return _dump(payload, opts), code


def _dump(payload, opts: RunOptions) -> str:
    if opts.pretty:
        return json.dumps(payload, indent=2, sort_keys=True)
    return json.dumps(payload, separators=(",", ":"), sort_keys=True)


def _parse_argv(argv):
    """Split argv into :class:`RunOptions` and the command's words.

    An integer flag with no value after it is left as a command word.  A
    value that is not an integer is kept as text, for
    :func:`_check_options` to report with the out-of-range values.
    """
    values, words = {}, []
    i = 0
    while i < len(argv):
        arg = argv[i]
        flag, eq, value = arg.partition("=")
        if flag in _INT_FLAGS and (eq or i + 1 < len(argv)):
            if not eq:
                i += 1
                value = argv[i]
            try:
                value = int(value)
            except ValueError:
                pass
            values[_INT_FLAGS[flag]] = value
        elif arg == "--pretty":
            values["pretty"] = True
        else:
            words.append(arg)
        i += 1
    return RunOptions(**values), words


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    if "-h" in argv or "--help" in argv:
        print(__doc__ or _USAGE)
        return EXIT_OK
    opts, words = _parse_argv(argv)
    text = " ".join(words).strip()
    if not text:
        print(_USAGE, file=sys.stderr)
        return EXIT_SYNTAX
    out, code = run_with_code(text, opts)
    print(out)
    return code


def _process_main() -> int:
    """:func:`main` for a process: if the reader closes stdout, exit 1 with
    no traceback; any other exception that escapes is a bug, answered with
    ``internal_error`` JSON and :data:`EXIT_INTERNAL`."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        import os  # loaded at interpreter start, so this binds a name only

        # stdout goes to devnull, so the flush at exit cannot raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        return 1
    except Exception as exc:
        # compact whatever the flags say: reading them may be what failed
        print(_dump({"error": {"code": "internal_error",
                               "message": f"{type(exc).__name__}: {exc}"}},
                    RunOptions()))
        return EXIT_INTERNAL
    return code


def console_main():  # pragma: no cover - thin wrapper
    raise SystemExit(_process_main())


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(_process_main())
