"""Command line frontend.

Subcommands: verify, enumerate, dissect, frieze, decompose, farey.
Exit codes: 0 success, 1 domain negative (e.g. not a solution),
2 usage error, 3 budget exceeded, 141 stdout closed before the output
was written (128 + SIGPIPE, as a shell reports a program that SIGPIPE
ended), without a traceback.  The QUIDDITY_BUDGET environment variable
raises the enumeration ceilings globally.  Each call builds the top-level
parser and only the parser of the subcommand that runs (``_Subcommand``).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from typing import Callable, Iterable, Optional, Sequence

from . import dissection as dmod
from . import limits, psl2, search, sturm
from .frieze import (
    _is_totally_positive,
    check_glide,
    check_tame,
    farey_quiddity,
    frieze as build_frieze,
    render_text,
)
from .matrices import Mat2, Word, word_product
from .surgery import NotASolutionError, SolutionClass, classify, reduce_word, solution_class

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_CLOSED_STDOUT = 141


def _parse_word(text: str) -> Word:
    """The comma-separated integers of ``text``; each subcommand checks
    the entries with ``check_word`` before it uses them."""
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"cannot parse word {text!r}; expected comma-separated integers")


def _emit(args, payload: dict, text_lines: Callable[[], Iterable[str]]) -> None:
    """Print the payload as JSON, or the text lines, which are only
    formatted when text is asked for."""
    if args.format == "json":
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in text_lines():
            print(line)


def cmd_verify(args) -> int:
    word = _parse_word(args.word)
    cls, cert = classify(word)
    if cls is SolutionClass.NOT_A_SOLUTION:
        _emit(args, {"word": list(word), "class": "none"},
              lambda: [f"{word}: not a solution (trace {word_product(word).trace()})"])
        return EXIT_DOMAIN
    n = len(word)
    s_count, r_count = cert.type1_count, cert.type2_count
    total = sum(word)
    expected = search.sum_bound(cls, n) - 6 * r_count
    bound = search.entry_bound(cls, n)
    index = sturm._rotation_index(word, cls)
    payload = {
        "word": list(word),
        "class": cls.value,
        "trace": word_product(word).trace(),
        "S": s_count,
        "R": r_count,
        "sum": total,
        "sum_expected": expected,
        "max_entry_bound": bound,
        "index_twice": int(index * 2),
    }
    _emit(args, payload, lambda: [
        f"word {','.join(map(str, word))}",
        f"class: Problem {cls.value}",
        f"trace: {payload['trace']}",
        f"S = {s_count}, R = {r_count}",
        f"sum = {total} (expected {expected}): {'ok' if total == expected else 'MISMATCH'}",
        f"max entry {max(word)} <= bound {bound}: {'ok' if max(word) <= bound else 'MISMATCH'}",
        f"rotation index: {index}",
    ])
    return EXIT_OK


def cmd_enumerate(args) -> int:
    problem = search._as_problem(args.problem)
    budget = args.budget
    if args.engine in ("gen", "both"):
        gen = search.generative_enumerate(problem, args.n, budget=budget)
    if args.engine in ("brute", "both"):
        brute = search.brute_force_enumerate(problem, args.n, budget=budget)
    if args.engine == "both":
        if gen.words != brute.words:
            _emit(args, {"error": "engine mismatch"}, lambda: ["engine mismatch: brute != generative"])
            return EXIT_DOMAIN
        result = gen
    else:
        result = gen if args.engine == "gen" else brute
    if args.orbits != "none":
        shown: Sequence[Word] = search.orbit_representatives(result, args.orbits)
    else:
        shown = result.words
    if args.count:
        _emit(args, {"problem": problem.value, "n": args.n, "count": len(shown)},
              lambda: [str(len(shown))])
    else:
        _emit(args, {"problem": problem.value, "n": args.n,
                     "words": [list(w) for w in shown]},
              lambda: (",".join(map(str, w)) for w in shown))
    return EXIT_OK


def _render_dissection(args, d) -> tuple[dict, Callable[[], list[str]]]:
    if args.render == "dot":
        return d.to_json(), lambda: [dmod.to_dot(d)]
    if args.render == "svg":
        return d.to_json(), lambda: [dmod.to_svg(d)]
    doc = d.to_json()
    doc["faces"] = [list(f) for f in dmod.faces(d)]
    doc["quiddity"] = list(dmod.quiddity(d))
    return doc, lambda: [json.dumps(doc, sort_keys=True)]


def cmd_dissect(args) -> int:
    if args.all and args.render != "json":
        raise ValueError(f"--render {args.render} draws one dissection; --all lists them as JSON")
    word = _parse_word(args.word)
    cls, cert = classify(word)
    if cls is SolutionClass.NOT_A_SOLUTION:
        _emit(args, {"word": list(word), "class": "none"}, lambda: [f"{word}: not a solution"])
        return EXIT_DOMAIN
    if args.all:
        if cls is SolutionClass.PROBLEM_III:
            found = dmod._symmetric_dissections(word, args.budget)
        else:
            found = dmod.dissections_with_quiddity(word, budget=args.budget)
        docs = [d.to_json() for d in found]
        _emit(args, {"word": list(word), "dissections": docs},
              lambda: (json.dumps(doc, sort_keys=True) for doc in docs))
        return EXIT_OK
    _emit(args, *_render_dissection(args, dmod.from_certificate(cert)))
    return EXIT_OK


def cmd_frieze(args) -> int:
    word = _parse_word(args.word)
    try:
        f = build_frieze(word, r_max=args.rows)
    except NotASolutionError:
        cls = solution_class(word)
        reason = ("not a solution" if cls is SolutionClass.NOT_A_SOLUTION else
                  "a Problem I solution; friezes are built from Problem II or III solutions")
        _emit(args, {"word": list(word), "class": cls.value}, lambda: [f"{word}: {reason}"])
        return EXIT_DOMAIN
    tame = check_tame(f)
    diagnostics = {"tame": tame}
    if args.rows is None and f.r_max == 2 * f.n - 2:
        diagnostics["glide"] = check_glide(f)
    doc = f.to_json()
    doc.update(diagnostics)

    def lines():
        yield render_text(f)
        yield f"tame: {tame}"
        if "glide" in diagnostics:
            yield f"glide symmetric: {diagnostics['glide']}"

    _emit(args, doc, lines)
    return EXIT_OK


def cmd_decompose(args) -> int:
    try:
        a, b, c, d = (int(x) for x in args.matrix.split(","))
    except ValueError:
        raise ValueError(f"cannot parse matrix {args.matrix!r}; expected a,b,c,d")
    m = Mat2(a, b, c, d)
    word, inverse_word = psl2.element_quiddity(m)  # the reduced words of m and m^-1
    combined = word + inverse_word
    cert = reduce_word(combined)
    index = sturm._rotation_index(combined, cert.solution_class)
    diss = dmod.from_certificate(cert)
    payload = {
        "matrix": m.rows(),
        "reduced": list(word),
        "quiddity": list(combined),
        "index_twice": int(index * 2),
        "dissection": diss.to_json(),
        "faces": list(dmod.profile(diss)),
    }
    _emit(args, payload, lambda: [
        f"reduced word: {','.join(map(str, word))}",
        f"quiddity: {','.join(map(str, combined))}",
        f"index: {index}",
        f"dissection: {diss.n}-gon, faces {payload['faces']}",
    ])
    return EXIT_OK


def cmd_farey(args) -> int:
    word = farey_quiddity(args.order)
    cls = solution_class(word)
    payload = {
        "order": args.order,
        "word": list(word),
        "class": cls.value,
        "sum": sum(word),
        "sum_expected": search.sum_bound(cls, len(word)),
        "totally_positive": _is_totally_positive(word, cls),
    }
    _emit(args, payload, lambda: [
        f"quiddity: {','.join(map(str, word))}",
        f"class: Problem {cls.value}",
        f"sum = {payload['sum']} (3n-6 = {payload['sum_expected']})",
        f"totally positive: {payload['totally_positive']}",
    ])
    return EXIT_OK


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one ``error:`` line, exit code 2;
    ``_Subcommand`` builds the subcommand parsers with this class too."""

    hint = ""  # appended to the error line

    def error(self, message):
        self.exit(EXIT_USAGE, f"error: {message}{self.hint}\n")


class _Subcommand:
    """Builds a subcommand's parser on each use; argparse (3.10, 3.11) uses
    it only to parse, and ``arguments`` then binds the current ``cmd_*``."""

    def __init__(self, arguments, **kwargs):
        self.arguments, self.kwargs = arguments, kwargs

    def __getattr__(self, name):
        parser = _Parser(**self.kwargs)
        self.arguments(parser)
        return getattr(parser, name)


def _verify_args(p):
    p.add_argument("word")
    p.set_defaults(func=cmd_verify)


def _enumerate_args(p):
    p.add_argument("--problem", required=True, choices=("1", "2", "3", "I", "II", "III"))
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--count", action="store_true")
    p.add_argument("--engine", choices=("brute", "gen", "both"), default="gen")
    p.add_argument("--orbits", choices=("none", "rotation", "dihedral"), default="none")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_enumerate)


def _dissect_args(p):
    p.add_argument("word")
    p.add_argument("--render", choices=("json", "dot", "svg"), default="json")
    p.add_argument("--all", action="store_true", help="list every dissection with this quiddity")
    p.add_argument("--budget", type=int, default=None)
    p.set_defaults(func=cmd_dissect)


def _frieze_args(p):
    p.add_argument("word")
    p.add_argument("--rows", type=int, default=None)
    p.set_defaults(func=cmd_frieze)


def _decompose_args(p):
    p.add_argument("matrix")
    # argparse reads -1,0,0,-1 as an option, so the matrix is then missing
    p.hint = (" (a matrix whose first entry is negative goes after --,"
              " as in: decompose -- -1,0,0,-1)")
    p.set_defaults(func=cmd_decompose)


def _farey_args(p):
    p.add_argument("order", type=int)
    p.set_defaults(func=cmd_farey)


_COMMANDS = (
    ("verify", "classify a word and print its invariants", _verify_args),
    ("enumerate", "list or count all solutions of one length", _enumerate_args),
    ("dissect", "build a dissection with the given quiddity", _dissect_args),
    ("frieze", "print the frieze of a solution", _frieze_args),
    ("decompose", "reduced decomposition of a matrix a,b,c,d", _decompose_args),
    ("farey", "quiddity of the Farey polygon of an order", _farey_args),
)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="quiddity")
    parser.add_argument("--format", choices=("text", "json"), default="text")
    sub = parser.add_subparsers(dest="command", required=True, parser_class=_Subcommand)
    for name, help_line, arguments in _COMMANDS:
        sub.add_parser(name, help=help_line, arguments=arguments)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    try:
        code = _run(argv)
        sys.stdout.flush()  # so that a closed stdout raises here, not at exit
    except BrokenPipeError:
        # the reader is gone: what is still buffered goes to devnull, so
        # the flush at interpreter exit stays quiet
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return EXIT_CLOSED_STDOUT
    return code


def _run(argv: Optional[Sequence[str]]) -> int:
    """Parse the command line and run its subcommand; the exit code."""
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except limits.BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except NotASolutionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
