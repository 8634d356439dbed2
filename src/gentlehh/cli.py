"""Command-line interface.

    gentlehh analyze FILE [--nmax N] [--char C] [--method M] [--format F]
    gentlehh crosscheck [FILE... | fixtures] [--polygons A..B] [--nmax N]
    gentlehh ag-compare FILE1 FILE2 [--nmax N] [--char C]
    gentlehh generate --polygon N --out DIR

Exit codes: 0 success, 1 the output could not be written (its reader
closed the pipe; nothing is printed), 2 invalid input (an out-of-range
argument, or a parse or validation failure), 3 cross-method disagreement.
"""

import argparse
import gc
import itertools
import os
import sys

from . import corpus, fileformat, report
from .ag import compare_ag
from .linalg import check_characteristic
from .quiver import GentlenessViolation, InfiniteDimensionalError
from .surface import SurfaceError, build_surface

EXIT_OK = 0
EXIT_WRITE = 1
EXIT_INVALID = 2
EXIT_DISAGREE = 3

INPUT_ERRORS = (fileformat.FormatError, SurfaceError, GentlenessViolation,
                InfiniteDimensionalError, corpus.FixtureCorrupt, OSError,
                UnicodeDecodeError)


def _parser():
    parser = argparse.ArgumentParser(
        prog="gentlehh",
        description="Hochschild cohomology of gentle algebras from "
                    "triangulated surfaces, four independent ways.")
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="analyze one triangulation file")
    analyze.add_argument("file")
    analyze.add_argument("--nmax", type=int, default=13)
    analyze.add_argument("--char", type=int, default=0)
    analyze.add_argument("--method", default="all", choices=report.METHODS + ("all",))
    analyze.add_argument("--format", default="text", choices=("text", "json"))

    crosscheck = sub.add_parser(
        "crosscheck",
        help="run all four methods at characteristics 0 and 2 on many inputs")
    crosscheck.add_argument(
        "inputs", nargs="*",
        help="triangulation files, or the token 'fixtures' for the "
             "shipped fixtures (default when nothing else is given)")
    crosscheck.add_argument("--polygons", metavar="A..B",
                            help="also run every polygon triangulation "
                                 "for A <= n <= B")
    crosscheck.add_argument("--nmax", type=int, default=13)

    agcmp = sub.add_parser("ag-compare",
                           help="compare the derived invariants of two inputs")
    agcmp.add_argument("file1")
    agcmp.add_argument("file2")
    agcmp.add_argument("--nmax", type=int, default=13)
    agcmp.add_argument("--char", type=int, default=0)

    generate = sub.add_parser("generate",
                              help="write polygon triangulation files")
    generate.add_argument("--polygon", type=int, required=True)
    generate.add_argument("--out", required=True)
    return parser


def _load_surface(path):
    return build_surface(fileformat.load_file(path))


def cmd_analyze(args) -> int:
    surface = _load_surface(args.file)
    methods = report.METHODS if args.method == "all" else (args.method,)
    result = report.analyze(surface, args.char, args.nmax, methods)
    if args.format == "json":
        print(report.render_json(result))
    else:
        print(report.render_text(result))
    return EXIT_OK if result.verdict == "pass" else EXIT_DISAGREE


def _polygon_range(spec: str):
    lo, _, hi = spec.partition("..")
    try:
        lo, hi = int(lo), int(hi)
    except ValueError:
        raise ValueError("--polygons wants A..B with integers A and B, "
                         "e.g. 4..9, got %r" % spec) from None
    if not 4 <= lo <= hi:
        raise ValueError("--polygons A..B needs 4 <= A <= B, got %r" % spec)
    return lo, hi


def _check_arguments(args):
    """Reject out-of-range arguments before any work starts; ValueError
    carries the message.  ``--polygons`` is replaced by its (A, B) range."""
    if getattr(args, "nmax", 1) < 1:
        raise ValueError("--nmax must be at least 1, got %d" % args.nmax)
    check_characteristic(getattr(args, "char", 0))
    if getattr(args, "polygon", 4) < 4:
        raise ValueError("--polygon needs N >= 4, got %d" % args.polygon)
    if getattr(args, "polygons", None):
        args.polygons = _polygon_range(args.polygons)


def _polygon_surfaces(lo, hi):
    """(name, surface) per polygon triangulation, each built when asked for."""
    for n in range(lo, hi + 1):
        for data in corpus.generate_polygon_triangulations(n):
            yield data.name, build_surface(data)


def cmd_crosscheck(args) -> int:
    # files and fixtures are validated before any output; polygons are valid
    # by construction, so each is built just before its analysis
    instances = []
    tokens = list(args.inputs)
    if not tokens and not args.polygons:
        tokens = ["fixtures"]
    for token in tokens:
        if token == "fixtures":
            for fixture in corpus.builtin_fixtures():
                instances.append((fixture.name, fixture.surface))
        else:
            instances.append((token, _load_surface(token)))

    count = failures = 0
    for name, surface in itertools.chain(
            instances, _polygon_surfaces(*args.polygons) if args.polygons else ()):
        count += 1
        verdicts = [report.analyze(surface, char, args.nmax) for char in (0, 2)]
        ok = all(r.verdict == "pass" for r in verdicts)
        print("%-16s char 0: %s   char 2: %s"
              % (name,
                 "ok" if verdicts[0].verdict == "pass" else "DISAGREE",
                 "ok" if verdicts[1].verdict == "pass" else "DISAGREE"))
        if not ok:
            failures += 1
            for r in verdicts:
                if r.disagreement:
                    print("  char %d: %s" % (r.characteristic, r.disagreement))
    print("%d instance(s), %d disagreement(s)" % (count, failures))
    return EXIT_OK if failures == 0 else EXIT_DISAGREE


def cmd_ag_compare(args) -> int:
    reports = [report.analyze(_load_surface(path), args.char, args.nmax,
                              methods=("geometric",))
               for path in (args.file1, args.file2)]
    for rep in reports:
        print("%s:" % rep.name)
        print("  AG invariant: %s" % ("; ".join(rep.invariant.lines()) or "(empty)"))
        print("  HH dims (char %d): %s"
              % (rep.characteristic, list(rep.tables["geometric"].dims)))
    outcome = compare_ag(reports[0].invariant, reports[1].invariant)
    if outcome.equal:
        print("AG invariants agree: %s" % outcome.verdict)
    else:
        pair, ma, mb = outcome.witness
        print("AG invariants differ at (%d, %d): %d vs %d -> %s"
              % (pair[0], pair[1], ma, mb, outcome.verdict))
    return EXIT_OK


def cmd_generate(args) -> int:
    triangulations = corpus.generate_polygon_triangulations(args.polygon)
    os.makedirs(args.out, exist_ok=True)
    for data in triangulations:
        fileformat.dump_file(data, os.path.join(args.out, data.name + ".json"))
    print("wrote %d triangulation(s) of the %d-gon to %s"
          % (len(triangulations), args.polygon, args.out))
    return EXIT_OK


def main(argv=None) -> int:
    """Run one command.  A bad argument or input exits 2 with one
    ``error:`` line, and output to a closed pipe exits 1 with none; any
    other exception is a bug and propagates.  The command runs with the
    cyclic garbage collector paused, which is enabled again on return
    only if it was enabled on entry."""
    args = _parser().parse_args(argv)
    handler = {
        "analyze": cmd_analyze,
        "crosscheck": cmd_crosscheck,
        "ag-compare": cmd_ag_compare,
        "generate": cmd_generate,
    }[args.command]
    try:
        _check_arguments(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    # Every object a command builds is freed by reference counting
    # (tests/test_collector.py), so the cyclic collector is paused while it
    # runs instead of rescanning each path, pair and row it keeps alive.
    collecting = gc.isenabled()
    gc.disable()
    try:
        return handler(args)
    except BrokenPipeError:
        # the reader of stdout went away: not an input error, and nothing
        # to say; run() keeps the flush at exit quiet too
        return EXIT_WRITE
    except INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    finally:
        if collecting:
            gc.enable()


def run():
    """The command line of a fresh interpreter: main() on sys.argv, then
    the exit.  Output to a closed pipe exits 1 without a word, and so does
    any output that only the last flush fails to write; only here, as the
    process ends, is file descriptor 1 touched."""
    code = main()
    try:
        sys.stdout.flush()
    except OSError:
        # the interpreter flushes stdout once more at exit: point it at
        # devnull, so that flush cannot fail and print to stderr
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_WRITE
    sys.exit(code)


if __name__ == "__main__":
    run()
