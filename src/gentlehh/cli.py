"""Command-line interface.

    gentlehh analyze FILE [--nmax N] [--char C] [--method M] [--format F]
    gentlehh crosscheck [FILE... | fixtures] [--polygons A..B] [--nmax N]
    gentlehh ag-compare FILE1 FILE2 [--nmax N] [--char C]
    gentlehh generate --polygon N --out DIR

Exit codes: 0 success, 2 invalid input (an out-of-range argument, or a
parse or validation failure), 3 cross-method disagreement.
"""

import argparse
import os
import sys

from . import corpus, fileformat, report
from .ag import ag_invariant, compare_ag
from .linalg import check_characteristic
from .quiver import GentlenessViolation, InfiniteDimensionalError
from .surface import SurfaceError, build_surface

EXIT_OK = 0
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
    analyze.add_argument("--method", default="all",
                         choices=("geometric", "rr", "oracle", "ladkani", "all"))
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
    try:
        surface = _load_surface(args.file)
        methods = report.METHODS if args.method == "all" else (args.method,)
        result = report.analyze(surface, args.char, args.nmax, methods)
    except INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
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
    if getattr(args, "polygons", None):
        args.polygons = _polygon_range(args.polygons)


def cmd_crosscheck(args) -> int:
    instances = []
    try:
        tokens = list(args.inputs)
        if not tokens and not args.polygons:
            tokens = ["fixtures"]
        for token in tokens:
            if token == "fixtures":
                for fixture in corpus.builtin_fixtures():
                    instances.append((fixture.name, build_surface(fixture.data)))
            else:
                instances.append((token, _load_surface(token)))
        if args.polygons:
            lo, hi = args.polygons
            for n in range(lo, hi + 1):
                for data in corpus.generate_polygon_triangulations(n):
                    instances.append((data.name, build_surface(data)))
    except INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID

    failures = 0
    for name, surface in instances:
        verdicts = []
        for char in (0, 2):
            result = report.analyze(surface, char, args.nmax)
            verdicts.append(result)
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
    print("%d instance(s), %d disagreement(s)" % (len(instances), failures))
    return EXIT_OK if failures == 0 else EXIT_DISAGREE


def cmd_ag_compare(args) -> int:
    try:
        first = _load_surface(args.file1)
        second = _load_surface(args.file2)
        reports = [report.analyze(s, args.char, args.nmax)
                   for s in (first, second)]
    except INPUT_ERRORS as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    for rep in reports:
        print("%s:" % rep.name)
        print("  AG invariant: %s" % ("; ".join(rep.invariant.lines()) or "(empty)"))
        print("  HH dims (char %d): %s"
              % (rep.characteristic, list(rep.tables["geometric"].dims)))
    outcome = compare_ag(ag_invariant(first), ag_invariant(second))
    if outcome.equal:
        print("AG invariants agree: %s" % outcome.verdict)
    else:
        pair, ma, mb = outcome.witness
        print("AG invariants differ at (%d, %d): %d vs %d -> %s"
              % (pair[0], pair[1], ma, mb, outcome.verdict))
    return EXIT_OK


def cmd_generate(args) -> int:
    try:
        triangulations = corpus.generate_polygon_triangulations(args.polygon)
        os.makedirs(args.out, exist_ok=True)
        for data in triangulations:
            fileformat.dump_file(data, os.path.join(args.out, data.name + ".json"))
    except (ValueError, OSError) as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    print("wrote %d triangulation(s) of the %d-gon to %s"
          % (len(triangulations), args.polygon, args.out))
    return EXIT_OK


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        _check_arguments(args)
    except ValueError as exc:
        print("error: %s" % exc, file=sys.stderr)
        return EXIT_INVALID
    handler = {
        "analyze": cmd_analyze,
        "crosscheck": cmd_crosscheck,
        "ag-compare": cmd_ag_compare,
        "generate": cmd_generate,
    }[args.command]
    return handler(args)


if __name__ == "__main__":
    sys.exit(main())
