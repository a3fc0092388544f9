"""Command-line front end.

Subcommands mirror the library surface: `local` prints a refined local
count, `oracle-verify` cross-checks the closed form against the sublattice
oracle over a grid, `diagrams` lists/counts/sums floor diagrams, `series`
emits invariant generating series as CSV (optionally verifying the
quasi-modularity factorization), and `polyfit` runs the exact polynomial
fit for a diagram template.

Exit codes: 0 success, 2 usage or precondition violation, 3 verification
failure, 1 internal error, 141 stdout closed by its reader (what a shell
reports for a process killed by SIGPIPE).

`run` is the program entry; `main` is the same command for in-process
callers.
"""

from __future__ import annotations

import argparse
import os
import re
import sys
from typing import TYPE_CHECKING, NoReturn

# Each subcommand imports the layers it uses, so a job loads only what it needs.
if TYPE_CHECKING:
    from .projector import ProjectorElement
    from .torsion import GroupAlgebraElement

EXIT_OK = 0
EXIT_INTERNAL = 1
EXIT_USAGE = 2
EXIT_VERIFY = 3
EXIT_PIPE = 141


class VerificationFailure(Exception):
    """A requested self-check did not pass."""


def _want_json(args) -> bool:
    if getattr(args, "json", False):
        return True
    if getattr(args, "table", False):
        return False
    return not sys.stdout.isatty()


def _int(text: str) -> int:
    """An optional sign and ASCII digits as an int; int() also reads "1_0", " 1"."""
    if re.fullmatch("[+-]?[0-9]+", text) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _parse_ints(
    text: str, name: str, sep: str = ",", count: int | None = None
) -> tuple[int, ...]:
    """The ints of a sep-separated option value, exactly count of them when
    count is given; otherwise ValueError "bad <name> '<text>'"."""
    try:
        values = tuple(_int(tok) for tok in text.split(sep))
    except argparse.ArgumentTypeError as exc:
        raise ValueError(f"bad {name} {text!r}") from exc
    if count is not None and len(values) != count:
        raise ValueError(f"bad {name} {text!r}")
    return values


def _parse_profile(text: str):
    from .search import TangencyProfile

    return TangencyProfile(_parse_ints(text, "profile"))


def _emit_element(x: GroupAlgebraElement | ProjectorElement, args):
    mass = x.mass  # an int when integral, so it prints without fractions
    if _want_json(args):
        # json.dumps of x.to_json_dict() with a "mass" entry appended.
        text = x.to_json(separators=(", ", ": "))
        print(f'{text[:-1]}, "mass": "{mass.numerator}/{mass.denominator}"}}')
        return
    print(f"ambient torsion level delta = {x.delta}")
    print(f"{'u':>4} {'v':>4} {'order':>6}  coefficient")
    points = x.points_text("{:>4} ", "{:>4} ", lambda r, c: f"{r:>6}  {c}", "\n")
    if points:
        print(points)
    print(f"mass {mass}")


# -- subcommands -------------------------------------------------------------


def cmd_local(args) -> int:
    from . import refined

    shift = _parse_ints(args.shift, "shift", count=2) if args.shift else None
    x = refined.local_invariant(args.a, args.w1, args.n, args.delta, shift)
    _emit_element(x, args)
    return EXIT_OK


def cmd_oracle_verify(args) -> int:
    from . import lattice, refined

    # An empty grid would agree vacuously.
    if args.a_max < 1 or args.delta_max < 1:
        raise ValueError("--a-max and --delta-max must be >= 1")
    grid = [
        (a, delta, w1, n)
        for a in range(1, args.a_max + 1)
        for delta in range(1, args.delta_max + 1)
        for w1 in (delta, 2 * delta)
        for n in (2, 3)
    ]
    bad = [
        (a, delta, w1, n)
        for a, delta, w1, n in grid
        if refined.local_invariant(a, w1, n, delta)
        != lattice.oracle_local_invariant(a, w1, n, delta)
    ]
    if bad:
        for a, delta, w1, n in bad:
            print(
                f"MISMATCH a={a} delta={delta} w1={w1} n={n}", file=sys.stderr
            )
        raise VerificationFailure(f"{len(bad)} grid cells disagree")
    print(f"oracle-verify: {len(grid)} cells agree exactly")
    return EXIT_OK


def cmd_diagrams(args) -> int:
    # The totals are read off the structure search; only --list loads diagrams.
    from . import search

    profile = _parse_profile(args.profile)
    if args.sum:
        delta = 1 if args.delta is None else args.delta
        total = search.invariant(args.g, args.a, profile, delta)
        _emit_element(total, args)
        return EXIT_OK
    if args.delta is not None or args.json or args.table:
        raise ValueError("--delta, --json and --table apply only with --sum")
    if args.count:
        print(search.count_diagrams(args.g, args.a, profile))
        return EXIT_OK
    from .diagrams import enumerate_diagrams

    for diagram in enumerate_diagrams(args.g, args.a, profile):
        print(diagram.to_json())
    return EXIT_OK


def cmd_series(args) -> int:
    from . import qseries

    if args.n_trunc < 0:
        raise ValueError(f"--n-trunc must be >= 0, got {args.n_trunc}")
    profile = _parse_profile(args.profile)
    series = qseries.invariant_series(args.g, profile, args.delta, args.n_trunc)
    if args.check_factorization:
        templates, mismatch = qseries.factorization_check(args.g, profile, series)
        for t in templates:
            print(
                f"template W={t.weight_monomial} delta_gcd={t.delta_gcd(args.delta)} "
                f"{t.to_json(separators=(', ', ': '))}",
                file=sys.stderr,
            )
        if mismatch is not None:
            raise VerificationFailure(f"factorization mismatch at q^{mismatch}")
        print(
            f"factorization: {len(templates)} templates, "
            f"exact match to q^{series.truncation}",
            file=sys.stderr,
        )
    qseries.write_series_csv(series, sys.stdout)
    return EXIT_OK


def cmd_polyfit(args) -> int:
    import json  # the one subcommand that parses JSON; polyfit loads it too

    from . import polyfit

    try:
        with open(args.template) as fh:
            template = polyfit.DiagramTemplate.from_json(fh.read())
    except (OSError, KeyError, TypeError, RecursionError, json.JSONDecodeError) as exc:
        raise ValueError(f"cannot load template: {exc}") from exc
    chamber = _parse_ints(args.chamber, "chamber", ":", 2) if args.chamber else None
    samples = _parse_ints(args.samples, "samples")
    k = args.holdout
    if k < 1:
        raise ValueError(f"--holdout must be >= 1, got {k}")
    if len(samples) <= k:
        raise ValueError("need more samples than holdout points")
    report = polyfit.polynomial_fit(
        template, args.delta, samples[:-k], samples[-k:], chamber
    )
    print(json.dumps(report.to_json_dict()))
    if not report.ok:
        raise VerificationFailure("polynomial fit failed holdout validation")
    return EXIT_OK


def _add_format_flags(p: argparse.ArgumentParser) -> None:
    fmt = p.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--table", action="store_true")


# argparse reads a value such as -2,2 as an option, so it needs the = form.
_PROFILE_HELP = (
    "comma-separated tangency orders summing to 0, e.g. 2,-2; "
    "write a profile starting with a minus sign as --profile=-2,2"
)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="corgw",
        description="Exact correlated curve counts in P1-bundles over an "
        "elliptic curve.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("local", help="refined local invariant")
    p.add_argument("--a", type=_int, required=True)
    p.add_argument("--w1", type=_int, required=True)
    p.add_argument("--n", type=_int, required=True)
    p.add_argument("--delta", type=_int, required=True)
    p.add_argument(
        "--shift", type=str, default=None,
        help="u,v correlator shift; write one starting with a minus sign "
        "as --shift=-1,0",
    )
    _add_format_flags(p)
    p.set_defaults(func=cmd_local)

    p = sub.add_parser("oracle-verify", help="closed form vs sublattice oracle")
    p.add_argument("--a-max", type=_int, required=True)
    p.add_argument("--delta-max", type=_int, required=True)
    p.set_defaults(func=cmd_oracle_verify)

    p = sub.add_parser("diagrams", help="floor diagram enumeration")
    p.add_argument("--g", type=_int, required=True)
    p.add_argument("--a", type=_int, required=True)
    p.add_argument("--profile", type=str, required=True, help=_PROFILE_HELP)
    p.add_argument("--delta", type=_int, default=None)
    mode = p.add_mutually_exclusive_group()
    mode.add_argument("--list", action="store_true")
    mode.add_argument("--count", action="store_true")
    mode.add_argument("--sum", action="store_true")
    _add_format_flags(p)
    p.set_defaults(func=cmd_diagrams)

    p = sub.add_parser("series", help="invariant series CSV")
    p.add_argument("--g", type=_int, required=True)
    p.add_argument("--profile", type=str, required=True, help=_PROFILE_HELP)
    p.add_argument("--delta", type=_int, required=True)
    p.add_argument("--n-trunc", type=_int, required=True)
    p.add_argument("--check-factorization", action="store_true")
    p.set_defaults(func=cmd_series)

    p = sub.add_parser("polyfit", help="exact per-template polynomial fit")
    p.add_argument("--template", type=str, required=True, help="template JSON file")
    p.add_argument("--delta", type=_int, required=True)
    p.add_argument("--chamber", type=str, default=None, help="modulus:residue")
    p.add_argument("--samples", type=str, required=True, help="comma-separated w")
    p.add_argument("--holdout", type=_int, default=2)
    p.set_defaults(func=cmd_polyfit)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except VerificationFailure as exc:
        print(f"verification failed: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except BrokenPipeError:  # stdout's reader has gone; run() reports it
        raise
    except Exception as exc:  # noqa: BLE001 - CLI boundary
        print(f"internal error: {exc!r}", file=sys.stderr)
        return EXIT_INTERNAL


def run() -> NoReturn:
    """main() on sys.argv as a program: exits with its status, EXIT_PIPE
    when the reader of stdout has gone.  Once both streams are flushed it
    ends with os._exit, skipping the interpreter's teardown, which would
    only free the heap the command built; no atexit handler runs, and corgw
    registers none.  Usage errors and --help leave main() as SystemExit."""
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        code = EXIT_PIPE  # what stdout still buffers is never written
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    run()
