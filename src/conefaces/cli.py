"""Command-line surface.

Exit codes: 0 success (and mathematical "yes" for predicate commands),
1 mathematical "no", 2 indeterminate, >= 10 usage or IO errors.  All
randomness derives from --seed; identical invocations produce
byte-identical JSON.
"""

from __future__ import annotations

import argparse
import csv
import json
import sys

from .certificates import build_certificate
from .constructions import (
    EXAMPLE_SIX_POINTS,
    SEVEN_POINTS_PERTURBED,
    GenericityError,
    seven_point_scheme,
    six_point_scheme,
    snd_basis,
    snd_points,
)
from .gap_analysis import gap_profile
from .ideal_components import PointConfiguration, face_report
from .independence import is_d_independent
from .rational import rat
from .sampling import random_configuration

USAGE_ERROR = 10
IO_ERROR = 11


def _load_config(path) -> PointConfiguration:
    with open(path) as fh:
        return PointConfiguration.from_json(json.load(fh))


def _emit(data, output_path=None):
    text = json.dumps(data, indent=2) + "\n"
    if output_path:
        with open(output_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _resolve_config(args):
    if args.config:
        g = _load_config(args.config)
        if g.n != args.n:
            raise ValueError(f"configuration has n={g.n}, expected {args.n}")
        return g
    if args.random_size is None:
        raise ValueError("either --config or --random-size is required")
    require_d = args.d if args.require_independent else None
    return random_configuration(
        args.n, args.random_size, seed=args.seed, glp=args.glp,
        d_independent=require_d,
    )


def cmd_dims(args):
    g = _resolve_config(args)
    report = face_report(g, args.d)
    _emit(report.to_json(), args.output)
    return 0


def cmd_independence(args):
    g = _resolve_config(args)
    report = is_d_independent(g, args.d)
    _emit(report.to_json(), args.output)
    return {"yes": 0, "no": 1, "indeterminate": 2}[report.verdict]


def cmd_construct(args):
    if args.what == "snd":
        points = snd_points(args.n, args.d)
        basis = snd_basis(args.n, args.d)
        _emit(
            {
                "points": points.to_json(),
                "basis": [q.to_json() for q in basis],
            },
            args.output,
        )
        return 0
    if args.what == "six4":
        g = _load_config(args.config) if args.config else EXAMPLE_SIX_POINTS
        scheme = six_point_scheme(g)
    else:
        g = _load_config(args.config) if args.config else SEVEN_POINTS_PERTURBED
        scheme = seven_point_scheme(g)
    _emit(scheme.to_json(), args.output)
    return 0


def cmd_certify(args):
    if args.case == "44":
        g = _load_config(args.config) if args.config else EXAMPLE_SIX_POINTS
        scheme = six_point_scheme(g)
    else:
        g = _load_config(args.config) if args.config else SEVEN_POINTS_PERTURBED
        scheme = seven_point_scheme(g)
    cert = build_certificate(
        list(scheme.Q), scheme.R, args.epsilon, scheme.gamma,
        samples=args.samples, seed=args.seed,
    )
    _emit(cert.to_json(), args.output)
    return 0 if cert.not_sos else 1


def cmd_gapscan(args):
    profile = gap_profile(args.n, args.two_d, args.k_range)
    _emit(profile.to_json(), args.output)
    if args.csv:
        with open(args.csv, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["k", "gap"])
            writer.writerows(profile.values)
    return 0


def cmd_random(args):
    g = random_configuration(
        args.n, args.size, seed=args.seed, glp=args.glp,
        d_independent=args.d_independent,
    )
    _emit(g.to_json(), args.output)
    return 0


class _Parser(argparse.ArgumentParser):
    """argparse exits 2 on bad arguments, which here means "indeterminate";
    report them as usage errors instead."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _k_range(text):
    try:
        lo, hi = text.split("..")
        return int(lo), int(hi)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected the form a..b, got {text!r}"
        ) from None


def _rational(text):
    try:
        return rat(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(
            f"expected a rational a or a/b, got {text!r}"
        ) from None


def _nonnegative_int(text):
    try:
        value = int(text)
        if value < 0:
            raise ValueError(text)
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected a nonnegative integer, got {text!r}"
        ) from None
    return value


def _join_epsilon(argv):
    """Attach the value after --epsilon as --epsilon=VALUE.

    argparse reads a token that starts with "-" and is not a plain number,
    such as -1/3, as an option name, so a negative rational could otherwise
    be given only in the attached form.
    """
    joined = []
    for token in argv:
        if joined and joined[-1] == "--epsilon":
            joined[-1] += "=" + token
        else:
            joined.append(token)
    return joined


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="conefaces",
        description="Exact dimensions of cone faces cut out by point configurations",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, with_d=True):
        p.add_argument("--n", type=int, required=True)
        if with_d:
            p.add_argument("--d", type=int, required=True)
        p.add_argument("--config", help="PointConfiguration JSON file")
        p.add_argument("--random-size", type=int, dest="random_size")
        p.add_argument("--seed", type=int, default=0)
        p.add_argument("--glp", action="store_true")
        p.add_argument("--output", help="write JSON here instead of stdout")

    p = sub.add_parser("dims", help="face dimension report")
    common(p)
    p.add_argument("--require-independent", action="store_true",
                   dest="require_independent")
    p.set_defaults(func=cmd_dims)

    p = sub.add_parser("independence", help="tri-state d-independence verdict")
    common(p)
    p.add_argument("--require-independent", action="store_true",
                   dest="require_independent")
    p.set_defaults(func=cmd_independence)

    p = sub.add_parser("construct", help="emit an explicit scheme")
    p.add_argument("what", choices=["snd", "six4", "seven3"])
    p.add_argument("--n", type=int, default=3)
    p.add_argument("--d", type=int, default=3)
    p.add_argument("--config")
    p.add_argument("--output")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("certify", help="build a not-SOS certificate")
    p.add_argument("--case", required=True, choices=["44", "36"])
    p.add_argument("--config")
    p.add_argument("--epsilon", type=_rational, default="1")
    p.add_argument("--samples", type=_nonnegative_int, default=2000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--output")
    p.set_defaults(func=cmd_certify)

    p = sub.add_parser("gapscan", help="closed-form gap bounds over k")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--two-d", type=int, required=True, dest="two_d")
    p.add_argument("--k-range", dest="k_range", type=_k_range, help="a..b")
    p.add_argument("--csv", help="also write (k, gap) rows to this CSV file")
    p.add_argument("--output")
    p.set_defaults(func=cmd_gapscan)

    p = sub.add_parser("random", help="seeded random configuration")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--size", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--glp", action="store_true")
    p.add_argument("--d-independent", type=int, dest="d_independent")
    p.add_argument("--output")
    p.set_defaults(func=cmd_random)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(_join_epsilon(sys.argv[1:] if argv is None else argv))
    try:
        return args.func(args)
    except (OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return IO_ERROR
    except (ValueError, GenericityError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
