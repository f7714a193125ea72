"""Command-line front door.

Four subcommands:

* ``seminorm P Q U``: certify the projective seminorm of the tensor U under
  factor seminorms P and Q. Prints the certificate; exit 0 when the gap is
  within ``--tolerance`` (default: exactly 0), exit 2 otherwise.
* ``member TARGET POINT``: membership query. TARGET is either a generated
  set (exact yes/no) or a seminorm-backed neighborhood (tri-state against
  ``--radius``). Exit 0 when decided, 2 when undecided.
* ``decompose Z X Y``: split Z into parts dominated by |X| and |Y|.
* ``suite``: run the full property suite; exit 0 only if every statement
  lands as expected.

Payload arguments accept inline JSON or a path to a JSON file. Malformed
input exits 1 with a field diagnostic on stderr. All output is JSON with
sorted keys and no timestamps, so identical invocations are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import sys

from . import hulls, projective, suite
from .elements import (
    DimensionMismatch,
    LatticeElement,
    RieszSeminorm,
    UnsupportedSeminormKind,
    riesz_decompose,
)
from .jsonio import FormatError, as_fraction, fraction_str
from .tensor import Membership, TensorElement, TensorNbhd, nbhd_member


def _load_payload(arg: str, field: str):
    """Inline JSON if the argument looks like it, else a file path."""
    text = arg
    if not arg.strip().startswith(("{", "[")):
        try:
            with open(arg, "r", encoding="utf-8") as fh:
                text = fh.read()
        except OSError as exc:
            raise FormatError(field, f"cannot read file {arg!r}: {exc.strerror}")
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise FormatError(field, f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}")


def _emit(payload: dict, path: str | None):
    blob = json.dumps(payload, sort_keys=True, indent=2) + "\n"
    sys.stdout.write(blob)
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(blob)


def _budget(args) -> projective.Budget:
    return projective.Budget(k_max=args.kmax, restarts=args.restarts, seed=args.seed)


def _cmd_seminorm(args) -> int:
    p = RieszSeminorm.from_json(_load_payload(args.p, "p"), "p")
    q = RieszSeminorm.from_json(_load_payload(args.q, "q"), "q")
    u = TensorElement.from_json(_load_payload(args.u, "u"), "u")
    tolerance = as_fraction(args.tolerance, "tolerance")
    if tolerance < 0:
        raise FormatError("tolerance", "must be nonnegative")
    cert = projective.seminorm_certify(p, q, u, _budget(args))
    closed = projective.seminorm_closed_form(p, q, u)
    out = cert.to_json()
    out["closed_form"] = fraction_str(closed) if closed is not None else None
    _emit(out, args.json)
    return 0 if cert.gap <= tolerance else 2


def _cmd_member(args) -> int:
    target = _load_payload(args.target, "target")
    if not isinstance(target, dict):
        raise FormatError("target", "expected a JSON object")
    radius = as_fraction(args.radius, "radius")
    if "generators" in target:
        S = hulls.GeneratedSet.from_json(target, "target")
        x = LatticeElement.from_json(_load_payload(args.point, "point"), "point")
        if radius != 1:
            S = hulls.scale_set(S, radius)
        verdict = Membership.MEMBER if hulls.member(S, x) else Membership.NON_MEMBER
    else:
        W = TensorNbhd.from_json(target, "target")
        u = TensorElement.from_json(_load_payload(args.point, "point"), "point")
        verdict = nbhd_member(W, u, radius=radius, budget=_budget(args))
    _emit({"membership": verdict.value, "radius": fraction_str(radius)}, args.json)
    return 0 if verdict is not Membership.UNDECIDED else 2


def _cmd_decompose(args) -> int:
    z = LatticeElement.from_json(_load_payload(args.z, "z"), "z")
    x = LatticeElement.from_json(_load_payload(args.x, "x"), "x")
    y = LatticeElement.from_json(_load_payload(args.y, "y"), "y")
    try:
        z1, z2 = riesz_decompose(z, x, y)
    except ValueError as exc:
        raise FormatError("z", str(exc))
    _emit({"z1": z1.to_json(), "z2": z2.to_json()}, args.json)
    return 0


def _cmd_suite(args) -> int:
    report = suite.run_suite(
        seed=args.seed,
        triples=args.triples,
        samples=args.samples,
        workers=args.workers,
        k_max=args.kmax,
        restarts=args.restarts,
    )
    _emit(report, args.json)
    return 0 if report["all_ok"] else 1


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tensorlattice",
        description="Certified computations in tensor products of coordinate vector lattices.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, budget=True):
        sp.add_argument("--seed", type=int, default=42,
                        help="root seed for every derived sample stream (default 42)")
        if budget:
            sp.add_argument("--kmax", type=int, default=None,
                            help="decomposition term budget (default: entry count)")
            sp.add_argument("--restarts", type=int, default=2,
                            help="alternating-minimization restarts (default 2)")
        sp.add_argument("--json", metavar="PATH", default=None,
                        help="also write the JSON output to PATH")

    sp = sub.add_parser("seminorm", help="certify the projective seminorm of a tensor")
    sp.add_argument("p", help="left seminorm JSON (inline or file path)")
    sp.add_argument("q", help="right seminorm JSON")
    sp.add_argument("u", help="tensor JSON")
    sp.add_argument("--tolerance", default="0",
                    help="largest acceptable certificate gap, as a rational (default 0)")
    common(sp)
    sp.set_defaults(func=_cmd_seminorm)

    sp = sub.add_parser("member", help="membership in a generated set or neighborhood")
    sp.add_argument("target", help="generated-set or neighborhood JSON")
    sp.add_argument("point", help="element JSON (list) or tensor JSON")
    sp.add_argument("--radius", default="1",
                    help="scale the target by this rational before testing (default 1)")
    common(sp)
    sp.set_defaults(func=_cmd_member)

    sp = sub.add_parser("decompose", help="split z against dominating |x| and |y|")
    sp.add_argument("z", help="element JSON")
    sp.add_argument("x", help="element JSON")
    sp.add_argument("y", help="element JSON")
    common(sp, budget=False)
    sp.set_defaults(func=_cmd_decompose)

    sp = sub.add_parser("suite", help="run the full property suite")
    sp.add_argument("--triples", type=int, default=60,
                    help="random instances per hull law (default 60)")
    sp.add_argument("--samples", type=int, default=80,
                    help="samples per property check (default 80)")
    sp.add_argument("--workers", type=int, default=1,
                    help="worker processes for the hull laws; output is identical for any count")
    common(sp)
    sp.set_defaults(func=_cmd_suite)

    return parser


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.func(args)
    except FormatError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    except (DimensionMismatch, UnsupportedSeminormKind,
            hulls.UnsupportedDecoration, ValueError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1


if __name__ == "__main__":
    sys.exit(main())
