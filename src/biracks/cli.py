"""Command line front end.

Subcommands: check, homology, cocycles, invariant.  Each input names a
file if one is at that path, else a bundled data item; a diagram is read
by diagram.parse_diagram.  All subcommands take --json for
machine-readable output.

Exit codes: 0 success; 1 negative or over-budget result (axioms fail,
resource guard); 2 bad usage, unreadable or malformed input.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import warnings
from pathlib import Path

from . import data
from .algebra import check_axioms, cycle_notation, parse_birack, parse_birack_tables
from .diagram import parse_diagram, reverse_component
from .errors import InputError, NotReducedCocycle, ResourceLimitExceeded
from .homology import (
    cohomology_group,
    homology_group,
    parse_cochain,
    reduced_2_cocycles,
    reduced_2_cohomology,
)
from .invariants import cocycle_invariant, counting_invariant, framed_invariants


def _load(kind: str, value: str) -> tuple[str, str]:
    """(name, text) of the input that value names: the file at that path if
    there is one, else the bundled kind (birack, diagram or cochain) of that
    name, under its file name."""
    path = Path(value)
    if path.is_file():
        try:
            return value, path.read_text()
        except (OSError, UnicodeDecodeError) as e:
            raise InputError(f"cannot read {value}: {e}") from None
    try:
        return data._bundled(kind, value)
    except KeyError:
        available = getattr(data, f"available_{kind}s")()
        raise InputError(
            f"{value!r} is neither a readable file nor a bundled {kind} "
            f"(bundled: {', '.join(available) or 'none'})") from None


def _emit(payload: dict, as_json: bool, lines) -> None:
    if as_json:
        print(json.dumps(payload, indent=2))
    else:
        for line in lines:
            print(line)


def _fmt_witnesses(witnesses) -> str:
    shown = ", ".join(str(w) for w in witnesses[:8])
    extra = len(witnesses) - 8
    return shown + (f", +{extra} more" if extra > 0 else "")


def cmd_check(args) -> int:
    # parse tables without constructing, so a failing structure still yields
    # a full report instead of a construction error
    alpha, beta = parse_birack_tables(_load("birack", args.birack)[1])
    report = check_axioms(alpha, beta)
    lines = [f"size: {report.size}"]
    for check in report.checks:
        if check.passed:
            lines.append(f"axiom {check.name}: pass")
        else:
            lines.append(
                f"axiom {check.name}: FAIL at {_fmt_witnesses(check.witnesses)}")
    if report.pi is not None:
        lines.append(f"pi: {cycle_notation(report.pi)}")
        lines.append(f"N: {report.characteristic}")
    payload = {
        "size": report.size,
        "ok": report.ok,
        "axioms": {
            c.name: {"passed": c.passed, "witnesses": [list(w) for w in c.witnesses]}
            for c in report.checks
        },
        "pi": list(report.pi) if report.pi else None,
        "pi_cycles": cycle_notation(report.pi) if report.pi else None,
        "characteristic": report.characteristic,
    }
    _emit(payload, args.json, lines)
    return 0 if report.ok else 1


def _reduced(args, quotient: bool):
    """The reduced basis, with the quotient's lines and payload if asked: one call."""
    b = parse_birack(_load("birack", args.birack)[1])
    if not quotient:
        return reduced_2_cocycles(b, modulus=args.mod, max_cells=args.max_cells), [], {}
    basis, group = reduced_2_cohomology(b, max_cells=args.max_cells)
    return (basis, [f"quotient by coboundaries: {group.describe()}"],
            {"quotient": group.to_json_dict()})


def cmd_homology(args) -> int:
    if args.reduced:
        if args.degree != 2:  # the report is fixed; reject what it would ignore
            raise InputError(f"--reduced reports degree 2 only; drop -n {args.degree}")
        if args.cohomology:
            raise InputError("--reduced cannot be combined with --cohomology")
        basis, quotient_lines, quotient = _reduced(args, quotient=args.mod is None)
        lines = [f"reduced 2-cocycle space: dimension {len(basis)}"
                 + (f" over Z_{args.mod}" if args.mod else " over Z")]
        payload = {"reduced_dimension": len(basis), "mod": args.mod, **quotient}
        _emit(payload, args.json, lines + quotient_lines)
        return 0
    b = parse_birack(_load("birack", args.birack)[1])
    fn = cohomology_group if args.cohomology else homology_group
    group = fn(b, args.degree, modulus=args.mod, max_cells=args.max_cells)
    letter = "H^" if args.cohomology else "H_"
    coeff = f"; Z_{args.mod} coefficients" if args.mod else ""
    lines = [f"{letter}{args.degree} = {group.describe()}{coeff}"]
    payload = {
        "degree": args.degree,
        "cohomology": bool(args.cohomology),
        "mod": args.mod,
        **group.to_json_dict(),
    }
    _emit(payload, args.json, lines)
    return 0


def cmd_cocycles(args) -> int:
    if args.quotient and args.mod is not None:
        raise InputError("--quotient needs Z coefficients; drop --mod")
    basis, quotient_lines, quotient = _reduced(args, quotient=args.quotient)
    ring = f"Z_{args.mod}" if args.mod else "Z"
    lines = [f"reduced 2-cocycles over {ring}: {len(basis)} basis elements"]
    lines.extend(f"  {phi}" for phi in basis)
    payload = {
        "mod": args.mod,
        "dimension": len(basis),
        "basis": [[[i, j, c] for i, j, c in phi.pairs()] for phi in basis],
        **quotient,
    }
    _emit(payload, args.json, lines + quotient_lines)
    return 0


def cmd_invariant(args) -> int:
    b = parse_birack(_load("birack", args.birack)[1])
    name, text = _load("diagram", args.diagram)
    d = parse_diagram(text, name)
    phi = parse_cochain(_load("cochain", args.phi)[1], b.size) if args.phi else None
    for comp in args.reverse or ():
        d = reverse_component(d, comp)

    if args.framed is not None:
        try:
            framing = tuple(int(t) for t in args.framed.replace(",", " ").split())
        except ValueError:
            raise InputError(f"--framed expects integers, got {args.framed!r}") from None
        result = framed_invariants(d, b, phi, framing)
    elif phi is not None:
        with warnings.catch_warnings():
            # the result carries this warning's message, printed below
            warnings.simplefilter("ignore", NotReducedCocycle)
            result = cocycle_invariant(d, b, phi, max_tile=args.max_tile)
    else:
        result = counting_invariant(d, b, max_tile=args.max_tile)

    lines = ["per-framing labeling counts:"]
    lines.extend(f"  {f}: {c}" for f, c in result.per_framing)
    lines.append(f"counting invariant: {result.phi_z}")
    if phi is not None:
        lines.append(f"weight polynomial: {result.poly}")
        lines.append("weight multiset: "
                     + " ".join(f"{w}:{m}" for w, m in result.multiset))
    if args.framed is None:
        for message in result.warnings:
            print(f"warning: {message}", file=sys.stderr)
    _emit(result.to_json_dict(), args.json, lines)
    return 0


def _budget(text: str) -> int:
    if not text.strip().isdecimal():
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, got {text!r}")
    return int(text)


@functools.cache  # the parser holds no per-call state: build it once per process
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="birack",
        description="Finite augmented biracks: axioms, homology, "
                    "reduced cocycles, and link invariants.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="verify the axioms of a birack file")
    p.add_argument("birack", help="birack file or bundled name")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("homology", help="homology or cohomology groups")
    p.add_argument("birack")
    p.add_argument("-n", "--degree", type=int, default=2)
    p.add_argument("--mod", type=int, default=None, metavar="M",
                   help="coefficients in Z_M instead of Z")
    p.add_argument("--cohomology", action="store_true")
    p.add_argument("--reduced", action="store_true",
                   help="report the reduced 2-cocycle space instead")
    p.add_argument("--max-cells", type=_budget, default=None,
                   help="override the chain-basis size guard "
                        "(also: BIRACKS_MAX_CELLS)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_homology)

    p = sub.add_parser("cocycles", help="basis of reduced 2-cocycles")
    p.add_argument("birack")
    p.add_argument("--mod", type=int, default=None, metavar="M")
    p.add_argument("--quotient", action="store_true",
                   help="also report cocycles modulo coboundaries")
    p.add_argument("--max-cells", type=_budget, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_cocycles)

    p = sub.add_parser("invariant", help="counting and cocycle invariants")
    p.add_argument("birack")
    p.add_argument("diagram", help="crossing list, Gauss code file, or bundled name")
    p.add_argument("--phi", default=None,
                   help="2-cochain file or bundled name for the weight polynomial")
    p.add_argument("--framed", default=None, metavar="W1,W2,...",
                   help="evaluate at one fixed framing instead of the tile; "
                        "write --framed=W1,W2 when W1 is negative")
    p.add_argument("--reverse", type=int, action="append", metavar="COMP",
                   help="reverse a component (0-based) before computing")
    p.add_argument("--max-tile", type=_budget, default=None,
                   help="override the framing-tile size guard "
                        "(also: BIRACKS_MAX_TILE)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_invariant)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ResourceLimitExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    except InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
