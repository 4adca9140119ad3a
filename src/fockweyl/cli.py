"""Command line interface: pointwise evaluation commands plus the batch
verification families, with deterministic text or JSON output.

Exit codes: 0 all requested checks pass, 1 a check failed (report still
emitted) or a computation raised an error, 2 usage or configuration error.
"""

from __future__ import annotations

import argparse
import sys

from .errors import EngineError
from .fock import FockVector, apply_E, apply_F, apply_K
from .partitions import (Partition, addable_boxes, color, content,
                         removable_boxes)
from .reports import render_json, render_text
from .ring import render_q_integers
from .verify import FAMILIES, TOLERANCES, RunConfig, run_all, run_family
from .verma import (hook_factors, jantzen_closed, jantzen_engine,
                    jantzen_valuation, shapovalov_det_closed)
from .weights import Weight


def parse_partition(text: str) -> Partition:
    text = text.strip()
    if text in ("", "0", "-"):
        return Partition(())
    try:
        return Partition(int(p) for p in text.split(","))
    except ValueError as exc:
        raise SystemExit2(f"bad partition {text!r}: {exc}")


class SystemExit2(Exception):
    """Usage error carrying its message (mapped to exit code 2)."""


# The verify flags that set a RunConfig field.  verify.FAMILIES names the
# fields each family reads; `all` reads tolerance only, and --jobs and
# --format apply to every family.
CONFIG_FLAGS = {"--ell": "ell", "--max-size": "max_size", "--rank": "n_rank",
                "--tolerance": "tolerance"}


def _reads(family: str) -> tuple:
    return ("tolerance",) if family == "all" else FAMILIES[family].reads


def build_parser():
    ap = argparse.ArgumentParser(
        prog="fockweyl",
        description="Exact checks tying the deformed Fock space to quantum "
                    "Weyl/Verma module computations.")
    sub = ap.add_subparsers(dest="command", required=True)

    fock = sub.add_parser("fock", help="apply a Fock-space operator")
    fock_sub = fock.add_subparsers(dest="subcommand", required=True)
    fa = fock_sub.add_parser("apply")
    fa.add_argument("--op", choices=["E", "F", "K"], required=True)
    fa.add_argument("--i", type=int, required=True, help="color residue")
    fa.add_argument("--ell", type=int, default=2)
    fa.add_argument("--partition", required=True)
    fa.add_argument("--format", choices=["text", "json"], default="text")

    part = sub.add_parser("partition", help="partition statistics")
    part_sub = part.add_subparsers(dest="subcommand", required=True)
    ps = part_sub.add_parser("stats")
    ps.add_argument("--partition", required=True)
    ps.add_argument("--ell", type=int, default=2)
    ps.add_argument("--format", choices=["text", "json"], default="text")

    shap = sub.add_parser("shapovalov", help="closed-form determinant")
    shap_sub = shap.add_subparsers(dest="subcommand", required=True)
    sd = shap_sub.add_parser("det")
    sd.add_argument("--eta", required=True,
                    help="comma separated weight coordinates")
    sd.add_argument("--rank", type=int, required=True)

    jz = sub.add_parser("jantzen", help="Jantzen numbers and evaluations")
    jz_sub = jz.add_subparsers(dest="subcommand", required=True)
    for name in ("closed", "engine"):
        p = jz_sub.add_parser(name)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--rank", type=int, required=True)
    je = jz_sub.add_parser("ev")
    je.add_argument("--partition", required=True)
    je.add_argument("--k", type=int, required=True)
    jv = jz_sub.add_parser("val")
    jv.add_argument("--partition", required=True)
    jv.add_argument("--k", type=int, required=True)
    jv.add_argument("--ell", type=int, default=2)

    ver = sub.add_parser("verify", help="batch verification families")
    ver.add_argument("family", choices=list(FAMILIES) + ["all"])
    # None marks a flag not given; RunConfig supplies its default
    ver.add_argument("--ell", type=int)
    ver.add_argument("--max-size", type=int)
    ver.add_argument("--rank", type=int, dest="n_rank",
                     help="theorem51 only: one rank, up to height --max-size")
    ver.add_argument("--tolerance", choices=TOLERANCES)
    ver.add_argument("--jobs", type=int, default=1)
    ver.add_argument("--format", choices=["text", "json"], default="text")
    return ap


def _cmd_fock_apply(args) -> int:
    lam = parse_partition(args.partition)
    if args.ell < 2:
        raise SystemExit2("ell must be >= 2")
    if not 0 <= args.i < args.ell:
        raise SystemExit2(f"residue {args.i} out of range for ell={args.ell}")
    op = {"E": apply_E, "F": apply_F, "K": apply_K}[args.op]
    out = op(args.i, FockVector.ket(lam), args.ell)
    if args.format == "json":
        import json
        print(json.dumps(out.to_json(), ensure_ascii=True))
    else:
        print(out.render())
    return 0


def _cmd_partition_stats(args) -> int:
    lam = parse_partition(args.partition)
    if args.ell < 2:
        raise SystemExit2("ell must be >= 2")
    data = {
        "partition": list(lam),
        "size": lam.size,
        "addable": [{"box": [b.row, b.col], "content": content(b),
                     "color": color(b, args.ell)}
                    for b in addable_boxes(lam)],
        "removable": [{"box": [b.row, b.col], "content": content(b),
                       "color": color(b, args.ell)}
                      for b in removable_boxes(lam)],
    }
    if args.format == "json":
        import json
        print(json.dumps(data, ensure_ascii=True))
    else:
        print(f"partition {','.join(map(str, lam)) or '0'}  size {lam.size}")
        for kind in ("addable", "removable"):
            rows = ", ".join(
                f"({d['box'][0]},{d['box'][1]}) c={d['content']} col={d['color']}"
                for d in data[kind])
            print(f"{kind}: {rows or 'none'}")
    return 0


def _cmd_shapovalov_det(args) -> int:
    if args.rank < 1:
        raise SystemExit2("rank must be >= 1")
    try:
        coords = tuple(int(c) for c in args.eta.split(","))
    except ValueError as exc:
        raise SystemExit2(f"bad eta {args.eta!r}: {exc}")
    if len(coords) > args.rank:
        raise SystemExit2("eta has more coordinates than the rank")
    coords = coords + (0,) * (args.rank - len(coords))
    print(shapovalov_det_closed(Weight(coords), args.rank).to_text())
    return 0


def _cmd_jantzen(args) -> int:
    if args.subcommand in ("closed", "engine"):
        if not 1 <= args.k <= args.rank:
            raise SystemExit2(f"k={args.k} out of range for rank {args.rank}")
        fn = jantzen_closed if args.subcommand == "closed" else jantzen_engine
        print(fn(args.k, args.rank).to_text())
        return 0
    lam = parse_partition(args.partition)
    if args.subcommand == "ev":
        if args.k < 1:
            raise SystemExit2("k must be >= 1")
        factors = hook_factors(lam, args.k)
        print("0" if factors is None else render_q_integers(*factors))
        return 0
    if args.subcommand == "val":
        if args.ell < 2:
            raise SystemExit2("ell must be >= 2")
        if args.k < 1:
            raise SystemExit2("k must be >= 1")
        val = jantzen_valuation(lam, args.k, args.ell)
        print("zero (adding a box on that row gives no partition)"
              if val is None else str(val))
        return 0
    raise SystemExit2(f"unknown jantzen subcommand {args.subcommand!r}")


def _cmd_verify(args) -> int:
    given = {flag: getattr(args, field) for flag, field in CONFIG_FLAGS.items()
             if getattr(args, field) is not None}
    for flag in given:
        field = CONFIG_FLAGS[flag]
        if field not in _reads(args.family):
            readers = [f for f in [*FAMILIES, "all"] if field in _reads(f)]
            if len(readers) == 1:
                raise SystemExit2(f"{flag} applies to {readers[0]} only")
            raise SystemExit2(f"{flag} does not apply to {args.family}")
        if flag == "--max-size" and args.family == "theorem51" \
                and "--rank" not in given:
            raise SystemExit2("--max-size applies to theorem51 only "
                              "together with --rank")
    try:
        config = RunConfig(jobs=args.jobs, **{CONFIG_FLAGS[flag]: value
                                              for flag, value in given.items()})
    except ValueError as exc:
        raise SystemExit2(str(exc))
    if args.family == "all":
        reports = list(run_all(config))
    else:
        reports = [run_family(args.family, config)]
    render = render_json if args.format == "json" else render_text
    sys.stdout.write("".join(map(render, reports)))
    failed = sum(rep.failed for rep in reports)
    return 1 if failed else 0


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage errors and 0 on --help
        return int(exc.code or 0)
    try:
        if args.command == "fock":
            return _cmd_fock_apply(args)
        if args.command == "partition":
            return _cmd_partition_stats(args)
        if args.command == "shapovalov":
            return _cmd_shapovalov_det(args)
        if args.command == "jantzen":
            return _cmd_jantzen(args)
        if args.command == "verify":
            return _cmd_verify(args)
    except SystemExit2 as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (EngineError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 2


if __name__ == "__main__":
    sys.exit(main())
