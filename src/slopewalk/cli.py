"""Command-line surface.

Subcommands mirror the library: slopes, twin, pingpong, oc, nregular,
hatada, wval. Primary output is deterministic schema-versioned JSON on
stdout (byte-identical across identical invocations); --csv switches the
tabular commands to CSV. Exit codes: 0 ok, 2 precondition error,
3 verification failure, 4 internal invariant breach.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from . import __version__
from .cache import ResultCache, code_version, resolve_cache_dir
from .eigencurve import (
    EigencurvePointModel,
    annulus_index,
    classify,
    classify_slope,
    twin,
    twin_index_sum_check,
)
from .errors import (
    InvariantError,
    PreconditionError,
    SlopewalkError,
    VerificationFailure,
)
from .overconvergent import (
    OcSlopeReport,
    oc_slopes,
    slopes_to_csv,
    slopes_to_plot_data,
    u2_matrix_weight0,
)
from .linalg import rational_roots
from .padic import NewtonPolygon
from .pingpong import connect, verify_certificate_json
from .serialize import exact_decimal, json_dumps_stable, rat_from_str, rat_to_str
from .spaces import (
    Level,
    build_basis,
    charpoly,
    cusp_subspace_level1,
    hatada_check,
    is_n_regular,
    operator_matrix,
    ratio_order,
    refinement,
)
from .weightspace import WeightCharacter, in_boundary, w_valuation

SCHEMA = 1


def _emit(text: str) -> None:
    sys.stdout.write(text + "\n")


def _pretty_poly(coeffs) -> str:
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = Fraction(coeffs[i])
        if c == 0:
            continue
        if i == 0:
            parts.append(f"{c}")
        else:
            mon = "X" if i == 1 else f"X^{i}"
            if c == 1:
                parts.append(mon)
            elif c == -1:
                parts.append(f"-{mon}")
            else:
                parts.append(f"{c}*{mon}")
    return " + ".join(parts).replace("+ -", "- ") or "0"


def _point_from_args(k: int, m: int, slope_str: str) -> EigencurvePointModel:
    return EigencurvePointModel(WeightCharacter(k, m), rat_from_str(slope_str))


def _pos_or_flag(parser_args, positional, flag, cast):
    """Commands mirror their documented positional form but every parameter
    is also reachable as a flag; exactly one spelling must be used."""
    name = positional.removesuffix("_pos")
    pos_val = getattr(parser_args, positional)
    flag_val = getattr(parser_args, flag)
    if pos_val is None and flag_val is None:
        raise PreconditionError(f"missing argument: give {name} positionally or as --{name}")
    if pos_val is not None and flag_val is not None:
        raise PreconditionError(f"{name} given both positionally and as --{name}")
    return cast(pos_val if pos_val is not None else flag_val)


def _cmd_slopes(args) -> int:
    level = Level(args.level)
    key = {
        "command": "slopes",
        "level": args.level,
        "k": args.k,
        "op": args.op,
        "p": args.p,
        "code": code_version(),
    }
    cache = _open_cache(args)

    def compute() -> str:
        space = build_basis(level, args.k)
        if level is Level.SL2Z:
            space = cusp_subspace_level1(space)
        if space.dim == 0:
            obj = {"schema": SCHEMA, "level": args.level, "k": args.k, "operator": args.op,
                   "dim": 0, "charpoly": ["1/1"], "slopes": [], "zero_roots": 0,
                   "classification": [], "refinements": []}
            return json_dumps_stable(obj)
        mat = operator_matrix(args.op, space, p=args.p)
        cp = charpoly(mat)
        polygon = NewtonPolygon.from_polynomial(cp, 2)
        slopes = polygon.slopes()
        refinements = []
        if level is Level.SL2Z and args.op == "t2":
            for root, mult in rational_roots(cp):
                if root == 0:
                    continue
                model = refinement(root, args.k, 2)
                refinements.append(
                    {
                        "eigenvalue": rat_to_str(root),
                        "multiplicity": mult,
                        "slopes": [rat_to_str(Fraction(model.alpha_val)),
                                   rat_to_str(Fraction(model.beta_val))],
                    }
                )
        obj = {
            "schema": SCHEMA,
            "level": args.level,
            "k": args.k,
            "operator": mat.operator,
            "dim": space.dim,
            "charpoly": [rat_to_str(Fraction(c)) for c in cp],
            "charpoly_pretty": _pretty_poly(cp),
            "slopes": [rat_to_str(s) for s in slopes],
            "zero_roots": polygon.zero_root_multiplicity,
            "classification": [
                {"slope": rat_to_str(s), "class": classify_slope(s, args.k)} for s in slopes
            ],
            "refinements": refinements,
        }
        if args.op == "u2":
            # Eisenstein slopes follow the stabilization pattern {0, k-1};
            # peel one copy of each off the report when present
            remaining = list(slopes)
            eis = []
            for s in (Fraction(0), Fraction(args.k - 1)):
                if s in remaining:
                    remaining.remove(s)
                    eis.append(s)
            obj["eisenstein_pattern_slopes"] = [rat_to_str(s) for s in eis]
            obj["cuspidal_slopes"] = [rat_to_str(s) for s in remaining]
        # full serialized basis + matrix travel with the payload so a cache
        # entry is self-contained
        mat_obj = mat.to_json_obj()
        obj["prec"] = mat_obj["prec"]
        obj["basis"] = mat_obj["basis"]
        obj["matrix"] = mat_obj["matrix"]
        return json_dumps_stable(obj)

    payload, ok = _cached_compute(cache, key, compute, args.verify_cache)
    obj = json.loads(payload)
    if args.plot:
        # weight-vs-slope rows; appending sweeps over k builds a plot file
        with open(args.plot, "a") as fh:
            for entry in obj["classification"]:
                fh.write(f"{args.k} {exact_decimal(rat_from_str(entry['slope']))}\n")
    if args.csv:
        lines = ["k,index,slope_num,slope_den,class"]
        for idx, entry in enumerate(obj["classification"]):
            s = rat_from_str(entry["slope"])
            lines.append(f"{args.k},{idx},{s.numerator},{s.denominator},{entry['class']}")
        _emit("\n".join(lines))
    else:
        _emit(payload)
    return 0 if ok else 3


def _cmd_twin(args) -> int:
    k = _pos_or_flag(args, "k_pos", "k", int)
    m = _pos_or_flag(args, "m_pos", "m", int)
    slope = _pos_or_flag(args, "slope_pos", "slope", str)
    pt = _point_from_args(k, m, slope)
    tw = twin(pt)
    obj = {
        "schema": SCHEMA,
        "point": pt.to_json_obj(),
        "twin": tw.to_json_obj(),
        "classify": {"point": classify(pt), "twin": classify(tw)},
    }
    if in_boundary(pt.wc):
        obj["indices"] = [annulus_index(pt), annulus_index(tw)]
        obj["index_sum_ok"] = twin_index_sum_check(pt)
    _emit(json_dumps_stable(obj))
    return 0


def _cmd_pingpong(args) -> int:
    cert = connect(args.i_start, args.i_end)
    obj = cert.to_json_obj()
    payload = json_dumps_stable(obj)
    if args.emit:
        with open(args.emit, "w") as fh:
            fh.write(payload + "\n")
    if args.verify:
        violations = verify_certificate_json(obj)
        if violations:
            for v in violations:
                _emit(f"violation move={v.move} {v.code}: {v.detail}")
            return 3
        _emit("ok")
    _emit(payload)
    return 0


def _cmd_verify(args) -> int:
    with open(args.certificate) as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise PreconditionError(f"{args.certificate}: JSON nested too deeply") from None
    violations = verify_certificate_json(obj)
    if violations:
        for v in violations:
            _emit(f"violation move={v.move} {v.code}: {v.detail}")
        return 3
    _emit("ok")
    return 0


def _cmd_oc(args) -> int:
    prec = args.prec if args.prec is not None else 2 * args.trunc + 8
    key = {"command": "oc", "trunc": args.trunc, "prec": prec, "code": code_version()}
    cache = _open_cache(args)

    def compute() -> str:
        op = u2_matrix_weight0(args.trunc, prec)
        report = oc_slopes(op)
        obj = report.to_json_obj()
        obj["schema"] = SCHEMA
        obj["q_prec"] = prec
        obj["integral"] = op.integral
        obj["column_min_valuations"] = [
            None if v is None else rat_to_str(v) for v in op.column_min_valuations
        ]
        obj["row_min_valuations"] = [
            None if v is None else rat_to_str(v) for v in op.row_min_valuations
        ]
        obj["residual_margins"] = list(op.residual_margins)
        return json_dumps_stable(obj)

    payload, ok = _cached_compute(cache, key, compute, args.verify_cache)
    obj = json.loads(payload)
    report = OcSlopeReport(
        obj["size"], tuple(rat_from_str(s) for s in obj["slopes"]), obj["zero_roots"], None, None
    )
    if args.plot:
        with open(args.plot, "w") as fh:
            fh.write(slopes_to_plot_data(report) + "\n")
    if args.csv:
        _emit(slopes_to_csv(report))
    else:
        _emit(payload)
    return 0 if ok else 3


def _cmd_nregular(args) -> int:
    a = _pos_or_flag(args, "a_pos", "a", str)
    k = _pos_or_flag(args, "k_pos", "k", int)
    p = _pos_or_flag(args, "p_pos", "p", int)
    n = _pos_or_flag(args, "n_pos", "n", int)
    order = ratio_order(rat_from_str(a), k, p)
    answer = is_n_regular(rat_from_str(a), k, p, n)
    obj = {
        "schema": SCHEMA,
        "a": a,
        "k": k,
        "p": p,
        "n": n,
        "ratio_order": "infinite" if not isinstance(order, int) else order,
        "n_regular": answer,
    }
    _emit(json_dumps_stable(obj))
    return 0


def _cmd_hatada(args) -> int:
    ks = list(range(12, args.kmax + 1, 2))
    report = hatada_check(ks)
    obj = {
        "schema": SCHEMA,
        "entries": [
            {
                "k": e.k,
                "dim": e.dim,
                "charpoly": [rat_to_str(Fraction(c)) for c in e.charpoly],
                "mod3_ok": e.mod3_ok,
                "mod8_ok": e.mod8_ok,
                "constant_nonzero": e.constant_nonzero,
                "slopes_positive": e.slopes_positive,
                "passed": e.passed,
            }
            for e in report.entries
        ],
        "all_passed": report.all_passed,
    }
    _emit(json_dumps_stable(obj))
    return 0 if report.all_passed else 3


def _cmd_wval(args) -> int:
    k = _pos_or_flag(args, "k_pos", "k", int)
    m = _pos_or_flag(args, "m_pos", "m", int)
    wc = WeightCharacter(k, m)
    v = w_valuation(wc)
    obj = {
        "schema": SCHEMA,
        "k": k,
        "m": m,
        "v_w": rat_to_str(v),
        "in_boundary": in_boundary(wc),
    }
    _emit(json_dumps_stable(obj))
    return 0


def _open_cache(args) -> ResultCache | None:
    directory = resolve_cache_dir(getattr(args, "cache_dir", None))
    return ResultCache(directory) if directory else None


def _cached_compute(cache, key, compute, verify_cache: bool) -> tuple[str, bool]:
    """Returns (payload, ok). With --verify-cache the cached payload is
    compared byte-for-byte against a fresh recomputation."""
    if cache is None:
        return compute(), True
    if verify_cache:
        fresh = compute()
        ok = cache.verify(key, fresh)
        cache.put(key, fresh)
        return fresh, ok
    cached = cache.get(key)
    if cached is not None:
        return cached, True
    fresh = compute()
    cache.put(key, fresh)
    return fresh, True


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slopewalk",
        description="Exact 2-adic slope computations and annulus-walk certificates.",
    )
    parser.add_argument("--version", action="version", version=f"slopewalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("slopes", help="operator slopes on a classical space")
    p.add_argument("--level", required=True, choices=[lv.value for lv in Level])
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--op", required=True, choices=["t2", "u2", "tp"])
    p.add_argument("--p", type=int, default=None, help="prime for --op tp")
    p.add_argument("--json", action="store_true", help="JSON output (default)")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--plot", default=None, help="append 'k slope' rows to this data file")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--verify-cache", action="store_true")
    p.set_defaults(func=_cmd_slopes)

    p = sub.add_parser("twin", help="twin point and index bookkeeping")
    p.add_argument("k_pos", metavar="k", nargs="?", type=int, default=None)
    p.add_argument("m_pos", metavar="m", nargs="?", type=int, default=None)
    p.add_argument("slope_pos", metavar="slope", nargs="?", default=None,
                   help="rational, e.g. 2 or 7/8")
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.add_argument("--slope", default=None)
    p.set_defaults(func=_cmd_twin)

    p = sub.add_parser("pingpong", help="emit (and optionally verify) a walk certificate")
    p.add_argument("i_start", type=int)
    p.add_argument("i_end", type=int)
    p.add_argument("--verify", action="store_true")
    p.add_argument("--emit", default=None, help="also write the certificate to this file")
    p.add_argument("--json", action="store_true", help="JSON output (default)")
    p.set_defaults(func=_cmd_pingpong)

    p = sub.add_parser("verify", help="verify a certificate file")
    p.add_argument("certificate")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("oc", help="truncated weight-0 U_2 slopes")
    p.add_argument("--trunc", required=True, type=int, help="truncation size N")
    p.add_argument("--prec", type=int, default=None, help="q-precision (default 2N+8)")
    p.add_argument("--json", action="store_true", help="JSON output (default)")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--plot", default=None, help="write gnuplot-ready data to this file")
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--verify-cache", action="store_true")
    p.set_defaults(func=_cmd_oc)

    p = sub.add_parser("nregular", help="n-regularity of a refinement ratio")
    p.add_argument("a_pos", metavar="a", nargs="?", default=None,
                   help="Hecke eigenvalue a_p (rational)")
    p.add_argument("k_pos", metavar="k", nargs="?", type=int, default=None)
    p.add_argument("p_pos", metavar="p", nargs="?", type=int, default=None)
    p.add_argument("n_pos", metavar="n", nargs="?", type=int, default=None)
    p.add_argument("--a", default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--p", type=int, default=None)
    p.add_argument("--n", type=int, default=None)
    p.set_defaults(func=_cmd_nregular)

    p = sub.add_parser("hatada", help="congruence/non-ordinarity sweep over level-1 weights")
    p.add_argument("--kmax", type=int, default=60)
    p.set_defaults(func=_cmd_hatada)

    p = sub.add_parser("wval", help="weight-coordinate valuation and boundary membership")
    p.add_argument("k_pos", metavar="k", nargs="?", type=int, default=None)
    p.add_argument("m_pos", metavar="m", nargs="?", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    p.add_argument("--m", type=int, default=None)
    p.set_defaults(func=_cmd_wval)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except VerificationFailure as exc:
        print(f"verification failure: {exc}", file=sys.stderr)
        return 3
    except InvariantError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 4
    except (SlopewalkError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
