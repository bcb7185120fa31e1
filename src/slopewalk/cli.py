"""Command-line surface.

Subcommands mirror the library: slopes, twin, pingpong, verify, oc,
nregular, hatada, wval. Primary output is deterministic schema-versioned JSON
on stdout (byte-identical across identical invocations); --csv switches the
tabular commands to CSV. Exit codes: 0 ok, 2 precondition error,
3 verification failure, 4 internal invariant breach or any other unexpected
error.

Importing this module, and serving a cached slopes or oc payload, executes
only cli, cache, serialize and errors of the package; the compute modules
load when a command computes.
"""

from __future__ import annotations

import argparse
import importlib.util
import json
import sys
from fractions import Fraction

from . import __version__
from .cache import ResultCache, code_version, resolve_cache_dir
from .errors import InvariantError, PreconditionError, SlopewalkError
from .serialize import exact_decimal, json_dumps_stable, rat_from_str, rat_to_str


def _lazy_module(name: str):
    """The module `name`, bound now and executed on its first attribute access."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    parent, _, child = name.rpartition(".")
    setattr(sys.modules[parent], child, module)
    return module


# spaces (and through it linalg, padic and qseries) executes on its first
# use. It is a lazily executed module rather than a function-level import
# because the benchmark's tracer (perfbench/tracing.py) patches functions in
# sys.modules["slopewalk.spaces"] after importing only cli; once spans live
# inside slopewalk (ROADMAP item 5), this becomes a plain import in the
# commands that use it. The eigencurve, overconvergent, pingpong and
# weightspace modules are imported by the commands that use them, slopes and
# oc inside compute(), so a warm slopes or oc hit loads no compute module.
spaces = _lazy_module(f"{__package__}.spaces")

SCHEMA = 1


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


def _print_json(obj: dict) -> None:
    print(json_dumps_stable({"schema": SCHEMA, **obj}))


def _print_violations(violations) -> int:
    """One line per violation and exit 3, or "ok" and exit 0."""
    for v in violations:
        print(f"violation move={v.move} {v.code}: {v.detail}")
    if violations:
        return 3
    print("ok")
    return 0


def _serve(args, key: dict, compute, render) -> int:
    """The cached-payload path of slopes and oc.

    The payload (JSON text) comes from the cache when it holds the key and
    from compute() otherwise; a cached payload that does not decode and
    render counts as a miss and is replaced. With --verify-cache it is
    recomputed and compared byte-for-byte with the cached one, and a
    mismatch exits 3. render(obj) gives the CSV text and the --plot file
    text of the decoded payload. The key gets code_version(), the source
    fingerprint, only when a cache is in use, so an uncached run reads no
    source file.
    """
    directory = resolve_cache_dir(args.cache_dir)
    cache = None
    if directory:
        key["code"] = code_version()
        cache = ResultCache(directory)
    payload = None if cache is None or args.verify_cache else cache.get(key)
    try:
        rendered = None if payload is None else render(json.loads(payload))
    except (ValueError, TypeError, KeyError, IndexError, AttributeError, RecursionError):
        payload = None
    ok = True
    if payload is None:
        payload = compute()
        if cache is not None:
            ok = not args.verify_cache or cache.verify(key, payload)
            cache.put(key, payload)
        rendered = render(json.loads(payload))
    csv, plot = rendered
    if args.plot:
        with open(args.plot, args.plot_mode) as fh:
            fh.write(plot)
    print(csv if args.csv else payload)
    return 0 if ok else 3


def _cmd_slopes(args) -> int:
    def compute() -> str:
        from .eigencurve import classify_slope
        from .linalg import rational_roots
        from .padic import NewtonPolygon

        level = spaces.Level(args.level)
        # the weight, then T_p's precision cap, then the operator, all before
        # the basis is built (a 0 space never reaches operator_matrix)
        prec_hint = spaces.tp_precision(level, args.k, args.p if args.op == "tp" else None)
        spaces.operator_prime(args.op, level, args.p)
        space = spaces.build_basis(level, args.k, prec_hint)
        if level is spaces.Level.SL2Z:
            space = spaces.cusp_subspace_level1(space)
        if space.dim == 0:
            obj = {"schema": SCHEMA, "level": args.level, "k": args.k, "operator": args.op,
                   "dim": 0, "charpoly": ["1/1"], "slopes": [], "zero_roots": 0,
                   "classification": [], "refinements": []}
            return json_dumps_stable(obj)
        mat = spaces.operator_matrix(args.op, space, p=args.p)
        cp = spaces.charpoly(mat)
        polygon = NewtonPolygon.from_polynomial(cp, 2)
        slopes = polygon.slopes
        refinements = []
        if level is spaces.Level.SL2Z and args.op == "t2":
            for root, mult in rational_roots(cp):
                if root == 0:
                    continue
                model = spaces.refinement(root, args.k, 2)
                refinements.append(
                    {
                        "eigenvalue": rat_to_str(root),
                        "multiplicity": mult,
                        "slopes": [rat_to_str(model.alpha_val), rat_to_str(model.beta_val)],
                    }
                )
        obj = {
            "schema": SCHEMA,
            "level": args.level,
            "k": args.k,
            "operator": mat.operator,
            "dim": space.dim,
            "charpoly": [rat_to_str(c) for c in cp],
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

    def render(obj) -> tuple[str, str]:
        slopes = [rat_from_str(entry["slope"]) for entry in obj["classification"]]
        csv = ["k,index,slope_num,slope_den,class"] + [
            f"{args.k},{idx},{s.numerator},{s.denominator},{entry['class']}"
            for idx, (s, entry) in enumerate(zip(slopes, obj["classification"]))
        ]
        # weight-vs-slope rows; appending sweeps over k builds a plot file
        return "\n".join(csv), "".join(f"{args.k} {exact_decimal(s)}\n" for s in slopes)

    key = {"command": "slopes", "level": args.level, "k": args.k, "op": args.op, "p": args.p}
    return _serve(args, key, compute, render)


def _cmd_twin(args) -> int:
    from .eigencurve import (
        EigencurvePointModel,
        annulus_index,
        classify,
        twin,
        twin_index_sum_check,
    )
    from .weightspace import WeightCharacter, in_boundary

    pt = EigencurvePointModel(WeightCharacter(args.k, args.m), rat_from_str(args.slope))
    tw = twin(pt)
    obj = {
        "point": pt.to_json_obj(),
        "twin": tw.to_json_obj(),
        "classify": {"point": classify(pt), "twin": classify(tw)},
    }
    if in_boundary(pt.wc):
        obj["indices"] = [annulus_index(pt), annulus_index(tw)]
        obj["index_sum_ok"] = twin_index_sum_check(pt)
    _print_json(obj)
    return 0


def _cmd_pingpong(args) -> int:
    from .pingpong import connect, verify_certificate_json

    obj = connect(args.i_start, args.i_end).to_json_obj()
    payload = json_dumps_stable(obj)
    if args.emit:
        with open(args.emit, "w") as fh:
            fh.write(payload + "\n")
    if args.verify and _print_violations(verify_certificate_json(obj)):
        return 3
    print(payload)
    return 0


def _cmd_verify(args) -> int:
    from .pingpong import verify_certificate_json

    with open(args.certificate) as fh:
        try:
            obj = json.load(fh)
        except RecursionError:
            raise PreconditionError(f"{args.certificate}: JSON nested too deeply") from None
    return _print_violations(verify_certificate_json(obj))


def _cmd_oc(args) -> int:
    prec = args.prec if args.prec is not None else 2 * args.trunc + 8

    def compute() -> str:
        from .overconvergent import oc_slopes, u2_matrix_weight0

        op = u2_matrix_weight0(args.trunc, prec)
        polygon = oc_slopes(op)
        obj = {
            "schema": SCHEMA,
            "size": op.size,
            "slopes": [rat_to_str(s) for s in polygon.slopes],
            "zero_roots": polygon.zero_root_multiplicity,
            "compared_to": None,
            "stable_prefix": None,
            "q_prec": prec,
            # every entry is x // 2 of an int, and an odd x raises InvariantError
            "integral": True,
            "column_min_valuations": [
                None if v is None else rat_to_str(v) for v in op.column_min_valuations
            ],
            "row_min_valuations": [
                None if v is None else rat_to_str(v) for v in op.row_min_valuations
            ],
            "residual_margins": list(op.residual_margins),
        }
        return json_dumps_stable(obj)

    def render(obj) -> tuple[str, str]:
        slopes = [rat_from_str(s) for s in obj["slopes"]]
        csv = ["N,index,slope_num,slope_den"] + [
            f"{obj['size']},{idx},{s.numerator},{s.denominator}" for idx, s in enumerate(slopes)
        ]
        plot = "\n".join(f"{idx} {exact_decimal(s)}" for idx, s in enumerate(slopes)) + "\n"
        return "\n".join(csv), plot

    return _serve(args, {"command": "oc", "trunc": args.trunc, "prec": prec}, compute, render)


def _cmd_nregular(args) -> int:
    a = rat_from_str(args.a)
    order = spaces.ratio_order(a, args.k, args.p)
    _print_json({"a": args.a, "k": args.k, "p": args.p, "n": args.n,
                 "ratio_order": "infinite" if order is None else order,
                 "n_regular": spaces.is_n_regular(a, args.k, args.p, args.n)})
    return 0


def _cmd_hatada(args) -> int:
    report = spaces.hatada_check(range(12, args.kmax + 1, 2))
    entries = [
        {**e._asdict(), "charpoly": [rat_to_str(c) for c in e.charpoly], "passed": e.passed}
        for e in report.entries
    ]
    _print_json({"entries": entries, "all_passed": report.all_passed})
    return 0 if report.all_passed else 3


def _cmd_wval(args) -> int:
    from .weightspace import WeightCharacter, in_boundary, w_valuation

    wc = WeightCharacter(args.k, args.m)
    v_w = rat_to_str(w_valuation(wc))
    _print_json({"k": args.k, "m": args.m, "v_w": v_w, "in_boundary": in_boundary(wc)})
    return 0


def _dual(p, name: str, type=None, help=None) -> None:
    """Declare parameter `name` both as an optional positional (stored as
    `name_pos`) and as the flag --name; main() requires exactly one of the
    two spellings and stores its value as args.name."""
    p.add_argument(f"{name}_pos", metavar=name, nargs="?", type=type, help=help)
    p.add_argument(f"--{name}", type=type)


def _payload_flags(p, plot_help: str, plot_mode: str) -> None:
    """The output and cache flags of the cached-payload commands (_serve)."""
    p.add_argument("--json", action="store_true", help="JSON output (default)")
    p.add_argument("--csv", action="store_true")
    p.add_argument("--plot", default=None, help=plot_help)
    p.add_argument("--cache-dir", default=None)
    p.add_argument("--verify-cache", action="store_true")
    p.set_defaults(plot_mode=plot_mode)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slopewalk",
        description="Exact 2-adic slope computations and annulus-walk certificates.",
    )
    parser.add_argument("--version", action="version", version=f"slopewalk {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("slopes", help="operator slopes on a classical space")
    # the values of spaces.Level, spelt out so that parsing loads no compute module
    p.add_argument("--level", required=True, choices=("sl2z", "gamma0_2", "gamma1_4"))
    p.add_argument("--k", required=True, type=int)
    p.add_argument("--op", required=True, choices=["t2", "u2", "tp"])
    p.add_argument("--p", type=int, default=None, help="prime for --op tp")
    _payload_flags(p, "append 'k slope' rows to this data file", "a")
    p.set_defaults(func=_cmd_slopes)

    p = sub.add_parser("twin", help="twin point and index bookkeeping")
    _dual(p, "k", int)
    _dual(p, "m", int)
    _dual(p, "slope", help="rational, e.g. 2 or 7/8")
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
    _payload_flags(p, "write gnuplot-ready data to this file", "w")
    p.set_defaults(func=_cmd_oc)

    p = sub.add_parser("nregular", help="n-regularity of a refinement ratio")
    _dual(p, "a", help="Hecke eigenvalue a_p (rational)")
    _dual(p, "k", int)
    _dual(p, "p", int)
    _dual(p, "n", int)
    p.set_defaults(func=_cmd_nregular)

    p = sub.add_parser("hatada", help="congruence/non-ordinarity sweep over level-1 weights")
    p.add_argument("--kmax", type=int, default=60)
    p.set_defaults(func=_cmd_hatada)

    p = sub.add_parser("wval", help="weight-coordinate valuation and boundary membership")
    _dual(p, "k", int)
    _dual(p, "m", int)
    p.set_defaults(func=_cmd_wval)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        # the parameters declared by _dual, in declaration order
        for name in [d.removesuffix("_pos") for d in vars(args) if d.endswith("_pos")]:
            given = [v for v in (getattr(args, f"{name}_pos"), getattr(args, name)) if v is not None]
            if not given:
                raise PreconditionError(f"missing argument: give {name} positionally or as --{name}")
            if len(given) == 2:
                raise PreconditionError(f"{name} given both positionally and as --{name}")
            setattr(args, name, given[0])
        return args.func(args)
    except PreconditionError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except InvariantError as exc:
        print(f"internal invariant breach: {exc}", file=sys.stderr)
        return 4
    except (SlopewalkError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal invariant breach: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
