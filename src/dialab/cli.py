"""Command-line front end.

Every subcommand prints human-readable text by default and a stable JSON
document under --json.  Exit codes: 0 success, 1 domain error (with
{"error": name} in JSON mode), 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import finalg, freealg, homology, operads, trees
from .errors import DegreeOutOfRange, DialabError, MalformedInput, TooLarge
from .lincomb import Lin, int_str_limit, json_coeff, printable


class UsageError(Exception):
    """Missing or inconsistent flags; exits with status 2 like argparse."""


def _emit(args, human, payload):
    if args.json:
        print(json.dumps(payload, sort_keys=True))
    else:
        print(human)


def _lin_payload(x: Lin, render=str):
    return [[json_coeff(c), render(t)] for t, c in x.items()]


# ---------------------------------------------------------------------------
# subcommand handlers
# ---------------------------------------------------------------------------

# the largest degree whose trees are listed: a listing takes about 3.4 times
# the memory of the one below it, 52 MB at degree 11 and 140 MB at degree 12
_MAX_LISTED_DEGREE = 11
# the largest degree whose trees are counted: Cat_7152 has 4,300 digits, the
# most an int converts to text under CPython's default limit, and
# Cat_7153 has 4,301; a count past a lower limit is refused once computed
_MAX_COUNTED_DEGREE = 7152
# the most terms a finite complex is built with, over all its degrees: CS of
# a 4-dimensional algebra has 3,078,564 through degree 6, and 82,575,360 in
# degree 7 alone; |X_n| per theory counts the points of its index set, which
# the complex enumerates in every degree, so dimension 0 counts as 1
_MAX_COMPLEX_TERMS = 5_000_000
_POINTS = {"CY": trees.catalan, "CS": math.factorial, "CDend": lambda n: n,
           "CL": lambda n: 1, "CZinb": lambda n: 1}


def cmd_trees(args):
    if args.count and args.n is None:
        raise UsageError("--count needs --n")
    if args.n is not None:
        if args.count:
            if args.n > _MAX_COUNTED_DEGREE:
                raise TooLarge(
                    "the number of trees of degree %d has more than 4,300 "
                    "digits; counting is refused above degree %d"
                    % (args.n, _MAX_COUNTED_DEGREE))
            count = trees.catalan(args.n)
            if not printable(count):
                raise TooLarge(
                    "the number of trees of degree %d has more digits than "
                    "this interpreter converts to text (%d)"
                    % (args.n, int_str_limit()))
            _emit(args, str(count), {"n": args.n, "count": count})
        else:
            if args.n > _MAX_LISTED_DEGREE:
                raise TooLarge(
                    "listing the trees of degree %d is refused above degree "
                    "%d; --count gives their number"
                    % (args.n, _MAX_LISTED_DEGREE))
            names = [trees.format_name(t)
                     for t in trees.enumerate_trees(args.n)]
            _emit(args, "\n".join(names), {"n": args.n, "trees": names})
        return
    if args.parse is not None:
        t = trees.parse_name(args.parse)
        _emit(args, trees.format_name(t),
              {"tree": trees.format_name(t), "degree": t.degree})
        return
    if args.graft is not None:
        a, b = (trees.parse_name(s) for s in args.graft)
        t = trees.graft(a, b)
        _emit(args, trees.format_name(t), {"tree": trees.format_name(t)})
        return
    if args.split is not None:
        l, r = trees.split(trees.parse_name(args.split))
        human = "%s %s" % (trees.format_name(l), trees.format_name(r))
        _emit(args, human, {"left": trees.format_name(l),
                            "right": trees.format_name(r)})
        return
    if args.face is not None:
        t = trees.face(trees.parse_name(args.face), args.i)
        _emit(args, trees.format_name(t), {"tree": trees.format_name(t)})
        return
    if args.expand is not None:
        t = trees.expand(trees.parse_name(args.expand), args.i, args.mode)
        _emit(args, trees.format_name(t), {"tree": trees.format_name(t)})
        return
    raise UsageError("nothing to do: pass --n, --parse, --graft, "
                     "--split, --face or --expand")


def cmd_psi(args):
    if args.fiber is not None:
        y = trees.parse_name(args.fiber)
        coding = "height" if args.prime else "depth"
        fib = trees.tree_fiber(y, coding)
        names = [str(p) for p in fib]
        _emit(args, "\n".join(names),
              {"tree": trees.format_name(y), "coding": coding,
               "fiber": names})
        return
    if args.perm is None:
        raise UsageError("pass --perm or --fiber")
    sigma = trees.parse_permutation(args.perm)
    coding = "height" if args.prime else "depth"
    t = trees.perm_to_tree(sigma, coding)
    _emit(args, trees.format_name(t),
          {"perm": str(sigma), "coding": coding,
           "tree": trees.format_name(t)})


def _parse_dend(text):
    return freealg.parse_lincomb(text, freealg.parse_dend_term)


def _printable(x: Lin) -> Lin:
    """x, refused before printing when a coefficient is too long to convert
    to text."""
    if not all(map(printable, x.data.values())):
        raise TooLarge("a coefficient of the result has more than %d digits"
                       % int_str_limit())
    return x


# the product subcommands: term parser, Lin product, the flag that names the
# product (bracket takes none), the carrier whose product names are the
# flag's choices, the flag's default (None: required) and the help text
_PRODUCTS = {
    "dend-mul": (freealg.parse_dend_term, freealg.dend_mul, "op",
                 "dendriform", None, "free dendriform products"),
    "dias-mul": (freealg.parse_pointed_word, freealg.dias_mul, "op",
                 "dialgebra", None, "free two-product products"),
    "zinb-mul": (freealg.parse_word, freealg.zinb_mul, "mode",
                 "zinbiel", "dot", "half-shuffle products"),
    "bracket": (freealg.parse_pointed_word, freealg.dias_bracket, None,
                None, None, "bracket on pointed words"),
}


def cmd_product(args):
    parse_term, mul, flag = _PRODUCTS[args.command][:3]
    a, b = (freealg.parse_lincomb(s, parse_term) for s in (args.a, args.b))
    named = {flag: getattr(args, flag)} if flag else {}
    out = _printable(mul(a, b, *named.values()))
    _emit(args, out.format(), dict(named, result=_lin_payload(out)))


def _read(path):
    """The text of an input file; one that cannot be read as UTF-8 text is
    malformed input."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise MalformedInput("cannot read %s: %s" % (path, exc)) from None


def _load_algebra(path, check=True):
    return finalg.FiniteAlgebra.from_json(_read(path), check=check)


def cmd_axioms(args):
    alg = _load_algebra(args.file, check=False)
    report = finalg.check_axioms(alg)
    if report == "pass":
        _emit(args, "pass", {"report": "pass"})
    else:
        human = "\n".join(
            "axiom %s fails at basis triple %s" % (a, list(w))
            for a, w in report)
        _emit(args, human,
              {"report": [[a, list(w)] for a, w in report]})


def cmd_halo(args):
    alg = _load_algebra(args.file)
    halo = finalg.bar_units(alg)
    if halo.is_empty:
        _emit(args, "empty", {"empty": True})
        return
    payload = {
        "empty": False,
        "point": [json_coeff(c) for c in halo.point],
        "directions": [[json_coeff(c) for c in d] for d in halo.directions],
    }
    human = "point: %s\naffine dimension: %d" % (
        payload["point"], len(halo.directions))
    _emit(args, human, payload)


def cmd_assoc(args):
    alg = _load_algebra(args.file)
    quotient, _ = finalg.associativization(alg)
    text = quotient.to_json()
    print(text if args.json else
          "dimension %d\n%s" % (quotient.dim, text))


def cmd_homology(args):
    if args.max_degree < 0:
        raise DegreeOutOfRange(
            "--max-degree must be >= 0, got %d" % args.max_degree)
    if args.free:
        if args.weight is None:
            raise UsageError("--free needs --weight")
        # the piece on k letters is the direct sum of k^weight copies of the
        # one-letter piece (FreePiece); a k below 1 is passed on for its error
        source = ("free", min(args.dimv, 1))
        cx = homology.build_complex(
            args.theory, source, args.max_degree + 1, weight=args.weight)
        betti = cx.betti_table(min(args.max_degree, args.weight))
        copies = args.dimv ** args.weight
        payload = {
            "theory": args.theory,
            "weight": args.weight,
            "betti": {str(n): b * copies for n, b in betti.items()},
        }
    else:
        if not args.file:
            raise UsageError("pass --file or --free")
        alg = _load_algebra(args.file)
        if alg.kind == "associative" and args.theory in ("CY", "CS"):
            alg = finalg.as_dialgebra(alg)  # equal left and right products
        terms = 0
        for n in range(1, args.max_degree + 2):
            terms += _POINTS[args.theory](n) * max(alg.dim, 1) ** n
            if terms > _MAX_COMPLEX_TERMS:
                raise TooLarge(
                    "%s of a %d-dimensional algebra through degree %d "
                    "exceeds the budget of %d terms"
                    % (args.theory, alg.dim, n, _MAX_COMPLEX_TERMS))
        cx = homology.build_complex(args.theory, alg, args.max_degree + 1)
        betti = cx.betti_table(args.max_degree)
        payload = {
            "theory": args.theory,
            "betti": {str(n): b for n, b in betti.items()},
        }
    human = "\n".join(
        "H_%s = Q^%s" % (n, b) for n, b in sorted(
            payload["betti"].items(), key=lambda kv: int(kv[0])))
    _emit(args, human, payload)


def cmd_koszul_dual(args):
    if args.preset:
        q = operads.preset_quadratic(args.preset)
    elif args.file:
        try:
            doc = json.loads(_read(args.file))
        except json.JSONDecodeError as exc:
            raise MalformedInput(
                "not a quadratic-data document: %s" % (exc,)) from exc
        q = operads.QuadraticData.from_json_dict(doc)
    else:
        raise UsageError("pass --preset or --file")
    dual = operads.quadratic_dual(q)
    payload = dual.to_json_dict()
    human = "generators: %s\nrelations (%d):\n%s" % (
        " ".join(dual.generators), dual.n_relations,
        "\n".join(str(r) for r in payload["relations"]))
    _emit(args, human, payload)


def cmd_poincare(args):
    report = operads.poincare_check(args.degree)
    series = report["dias" if args.preset == "dias" else "dend"]
    coeffs = [json_coeff(c) for c in series.coeffs]
    payload = {
        "preset": args.preset,
        "degree": args.degree,
        "coefficients": coeffs,
        "closed_form_ok": report["%s_closed_form_ok" % args.preset],
    }
    lines = ["coefficients: %s" % (coeffs,)]
    if args.check_inverse:
        payload["inverse_ok"] = report["inverse_ok"]
        lines.append(
            "OK: g_Dend(g_Dias(x)) = x mod x^%d" % (args.degree + 1)
            if report["inverse_ok"] else "FAIL: composition is not x")
    _emit(args, "\n".join(lines), payload)


def cmd_compose(args):
    outer = trees.parse_name(args.outer)
    inner = trees.parse_name(args.inner)
    report = operads.compose_report(outer, args.pos, inner)
    value = report["value"]
    payload = {
        "result": _lin_payload(value, trees.format_name),
        "printed_orientation_matches": report["printed_orientation_matches"],
        "mirrored_orientation_matches":
            report["mirrored_orientation_matches"],
    }
    _emit(args, value.format(trees.format_name), payload)


def cmd_sh_relations(args):
    rels = operads.sh_relations(args.n)
    payload = {"n": args.n,
               "relations": [r.to_json_dict() for _, r in rels]}
    lines = []
    for y, r in rels:
        lines.append("tree %s: %d terms" % (trees.format_name(y),
                                            len(r.terms)))
    _emit(args, "\n".join(lines), payload)


def cmd_zinb_map(args):
    if args.tree:
        term = freealg.DendTerm(
            trees.parse_name(args.tree),
            tuple(args.letters.split()) if args.letters else tuple(
                "x%d" % i
                for i in range(1, trees.parse_name(args.tree).degree + 1)))
        x = Lin.term(term)
    elif args.term is not None:
        x = _parse_dend(args.term)
    else:
        raise UsageError("pass --tree or --term")
    out = _printable(freealg.dendriform_to_zinbiel(x))
    _emit(args, out.format(), {"result": _lin_payload(out)})


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    p = argparse.ArgumentParser(
        prog="dialab",
        description="planar-tree and two-product algebra calculator")
    sub = p.add_subparsers(dest="command", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        sp.add_argument("--json", action="store_true",
                        help="machine-readable output")
        return sp

    sp = add("trees", cmd_trees, help="enumerate and edit trees")
    sp.add_argument("--n", type=int)
    sp.add_argument("--count", action="store_true")
    sp.add_argument("--parse")
    sp.add_argument("--graft", nargs=2, metavar=("LEFT", "RIGHT"))
    sp.add_argument("--split")
    sp.add_argument("--face")
    sp.add_argument("--expand")
    sp.add_argument("--i", type=int, default=0)
    sp.add_argument("--mode", choices=["bifurcate", "parallel_last"],
                    default="bifurcate")

    sp = add("psi", cmd_psi, help="permutation/tree codings")
    sp.add_argument("--perm")
    sp.add_argument("--prime", action="store_true",
                    help="use the height coding")
    sp.add_argument("--fiber", metavar="TREE")

    for name, (_, _, flag, kind, default, text) in _PRODUCTS.items():
        sp = add(name, cmd_product, help=text)
        if flag:
            sp.add_argument("--" + flag,
                            choices=list(freealg.FREE[kind].products),
                            required=default is None, default=default)
        sp.add_argument("a")
        sp.add_argument("b")

    for name, fn in (("axioms", cmd_axioms), ("halo", cmd_halo),
                     ("assoc", cmd_assoc)):
        sp = add(name, fn, help="%s of a structure-constant algebra" % name)
        sp.add_argument("--file", required=True)

    sp = add("homology", cmd_homology, help="exact Betti numbers")
    sp.add_argument("--file")
    sp.add_argument("--free", action="store_true")
    sp.add_argument("--dimv", type=int, default=1)
    sp.add_argument("--weight", type=int)
    sp.add_argument("--theory", choices=list(homology.THEORIES),
                    default="CY")
    sp.add_argument("--max-degree", type=int, default=4)

    sp = add("koszul-dual", cmd_koszul_dual, help="dual quadratic data")
    sp.add_argument("--preset", choices=["dias", "dend", "as"])
    sp.add_argument("--file")

    sp = add("poincare", cmd_poincare, help="series and inversion check")
    sp.add_argument("--preset", choices=["dias", "dend"], default="dias")
    sp.add_argument("--degree", type=int, default=10)
    sp.add_argument("--check-inverse", action="store_true")

    sp = add("compose", cmd_compose, help="substitution of tree operations")
    sp.add_argument("--outer", required=True)
    sp.add_argument("--pos", type=int, required=True)
    sp.add_argument("--inner", required=True)

    sp = add("sh-relations", cmd_sh_relations,
             help="homotopy-algebra relation lists")
    sp.add_argument("--n", type=int, required=True)

    sp = add("zinb-map", cmd_zinb_map,
             help="free dendriform to free half-shuffle algebra")
    sp.add_argument("--tree")
    sp.add_argument("--letters")
    sp.add_argument("--term")

    return p


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.fn(args)
    except UsageError as exc:
        print("usage error: %s" % (exc,), file=sys.stderr)
        return 2
    except DialabError as exc:
        if getattr(args, "json", False):
            print(json.dumps({"error": type(exc).__name__,
                              "message": str(exc)}, sort_keys=True))
        else:
            print("error: %s: %s" % (type(exc).__name__, exc),
                  file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
