"""Command-line interface.

Subcommands: count, sequence, table, enumerate, series, growth, paths,
trees, verify, bfile.  Exit codes: 0 success, 1 verification mismatch,
2 usage error (including an unreadable fixture file), 3 a cap exceeded:
the enumeration cap of the oracle, ``paths`` and ``trees``, or the work
limit of ``counting`` for one count or a whole ``table``.

Every call is a fresh process, so each subcommand imports the modules it
calls itself, inside its function: ``count`` loads only ``counting`` and
``monomial``.  ``series`` prints the values of the ``LengthSequence`` that
``series.series_for`` returns.  ``growth`` prints g and rho with only the
decimals (up to six) that its certified enclosure fixes, and exits 2 when
``tol`` fixes none.
"""

from __future__ import annotations

import argparse
import math
import sys

from .monomial import Regime, encode_word, format_monomial, word_to_text

REGIME_CODES = [r.value for r in Regime]


def _svec(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(x) for x in text.split(","))
    except ValueError:
        raise ValueError(f"bad multiplicity vector {text!r}; expected e.g. 2,1") from None


def _add_regime(sp):
    sp.add_argument("--regime", choices=REGIME_CODES, required=True)


def _enumerate(args, regime: Regime) -> list:
    from . import oracle

    cap = oracle.DEFAULT_CAP if args.cap is None else args.cap
    return oracle.enumerate_monomials(args.d, args.r, _svec(args.s), regime, cap=cap)


def cmd_count(args) -> int:
    regime = Regime.from_code(args.regime)
    if args.oracle:
        value = len(_enumerate(args, regime))
    elif args.cap is not None:
        raise ValueError("--cap applies only with --oracle")
    else:
        from . import counting

        value = counting.count(regime, args.d, args.r, _svec(args.s))
    print(value)
    return 0


def cmd_sequence(args) -> int:
    from . import counting

    terms = counting.table_prefix(Regime.from_code(args.regime), args.d, args.ell,
                                  args.terms)
    if args.format == "plain":
        print(" ".join(str(t) for t in terms))
    elif args.format == "csv":
        print("n,value")
        for n, t in enumerate(terms, start=1):
            print(f"{n},{t}")
    else:
        import json

        print(json.dumps({"regime": args.regime, "d": args.d, "ell": args.ell,
                          "terms": terms}))
    return 0


def cmd_table(args) -> int:
    from . import counting, oracle

    regime = Regime.from_code(args.regime)
    if args.d < 1 or args.rmax < 1 or args.smax < 0:
        raise ValueError("need --d >= 1, --rmax >= 1 and --smax >= 0")
    # the whole table's work, predicted before the first count in the terms
    # of counting.WORK_LIMIT.  Measured against them (2 cores, Python 3.11),
    # a free cell and its row cost about 20 terms.  Any other cell is filled
    # once: about 50 terms a fill and its row, d layer terms, and r - 1
    # convolutions over its box at degree r, where
    # sum_{|s| <= smax} prod(s_i + 1) = C(smax + 2d, 2d)
    cells = args.rmax * math.comb(args.smax + args.d, args.d)
    work = 20 * cells if regime is Regime.FREE else (
        (50 + args.d) * cells
        + math.comb(args.rmax, 2) * math.comb(args.smax + 2 * args.d, 2 * args.d))
    if work > counting.WORK_LIMIT:
        raise counting.WorkLimitExceeded(f"the table would read {work} terms, "
                                         f"above the cap {counting.WORK_LIMIT}")
    # plain and csv print each row as it is counted; only json holds them all
    rows = ((r, s, counting.count(regime, args.d, r, s)) for r in range(1, args.rmax + 1)
            for k in range(args.smax + 1) for s in oracle.compositions(k, args.d))
    if args.format == "json":
        import json

        print(json.dumps([{"r": r, "s": list(s), "value": v} for r, s, v in rows]))
        return 0
    sep = "," if args.format == "csv" else "\t"
    print(sep.join(["r", "s", "value"]))
    for r, s, v in rows:
        print(sep.join([str(r), ";".join(str(x) for x in s), str(v)]))
    return 0


def cmd_enumerate(args) -> int:
    monomials = _enumerate(args, Regime.from_code(args.regime))
    if args.count_only:
        print(len(monomials))
        return 0
    for m in monomials:
        print(word_to_text(encode_word(m)) if args.words else format_monomial(m))
    return 0


def cmd_series(args) -> int:
    from . import series

    ser = series.series_for(Regime.from_code(args.regime), args.d, args.ell, args.order)
    for n in range(args.order + 1):
        print(f"{n}\t{ser.values[n]}")
    return 0


def _certified(lo, hi) -> str | None:
    """The value of [lo, hi] with the most decimals, up to six, on which both
    ends round alike; None if not even their integer parts agree."""
    for k in range(6, -1, -1):
        a, b = round(lo * 10 ** k), round(hi * 10 ** k)
        if a == b:
            return f"{a // 10 ** k}.{a % 10 ** k:0{k}d}" if k else str(a)
    return None


def cmd_growth(args) -> int:
    from fractions import Fraction

    from . import asymptotics

    res = asymptotics.growth(Regime.from_code(args.regime), args.d, args.ell,
                             tol=args.tol, n=args.n)
    if res.method == "exact-root":
        # the true rho lies in [lo, hi], so g lies in [1/hi, 1/lo]
        half = Fraction(res.tol) / 2
        lo, hi = res.rho - half, res.rho + half
        g = _certified(1 / hi, 1 / lo) if lo > 0 else None
        rho = _certified(lo, hi)
        if g is None or rho is None:
            raise ValueError(f"tol {res.tol!r} is too coarse to certify a digit "
                             "of both g and rho; pass a smaller tol")
        print(f"g = {g}  rho = {rho}")
    else:
        print(f"g_hat = {float(res.g):.6f}  (n={res.estimate_n})")
    return 0


def _print_models(args, items, keep, text) -> int:
    if args.check:
        items = [x for x in items if keep(x)]
    if args.count_only:
        print(len(items))
        return 0
    for line in sorted(map(text, items)):
        print(line)
    return 0


def cmd_paths(args) -> int:
    from . import bijections

    return _print_models(args, bijections.all_lattice_paths(args.d, args.ell, args.span),
                         bijections.matched_ascent_monotone, bijections.LatticePath.to_text)


def cmd_trees(args) -> int:
    from . import bijections

    return _print_models(args, bijections.all_binary_trees(args.vertices, args.d),
                         bijections.right_chain_monotone, bijections.binary_tree_text)


def cmd_verify(args) -> int:
    from . import fixtures

    if args.fixture_file:
        entries = fixtures.load_fixture_file(args.fixture_file)
    else:
        entries = fixtures.bundled_fixtures()
    mismatches = 0
    for e in entries:
        label = f"{e.kind} {e.sequence_id} {e.regime.value} d={e.d}"
        detail = fixtures.check_entry(e)
        if detail is None:
            print(f"ok       {label} ({len(e.terms)} terms)")
        else:
            mismatches += 1
            print(f"MISMATCH {label}: {detail}")
    print(f"verified {len(entries)} entries, {mismatches} mismatches")
    return 1 if mismatches else 0


def cmd_bfile(args) -> int:
    from . import counting

    terms = counting.table_prefix(Regime.from_code(args.regime), args.d, args.ell,
                                  args.terms, args.offset, raw=args.raw_length)
    for pos, value in enumerate(terms, start=args.offset):
        print(f"{pos} {value}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="opmono",
        description="Enumeration of multi-operator monomials in four "
                    "commutativity regimes (free, commuting unary operators, "
                    "commutative product, both).")
    sub = p.add_subparsers(dest="cmd", required=True)

    sp = sub.add_parser("count", help="one multigraded count")
    _add_regime(sp)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--s", required=True, help="multiplicities, e.g. 2,1")
    sp.add_argument("--oracle", action="store_true",
                    help="count by brute-force enumeration instead of formulas")
    sp.add_argument("--cap", type=int, help="the oracle's enumeration cap (with --oracle)")
    sp.set_defaults(func=cmd_count)

    sp = sub.add_parser("sequence", help="length-graded sequence prefix")
    _add_regime(sp)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--terms", type=int, required=True)
    sp.add_argument("--format", choices=["plain", "csv", "json"], default="plain")
    sp.set_defaults(func=cmd_sequence)

    sp = sub.add_parser("table", help="multigraded grid")
    _add_regime(sp)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--rmax", type=int, required=True)
    sp.add_argument("--smax", type=int, required=True,
                    help="bound on the total operator count |s|")
    sp.add_argument("--format", choices=["plain", "csv", "json"], default="plain")
    sp.set_defaults(func=cmd_table)

    sp = sub.add_parser("enumerate", help="list all monomials at (r, s)")
    _add_regime(sp)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--r", type=int, required=True)
    sp.add_argument("--s", required=True)
    sp.add_argument("--count-only", action="store_true")
    sp.add_argument("--words", action="store_true",
                    help="print token words instead of the P-grammar")
    sp.add_argument("--cap", type=int)
    sp.set_defaults(func=cmd_enumerate)

    sp = sub.add_parser("series", help="generating-series coefficients")
    _add_regime(sp)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--order", type=int, required=True)
    sp.set_defaults(func=cmd_series)

    sp = sub.add_parser("growth", help="exponential growth rate")
    _add_regime(sp)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--tol", type=float, default=1e-12)
    sp.add_argument("--n", type=int, default=100,
                    help="estimator index for the commutative-product regimes")
    sp.set_defaults(func=cmd_growth)

    sp = sub.add_parser("paths", help="peakless lattice paths of a given span")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--span", type=int, required=True)
    sp.add_argument("--check", action="store_true",
                    help="keep only matched-ascent-monotone paths")
    sp.add_argument("--count-only", action="store_true")
    sp.set_defaults(func=cmd_paths)

    sp = sub.add_parser("trees", help="binary trees with labeled right edges")
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--vertices", type=int, required=True)
    sp.add_argument("--check", action="store_true",
                    help="keep only right-chain-monotone trees")
    sp.add_argument("--count-only", action="store_true")
    sp.set_defaults(func=cmd_trees)

    sp = sub.add_parser("verify", help="recompute the published sequence fixtures")
    sp.add_argument("fixture_file", nargs="?", default=None)
    sp.set_defaults(func=cmd_verify)

    sp = sub.add_parser("bfile", help="OEIS b-file style index/value lines")
    _add_regime(sp)
    sp.add_argument("--d", type=int, required=True)
    sp.add_argument("--ell", type=int, required=True)
    sp.add_argument("--terms", type=int, required=True)
    sp.add_argument("--offset", type=int, choices=[0, 1], default=1)
    sp.add_argument("--raw-length", action="store_true",
                    help="index by raw word length (zeros included)")
    sp.set_defaults(func=cmd_bfile)

    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    # counts are exact, so print every digit (the limit exists from 3.10.7)
    lift_digit_limit = getattr(sys, "set_int_max_str_digits", None)
    if lift_digit_limit:
        lift_digit_limit(0)
    try:
        return args.func(args)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except RuntimeError as e:
        # a cap (the work limit of counting, the oracle's enumeration cap) is
        # a documented failure; any other RuntimeError (a SelfCheckError) is
        # a bug and keeps its traceback
        from .counting import WorkLimitExceeded

        if not isinstance(e, WorkLimitExceeded):
            raise
        print(f"error: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
