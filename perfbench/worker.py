"""One benchmark pass in a fresh interpreter.

Run by ``run.py`` as ``python3 perfbench/worker.py`` with ``src`` on
``PYTHONPATH``.  The worker imports opmono, prints ``ready`` (the harness
times set-up up to that line), reads one JSON spec from stdin, runs its
operations with every output checked against a second route, and prints one
JSON result line.

An operation is timed from its first call into opmono until its own checks
have passed.  Checks that cover a group of operations (the length-shell sums
of the multigraded grid) run after the group; their time counts in
``wall_s`` only, and a mismatch fails every operation of the group.
"""

from __future__ import annotations

import json
import math
import sys
import time

from spans import Tracer

# Otter's constant: the m / cm, d=1, ell=2 growth rate is its square root.
OTTER = 2.95576528565199497471


class Mismatch(Exception):
    """An output disagreed with its independent check."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise Mismatch(what)


def compositions(k: int, d: int):
    """All d-tuples of nonnegative integers summing to k (the benchmark's
    own copy, so that its checks do not lean on the oracle module)."""
    if d == 1:
        yield (k,)
        return
    for first in range(k + 1):
        for rest in compositions(k - first, d - 1):
            yield (first,) + rest


def ratio_estimate(values, n: int) -> float:
    """sqrt(b(2n+2)/b(2n)) * ((n+1)/n)^(3/4) from raw length counts."""
    return math.sqrt(values[2 * n + 2] / values[2 * n]) * ((n + 1) / n) ** 0.75


class Pass:
    def __init__(self, tracer: Tracer):
        self.t = tracer
        self.latency: list[float] = []
        self.failures: list[list] = []

    def op(self, label: str, body) -> None:
        """Run one operation; an exception or a failed check fails it."""
        self.t.op = len(self.latency)
        start = time.perf_counter()
        try:
            body()
            failure = None
        except Mismatch as e:
            failure = ["wrong", str(e)]
        except Exception as e:  # a crash inside opmono is a failed operation
            failure = ["error", f"{type(e).__name__}: {str(e)[:160]}"]
        self.latency.append(time.perf_counter() - start)
        if failure:
            self.failures.append([len(self.latency) - 1, label] + failure)

    def fail_group(self, first: int, label: str, detail: str) -> None:
        failed = {f[0] for f in self.failures}
        for i in range(first, len(self.latency)):
            if i not in failed:
                self.failures.append([i, label, "wrong", detail])


# ---------------------------------------------------------------------------
# tables: b-files and multigraded tables through the two counting paths.

def run_tables(p: Pass, ops, regime) -> None:
    call = p.t.call
    seqs: dict[tuple, tuple] = {}

    def shell_sum(code, d, ell, n):
        total = 0
        for r in range(1, n // ell + 1):
            rem = n - ell * r
            if rem % 2 == 0:
                for s in compositions(rem // 2, d):
                    total += call("counting.count", regime(code), d, r, s)
        return total

    for op in ops:
        kind = op[0]
        if kind == "deep":
            _, code, d, r, s, want = op

            def body(code=code, d=d, r=r, s=tuple(s), want=want):
                got = call("counting.count", regime(code), d, r, s)
                expect(got == want, f"{got} != pinned {want}")

            p.op(f"deep {code} d={d} r={r} s={s}", body)
        elif kind == "shell":
            _, code, d, m, cells = op
            first, got = len(p.latency), []
            for r, s in cells:
                p.op(f"cell {code} d={d} r={r} s={s}",
                     lambda code=code, d=d, r=r, s=tuple(s): got.append(
                         call("counting.count", regime(code), d, r, s)))
            want = call("counting.length_sequence", regime(code), d, 2, 2 * m,
                        size=lambda q: q.n_max).value(2 * m)
            if sum(got) != want:
                p.fail_group(first, f"shell {code} d={d} r+|s|={m}",
                             f"cells sum to {sum(got)}, length count is {want}")
        elif kind == "length":
            _, code, d, ell, n_max, fixture, n_small = op

            def body(code=code, d=d, ell=ell, n_max=n_max, fixture=fixture,
                     n_small=n_small):
                seq = call("counting.length_sequence", regime(code), d, ell, n_max,
                           size=lambda q: q.n_max)
                seqs[code, d, ell] = seq.values
                if fixture:
                    offset, terms = fixture
                    table = seq.table_terms()
                    got = [1 if pos == 0 else table[pos - 1]
                           for pos in range(offset, offset + len(terms))]
                    expect(got == terms, "differs from the bundled prefix")
                for n in range(1, n_small + 1):
                    want = shell_sum(code, d, ell, n)
                    expect(seq.values[n] == want, f"n={n}: {seq.values[n]} != shell sum {want}")

            p.op(f"length {code} d={d} ell={ell} n_max={n_max}", body)
        elif kind == "growth":
            _, code, d, ell, n = op

            def body(code=code, d=d, ell=ell, n=n):
                res = call("asymptotics.growth", regime(code), d, ell, n=n)
                g = float(res.g)
                values = seqs.get((code, d, ell))
                expect(values is not None, "no length sequence to check against")
                if res.method == "exact-root":
                    expect(abs(g * float(res.rho) - 1) < 1e-9, "g * rho != 1")
                est = ratio_estimate(values, 199)
                expect(abs(g - est) < 2e-4, f"g={g} vs ratio estimate {est} at n=199")
                if (code, d, ell) == ("free", 2, 2):
                    expect(abs(g - (1 + math.sqrt(2))) < 1e-9, f"g={g} != 1+sqrt(2)")
                if code in ("m", "cm") and (d, ell) == (1, 2):
                    expect(abs(g - math.sqrt(OTTER)) < 1e-4, f"g={g} != sqrt(Otter)")

            p.op(f"growth {code} d={d} ell={ell} n={n}", body)
        else:
            raise ValueError(f"unknown tables op {kind!r}")


# ---------------------------------------------------------------------------
# series_crosscheck: every series against the counting recurrence.

def run_series(p: Pass, ops, regime) -> None:
    call = p.t.call
    coeffs = lambda ser: ser.order + 1
    for op in ops:
        kind, code, d, ell, order = op

        def body(kind=kind, code=code, d=d, ell=ell, order=order):
            if kind == "closed":
                ser = call("series.closed_form_free", d, ell, order, size=coeffs)
            else:
                ser = call("series.series_for", regime(code), d, ell, order, size=coeffs)
            want = call("counting.length_sequence", regime(code), d, ell, order,
                        size=lambda q: q.n_max).values
            for n in range(order + 1):
                expect(ser.coeffs[n] == want[n],
                       f"coefficient {n}: {ser.coeffs[n]} != recurrence {want[n]}")

        p.op(f"{kind} {code} d={d} ell={ell} order={order}", body)


# ---------------------------------------------------------------------------
# oracle_crosscheck: brute force against the engine, and the term algebra and
# bijections on a seeded sample of what the oracle emits.

def _round_trips(call, m, d: int, regime) -> None:
    one = lambda _: 1
    expect(call("monomial.is_canonical", m, regime), "emitted monomial not canonical")
    expect(call("monomial.canonicalize", m, regime) == m, "canonicalize not idempotent")
    word = call("monomial.encode_word", m)
    expect(call("monomial.decode_word", word, d) == m, "word round trip")
    text = call("monomial.format_monomial", m)
    expect(call("monomial.parse_monomial", text, d) == m, "text round trip")
    tree = call("bijections.to_ordered_tree", m, size=one)
    expect(call("bijections.from_ordered_tree", tree) == m, "ordered-tree round trip")
    path = call("bijections.to_path", m, 1, size=one)
    expect(call("bijections.from_path", path, d) == m, "path round trip")
    btree = call("bijections.to_binary_tree", m, size=one)
    expect(call("bijections.from_binary_tree", btree, d) == m, "binary-tree round trip")


def run_oracle(p: Pass, ops, regime) -> None:
    call = p.t.call
    for op in ops:
        kind = op[0]
        if kind == "cell":
            _, code, d, r, s, picks = op

            def body(code=code, d=d, r=r, s=tuple(s), picks=picks):
                reg = regime(code)
                found = call("oracle.enumerate_monomials", d, r, s, reg, size=len)
                want = call("counting.count", reg, d, r, s)
                expect(len(found) == want, f"oracle {len(found)} != engine {want}")
                for u in picks:
                    _round_trips(call, found[int(u * len(found))], d, reg)

            p.op(f"cell {code} d={d} r={r} s={s}", body)
        elif kind in ("paths", "trees"):
            # paths of span n, or binary trees with n/2 vertices, against
            # the free (all) and commuting-unary (monotone) length counts
            _, d, ell, n = op

            def body(kind=kind, d=d, ell=ell, n=n):
                if kind == "paths":
                    items = call("bijections.all_lattice_paths", d, ell, n, size=len)
                    keep = "bijections.matched_ascent_monotone"
                else:
                    items = call("bijections.all_binary_trees", n // 2, d, size=len)
                    keep = "bijections.right_chain_monotone"
                monotone = sum(bool(call(keep, x)) for x in items)
                for code, got in (("free", len(items)), ("c", monotone)):
                    want = call("counting.length_sequence", regime(code), d, ell, n,
                                size=lambda q: q.n_max).value(n)
                    expect(got == want, f"{code}: model count {got} != engine {want}")

            p.op(f"{kind} d={d} ell={ell} n={n}", body)
        else:
            raise ValueError(f"unknown oracle op {kind!r}")


# ---------------------------------------------------------------------------
# reference values for the cli_session checks, each by a route other than
# the one the checked subcommand takes.  Untimed.

def run_reference(refs, regime) -> list:
    from opmono import counting, oracle

    out = []
    for ref in refs:
        kind = ref[0]
        if kind == "oracle_count":
            _, code, d, r, s = ref
            out.append(len(oracle.enumerate_monomials(d, r, tuple(s), regime(code))))
        elif kind == "engine_count":
            _, code, d, r, s = ref
            out.append(counting.count(regime(code), d, r, tuple(s)))
        elif kind == "oracle_table":
            _, code, d, rmax, smax = ref
            out.append([[r, list(s), len(oracle.enumerate_monomials(d, r, s, regime(code)))]
                        for r in range(1, rmax + 1) for k in range(smax + 1)
                        for s in compositions(k, d)])
        elif kind == "length_values":
            _, code, d, ell, n_max = ref
            out.append(list(counting.length_sequence(regime(code), d, ell, n_max).values))
        elif kind == "ratio_estimate":
            _, code, d, ell, n = ref
            values = counting.length_sequence(regime(code), d, ell, 2 * n + 2).values
            out.append(ratio_estimate(values, n))
        else:
            raise ValueError(f"unknown reference {kind!r}")
    return out


RUNNERS = {"table_grid": run_tables, "tables": run_tables, "series_crosscheck": run_series,
           "oracle_crosscheck": run_oracle}


def main() -> int:
    import opmono  # set-up ends when this import returns

    print("ready", flush=True)
    spec = json.loads(sys.stdin.readline())
    regime = opmono.Regime.from_code
    if spec["workload"] == "reference":
        print(json.dumps({"values": run_reference(spec["refs"], regime)}))
        return 0
    p = Pass(Tracer(spec["trace"]))
    start = time.perf_counter()
    RUNNERS[spec["workload"]](p, spec["ops"], regime)
    wall = time.perf_counter() - start
    print(json.dumps({"wall_s": wall, "latency": p.latency, "failures": p.failures,
                      "spans": p.t.spans}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
