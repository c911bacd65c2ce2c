"""opmono benchmark harness (stdlib only).

Run from the repository root:

    python3 perfbench/run.py --workload library --seed 1 --seconds 60 --trace 0

The harness drives opmono from outside: through its public functions in a
worker process (``worker.py``) or through ``python -m opmono.cli``, always
with ``src`` on ``PYTHONPATH``.  A run builds its inputs from ``--seed``
and then repeats *passes* over those inputs until ``--seconds`` are spent.
Every pass starts a fresh interpreter, so the module-level caches start
cold, as they do for every CLI call.  One process runs besides the harness
at any time, and nothing uses threads.

With ``--trace 0`` the last stdout line holds the end-to-end metrics; with
``--trace 1`` passes alternate untraced and traced, and the last line holds
the per-layer metrics from the traced passes (spans are also written to
``perfbench/out/``).  The line before the result is a report: the failing
operations, the tail percentile used, and the Python and mpmath versions,
git SHA and core count.  ``README.md`` documents the workloads and metrics.
"""

from __future__ import annotations

import argparse
import importlib.metadata
import json
import os
import random
import re
import selectors
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer, layer_totals
from worker import compositions

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
FIXTURES = SRC / "opmono" / "data" / "reference_tables.txt"
PINNED = HERE / "pinned.json"
OUT = HERE / "out"
PY = sys.executable
RUN_LIMIT_S = 170  # a run must end within 180 s
REGIMES = ("free", "c", "m", "cm")

# Children run with the interpreter's default settings whatever the caller's
# environment sets (PYTHONDONTWRITEBYTECODE, PYTHONUNBUFFERED, ...): bytecode
# is cached under src as in any checkout, and output is block-buffered.
ENV = {k: v for k, v in os.environ.items() if not k.startswith("PYTHON")}
ENV["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))


class BenchError(RuntimeError):
    """The benchmark itself could not run (not a failed operation)."""


# ---------------------------------------------------------------------------
# Child processes: timed, drained without threads, reaped with wait4 so the
# child's own peak RSS is known.

@dataclass
class Child:
    rc: int
    out: str
    err: str
    first_line_s: float | None  # spawn until the first stdout line
    total_s: float               # spawn until reaped
    rss_mb: float


def run_child(argv, deadline: float, stdin: bytes = b"") -> Child:
    start = time.perf_counter()
    proc = subprocess.Popen(argv, cwd=ROOT, env=ENV, stdin=subprocess.PIPE,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    out, err, first = bytearray(), bytearray(), None
    pending = memoryview(stdin)
    with selectors.DefaultSelector() as sel:
        if pending:
            sel.register(proc.stdin, selectors.EVENT_WRITE)
        else:
            proc.stdin.close()
        sel.register(proc.stdout, selectors.EVENT_READ)
        sel.register(proc.stderr, selectors.EVENT_READ)
        while sel.get_map():
            left = deadline - time.perf_counter()
            if left <= 0:
                proc.kill()
                break
            for key, _ in sel.select(left):
                f = key.fileobj
                if f is proc.stdin:
                    try:
                        pending = pending[os.write(f.fileno(), pending[:65536]):]
                    except BrokenPipeError:
                        pending = pending[:0]
                    if not pending:
                        sel.unregister(f)
                        f.close()
                    continue
                chunk = os.read(f.fileno(), 65536)
                if not chunk:
                    sel.unregister(f)
                elif f is proc.stdout:
                    out += chunk
                    if first is None and b"\n" in chunk:
                        first = time.perf_counter() - start
                else:
                    err += chunk
    _, status, usage = os.wait4(proc.pid, 0)
    total = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    for f in (proc.stdin, proc.stdout, proc.stderr):
        f.close()
    return Child(proc.returncode, out.decode(), err.decode(), first, total,
                 usage.ru_maxrss / 1024)


@dataclass
class PassResult:
    traced: bool
    setups: list[float]           # one per timed interpreter start
    wall_s: float
    rss_mb: float
    latency: list[float]
    failures: list[list]          # [op index, label, "wrong"|"error", detail]
    op_ids: list = field(default_factory=list)       # which operation each latency is
    spans: dict = field(default_factory=dict)        # part -> spans
    part_walls: dict = field(default_factory=dict)   # part -> its wall_s values
    probes: dict = field(default_factory=dict)
    verify_s: list[float] = field(default_factory=list)
    duration_s: float = 0.0


PROBE_IMPORT = "import sys, opmono; print(int('mpmath' in sys.modules))"


def probes(deadline: float) -> dict:
    """Bare-interpreter and ``import opmono`` start-up, timed to the first
    line each prints."""
    bare = run_child([PY, "-c", "print(0)"], deadline)
    imp = run_child([PY, "-c", PROBE_IMPORT], deadline)
    if imp.rc != 0 or imp.first_line_s is None:
        raise BenchError(f"import opmono failed:\n{imp.err[-2000:]}")
    return {"interp_s": bare.first_line_s, "import_s": imp.first_line_s,
            "mpmath": int(imp.out.strip())}


# ---------------------------------------------------------------------------
# Reference data read by the harness itself: the bundled published prefixes
# (parsed here, not by opmono.fixtures) and the pinned deep cells.

def load_fixtures() -> list[tuple]:
    entries = []
    for line in FIXTURES.read_text(encoding="utf-8").splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        head, _, tail = line.partition(":")
        kind, _ident, code, *pairs = head.split()
        fields = dict(pair.split("=", 1) for pair in pairs)
        terms = [int(x) for x in tail.replace(",", " ").split()]
        entries.append((kind, code, fields, terms))
    return entries


def seq_fixtures(entries) -> dict[tuple, tuple]:
    """(regime, d, ell) -> (offset, terms) for the length-graded prefixes."""
    return {(code, int(f["d"]), int(f["ell"])): (int(f["offset"]), terms)
            for kind, code, f, terms in entries if kind == "seq"}


def cells(d: int, max_total: int):
    """All (r, s) with r >= 1 and r + |s| <= max_total, in table order."""
    for r in range(1, max_total + 1):
        for k in range(max_total - r + 1):
            for s in compositions(k, d):
                yield r, list(s)


# ---------------------------------------------------------------------------
# library: four parts, each run by its own fresh worker.  The harness
# generates the operations; the worker receives only those.

DEEP_SHAPES = ((2, 12, [6, 6]), (3, 8, [4, 4, 4]))


def grid_ops(rng: random.Random) -> list:
    """All d=3 cells with r + |s| <= 10 for every regime, walked in whole
    ell=2 length shells, ascending, so each cell costs real work and not a
    cache hit, and each shell can be checked against the length count."""
    grid = []
    for code in rng.sample(REGIMES, len(REGIMES)):
        for m in range(1, 11):
            shell = [[r, list(s)] for r in range(1, m + 1) for s in compositions(m - r, 3)]
            rng.shuffle(shell)
            grid.append(["shell", code, 3, m, shell])
    return grid


def tables_ops(rng: random.Random) -> list:
    pinned = json.loads(PINNED.read_text(encoding="utf-8"))
    deep = [["deep", code, d, r, s, pinned[f"{code} d={d} r={r} s={','.join(map(str, s))}"]]
            for d, r, s in DEEP_SHAPES for code in rng.sample(REGIMES[1:], 3)]
    fixtures = seq_fixtures(load_fixtures())
    length = [["length", code, d, ell, 800 if ell == 2 else 400,
               fixtures.get((code, d, ell)), 12]
              for code in REGIMES for d in (1, 2, 3) for ell in (1, 2, 3)]
    rng.shuffle(length)
    growth = [["growth", code, d, ell, 400]
              for code in REGIMES for d in (1, 2, 3) for ell in (1, 2)]
    rng.shuffle(growth)
    return deep + length + growth


def series_ops(rng: random.Random) -> list:
    ops = [["series", code, d, ell, order]
           for code in REGIMES for d in (1, 2, 3) for ell in (1, 2) for order in (20, 24)]
    ops += [["closed", "free", d, ell, 40] for d in (1, 2, 3) for ell in (1, 2)]
    ops += [["series", "c", 2, 2, 100], ["series", "m", 2, 2, 80]]
    rng.shuffle(ops)
    return ops


def oracle_ops(rng: random.Random) -> list:
    # cells stay in table order: which cells overflow the recursion limit
    # depends on what the oracle's caches already hold
    ops = [["cell", code, d, r, s, [rng.random(), rng.random()]]
           for code in REGIMES for d, top in ((2, 9), (3, 7)) for r, s in cells(d, top)]
    models = [["paths", d, ell, n] for d in (1, 2, 3) for ell in (1, 2, 3) for n in (6, 8, 10)]
    models += [["trees", d, 2, 2 * v] for d in (1, 2, 3) for v in (3, 4, 5, 6)]
    rng.shuffle(models)
    return ops + models


PARTS = {"table_grid": grid_ops, "tables": tables_ops, "series_crosscheck": series_ops,
         "oracle_crosscheck": oracle_ops}
# The grid's cells are most of the workload's operations, so they set its
# op_p50_ms.  The grid takes well under a second, so it runs before each of
# the other parts: its cells then sample the machine across the whole pass
# and not over one second of it.
PASS_ORDER = ("table_grid", "tables", "table_grid", "series_crosscheck",
              "table_grid", "oracle_crosscheck")


def library_pass(ops: dict, traced: bool, deadline: float) -> PassResult:
    result = PassResult(traced, [], 0.0, 0.0, [], [])
    if traced:
        result.probes = probes(deadline)
    for n, part in enumerate(PASS_ORDER):
        spec = json.dumps({"workload": part, "trace": traced, "ops": ops[part]})
        child = run_child([PY, str(HERE / "worker.py")], deadline, spec.encode() + b"\n")
        lines = child.out.splitlines()
        if child.rc != 0 or len(lines) < 2 or lines[0] != "ready":
            raise BenchError(f"{part} worker exited {child.rc}:\n{child.err[-2000:]}")
        res = json.loads(lines[-1])
        first = len(result.latency)
        result.setups.append(child.first_line_s)
        result.wall_s += res["wall_s"]
        result.part_walls.setdefault(part, []).append(res["wall_s"])
        result.rss_mb = max(result.rss_mb, child.rss_mb)
        result.latency += res["latency"]
        result.op_ids += [(part, i) for i in range(len(res["latency"]))]
        result.failures += [[first + i] + rest for i, *rest in res["failures"]]
        result.spans[f"{n}.{part}"] = res["spans"]
    return result


# ---------------------------------------------------------------------------
# cli_session: one closed-loop client, one fresh `python -m opmono.cli` per
# call, every subcommand, outputs checked against references computed once
# per run by another route.

@dataclass
class CliCall:
    argv: list[str]
    check: str
    ref: int | None = None       # index into the reference values
    want: object = None          # expected data known to the harness


def cli_calls(rng: random.Random, fixtures) -> tuple[list[CliCall], list]:
    refs: list = []

    def ref(item) -> int:
        refs.append(item)
        return len(refs) - 1

    def small_cell(d: int, top: int):
        return rng.choice(list(cells(d, top)))

    seqs = sorted(seq_fixtures(fixtures).items())
    svec = lambda s: ",".join(map(str, s))
    calls = []
    code, d = rng.choice(REGIMES), rng.choice((1, 2))
    r, s = small_cell(d, 6)
    calls.append(CliCall(["count", "--regime", code, "--d", str(d), "--r", str(r),
                          "--s", svec(s)], "int", ref(["oracle_count", code, d, r, s])))

    (code, d, ell), (offset, terms) = rng.choice(seqs)
    fmt = rng.choice(("plain", "csv", "json"))
    want = terms[1 - offset:]
    calls.append(CliCall(["sequence", "--regime", code, "--d", str(d), "--ell", str(ell),
                          "--terms", str(len(want)), "--format", fmt],
                         "sequence-" + fmt, want=want))

    code, d = rng.choice(REGIMES), rng.choice((1, 2))
    rmax, smax, fmt = 3, 2, rng.choice(("plain", "csv", "json"))
    calls.append(CliCall(["table", "--regime", code, "--d", str(d), "--rmax", str(rmax),
                          "--smax", str(smax), "--format", fmt], "table-" + fmt,
                         ref(["oracle_table", code, d, rmax, smax])))

    code = rng.choice(REGIMES)
    r, s = small_cell(2, 5)
    calls.append(CliCall(["enumerate", "--regime", code, "--d", "2", "--r", str(r),
                          "--s", svec(s)], "enumerate", ref(["engine_count", code, 2, r, s]),
                         want=(r, s)))

    code, d, ell, order = rng.choice(REGIMES), rng.choice((1, 2)), rng.choice((1, 2)), 16
    calls.append(CliCall(["series", "--regime", code, "--d", str(d), "--ell", str(ell),
                          "--order", str(order)], "series",
                         ref(["length_values", code, d, ell, order])))

    code, d, ell = rng.choice(REGIMES), rng.choice((1, 2)), rng.choice((1, 2))
    calls.append(CliCall(["growth", "--regime", code, "--d", str(d), "--ell", str(ell)],
                         "growth", ref(["ratio_estimate", code, d, ell, 200])))

    d, ell, span, check = rng.choice((1, 2)), rng.choice((1, 2, 3)), 8, rng.random() < 0.5
    calls.append(CliCall(["paths", "--d", str(d), "--ell", str(ell), "--span", str(span),
                          "--count-only"] + (["--check"] if check else []), "model",
                         ref(["length_values", "c" if check else "free", d, ell, span])))

    d, v, check = rng.choice((1, 2, 3)), 5, rng.random() < 0.5
    calls.append(CliCall(["trees", "--d", str(d), "--vertices", str(v), "--count-only"]
                         + (["--check"] if check else []), "model",
                         ref(["length_values", "c" if check else "free", d, 2, 2 * v])))

    (code, d, ell), (offset, terms) = rng.choice(seqs)
    out_offset = rng.choice((0, 1))
    want = terms[1 - offset:]
    want = ([1] + want[:-1]) if out_offset == 0 else want
    calls.append(CliCall(["bfile", "--regime", code, "--d", str(d), "--ell", str(ell),
                          "--terms", str(len(want)), "--offset", str(out_offset)],
                         "bfile", want=(out_offset, want)))

    calls.append(CliCall(["verify"], "verify", want=len(fixtures)))

    # a cell the oracle cannot enumerate today (recursion limit): a known defect
    calls.append(CliCall(["count", "--oracle", "--regime", "m", "--d", "2", "--r", "5",
                          "--s", "2,2"], "int", ref(["engine_count", "m", 2, 5, [2, 2]])))
    rng.shuffle(calls)
    return calls, refs


def _ints(text: str) -> list[int]:
    return [int(x) for x in text.split()]


def check_cli(call: CliCall, out: str, refs: list) -> str | None:
    """None when the output is right, else what differs."""
    want = refs[call.ref] if call.ref is not None else call.want
    lines = out.strip().splitlines()
    kind = call.check
    if kind == "int":
        got = _ints(out)
        return None if got == [want] else f"printed {got}, expected {want}"
    if kind.startswith("sequence-"):
        fmt = kind.split("-", 1)[1]
        if fmt == "plain":
            got = _ints(out)
        elif fmt == "csv":
            got = [int(line.split(",")[1]) for line in lines[1:]]
        else:
            got = json.loads(out)["terms"]
        return None if got == want else "terms differ from the bundled prefix"
    if kind.startswith("table-"):
        fmt = kind.split("-", 1)[1]
        if fmt == "json":
            got = [[row["r"], row["s"], row["value"]] for row in json.loads(out)]
        else:
            sep = "," if fmt == "csv" else "\t"
            got = [[int(r), [int(x) for x in s.split(";")], int(v)]
                   for r, s, v in (line.split(sep) for line in lines[1:])]
        return None if got == want else "table differs from oracle counts"
    if kind == "enumerate":
        r, s = call.want
        if len(lines) != want or len(set(lines)) != len(lines):
            return f"{len(lines)} lines ({len(set(lines))} distinct), engine count {want}"
        for line in lines:
            labels = [int(x) for x in re.findall(r"P(\d+)", line)]
            if line.count("*") != r or [labels.count(i + 1) for i in range(len(s))] != s:
                return f"{line!r} is not of degree {r} and multiplicity {s}"
        return None
    if kind == "series":
        got = [int(line.split("\t")[1]) for line in lines]
        return None if got == want else "coefficients differ from the recurrence"
    if kind == "growth":
        g = float(re.search(r"g(?:_hat)? = (\S+)", out).group(1))
        rho = re.search(r"rho = (\S+)", out)
        if rho and abs(g * float(rho.group(1)) - 1) > 1e-5:
            return f"g * rho = {g * float(rho.group(1))}"
        return None if abs(g - want) < 1e-3 else f"g = {g}, ratio estimate {want}"
    if kind == "model":
        n = len(want) - 1
        got = _ints(out)
        return None if got == [want[n]] else f"printed {got}, engine {want[n]}"
    if kind == "bfile":
        offset, values = want
        got = [tuple(_ints(line)) for line in lines]
        expected = [(offset + i, v) for i, v in enumerate(values)]
        return None if got == expected else "b-file differs from the bundled prefix"
    if kind == "verify":
        expected = f"verified {want} entries, 0 mismatches"
        return None if lines and lines[-1] == expected else f"last line {lines[-1:]!r}"
    raise ValueError(f"unknown check {kind!r}")


def cli_pass(calls: list[CliCall], refs: list, traced: bool, deadline: float) -> PassResult:
    probe = probes(deadline)
    tracer = Tracer(traced)
    latency, failures, rss, verify_s = [], [], 0.0, []
    start = time.perf_counter()
    for i, call in enumerate(calls):
        tracer.op = i
        t0 = time.perf_counter()
        child = run_child([PY, "-m", "opmono.cli", *call.argv], deadline)
        if traced:
            tracer.record(f"cli.{call.argv[0]}", t0, t0 + child.total_s)
        latency.append(child.total_s)
        rss = max(rss, child.rss_mb)
        if call.check == "verify":
            verify_s.append(child.total_s)
        label = "opmono " + " ".join(call.argv)
        if child.rc != 0 or "Traceback" in child.err:
            tail = child.err.strip().splitlines()[-1:] or [""]
            failures.append([i, label, "error", f"exit {child.rc}: {tail[0][:160]}"])
            continue
        try:
            detail = check_cli(call, child.out, refs)
        except (ValueError, KeyError, IndexError, AttributeError) as e:
            detail = f"unreadable output ({type(e).__name__}: {e})"
        if detail:
            failures.append([i, label, "wrong", detail])
    wall = time.perf_counter() - start
    return PassResult(traced, [probe["import_s"]], wall, rss, latency, failures,
                      list(range(len(calls))), {"cli": tracer.spans}, {}, probe, verify_s)


# ---------------------------------------------------------------------------
# Metrics.

def tail_latency(latency: list[float]) -> tuple[float, float]:
    """Latency at the highest percentile with at least ten samples beyond it,
    and that percentile."""
    xs = sorted(latency)
    k = max(len(xs) - 11, 0)
    return xs[k], 100.0 * k / max(len(xs) - 1, 1)


def op_p50(passes: list[PassResult]) -> float:
    """Median over the distinct operations of each one's median latency.

    An operation repeats, with the same inputs in the same order on a fresh
    process, in every pass, and the library's grid three times a pass; each
    operation counts once, however often it repeats."""
    seen: dict = {}
    for p in passes:
        for op, x in zip(p.op_ids, p.latency):
            seen.setdefault(op, []).append(x)
    return statistics.median(map(statistics.median, seen.values()))


def end_to_end(passes: list[PassResult]) -> dict:
    attempted = sum(len(p.latency) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    med = statistics.median
    return {
        "setup_s": (med(x for p in passes for x in p.setups), "s"),
        "wall_s": (med(p.wall_s for p in passes), "s"),
        "op_p50_ms": (1000 * op_p50(passes), "ms"),
        "ok_frac": ((attempted - failed) / attempted, "frac"),
        "peak_rss_mb": (med(p.rss_mb for p in passes), "MB"),
    }


LAYER_SIZES = {"counting.length": "terms", "series": "coeffs", "oracle": "monomials",
               "bijections": "objects"}
LAYERS = ("counting.length", "counting.multigraded", "series", "oracle", "monomial",
          "bijections", "asymptotics")


def per_layer(passes: list[PassResult]) -> dict:
    traced = [p for p in passes if p.traced]
    plain = [p for p in passes if not p.traced]
    med = statistics.median
    empty = {"calls": 0, "busy_s": 0.0, "size": 0, "failed": 0}
    totals = [[layer_totals(spans) for spans in p.spans.values()] for p in traced]
    out = {}
    for layer in LAYERS:
        rows = [{k: sum(t.get(layer, empty)[k] for t in parts) for k in empty}
                for parts in totals]
        out[f"{layer}.calls"] = (med(r["calls"] for r in rows), "count")
        out[f"{layer}.busy_s"] = (med(r["busy_s"] for r in rows), "s")
        if layer in LAYER_SIZES:
            out[f"{layer}.{LAYER_SIZES[layer]}"] = (med(r["size"] for r in rows), "count")
        if layer == "oracle":
            out["oracle.failed"] = (med(r["failed"] for r in rows), "count")
    interp = med(p.probes["interp_s"] for p in traced)
    imported = med(p.probes["import_s"] for p in traced)
    cli_lat = [s[2] - s[1] for p in traced for s in p.spans.get("cli", [])]
    out["cli.interp_s"] = (interp, "s")
    out["cli.import_s"] = (imported - interp, "s")
    out["cli.command_s"] = (med(cli_lat) - imported if cli_lat else 0.0, "s")
    out["cli.mpmath_on_import"] = (max(p.probes["mpmath"] for p in traced), "flag")
    out["fixtures.calls"] = (med(len(p.verify_s) for p in traced), "count")
    out["fixtures.busy_s"] = (med(sum(max(v - imported, 0.0) for v in p.verify_s)
                                  for p in traced), "s")
    out["trace.overhead_s"] = (med(p.wall_s for p in traced) - med(p.wall_s for p in plain), "s")
    for part in PARTS:
        out[f"part.{part}.wall_s"] = (med(x for p in plain for x in p.part_walls.get(part, [0.0])),
                                      "s")
    latency = [x for p in plain for x in p.latency]
    out["fail_frac"] = (sum(len(p.failures) for p in passes)
                        / sum(len(p.latency) for p in passes), "frac")
    tail_s, tail_pct = tail_latency(latency)
    out["op_tail_ms"] = (1000 * tail_s, "ms")
    out["op_tail_pct"] = (tail_pct, "%")
    out["op_samples"] = (len(latency), "count")
    return out


# ---------------------------------------------------------------------------

WORKLOADS = ("cli_session", "library")


def git_sha() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        return subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, timeout=10, check=True).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        return "unknown"


def measure(args) -> tuple[list[PassResult], dict]:
    began = time.perf_counter()
    deadline = began + RUN_LIMIT_S
    rng = random.Random(args.seed)
    if args.workload == "cli_session":
        fixtures = load_fixtures()
        calls, refs = cli_calls(rng, fixtures)
        ref_child = run_child([PY, str(HERE / "worker.py")], deadline,
                              json.dumps({"workload": "reference", "refs": refs}).encode() + b"\n")
        if ref_child.rc != 0:
            raise BenchError(f"reference worker exited {ref_child.rc}:\n{ref_child.err[-2000:]}")
        ref_values = json.loads(ref_child.out.splitlines()[-1])["values"]
        one_pass = lambda traced: cli_pass(calls, ref_values, traced, deadline)
    else:
        ops = {part: make(rng) for part, make in PARTS.items()}
        one_pass = lambda traced: library_pass(ops, traced, deadline)

    probes(deadline)  # untimed: byte-compiles src and warms the file cache
    passes: list[PassResult] = []
    stop = time.perf_counter() + args.seconds
    while True:
        traced = bool(args.trace) and len(passes) % 2 == 1
        t0 = time.perf_counter()
        passes.append(one_pass(traced))
        passes[-1].duration_s = time.perf_counter() - t0
        typical = statistics.median(p.duration_s for p in passes)
        now = time.perf_counter()
        enough = len(passes) >= (2 if args.trace else 1)
        # one more pass only if it would end nearer to --seconds than now is,
        # so a run measures --seconds give or take half a pass
        if (enough and now + 0.5 * typical > stop) or now + 1.5 * typical > deadline:
            break
    if args.trace and len(passes) < 2:
        raise BenchError("no time left for a traced pass")
    return passes, {"elapsed_s": time.perf_counter() - began}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (SRC / "opmono" / "__init__.py").is_file():
        print(f"error: no opmono sources under {SRC}", file=sys.stderr)
        return 2
    try:
        passes, info = measure(args)
    except BenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    metrics = per_layer(passes) if args.trace else end_to_end(passes)
    plain = [x for p in passes if not p.traced for x in p.latency]
    failures = sorted({f"{label}: {kind} {detail}"
                       for p in passes for _i, label, kind, detail in p.failures})
    attempted = sum(len(p.latency) for p in passes)
    failed = sum(len(p.failures) for p in passes)
    report = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "passes": len(passes),
        "traced_passes": sum(p.traced for p in passes),
        "pass_wall_s": [round(p.wall_s, 4) for p in passes],
        "pass_setup_s": [[round(x, 4) for x in p.setups] for p in passes],
        "part_wall_s": {part: statistics.median(x for p in passes for x in p.part_walls[part])
                        for part in passes[0].part_walls},
        "op_samples": len(plain), "op_tail_ms": 1000 * tail_latency(plain)[0],
        "op_tail_pct": tail_latency(plain)[1],
        "fail_frac": failed / attempted, "failing_ops": failures,
        "python": sys.version.split()[0], "mpmath": importlib.metadata.version("mpmath"),
        "git_sha": git_sha(), "nproc": os.cpu_count(), **info,
    }
    if args.trace:
        OUT.mkdir(exist_ok=True)
        dump = OUT / f"spans-{args.workload}-seed{args.seed}.json"
        dump.write_text(json.dumps([p.spans for p in passes if p.traced]), encoding="utf-8")
        report["spans_file"] = str(dump.relative_to(ROOT))
    print(json.dumps(report))
    print(json.dumps({
        "correct": not any(f[2] == "wrong" for p in passes for f in p.failures),
        "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
