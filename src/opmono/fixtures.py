"""Published sequence prefixes that the counting engine must reproduce.

The bundled fixture file is line-oriented plain text with three record
kinds:

    seq   <id> <regime> d=<d> ell=<ell> offset=<0|1>: t1,t2,...
    arow  <id> <regime> d=1 r=<r>: t1,t2,...
    count <id> <regime> d=<d> r=<r> s=<s1,s2,...>: value

``seq`` rows are length-graded prefixes in the natural table indexing (one
term per even length when ell is even); position 0 is the empty object with
value 1, so offset 0 means the prefix starts with that 1.  ``arow`` rows are
one-operator multigraded rows (fixed degree, increasing operator count).
``count`` rows pin a single multigraded value.
"""

from __future__ import annotations

from dataclasses import dataclass
from importlib import resources

from . import counting
from .monomial import Regime


@dataclass(frozen=True)
class FixtureEntry:
    kind: str
    sequence_id: str
    regime: Regime
    d: int
    terms: tuple[int, ...]
    ell: int | None = None
    offset: int | None = None
    r: int | None = None
    s: tuple[int, ...] | None = None


def parse_fixtures(text: str) -> list[FixtureEntry]:
    """The entries of a fixture text; a malformed line raises ValueError
    naming it (``fixture line N: ...``)."""
    entries = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if line and not line.startswith("#"):
            try:
                entries.append(_parse_line(line))
            except ValueError as e:
                raise ValueError(f"fixture line {lineno}: {e}") from None
    return entries


def _int(what: str, text: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValueError(f"{what} is not an integer: {text!r}") from None


def _parse_line(line: str) -> FixtureEntry:
    head, sep, tail = line.partition(":")
    if not sep:
        raise ValueError("missing ':'")
    fields = head.split()
    if len(fields) < 3:
        raise ValueError("too few fields")
    kind, seq_id, regime = fields[0], fields[1], Regime.from_code(fields[2])
    kv = {}
    for tok in fields[3:]:
        key, eq, val = tok.partition("=")
        if not eq:
            raise ValueError(f"expected key=value, got {tok!r}")
        kv[key] = val
    terms = tuple(_int("term", x) for x in tail.replace(",", " ").split())
    if not terms:
        raise ValueError("no terms")

    def take(key: str) -> str:
        if key not in kv:
            raise ValueError(f"missing key {key!r}")
        return kv.pop(key)

    def number(key: str) -> int:
        return _int(key, take(key))

    d = number("d")
    if kind == "seq":
        entry = FixtureEntry("seq", seq_id, regime, d, terms,
                             ell=number("ell"), offset=number("offset"))
    elif kind == "arow":
        if d != 1:
            raise ValueError("arow rows require d=1")
        entry = FixtureEntry("arow", seq_id, regime, d, terms, r=number("r"))
    elif kind == "count":
        s = tuple(_int("s", x) for x in take("s").split(","))
        entry = FixtureEntry("count", seq_id, regime, d, terms, r=number("r"), s=s)
    else:
        raise ValueError(f"unknown kind {kind!r}")
    if kv:
        raise ValueError(f"unexpected keys {sorted(kv)}")
    return entry


def load_fixture_file(path: str) -> list[FixtureEntry]:
    with open(path, encoding="utf-8") as fh:
        return parse_fixtures(fh.read())


def bundled_fixtures() -> list[FixtureEntry]:
    text = resources.files("opmono").joinpath("data/reference_tables.txt").read_text("utf-8")
    return parse_fixtures(text)


def computed_prefix(entry: FixtureEntry) -> list[int]:
    """Recompute the values the entry claims, in the same indexing."""
    if entry.kind == "seq":
        return counting.table_prefix(entry.regime, entry.d, entry.ell,
                                     len(entry.terms), entry.offset)
    if entry.kind == "arow":
        return [counting.count(entry.regime, 1, entry.r, (k,))
                for k in range(len(entry.terms))]
    return [counting.count(entry.regime, entry.d, entry.r, entry.s)]


def check_entry(entry: FixtureEntry) -> str | None:
    """None when the recomputed prefix matches; a mismatch description
    (with the first offending index) otherwise."""
    got = computed_prefix(entry)
    for i, (want, have) in enumerate(zip(entry.terms, got)):
        if want != have:
            return f"index {i}: expected {want}, computed {have}"
    return None
