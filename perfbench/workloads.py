"""The three workloads: seeded inputs, one timed round, and its checks.

A round is a fixed list of operations, the same for every seed, so the share
of failed operations never depends on the seed or the run length. Each
workload stamps its round from the first program call to the last verdict
and, separately, each query of its query stream; everything the checks need
is kept and checked after the round.

* argmax-259: `spex sweep argmax --n 259` (5,504 candidates, JSONL rows),
  `spex member` on the argmax join, then 1,000 queries on seeded admissible
  candidates: 970 `spex rho 'k2+[..]'` and 30 `spex member 'k2+[..]' --k 0`.
* verify-grid: `spex verify lemma1 --n 40|60|80`, `spex verify lemma2 --n
  300`, `spex verify entry-bounds` (the pinned 200-join sample), then 1,000
  seeded single checks: 970 `spex verify entry-bounds --n N --parts ..`
  and 30 `spex verify claim33 --n 300 --n1 .. --n2 ..`.
* general-graphs: 2,000 seeded planar non-hub graphs given as graph6 or
  edge-list text (1,970 small, 30 long and thin), each parsed and run through
  is_planar, spectral_radius and, for the small ones, cycle_spectrum and
  in_gnk(k=0); then find_cycle(C1100, 1100), which fails today.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import time
from dataclasses import dataclass, field

from . import checks as C
from . import reference as R


@dataclass
class RoundResult:
    """perf_counter stamps of the round and of each query, for the caller to
    turn into durations, plus what the checks need."""
    span: tuple[float, float]
    queries: list[tuple[float, float]]
    attempted: int
    failed: int
    outputs: dict = field(repr=False)
    failures: list[str] = field(default_factory=list)


def cli_call(spex, argv: list[str]) -> tuple[object, str]:
    """Run `spex argv` in-process with stdout held in memory. Returns the
    exit code, or the exception the CLI let escape, and the captured text."""
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        try:
            rc = spex.cli.main(argv)
        except Exception as exc:  # counted as a failed operation
            rc = exc
    return rc, out.getvalue()


def _failure(argv, rc) -> str:
    return f"spex {' '.join(argv)}: " + (
        f"exit {rc}" if isinstance(rc, int) else f"{type(rc).__name__}: {rc}")


def _jsonl(text: str) -> list[dict]:
    return [json.loads(line) for line in text.splitlines() if line.strip()]


class Workload:
    name = ""

    def __init__(self, spex, seed: int):
        self.spex = spex
        self.seed = seed

    def rng(self, purpose: str, round_index: int) -> random.Random:
        return random.Random(f"{self.name}/{purpose}/{self.seed}/{round_index}")

    def _calls(self, argvs: list[list[str]]):
        """Run CLI calls in order; returns outputs, (start, end) stamps of the
        calls that succeeded, and failures."""
        outs, stamps, failures = [], [], []
        for argv in argvs:
            t0 = time.perf_counter()
            rc, text = cli_call(self.spex, argv)
            if rc == 0:
                stamps.append((t0, time.perf_counter()))
            else:
                failures.append(_failure(argv, rc))
                text = None
            outs.append(text)
        return outs, stamps, failures


# --- argmax-259 -------------------------------------------------------------


class Argmax259(Workload):
    name = "argmax-259"
    N, K, MAX_PARTS = 259, 0, 3
    # 1,000 queries: rho on most candidates, membership on a fixed few. The
    # membership queries (planarity plus the cycle spectrum at n = 259) are
    # the slowest 3%, so query_ms_p99 falls among them, not among
    # interpreter hiccups of the 5 ms rho queries.
    RHO_QUERIES, MEMBER_QUERIES = 970, 30

    def inputs(self, round_index: int) -> list[tuple[str, tuple[int, ...]]]:
        rng = self.rng("queries", round_index)
        cands = rng.sample(R.admissible_forests(self.N, self.K, self.MAX_PARTS),
                           self.RHO_QUERIES + self.MEMBER_QUERIES)
        kinds = ["member"] * self.MEMBER_QUERIES + ["rho"] * self.RHO_QUERIES
        rng.shuffle(kinds)
        return list(zip(kinds, cands))

    def run(self, queries) -> RoundResult:
        sweep = ["sweep", "argmax", "--n", str(self.N)]
        argvs = [[kind, "k2+[" + ",".join(map(str, p)) + "]"]
                 + (["--k", str(self.K)] if kind == "member" else [])
                 for kind, p in queries]
        t0 = time.perf_counter()
        (sweep_out,), _, failures = self._calls([sweep])
        member_out = None
        if sweep_out is not None:
            report = json.loads(sweep_out.rstrip("\n").rsplit("\n", 1)[-1])
            argmax_g6 = report["artifacts"]["argmax_join"]
            (member_out,), _, f = self._calls(
                [["member", argmax_g6, "--k", str(self.K)]])
            failures += f
        else:
            failures.append("spex member: not run, the sweep failed")
        query_outs, stamps, f = self._calls(argvs)
        span = (t0, time.perf_counter())
        failures += f
        return RoundResult(span, stamps, 2 + len(queries), len(failures),
                           {"sweep": sweep_out, "member": member_out,
                            "queries": query_outs}, failures)

    def check(self, queries, res: RoundResult, rng: random.Random) -> list[str]:
        errors = []
        o = res.outputs
        if o["sweep"] is not None:
            lines = _jsonl(o["sweep"])
            errors += C.check_argmax(self.N, self.K, self.MAX_PARTS,
                                     lines[:-1], lines[-1], rng)
        if o["member"] is not None:
            expected = (self.N - 2 * self.K - 4, self.K + 1, self.K + 1)
            errors += C.check_member(json.loads(o["member"]), expected)
        done = [(kind, p, json.loads(t)) for (kind, p), t in zip(queries, o["queries"])
                if t is not None]
        errors += C.check_join_rhos([(p, True, out["rho"])
                                     for kind, p, out in done if kind == "rho"], rng)
        for kind, p, out in done:
            if kind == "member":
                errors += C.check_member(out, p)
        return errors


# --- verify-grid ------------------------------------------------------------


class VerifyGrid(Workload):
    name = "verify-grid"
    LEMMA1_ORDERS = (40, 60, 80)
    LEMMA2_N, LEMMA2_K = 300, 0
    ENTRY_SAMPLE = 200          # the pinned size of `spex verify entry-bounds`
    # 1,000 single checks: entry bounds at n = 20..100 and a fixed few claim33
    # checks at n = 300, the slowest 3%, where query_ms_p99 falls
    ENTRY_QUERIES, CLAIM33_QUERIES = 970, 30
    DENSE_SAMPLE = 24           # grid reports re-derived with eigh per round

    def inputs(self, round_index: int) -> list[tuple]:
        rng = self.rng("queries", round_index)
        out = []
        for _ in range(self.ENTRY_QUERIES):
            n = rng.randint(20, 100)
            parts, left = [], n - 2
            while left:
                p = rng.randint(1, left)
                parts.append(p)
                left -= p
            out.append(("entry-bounds", n, parts))
        splits = C.merge_splits(self.LEMMA2_N, self.LEMMA2_K)
        out += [("claim33",) + s for s in rng.sample(splits, self.CLAIM33_QUERIES)]
        rng.shuffle(out)
        return out

    def grid_argvs(self) -> list[list[str]]:
        return ([["verify", "lemma1", "--n", str(n)] for n in self.LEMMA1_ORDERS]
                + [["verify", "lemma2", "--n", str(self.LEMMA2_N)],
                   ["verify", "entry-bounds"]])

    def query_argv(self, q) -> list[str]:
        if q[0] == "claim33":
            return ["verify", "claim33", "--n", str(self.LEMMA2_N),
                    "--k", str(self.LEMMA2_K), "--n1", str(q[1]), "--n2", str(q[2])]
        return ["verify", "entry-bounds", "--n", str(q[1]),
                "--parts", ",".join(map(str, q[2]))]

    def run(self, queries) -> RoundResult:
        argvs = [self.query_argv(q) for q in queries]
        t0 = time.perf_counter()
        grid_outs, _, failures = self._calls(self.grid_argvs())
        query_outs, stamps, f = self._calls(argvs)
        span = (t0, time.perf_counter())
        failures += f
        return RoundResult(span, stamps, len(grid_outs) + len(query_outs),
                           len(failures),
                           {"grid": grid_outs, "queries": query_outs}, failures)

    def check(self, queries, res: RoundResult, rng: random.Random) -> list[str]:
        errors = []
        grid = [None if t is None else _jsonl(t) for t in res.outputs["grid"]]
        lemma1, (merge, entry) = grid[:len(self.LEMMA1_ORDERS)], grid[-2:]
        for n, reps in zip(self.LEMMA1_ORDERS, lemma1):
            if reps is not None:
                errors += C.check_lemma1(n, reps)
        if merge is not None:
            errors += C.check_merge(self.LEMMA2_N, self.LEMMA2_K, merge)
        if entry is not None:
            errors += C.check_entry_bounds(entry, count=self.ENTRY_SAMPLE)
        done = [(q, _jsonl(t)) for q, t in zip(queries, res.outputs["queries"])
                if t is not None]
        entries = [(q, lines) for q, lines in done if q[0] == "entry-bounds"]
        claims = [(q, lines) for q, lines in done if q[0] == "claim33"]
        if any(len(lines) != 1 for _, lines in entries):
            errors.append("entry-bounds query: expected one report per query")
        else:
            errors += C.check_entry_bounds([lines[0] for _, lines in entries],
                                           expected=[q[1:] for q, _ in entries])
        errors += C.check_claim33(self.LEMMA2_N, self.LEMMA2_K,
                                  [(q[1:], lines) for q, lines in claims])
        pool = [r for reps in grid if reps is not None for r in reps]
        sample = rng.sample(pool, min(self.DENSE_SAMPLE, len(pool)))
        for group in (entries, claims):
            sample += [lines[0] for _, lines in rng.sample(group, min(4, len(group)))]
        for rep in sample:
            errors += C.check_dense(rep)
        return errors


# --- general-graphs ---------------------------------------------------------


def planar_graph(rng: random.Random, n: int, chords: int) -> list[tuple[int, int]]:
    """A random tree plus up to `chords` chords, planar by construction.

    The tree's single face is bounded by its Euler tour; chords between
    positions of that tour that do not cross one another can all be drawn
    inside the face. Labels are shuffled at the end.
    """
    children: list[list[int]] = [[] for _ in range(n)]
    for v in range(1, n):
        children[rng.randrange(v)].append(v)
    edges = {(p, v) for p in range(n) for v in children[p]}
    tour, stack = [], [(0, iter(children[0]))]
    tour.append(0)
    while stack:
        v, it = stack[-1]
        w = next(it, None)
        if w is None:
            stack.pop()
            if stack:
                tour.append(stack[-1][0])
        else:
            tour.append(w)
            stack.append((w, iter(children[w])))
    tour.pop()  # the walk returns to the root; keep each position once
    placed: list[tuple[int, int]] = []
    for _ in range(20 * chords):
        if len(placed) == chords:
            break
        i, j = sorted(rng.sample(range(len(tour)), 2))
        u, v = tour[i], tour[j]
        if u == v or (min(u, v), max(u, v)) in edges:
            continue
        if any((a < i < b) != (a < j < b) for a, b in placed
               if i not in (a, b) and j not in (a, b)):
            continue
        placed.append((i, j))
        edges.add((min(u, v), max(u, v)))
    perm = list(range(n))
    rng.shuffle(perm)
    return sorted((min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges)


def long_thin_graphs(rng: random.Random) -> list[tuple[int, list[tuple[int, int]]]]:
    """Fifteen paths P146..P160 and fifteen caterpillars on spines of
    112..126 with a leg on every 2nd, 4th or 5th spine vertex; labels seeded.

    These are the slowest 1.5% of the queries, so query_ms_p99 falls in the
    middle of them. Their shapes are fixed and chosen to cost about the same
    (n^2 power iterations on a path-like spine), so that p99 is the typical
    long thin query and not whichever one of a spread of sizes sits at its
    rank; only the labels vary with the seed.
    """
    graphs = []
    for i in range(15):
        n = 146 + i
        graphs.append((n, [(v, v + 1) for v in range(n - 1)]))
        spine, d = 112 + i, (2, 4, 5)[i % 3]
        legs = range(0, spine, d)
        edges = [(v, v + 1) for v in range(spine - 1)]
        edges += [(v, spine + j) for j, v in enumerate(legs)]
        graphs.append((spine + len(legs), edges))
    out = []
    for n, edges in graphs:
        perm = list(range(n))
        rng.shuffle(perm)
        out.append((n, sorted((min(perm[u], perm[v]), max(perm[u], perm[v]))
                              for u, v in edges)))
    return out


@dataclass(frozen=True)
class GraphQuery:
    n: int
    edges: tuple[tuple[int, int], ...]
    text: str
    graph6: bool     # text is graph6; otherwise the "n" + "u v" edge list
    small: bool      # small inputs also get cycle_spectrum and in_gnk


class GeneralGraphs(Workload):
    name = "general-graphs"
    SMALL = 1970                    # plus 30 long thin graphs: 2,000 queries
    FAILING_CYCLE = 1100   # find_cycle(C1100, 1100) overflows the recursive DFS

    def inputs(self, round_index: int) -> list[GraphQuery]:
        rng = self.rng("graphs", round_index)
        specs = []
        for _ in range(self.SMALL):
            n = rng.randint(12, 24)
            specs.append((n, planar_graph(rng, n, rng.randint(n // 4, n // 2)), True))
        specs += [(n, e, False) for n, e in long_thin_graphs(rng)]
        rng.shuffle(specs)
        queries = []
        for i, (n, edges, small) in enumerate(specs):
            as_g6 = i % 2 == 0
            text = (R.encode_graph6(n, edges) if as_g6 else
                    f"{n}\n" + "".join(f"{u} {v}\n" for u, v in edges))
            queries.append(GraphQuery(n, tuple(edges), text, as_g6, small))
        return queries

    def run(self, queries) -> RoundResult:
        spex = self.spex
        big = self.FAILING_CYCLE
        cycle_input = spex.from_edges(big, [(v, (v + 1) % big) for v in range(big)])
        stamps, results, failures = [], [], []
        t0 = time.perf_counter()
        for q in queries:
            t = time.perf_counter()
            try:
                g = spex.from_graph6(q.text) if q.graph6 else spex.parse_edge_list(q.text)
                planar = spex.is_planar(g)
                res = spex.spectral_radius(g)
                spec = spex.cycle_spectrum(g) if q.small else None
                member = spex.in_gnk(g, 0) if q.small else None
            except Exception as exc:  # counted as a failed operation
                failures.append(f"graph n={q.n}: {type(exc).__name__}: {exc}")
                results.append(None)
                continue
            stamps.append((t, time.perf_counter()))
            results.append((g, planar, res, spec, member))
        try:
            cycle = spex.find_cycle(cycle_input, big)
        except Exception as exc:  # RecursionError today
            failures.append(f"find_cycle(C{big}, {big}): {type(exc).__name__}")
            cycle = None
        else:
            cycle = ("returned", cycle)
        span = (t0, time.perf_counter())
        return RoundResult(span, stamps, len(queries) + 1, len(failures),
                           {"results": results, "cycle": cycle}, failures)

    def check(self, queries, res: RoundResult, rng: random.Random) -> list[str]:
        errors = []
        for q, r in zip(queries, res.outputs["results"]):
            if r is None:
                continue
            g, planar, sr, spec, member = r
            out = {"n": g.n, "edges": list(g.edges()), "planar": planar,
                   "rho": sr.rho}
            if spec is not None:
                out["records"] = [(rec.ell, rec.status,
                                   None if rec.certificate is None else list(rec.certificate))
                                  for rec in spec.records]
                out["member"] = member
            errors += C.check_general(q.n, q.edges, out)
        if res.outputs["cycle"] is not None:
            errors += C.check_cycle(self.FAILING_CYCLE, res.outputs["cycle"][1])
        return C.capped(errors)


WORKLOADS = {w.name: w for w in (Argmax259, VerifyGrid, GeneralGraphs)}
