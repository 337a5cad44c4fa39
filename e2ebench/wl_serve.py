"""Workload ``serve_mixed``: bound reads beside a stream of edge updates.

An open loop from one generator thread at fixed rates.  Bound
``reach(c, Y)`` reads hit a ``ThreadedServer`` while small edge
changesets arrive through its write pipeline; the server's background
writer maintains the view incrementally.  The graph starts as a
circulant (a ring plus a chord from every node seven steps on); each
changeset deletes one chord and inserts a random new one, so the graph
stays strongly connected, every write runs deletion maintenance over
the whole closure, and the seed drives the changes and the reads.  Each
read is timed from when it was due, so a stall also charges the reads
queued behind it, and the run reports how late the generator ran.  The
rates sit well below saturation (see README).
"""

from __future__ import annotations

import gc
import random
import statistics
import time

import refs
from harness import Clock, Ledger, Tracer, cli_starts, overhead_pct, \
    circulant, peak_rss_mb, percentile

from repro import evaluate, parse_program, parse_query
from repro.errors import ServingUnavailable
from repro.facts.changelog import Changeset, VersionedDatabase
from repro.facts.database import Database
from repro.incremental.maintain import maintain
from repro.serving.threaded import ThreadedServer

PROGRAM = """r0: reach(X, Y) :- edge(X, Y).
             r1: reach(X, Y) :- reach(X, Z), edge(Z, Y)."""

#: (nodes, chord step): 100 nodes, 200 edges, 10,000 closure facts.
FULL = (100, 7)
TINY = (20, 3)
#: One round: one changeset, then READS_PER_ROUND reads spread evenly:
#: 1 changeset/s and 100 reads/s, well below saturation (README).
ROUND_S = 1.0
READS_PER_ROUND = 100
#: Reference-kernel samples: at most one per this many reads, taken
#: only while the writer is idle so it does not contend for the GIL.
KERNEL_EVERY = 10
SETUP_REPEATS = 9
WARMUP_READS = 20
READ_DEADLINE_S = 2.0
#: Changesets replayed through ``maintain`` in a traced run.
MAINTAIN_PROBES = 30


def tail(values: list[float]) -> float:
    """90th percentile: the highest that holds steady from run to run.

    Reads that overlap a refresh wait for the writer to yield the GIL
    after the interpreter's 5 ms switch interval, a wait that does not
    scale with machine speed, so the 99th percentile spreads by a
    quarter between runs (README)."""
    return percentile(values, 0.9)


def build_server(tiny: bool, tracer: Tracer, program,
                 goals) -> tuple[ThreadedServer, set]:
    """A server over the initial graph, materialised and warmed up."""
    edges = circulant(*(TINY if tiny else FULL))
    with tracer.span("facts.edb_build"):
        edb = Database()
        edb.ensure("edge", 2)
        for a, b in edges:
            edb.add_fact("edge", a, b)
    initial = set(edb.facts("edge"))
    server = ThreadedServer(db=edb, default_deadline_s=READ_DEADLINE_S)
    for literals in goals[:WARMUP_READS]:
        server.read(program, literals)  # the first read materialises
    return server, initial


class Stream:
    """The seeded changeset stream and the benchmark's own replay of it."""

    def __init__(self, initial: set, nodes: list, seed: int) -> None:
        self.rng = random.Random(seed * 104729 + 3)
        self.nodes = nodes
        count = len(nodes)
        # Chords only: deleting a ring edge could break the ring.
        self.present = sorted(
            (a, b) for a, b in initial
            if int(b[1:]) != (int(a[1:]) + 1) % count)
        self.members = set(initial)
        self.changes: list[tuple[tuple, tuple]] = []

    def next(self) -> Changeset:
        """An effective changeset against the replay state."""
        while True:
            a, b = self.rng.choice(self.nodes), self.rng.choice(self.nodes)
            if a != b and (a, b) not in self.members:
                break
        index = self.rng.randrange(len(self.present))
        gone = self.present[index]
        self.present[index] = (a, b)
        self.members.discard(gone)
        self.members.add((a, b))
        self.changes.append(((a, b), gone))
        return Changeset(inserts={"edge": {(a, b)}},
                         deletes={"edge": {gone}})


def version_prefixes(initial: set, log, changes) -> dict[int, int]:
    """Served version -> number of stream changesets it includes.

    The server coalesces queued changesets into one version, so each
    version's edge set must equal the replay after some prefix of the
    stream, and the prefixes must grow with the version.  Raises
    ValueError when a version matches no prefix (a lost or reordered
    write).
    """
    server_state, bench_state = set(initial), set(initial)
    prefixes = {0: 0}
    k = 0
    for entry in log:
        for row in entry.changeset.deletes.get("edge", ()):
            server_state.discard(row)
        server_state |= entry.changeset.inserts.get("edge", set())
        while server_state != bench_state and k < len(changes):
            inserted, deleted = changes[k]
            bench_state.discard(deleted)
            bench_state.add(inserted)
            k += 1
        if server_state != bench_state:
            raise ValueError(f"version {entry.version} matches no prefix "
                             "of the submitted changesets")
        prefixes[entry.version] = k
    return prefixes


def check_reads(initial: set, changes, reads, prefixes) -> list[str]:
    """Every served read against a BFS over the replay at its version."""
    problems = []
    by_prefix: dict[int, list] = {}
    for read in reads:
        k = prefixes.get(read["version"])
        if k is None:
            problems.append(f"read at unknown version {read['version']}")
            continue
        by_prefix.setdefault(k, []).append(read)
    state = set(initial)
    done = 0
    for k in sorted(by_prefix):
        for inserted, deleted in changes[done:k]:
            state.discard(deleted)
            state.add(inserted)
        done = k
        succ = refs.successors(state)
        cache: dict = {}
        for read in by_prefix[k]:
            c = read["constant"]
            if c not in cache:
                cache[c] = refs.digest((n,) for n in refs.reach_with(succ, c))
            bad = refs.compare_digest(
                f"read reach({c}, Y) @v{read['version']}", read["digest"],
                cache[c])
            read["ok"] = not bad
            problems.extend(bad)
    return problems


def run(seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    clock = Clock()
    ledger = Ledger()
    tracer = Tracer(trace)
    quiet = Tracer(False)
    program = parse_program(PROGRAM)
    nodes_count = (TINY if tiny else FULL)[0]
    warm = random.Random(seed)
    warm_goals = [parse_query(f"reach(n{warm.randrange(nodes_count)}, Y)")
                  .literals for _ in range(WARMUP_READS)]

    setup_raw = []
    server = initial = None
    for _ in range(SETUP_REPEATS):
        server = None  # let the previous one go before building the next
        gc.collect()  # a server holds reference cycles
        clock.sample()
        start = time.perf_counter()
        server, initial = build_server(tiny, tracer, program, warm_goals)
        setup_raw.append((time.perf_counter() - start, clock.mark()))
    edb_build = tracer.self_times().get("facts.edb_build", [])

    succ = refs.successors(initial)
    nodes = sorted({n for edge in initial for n in edge},
                   key=lambda n: int(n[1:]))
    sizes = {n: len(refs.reach_with(succ, n)) for n in nodes}
    stream = Stream(initial, nodes, seed)
    pick = random.Random(seed * 7919 + 5)

    reads: list[dict] = []
    writes: list[dict] = []
    late: list[float] = []
    traced_lat, plain_lat = [], []
    problems: list[str] = []
    server.start()
    try:
        origin = time.perf_counter() + 0.05
        rounds = max(2, round(seconds / ROUND_S))
        for r in range(rounds):
            traced = trace and r % 2 == 1
            spans = tracer if traced else quiet
            base = origin + r * ROUND_S
            changeset = stream.next()
            _wait(base)
            issued = time.perf_counter()
            late.append(issued - base)
            try:
                with spans.span("serving.update"):
                    server.update(changeset)
                writes.append({"submitted": issued, "mark": clock.mark(),
                               "index": len(stream.changes) - 1})
                ledger.attempt("write", True)
            except ServingUnavailable as error:
                ledger.attempt("write", False)
                problems.append(f"write rejected: {error}")
            for i in range(READS_PER_ROUND):
                due = base + (i + 0.5) * ROUND_S / READS_PER_ROUND
                constant = pick.choice(nodes)
                if i % KERNEL_EVERY == 0 and not server.pipeline.busy \
                        and server.pipeline.pending() == 0 \
                        and due - time.perf_counter() > 0.008:
                    clock.sample()
                _wait(due)
                issued = time.perf_counter()
                late.append(issued - due)
                try:
                    with spans.span("datalog.parse"):
                        goal = parse_query(f"reach({constant}, Y)").literals
                    with spans.span("serving.read"):
                        result = server.read(program, goal)
                except ServingUnavailable as error:
                    ledger.attempt("read", False)
                    if len(problems) < 20:
                        problems.append(f"read rejected: {error}")
                    continue
                done = time.perf_counter()
                reads.append({"due": due, "done": done, "constant": constant,
                              "mark": clock.mark(),
                              "digest": refs.digest(result.rows),
                              "version": result.version,
                              "lag": result.lag,
                              "service_s": result.latency_s,
                              "traced": traced})
                (traced_lat if traced else plain_lat).append(done - due)
        if not server.flush(timeout_s=30.0):
            problems.append("write pipeline did not drain")
    finally:
        server.stop(flush=False)
    # Read before any check runs, so the peak is the program's own work.
    rss_mb = peak_rss_mb()

    try:
        prefixes = version_prefixes(initial, server.server.source.log,
                                    stream.changes)
        problems += check_reads(initial, stream.changes, reads, prefixes)
    except ValueError as error:
        problems.append(str(error))
        prefixes = {}
    for read in reads:
        ledger.attempt("read", read.get("ok", False))

    visible = _visibility(writes, reads, prefixes)
    if not visible:
        problems.append("no changeset became visible to a read")

    cli_raw, cli_ref = cli_starts(ledger, problems)

    latency = [(r["done"] - r["due"], r["mark"]) for r in reads
               if not r["traced"]]
    raw, e2e = {}, {}
    for name, timed, statistic, scale in (
            ("op_p50_ms", latency, statistics.median, 1000),
            ("op_tail_ms", latency, tail, 1000),
            ("prep_ms", visible, statistics.median, 1000),
            ("setup_s", setup_raw, statistics.median, 1)):
        raw[name], e2e[name] = clock.summary(
            [[op] for op in timed], statistic, scale) \
            if timed else (float("nan"), float("nan"))
    raw["cli_start_ms"], e2e["cli_start_ms"] = cli_raw * 1000, cli_ref * 1000
    e2e["peak_rss_mb"] = rss_mb

    layers: dict = {}
    if trace:
        selfs = tracer.self_times()
        traced_reads = [r for r in reads if r["traced"]]
        maintain_raw, deltas = _maintain_probe(program, initial,
                                               stream.changes, tracer)
        layers = {
            "datalog.parse_ms": clock.ref_ms(statistics.median(
                selfs["datalog.parse"])),
            "serving.read_service_ms": clock.ref_ms(statistics.median(
                r["service_s"] for r in traced_reads)),
            "serving.lag_versions": statistics.mean(
                r["lag"] for r in traced_reads),
            "serving.stale_reads": sum(1 for r in traced_reads
                                       if r["lag"] > 0),
            "serving.generator_late_ms": clock.ref_ms(percentile(late,
                                                                 0.99)),
            "incremental.maintain_ms": clock.ref_ms(statistics.median(
                maintain_raw)),
            "incremental.delta_facts": statistics.mean(deltas),
            "facts.edb_build_ms": clock.ref_ms(statistics.median(edb_build)),
            "bench.trace_overhead_pct": overhead_pct(traced_lat, plain_lat),
        }
    detail = {
        "rounds": len(writes), "reads": len(reads),
        "read_rate_per_s": READS_PER_ROUND / ROUND_S,
        "write_rate_per_s": 1 / ROUND_S,
        "edb_rows": len(initial), "closure_facts": sum(sizes.values()),
        "versions_served": len(prefixes),
        "visibility_samples": len(visible),
        "read_ref_ms_p75_p90_p95_p99": [
            percentile(clock.normalise(latency), q) * 1000
            for q in (0.75, 0.9, 0.95, 0.99)],
        "setup_raw_s": [raw_s for raw_s, _ in setup_raw],
        "generator_late_ms_p50": statistics.median(late) * 1000,
        "generator_late_ms_max": max(late) * 1000,
        "stale_reads": sum(1 for r in reads if r["lag"] > 0),
    }
    return {"e2e": e2e, "raw": raw, "layers": layers, "ledger": ledger,
            "problems": problems, "clock": clock, "detail": detail,
            "tracer": tracer}


def _wait(due: float) -> None:
    delay = due - time.perf_counter()
    if delay > 0:
        time.sleep(delay)


def _visibility(writes, reads, prefixes) -> list[float]:
    """Per changeset: submit to the first read at a version holding it."""
    out = []
    ordered = sorted(reads, key=lambda r: r["done"])
    position = 0
    for write in writes:
        needed = write["index"] + 1
        while position < len(ordered) and \
                prefixes.get(ordered[position]["version"], -1) < needed:
            position += 1
        if position == len(ordered):
            break
        out.append((ordered[position]["done"] - write["submitted"],
                    write["mark"]))
    return out


def _maintain_probe(program, initial, changes, tracer):
    """Replay the first changesets through ``maintain`` on a replica."""
    db = Database()
    db.ensure("edge", 2)
    for a, b in sorted(initial):
        db.add_fact("edge", a, b)
    idb = evaluate(program, db).idb
    source = VersionedDatabase(db)
    times, deltas = [], []
    for inserted, deleted in changes[:MAINTAIN_PROBES]:
        source.apply(Changeset(inserts={"edge": {inserted}},
                               deletes={"edge": {deleted}}))
        effective = source.log[-1].changeset
        start = time.perf_counter()
        with tracer.span("incremental.maintain"):
            result = maintain(program, source.db, idb, effective)
        times.append(time.perf_counter() - start)
        deltas.append(result.total_added() + result.total_removed())
    return times, deltas
