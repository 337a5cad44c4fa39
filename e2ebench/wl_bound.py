"""Workload ``bound_queries``: thousands of small query-bound fixpoints.

A closed loop with one client.  A seeded stream of single-constant
queries ``reach(c, Y)`` runs over a cyclic random digraph whose full
closure holds over 10^5 facts: a ring plus random chords, so every
source reaches every node and answer sizes cannot split into modes
(on a plain random digraph a third of the sources reach almost nothing
and the median falls between two modes).  Each query is answered from scratch:
parse, dataflow analysis, plan enumeration (magic rewrite among the
candidates), a small fixpoint and the answer filter.  Per-call fixed
costs dominate here, the opposite regime to ``paper_programs``.
"""

from __future__ import annotations

import random
import statistics
import time

import refs
from harness import Clock, Ledger, Tracer, cli_starts, overhead_pct, \
    peak_rss_mb, percentile, ring_with_chords

from repro import parse_atom, parse_program
from repro.analysis.dataflow import analyze_dataflow
from repro.engine.optimizer import cbo_answers, choose_plan
from repro.facts.database import Database

PROGRAM = """r0: reach(X, Y) :- edge(X, Y).
             r1: reach(X, Y) :- reach(X, Z), edge(Z, Y)."""

#: (nodes, chords): 320 nodes and 800 edges, 102,400 closure facts.
FULL = (320, 480)
TINY = (30, 30)
SETUP_REPEATS = 9
WARMUP_QUERIES = 40
#: Reference-kernel samples are taken once per this many queries.
KERNEL_EVERY = 10


def tail(values: list[float]) -> float:
    return percentile(values, 0.9)


def build(seed: int, tiny: bool, tracer: Tracer):
    nodes, chords = TINY if tiny else FULL
    edges = ring_with_chords(nodes, chords, random.Random(seed))
    with tracer.span("facts.edb_build"):
        edb = Database()
        edb.ensure("edge", 2)
        for a, b in edges:
            edb.add_fact("edge", a, b)
    return edb


def query(program, edb, constant: str, tracer: Tracer):
    """One bound query from scratch; returns (rows, prep seconds)."""
    with tracer.span("datalog.parse"):
        goal = parse_atom(f"reach({constant}, Y)")
    start = time.perf_counter()
    with tracer.span("analysis.dataflow"):
        flow = analyze_dataflow(program, edb=edb, query=goal)
    with tracer.span("engine.choose_plan"):
        choice = choose_plan(program, edb, query=goal, dataflow=flow)
    prep = time.perf_counter() - start
    with tracer.span("engine.query_eval"):
        rows = cbo_answers(program, edb, goal, choice=choice)
    tracer.count("engine.candidates", choice.groups)
    return rows, prep


def run(seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    clock = Clock()
    ledger = Ledger()
    tracer = Tracer(trace)
    quiet = Tracer(False)
    program = parse_program(PROGRAM)

    setup_raw = []
    edb = None
    for _ in range(SETUP_REPEATS):
        clock.sample()
        start = time.perf_counter()
        edb = build(seed, tiny, tracer)
        warm = random.Random(seed)
        for _ in range(WARMUP_QUERIES):
            query(program, edb, f"n{warm.randrange(10)}", quiet)
        setup_raw.append((time.perf_counter() - start, clock.mark()))
    edb_build = tracer.self_times().get("facts.edb_build", [])

    edges = set(edb.facts("edge"))
    succ = refs.successors(edges)
    sources = sorted({a for a, _ in edges}, key=lambda n: int(n[1:]))
    # Digests only, one source at a time: the run holds no closure.
    want = {n: refs.digest((n, m) for m in refs.reach_with(succ, n))
            for n in sources}
    closure = sum(count for count, _ in want.values())
    problems: list[str] = []
    if not tiny and closure < 100_000:
        problems.append(f"closure holds {closure} facts, under 10^5")

    stream = random.Random(seed * 7919 + 1)
    latency_raw, prep_raw, traced_raw, plain_raw = [], [], [], []
    answer_sizes = []
    started = time.perf_counter()
    index = 0
    while index < KERNEL_EVERY or time.perf_counter() - started < seconds \
            or index % KERNEL_EVERY:
        if index % KERNEL_EVERY == 0:
            clock.sample()
        constant = stream.choice(sources)
        traced = trace and index % 2 == 1
        start = time.perf_counter()
        rows, prep = query(program, edb, constant,
                           tracer if traced else quiet)
        elapsed = time.perf_counter() - start
        bad = refs.compare_digest(f"reach({constant}, Y)",
                                  refs.digest(rows), want[constant])
        ledger.attempt("query", not bad)
        if bad and len(problems) < 20:
            problems.extend(bad)
        answer_sizes.append(len(rows))
        (traced_raw if traced else plain_raw).append(elapsed)
        if not traced:
            latency_raw.append((elapsed, clock.mark()))
            prep_raw.append((prep, clock.mark()))
        index += 1
    rss_mb = peak_rss_mb()

    cli_raw, cli_ref = cli_starts(ledger, problems)

    raw, e2e = {}, {}
    for name, timed, statistic, scale in (
            ("op_p50_ms", latency_raw, statistics.median, 1000),
            ("op_tail_ms", latency_raw, tail, 1000),
            ("prep_ms", prep_raw, statistics.median, 1000),
            ("setup_s", setup_raw, statistics.median, 1)):
        raw[name], e2e[name] = clock.summary([[op] for op in timed],
                                             statistic, scale)
    raw["cli_start_ms"], e2e["cli_start_ms"] = cli_raw * 1000, cli_ref * 1000
    e2e["peak_rss_mb"] = rss_mb

    layers: dict = {}
    if trace:
        selfs = tracer.self_times()

        def median_ms(name: str) -> float:
            values = selfs.get(name)
            return clock.ref_ms(statistics.median(values)) if values \
                else 0.0

        traced_queries = max(1, len(selfs.get("engine.query_eval", [])))
        layers = {
            "datalog.parse_ms": median_ms("datalog.parse"),
            "analysis.dataflow_ms": median_ms("analysis.dataflow"),
            "engine.choose_plan_ms": median_ms("engine.choose_plan"),
            "engine.candidates": tracer.counts.get("engine.candidates", 0)
            / traced_queries,
            "engine.query_eval_ms": median_ms("engine.query_eval"),
            "facts.edb_build_ms": clock.ref_ms(statistics.median(edb_build)),
            "bench.trace_overhead_pct": overhead_pct(traced_raw, plain_raw),
        }
    histogram: dict[int, int] = {}
    for size in answer_sizes:
        histogram[size] = histogram.get(size, 0) + 1
    detail = {
        "queries": index, "samples": len(latency_raw),
        "setup_raw_s": [raw_s for raw_s, _ in setup_raw],
        "edb_rows": len(edges), "closure_facts": closure,
        "answer_size_histogram": histogram,
    }
    return {"e2e": e2e, "raw": raw, "layers": layers, "ledger": ledger,
            "problems": problems, "clock": clock, "detail": detail,
            "tracer": tracer}
