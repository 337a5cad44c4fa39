"""Workload ``paper_programs``: the paper's pipeline end to end.

A closed loop with one client.  Each cycle takes the text of the
paper's three programs and their ICs, parses, lints, generates residues
(Algorithm 3.1) and pushes them (Algorithm 4.1 plus collapse), then
evaluates the optimised programs with ``evaluate``'s default knobs and
decodes the answers of the paper's predicates.
"""

from __future__ import annotations

import gc
import random
import statistics
import time

import refs
from harness import Clock, Ledger, Tracer, cli_starts, overhead_pct, \
    peak_rss_mb, percentile

from repro import SemanticOptimizer, evaluate, ics_from_text, \
    lint_program, parse_program
from repro.engine.profile import EvalProfile
from repro.workloads.genealogy import GenealogyParams, generate_genealogy
from repro.workloads.organization import OrganizationParams, \
    generate_organization
from repro.workloads.university import UniversityParams, \
    generate_university

#: (name, program text, IC text, EDB hint, small relations, answer
#: predicates, generator, full-scale params, tiny params, reference,
#: IC checker).  Texts are Examples 3.2/4.2, 4.3 and 4.1 of the paper.
PROGRAMS = (
    ("university",
     """r0: eval(P, S, T) :- super(P, S, T).
        r1: eval(P, S, T) :- works_with(P, P0), eval(P0, S, T),
                             expert(P, F), field(T, F).
        r2: eval_support(P, S, T, M) :- eval(P, S, T), pays(M, G, S, T).""",
     """ic1: works_with(P2, P1), expert(P1, F1) -> expert(P2, F1).
        ic2: pays(M, G, S, T), M > 10000 -> doctoral(S).""",
     ("has", "doctoral"), ("doctoral",), ("eval", "eval_support"),
     generate_university, UniversityParams(professors=250, payments=400),
     UniversityParams(professors=30, payments=60),
     refs.university_answers, refs.university_ic_problems),
    ("genealogy",
     """r0: anc(X, Xa, Y, Ya) :- par(X, Xa, Y, Ya).
        r1: anc(X, Xa, Y, Ya) :- anc(X, Xa, Z, Za), par(Z, Za, Y, Ya).""",
     """ic1: Ya <= 50, par(Z, Za, Y, Ya), par(Z2, Z2a, Z, Za),
             par(Z3, Z3a, Z2, Z2a) -> .""",
     (), (), ("anc",),
     generate_genealogy,
     GenealogyParams(generations=12, width=60, parents_per_person=2),
     GenealogyParams(generations=6, width=8, parents_per_person=2),
     refs.genealogy_answers, refs.genealogy_ic_problems),
    ("organization",
     """r1: triple(E1, E2, E3) :- same_level(E1, E2, E3).
        r2: triple(E1, E2, E3) :- boss(U, E3, R), experienced(U),
                                  triple(U, E1, E2).""",
     "ic1: boss(E, B, R), R = executive -> experienced(B).",
     (), (), ("triple",),
     generate_organization,
     OrganizationParams(levels=6, width=200, same_level_triples=20000),
     OrganizationParams(levels=4, width=12, same_level_triples=60),
     refs.organization_answers, refs.organization_ic_problems),
)

SETUP_REPEATS = 5


def tail(values: list[float]) -> float:
    """The upper quartile: a run holds under twenty cycles, too few for
    a steady higher percentile (the 90th spread 0.14 to 0.19 between
    runs)."""
    return percentile(values, 0.75)


def _rows(db) -> dict[str, set]:
    return {pred: set(db.facts(pred)) for pred in db.predicates()}


def build_edbs(seed: int, tiny: bool, tracer: Tracer,
               clock: Clock) -> tuple[list, list]:
    """One seeded IC-consistent EDB per program, and the time each took
    as a part (raw seconds, mark) after its own kernel sample."""
    rng = random.Random(seed)
    edbs, parts = [], []
    for entry in PROGRAMS:
        generator, params = entry[6], entry[8] if tiny else entry[7]
        clock.sample()
        start = time.perf_counter()
        with tracer.span("facts.edb_build"):
            edbs.append(generator(params, rng))
        parts.append((time.perf_counter() - start, clock.mark()))
    return edbs, parts


def compile_program(entry, tracer: Tracer):
    """Text -> optimised program; returns (program, ICs, optimisation
    report, lint report)."""
    _, text, ic_text, hint, small = entry[:5]
    with tracer.span("datalog.parse"):
        program = parse_program(text, edb_hint=hint)
        ics = tuple(ics_from_text(ic_text))
    with tracer.span("analysis.lint"):
        lint = lint_program(program, ics=ics)
    with tracer.span("core.optimize"):
        report = SemanticOptimizer(program, ics,
                                   small_relations=small).optimize()
    return program, ics, report, lint


def cycle(edbs, tracer: Tracer, clock: Clock) -> dict:
    """One cycle; answers and stats are returned for checking.

    The compile step and each program's evaluation are timed as parts,
    (raw seconds, mark), each after its own reference-kernel sample: a
    cycle takes a second, and machine speed changes within that.
    """
    clock.sample()
    start = time.perf_counter()
    compiled = [compile_program(entry, tracer) for entry in PROGRAMS]
    compile_part = (time.perf_counter() - start, clock.mark())
    answers, stats, evals = [], [], []
    for entry, (_, _, report, _), edb in zip(PROGRAMS, compiled, edbs):
        clock.sample()
        start = time.perf_counter()
        with tracer.span("engine.eval." + entry[0]):
            result = evaluate(report.optimized, edb)
        with tracer.span("facts.decode"):
            answers.append({pred: result.facts(pred) for pred in entry[5]})
        evals.append((time.perf_counter() - start, clock.mark()))
        stats.append(result.stats)
        del result  # hold no evaluation while the next one runs
    return {"compile": [compile_part], "eval": evals,
            "compiled": compiled, "answers": answers, "stats": stats}


def summarise(out: dict) -> dict:
    """Replace a cycle's answers by their digests, outside the timed
    region, so no copy of an answer outlives its cycle."""
    out["digests"] = [{pred: refs.digest(rows)
                       for pred, rows in answer.items()}
                      for answer in out.pop("answers")]
    return out


def reference_digests(edb_rows: list) -> tuple[list, list[str]]:
    """Digests of the reference answers, and the EDBs' IC violations."""
    digests, problems = [], []
    for entry, rows in zip(PROGRAMS, edb_rows):
        problems += entry[10](rows)
        digests.append({pred: refs.digest(answer)
                        for pred, answer in entry[9](rows).items()})
    return digests, problems


def check_cycle(out: dict, references: list) -> list[str]:
    problems = []
    for entry, (_, _, _, lint), got, want in zip(
            PROGRAMS, out["compiled"], out["digests"], references):
        if lint.errors:
            problems.append(f"{entry[0]}: lint errors "
                            f"{[d.code for d in lint.errors]}")
        for pred in entry[5]:
            problems += refs.compare_digest(f"{entry[0]}.{pred}",
                                            got[pred], want[pred])
    return problems


def run(seed: int, seconds: float, trace: bool, tiny: bool = False) -> dict:
    began = time.perf_counter()
    clock = Clock()
    ledger = Ledger()
    tracer = Tracer(trace)
    quiet = Tracer(False)

    # -- set-up: seeded EDBs plus a warm-up cycle, several times ----------
    setup_raw = []
    for _ in range(SETUP_REPEATS):
        edbs = warm = None  # let the previous set-up go first
        gc.collect()  # it holds reference cycles
        edbs, built = build_edbs(seed, tiny, tracer, clock)
        warm = summarise(cycle(edbs, quiet, clock))
        setup_raw.append(built + warm["compile"] + warm["eval"])
    edb_build = tracer.self_times().get("facts.edb_build", [])

    phases = {"setup_done": time.perf_counter()}
    # -- timed closed loop: whole cycles until the run length is spent ---
    compile_raw, eval_raw, traced_total, plain_total = [], [], [], []
    cycles = []
    residues_raw, residues_found = [], 0
    started = time.perf_counter()
    index = 0
    while index < 2 or time.perf_counter() - started < seconds:
        # In a traced run every other cycle is traced, so the tracing
        # overhead is measured inside one run.
        traced = trace and index % 2 == 1
        out = summarise(cycle(edbs, tracer if traced else quiet, clock))
        cycles.append(out)
        (traced_total if traced else plain_total).append(
            sum(raw_s for raw_s, _ in out["compile"] + out["eval"]))
        if not traced:
            compile_raw.append(out["compile"])
            eval_raw.append(out["eval"])
        if traced:
            # Algorithm 3.1 alone, outside the timed cycle: optimize()
            # regenerates residues internally, so pushing and collapse
            # are the optimize span minus this.
            start = time.perf_counter()
            residues_found = 0
            for entry, (program, ics, _, _) in zip(PROGRAMS,
                                                   out["compiled"]):
                residues_found += len(SemanticOptimizer(
                    program, ics, small_relations=entry[4]).all_residues())
            residues_raw.append(time.perf_counter() - start)
        index += 1
    last = cycles[-1]

    phases["loop_done"] = time.perf_counter()
    # Read before any check runs, so the peak is the program's own work.
    rss_mb = peak_rss_mb()

    # -- references and method properties (after the peak is read) -----
    edb_rows = [_rows(edb) for edb in edbs]
    references, problems = reference_digests(edb_rows)
    problems += check_cycle(warm, references)
    for out in cycles:
        bad = check_cycle(out, references)
        for _ in PROGRAMS:
            ledger.attempt("compile", not bad)
            ledger.attempt("evaluate", not bad)
        if bad and len(problems) < 20:
            problems.extend(bad)
    for entry, (program, _, report, _), edb in zip(
            PROGRAMS, warm["compiled"], edbs):
        # Theorem 4.1: the pushed program answers exactly as the original
        # does, both under the interpreted (reference) executor.
        original = evaluate(program, edb, executor="interpreted")
        pushed = evaluate(report.optimized, edb, executor="interpreted")
        for pred in entry[5]:
            problems += refs.compare(f"theorem 4.1 {entry[0]}.{pred}",
                                     pushed.facts(pred),
                                     original.facts(pred))
    phases["checks_done"] = time.perf_counter()

    cli_raw, cli_ref = cli_starts(ledger, problems)
    phases["cli_done"] = time.perf_counter()

    raw, e2e = {}, {}
    for name, timed, statistic, scale in (
            ("op_p50_ms", eval_raw, statistics.median, 1000),
            ("op_tail_ms", eval_raw, tail, 1000),
            ("prep_ms", compile_raw, statistics.median, 1000),
            ("setup_s", setup_raw, statistics.median, 1)):
        raw[name], e2e[name] = clock.summary(timed, statistic, scale)
    raw["cli_start_ms"], e2e["cli_start_ms"] = cli_raw * 1000, cli_ref * 1000
    e2e["peak_rss_mb"] = rss_mb

    layers: dict = {}
    if trace:
        layers = _layers(tracer, clock, last, edbs, residues_raw,
                         residues_found, edb_build, traced_total,
                         plain_total)
    facts = sum(count for answer in last["digests"]
                for count, _ in answer.values())
    detail = {
        "cycles": index, "samples": len(eval_raw),
        "setup_raw_s": [sum(raw_s for raw_s, _ in parts)
                        for parts in setup_raw],
        "phase_done_s": {name: at - began for name, at in phases.items()},
        "derived_facts_per_cycle": facts,
        "edb_rows": {entry[0]: sum(len(r) for r in rows.values())
                     for entry, rows in zip(PROGRAMS, edb_rows)},
        "answer_rows": {f"{entry[0]}.{pred}": answer[pred][0]
                        for entry, answer in zip(PROGRAMS, last["digests"])
                        for pred in entry[5]},
        "rules_out": {entry[0]: len(c[2].optimized.rules)
                      for entry, c in zip(PROGRAMS, last["compiled"])},
    }
    return {"e2e": e2e, "raw": raw, "layers": layers, "ledger": ledger,
            "problems": problems, "clock": clock, "detail": detail,
            "tracer": tracer}


def _layers(tracer, clock, last, edbs, residues_raw, residues_found,
            edb_build, traced_total, plain_total) -> dict:
    selfs = tracer.self_times()
    cycles = max(1, len(selfs.get("core.optimize", [])) // len(PROGRAMS))

    def per_cycle(name: str) -> float:
        return clock.ref_ms(sum(selfs.get(name, [])) / cycles)

    residues_ms = clock.ref_ms(statistics.median(residues_raw)) \
        if residues_raw else 0.0
    out = {
        "datalog.parse_ms": per_cycle("datalog.parse"),
        "analysis.lint_ms": per_cycle("analysis.lint"),
        "core.residues_ms": residues_ms,
        "core.residues_found": residues_found,
        "core.optimize_ms": max(0.0, per_cycle("core.optimize")
                                - residues_ms),
        "core.pushes_applied": sum(len(c[2].applied_steps)
                                   for c in last["compiled"]),
        "core.rules_out": sum(len(c[2].optimized.rules)
                              for c in last["compiled"]),
        "facts.decode_ms": per_cycle("facts.decode"),
        "facts.edb_build_ms": clock.ref_ms(
            sum(edb_build) / max(1, len(edb_build) // len(PROGRAMS))),
    }
    for entry, stats in zip(PROGRAMS, last["stats"]):
        name = entry[0]
        out[f"engine.eval_ms.{name}"] = per_cycle("engine.eval." + name)
        out[f"engine.iterations.{name}"] = stats.iterations
        out[f"engine.rows_matched.{name}"] = stats.rows_matched
        out[f"engine.atom_lookups.{name}"] = stats.atom_lookups
        out[f"engine.derivations.{name}"] = stats.derivations
        attempts = stats.derivations + stats.duplicate_derivations
        out[f"engine.useful_share.{name}"] = \
            stats.derivations / attempts if attempts else 0.0
    # The public profile= hook, once per program, outside the loop.
    kernel_s, deltas, rounds = 0.0, 0, 0
    for (_, _, report, _), edb in zip(last["compiled"], edbs):
        profile = EvalProfile()
        evaluate(report.optimized, edb, profile=profile)
        kernel_s += sum(k["seconds"] for k in profile.kernels.values())
        for entry in profile.rounds:
            deltas += sum(entry["deltas"].values())
            rounds += 1
    out["engine.kernel_ms"] = clock.ref_ms(kernel_s)
    out["engine.round_delta"] = deltas / rounds if rounds else 0.0
    out["bench.trace_overhead_pct"] = overhead_pct(traced_total,
                                                   plain_total)
    return out
