"""The benchmark's own tests, at a tiny scale.

    python3 -m pytest e2ebench/tests -q
"""

from __future__ import annotations

import json
import random
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import refs
import run as bench
from harness import Clock, Tracer, percentile
import wl_paper
import wl_serve

from repro import evaluate, parse_program
from repro.facts.changelog import AppliedChange, Changeset

ROOT = Path(__file__).resolve().parents[2]


@pytest.mark.parametrize("workload", bench.WORKLOADS)
@pytest.mark.parametrize("trace", [False, True])
def test_workload_runs_to_its_end_without_failures(workload, trace):
    line, detail = bench.run_workload(workload, seed=3, seconds=0.2,
                                      trace=trace, tiny=True)
    assert line["correct"], detail["problems"]
    assert line["failed"] == 0 and line["attempted"] > 0
    expected = bench.PER_LAYER if trace else bench.END_TO_END
    assert set(line["metrics"]) == set(expected)
    for name, metric in line["metrics"].items():
        assert metric["unit"] == expected[name]
        if not trace:
            assert metric["value"] > 0, name


def test_printed_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    for key, printed in (("end_to_end", bench.END_TO_END),
                         ("per_layer", bench.PER_LAYER)):
        assert {m["name"]: m["unit"] for m in spec[key]} == printed
    assert [w["name"] for w in spec["workloads"]] == list(bench.WORKLOADS)
    assert bench.END_TO_END["setup_s"] == "s"


def _rows(db):
    return {pred: set(db.facts(pred)) for pred in db.predicates()}


@pytest.mark.parametrize("entry", wl_paper.PROGRAMS, ids=lambda e: e[0])
def test_paper_references_agree_and_reject_corruption(entry):
    name, text, _, hint, _, preds, generator, _, tiny = entry[:9]
    edb = generator(tiny, random.Random(5))
    rows = _rows(edb)
    want = entry[9](rows)
    result = evaluate(parse_program(text, edb_hint=hint), edb)
    for pred in preds:
        got = set(result.facts(pred))
        digest = refs.digest(want[pred])
        assert refs.compare(pred, got, want[pred]) == []
        assert refs.compare_digest(pred, refs.digest(got), digest) == []
        if got:
            got.pop()
            assert refs.compare(pred, got, want[pred])
            assert refs.compare_digest(pred, refs.digest(got), digest)
        got.add(("corrupt",) * len(next(iter(want[pred]), (0,))))
        assert refs.compare(pred, got, want[pred])
        assert refs.compare_digest(pred, refs.digest(got), digest)
    assert entry[10](rows) == []


def test_ic_checkers_reject_violating_databases():
    assert refs.university_ic_problems(
        {"works_with": {("p1", "p2")}, "expert": {("p2", "f")}})
    assert refs.university_ic_problems(
        {"pays": {(20000, "g", "s1", "t")}, "doctoral": set()})
    par = {("c", 1, "b", 20), ("d", 1, "c", 60), ("e", 1, "d", 80),
           ("b", 30, "a", 40)}
    assert refs.genealogy_ic_problems({"par": par})
    assert refs.organization_ic_problems(
        {"boss": {("e", "b", "executive")}, "experienced": set()})


def test_paper_cycle_check_rejects_a_corrupted_answer():
    edbs, _ = wl_paper.build_edbs(2, True, Tracer(False), Clock())
    references, problems = wl_paper.reference_digests(
        [_rows(edb) for edb in edbs])
    assert problems == []
    out = wl_paper.summarise(wl_paper.cycle(edbs, Tracer(False), Clock()))
    assert wl_paper.check_cycle(out, references) == []
    out = wl_paper.cycle(edbs, Tracer(False), Clock())
    answers = out["answers"][1]
    answers["anc"] = frozenset(list(answers["anc"])[1:])
    assert wl_paper.check_cycle(wl_paper.summarise(out), references)


def test_percentile_takes_the_nearest_rank():
    assert percentile(list(range(1, 13)), 0.75) == 9
    assert percentile(list(range(16, 0, -1)), 0.75) == 12
    assert percentile(list(range(1, 11)), 0.9) == 9
    assert percentile([5.0], 0.99) == 5.0


def test_bfs_reference():
    edges = {("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")}
    succ = refs.successors(edges)
    assert refs.reach_with(succ, "a") == {"a", "b", "c", "d"}
    assert refs.reach_with(succ, "d") == set()


def test_served_read_checks_reject_corruption_and_lost_writes():
    initial = {("a", "b"), ("b", "c")}
    changes = [(("c", "d"), ("a", "b"))]
    log = [AppliedChange(1, Changeset(inserts={"edge": {("c", "d")}},
                                      deletes={"edge": {("a", "b")}}))]
    prefixes = wl_serve.version_prefixes(initial, log, changes)
    assert prefixes == {0: 0, 1: 1}
    good = [{"version": 0, "constant": "a",
             "digest": refs.digest({("b",), ("c",)})},
            {"version": 1, "constant": "b",
             "digest": refs.digest({("c",), ("d",)})}]
    assert wl_serve.check_reads(initial, changes, good, prefixes) == []
    bad = [{"version": 1, "constant": "a",
            "digest": refs.digest({("b",), ("c",)})}]
    assert wl_serve.check_reads(initial, changes, bad, prefixes)
    lost = [AppliedChange(1, Changeset(inserts={"edge": {("x", "y")}}))]
    with pytest.raises(ValueError):
        wl_serve.version_prefixes(initial, lost, changes)


def test_fails_without_the_program_sources(tmp_path):
    shutil.copytree(ROOT / "e2ebench", tmp_path / "e2ebench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    done = subprocess.run(
        [sys.executable, "e2ebench/run.py", "--workload", "bound_queries",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    for line in done.stdout.splitlines():
        with pytest.raises(json.JSONDecodeError):
            json.loads(line)
