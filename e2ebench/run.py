"""End-to-end benchmark of the repro pipeline; one workload per process.

Usage (from the root of a checkout)::

    python3 e2ebench/run.py --workload paper_programs --seed 1 \\
        --seconds 10 --trace 0
    python3 e2ebench/run.py --workload all --seconds 10

``--trace 0`` prints every end-to-end metric; ``--trace 1`` runs the
workload with spans around the benchmark's calls into each layer and
prints every per-layer metric.  The last line of standard output is one
JSON object: ``{"correct", "attempted", "failed", "metrics"}``.  The
line before it (``{"detail": ...}``) carries the raw times, the
reference kernel's times, the per-operation ledger and any problems.
Span dumps go to ``.e2ebench_out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time

from harness import ROOT, SRC, cli_import_probe, out_dir

WORKLOADS = ("paper_programs", "bound_queries", "serve_mixed")

#: End-to-end metrics every workload reports; see README for what each
#: one measures on each workload.
END_TO_END = {
    "op_p50_ms": "ref-ms",
    "op_tail_ms": "ref-ms",
    "prep_ms": "ref-ms",
    "cli_start_ms": "ref-ms",
    # Normalised like the other times, in seconds at reference speed.
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

_PAPER = ("university", "genealogy", "organization")

#: Per-layer metrics, named by module.  A workload that bypasses a
#: layer reports 0 for it.
PER_LAYER = {
    "datalog.parse_ms": "ref-ms",
    "analysis.lint_ms": "ref-ms",
    "analysis.dataflow_ms": "ref-ms",
    "core.residues_ms": "ref-ms",
    "core.residues_found": "count",
    "core.optimize_ms": "ref-ms",
    "core.pushes_applied": "count",
    "core.rules_out": "count",
    **{f"engine.{kind}.{name}": unit for name in _PAPER
       for kind, unit in (("eval_ms", "ref-ms"), ("iterations", "count"),
                          ("rows_matched", "count"),
                          ("atom_lookups", "count"),
                          ("derivations", "count"),
                          ("useful_share", "share"))},
    "engine.kernel_ms": "ref-ms",
    "engine.round_delta": "rows",
    "engine.choose_plan_ms": "ref-ms",
    "engine.candidates": "count",
    "engine.query_eval_ms": "ref-ms",
    "facts.decode_ms": "ref-ms",
    "facts.edb_build_ms": "ref-ms",
    "incremental.maintain_ms": "ref-ms",
    "incremental.delta_facts": "count",
    "serving.read_service_ms": "ref-ms",
    "serving.lag_versions": "versions",
    "serving.stale_reads": "count",
    "serving.generator_late_ms": "ref-ms",
    "cli.import_ms": "ref-ms",
    "cli.modules_imported": "count",
    "cli.modules_total": "count",
    "bench.ref_kernel_ms": "ms",
    "bench.trace_overhead_pct": "%",
    "raw.op_p50_ms": "ms",
    "raw.op_tail_ms": "ms",
    "raw.prep_ms": "ms",
    "raw.cli_start_ms": "ms",
    "raw.setup_s": "s",
}

CLI_IMPORT_PROBES = 3


def _load(workload: str):
    if workload == "paper_programs":
        import wl_paper as module
    elif workload == "bound_queries":
        import wl_bound as module
    else:
        import wl_serve as module
    return module


def run_workload(workload: str, seed: int, seconds: float, trace: bool,
                 tiny: bool = False) -> tuple[dict, dict]:
    """Run one workload in this process; returns (result line, detail)."""
    result = _load(workload).run(seed, seconds, trace, tiny=tiny)
    clock, ledger = result["clock"], result["ledger"]
    if trace:
        layers = dict.fromkeys(PER_LAYER, 0)
        unknown = set(result["layers"]) - set(PER_LAYER)
        if unknown:
            raise KeyError(f"unregistered per-layer metrics {unknown}")
        layers.update(result["layers"])
        imports = [cli_import_probe() for _ in range(CLI_IMPORT_PROBES)]
        layers["cli.import_ms"] = statistics.median(
            seconds for seconds, _, _ in imports) * 1000
        layers["cli.modules_imported"] = imports[-1][1]
        layers["cli.modules_total"] = imports[-1][2]
        layers["bench.ref_kernel_ms"] = clock.kernel_median_s() * 1000
        for name, value in result["raw"].items():
            layers["raw." + name] = value
        metrics = {name: {"value": layers[name], "unit": unit}
                   for name, unit in PER_LAYER.items()}
        result["tracer"].write(
            out_dir() / f"spans-{workload}-{seed}.json")
    else:
        metrics = {name: {"value": result["e2e"][name], "unit": unit}
                   for name, unit in END_TO_END.items()}
    line = {"correct": not result["problems"],
            "attempted": ledger.attempted, "failed": ledger.failed,
            "metrics": metrics}
    detail = {"workload": workload, "seed": seed, "trace": trace,
              "raw": result["raw"], "ops": ledger.ops,
              "kernel_ms": [k * 1000 for k in clock.kernel_s],
              "problems": result["problems"][:20], **result["detail"]}
    return line, detail


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro sources under {SRC}; run from a checkout "
              "of the repository", file=sys.stderr)
        return 2
    if args.workload == "all":
        return _run_all(args)
    sys.path.insert(0, str(SRC))
    line, detail = run_workload(args.workload, args.seed, args.seconds,
                                bool(args.trace))
    print(json.dumps({"detail": detail}))
    print(json.dumps(line))
    return 0


def _run_all(args) -> int:
    """Each workload in its own process, one after another."""
    status = 0
    for workload in WORKLOADS:
        command = [sys.executable, str(ROOT / "e2ebench" / "run.py"),
                   "--workload", workload, "--seed", str(args.seed),
                   "--seconds", str(args.seconds),
                   "--trace", str(args.trace)]
        started = time.perf_counter()
        done = subprocess.run(command, cwd=ROOT, capture_output=True,
                              text=True, check=False)
        if done.returncode != 0:
            print(f"{workload}: exit {done.returncode}\n{done.stderr}",
                  file=sys.stderr)
            status = 1
            continue
        line = json.loads(done.stdout.strip().splitlines()[-1])
        print(f"== {workload} ({time.perf_counter() - started:.1f} s): "
              f"correct={line['correct']} attempted={line['attempted']} "
              f"failed={line['failed']}")
        for name, metric in line["metrics"].items():
            print(f"  {name:34s} {metric['value']:14.4f} {metric['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
