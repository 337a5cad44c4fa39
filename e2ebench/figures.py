"""Reference figures for the README, at the benchmark's own sizes.

For each paper program on its seeded EDB: evaluation time of the pushed
(optimised) program against the original, and of the pushed program
under the default knobs, interned + greedy, and vectorized (interned).
Runs are interleaved and repeated; each figure is a median in ref-ms.

    python3 e2ebench/figures.py --seed 1 --repeats 5
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time

from harness import SRC, Clock

CONFIGS = (
    ("original, default knobs", "original", {}),
    ("pushed, default knobs", "pushed", {}),
    ("pushed, interned + greedy", "pushed", {"interning": "on"}),
    ("pushed, vectorized", "pushed", {"interning": "on",
                                      "executor": "vectorized"}),
)


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args(argv)
    sys.path.insert(0, str(SRC))
    import wl_paper
    from harness import Tracer
    from repro import evaluate

    clock = Clock()
    edbs, _ = wl_paper.build_edbs(args.seed, False, Tracer(False), clock)
    print(f"{'program':13s} " + " ".join(f"{c[0]:>26s}" for c in CONFIGS))
    for entry, edb in zip(wl_paper.PROGRAMS, edbs):
        program, _, report, _ = wl_paper.compile_program(entry,
                                                         Tracer(False))
        times: dict[str, list[float]] = {c[0]: [] for c in CONFIGS}
        answers = {}
        for _ in range(args.repeats):
            for label, which, knobs in CONFIGS:
                target = program if which == "original" \
                    else report.optimized
                clock.sample()
                start = time.perf_counter()
                result = evaluate(target, edb, **knobs)
                times[label].append(time.perf_counter() - start)
                got = {p: result.facts(p) for p in entry[5]}
                if answers.setdefault(label, got) != got:
                    raise SystemExit(f"{label}: answers changed")
        if len({frozenset(a.items()) for a in answers.values()}) != 1:
            raise SystemExit(f"{entry[0]}: configurations disagree")
        print(f"{entry[0]:13s} " + " ".join(
            f"{clock.ref_ms(statistics.median(times[c[0]])):26.1f}"
            for c in CONFIGS))
    print(f"reference kernel median: {clock.kernel_median_s() * 1000:.3f} "
          "ms")
    return 0


if __name__ == "__main__":
    sys.exit(main())
