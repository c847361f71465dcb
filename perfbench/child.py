"""Fresh-process helpers started by run.py.

    python3 perfbench/child.py trace-cli SPANS_OUT OP_ID CLI_ARGS...
        runs one besselzeta command with the layer tracer installed and
        writes its spans and counters to SPANS_OUT;
    python3 perfbench/child.py rounds SEED FIRST_ROUND SECONDS
        an exhaustive_sums worker: imports besselzeta and runs half of
        round 0, the set-up, and prints its time; then runs and checks rounds
        FIRST_ROUND, FIRST_ROUND + 1, ... for about SECONDS, printing
        one JSON line per round.
"""

from __future__ import annotations

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def trace_cli(out, op_id, argv) -> int:
    import besselzeta.cli
    import besselzeta.suites
    import tracer

    suites = {name: f"suites.{fn.__name__}"
              for name, fn in besselzeta.suites.SUITES.items()}
    tr = tracer.Tracer(timed=suites.values()).install()
    tr.op = int(op_id)
    try:
        rc = besselzeta.cli.main(argv)
    except SystemExit as exc:        # argparse and usage errors
        rc = exc.code if isinstance(exc.code, int) else 1
    finally:
        sys.stdout.flush()
        tr.uninstall()
        tr.dump(out, {"suites": suites,
                      "limits": dict(getattr(besselzeta.suites, "RUNTIME_LIMITS", {}))})
    return rc


def rounds(seed, first, seconds) -> int:
    import json
    import time

    t0 = time.perf_counter()
    import workloads

    seed, r, seconds = int(seed), int(first), float(seconds)
    ex = workloads.ExhaustiveSums(seed)
    # the cold pass of the set-up meets every ring, modulus and coset set-up
    # of a round, at half its size: the lazy set-up is paid in full while a
    # run's time goes to the timed rounds
    ex.run({k: v[::2] for k, v in workloads.exhaustive_round(seed, 0).items()})
    print(json.dumps({"setup": time.perf_counter() - t0, "missing": ex.missing}))
    busy = wall = 0.0
    while workloads.more(busy, wall, seconds):
        batch = workloads.exhaustive_round(seed, r)
        t0 = time.perf_counter()
        try:
            out = ex.run(batch)
        except Exception as exc:      # a failing round is counted, not fatal
            out = exc
        wall = time.perf_counter() - t0
        problem = workloads.ExhaustiveSums.problem(batch, out)
        terms = 0 if problem else workloads.exhaustive_terms(batch, out)
        print(json.dumps({"round": r, "wall": wall, "problem": problem,
                          "terms": terms}))
        busy += wall
        r += 1
    return 0


if __name__ == "__main__":
    mode, rest = sys.argv[1], sys.argv[2:]
    if mode == "trace-cli":
        sys.exit(trace_cli(rest[0], rest[1], rest[2:]))
    if mode == "rounds":
        sys.exit(rounds(*rest))
    sys.exit(f"unknown mode {mode!r}")
