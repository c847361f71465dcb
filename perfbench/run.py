"""Benchmark of the besselzeta verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (closed loops, one client):

  verify_all       fresh-process `besselzeta verify --suite all`, BZ_SEED=N
  exhaustive_sums  rounds of character-sum lemma checks made by direct
                   library calls, in a few worker processes in turn

--trace 0 measures the end-to-end metrics with tracing off.  --trace 1
is the separate traced run: it alternates one untraced and one traced
unit of the workload and reports the per-layer metrics of BENCHMARK.json.
Every output is checked; the last stdout line is the JSON result.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".perfbench_work"
PY = sys.executable
sys.path.insert(0, str(HERE))

import tracer  # noqa: E402
import workloads  # noqa: E402

SETUP_IMPORTS = 5          # fresh `import besselzeta` runs behind setup_s
EXHAUSTIVE_WORKERS = 3     # exhaustive_sums processes; each set-up is a sample
IMPORT_PROBES = 3          # `python -X importtime` runs behind import.*
TAIL_BEYOND = 10           # samples required beyond the tail percentile

# which end-to-end metric each layer metric should move, on which workload
LAYER_TARGETS = {
    "import.": "setup_s on every workload",
    "cli.": "op_p50_s on verify_all",
    "suite.": "op_p50_s on verify_all",
    "symfield.": "op_p50_s on verify_all; none on exhaustive_sums",
    "sympy.": "op_p50_s on verify_all",
    "localzeta.": "op_p50_s on verify_all",
    "localrep.": "op_p50_s on verify_all",
    "padicring.": "terms_per_s and op_p50_s on exhaustive_sums",
    "globalasm.": "exhaustive_sums (Dirichlet sums), verify_all (quadrature)",
    "classgroup.": "op_p50_s on verify_all",
    "trace.": "cost of tracing, traced over untraced wall time",
}
RATFUNC_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                 "__rmul__", "__truediv__", "__rtruediv__", "__neg__", "__pow__", "inv")


class Failure(Exception):
    pass


# ---------------------------------------------------------------------------
# processes


@dataclass
class Child:
    argv: list
    wall: float
    rc: int
    stdout: bytes
    rss_mb: float
    stderr: bytes


def child_env(seed=None) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env.pop("BZ_SEED", None)
    if seed is not None:
        env["BZ_SEED"] = str(seed)
    return env


def run_child(argv, env) -> Child:
    """Run to completion; wall time and the child's own peak RSS."""
    err_path = WORK / "stderr.txt"
    t0 = time.perf_counter()
    with open(err_path, "wb") as err:
        proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=subprocess.PIPE,
                                stderr=err, env=env, cwd=ROOT)
        try:
            out = proc.stdout.read()
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            proc.stdout.close()
    wall = time.perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(argv, wall, proc.returncode, out, usage.ru_maxrss / 1024,
                 err_path.read_bytes())


def cli_argv(args):
    return [PY, "-m", "besselzeta.cli", *args]


# ---------------------------------------------------------------------------
# statistics


def tail(samples):
    """(value, percentile, n): the highest percentile with TAIL_BEYOND
    samples above it; the median when that percentile would be below 50."""
    xs, n = sorted(samples), len(samples)
    k = n - TAIL_BEYOND
    if 2 * k < n:
        return statistics.median(xs), 50, n
    return xs[k - 1], 100 * k // n, n


def end_to_end(walls, terms, setup, rss, n_ok):
    value, pct, n = tail(walls)
    note = (f"p{pct} of {n} samples" if pct > 50 else
            f"p50 of {n} samples: no percentile above the median has "
            f"{TAIL_BEYOND} samples beyond it")
    busy = sum(walls)
    return {
        "op_p50_s": statistics.median(walls),
        "op_tail_s": value,
        "ops_per_s": len(walls) / busy,
        "terms_per_s": terms / busy,
        "setup_s": statistics.median(setup),
        "peak_rss_mb": rss,
        "ok_ratio": n_ok / len(walls),
    }, {"op_tail_s": note,
        "setup_s": f"median of {len(setup)} fresh set-ups spread over the run",
        "peak_rss_mb": "median over the processes doing the work",
        "terms_per_s": f"{terms} character-sum terms in {busy:.3f} s of operations"}


# ---------------------------------------------------------------------------
# checking outputs


class Checker:
    """Checks each distinct output once; outputs repeat within a run."""

    def __init__(self, check):
        self.check, self.seen = check, {}
        self.failures = []

    def __call__(self, argv, rc, stdout) -> bool:
        key = (tuple(argv), rc, hashlib.sha256(stdout).digest())
        if key not in self.seen:
            try:
                problem = self.check(argv, rc, stdout)
            except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
                problem = f"unreadable output: {exc!r}"
            self.seen[key] = problem
            if problem:
                self.failures.append(f"{' '.join(argv)}: {problem}")
        return self.seen[key] is None


def verify_checker(seed):

    return Checker(lambda argv, rc, out: f"exit code {rc}" if rc
                   else workloads.check_verify(out, seed))


# ---------------------------------------------------------------------------
# set-up


class SetupProbes:
    """Set-up measured `n` times in fresh processes, spread evenly over the
    run's operation time so that the probes meet the host's speed as the
    operations do."""

    def __init__(self, argv, env, n, seconds):
        self.argv, self.env, self.n, self.seconds = argv, env, n, seconds
        self.walls = []
        run_child(argv, env)                      # fills the bytecode cache

    def due(self, busy):
        while len(self.walls) < self.n and busy >= len(self.walls) * self.seconds / self.n:
            c = run_child(self.argv, self.env)
            if c.rc:
                raise Failure(f"set-up failed:\n{c.stderr.decode()[-2000:]}")
            self.walls.append(c.wall)

    def finish(self):
        self.due(float("inf"))
        return self.walls


def import_probes(env, seconds):
    return SetupProbes([PY, "-c", "import besselzeta"], env, SETUP_IMPORTS, seconds)


def import_split(env) -> dict:
    names = {"besselzeta": "import.besselzeta_s", "sympy": "import.sympy_s",
             "mpmath": "import.mpmath_s", "scipy.integrate": "import.scipy_s"}
    got = {m: [] for m in names.values()}
    for _ in range(IMPORT_PROBES):
        c = run_child([PY, "-X", "importtime", "-c", "import besselzeta, scipy.integrate"], env)
        seen = set()
        for line in c.stderr.decode().splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[2].strip() in names and parts[2].strip() not in seen:
                seen.add(parts[2].strip())
                got[names[parts[2].strip()]].append(int(parts[1]) / 1e6)
    return {m: statistics.median(v) for m, v in got.items() if v}


# ---------------------------------------------------------------------------
# untraced runs (end-to-end metrics)


def run_verify_all(seed, seconds):
    """Fresh `verify` processes, one after another, for about `seconds`
    of operation time."""
    env = child_env(seed)
    checker = verify_checker(seed)
    setup = import_probes(env, seconds)
    records, busy, last = [], 0.0, 0.0
    setup.due(busy)
    while workloads.more(busy, last, seconds):
        records.append(run_child(cli_argv(workloads.VERIFY_ARGV), env))
        last = records[-1].wall
        busy += last
        setup.due(busy)
    ok = [checker(workloads.VERIFY_ARGV, c.rc, c.stdout) for c in records]
    terms = sum(workloads.verify_terms(c.stdout) for c, good in zip(records, ok) if good)
    rss = statistics.median(c.rss_mb for c in records)
    return [c.wall for c in records], terms, setup.finish(), rss, ok, checker.failures


def run_exhaustive(seed, seconds):
    """Rounds run in EXHAUSTIVE_WORKERS fresh processes one after another,
    each for an equal share of `seconds`, so that the figures average over
    several processes as those of the fresh-process workloads do."""
    walls, terms, setup, rss, ok, failures, missing = [], 0, [], [], [], [], set()
    for w in range(EXHAUSTIVE_WORKERS):
        c = run_child([PY, str(HERE / "child.py"), "rounds", str(seed),
                       str(1 + w * 10_000), str(seconds / EXHAUSTIVE_WORKERS)],
                      child_env())
        if c.rc:
            raise Failure(f"exhaustive_sums worker failed (exit {c.rc}):\n"
                          f"{c.stderr.decode(errors='replace')[-2000:]}")
        head, *records = (json.loads(line) for line in c.stdout.splitlines())
        setup.append(head["setup"])
        missing.update(head["missing"])
        rss.append(c.rss_mb)
        for rec in records:
            walls.append(rec["wall"])
            terms += rec["terms"]
            ok.append(rec["problem"] is None)
            if rec["problem"]:
                failures.append(f"round {rec['round']}: {rec['problem']}")
    for name in sorted(missing):
        print(f"absent public name, its checks skipped: {name}")
    return walls, terms, setup, statistics.median(rss), ok, failures


UNTRACED = {"verify_all": run_verify_all, "exhaustive_sums": run_exhaustive}


# ---------------------------------------------------------------------------
# traced run (per-layer metrics)


def layer_metrics(snaps, stdout_bytes) -> dict:
    """Layer figures of one traced operation."""
    selfs, spans_in, calls, timed = {}, {}, {}, {}
    gcd = {"calls": 0, "trivial": 0}
    for s in snaps:
        for k, v in tracer.self_times(s["spans"]).items():
            selfs[k] = selfs.get(k, 0.0) + v
        for k, v in tracer.layer_calls(s["spans"]).items():
            spans_in[k] = spans_in.get(k, 0) + v
        for src, dst in ((s["calls"], calls), (s["timed"], timed)):
            for k, v in src.items():
                dst[k] = dst.get(k, 0) + v
        for k in gcd:
            gcd[k] += s["gcd"][k]
    m = {"cli.stdout_bytes": stdout_bytes}
    for layer in tracer.LAYERS + ("sympy",):
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    m["sympy.gcd_s"] = selfs.get("sympy", 0.0)
    m["sympy.gcd_calls"] = gcd["calls"]
    m["sympy.gcd_trivial_ratio"] = gcd["trivial"] / gcd["calls"] if gcd["calls"] else 0.0
    m["localzeta.calls"] = spans_in.get("localzeta", 0)
    m["localrep.calls"] = spans_in.get("localrep", 0)
    arith = [f"symfield.RatFunc.{a}" for a in RATFUNC_ARITH if f"symfield.RatFunc.{a}" in calls]
    if arith:
        m["symfield.arith_calls"] = sum(calls[a] for a in arith)
    for metric, src, name in (
            ("symfield.ratfunc_new", calls, "symfield.RatFunc.__init__"),
            ("symfield.geom_resolvent_calls", calls, "symfield.geom_resolvent"),
            ("symfield.geom_resolvent_s", timed, "symfield.geom_resolvent"),
            ("symfield.to_text_s", timed, "symfield.RatFunc.to_text"),
            ("padicring.char_evals", calls, "padicring.MultChar.__call__"),
            ("padicring.psi_evals", calls, "padicring.psi_frac"),
            ("padicring.gauss_sum_L_s", timed, "padicring.gauss_sum_L"),
            ("padicring.norm_char_sum_s", timed, "padicring.norm_char_sum"),
            ("padicring.coset_oracle_s", timed, "padicring.zeta_case2_3_cosets"),
            ("globalasm.dirichlet_gauss_s", timed, "globalasm.DirichletChar.gauss_sum"),
            ("globalasm.quadrature_s", timed, "globalasm.mellin_gamma_pin"),
            ("classgroup.compose_calls", calls, "classgroup.compose_forms"),
            ("classgroup.reduce_calls", calls, "classgroup.reduce_form")):
        if name in src:
            m[metric] = src[name]
    suites, limits = snaps[0]["suites"], snaps[0]["limits"]
    for name, fn in suites.items():
        if fn in timed:
            m[f"suite.{name}_s"] = timed[fn]
            if limits.get(name):
                m[f"suite.{name}.budget_frac"] = timed[fn] / limits[name]
    return m


def traced_fresh(argv, env, seconds, checker):
    """Alternate an untraced and a traced fresh-process run of `argv`."""
    plain, traced, per_unit, ok, t_start = [], [], [], [], time.perf_counter()
    while not traced or workloads.more(time.perf_counter() - t_start,
                                       plain[-1] + traced[-1], seconds):
        u = len(traced)
        c = run_child(cli_argv(argv), env)
        plain.append(c.wall)
        ok.append(checker(argv, c.rc, c.stdout))
        path = WORK / f"spans_{u}.json"
        c = run_child([PY, str(HERE / "child.py"), "trace-cli", str(path), str(u), *argv], env)
        traced.append(c.wall)
        ok.append(checker(argv, c.rc, c.stdout))
        snaps = [json.loads(path.read_text())]
        path.unlink()
        per_unit.append((snaps, layer_metrics(snaps, len(c.stdout))))
    return plain, traced, per_unit, ok


def traced_exhaustive(seed, seconds):
    sys.path.insert(0, str(ROOT / "src"))
    ex = workloads.ExhaustiveSums(seed)
    batch = workloads.exhaustive_round(seed, 0)
    ex.run(batch)                                          # warm-up round
    import besselzeta.suites as bz_suites
    suites = {name: f"suites.{fn.__name__}" for name, fn in bz_suites.SUITES.items()}
    limits = dict(getattr(bz_suites, "RUNTIME_LIMITS", {}))
    tr = tracer.Tracer(timed=suites.values())
    plain, traced, per_unit, ok, failures = [], [], [], [], []
    t_start = time.perf_counter()
    while not traced or workloads.more(time.perf_counter() - t_start,
                                       plain[-1] + traced[-1], seconds):
        for walls in (plain, traced):
            if walls is traced:
                tr.install()
                tr.reset()
                tr.op = len(traced)
            t0 = time.perf_counter()
            try:
                out = ex.run(batch)
            except Exception as exc:      # a failing round is counted, not fatal
                out = exc
            walls.append(time.perf_counter() - t0)
            tr.uninstall()                # no-op after the untraced round
            problem = workloads.ExhaustiveSums.problem(batch, out)
            ok.append(problem is None)
            if problem:
                failures.append(problem)
        snaps = [{**tr.snapshot(), "suites": suites, "limits": limits}]
        per_unit.append((snaps, layer_metrics(snaps, 0)))
    return plain, traced, per_unit, ok, failures, ex.missing


def run_traced(workload, seed, seconds):

    env = child_env(seed if workload == "verify_all" else None)
    metrics = import_split(env)
    missing = []
    if workload == "verify_all":
        checker = verify_checker(seed)
        plain, traced, per_unit, ok = traced_fresh(
            workloads.VERIFY_ARGV, env, seconds, checker)
        failures = checker.failures
    else:
        plain, traced, per_unit, ok, failures, missing = traced_exhaustive(seed, seconds)
    names = set().union(*(m.keys() for _, m in per_unit))
    for name in sorted(names):
        vals = [m[name] for _, m in per_unit if name in m]
        metrics[name] = statistics.median(vals)
    metrics["trace.overhead_ratio"] = statistics.median(traced) / statistics.median(plain)
    missing += sorted({x for snaps, _ in per_unit for s in snaps for x in s["missing"]})
    write_spans(workload, seed, per_unit)
    for name in missing:
        print(f"absent public name, its metrics left out: {name}")
    notes = {"trace.overhead_ratio": f"{len(traced)} traced and {len(plain)} untraced units"}
    return metrics, notes, ok, failures


def write_spans(workload, seed, per_unit):
    path = WORK / f"spans_{workload}_seed{seed}.jsonl"
    with open(path, "w") as fh:
        for snaps, _ in per_unit:
            for s in snaps:
                for layer, name, start, end, parent, op in s["spans"]:
                    fh.write(json.dumps({"layer": layer, "name": name, "start": start,
                                         "end": end, "parent": parent, "op": op}) + "\n")


# ---------------------------------------------------------------------------


def stamp(workload, seed) -> dict:
    versions = {}
    for pkg in ("sympy", "mpmath", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = "absent"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        r = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                           capture_output=True, text=True)
        commit = r.stdout.strip() or commit
    return {"nproc": os.cpu_count(), "python": platform.python_version(), **versions,
            "machine": platform.machine(), "seed": seed, "workload": workload,
            "commit": commit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(UNTRACED))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    spec_path = ROOT / "BENCHMARK.json"
    if not (ROOT / "src" / "besselzeta" / "__init__.py").is_file() or not spec_path.is_file():
        print("perfbench: run from the root of a besselzeta checkout "
              "(src/besselzeta and BENCHMARK.json)", file=sys.stderr)
        return 2
    spec = json.loads(spec_path.read_text())
    WORK.mkdir(exist_ok=True)

    print(f"# besselzeta benchmark: {json.dumps(stamp(args.workload, args.seed))}")
    for w in spec["workloads"]:
        if w["name"] == args.workload:
            print(f"# why: {w['why']}")
    if args.trace:
        metrics, notes, ok, failures = run_traced(args.workload, args.seed, args.seconds)
        wanted = spec["per_layer"]
    else:
        walls, terms, setup, rss, ok, failures = UNTRACED[args.workload](args.seed, args.seconds)
        metrics, notes = end_to_end(walls, terms, setup, rss, sum(ok))
        wanted = spec["end_to_end"]
    for problem in failures:
        print(f"FAILED: {problem}")
    out = {}
    for m in wanted:
        if m["name"] not in metrics:
            print(f"{m['name']}: absent")
            continue
        value = metrics[m["name"]]
        out[m["name"]] = {"value": value, "unit": m["unit"]}
        target = next((t for p, t in LAYER_TARGETS.items() if m["name"].startswith(p)), None)
        extra = notes.get(m["name"]) or (f"moves {target}" if args.trace and target else "")
        print(f"{m['name']} = {value:.6g} {m['unit']}" + (f"  ({extra})" if extra else ""))
    n_failed = len(ok) - sum(ok)
    print(json.dumps({"correct": n_failed == 0 and not failures, "attempted": len(ok),
                      "failed": n_failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Failure as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        sys.exit(1)
