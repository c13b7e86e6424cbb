"""End-to-end benchmark of the mfirank CLI.

Usage (from the repository root):

    python3 perfbench/run.py --workload replay-52w --seed 1 --seconds 36 --trace 0

The run writes the workload's seeded inputs, then, for ``--seconds``,
repeats the workload's chain of ``mfirank`` subcommands.  It is a closed
loop: one parent process runs one child at a time, a fresh interpreter
per subcommand, as a user of this batch tool would.  Every artifact is
checked (see ``checks.py``).  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json.
``--trace 1`` alternates untraced passes with traced ones, in which each
subcommand runs under ``tracer.py``, and reports the per-layer metrics;
the traced wall time minus the untraced one is the tracing overhead.

The environment, input sizes, every sample and the last traced pass's
spans go to ``.perfbench_work/results/``.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

# The installed ``mfirank`` console script does exactly this.
CLI = "import sys; from mfirank.cli import main; sys.exit(main(sys.argv[1:]))"
SETUP = "import mfirank.cli"
SETUP_RUNS = 9
MIN_PASSES = 3
CHILD_LIMIT_S = 150.0  # kill a subcommand that runs longer than this
RUN_LIMIT_S = 140.0  # start no further pass once this much time is spent


@dataclass
class Pass:
    wall_s: float
    peak_rss_mb: float
    failed: list[str] = field(default_factory=list)  # one entry per failed subcommand


def run_child(argv: list[str], cwd: Path, env: dict, log: Path) -> tuple[int, float]:
    """Run one process to its end; return its exit code and peak RSS in MiB.

    The peak comes from this child's own rusage (``wait4``), so a large
    earlier subcommand never shows up as a later one's peak.
    """
    with open(log, "ab") as err:
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)
    timer = threading.Timer(CHILD_LIMIT_S, proc.kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    finally:
        timer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss / 1024.0


def file_digest(path: Path) -> str | None:
    try:
        return hashlib.sha256(path.read_bytes()).hexdigest()
    except OSError:
        return None


class Bench:
    """One workload's inputs, chain and checks in one working directory."""

    def __init__(self, workload: str, seed: int, workdir: Path, sizes: dict, golden: dict):
        from workloads import CHAINS, make_inputs

        self.workdir = workdir
        self.steps = CHAINS[workload]
        self.inputs = make_inputs(workload, seed, workdir, sizes)
        self.golden = golden.get(workload, {}).get(str(seed), {})
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.log = workdir / "stderr.log"
        self.verified: dict[str, str] = {}  # artifact -> file digest that passed
        self.problems: list[str] = []
        self.misnested = 0  # traced spans found outside their parent span

    def setup_s(self) -> float:
        """Seconds for a fresh interpreter to import the CLI and exit."""
        start = time.perf_counter()
        code, _ = run_child([sys.executable, "-c", SETUP], self.workdir, self.env, self.log)
        elapsed = time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"importing mfirank.cli failed; see {self.log}")
        return elapsed

    def run_pass(self, traced: bool) -> Pass:
        for step in self.steps:
            for name, _ in step.artifacts:
                (self.workdir / name).unlink(missing_ok=True)
        for old in self.workdir.glob("spans-*.json"):
            old.unlink()
        codes, peaks = [], []
        start = time.perf_counter()
        for i, step in enumerate(self.steps):
            if traced:
                argv = [sys.executable, str(HERE / "tracer.py"), f"spans-{i}.json", "--",
                        *step.argv]
            else:
                argv = [sys.executable, "-c", CLI, *step.argv]
            code, peak = run_child(argv, self.workdir, self.env, self.log)
            codes.append(code)
            peaks.append(peak)
        result = Pass(wall_s=time.perf_counter() - start, peak_rss_mb=max(peaks))
        for step, code in zip(self.steps, codes):
            problems = [f"exit code {code}"] if code else self.check_step(step)
            if problems:
                result.failed.append(step.command)
                self.problems += [f"{step.command}: {p}" for p in problems]
        return result

    def check_step(self, step) -> list[str]:
        """Full check of an artifact the first time its bytes are seen."""
        from checks import check_artifact

        problems = []
        for name, kind in step.artifacts:
            path = self.workdir / name
            digest = file_digest(path)
            if digest is not None and self.verified.get(name) == digest:
                continue
            found = check_artifact(path, kind, self.inputs, self.golden.get(name))
            if found:
                problems += found
            else:
                self.verified[name] = digest
        return problems

    def artifact_bytes(self) -> int:
        return sum((self.workdir / name).stat().st_size
                   for step in self.steps for name, _ in step.artifacts
                   if (self.workdir / name).exists())

    def read_trace(self) -> tuple[dict, dict, Counter, float, list]:
        """Totals and self times per span name, counters and command time."""
        totals, selfs, counts = defaultdict(float), defaultdict(float), Counter()
        command = 0.0
        spans_out = []
        for i, step in enumerate(self.steps):
            path = self.workdir / f"spans-{i}.json"
            if not path.exists():
                continue
            data = json.loads(path.read_text(encoding="utf-8"))
            bad = misnested(data["spans"])
            if bad:
                self.misnested += bad
                self.problems.append(f"{step.command}: {bad} spans lie outside their parent")
            covered = defaultdict(float)
            for _, parent, _, start, end in data["spans"]:
                if parent is not None:
                    covered[parent] += end - start
            for sid, parent, name, start, end in data["spans"]:
                totals[name] += end - start
                selfs[name] += end - start - covered[sid]
                if parent is None:
                    command += end - start
            for key, value in data["counts"].items():
                counts[key] = max(counts[key], value) if key == "rank.k_max" else (
                    counts[key] + value)
            spans_out.append({"command": step.command, "spans": data["spans"],
                              "counts": data["counts"]})
        return totals, selfs, counts, command, spans_out


def misnested(spans: list) -> int:
    """Spans whose parent is unknown or does not enclose their [start, end]."""
    bounds = {sid: (start, end) for sid, _, _, start, end in spans}
    bad = 0
    for _, parent, _, start, end in spans:
        if parent is None:
            continue
        outer = bounds.get(parent)
        if outer is None or start < outer[0] or end > outer[1]:
            bad += 1
    return bad


def layer_metrics(totals: dict, selfs: dict, counts: Counter, command: float,
                  applications: int, artifact_bytes: int) -> dict[str, float]:
    """Per-layer metrics of one traced pass (see BENCHMARK.json for units)."""
    layer_self = defaultdict(float)
    for name, value in selfs.items():
        layer_self[name.split(".", 1)[0]] += value
    timelines = counts["data.derive_timeline.calls"]
    return {
        "data.parse_conversions_s": totals["data.parse_conversions"],
        "data.parse_clicks_s": totals["data.parse_clicks"],
        "data.parse_products_s": totals["data.parse_products"],
        "data.rows_parsed": counts["data.rows_parsed"],
        "data.row_errors": counts["data.row_errors"],
        "data.filter_loan_type_calls": counts["data.filter_loan_type.calls"],
        "data.filter_loan_type_rows": counts["data.filter_loan_type_rows"],
        "data.derive_timeline_calls": timelines,
        "data.timelines_per_app": timelines / applications if applications else 0.0,
        "data.self_s": layer_self["data"],
        "features.feature_table_s": totals["features.feature_table"],
        "features.feature_table_calls": counts["features.feature_table.calls"],
        "features.feature_table_rows_in": counts["features.feature_table_rows_in"],
        "features.parse_feature_csv_s": totals["features.parse_feature_csv"],
        "features.mfis_out": counts["features.mfis_out"],
        "features.self_s": layer_self["features"],
        "rank.rank_mfis_calls": counts["rank.rank_mfis.calls"],
        "rank.k_max": counts["rank.k_max"],
        "rank.comparison_matrix_s": totals["rank.comparison_matrix"],
        "rank.transition_s": totals["rank.transition"],
        "rank.stationary_s": totals["rank.stationary"],
        "rank.rank_list_s": totals["rank.rank_list"],
        "rank.self_s": layer_self["rank"],
        "evaluate.weekly_schedule_s": totals["evaluate.weekly_schedule"],
        "evaluate.weekly_schedule_self_s": selfs["evaluate.weekly_schedule"],
        "evaluate.weeks": counts["evaluate.weeks"],
        "evaluate.weeks_ranked": counts["evaluate.weeks_ranked"],
        "evaluate.weeks_carried": counts["evaluate.weeks_carried"],
        "evaluate.client_outcomes_calls": counts["evaluate.client_outcomes.calls"],
        "evaluate.reapproval_table_s": totals["evaluate.reapproval_table"],
        "evaluate.simulate_s": totals["evaluate.simulate"],
        "evaluate.daily_series_s": totals["evaluate.daily_series"],
        "evaluate.apps_replayed": counts["evaluate.apps_replayed"],
        "evaluate.low_support_lookups": counts["evaluate.low_support_lookups"],
        "evaluate.self_s": layer_self["evaluate"],
        # stats spans are leaves, so this is also the stats layer's self time
        "stats.abtest_s": layer_self["stats"],
        "cli.self_s": layer_self["cli"],
        "cli.artifact_bytes": artifact_bytes,
        "trace.command_s": command,
    }


def environment() -> dict:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), "unknown")
    except OSError:
        cpu = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            commit = "unknown"
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "commit": commit,
    }


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def load_golden() -> dict:
    path = HERE / "golden.json"
    return json.loads(path.read_text(encoding="utf-8")) if path.exists() else {}


def measure(bench: Bench, seconds: float, traced: bool) -> dict:
    """Repeat passes within ``seconds`` (at least MIN_PASSES); return the samples."""
    untraced: list[Pass] = []
    traced_passes: list[Pass] = []
    layers: list[dict] = []
    last_spans: list = []
    start = time.perf_counter()
    while True:
        untraced.append(bench.run_pass(traced=False))
        if traced:
            p = bench.run_pass(traced=True)
            traced_passes.append(p)
            totals, selfs, counts, command, last_spans = bench.read_trace()
            apps = bench.inputs.get("conversions.csv", {}).get("rows", 0)
            layers.append(layer_metrics(totals, selfs, counts, command, apps,
                                        bench.artifact_bytes()))
            layers[-1]["trace.wall_s"] = p.wall_s
        elapsed = time.perf_counter() - start
        # Stop before a round that would end past the measuring time.
        ahead = elapsed + elapsed / len(untraced)
        if (len(untraced) >= MIN_PASSES and ahead > seconds) or ahead > RUN_LIMIT_S:
            break
    return {"untraced": untraced, "traced": traced_passes, "layers": layers,
            "spans": last_spans}


def main(argv: list[str] | None = None, sizes: dict | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mfirank" / "cli.py").is_file():
        print(f"perfbench: no mfirank sources under {SRC}", file=sys.stderr)
        return 2
    for path in (str(HERE), str(SRC)):
        if path not in sys.path:
            sys.path.insert(0, path)
    from workloads import FULL, WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    spec = load_spec()
    golden = load_golden() if sizes is None else {}
    sizes = FULL if sizes is None else sizes

    workdir = WORK / f"{args.workload}-seed{args.seed}-trace{args.trace}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        bench = Bench(args.workload, args.seed, workdir, sizes, golden)
        setup = []
        if not args.trace:
            bench.setup_s()  # first import may compile bytecode; not timed
            setup = [bench.setup_s() for _ in range(SETUP_RUNS)]
        run = measure(bench, args.seconds, traced=bool(args.trace))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    passes = run["untraced"] + run["traced"]
    attempted = len(passes) * len(bench.steps)
    failed = sum(len(p.failed) for p in passes)
    walls = [p.wall_s for p in run["untraced"]]
    if args.trace:
        # Counts repeat exactly from pass to pass; times get the median.
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {name: statistics.median(layer[name] for layer in run["layers"])
                  if units.get(name) == "s" else run["layers"][-1][name]
                  for name in run["layers"][0]}
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(walls)
        wanted = spec["per_layer"]
    else:
        values = {
            "wall_s": statistics.median(walls),
            "peak_rss_mb": statistics.median(p.peak_rss_mb for p in run["untraced"]),
            "passed_share": (attempted - failed) / attempted,
            "setup_s": statistics.median(setup),
        }
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    # Self times add up to the command spans by construction; what can go
    # wrong is a span that is not nested inside its parent.
    correct = failed == 0 and bench.misnested == 0

    env = environment()
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "inputs": bench.inputs,
        "wall_s_samples": walls,
        "peak_rss_mb_samples": [p.peak_rss_mb for p in run["untraced"]],
        "setup_s_samples": setup,
        "traced_wall_s_samples": [p.wall_s for p in run["traced"]],
        "failed_share": failed / attempted, "problems": bench.problems,
        "metrics": metrics, "last_traced_pass": run["spans"],
    }
    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    out = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print("environment: " + ", ".join(f"{k}={v}" for k, v in env.items()))
    for name, info in bench.inputs.items():
        print(f"input {name}: {info['rows']} rows, {info['bytes']} bytes")
    print(f"passes: {len(walls)} untraced, {len(run['traced'])} traced; "
          f"subcommands attempted {attempted}, failed {failed} "
          f"(failed_share {failed / attempted})")
    for problem in bench.problems[:20]:
        print(f"problem: {problem}")
    for name, m in metrics.items():
        print(f"{name} = {m['value']} {m['unit']}")
    print(f"record: {out.relative_to(ROOT)}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
