"""Offline benchmark of the kgreason pipeline on seeded kinship graphs.

    python3 perfbench/run.py --workload pipeline-kinship --seed 1 --seconds 15 --trace 0
    python3 perfbench/run.py --all --seed 1    # every workload, untraced then traced

Run it from the root of a kgreason checkout. It builds its inputs from the
seed, sets them up SETUP_REPEATS times, then runs the workload's CLI stages
(`python -m kgreason.cli ...` with `src/` on the path) again and again for
`--seconds`. Every output is checked after the timed loop. With `--trace 0`
it reports the end-to-end metrics; with `--trace 1` it alternates untraced
and traced iterations and reports the per-layer metrics, the untraced stage
figures and the tracing overhead. A summary goes to stdout, and the last line
of stdout is one JSON object: correct, attempted, failed and metrics.

Work files live in `.perfbench_work/` under the checkout and are removed when
the run passes. See perfbench/README.md for the workloads and the metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
import urllib.request
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import kinship  # noqa: E402
import layers  # noqa: E402

ROOT = Path.cwd()
SRC = ROOT / "src"
SETUP_REPEATS = 3
RULE_SOURCE_TRIPLES = 400
RULE_SOURCE_SEED = 0
DEADLINE_S = 165.0       # whole run, so that it ends well inside 180 s
CHECK_RESERVE_S = 20.0   # kept free after the timed loop for the output checks
IMPORT_SAMPLES = 5
END_TO_END = ("setup_s", "pipeline_s", "peak_rss_mb")


@dataclass(frozen=True)
class Workload:
    name: str
    triples: int
    stages: tuple[str, ...]
    llm: bool = False


WORKLOADS = {
    w.name: w
    for w in (
        Workload("mine-kinship", 1700, ("mine",)),
        Workload("pipeline-kinship", 17615, ("bench", "run", "eval")),
        Workload("llm-loopback", 1700, ("bench", "run", "eval"), llm=True),
    )
}


@dataclass
class Proc:
    code: int
    wall_s: float
    cpu_s: float
    rss_mb: float


@dataclass
class Stage:
    proc: Proc
    stub_requests: int = 0
    stub_service_s: float = 0.0


@dataclass
class Iteration:
    directory: Path
    traced: bool
    stages: dict[str, Stage] = field(default_factory=dict)
    episodes: int = 0

    @property
    def wall_s(self) -> float:
        return sum(s.proc.wall_s for s in self.stages.values())


class Tally:
    """Operations attempted and failed: stage invocations and episodes."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, what: str, failed: int, n: int = 1) -> None:
        self.attempted += n
        self.failed += failed
        if failed:
            self.problems.append(f"{what}: {failed} of {n} failed")


def stage_env(extra: dict[str, str] | None = None) -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith(("KGREASON_", "LLM_"))}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    env.update(extra or {})
    return env


def run_process(argv: list[str], env: dict, out: Path, timeout: float) -> Proc:
    """Run to completion, timing the wall clock and reading the process's own
    CPU time and peak RSS from wait4; kill it if it outlives the timeout."""
    with open(out.with_suffix(".out"), "wb") as so, open(out.with_suffix(".log"), "wb") as se:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, env=env, cwd=ROOT, stdin=subprocess.DEVNULL, stdout=so, stderr=se)
    done: dict = {}

    def reap():
        _, status, usage = os.wait4(p.pid, 0)
        done.update(t1=time.perf_counter(), status=status, usage=usage)

    waiter = threading.Thread(target=reap)
    waiter.start()
    waiter.join(max(timeout, 1.0))
    if waiter.is_alive():
        p.kill()
        waiter.join()
    p.returncode = os.waitstatus_to_exitcode(done["status"])
    u = done["usage"]
    return Proc(p.returncode, done["t1"] - t0, u.ru_utime + u.ru_stime, u.ru_maxrss / 1024.0)


class Stub:
    """The loopback endpoint, in its own process."""

    def __init__(self):
        self.proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py")],
            stdin=subprocess.DEVNULL, stdout=subprocess.PIPE, text=True,
        )
        line = self.proc.stdout.readline().split()
        if len(line) != 2 or line[0] != "port":
            self.stop()
            raise RuntimeError("endpoint stub did not start")
        self.url = f"http://127.0.0.1:{line[1]}"

    def stats(self) -> tuple[int, float]:
        with urllib.request.urlopen(self.url + "/stats", timeout=10) as resp:
            payload = json.load(resp)
        return payload["requests"], payload["service_s"]

    def stop(self) -> None:
        self.proc.terminate()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


class Bench:
    def __init__(self, wl: Workload, seed: int, work: Path, started: float):
        self.wl = wl
        self.seed = seed
        self.work = work
        self.started = started
        self.tally = Tally()
        self.stub: Stub | None = None
        self.kg = self.rules = self.rule_source = None
        self.setup_s: list[float] = []

    def remaining(self) -> float:
        return DEADLINE_S - (time.perf_counter() - self.started)

    def env(self) -> dict:
        return stage_env({"LLM_ENDPOINT_URL": self.stub.url + "/v1/chat"} if self.stub else None)

    def cli(self, args: list, out: Path, spans: Path | None = None) -> Proc:
        """Run one CLI stage; with `spans`, through traced.py writing there."""
        entry = [str(HERE / "traced.py"), str(spans)] if spans else ["-m", "kgreason.cli"]
        argv = [sys.executable, *entry, *map(str, args)]
        return run_process(argv, self.env(), out, self.remaining())

    # -- set-up ---------------------------------------------------------------

    def setup(self) -> None:
        """Generate the graph (and mine the rules, start the endpoint) the
        workload needs; repeated, and the last repetition is used."""
        for k in range(SETUP_REPEATS):
            d = self.work / f"setup{k}"
            d.mkdir()
            if self.stub:
                self.stub.stop()
                self.stub = None
            t0 = time.perf_counter()
            self.kg = d / "kg.tsv"
            kinship.write_tsv(kinship.generate(self.wl.triples, self.seed), self.kg)
            proc = self.cli(["inspect", "--kg", self.kg], d / "inspect")
            ok = proc.code == 0 and json.loads(d.joinpath("inspect.out").read_text())["triples"] == self.wl.triples
            self.tally.op("set-up inspect", not ok)
            if self.wl.stages[0] != "mine":
                self.rule_source = d / "rule_source.tsv"
                self.rules = d / "rules.jsonl"
                kinship.write_tsv(kinship.generate(RULE_SOURCE_TRIPLES, RULE_SOURCE_SEED), self.rule_source)
                proc = self.cli(["mine", "--kg", self.rule_source, "--max-len", 3, "--out", self.rules], d / "mine")
                self.tally.op("set-up mine", proc.code != 0)
                ok = ok and proc.code == 0
            if not ok:
                raise RuntimeError(f"set-up failed, see {d}")
            if self.wl.llm:
                self.stub = Stub()
            self.setup_s.append(time.perf_counter() - t0)

    # -- timed iterations -----------------------------------------------------

    def stage_args(self, stage: str, d: Path) -> list:
        bundle = d / "bundle"
        if stage == "mine":
            return ["mine", "--kg", self.kg, "--max-len", 3, "--out", d / "rules.jsonl"]
        if stage == "bench":
            extra = ["--question-backend", "external", "--max-inflight", 2] if self.wl.llm else []
            return ["bench", "--kg", self.kg, "--rules", self.rules, "--out-dir", bundle,
                    "--seed", self.seed, *extra]
        if stage == "run":
            return ["run", "--bundle", bundle, "--policy", "llm" if self.wl.llm else "heuristic",
                    "--split", "all", "--parallel", 1,
                    "--out", d / "predictions.jsonl", "--traces", d / "traces.jsonl"]
        return ["eval", "--bundle", bundle, "--predictions", d / "predictions.jsonl",
                "--split", "all", "--out", d / "report.json"]

    def iterate(self, index: int, traced: bool) -> Iteration:
        d = self.work / f"{'traced' if traced else 'it'}{index}"
        d.mkdir()
        it = Iteration(d, traced)
        for stage in self.wl.stages:
            spans = d / f"{stage}.spans.json" if traced else None
            before = self.stub.stats() if self.stub else (0, 0.0)
            proc = self.cli(self.stage_args(stage, d), d / stage, spans)
            after = self.stub.stats() if self.stub else (0, 0.0)
            it.stages[stage] = Stage(proc, after[0] - before[0], after[1] - before[1])
            if proc.code != 0:
                break
        return it

    def loop(self, seconds: float, traced_too: bool) -> list[Iteration]:
        out: list[Iteration] = []
        t0 = time.perf_counter()
        while True:
            i = len(out) // (2 if traced_too else 1)
            step = time.perf_counter()
            out.append(self.iterate(i, traced=False))
            if traced_too:
                out.append(self.iterate(i, traced=True))
            took = time.perf_counter() - step
            if time.perf_counter() - t0 >= seconds or took > self.remaining() - CHECK_RESERVE_S:
                return out

    # -- checks -----------------------------------------------------------------

    def check(self, iterations: list[Iteration]) -> dict[str, str]:
        """Check every iteration's outputs; byte-identical outputs share one
        verdict. Returns the digests of the first iteration."""
        import checks

        if self.rules is not None:
            bad = checks.rules_match_metrics(self.rule_source, self.rules)
            self.tally.op(f"set-up rules with stale metrics {bad[:3]}", bool(bad))
        verdicts: dict[tuple, dict] = {}
        first: dict[str, str] = {}
        for it in iterations:
            d = it.directory
            files = {
                "rules": d / "rules.jsonl" if self.wl.stages[0] == "mine" else self.rules,
                "questions": d / "bundle" / "questions.jsonl",
                "removals": d / "bundle" / "removals.jsonl",
                "predictions": d / "predictions.jsonl",
                "traces": d / "traces.jsonl",
            }
            digests = {k: checks.sha256(p) for k, p in files.items() if p.exists()}
            first = first or digests
            key = tuple(sorted(digests.items()))
            complete = len(it.stages) == len(self.wl.stages) and all(
                s.proc.code == 0 for s in it.stages.values()
            )
            if complete and key not in verdicts:
                if self.wl.stages[0] == "mine":
                    verdicts[key] = {"mine": not checks.rules_match_metrics(self.kg, files["rules"])}
                else:
                    verdicts[key] = checks.check_pipeline(
                        d / "bundle", files["predictions"], files["traces"], d / "report.json"
                    )
            verdict = verdicts.get(key, {})
            for stage in self.wl.stages:
                s = it.stages.get(stage)
                ok = s is not None and s.proc.code == 0 and verdict.get(stage, False)
                self.tally.op(f"{d.name} {stage}", not ok)
            if "episodes" in verdict:
                it.episodes = verdict["episodes"]
                self.tally.op(f"{d.name} episodes", verdict["failed_episodes"], n=it.episodes)
            if digests != first:
                print(f"note: {d.name} outputs differ from the first iteration's", file=sys.stderr)
        return first

    # -- metrics ----------------------------------------------------------------

    def stage_figures(self, iterations: list[Iteration]) -> dict[str, float]:
        """Medians over the untraced iterations of what a CLI user sees."""
        runs = [it for it in iterations if not it.traced]

        def med(fn) -> float:
            return statistics.median(fn(it) for it in runs)

        def stage_s(name):
            return med(lambda it: it.stages[name].proc.wall_s if name in it.stages else 0.0)

        out = {
            "pipeline_s": med(lambda it: it.wall_s),
            "pipeline_cpu_s": med(lambda it: sum(s.proc.cpu_s for s in it.stages.values())),
            "peak_rss_mb": med(lambda it: max(s.proc.rss_mb for s in it.stages.values())),
        }
        for name in layers.STAGES:
            out[f"{name}_s"] = stage_s(name)
        out["episodes"] = med(lambda it: it.episodes)
        out["episodes_per_s"] = med(
            lambda it: it.episodes / it.stages["run"].proc.wall_s if "run" in it.stages else 0.0
        )
        out["endpoint_calls"] = med(lambda it: sum(s.stub_requests for s in it.stages.values()))
        return out

    def layer_figures(self, iterations: list[Iteration]) -> dict[str, float]:
        per_iteration = []
        for it in iterations:
            if it.traced:
                spans = layers.Spans([it.directory / f"{s}.spans.json" for s in it.stages])
                per_iteration.append(layers.layer_metrics(
                    spans,
                    sum(s.stub_requests for s in it.stages.values()),
                    sum(s.stub_service_s for s in it.stages.values()),
                ))
        out = {k: statistics.median(m[k] for m in per_iteration) for k in per_iteration[0]}
        untraced = statistics.median(it.wall_s for it in iterations if not it.traced)
        traced = statistics.median(it.wall_s for it in iterations if it.traced)
        out.update({"trace.untraced_s": untraced, "trace.traced_s": traced,
                    "trace.overhead_s": traced - untraced, "cli.import_s": self.import_s()})
        return out

    def import_s(self) -> float:
        code = "import time; t = time.perf_counter(); import kgreason.cli; print(time.perf_counter() - t)"
        samples = []
        for _ in range(IMPORT_SAMPLES):
            out = subprocess.run([sys.executable, "-c", code], env=stage_env(), cwd=ROOT,
                                 capture_output=True, text=True, timeout=60, check=True)
            samples.append(float(out.stdout))
        return statistics.median(samples)


UNITS = {"_per_s": "episodes/s", "_s": "s", "_ms_p50": "ms", "_ms_p95": "ms", "_mb": "MB",
         "_frac": "ratio", "_ratio": "ratio", "_yield": "ratio"}


def unit_of(name: str) -> str:
    for suffix, unit in UNITS.items():
        if name.endswith(suffix):
            return unit
    return "count"


def run_workload(wl: Workload, seed: int, seconds: float, trace: bool) -> dict:
    started = time.perf_counter()
    work = ROOT / ".perfbench_work" / f"{wl.name}-s{seed}-t{int(trace)}-{os.getpid()}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    b = Bench(wl, seed, work, started)
    try:
        b.setup()
        iterations = b.loop(seconds, traced_too=trace)
        digests = b.check(iterations)
        figures = b.stage_figures(iterations)
        if trace:
            figures.update(b.layer_figures(iterations))
    finally:
        if b.stub:
            b.stub.stop()
    figures["setup_s"] = statistics.median(b.setup_s)
    figures["failed_frac"] = b.tally.failed / b.tally.attempted
    chosen = [k for k in figures if k not in END_TO_END] if trace else END_TO_END

    print(f"workload {wl.name}  seed {seed}  trace {int(trace)}  "
          f"iterations {sum(not it.traced for it in iterations)}  set-ups {len(b.setup_s)}")
    for name, value in figures.items():
        print(f"  {name:<32} {value:>14.6g} {unit_of(name)}")
    walls = ", ".join(f"{it.wall_s:.3f}{'t' if it.traced else ''}" for it in iterations)
    print(f"  iteration wall times (t: traced)  {walls} s")
    for name, digest in digests.items():
        print(f"  sha256 {name:<25} {digest}")
    for problem in b.tally.problems:
        print(f"  FAILED {problem}")
    if not b.tally.failed:
        shutil.rmtree(work, ignore_errors=True)
    return {
        "correct": b.tally.failed == 0,
        "attempted": b.tally.attempted,
        "failed": b.tally.failed,
        "metrics": {k: {"value": figures[k], "unit": unit_of(k)} for k in chosen},
    }


def pin_to_one_cpu() -> None:
    """Keep this process and everything it starts on one CPU. The llm
    workload hands every request from the stage process to the stub and back;
    on one CPU that is a plain context switch, while across two it waits for
    the host to wake an idle virtual CPU, which on a shared host varies from
    run to run far more than the program does."""
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def main() -> int:
    parser = argparse.ArgumentParser(description="Offline kgreason pipeline benchmark.")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--all", action="store_true", help="every workload, untraced then traced")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=15.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "kgreason" / "cli.py").is_file():
        print(f"error: no kgreason sources under {SRC}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    if args.all == bool(args.workload):
        parser.error("give exactly one of --workload and --all")
    sys.path.insert(0, str(SRC))
    pin_to_one_cpu()
    runs = [(WORKLOADS[args.workload], bool(args.trace))] if args.workload else [
        (wl, trace) for wl in WORKLOADS.values() for trace in (False, True)
    ]
    for wl, trace in runs:
        print(json.dumps(run_workload(wl, args.seed, args.seconds, trace)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
