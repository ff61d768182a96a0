"""cveminer benchmark: time `cveminer pipeline` as a child process and check every run.

    python3 perfbench/run.py --workload cold --seed 1 --seconds 15 --trace 0

One invocation generates its workload's corpus from --seed, sets it up, then
runs pipeline children one after another (a closed loop with one client) for
--seconds and at least MIN_SAMPLES times.  Every run's outputs are checked.
It prints every end-to-end metric by name and unit; with --trace 1 it also
runs one child under layertrace.py and prints the per-layer metrics instead.
The last line of stdout is the JSON result.  README.md describes the
workloads, the metrics and the checks.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
sys.path.insert(0, str(SRC))

import cveminer  # noqa: E402  (the checkout's own source, never an installed copy)
from cveminer import gateway, projection, vectors  # noqa: E402

import corpus_gen  # noqa: E402
import layertrace  # noqa: E402
from stub import CHAT_PATH, EMBED_PATH, ProviderStub, StubStats  # noqa: E402

STAGES = ("ingest", "classify", "embed", "cluster", "topics", "representatives",
          "project", "report")
CHAT_MODEL = "mock-hwsw"
EMBED_MODEL = "mock-embed-3072"
MAX_PARALLEL = 2          # the machine the baseline was taken on has 2 cores
STUB_DELAY_S = 0.005
MIN_SAMPLES = 3
SETUP_SAMPLES = 3         # set-ups per invocation, fewer if they exceed SETUP_BUDGET_S
SETUP_BUDGET_S = 5.0
CHILD_TIMEOUT_S = 45.0    # about 4x the slowest child; a hung child fails its run
MEASURE_BUDGET_S = 60.0   # no measured run starts later, so an invocation ends within 180 s
TRUST_K = 10
TRUST_GATE = 0.90


@dataclass(frozen=True)
class Workload:
    records: int
    hardware_share: float
    remote: bool = False  # remote-* providers against the loopback stub
    warm: bool = False    # re-run over a complete earlier run of the same config


PAPER_RECORDS = 114_836
WORKLOADS = {
    "cold": Workload(PAPER_RECORDS // 4, 0.015),
    "warm": Workload(PAPER_RECORDS // 4, 0.015, warm=True),
    "remote-latency": Workload(1_500, 0.25, remote=True),
}


@dataclass
class ChildRun:
    wall_s: float
    cpu_s: float
    rss_mib: float
    exit_code: int
    stderr: str


@dataclass
class Outcome:
    """Checked child runs of one invocation."""

    runs: list[ChildRun] = field(default_factory=list)
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def record(self, run: ChildRun, problems: list[str]) -> None:
        self.runs.append(run)
        if problems:
            self.failed += 1
            self.problems.extend(problems)


def child_env() -> dict[str, str]:
    env = dict(os.environ, PYTHONPATH=str(SRC), NO_PROXY="127.0.0.1,localhost",
               no_proxy="127.0.0.1,localhost")
    env.pop("LLM_API_KEY", None)
    return env


def run_child(argv: list[str], cwd: Path) -> ChildRun:
    """Run one child to completion and take its wall time and rusage."""
    err_path = cwd / "child.stderr"
    with open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=err)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall_s = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped by wait4; Popen must not wait
    return ChildRun(wall_s=wall_s, cpu_s=usage.ru_utime + usage.ru_stime,
                    rss_mib=usage.ru_maxrss / 1024.0, exit_code=proc.returncode,
                    stderr=err_path.read_text(encoding="utf-8", errors="replace")[-1000:])


PIPELINE_ARGV = [sys.executable, "-m", "cveminer.cli", "pipeline", "--config", "config.json"]


def traced_argv(spans_path: Path) -> list[str]:
    return [sys.executable, str(HERE / "layertrace.py"), str(spans_path),
            "pipeline", "--config", "config.json"]


def pipeline_config(seed: int, stub: ProviderStub | None) -> dict:
    chat = {"kind": "mock-chat", "model_id": CHAT_MODEL, "max_parallel": MAX_PARALLEL}
    embed = {"kind": "mock-embed", "model_id": EMBED_MODEL, "max_parallel": MAX_PARALLEL}
    if stub is not None:
        chat.update(kind="remote-chat", endpoint=stub.url(CHAT_PATH))
        embed.update(kind="remote-embed", endpoint=stub.url(EMBED_PATH))
    return {"seed": seed, "corpus": {"paths": ["corpus.jsonl"]},
            "providers": {"chat": chat, "embed": embed},
            "clustering": {"elbow_range": [2, 10]}, "projection": {"iterations": 1000},
            "output_dir": "out", "cache_path": "cache.jsonl"}


def file_digest(path: Path) -> str | None:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else None


def tree_digest(outdir: Path) -> str:
    """Digest of every artifact except manifest.json, which holds timestamps."""
    h = hashlib.sha256()
    for path in sorted(p for p in outdir.rglob("*") if p.is_file()):
        if path.name != "manifest.json":
            h.update(str(path.relative_to(outdir)).encode("utf-8") + b"\0")
            h.update(hashlib.sha256(path.read_bytes()).digest())
    return h.hexdigest()


def disk_mib(work: Path) -> float:
    files = [p for p in (work / "out").rglob("*") if p.is_file()] + [work / "cache.jsonl"]
    return sum(p.stat().st_size for p in files if p.exists()) / 2**20


def guarded(check, *args) -> list[str]:
    """Run a check; outputs that cannot be read fail the check instead of the benchmark."""
    try:
        return check(*args)
    except (OSError, ValueError, KeyError, TypeError) as exc:
        return [f"outputs unreadable: {exc!r}"]


def check_outputs(work: Path, run: ChildRun, corpus: corpus_gen.Corpus) -> list[str]:
    """Checks every successful run must pass, whatever the workload."""
    if run.exit_code != 0:
        return [f"exit code {run.exit_code}: {run.stderr.strip()[-300:]}"]
    out = work / "out"
    problems = []
    hardware = [json.loads(line)["id"] for line in
                (out / "hardware.jsonl").read_text(encoding="utf-8").splitlines() if line.strip()]
    if sorted(hardware) != sorted(corpus.hardware):
        problems.append(f"hardware set: {len(hardware)} ids, oracle has {len(corpus.hardware)}")
    manifest = json.loads((out / "manifest.json").read_text(encoding="utf-8"))
    counts = {s["name"]: s["counts"] for s in manifest["stages"]}
    if counts.get("embed", {}).get("rows") != len(corpus.hardware):
        problems.append(f"embedding rows {counts.get('embed')} != {len(corpus.hardware)} hardware")
    if json.loads((out / "review_queue.json").read_text(encoding="utf-8")) != []:
        problems.append("review queue is not empty")
    return problems


def score_projection(outdir: Path, corpus: corpus_gen.Corpus, seed: int) -> tuple[float, float]:
    """(score, seconds) of the run's coords against the normalized embeddings."""
    coords = [json.loads(line) for line in
              (outdir / "coords.jsonl").read_text(encoding="utf-8").splitlines() if line.strip()]
    ids = [c["id"] for c in coords]
    rows = np.array([gateway.mock_embed_vector(EMBED_MODEL, corpus.hardware[i]) for i in ids])
    matrix = vectors.normalize_matrix(
        vectors.EmbeddingMatrix(ids=ids, rows=rows, dim=rows.shape[1], model_id=EMBED_MODEL))
    result = projection.ProjectionResult(
        ids=ids, coords=np.array([[c["x"], c["y"]] for c in coords]),
        params=projection.TsneParams(), seed=seed, final_kl=0.0)
    start = time.perf_counter()
    score = projection.trustworthiness(matrix, result, k=TRUST_K)
    return score, time.perf_counter() - start


class Bench:
    """One invocation: set-up, the measured loop and the optional traced run."""

    def __init__(self, name: str, seed: int, stub: ProviderStub | None):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.stub = stub
        self.work = WORK / name
        self.outcome = Outcome()
        self.setup_s: list[float] = []
        self.corpus: corpus_gen.Corpus | None = None
        self.reference_tree: str | None = None
        self.primed_cache: str | None = None

    def set_up(self) -> None:
        """Generate the corpus and config; on warm, prime the output dir and cache."""
        start = time.perf_counter()
        self.corpus = corpus_gen.generate(self.seed, self.workload.records,
                                          self.workload.hardware_share)
        (self.work / "corpus.jsonl").write_bytes(self.corpus.data)
        (self.work / "config.json").write_text(
            json.dumps(pipeline_config(self.seed, self.stub), indent=2), encoding="utf-8")
        if self.workload.warm:
            self._fresh_state()
            prime = run_child(PIPELINE_ARGV, self.work)
            problems = guarded(check_outputs, self.work, prime, self.corpus)
            self.outcome.problems.extend(f"priming run: {p}" for p in problems)
            if not problems:
                self.reference_tree = tree_digest(self.work / "out")
                self.primed_cache = file_digest(self.work / "cache.jsonl")
        self.setup_s.append(time.perf_counter() - start)

    def _fresh_state(self) -> None:
        shutil.rmtree(self.work / "out", ignore_errors=True)
        (self.work / "cache.jsonl").unlink(missing_ok=True)

    def _run_checked(self, argv: list[str]) -> ChildRun:
        if not self.workload.warm:
            self._fresh_state()
        run = run_child(argv, self.work)
        self.outcome.record(run, guarded(self._check, run))
        return run

    def _check(self, run: ChildRun) -> list[str]:
        problems = check_outputs(self.work, run, self.corpus)
        if run.exit_code != 0:
            return problems
        tree = tree_digest(self.work / "out")
        if self.reference_tree is None and not self.workload.warm:
            self.reference_tree = tree
        elif tree != self.reference_tree:
            problems.append("artifact tree differs from the workload's first run")
        if self.workload.warm:
            manifest = json.loads((self.work / "out" / "manifest.json").read_text(encoding="utf-8"))
            statuses = [s["status"] for s in manifest["stages"]]
            if statuses != ["cached"] * len(STAGES):
                problems.append(f"warm run stage statuses {statuses}")
            if file_digest(self.work / "cache.jsonl") != self.primed_cache:
                problems.append("warm run changed the response cache")
        return problems

    def measure(self, seconds: float, deadline: float) -> None:
        """At least one run; then runs until MIN_SAMPLES and `seconds` are both reached."""
        start = time.perf_counter()
        while True:
            self._run_checked(PIPELINE_ARGV)
            now = time.perf_counter()
            if now >= deadline or (len(self.outcome.runs) >= MIN_SAMPLES
                                   and now - start >= seconds):
                return

    def trustworthiness(self) -> tuple[float, float]:
        """(score, seconds) of the last run's projection; 0 if that run failed."""
        if not self.outcome.runs or self.outcome.runs[-1].exit_code != 0:
            return 0.0, 0.0
        try:
            return score_projection(self.work / "out", self.corpus, self.seed)
        except (OSError, ValueError, KeyError) as exc:
            self.outcome.problems.append(f"trustworthiness not computable: {exc!r}")
            return 0.0, 0.0

    def end_to_end(self, trust: float) -> dict[str, tuple[float, str]]:
        runs = self.outcome.runs
        return {
            "wall_s": (statistics.median(r.wall_s for r in runs), "s"),
            "cpu_s": (statistics.median(r.cpu_s for r in runs), "s"),
            "peak_rss_mb": (statistics.median(r.rss_mib for r in runs), "MiB"),
            "setup_s": (statistics.median(self.setup_s), "s"),
            "disk_mb": (disk_mib(self.work), "MiB"),
            "trustworthiness": (trust, "ratio"),
        }

    def per_layer(self, trust_s: float) -> dict[str, tuple[float | None, str]]:
        """Run one child under layertrace.py and turn its spans into layer metrics."""
        untraced_wall = statistics.median(r.wall_s for r in self.outcome.runs)
        if self.stub is not None:
            self.stub.take_stats()
        spans_path = self.work / "spans.json"
        run = self._run_checked(traced_argv(spans_path))
        stub = self.stub.take_stats() if self.stub is not None else StubStats()
        if run.exit_code != 0:
            return {}
        doc = json.loads(spans_path.read_text(encoding="utf-8"))
        span_metrics, summary = layertrace.summarize(doc)
        print_span_table(summary)
        manifest = json.loads((self.work / "out" / "manifest.json").read_text(encoding="utf-8"))
        stages = stage_seconds(manifest)

        metrics = {name: (value, layertrace.SPAN_METRICS[name][0])
                   for name, value in span_metrics.items()}
        metrics.update({
            "gateway.cache_bytes": ((self.work / "cache.jsonl").stat().st_size, "bytes"),
            "stub.requests": (stub.requests, "count"),
            "stub.max_inflight": (stub.max_inflight, "count"),
            "stub.bytes_in": (stub.bytes_in, "bytes"),
            "stub.bytes_out": (stub.bytes_out, "bytes"),
            "stub.idle_s": (stub.idle_s, "s"),
            "projection.trustworthiness_s": (trust_s, "s"),
        })
        metrics.update({f"pipeline.stage.{name}_s": (value, "s") for name, value in stages.items()})
        metrics["pipeline.stages_cached"] = (
            sum(s["status"] == "cached" for s in manifest["stages"]), "count")
        run_pipeline_s = (summary.incl["pipeline.run_pipeline"]
                          if "pipeline.run_pipeline" in doc["wrapped"] else None)
        metrics["pipeline.overhead_s"] = (
            None if run_pipeline_s is None or None in stages.values()
            else run_pipeline_s - sum(stages.values()), "s")
        metrics["pipeline.import_s"] = (doc["import_s"], "s")
        metrics["trace.overhead_s"] = (run.wall_s - untraced_wall, "s")
        return metrics


def stage_seconds(manifest: dict) -> dict[str, float | None]:
    """Seconds per stage this run computed; a cached stage cost 0, a missing one is None."""
    by_name = {s["name"]: s for s in manifest["stages"]}
    return {name: (None if name not in by_name
                   else by_name[name]["duration_s"] if by_name[name]["status"] == "computed"
                   else 0.0)
            for name in STAGES}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if Path(cveminer.__file__).resolve().parent != SRC / "cveminer":
        print(f"perfbench: cveminer comes from {cveminer.__file__}, not {SRC}", file=sys.stderr)
        return 2
    deadline = time.perf_counter() + MEASURE_BUDGET_S
    workload = WORKLOADS[args.workload]
    work = WORK / args.workload
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        with (ProviderStub(STUB_DELAY_S, MAX_PARALLEL) if workload.remote
              else contextlib.nullcontext()) as stub:
            bench = Bench(args.workload, args.seed, stub)
            while len(bench.setup_s) < SETUP_SAMPLES and sum(bench.setup_s) < SETUP_BUDGET_S:
                bench.set_up()
            bench.measure(args.seconds, deadline)
            trust, trust_s = bench.trustworthiness()
            metrics = bench.per_layer(trust_s) if args.trace else bench.end_to_end(trust)
    finally:
        # Files deleted before the kernel writes them back (~30 s) never reach
        # the disk; deleting written-back ones costs discards that slow the
        # next invocation.  So clean up at once, and keep invocations short.
        shutil.rmtree(work, ignore_errors=True)

    outcome = bench.outcome
    if trust < TRUST_GATE:
        outcome.problems.append(f"trustworthiness {trust:.4f} < {TRUST_GATE}")
        outcome.failed = len(outcome.runs)
    attempted = len(outcome.runs)
    for problem in outcome.problems:
        print(f"check failed: {problem}", file=sys.stderr)
    print(f"{args.workload} seed={args.seed}: {attempted} runs "
          f"(wall_s {' '.join(f'{r.wall_s:.3f}' for r in outcome.runs)}), "
          f"{len(bench.setup_s)} set-ups, failed_share {outcome.failed / attempted:.3f}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:36s} {'missing' if value is None else value} {unit}")
    print(json.dumps({
        "correct": outcome.failed == 0 and not outcome.problems,
        "attempted": attempted,
        "failed": outcome.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


def print_span_table(summary: "layertrace.SpanSummary", top: int = 25) -> None:
    """Functions by self time, for a reader of the traced run (stderr)."""
    print(f"{'span':48s} {'calls':>8s} {'incl_s':>9s} {'self_s':>9s}", file=sys.stderr)
    for name in sorted(summary.self_s, key=summary.self_s.get, reverse=True)[:top]:
        print(f"{name:48s} {summary.calls[name]:8d} {summary.incl[name]:9.3f} "
              f"{summary.self_s[name]:9.3f}", file=sys.stderr)


if __name__ == "__main__":
    raise SystemExit(main())
