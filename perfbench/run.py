"""claimcheck benchmark: one workload from one seed, measured end to end.

    python3 perfbench/run.py --workload mock-1k --seed 29 --seconds 10 --trace 0
    python3 perfbench/run.py --smoke

Each round runs ``claimcheck verify`` and
then ``claimcheck metrics --labels`` in fresh processes, exactly as a user
would, with the program's default concurrency, and checks the outputs.
A run makes at least two rounds, and more until the timed ``verify``
processes add up to ``--seconds``. An operation is one application in
one round; it fails when any output check fails for it.

Every run and round writes a fresh output directory, and nothing is
deleted from one run to the next: deleting tens of thousands of files
made the file writes of the runs that followed slower, run after run. A
run refuses to start when the disk runs short of space; clear
``.perfbench-work/`` between sequences of runs.

With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` the commands run under ``tracing.py`` and it reports the
per-layer metrics instead. Progress goes to stderr.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

sys.dont_write_bytecode = True  # keep the benchmark's directory free of caches

import checks  # noqa: E402
import corpus  # noqa: E402
import tracing  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench-work"

MIN_ROUNDS = 2
# set-up probes before every round and after the last one, so that their
# median speaks for the whole run and not for one moment
SETUP_PROBES = 3
METRICS_MIN_S = 1.0  # metrics repeats in a round until it has run this long
CHILD_TIMEOUT_S = 150.0
RUN_BUDGET_S = 150.0  # no new round starts if it could end past this
DISK_RESERVE_BYTES = 1 << 30  # with less free space, a run refuses to start
START = time.perf_counter()


@dataclasses.dataclass(frozen=True)
class Workload:
    apps: int
    backend: str = "mock"
    unsupported_rate: float = 0.0
    archive: bool = False


WORKLOADS = {
    "mock-1k": Workload(apps=1000),
    "stub-latency": Workload(apps=40, backend="remote"),
    "archive-intake": Workload(apps=150, unsupported_rate=0.05, archive=True),
}
SMOKE_APPS = 12

END_TO_END_UNITS = {"apps_per_s": "apps/s", "cpu_s": "s", "peak_rss_mb": "MB",
                    "setup_s": "s", "metrics_s": "s"}


def log(message: str) -> None:
    print(f"[perfbench] {message}", file=sys.stderr, flush=True)


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout


@dataclasses.dataclass
class ChildResult:
    returncode: int
    wall_s: float
    cpu_s: float
    sys_s: float
    peak_rss_mb: float


def run_child(argv: list[str], env: dict, log_path: Path) -> ChildResult:
    """Run one process to its end, with its wall time and its own rusage."""
    with open(log_path, "wb") as log_file:
        started = time.perf_counter()
        child = subprocess.Popen(argv, env=env, stdin=subprocess.DEVNULL,
                                 stdout=log_file, stderr=subprocess.STDOUT)
        signal.signal(signal.SIGALRM, _alarm)
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(child.pid, 0)
            wall = time.perf_counter() - started
        except ChildTimeout:
            child.kill()
            child.wait()
            raise RuntimeError(f"{log_path.stem} ran over {CHILD_TIMEOUT_S:.0f} s") from None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    child.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    if child.returncode != 0:
        tail = log_path.read_text(errors="replace")[-1500:]
        log(f"{log_path.stem} exited {child.returncode}:\n{tail}")
    return ChildResult(child.returncode, wall, usage.ru_utime + usage.ru_stime,
                       usage.ru_stime, usage.ru_maxrss / 1024.0)


class LatencyStub:
    """The latency stub in its own process, driven over its stdin/stdout."""

    def __init__(self, corpus_dir: Path, env: dict):
        self._proc = subprocess.Popen(
            [sys.executable, str(HERE / "stub.py"), "--corpus", str(corpus_dir)],
            env=env, stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
        try:
            self.url = self._read()["url"]
        except (RuntimeError, ValueError):
            self.close()
            raise

    def _read(self) -> dict:
        line = self._proc.stdout.readline()
        if not line:
            raise RuntimeError("latency stub exited before answering")
        return json.loads(line)

    def command(self, name: str) -> dict:
        self._proc.stdin.write(name + "\n")
        self._proc.stdin.flush()
        return self._read()

    def close(self) -> None:
        if self._proc.poll() is None:
            self._proc.stdin.close()
            try:
                self._proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self._proc.kill()
                self._proc.wait()
        self._proc.stdout.close()


class Bench:
    def __init__(self, name: str, workload: Workload, seed: int, traced: bool):
        self.name = name
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p)
        self.cli = [sys.executable, "-m", "claimcheck.cli"]
        (WORK / "runs").mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=WORK / "runs"))
        self.stub: LatencyStub | None = None

    def claimcheck(self, args: list[str], tag: str) -> ChildResult:
        if self.traced:
            argv = [sys.executable, str(HERE / "tracing.py"), str(self.dir / f"{tag}.spans"), *args]
        else:
            argv = [*self.cli, *args]
        return run_child(argv, self.env, self.dir / f"{tag}.log")

    def verify_args(self, corpus_dir: Path, out: Path, backend: str) -> list[str]:
        args = ["verify", "--corpus", str(corpus_dir), "--out", str(out), "--backend", backend]
        if backend == "remote":
            args += ["--endpoint", self.stub.url]
        return args

    def reference_run(self, corpus_dir: Path, out: Path) -> None:
        """An untimed mock-backend run that a timed run must agree with."""
        done = run_child([*self.cli, *self.verify_args(corpus_dir, out, "mock")],
                         self.env, self.dir / "reference.log")
        if done.returncode != 0:
            raise RuntimeError(f"reference run over {corpus_dir} exited {done.returncode}")

    def setup_samples(self, count: int) -> list[float]:
        """Fresh ``verify`` over an empty corpus: interpreter start, import,
        catalog load and validation, and nothing else."""
        if self.traced:
            return []
        empty = self.dir / "empty-corpus"
        empty.mkdir(exist_ok=True)
        samples = []
        for _ in range(count):
            done = run_child([*self.cli, *self.verify_args(empty, self.dir / "setup-out", "mock")],
                             self.env, self.dir / "setup.log")
            if done.returncode != 0:
                raise RuntimeError(f"verify over an empty corpus exited {done.returncode}")
            samples.append(done.wall_s)
        return samples

    def run(self, seconds: float) -> dict:
        wl = self.workload
        cached = corpus.corpus_for(
            WORK / "corpora", f"{self.name}-n{wl.apps}", corpus.source_digest(SRC), self.cli,
            self.env, apps=wl.apps, seed=self.seed, unsupported_rate=wl.unsupported_rate,
            archive=wl.archive)
        loose = cached / "loose"
        corpus_dir = cached / "archive" if wl.archive else loose
        facts = checks.CorpusFacts(corpus_dir)
        labels = loose / "labels.csv"
        digest_file = cached / "digests.json"
        digests = json.loads(digest_file.read_text()) if digest_file.is_file() else None

        reference = None
        if wl.archive:
            self.reference_run(loose, self.dir / "reference")
            reference = checks.RunOutput(self.dir / "reference", facts.app_ids)
        elif wl.backend == "remote":
            self.reference_run(corpus_dir, self.dir / "reference")
        if wl.backend == "remote":
            self.stub = LatencyStub(corpus_dir, self.env)
        rounds: list[dict] = []
        attempted = failed = 0
        measured = 0.0
        setup: list[float] = []
        try:
            while len(rounds) < MIN_ROUNDS or (
                    measured < seconds
                    and time.perf_counter() - START + rounds[-1]["round_s"] < RUN_BUDGET_S):
                round_start = time.perf_counter()
                setup += self.setup_samples(SETUP_PROBES)
                out = self.dir / f"out-{len(rounds) + 1}"
                result, failures, seen = self.one_round(corpus_dir, out, facts, labels,
                                                        reference, digests)
                measured += result.pop("verify_wall_s")
                if digests is None and not failures:
                    digests = seen
                    digest_file.write_text(json.dumps(digests))
                bad = set(facts.app_ids) if checks.ALL in failures else set(failures)
                for app, reason in sorted(failures.items())[:5]:
                    log(f"round {len(rounds) + 1}: {app}: {reason}")
                attempted += len(facts.app_ids)
                failed += len(bad)
                result["round_s"] = time.perf_counter() - round_start
                rounds.append(result)
            setup += self.setup_samples(SETUP_PROBES)
        finally:
            if self.stub is not None:
                self.stub.close()
        log(f"{self.name} seed {self.seed}: {len(rounds)} round(s), "
            f"{failed}/{attempted} applications failed")

        if self.traced:
            names = [k for k in rounds[0] if k not in ("round_s", "metrics_s")]
            metrics = {k: (statistics.median(r[k] for r in rounds), layer_unit(k))
                       for k in names}
        else:
            metrics = {
                "apps_per_s": statistics.median(r["apps_per_s"] for r in rounds),
                "cpu_s": statistics.median(r["cpu_s"] for r in rounds),
                "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in rounds),
                "setup_s": statistics.median(setup),
                "metrics_s": statistics.median(
                    [s for r in rounds for s in r["metrics_s"]] or [0.0]),
            }
            metrics = {k: (v, END_TO_END_UNITS[k]) for k, v in metrics.items()}
        return {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()},
        }

    def one_round(self, corpus_dir, out, facts, labels, reference, digests):
        """One timed verify and its metrics commands.

        Returns the round's measures, its failures, and the digests of the
        JSON outputs that verify wrote.
        """
        if self.stub is not None:
            self.stub.command("reset")
        done = self.claimcheck(self.verify_args(corpus_dir, out, self.workload.backend),
                               "verify")
        stub_stats = self.stub.command("stats") if self.stub is not None else None
        log(f"verify {done.wall_s:.2f} s wall, {done.cpu_s:.2f} s cpu ({done.sys_s:.2f} system)")
        result = {"apps_per_s": len(facts.app_ids) / done.wall_s, "cpu_s": done.cpu_s,
                  "peak_rss_mb": done.peak_rss_mb}
        if self.traced:
            result = self.layer_metrics(out, done, stub_stats)
            result.update(tracing.metrics_layer_metrics([]))
        result["verify_wall_s"] = done.wall_s
        result["metrics_s"] = []
        if done.returncode != 0:
            return result, {checks.ALL: f"verify exited {done.returncode}"}, None
        try:
            run = checks.RunOutput(out, facts.app_ids)
        except (OSError, ValueError, KeyError) as exc:
            return result, {checks.ALL: f"unreadable verify output: {exc!r}"}, None
        failures = checks.check_run(facts, run, corpus_dir.name)
        if digests is not None:
            failures = {**checks.check_same_digests(run, digests, "an earlier run"),
                        **failures}
        if self.workload.backend == "remote":
            failures = {**checks.check_same_tree(run, self.dir / "reference",
                                                 "the mock-backend run"), **failures}
            if stub_stats["non_200"]:
                failures[checks.ALL] = f"stub sent {stub_stats['non_200']} error replies"
        if reference is not None:
            failures = {**checks.check_same_statuses(run, reference, "the loose-file run"),
                        **failures}

        metrics_s = result["metrics_s"]
        while len(metrics_s) < 2 or sum(metrics_s) < METRICS_MIN_S:
            ran = self.claimcheck(["metrics", "--out", str(out), "--labels", str(labels)],
                                  f"metrics{len(metrics_s)}")
            if ran.returncode != 0:
                failures[checks.ALL] = f"metrics exited {ran.returncode}"
                break
            metrics_s.append(ran.wall_s)
        else:
            failures = {**checks.check_metrics_output(facts, run), **failures}
        if self.traced:
            result.update(tracing.metrics_layer_metrics(
                tracing.load_spans(self.dir / "metrics0.spans")))
        return result, failures, checks.digests(run)

    def layer_metrics(self, out: Path, done: ChildResult, stub_stats: dict | None) -> dict:
        result = tracing.verify_layer_metrics(tracing.load_spans(self.dir / "verify.spans"))
        stub_stats = stub_stats or {}
        result["backends.http_requests"] = stub_stats.get("requests", 0)
        result["backends.inflight_peak"] = stub_stats.get("inflight_peak", 0)
        result["backends.inflight_mean"] = stub_stats.get("inflight_mean", 0.0)
        result["pipeline.files_written"] = sum(1 for p in out.rglob("*") if p.is_file())
        result["trace.verify_wall_s"] = done.wall_s
        return result


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ms"):
        return "ms"
    return "count"


def smoke() -> int:
    """Every workload on a tiny corpus, untraced and traced, every check on."""
    ok = True
    for name, workload in WORKLOADS.items():
        tiny = dataclasses.replace(workload, apps=SMOKE_APPS)
        for traced in (False, True):
            result = Bench(name, tiny, seed=1, traced=traced).run(seconds=0)
            ok = ok and result["correct"]
            print(json.dumps({"workload": name, "trace": int(traced), **result}))
    return 0 if ok else 1


def main() -> int:
    parser = argparse.ArgumentParser(description="claimcheck benchmark")
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=29)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny corpora, every workload, traced and untraced")
    args = parser.parse_args()
    if not (SRC / "claimcheck" / "cli.py").is_file():
        log(f"no claimcheck sources under {SRC}")
        return 2
    free = shutil.disk_usage(ROOT).free
    if free < DISK_RESERVE_BYTES:
        log(f"only {free / 2**30:.2f} GiB free on the disk of {ROOT}; "
            f"delete {WORK} and run again")
        return 3
    if args.smoke:
        return smoke()
    if args.workload is None:
        parser.error("--workload is required")
    bench = Bench(args.workload, WORKLOADS[args.workload], args.seed, bool(args.trace))
    print(json.dumps(bench.run(args.seconds)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
