"""End-to-end benchmark of the predstmt CLI on synthetic corpora.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload cv-linear --seed 1 --seconds 30 --trace 0

The benchmark generates a corpus from --seed, then runs closed-loop rounds
for --seconds: each round spawns one `predstmt stats` process (a set-up
sample) and then the workload's commands one after another, each starting
when the previous one has exited. Every child is measured on its own with
os.wait4 and every round's artifacts are checked and hashed. The CLI runs
from this checkout's src/ directory.

With --trace 1 the last round runs each command under perfbench/traced.py,
which records spans at the package's module boundaries, and the run reports
per-layer metrics instead of end-to-end ones.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics. Earlier lines give the environment, the
corpus spec and SHA-256, each round's samples and the artifact digest.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

import gen_corpus
import layers

BENCH_DIR = Path(__file__).resolve().parent
# A run ends within --seconds plus this margin, which leaves room for the round
# that overruns the window, the traced round and the clean-up. Once the
# margin is short of the time two more rounds need, the loop stops early
# and says so; a command still running at the deadline is killed and fails.
DEADLINE_MARGIN_S = 140.0
TAG = "bench"
# Times are reported at the machine speed where reference.py takes this long.
# The machine this was tuned on drifted by +-25% over minutes; the reference,
# run between rounds, drifted with the CLI (log-time correlation 0.81), and
# scaling by it cut the spread of five-round windows from 0.21 to 0.08.
REFERENCE_NOMINAL_S = 0.35
# glibc raises its mmap threshold each time a large block is freed, so later
# dense matrices land on the heap, and whether a fold's matrix fits the hole
# the last one left depends on the corpus. Peak RSS of cv-forest then stepped
# between 66, 78 and 90 MB from seed to seed with the same live data. A fixed
# threshold returns every block of 1 MiB or more to the system when freed,
# so peak RSS follows the memory the program holds (67 MB on all three seeds).
CHILD_ENV = {"MALLOC_MMAP_THRESHOLD_": str(1 << 20)}
# End-to-end outputs that exist on only some workloads. A run prints them next
# to the metrics; the JSON carries them as the per-layer metric named here.
OUTPUT_METRICS = {
    "macro_f1.logreg": ("evaluation.macro_f1.logreg", "ratio"),
    "macro_f1.svm": ("evaluation.macro_f1.svm", "ratio"),
    "macro_f1.rf": ("evaluation.macro_f1.rf", "ratio"),
    "shortfall_docs": ("augment.shortfall_docs", "docs"),
}


@dataclass(frozen=True)
class Workload:
    scale: float
    train: dict
    commands: tuple[tuple[str, ...], ...]


WORKLOADS = {
    "cv-linear": Workload(
        scale=0.5,
        train={"epochs": 10},
        commands=(("cv", "--task", "1", "--model", "logreg", "--model", "svm"),),
    ),
    "cv-forest": Workload(
        scale=1,
        train={"n_trees": 10},
        commands=(("cv", "--task", "2", "--model", "rf"),),
    ),
    "text-10x": Workload(
        scale=10,
        train={},
        commands=(
            ("balance", "--task", "2"),
            ("emotion", "--dataset", f"out/balance/{TAG}/balanced.jsonl"),
        ),
    ),
}


class CommandTimeout(Exception):
    pass


@dataclass
class Sample:
    wall_s: float
    cpu_s: float
    maxrss_mb: float
    exit_code: int
    killed: bool  # by spawn, at its timeout


def _on_alarm(signum, frame):
    raise CommandTimeout()


def spawn(argv: list[str], cwd: Path, env: dict, log: Path, timeout_s: float) -> Sample:
    """Run one child to completion and return its own wall time, CPU time and peak RSS."""
    signal.signal(signal.SIGALRM, _on_alarm)
    with log.open("ab") as fh:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=cwd, env=env, stdout=fh, stderr=fh)
        signal.setitimer(signal.ITIMER_REAL, max(timeout_s, 0.01))
        killed = False
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except CommandTimeout:
            proc.kill()
            _, status, usage = os.wait4(proc.pid, 0)
            killed = True
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        wall = time.perf_counter() - start
    return Sample(
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        maxrss_mb=usage.ru_maxrss / 1024.0,
        exit_code=os.waitstatus_to_exitcode(status),
        killed=killed,
    )


# ---------------------------------------------------------------------------
# output checks; each returns a list of problems (empty when the output is right)

def _read_jsonl(path: Path) -> list[dict]:
    with path.open(encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]


def parse_artifacts(out: Path) -> list[str]:
    problems = []
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        try:
            if path.suffix == ".json":
                json.loads(path.read_text(encoding="utf-8"))
            elif path.suffix == ".jsonl":
                _read_jsonl(path)
            elif not path.read_text(encoding="utf-8").strip():
                problems.append(f"{path.relative_to(out)} is empty")
        except (ValueError, UnicodeDecodeError) as exc:
            problems.append(f"{path.relative_to(out)} does not parse: {exc}")
    return problems


def check_stats(run_dir: Path, spec: dict) -> list[str]:
    stats = json.loads((run_dir / "stats.json").read_text(encoding="utf-8"))
    problems = []
    if stats["documents"] != spec["documents"]:
        problems.append(f"stats counts {stats['documents']} docs, corpus has {spec['documents']}")
    for task, key in ((1, "task1"), (2, "task2")):
        counts = [v for name, v in stats[key].items() if name != "total"]
        if sorted(counts) != sorted(spec[key].values()):
            problems.append(f"stats task {task} counts {counts} differ from {spec[key]}")
    return problems


def check_cv(run_dir: Path, models: list[str], labelled: int) -> tuple[list[str], dict]:
    problems, f1 = [], {}
    for kind in models:
        report = json.loads((run_dir / f"cv_{kind}.json").read_text(encoding="utf-8"))
        pooled = sum(map(sum, report["pooled"]["confusion"]["counts"]))
        folds = sum(sum(map(sum, fold["confusion"]["counts"])) for fold in report["per_fold"])
        if pooled != labelled or folds != labelled:
            problems.append(f"cv_{kind}: confusion totals {pooled}/{folds}, expected {labelled}")
        f1[kind] = report["pooled"]["macro_f1"]
        if not 0.0 < f1[kind] <= 1.0:
            problems.append(f"cv_{kind}: macro_f1 {f1[kind]} outside (0, 1]")
    return problems, f1


def check_balance(run_dir: Path) -> tuple[list[str], dict]:
    report = json.loads((run_dir / "balance.json").read_text(encoding="utf-8"))
    target = report["plan"]["target_per_class"]
    shortfall = {c: int(n) for c, n in report["shortfall"].items()}
    problems = []
    for code, after in report["after"].items():
        if after != target - shortfall.get(code, 0):
            problems.append(f"balance class {code}: {after} docs after, target {target} "
                            f"minus shortfall {shortfall.get(code, 0)}")
    balanced = _read_jsonl(run_dir / "balanced.jsonl")
    if len(balanced) != report["documents_after"]:
        problems.append(f"balanced.jsonl has {len(balanced)} docs, "
                        f"balance.json says {report['documents_after']}")
    summary = {
        "shortfall_docs": sum(shortfall.values()),
        "synthetic_docs": report["documents_after"] - report["documents_before"],
        "cell_docs": sum(1 for rec in balanced if rec["coin"] and rec["task2"] is not None),
    }
    return problems, summary


def check_emotion(run_dir: Path, cell_docs: int) -> list[str]:
    cells = json.loads((run_dir / "emotion.json").read_text(encoding="utf-8"))["cells"]
    total = sum(cell["cell_count"] for by_label in cells.values() for cell in by_label.values())
    if total != cell_docs:
        return [f"emotion cell_counts add up to {total}, expected {cell_docs}"]
    return []


def digest(out: Path) -> str:
    h = hashlib.sha256()
    for path in sorted(p for p in out.rglob("*") if p.is_file()):
        h.update(str(path.relative_to(out)).encode("utf-8") + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


# ---------------------------------------------------------------------------
# one benchmark run

class Bench:
    def __init__(self, root: Path, workload: str, seed: int, deadline_s: float):
        self.name = workload
        self.workload = WORKLOADS[workload]
        self.seed = seed
        self.work = root / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
        self.reference_env = dict(os.environ)
        self.env = dict(os.environ, **CHILD_ENV)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(root / "src")] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))
        self.deadline = time.perf_counter() + deadline_s
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.outputs: dict[str, float] = {}
        self.digests: set[str] = set()

    def remaining(self) -> float:
        return self.deadline - time.perf_counter()

    def prepare(self) -> dict:
        self.work.mkdir(parents=True)
        self.spec = gen_corpus.write_corpus(self.work / "corpus.jsonl", self.seed,
                                            self.workload.scale)
        (self.work / "train.json").write_text(json.dumps({"train": self.workload.train}))
        return self.spec

    def cli_argv(self, command: tuple[str, ...], spans: Path | None = None) -> list[str]:
        runner = [str(BENCH_DIR / "traced.py"), str(spans)] if spans else ["-m", "predstmt.cli"]
        argv = [sys.executable, *runner, *command]
        if "--dataset" not in command:
            argv += ["--dataset", "corpus.jsonl"]
        return argv + ["--config", "train.json", "--seed", str(self.seed),
                       "--out", "out", "--tag", TAG]

    def run_command(self, command: tuple[str, ...], spans: Path | None = None) -> Sample:
        self.attempted += 1
        sample = spawn(self.cli_argv(command, spans), self.work, self.env,
                       self.work / "children.log", self.remaining())
        if sample.killed:
            self.fail(f"{' '.join(command)} was killed at the run deadline")
        elif sample.exit_code != 0:
            self.fail(f"{' '.join(command)} exited {sample.exit_code}")
        return sample

    def reference(self) -> float:
        """Wall time of one reference.py process, which does not use the package."""
        sample = spawn([sys.executable, str(BENCH_DIR / "reference.py")], self.work,
                       self.reference_env, self.work / "children.log", self.remaining())
        if sample.exit_code != 0:
            self.problems.append(f"reference.py exited {sample.exit_code}")
        return sample.wall_s

    def fail(self, *problems: str) -> None:
        """Count one failed command, whatever the number of problems found in its output."""
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    def check_outputs(self, command: tuple[str, ...]) -> list[str]:
        """Problems in the artifacts one workload command wrote."""
        run_dir = self.work / "out" / command[0] / TAG
        problems = parse_artifacts(run_dir)
        try:
            if command[0] == "cv":
                models = [command[i + 1] for i, a in enumerate(command) if a == "--model"]
                task = command[command.index("--task") + 1]
                labelled = sum(self.spec[f"task{task}"].values())
                found, f1 = check_cv(run_dir, models, labelled)
                self.outputs.update({f"evaluation.macro_f1.{k}": v for k, v in f1.items()})
            elif command[0] == "balance":
                found, summary = check_balance(run_dir)
                self.outputs["augment.shortfall_docs"] = summary["shortfall_docs"]
                self.outputs["synthetic_docs"] = summary["synthetic_docs"]
                self.outputs["cell_docs"] = summary["cell_docs"]
            else:
                found = check_emotion(run_dir, int(self.outputs["cell_docs"]))
        except (OSError, KeyError, TypeError, ValueError) as exc:
            found = [f"{command[0]} artifacts: {type(exc).__name__}: {exc}"]
        return problems + found

    def setup_sample(self) -> Sample:
        """A fresh `stats` process on the corpus: start-up, imports, load and validation."""
        shutil.rmtree(self.work / "out", ignore_errors=True)
        sample = self.run_command(("stats",))
        if sample.exit_code == 0:
            try:
                self.fail(*check_stats(self.work / "out" / "stats" / TAG, self.spec))
            except (OSError, KeyError, ValueError) as exc:
                self.fail(f"stats artifacts: {type(exc).__name__}: {exc}")
        return sample

    def round(self, spans_dir: Path | None = None) -> list[Sample]:
        """Run the workload's commands once, check their artifacts and hash them."""
        out = self.work / "out"
        shutil.rmtree(out, ignore_errors=True)
        samples = []
        for i, command in enumerate(self.workload.commands):
            spans = spans_dir / f"spans{i}.json" if spans_dir else None
            samples.append(self.run_command(command, spans))
            if samples[-1].exit_code != 0:
                return samples
            self.fail(*self.check_outputs(command))
        self.digests.add(digest(out))
        self.outputs["cli.artifact_bytes"] = sum(
            p.stat().st_size for p in out.rglob("*") if p.is_file())
        return samples

    def docs_processed(self) -> int:
        """Input documents the workload's commands process in one round."""
        total = 0
        for command in self.workload.commands:
            if command[0] == "cv":
                task = command[command.index("--task") + 1]
                total += sum(self.spec[f"task{task}"].values()) * command.count("--model")
            elif command[0] == "balance":
                total += self.spec["documents"]
            elif command[0] == "emotion":
                total += self.spec["documents"] + int(self.outputs.get("synthetic_docs", 0))
        return total


def _fmt_round(index: int, setup: Sample, samples: list[Sample], refs: list[float]) -> str:
    wall = sum(s.wall_s for s in samples)
    cpu = sum(s.cpu_s for s in samples)
    rss = max((s.maxrss_mb for s in samples), default=0.0)
    return (f"round {index}: setup {setup.wall_s:.3f} s, wall {wall:.3f} s, "
            f"cpu {cpu:.3f} s, peak rss {rss:.1f} MB, reference {refs[0]:.3f}/{refs[1]:.3f} s")


def environment() -> dict:
    import numpy

    cpu = platform.processor() or ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "nproc": os.cpu_count(), "cpu": cpu}


def run(args: argparse.Namespace, root: Path) -> dict:
    bench = Bench(root, args.workload, args.seed, args.seconds + DEADLINE_MARGIN_S)
    print("env " + json.dumps(environment(), sort_keys=True))
    try:
        spec = bench.prepare()
        print("corpus " + json.dumps(spec, sort_keys=True))
        print("workload " + json.dumps({
            "name": args.workload,
            "commands": [" ".join(bench.cli_argv(c)[3:]) for c in bench.workload.commands],
            "why": next(w["why"] for w in layers.benchmark_spec()["workloads"]
                        if w["name"] == args.workload)}))
        bench.setup_sample()  # warm-up: byte-code and page caches; not timed
        setups, rounds, refs = [], [], [bench.reference()]
        window_start = time.perf_counter()
        while not rounds or time.perf_counter() - window_start < args.seconds:
            if rounds and bench.remaining() < 2 * sum(s.wall_s for s in rounds[-1]) + 10:
                print(f"stopped early: {bench.remaining():.1f} s left before the run deadline")
                break
            setups.append(bench.setup_sample())
            rounds.append(bench.round())
            refs.append(bench.reference())
            print(_fmt_round(len(rounds), setups[-1], rounds[-1], refs[-2:]), flush=True)
            if bench.failed:
                break
        # each round is scaled by the reference runs on either side of it
        scales = [2 * REFERENCE_NOMINAL_S / (before + after)
                  for before, after in zip(refs, refs[1:])]
        walls = [sum(s.wall_s for s in r) for r in rounds]
        if args.trace:
            spans_dir = bench.work / "spans"
            spans_dir.mkdir()
            traced = bench.round(spans_dir)
            traced_wall = sum(s.wall_s for s in traced)
            untraced = statistics.median(walls)
            print(f"traced round: wall {traced_wall:.3f} s vs untraced {untraced:.3f} s")
            bench.outputs["trace.overhead_s"] = traced_wall - untraced
            metrics = traced_metrics(bench, spans_dir, len(traced))
        else:
            wall_s = statistics.median(w * k for w, k in zip(walls, scales))
            cpus = [sum(s.cpu_s for s in r) for r in rounds]
            metrics = {
                "wall_s": {"value": wall_s, "unit": "s"},
                "docs_per_s": {"value": bench.docs_processed() / wall_s, "unit": "docs/s"},
                "cpu_s": {"value": statistics.median(c * k for c, k in zip(cpus, scales)),
                          "unit": "s"},
                "peak_rss_mb": {"value": max(s.maxrss_mb for r in rounds for s in r),
                                "unit": "MB"},
                "setup_s": {"value": statistics.median(
                    s.wall_s * k for s, k in zip(setups, scales)), "unit": "s"},
            }
            print(f"unscaled medians: wall {statistics.median(walls):.4f} s, "
                  f"cpu {statistics.median(cpus):.4f} s, "
                  f"setup {statistics.median(s.wall_s for s in setups):.4f} s, "
                  f"reference {statistics.median(refs):.4f} s")
        if len(bench.digests) > 1:
            bench.fail(f"rounds produced {len(bench.digests)} different artifact sets")
        print("artifact digest " + ",".join(sorted(bench.digests)))
        print(f"samples: {len(rounds)} rounds, {len(setups)} set-up runs, "
              f"{len(refs)} reference runs, docs per round {bench.docs_processed()}")
        for problem in bench.problems:
            print(f"FAILED: {problem}")
        failed = min(bench.failed, bench.attempted)
        print(f"failed_ratio {failed / bench.attempted:.4f} ratio "
              f"({failed} of {bench.attempted} commands failed)")
        for name, (key, unit) in OUTPUT_METRICS.items():
            if key in bench.outputs:
                print(f"{name} {bench.outputs[key]:.6g} {unit}")
        for name, metric in metrics.items():
            print(f"{name} {metric['value']:.6g} {metric['unit']}")
        return {
            "correct": not bench.problems,
            "attempted": bench.attempted,
            "failed": failed,
            "metrics": metrics,
        }
    finally:
        shutil.rmtree(bench.work, ignore_errors=True)
        try:
            bench.work.parent.rmdir()
        except OSError:
            pass


def traced_metrics(bench: Bench, spans_dir: Path, commands_run: int) -> dict:
    stats = layers.SpanStats()
    counters: dict[str, float] = {}
    for i in range(commands_run):
        path = spans_dir / f"spans{i}.json"
        if not path.exists():
            bench.fail(f"traced command {i} wrote no spans")
            continue
        payload = json.loads(path.read_text(encoding="utf-8"))
        stats.add(payload["spans"])
        for key, value in payload["counters"].items():
            if key.endswith("max_depth") or key == "features.dim":
                counters[key] = max(counters.get(key, 0), value)
            else:
                counters[key] = counters.get(key, 0) + value
    print("spans " + json.dumps({name: stats.calls[name] for name in sorted(stats.calls)}))
    metrics = layers.per_layer(stats, counters, bench.outputs)
    # an observer that could not read a layer's result leaves its counters at 0,
    # which would read as a gain on metrics where lower is better
    bench.fail(*(f"traced counters lost: {key[: -len('.unobserved')]} returned an "
                 "unexpected type" for key in sorted(counters) if key.endswith(".unobserved")),
               *layers.missing_work(bench.name, metrics))
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    root = Path.cwd()
    if not (root / "src" / "predstmt" / "cli.py").is_file():
        print(f"error: {root} holds no src/predstmt package to benchmark", file=sys.stderr)
        return 2
    result = run(args, root)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
