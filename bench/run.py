"""Pipeline benchmark: runs the mspi CLI stages on a workload and reports metrics.

    python3 bench/run.py --workload panel-wide --seed 0 --seconds 20 --trace 0
    python3 bench/run.py --workload all

Every stage runs as a fresh ``python -m mspi.cli <stage>`` process, one at a
time. With ``--trace 0`` the run repeats the workload's stages until
``--seconds`` have passed and reports the end-to-end metrics. With
``--trace 1`` it runs the stages once untraced and once under
``bench/tracing.py`` and reports the per-layer metrics. Each metric is
printed by name with its unit; the last line of standard output is one JSON
object. Outputs are checked after every pass; a failed check fails the stage
that wrote the artifact. Everything is written under ``.bench_work/``.
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
import threading
import time
from pathlib import Path

import numpy

from dirty_panel import write_dirty_inputs
from tracing import PER_LAYER, layer_metrics
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
REFERENCES = BENCH / "references.json"
STAGE_TIMEOUT_S = 120
# A workload's run stops its stages by this many seconds after it began.
RUN_DEADLINE_S = 170
# Largest |delta probability| against the pinned forecasts that still counts
# as correct: room for a solver-tolerance change, far below forecast noise.
FORECAST_DP_TOL = 1e-4
CHILD_THREADS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = (
    ("pipeline_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
    ("auc_l1", "1"), ("brier_mean", "1"),
)
# The artifacts each stage writes; a failed check on one fails its stage.
ARTIFACTS = {
    "simulate": ("panel.csv", "market.csv"),
    "features": ("features.csv",),
    "label": ("labels.csv",),
    "backtest": ("forecasts.csv", "provenance.json"),
    "evaluate": ("metrics.json", "curves.csv", "bins.csv"),
    "bootstrap": ("bootstrap.json",),
    "regress": ("regression.json",),
    "lp": ("local_projections.csv",),
    "report": ("report.json", "report.txt"),
}
PINNED = ("features.csv", "labels.csv", "forecasts.csv")


class Child:
    """Runs one process to completion; wall time and rusage from ``os.wait4``."""

    def __init__(self, cmd, env, log_path, timeout):
        self.timed_out = False
        with open(log_path, "wb") as log:
            start = time.perf_counter()
            proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
            timer = threading.Timer(timeout, self._kill, (proc,))
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:
                proc.kill()
                proc.wait()
                raise
            finally:
                timer.cancel()
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.exit_code = os.waitstatus_to_exitcode(status)
        self.peak_rss_mb = usage.ru_maxrss / 1024.0
        self.cpu_s = usage.ru_utime + usage.ru_stime

    def _kill(self, proc):
        self.timed_out = True
        proc.kill()


def _body_sha256(path: Path) -> str:
    """sha256 of a CSV without its first line, which holds the config hash."""
    with open(path, "rb") as fh:
        fh.readline()
        return hashlib.sha256(fh.read()).hexdigest()


def _read_csv_rows(path: Path) -> list[list[str]]:
    lines = path.read_text(encoding="utf-8").splitlines()
    return [line.split(",") for line in lines if line and not line.startswith("#")]


def _forecast_probs(path: Path) -> dict[str, float]:
    rows = _read_csv_rows(path)
    header = rows[0]
    month, model, prob = header.index("month"), header.index("model"), header.index("probability")
    return {f"{r[month]}/{r[model]}": float(r[prob]) for r in rows[1:]}


class Run:
    """One benchmark invocation on one workload."""

    def __init__(self, workload, seed, check_reference=True):
        self.w = workload
        self.seed = seed
        self.models = workload.config["models"]
        self.work = ROOT / ".bench_work" / workload.name
        self.out = self.work / "out"
        self.logs = self.work / "logs"
        self.env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), **CHILD_THREADS)
        # Starts must load cached bytecode, as an installed package does.
        self.env.pop("PYTHONDONTWRITEBYTECODE", None)
        references = json.loads(REFERENCES.read_text(encoding="utf-8"))
        self.reference = references.get(workload.name) if check_reference else None
        self.injected = None
        self.starts: list[float] = []
        self.first_hashes = None
        self.errors: list[str] = []
        self.deadline = time.perf_counter() + RUN_DEADLINE_S

    def timeout(self) -> float:
        return max(0.1, min(STAGE_TIMEOUT_S, self.deadline - time.perf_counter()))

    # -- set-up ------------------------------------------------------------

    def set_up(self):
        """Write the config and inputs, and compile mspi's bytecode once."""
        shutil.rmtree(self.work, ignore_errors=True)
        self.logs.mkdir(parents=True)
        config = dict(self.w.config, out_dir=str(self.out))
        if self.w.dirty_size is not None:
            stocks, years = self.w.dirty_size
            self.injected = write_dirty_inputs(self.work / "input", self.seed, stocks, years)
            config["panel_csv"] = str(self.work / "input" / "panel.csv")
            config["market_csv"] = str(self.work / "input" / "market.csv")
        self.config_path = self.work / "config.json"
        self.config_path.write_text(json.dumps(config, indent=2), encoding="utf-8")

        self.time_start()
        self.starts.clear()

    def time_start(self):
        """Time one fresh ``python -m mspi.cli --help``: interpreter plus imports."""
        child = Child([sys.executable, "-m", "mspi.cli", "--help"], self.env,
                      self.logs / "help.log", self.timeout())
        if child.exit_code != 0:
            raise RuntimeError(f"mspi.cli --help exited {child.exit_code}")
        self.starts.append(child.wall_s)

    # -- one pass over the stages -------------------------------------------

    def stage_cmd(self, stage, traced, spans_path):
        head = ([sys.executable, str(BENCH / "tracing.py"), str(spans_path)] if traced
                else [sys.executable, "-m", "mspi.cli"])
        cmd = head + ["--log-level", "WARNING", stage, "--config", str(self.config_path)]
        if stage == "bootstrap":
            cmd += ["--seed", str(self.seed)]
        if stage == "features" and self.w.dirty_size is not None:
            cmd.append("--ingest-summary")
        return cmd

    def run_pass(self, index, traced=False) -> dict:
        shutil.rmtree(self.out, ignore_errors=True)
        self.out.mkdir(parents=True)
        record = {"index": index, "traced": traced, "stages": {}, "spans": {}}
        for stage in self.w.stages:
            self.time_start()  # set-up samples spread over the whole run
            spans_path = self.logs / f"spans-{stage}.json"
            child = Child(self.stage_cmd(stage, traced, spans_path), self.env,
                          self.logs / f"pass{index}-{stage}.log", self.timeout())
            ok = child.exit_code == 0 and not child.timed_out
            record["stages"][stage] = {"wall_s": child.wall_s, "cpu_s": child.cpu_s,
                                       "peak_rss_mb": child.peak_rss_mb,
                                       "exit": child.exit_code, "timed_out": child.timed_out,
                                       "ok": ok}
            if traced and spans_path.exists():
                record["spans"][stage] = json.loads(spans_path.read_text(encoding="utf-8"))
            if not ok:
                reason = "timed out" if child.timed_out else f"exited {child.exit_code}"
                self.errors.append(f"pass {index}: stage {stage} {reason}")
                break
        else:
            self.check_outputs(record)
        record["ok"] = all(s["ok"] for s in record["stages"].values())
        record["pipeline_s"] = sum(s["wall_s"] for s in record["stages"].values())
        record["peak_rss_mb"] = max(s["peak_rss_mb"] for s in record["stages"].values())
        return record

    # -- output checks ------------------------------------------------------

    def check_outputs(self, record):
        failures: dict[str, list[str]] = {}

        def fail(stage, message):
            failures.setdefault(stage, []).append(message)

        for stage in self.w.stages:
            for name in ARTIFACTS[stage]:
                path = self.out / name
                if not path.is_file() or path.stat().st_size == 0:
                    fail(stage, f"{name} missing or empty")
        if failures:
            return self._record_failures(record, failures)

        hashes = {name: _body_sha256(self.out / name) for name in PINNED}
        record["hashes"] = hashes
        producer = {"features.csv": "features", "labels.csv": "label", "forecasts.csv": "backtest"}
        if self.first_hashes is None:
            self.first_hashes = hashes
        for name, digest in hashes.items():
            if digest != self.first_hashes[name]:
                fail(producer[name], f"{name} differs from the first pass of this run")

        probs = _forecast_probs(self.out / "forecasts.csv")
        labeled = [row[0] for row in _read_csv_rows(self.out / "labels.csv")[1:]]
        n_forecast = json.loads(
            (self.out / "provenance.json").read_text(encoding="utf-8"))["n_forecast_months"]
        cells = {f"{month}/{model}" for month in labeled[len(labeled) - n_forecast:]
                 for model in self.models}
        if not 0 < n_forecast < len(labeled) or probs.keys() != cells:
            fail("backtest", "forecast cells are not the last labeled months for every model")
        if not all(0.0 <= p <= 1.0 for p in probs.values()):
            fail("backtest", "forecast probability outside [0, 1] or NaN")

        record["forecast_max_abs_dp"] = None
        if self.reference is not None:
            for name in ("features.csv", "labels.csv"):
                if hashes[name] != self.reference[name]:
                    fail(producer[name], f"{name} body differs from the pinned reference")
            ref_probs = {k: float(v) for k, v in self.reference["probability"].items()}
            if ref_probs.keys() != probs.keys():
                fail("backtest", "forecast cells differ from the pinned reference")
            else:
                dp = max(abs(probs[k] - ref_probs[k]) for k in probs)
                record["forecast_max_abs_dp"] = dp
                record["forecasts_identical"] = hashes["forecasts.csv"] == self.reference["forecasts.csv"]
                if dp > FORECAST_DP_TOL:
                    fail("backtest", f"max |dp| {dp:.3g} against the pinned forecasts exceeds "
                                     f"{FORECAST_DP_TOL:g}")

        metrics = json.loads((self.out / "metrics.json").read_text(encoding="utf-8"))
        models = metrics["models"]
        if sorted(models) != sorted(self.models):
            fail("evaluate", f"metrics.json models {sorted(models)}")
        else:
            record["auc_l1"] = models["l1"]["auc"]
            record["brier_mean"] = statistics.fmean(m["brier"] for m in models.values())
            if not (0.0 < record["auc_l1"] <= 1.0 and 0.0 < record["brier_mean"] < 1.0):
                fail("evaluate", "AUC or Brier score out of range")

        if self.injected is not None:
            summary = json.loads((self.out / "ingest_summary.json").read_text(encoding="utf-8"))
            if summary["rows_dropped"] != self.injected:
                fail("features", f"drop counts {summary['rows_dropped']} != injected {self.injected}")
            if summary["rows_read"] - summary["rows_kept"] != sum(self.injected.values()):
                fail("features", "rows_read - rows_kept differs from the injected drops")
        self._record_failures(record, failures)

    def _record_failures(self, record, failures):
        for stage, messages in failures.items():
            record["stages"][stage]["ok"] = False
            record["stages"][stage]["check_failures"] = messages
            self.errors += [f"pass {record['index']}: {stage}: {m}" for m in messages]


def run_metadata(workload, seed, seconds, trace) -> dict:
    meta = {"workload": workload.name, "seed": seed, "seconds": seconds, "trace": trace,
            "stage_timeout_s": STAGE_TIMEOUT_S, "run_deadline_s": RUN_DEADLINE_S,
            "stages_concurrent": 1,
            "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "child_threads": CHILD_THREADS, "git_commit": None, "git_dirty": None,
            "cpu_model": platform.processor() or platform.machine()}
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            meta["cpu_model"] = next(line.split(":", 1)[1].strip() for line in fh
                                     if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        meta["blas"] = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        meta["blas"] = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        meta["git_commit"] = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True,
                                            text=True).stdout.strip() or None
        status = subprocess.run(git + ["status", "--porcelain"], capture_output=True, text=True)
        meta["git_dirty"] = bool(status.stdout.strip()) if status.returncode == 0 else None
    return meta


def _median(values):
    return statistics.median(values) if values else None


def run_workload(workload, seed, seconds, trace, check_reference=True) -> tuple[dict, dict]:
    """Run one workload; return the contract result and the full record."""
    run = Run(workload, seed, check_reference)
    record = {"meta": run_metadata(workload, seed, seconds, trace), "passes": []}
    run.set_up()
    record["injected_drops"] = run.injected

    if trace:
        untraced = run.run_pass(0)
        traced = run.run_pass(1, traced=True) if untraced["ok"] else None
        passes = [p for p in (untraced, traced) if p is not None]
    else:
        passes = []
        begin = time.perf_counter()
        while True:
            passes.append(run.run_pass(len(passes)))
            if not passes[-1]["ok"] or time.perf_counter() - begin >= seconds:
                break
    record["passes"] = passes
    starts = record["setup_starts_s"] = run.starts

    record["samples"] = {"passes": len(passes), "setup_starts": len(starts)}
    attempted = sum(len(p["stages"]) for p in passes)
    failed = sum(not s["ok"] for p in passes for s in p["stages"].values())
    good = [p for p in passes if p["ok"]]
    correct = bool(good) and len(good) == len(passes)

    if trace:
        metrics, summary = trace_metrics(run, untraced, traced) if correct else ({}, None)
        record["trace"] = summary
        if summary is not None:
            correct = correct and not summary["problems"]
        units = {name: unit for name, unit, _ in PER_LAYER}
        values = {name: metrics.get(name) for name in units}
    else:
        units = dict(END_TO_END)
        # Per-stage medians over passes, so one slow stretch of one pass
        # moves the result less than a median of pass totals would.
        stage_median = {
            stage: {key: _median([p["stages"][stage][key] for p in good])
                    for key in ("wall_s", "peak_rss_mb")}
            for stage in workload.stages
        } if good else {}
        values = {
            "pipeline_s": sum(s["wall_s"] for s in stage_median.values()) if good else None,
            "setup_s": _median(starts),
            "peak_rss_mb": max(s["peak_rss_mb"] for s in stage_median.values()) if good else None,
            "auc_l1": _median([p["auc_l1"] for p in good if "auc_l1" in p]),
            "brier_mean": _median([p["brier_mean"] for p in good if "brier_mean" in p]),
        }
        record["stage_median"] = stage_median
    record["errors"] = run.errors
    result = {"correct": correct, "attempted": attempted, "failed": failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    record["result"] = result
    return result, record


def trace_metrics(run, untraced, traced):
    stage_wall = {s: v["wall_s"] for s, v in traced["stages"].items()}
    stage_rss = {s: v["peak_rss_mb"] for s, v in traced["stages"].items()}
    overhead = traced["pipeline_s"] - untraced["pipeline_s"]
    metrics, summary = layer_metrics(traced["spans"], stage_wall, stage_rss, overhead,
                                     run.w.expected)
    problems = []
    if summary["missing"]:
        problems.append(f"wrapped functions recorded no calls: {', '.join(summary['missing'])}")
    if missing_spans := [s for s in run.w.stages if s not in traced["spans"]]:
        problems.append(f"stages wrote no spans: {', '.join(missing_spans)}")
    tol = 1e-6 * max(1.0, summary["root_s"])
    if abs(summary["self_sum_s"] - summary["root_s"]) > tol or summary["min_self_s"] < -tol:
        problems.append(f"span self times sum to {summary['self_sum_s']:.6f} s, "
                        f"root spans cover {summary['root_s']:.6f} s")
    if summary["root_s"] > traced["pipeline_s"]:
        problems.append("root spans exceed the traced stage wall time")
    summary["problems"] = problems
    for p in problems:
        print(f"TRACE CHECK FAILED ({run.w.name}): {p}", file=sys.stderr)
    return metrics, summary


def _print_result(name, result, record):
    n = record["samples"]
    passes = f" (per-stage medians over {n['passes']} pass{'es' if n['passes'] > 1 else ''})"
    counts = {"pipeline_s": passes, "peak_rss_mb": passes,
              "setup_s": f" (median of {n['setup_starts']} starts)"}
    for metric, m in result["metrics"].items():
        count = "" if record["meta"]["trace"] else counts.get(metric, "")
        value = "n/a" if m["value"] is None else f"{m['value']:.6g}"
        print(f"{name} {metric} = {value} {m['unit']}{count}")
    for p in record["passes"]:
        dp = p.get("forecast_max_abs_dp")
        if dp is not None:
            print(f"{name} forecast_max_abs_dp = {dp:.6g} (pass {p['index']}, "
                  f"identical={p.get('forecasts_identical')})")
    print(f"{name} stage_fail_frac = {result['failed'] / max(result['attempted'], 1):.6g} "
          f"({result['failed']}/{result['attempted']} stages)")
    for err in record["errors"]:
        print(f"{name} ERROR {err}", file=sys.stderr)


def update_reference(workload):
    """Pin the outputs of this run as the workload's reference."""
    run_out = ROOT / ".bench_work" / workload.name / "out"
    refs = json.loads(REFERENCES.read_text(encoding="utf-8"))
    entry = {name: _body_sha256(run_out / name) for name in PINNED}
    entry["probability"] = {k: repr(v) for k, v in _forecast_probs(run_out / "forecasts.csv").items()}
    refs[workload.name] = entry
    REFERENCES.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n", encoding="utf-8")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--update-reference", action="store_true",
                        help="pin this run's features, labels and forecasts as the reference")
    args = parser.parse_args(argv)
    # SIGTERM unwinds like Ctrl-C, so a running stage is killed and reaped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    if not (ROOT / "src" / "mspi" / "cli.py").is_file():
        print(f"bench: no mspi sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results_dir = ROOT / ".bench_work" / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    trace_failed = False
    for name in names:
        result, record = run_workload(WORKLOADS[name], args.seed, args.seconds, args.trace,
                                      check_reference=not args.update_reference)
        trace_failed |= bool(args.trace and not result["correct"])
        path = results_dir / f"{name}-seed{args.seed}-trace{args.trace}.json"
        path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
        _print_result(name, result, record)
        if args.update_reference and result["correct"]:
            update_reference(WORKLOADS[name])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["metrics"].update({f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(result if len(names) == 1 else combined))
    return 1 if trace_failed else 0  # a failed traced run fails loudly


if __name__ == "__main__":
    sys.exit(main())
