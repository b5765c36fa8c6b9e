"""Runs mspi stages at a pinned config; checks their peak memory and bodies.

    PYTHONPATH=src python tools/default_run.py RUN OUT STAGE...

RUN is ``default`` (500 stocks, 40 years) or ``crsp-width`` (8000 stocks, 2
years). Each STAGE runs in order, until one fails, as a fresh ``python -m
mspi.cli <stage> --config OUT.json --out OUT`` with the BLAS thread variables
at 1. Each failure (a non-zero exit, a peak RSS not below the stage's bound, a
pinned body that differs, a ``*.partial`` file left in OUT) goes to stderr and
sets the exit status to 1. The last line of stdout is a JSON record of each
stage's exit code, wall time, CPU time (reaped workers included) and peak RSS,
the bodies, the failures and the machine.

The bounds hold because ``simulate`` streams one month at a time to the panel
writer, ``features`` holds one calendar year of the panel (at CRSP width, one
year's rows sorted), ``label`` reads the calendar, ``backtest`` loads neither
OpenSSL's libcrypto nor numpy.ma, ``bootstrap`` evaluates 128 replicates at a
time and ``report`` never loads NumPy (about 16 MB). ``os.wait4`` reports at
least the RSS of the process that started the stage, so up to the last stage
the tool imports only ``json``, ``os``, ``sys`` and ``time``. Its own peak is
``launcher_rss_mb``, from VmHWM: its ru_maxrss would include its parent's RSS.
"""

import json
import os
import sys
import time

# The stage that writes each pinned artifact; each run's config, bounds (MB) and pins.
WRITERS = {"features.csv": "features", "calendar.csv": "features", "labels.csv": "label",
           "forecasts.csv": "backtest", "metrics.json": "evaluate", "curves.csv": "evaluate",
           "bins.csv": "evaluate", "bootstrap.json": "bootstrap"}
RUNS = {
    "default": ({}, {"simulate": 64, "features": 80, "label": 48, "backtest": 54,
                     "bootstrap": 50, "report": 20}, {
        "features.csv": "0b3eabaa0539d8fc9cb7397e3c52721b34607b2ed3427be675bb0056b21d0df4",
        "calendar.csv": "ba3c32a6e7474a60eccfeac52fa13e9fb8181f9b780c65f51adc28740131b6a6",
        "labels.csv": "f3cd0bda7e9becabbb2935890728aea99e967f4be412fff37cad2e4866a58033",
        "forecasts.csv": "7c67d1fa24ed5db4edad83bc9e6fcb6e6b0914655957c88d3717c1f4d7f29398",
        "metrics.json": "9b7126efcdc57c7e318e1a4050af3959727dc2818371def79750bbf473b9550a",
        "curves.csv": "e7d17706c8d02ab069e7a009d759a638ac4e6b9377e7d4b9e4d949b1ede398a7",
        "bins.csv": "f88f5d761f33eb9a4b0bb91663ca1e4a26cb9b1e8b80425193709d3a312c0fc4",
        "bootstrap.json": "be423ce103a4733aabf78f059214d83d37fc27e85be90f3f08163aacecf7f5d4",
    }),
    "crsp-width": ({"sim_n_stocks": 8000, "sim_n_years": 2}, {"features": 390}, {
        "features.csv": "2df52f026b4954d10364b9d45ef04f3ffea46be07a23f76d2d36807d364fc3b5",
    }),
}


def body_sha256(path) -> str:
    """sha256 of an artifact without its config hash: a CSV file without its
    first line, a JSON file re-serialized without its "config_hash" keys (a
    report nests the hashes of the artifacts it copies), any other file whole."""
    import hashlib
    path = os.fspath(path)
    with open(path, "rb") as fh:
        body = fh.read()
    if path.endswith(".json"):
        payload = json.loads(body, object_hook=lambda obj: {
            key: value for key, value in obj.items() if key != "config_hash"})
        body = json.dumps(payload, indent=2, sort_keys=True).encode("utf-8")
    elif path.endswith(".csv"):
        body = body.split(b"\n", 1)[1]
    return hashlib.sha256(body).hexdigest()


def main(args) -> int:
    if len(args) < 3 or args[0] not in RUNS:
        sys.exit(f"usage: default_run.py {{{','.join(RUNS)}}} OUT STAGE...")
    (name, out, *stages), (config, bounds, pins) = args, RUNS[args[0]]
    config_path = os.path.normpath(out) + ".json"
    with open(config_path, "w", encoding="utf-8") as fh:
        json.dump(config, fh)
    env = dict(os.environ, OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("PYTHONDONTWRITEBYTECODE", None)  # starts load cached bytecode
    ran, failures = {}, []
    for stage in stages:
        argv = [sys.executable, "-m", "mspi.cli", "--log-level", "WARNING", stage,
                "--config", config_path, "--out", out]
        start = time.perf_counter()
        _, status, usage = os.wait4(os.posix_spawn(sys.executable, argv, env), 0)
        wall = time.perf_counter() - start
        code, peak = os.waitstatus_to_exitcode(status), usage.ru_maxrss / 1024
        ran[stage] = {"exit": code, "wall_s": wall, "cpu_s": usage.ru_utime + usage.ru_stime,
                      "peak_rss_mb": peak}
        print(f"{stage}: exit {code}, {wall:.2f} s, peak RSS {peak:.1f} MB", flush=True)
        if code:
            failures.append(f"{stage} exited {code}")
            break
        if peak >= bounds.get(stage, float("inf")):
            failures.append(f"{stage} peak RSS {peak:.1f} MB is not below {bounds[stage]} MB")
    with open("/proc/self/status", encoding="utf-8") as fh:
        launcher_kb = next(int(line.split()[1]) for line in fh if line.startswith("VmHWM:"))
    import importlib.metadata
    import platform
    import subprocess
    bodies = {artifact: body_sha256(os.path.join(out, artifact)) for artifact in pins
              if ran.get(WRITERS[artifact], {}).get("exit") == 0}
    failures += [f"{artifact} body sha256 {got} differs from the pinned {pins[artifact]}"
                 for artifact, got in bodies.items() if got != pins[artifact]]
    failures += [f"staged file left in {out}: {entry}" for entry in sorted(os.listdir(out))
                 if entry.endswith(".partial")]
    sys.stderr.write("".join(f"{failure}\n" for failure in failures))
    git = ["git", "-C", os.path.dirname(os.path.abspath(__file__))]
    commit, dirty = (subprocess.run(git + query, capture_output=True, text=True)
                     for query in (["rev-parse", "HEAD"], ["status", "--porcelain"]))
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), platform.machine())
    print(json.dumps({
        "run": name, "stages": ran, "bodies": bodies, "failures": failures,
        "launcher_rss_mb": launcher_kb / 1024, "python": platform.python_version(),
        "commit": commit.stdout.strip() if commit.returncode == 0 else None,
        "dirty": bool(dirty.stdout.strip()) if dirty.returncode == 0 else None,
        "nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "numpy": next((d.version for d in importlib.metadata.distributions(name="numpy")), None)}))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
