#!/usr/bin/env python3
"""Build the end-to-end Remos benchmark and run one workload.

    python3 bench/e2e/run.py --workload serve_repeat --seed 1 --seconds 10 --trace 0

Configures bench/e2e (perf settings: RelWithDebInfo, audits off, obs on) into
.bench_build/e2e at the repository root, builds remos_e2e, and runs it
there, so trace files land beside the build. Build output goes to stderr.
The report of remos_e2e passes through; its last line, the JSON result, keeps
exactly the metrics BENCHMARK.json lists for the mode: end_to_end with
--trace 0, per_layer with --trace 1. Exits non-zero without a result when
the build fails (for example outside a full source tree) or a listed metric
is missing; otherwise with the code of remos_e2e.
"""
import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
BUILD = ROOT / ".bench_build" / "e2e"


def build() -> bool:
    tmp = BUILD / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    env = dict(os.environ, TMPDIR=str(tmp))  # keep compiler temporaries in the checkout
    steps = []
    if not (BUILD / "Makefile").exists():
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)])
    steps.append(["cmake", "--build", str(BUILD), "--target", "remos_e2e", "-j", "4"])
    return all(subprocess.run(cmd, stdout=sys.stderr, env=env).returncode == 0 for cmd in steps)


def listed_metrics(traced: bool) -> list:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return [m["name"] for m in bench["per_layer" if traced else "end_to_end"]]


def main() -> int:
    if not build():
        print("run.py: build failed", file=sys.stderr)
        return 2
    args = sys.argv[1:]
    traced = "--trace" in args[:-1] and args[args.index("--trace") + 1] == "1"
    wanted = listed_metrics(traced)
    proc = subprocess.run([str(BUILD / "remos_e2e"), *args], cwd=BUILD, stdout=subprocess.PIPE,
                          text=True)
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        sys.stdout.write(proc.stdout)
        print("run.py: remos_e2e printed no result", file=sys.stderr)
        return proc.returncode or 1
    missing = [name for name in wanted if name not in result["metrics"]]
    if missing:
        sys.stdout.write("\n".join(lines[:-1]) + "\n")
        print(f"run.py: remos_e2e did not measure {', '.join(missing)}", file=sys.stderr)
        return 1
    result["metrics"] = {name: result["metrics"][name] for name in wanted}
    print("\n".join(lines[:-1]))
    print(json.dumps(result))
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
