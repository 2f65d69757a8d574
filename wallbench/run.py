#!/usr/bin/env python3
"""Build and run the wallbench benchmark from the repository root.

    python3 wallbench/run.py --workload kv --seed 1 --seconds 10 --trace 0

The Go program lives in wallbench/ as a module of its own that uses the
repository's module through a replace directive. Build outputs, the Go
build cache and the Go configuration directory all live under
.bench_build/ in the repository root, so a run touches nothing outside
the checkout. Every argument is passed through to the benchmark, whose
last line of standard output is the JSON result.

    python3 wallbench/run.py --selfcheck

runs each workload briefly, twice, and checks that every metric named in
BENCHMARK.json is printed with its unit and that the identity digest is
the same in both runs.
"""

import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BINARY = os.path.join(BUILD, "wallbench")


def go_env():
    env = dict(os.environ)
    env.update(
        GOCACHE=os.path.join(BUILD, "gocache"),
        GOPATH=os.path.join(BUILD, "gopath"),
        GOMODCACHE=os.path.join(BUILD, "gopath", "pkg", "mod"),
        XDG_CONFIG_HOME=os.path.join(BUILD, "config"),
        GOTOOLCHAIN="local",
        GOPROXY="off",
        GOENV="off",
        CGO_ENABLED="0",
    )
    return env


def build():
    os.makedirs(BUILD, exist_ok=True)
    proc = subprocess.run(
        ["go", "build", "-o", BINARY, "."],
        cwd=HERE,
        env=go_env(),
        stdout=subprocess.PIPE,
        stderr=subprocess.STDOUT,
        text=True,
    )
    if proc.returncode != 0:
        sys.stderr.write(proc.stdout)
        sys.stderr.write("wallbench: build failed\n")
        sys.exit(1)


def run(args):
    """Runs the benchmark binary, returns (exit code, stdout)."""
    proc = subprocess.run([BINARY] + args, stdout=subprocess.PIPE, text=True)
    return proc.returncode, proc.stdout


def digest_line(out):
    for line in out.splitlines():
        if line.startswith("digest "):
            return line
    return None


def selfcheck():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    ok = True
    for w in [x["name"] for x in spec["workloads"]]:
        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = {m["name"]: m["unit"] for m in spec[key]}
            digests = []
            for _ in range(2):
                code, out = run(["--workload", w, "--seed", "1", "--seconds", "1", "--trace", str(trace)])
                if code != 0:
                    print(f"FAIL {w} trace={trace}: exit {code}")
                    ok = False
                    break
                res = json.loads(out.strip().splitlines()[-1])
                got = {k: v["unit"] for k, v in res["metrics"].items()}
                if got != want:
                    print(f"FAIL {w} trace={trace}: metrics {sorted(got.items())} != {sorted(want.items())}")
                    ok = False
                if not res["correct"]:
                    print(f"FAIL {w} trace={trace}: result not correct")
                    ok = False
                digests.append(digest_line(out))
            if len(set(digests)) != 1 or None in digests:
                print(f"FAIL {w} trace={trace}: digest not reproducible: {digests}")
                ok = False
            else:
                print(f"ok   {w} trace={trace}: {digests[0]}")
    return 0 if ok else 1


def main():
    build()
    if sys.argv[1:] == ["--selfcheck"]:
        sys.exit(selfcheck())
    code, out = run(sys.argv[1:])
    sys.stdout.write(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
