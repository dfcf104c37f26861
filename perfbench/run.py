#!/usr/bin/env python3
"""Build and run the perfbench benchmark from the root of a checkout.

    python3 perfbench/run.py --workload link-cold --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py --selftest [--seed N]

The benchmark is a Go program in this directory (its own module, which
imports the repository's packages through a replace directive). It is built
into the build directory ($CARGO_TARGET_DIR, default .bench_build), with the
Go build cache kept there too, and the result line it prints last is passed
through. --selftest is the determinism gate: it runs every workload twice
with one seed in fresh processes and compares the exact per-point counts.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ["link-cold", "service-mix", "check-run"]
# Seeds 1-10 were used while the benchmark was tuned; this one was not, and
# is kept for validating later claims.
HELD_OUT_SEED = 4242


def build(build_dir):
    # Everything the Go toolchain writes (build cache, temporary files, its
    # configuration and telemetry directory) stays in the build directory.
    tmp = os.path.join(build_dir, "tmp")
    os.makedirs(tmp, exist_ok=True)
    env = dict(os.environ)
    env.update({
        "GOCACHE": os.path.join(build_dir, "gocache"),
        "GOPATH": os.path.join(build_dir, "gopath"),
        "GOTMPDIR": tmp,
        "XDG_CONFIG_HOME": os.path.join(build_dir, "config"),
        "GOTOOLCHAIN": "local",
        "GOWORK": "off",
        "GOPROXY": "off",
        "CGO_ENABLED": "0",
        "GOFLAGS": "",
        "GOENV": "off",
    })
    binary = os.path.join(build_dir, "perfbench")
    # Without the repository beside this directory the build cannot succeed;
    # with it, a failed build (a compiler killed on a busy host) is tried once
    # more.
    attempts = 2 if os.path.exists(os.path.join(HERE, "..", "go.mod")) else 1
    for _ in range(attempts):
        try:
            proc = subprocess.run(["go", "build", "-o", binary, "."], cwd=HERE, env=env,
                                  stdout=sys.stderr, stderr=sys.stderr, timeout=840)
        except subprocess.TimeoutExpired:
            sys.exit("perfbench: build did not finish within 840 s")
        if proc.returncode == 0:
            return binary
    sys.exit("perfbench: build failed")


def run(binary, args, timeout):
    # A fork that fails for want of memory or process slots on a busy host
    # is tried again; a run that overstays its time is killed and reported.
    for attempt in range(3):
        try:
            proc = subprocess.run([binary] + args, stdout=subprocess.PIPE, timeout=timeout)
            return proc.returncode, proc.stdout.decode()
        except subprocess.TimeoutExpired:
            sys.exit("perfbench: run did not finish within %d s" % timeout)
        except OSError as e:
            print("perfbench: starting the benchmark: %s" % e, file=sys.stderr)
            time.sleep(0.5 * (attempt + 1))
    sys.exit("perfbench: could not start the benchmark")


def selftest(binary, build_dir, seed):
    ok = True
    for w in WORKLOADS:
        prints = []
        for k in range(2):
            fp = os.path.join(build_dir, "fingerprint-%s-%d.json" % (w, k))
            code, _ = run(binary, ["-workload", w, "-seed", str(seed), "-seconds", "1",
                                   "-trace", "0", "-fingerprint", fp], 170)
            if code != 0:
                sys.exit("perfbench: selftest %s run %d exited %d" % (w, k, code))
            with open(fp) as f:
                prints.append(json.load(f))
        same = prints[0] == prints[1]
        ok = ok and same
        print("%-12s %d points, exact counts %s" % (w, len(prints[0]), "identical" if same else "DIFFER"))
    if not ok:
        sys.exit("perfbench: determinism gate failed")
    print("determinism gate passed (seed %d)" % seed)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=HELD_OUT_SEED)
    ap.add_argument("--seconds", type=int, default=10)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--selftest", action="store_true")
    a = ap.parse_args()
    if not a.selftest and not a.workload:
        ap.error("--workload or --selftest is required")

    # The program takes a 64-bit seed; a larger one is folded into range.
    a.seed = (a.seed + 2**63) % 2**64 - 2**63
    build_dir = os.path.abspath(os.environ.get("CARGO_TARGET_DIR") or ".bench_build")
    binary = build(build_dir)
    if a.selftest:
        selftest(binary, build_dir, a.seed)
        return
    code, out = run(binary, ["-workload", a.workload, "-seed", str(a.seed),
                             "-seconds", str(a.seconds), "-trace", str(a.trace)], 175)
    sys.stdout.write(out)
    sys.stdout.flush()
    sys.exit(code)


if __name__ == "__main__":
    main()
