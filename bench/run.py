"""Benchmark of the gentlehh command line.

    python3 bench/run.py --workload disc_corpus|large_disc|deep_degree \
        --seed N --seconds S --trace 0|1

Run from the repository root.  The workload's commands run in-process
through ``gentlehh.cli.main`` in one fresh single-threaded child process,
in passes, for about S seconds; every table they report is checked
against the benchmark's own references.  Each end-to-end time is the
fastest sample of the run (see end_to_end).  The next-to-last line of stdout
holds the details (inputs, sample counts, failures, input-layer times),
also written with per-instance records to .bench_out/; the last line is
{"correct", "attempted", "failed", "metrics"}, with the end-to-end
metrics when --trace is 0 and the per-layer metrics when it is 1.
See bench/README.md for what each workload and metric is for.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time

import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = ".bench_out"
RUN_LIMIT_S = 170  # the whole run, child included, ends before 180 s

# Layer times reported on every workload; "calls" counts where they show
# duplicated work.  linalg.rank is split by characteristic and caller.
LAYER_TIMES = (
    "surface.build_surface", "report.analyze",
    "quiver.build_quiver", "quiver.enumerate_basis",
    "pairs.hh_dims_rr", "pairs.rr_sets", "pairs.ap_paths", "pairs.coinvariant_dim",
    "cochain.build_complex", "cochain.verify_complex_property",
    "cochain.hh_dims_oracle",
    "linalg.rank.char0", "linalg.rank.char2",
    "linalg.rank.char0.oracle", "linalg.rank.char0.coinvariant",
    "linalg.rank.char2.oracle", "linalg.rank.char2.coinvariant",
    "geometric.hh_dims_geometric", "ag.ag_invariant", "ag.hh_dims_ladkani",
)
LAYER_CALLS = (
    "surface.build_surface", "report.analyze", "quiver.build_quiver",
    "quiver.enumerate_basis", "pairs.rr_sets", "pairs.ap_paths",
    "cochain.build_complex", "linalg.rank.char0", "linalg.rank.char2",
    "geometric.hh_dims_geometric", "ag.ag_invariant",
)
# Input layers that only some workloads call; reported in the details.
INPUT_LAYERS = ("fileformat.load_file", "corpus.generate_polygon_triangulations",
                "report.render_json")
SIZES = ("quiver.basis_size", "pairs.ap_size", "cochain.cochains", "cochain.nonzeros")


def fail(message):
    print("error: %s" % message, file=sys.stderr)
    sys.exit(2)


def environment() -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "platform": platform.platform()}


def child_env() -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("PYTHONPATH", None)
    return env


def run_child(plan, seconds, trace, timeout) -> dict:
    request = {"src": SRC, "commands": plan["commands"], "seconds": seconds,
               "trace": trace}
    proc = subprocess.run([sys.executable, os.path.join(HERE, "child.py")],
                          input=json.dumps(request), cwd=ROOT, env=child_env(),
                          capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("benchmark child exited with code %d" % proc.returncode)
    return json.loads(proc.stdout)


def check_outcomes(plan, outcomes, fixtures) -> tuple:
    """(attempted, failed, messages) over every pass.

    A (surface, characteristic) result fails if its command exits
    nonzero or prints something other than its report, its verdict is not
    pass, any method's table differs from the reference, or it is missing.
    """
    attempted = failed = 0
    messages = []
    for outcome in outcomes:
        weight = outcome["passes"]
        for argv, expected, result in zip(plan["commands"], plan["expected"],
                                          outcome["commands"]):
            reports = result["reports"]
            attempted += expected * weight
            bad = abs(len(reports) - expected)
            if bad:
                messages.append("%s: %d results, expected %d"
                                % (" ".join(argv), len(reports), expected))
            if result["code"] != 0 or not result["printed_ok"]:
                messages.append("%s: exit code %s, output %s: %s"
                                % (" ".join(argv), result["code"],
                                   "ok" if result["printed_ok"] else "wrong",
                                   result["stderr"].strip()))
                failed += max(expected, len(reports)) * weight
                continue
            for rep in reports:
                reference = workloads.reference_table(
                    rep["name"], rep["char"], plan["nmax"], rep["census"],
                    fixtures, plan["generated"])
                wrong = [m for m, dims in rep["dims"].items() if dims != reference]
                generated = plan["generated"].get(rep["name"])
                if generated and any(rep["census"][k] != generated[k]
                                     for k in ("arcs", "internal", "arrows", "basis")):
                    wrong.append("census")
                if rep["verdict"] != "pass" or wrong or len(rep["dims"]) != 4:
                    bad += 1
                    messages.append("%s char %d: verdict %s, wrong %s"
                                    % (rep["name"], rep["char"], rep["verdict"], wrong))
            failed += min(bad, expected) * weight
    return attempted, failed, messages[:20]


def metric(value, unit) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(plan, child) -> dict:
    """Timings from the fastest sample of each timed thing in the run.

    The program is deterministic and another tenant on the machine can
    only slow it down, so a command's fastest pass is its cost with the
    least interference: over ten-seed sets this read 2x steadier than the
    median.  wall_s is one pass with every command at its fastest,
    command_p50_s the median over the workload's commands of those times,
    and setup_s the fastest of the run's import probes.
    """
    passes = [p for p in child["passes"] if not p["traced"]]
    fastest = [min(p["latencies"][i] for p in passes)
               for i in range(len(plan["commands"]))]
    wall = sum(fastest)
    return {
        "setup_s": metric(min(child["setup"]), "s"),
        "wall_s": metric(wall, "s"),
        "instances_per_s": metric(sum(plan["expected"]) / wall, "1/s"),
        "command_p50_s": metric(statistics.median(fastest), "s"),
        "peak_rss_mb": metric(child["peak_rss_kb"] / 1024, "MB"),
    }


def per_layer(child) -> tuple:
    """Per-layer metrics (times: median over traced passes; counts and
    sizes: from the first traced pass) and the input-layer times."""
    traced = child["traced"]

    def self_s(name):
        return statistics.median(t["layers"].get(name, {}).get("self_s", 0.0)
                                 for t in traced)

    first = traced[0]
    out = {}
    for name in LAYER_TIMES:
        out[name + ".self_s"] = metric(self_s(name), "s")
    for name in LAYER_CALLS:
        out[name + ".calls"] = metric(first["layers"].get(name, {}).get("calls", 0),
                                      "count")
    for name in SIZES:
        out[name] = metric(first["sizes"][name], "count")
    out["cochain.hit_ratio"] = metric(
        first["sizes"]["cochain.nonzeros"] / max(first["sizes"]["cochain.candidates"], 1),
        "ratio")
    walls = {kind: statistics.median(p["wall"] for p in child["passes"]
                                     if p["traced"] == kind)
             for kind in (False, True)}
    out["trace_overhead_s"] = metric(walls[True] - walls[False], "s")
    inputs = {name + ".self_s": metric(self_s(name), "s") for name in INPUT_LAYERS}
    inputs.update({name + ".calls": metric(first["layers"].get(name, {}).get("calls", 0),
                                           "count") for name in INPUT_LAYERS})
    counts_repeat = all(t["layers"].keys() == first["layers"].keys()
                        and all(t["layers"][k]["calls"] == first["layers"][k]["calls"]
                                for k in first["layers"])
                        and t["sizes"] == first["sizes"] for t in traced)
    return out, inputs, counts_repeat


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    begin = time.perf_counter()
    if args.seconds < 1:
        fail("--seconds must be at least 1")
    if not os.path.isfile(os.path.join(SRC, "gentlehh", "cli.py")):
        fail("no gentlehh sources under %s; run from a full checkout" % SRC)
    fixtures = workloads.load_fixtures(os.path.join(SRC, "gentlehh", "data"))

    workdir = os.path.join(OUT, "inputs", "%s-s%d" % (args.workload, args.seed))
    plan = workloads.build_plan(args.workload, args.seed, ROOT, workdir)
    child = run_child(plan, args.seconds, bool(args.trace),
                      RUN_LIMIT_S - (time.perf_counter() - begin))
    attempted, failed, messages = check_outcomes(plan, child["outcomes"], fixtures)
    if child["left_patched"]:
        messages.append("patched names left behind: %s" % child["left_patched"])

    detail = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "environment": environment(),
              "inputs": plan["inputs"], "commands": plan["commands"],
              "passes": len(child["passes"]),
              "pass_walls_s": [p["wall"] for p in child["passes"]],
              "pass_latencies_s": [p["latencies"] for p in child["passes"]],
              "failed_ratio": failed / attempted, "failures": messages,
              "setup_samples_s": child["setup"]}
    if args.trace:
        metrics, inputs, counts_repeat = per_layer(child)
        detail.update(input_layers=inputs, counts_repeat=counts_repeat,
                      traced_passes=len(child["traced"]),
                      missing_layers=child["traced"][0]["missing"])
        if not counts_repeat:
            messages.append("call counts or sizes differ between traced passes")
    else:
        metrics = end_to_end(plan, child)
        detail.update(command_samples=sum(len(p["latencies"]) for p in child["passes"]))
    correct = failed == 0 and not messages
    detail["metrics"] = metrics
    print(json.dumps({"detail": detail}))
    os.makedirs(os.path.join(ROOT, OUT), exist_ok=True)
    report_path = os.path.join(ROOT, OUT, "%s-s%d-trace%d.json"
                               % (args.workload, args.seed, args.trace))
    with open(report_path, "w", encoding="utf-8") as handle:
        json.dump(dict(detail, instances=child["traced"][0]["instances"]
                       if args.trace else []), handle, indent=1)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
