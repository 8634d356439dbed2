"""One benchmark run inside a fresh, single-threaded process.

Reads a JSON plan on stdin: {"src", "commands", "seconds", "trace"}.
Repeats passes over the commands through ``gentlehh.cli.main(argv)`` until
the next pass would end past ``seconds`` (at least one pass; two, one of
each kind, when tracing), and prints one JSON document on stdout.  After
each untraced pass, outside its timing, SETUP_PROBES fresh processes time
their import of ``gentlehh.cli``; spreading them over the run keeps a few
slow seconds of the machine from setting the whole set-up figure.

Every pass runs with a hook on ``report.analyze`` that keeps each report
until the pass ends, so the parent can check every table.  With tracing
on, passes alternate untraced and traced; the traced ones give the
per-layer numbers and the difference of the two the tracing overhead.
"""

import contextlib
import gc
import hashlib
import io
import json
import resource
import subprocess
import sys
import time

import tracer

SETUP_PROBES = 3
IMPORT_PROBE = ("import sys, time; sys.path.insert(0, sys.argv[1]); "
                "t = time.perf_counter(); import gentlehh.cli; "
                "print(time.perf_counter() - t)")


def import_seconds(src) -> float:
    """Seconds a fresh process takes to import gentlehh.cli (byte code is
    already compiled: this process imported it first)."""
    out = subprocess.run([sys.executable, "-c", IMPORT_PROBE, src],
                         capture_output=True, text=True, timeout=60, check=True)
    return float(out.stdout)


def run_command(cli, argv):
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 1
    except Exception as exc:  # a crash is a failed command, not a failed run
        code = -1
        err.write("%s: %s" % (type(exc).__name__, exc))
    return time.perf_counter() - start, code, out.getvalue(), err.getvalue()


def printed_ok(argv, stdout, reports) -> bool:
    """Whether the command's own output states what its reports hold."""
    if argv[0] == "analyze":
        try:
            doc = json.loads(stdout)
        except ValueError:
            return False
        return (len(reports) == 1 and doc["verdict"] == reports[0]["verdict"]
                and {m: v["dims"] for m, v in doc["methods"].items()}
                == reports[0]["dims"])
    lines = stdout.splitlines()
    return (bool(lines)
            and lines[-1] == "%d instance(s), 0 disagreement(s)" % (len(reports) // 2)
            and not any("DISAGREE" in line for line in lines))


def record(surface, report) -> dict:
    return {"name": report.name, "char": report.characteristic,
            "verdict": report.verdict,
            "dims": {m: list(t.dims) for m, t in report.tables.items()},
            "census": tracer.surface_census(surface)}


def run_pass(cli, commands, captured):
    gc.collect()
    latencies, outcomes = [], []
    for argv in commands:
        latency, code, stdout, stderr = run_command(cli, argv)
        latencies.append(latency)
        outcomes.append((argv, code, stdout, stderr, list(captured)))
        captured.clear()
    checked = []
    for argv, code, stdout, stderr, reports in outcomes:
        reports = [record(s, r) for s, r in reports]
        checked.append({"code": code, "stderr": stderr[-500:],
                        "printed_ok": code == 0 and printed_ok(argv, stdout, reports),
                        "reports": reports})
    return sum(latencies), latencies, checked


def main():
    plan = json.load(sys.stdin)
    sys.path.insert(0, plan["src"])
    from gentlehh import cli

    captured = []

    def capture(original):
        def analyze(surface, characteristic, *args, **kwargs):
            result = original(surface, characteristic, *args, **kwargs)
            captured.append((surface, result))
            return result
        return analyze

    originals = {(m, a): getattr(sys.modules[m], a, None)
                 for m, a, _, _ in tracer.LAYERS}
    passes, outcomes, traced, setup = [], {}, [], []
    budget = plan["seconds"]
    begin = time.perf_counter()
    with tracer.Patches() as hook:
        hook.replace("gentlehh.report", "analyze", capture)
        while True:
            trace = plan["trace"] and len(passes) % 2 == 1
            if trace:
                with tracer.Tracer() as spans:
                    wall, latencies, checked = run_pass(cli, plan["commands"], captured)
                summary = dict(tracer.summarize(spans.spans), missing=spans.missing)
                if traced:
                    del summary["instances"]  # identical to the first traced pass
                traced.append(summary)
                del spans
            else:
                wall, latencies, checked = run_pass(cli, plan["commands"], captured)
                if not plan["trace"]:
                    setup.extend(import_seconds(plan["src"]) for _ in range(SETUP_PROBES))
            passes.append({"wall": wall, "latencies": latencies, "traced": trace})
            text = json.dumps(checked, sort_keys=True)
            digest = hashlib.sha256(text.encode()).hexdigest()
            if digest in outcomes:
                outcomes[digest]["passes"] += 1
            else:
                outcomes[digest] = {"passes": 1, "commands": checked}
            del checked, text
            elapsed = time.perf_counter() - begin
            enough = len(passes) >= (2 if plan["trace"] else 1)
            if enough and elapsed + wall > budget:
                break
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    json.dump({"passes": passes, "outcomes": list(outcomes.values()),
               "traced": traced, "setup": setup, "peak_rss_kb": peak_kb,
               "left_patched": sorted("%s.%s" % key for key, value in originals.items()
                                      if getattr(sys.modules[key[0]], key[1], None)
                                      is not value)},
              sys.stdout)


if __name__ == "__main__":
    main()
