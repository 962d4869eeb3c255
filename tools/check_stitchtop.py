#!/usr/bin/env python3
"""Golden-schema check on stitchd's four introspection commands.

Starts a real stitchd (collector at 100 ms, default SLOs, flight
recorder armed), drives one healthy job and one doomed job
(deadline_ms=1) through the wire, then asserts the shape of every
`stitchtop --once --json` answer:

  healthz  liveness + build provenance
  metrics  live engine state incl. SLO status, series, flight stats
  statz    metrics + the full v3 service report
  scrape   Prometheus exposition: >= 30 well-formed stitch_* series,
           counters monotone across two scrapes

and that the doomed job left a flight-*.jsonl black box behind.
`stitchd --send` must print a non-job answer (exit 0, 1 on a
status:"error" answer), and stitchd --send and stitchtop must reject a
malformed HOST:PORT with exit 2.

Invoked by the stitchtop_schema_golden ctest entry via
check_stitchtop.cmake; exits non-zero with a message on the first
violation.
"""

import argparse
import glob
import json
import os
import shutil
import signal
import subprocess
import sys
import time


def fail(message):
    print("check_stitchtop: " + message, file=sys.stderr)
    sys.exit(1)


def job_doc(name, samples_long, deadline_ms=None):
    doc = {
        "schema": "stitch-job",
        "version": 1,
        "name": name,
        "app": "APP1-gesture",
        "mode": "baseline",
        "samples_short": 1,
        "samples_long": samples_long,
    }
    if deadline_ms is not None:
        doc["deadline_ms"] = deadline_ms
    return doc


def introspect(stitchtop, port, cmd):
    proc = subprocess.run(
        [stitchtop, "127.0.0.1:%d" % port, "--once", "--json",
         "--cmd=" + cmd],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, timeout=30)
    if proc.returncode != 0:
        fail("stitchtop --cmd=%s exited %d: %s"
             % (cmd, proc.returncode, proc.stderr.decode()))
    try:
        return json.loads(proc.stdout)
    except json.JSONDecodeError as e:
        fail("--cmd=%s did not answer JSON (%s): %r"
             % (cmd, e, proc.stdout[:200]))


def require(doc, key, cmd):
    if key not in doc:
        fail("--cmd=%s answer lacks %r (got keys %s)"
             % (cmd, key, sorted(doc.keys())))
    return doc[key]


def exposition_samples(text):
    """{series-with-labels: float value} for every sample line."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        if not line.startswith("stitch_"):
            fail("exposition series lacks the stitch_ prefix: %r"
                 % line)
        name, _, value = line.rpartition(" ")
        if not name:
            fail("malformed exposition line: %r" % line)
        try:
            samples[name] = float(value)
        except ValueError:
            fail("non-numeric exposition value: %r" % line)
    return samples


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--stitchd", required=True)
    ap.add_argument("--stitchtop", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    out = args.out
    port_file = os.path.join(out, "stitchtop_port")
    flight_dir = os.path.join(out, "stitchtop_flight")
    report_file = os.path.join(out, "stitchtop_service_report.json")
    log_file = os.path.join(out, "stitchtop_stitchd.log")
    shutil.rmtree(flight_dir, ignore_errors=True)
    for stale in (port_file, report_file):
        if os.path.exists(stale):
            os.remove(stale)

    daemon = None
    log = open(log_file, "w")
    try:
        daemon = subprocess.Popen(
            [args.stitchd, "--port=0", "--port-file=" + port_file,
             "--metrics-interval-ms=100",
             "--flight-dir=" + flight_dir,
             "--report=" + report_file],
            stdout=log, stderr=subprocess.STDOUT)

        deadline = time.time() + 15
        port = None
        while time.time() < deadline:
            if daemon.poll() is not None:
                fail("stitchd exited early (%d); see %s"
                     % (daemon.returncode, log_file))
            if os.path.exists(port_file):
                text = open(port_file).read().strip()
                if text:
                    port = int(text)
                    break
            time.sleep(0.05)
        if port is None:
            fail("stitchd never wrote " + port_file)

        # One healthy job, then a doomed one: deadline_ms=1 against a
        # multi-ms simulation reliably trips the watchdog, fails the
        # job typed as "deadline" and must dump a flight record.
        for name, doc, want_ok in (
                ("ok", job_doc("ok", samples_long=2), True),
                ("doomed",
                 job_doc("doomed", samples_long=16, deadline_ms=1),
                 False)):
            path = os.path.join(out, "stitchtop_job_%s.json" % name)
            with open(path, "w") as f:
                json.dump(doc, f)
            proc = subprocess.run(
                [args.stitchd, "--send=127.0.0.1:%d" % port, path],
                stdout=subprocess.PIPE, stderr=subprocess.STDOUT,
                timeout=120)
            if want_ok and proc.returncode != 0:
                fail("healthy job was rejected: %s"
                     % proc.stdout.decode())
            if not want_ok and proc.returncode == 0:
                fail("deadline_ms=1 job unexpectedly succeeded")

        # --send prints any answer and exits 1 only on status "error";
        # stitchd --send and stitchtop reject a malformed HOST:PORT
        # with exit 2.
        cmd_path = os.path.join(out, "stitchtop_cmd.json")
        for cmd, target, want in (("metrics", port, 0), ("bogus", port, 1),
                                  ("metrics", 99999, 2),
                                  ("metrics", "abc", 2)):
            with open(cmd_path, "w") as f:
                json.dump({"cmd": cmd}, f)
            target = "127.0.0.1:%s" % target
            runs = [[args.stitchd, "--send=" + target, cmd_path]]
            if want == 2:
                runs.append([args.stitchtop, target, "--once"])
            for argv in runs:
                proc = subprocess.run(argv, capture_output=True,
                                      timeout=30)
                if proc.returncode != want:
                    fail("%s exited %d, expected %d"
                         % (" ".join(argv), proc.returncode, want))
            if want == 0 and \
                    json.loads(proc.stdout)["schema"] != "stitchd-metrics":
                fail("--send did not print the metrics answer")

        # Let at least one 100 ms collector window close over the
        # completed traffic before asserting on series/SLO state.
        time.sleep(0.35)

        healthz = introspect(args.stitchtop, port, "healthz")
        if require(healthz, "schema", "healthz") != "stitchd-healthz":
            fail("healthz schema is %r" % healthz["schema"])
        if require(healthz, "status", "healthz") != "ok":
            fail("healthz status is %r" % healthz["status"])
        build = require(healthz, "build", "healthz")
        for key in ("git", "compiler", "build_type", "sanitize"):
            require(build, key, "healthz.build")

        metrics = introspect(args.stitchtop, port, "metrics")
        if require(metrics, "schema", "metrics") != "stitchd-metrics":
            fail("metrics schema is %r" % metrics["schema"])
        for key in ("queue_depth", "in_flight", "jobs", "cache",
                    "resilience", "latency", "slo", "series",
                    "flight", "errors"):
            require(metrics, key, "metrics")
        if metrics["jobs"]["submitted"] < 2:
            fail("metrics saw %d submitted jobs, expected >= 2"
                 % metrics["jobs"]["submitted"])
        objectives = require(metrics["slo"], "objectives",
                             "metrics.slo")
        if len(objectives) != 3:
            fail("expected the 3 default SLO objectives, got %d"
                 % len(objectives))
        for objective in objectives:
            for key in ("name", "metric", "target", "burn_short",
                        "burn_long", "alerting", "history",
                        "value_valid"):
                require(objective, key, "metrics.slo.objectives[]")
        if require(metrics["flight"], "dumps", "metrics.flight") < 1:
            fail("the doomed job left no flight dump")
        if require(metrics["series"], "windows", "metrics.series") < 1:
            fail("the 100 ms collector closed no windows")

        statz = introspect(args.stitchtop, port, "statz")
        if require(statz, "schema", "statz") != "stitchd-statz":
            fail("statz schema is %r" % statz["schema"])
        service = require(statz, "service", "statz")
        if require(service, "schema", "statz.service") \
                != "stitch-service-report":
            fail("statz.service schema is %r" % service["schema"])
        if require(service, "version", "statz.service") != 3:
            fail("service report version is %r, expected 3"
                 % service["version"])
        for key in ("build", "slo", "series", "flight", "counters",
                    "latency"):
            require(service, key, "statz.service")

        scrape = introspect(args.stitchtop, port, "scrape")
        if require(scrape, "schema", "scrape") != "stitchd-scrape":
            fail("scrape schema is %r" % scrape["schema"])
        if not require(scrape, "content_type", "scrape") \
                .startswith("text/plain"):
            fail("scrape content_type is %r" % scrape["content_type"])
        first = exposition_samples(
            require(scrape, "exposition", "scrape"))
        if len(first) < 30:
            fail("scrape answered %d series, expected >= 30"
                 % len(first))
        for needed in ("stitch_jobs_submitted_total",
                       "stitch_jobs_completed_total",
                       "stitch_jobs_failed_total",
                       "stitch_queue_depth",
                       "stitch_uptime_seconds"):
            if needed not in first:
                fail("scrape lacks %s" % needed)
        if not any(name.startswith("stitch_build_info{")
                   for name in first):
            fail("scrape lacks stitch_build_info")
        if not any(name.startswith("stitch_slo_burn_rate_short{")
                   for name in first):
            fail("scrape lacks the per-objective SLO burn gauges")

        second = exposition_samples(
            introspect(args.stitchtop, port, "scrape")["exposition"])
        for name, value in first.items():
            if "_total" not in name:
                continue
            if name not in second:
                fail("counter %s vanished between scrapes" % name)
            if second[name] < value:
                fail("counter %s went backwards: %g -> %g"
                     % (name, value, second[name]))

        # Scrape totals must agree with the live report tree.
        jobs = metrics["jobs"]
        for short, full in (("submitted",
                             "stitch_jobs_submitted_total"),
                            ("failed", "stitch_jobs_failed_total")):
            if first[full] < jobs[short]:
                fail("scrape %s=%g disagrees with metrics %s=%d"
                     % (full, first[full], short, jobs[short]))

        records = glob.glob(
            os.path.join(flight_dir, "flight-*.jsonl"))
        if not records:
            fail("no flight-*.jsonl artifact in " + flight_dir)
        with open(records[0]) as f:
            head = json.loads(f.readline())
            events = [json.loads(line) for line in f]
        if head.get("schema") != "stitch-flight-record":
            fail("flight record schema is %r" % head.get("schema"))
        if head.get("kind") != "deadline":
            fail("flight record kind is %r, expected deadline"
                 % head.get("kind"))
        if head.get("events") != len(events) or not events:
            fail("flight record promises %r events, carries %d"
                 % (head.get("events"), len(events)))

        daemon.send_signal(signal.SIGTERM)
        if daemon.wait(timeout=30) != 0:
            fail("stitchd exited %d on SIGTERM" % daemon.returncode)
        daemon = None
        final = json.load(open(report_file))
        if final.get("version") != 3 or "build" not in final:
            fail("final --report is not a v3 service report")
    finally:
        if daemon is not None:
            daemon.kill()
            daemon.wait()
        log.close()

    print("check_stitchtop: all four commands answer the golden "
          "schema (%d series scraped)" % len(first))


if __name__ == "__main__":
    main()
