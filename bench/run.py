"""algforge benchmark: one workload per run, closed loop, single thread.

    python3 bench/run.py --workload dimension-table --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --self-check

A run sets the program up several times (fresh import, input generation,
input files) and keeps the median as `setup_s`.  It then repeats whole
rounds until `--seconds` have passed; a round is the library pass
(construct, serialize with a JSON round trip, verify), the CLI pass over
the same input files, and the control operations.  Each operation starts
when the previous one ends, and one that runs past `LIMIT_S` is stopped
and counted as failed.  Timings are medians over the rounds.  After the
rounds, the outputs of the first round are checked apart from the program
and every later round must have produced the same certificates.

With `--trace 1` the run alternates untraced and traced rounds and reports
the per-layer metrics of the traced ones instead; see `tracer.py`.

The last line of standard output is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import io
import json
import os
import resource
import shutil
import signal
import statistics
import sys
import time
import types
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, HERE)

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

LIMIT_S = 5.0        # per-operation time limit
SETUP_REPEATS = 5    # set-ups per run; setup_s is their median
CALIBRATION_REF_S = 0.010  # what one calibration sample takes at reference speed
MODULES = ["algebra", "certificates", "cli", "constructions", "incidence",
           "linear", "matrices", "polynomials", "simplex", "spectral", "verify"]

END_TO_END = {"setup_s": "s", "construct_s": "s", "verify_s": "s",
              "verify_p50_s": "s", "wall_s": "s", "cli_s": "s",
              "ops_per_s": "1/s", "cert_bytes": "bytes", "peak_rss_mb": "MiB"}


class OpTimeout(BaseException):
    """Raised by SIGALRM inside an operation that ran past the limit.
    A BaseException, so that no `except Exception` in the program eats it."""


def _alarm(signum, frame):
    raise OpTimeout()


def calibration_work() -> Fraction:
    """A fixed piece of Fraction arithmetic that never touches algforge."""
    acc = Fraction(0)
    for i in range(1, 2001):
        acc += Fraction(i % 7 - 3, i % 11 + 1) * Fraction(i % 5 + 1, i % 3 + 1)
    return acc


class Speed:
    """Samples of how fast this process runs a fixed piece of work.

    The CPU this runs on is shared, and its speed drifts by tens of percent
    over tens of seconds, so a longer run does not average the drift away.
    Every reported time is therefore scaled to reference speed: an
    operation's raw seconds times CALIBRATION_REF_S over the mean of the
    calibration samples taken just before and just after it.
    """

    def __init__(self):
        self.samples: list[float] = []

    def sample(self) -> float:
        t0 = time.perf_counter()
        calibration_work()
        self.samples.append(time.perf_counter() - t0)
        return self.samples[-1]

    def factor(self, first: int) -> float:
        """Scale for times measured since sample index `first`."""
        taken = self.samples[first:]
        return CALIBRATION_REF_S * len(taken) / sum(taken)


class Runner:
    """Runs operations with the time limit and keeps one round's figures."""

    def __init__(self, af, speed: Speed):
        self.af = af
        self.speed = speed
        self.tracer = None
        self.new_round()

    def new_round(self) -> None:
        self.stage = {"construct": 0.0, "serialize": 0.0, "verify": 0.0,
                      "cli": 0.0, "control": 0.0}
        self.verify_times: list[float] = []
        self.cert_bytes = 0
        self.digest = hashlib.sha256()
        self.attempted = self.failed = 0
        self.library_ok = 0
        self.errors: list[str] = []
        self.longest = 0.0

    def op(self, stage: str, fn, expect=None):
        """Run one operation; returns its result, or None when it failed."""
        verdicts_before = len(self.verify_times)
        token = self.tracer.begin() if self.tracer else None
        t0 = time.perf_counter()
        signal.setitimer(signal.ITIMER_REAL, LIMIT_S)
        try:
            try:
                result = fn()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
            ok = expect is None or expect(result)
            error = None if ok else "unexpected result"
        except OpTimeout:
            result, ok, error = None, False, f"exceeded {LIMIT_S} s"
        except Exception as exc:  # an operation failing must not end the run
            result, ok, error = None, False, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if token is not None:
            self.tracer.end(token, "op." + stage)
        if ok:
            self.longest = max(self.longest, dt)
        before = self.speed.samples[-1]
        scale = 2 * CALIBRATION_REF_S / (before + self.speed.sample())
        self.stage[stage] += dt * scale
        self.verify_times[verdicts_before:] = [
            t * scale for t in self.verify_times[verdicts_before:]]
        self.attempted += 1
        if ok:
            self.library_ok += stage in ("construct", "serialize", "verify")
        else:
            self.failed += 1
            self.errors.append(f"{stage}: {error}")
        return result if ok else None

    def round_trip(self, certs) -> list[dict]:
        """Serialize certificates and read them back from canonical JSON."""
        docs = []
        for cert in certs:
            text = workloads.canonical(cert.to_json())
            self.cert_bytes += len(text.encode())
            self.digest.update(text.encode())
            docs.append(json.loads(text))
        return docs

    def verdicts(self, docs) -> list[str]:
        """Verify each document, timing each verdict on its own."""
        failures = []
        for doc in docs:
            t0 = time.perf_counter()
            failures += self.af.verify.verify_document(doc)
            self.verify_times.append(time.perf_counter() - t0)
        return failures

    def cli(self, argv: list[str]) -> None:
        """One CLI verb in-process; it must exit 0."""
        def call():
            err = io.StringIO()
            with redirect_stdout(io.StringIO()), redirect_stderr(err):
                code = self.af.cli.run(argv)
            return code, err.getvalue()
        self.op("cli", call, expect=lambda res: res[0] == 0)


def load_program():
    """Import algforge afresh: drop every loaded algforge module first."""
    for name in [m for m in sys.modules
                 if m == "algforge" or m.startswith("algforge.")]:
        del sys.modules[name]
    package = importlib.import_module("algforge")
    af = types.SimpleNamespace(package=package)
    for name in MODULES:
        setattr(af, name, importlib.import_module("algforge." + name))
    return af


def one_round(wl, runner: Runner) -> dict:
    """One library pass, CLI pass and control pass.  Times are scaled per
    operation; the library pass's time is the sum of its operations."""
    runner.new_round()
    first = len(runner.speed.samples)
    runner.speed.sample()
    t0 = time.perf_counter()
    out = wl.library(runner)
    raw_wall = time.perf_counter() - t0
    wl.cli(runner, out)
    wl.controls(runner, out)
    stage = runner.stage
    return {"out": out, "scale": runner.speed.factor(first), "raw_wall": raw_wall,
            "wall": stage["construct"] + stage["serialize"] + stage["verify"],
            "construct": stage["construct"], "verify": stage["verify"],
            "cli": stage["cli"], "verify_times": list(runner.verify_times),
            "cert_bytes": runner.cert_bytes, "digest": runner.digest.hexdigest(),
            "attempted": runner.attempted, "failed": runner.failed,
            "library_ok": runner.library_ok, "errors": list(runner.errors),
            "longest": runner.longest}


def verify_kind_seconds(af, docs) -> dict[str, float]:
    """Time each property kind by verifying one-property copies."""
    seconds = {k: 0.0 for k in tracing.VERIFY_KINDS}
    for doc in docs:
        for prop in doc["properties"]:
            if prop["kind"] not in seconds:
                continue
            single = dict(doc, properties=[prop])
            t0 = time.perf_counter()
            af.verify.verify_document(single)
            seconds[prop["kind"]] += time.perf_counter() - t0
    return {f"verify.{k}_s": v for k, v in seconds.items()}


def certificate_bits(docs) -> int:
    """Largest numerator or denominator bit length in any stored matrix."""
    def matrices(value):
        if isinstance(value, list):
            for v in value:
                yield from matrices(v)
        elif isinstance(value, dict):
            if "entries" in value:
                yield value
            else:
                for v in value.values():
                    yield from matrices(v)
    return tracing.entry_bits(Fraction(v) for doc in docs
                              for m in matrices([doc["inputs"], doc["C"],
                                                 doc["outputs"]])
                              for row in m["entries"] for v in row)


def per_layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name == "cli.verify_calls_per_cert":
        return "calls/cert"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("_bits"):
        return "bits"
    return "count"


def run(workload: str, seed: int, seconds: float, trace: bool, work: str,
        quick: bool = False) -> dict:
    speed = Speed()
    setups = []
    for _ in range(SETUP_REPEATS):
        first = len(speed.samples)
        speed.sample()
        t0 = time.perf_counter()
        af = load_program()
        wl = workloads.WORKLOADS[workload](af, seed, work, quick)
        dt = time.perf_counter() - t0
        speed.sample()
        setups.append(dt * speed.factor(first))

    runner = Runner(af, speed)
    rounds, traced = [], []
    tracer = tracing.Tracer({"__init__": af.package,
                             **{m: getattr(af, m) for m in MODULES}})
    start = time.perf_counter()
    previous = signal.signal(signal.SIGALRM, _alarm)
    try:
        while True:
            if trace and len(rounds) > len(traced):
                tracer.reset()
                runner.tracer = tracer
                tracer.install()
                try:
                    r = one_round(wl, runner)
                finally:
                    tracer.uninstall()
                    runner.tracer = None
                r["layers"] = {
                    k: v * r["scale"] if k.endswith("_s") else v
                    for k, v in tracing.layer_metrics(tracer.settle()).items()}
                traced.append(r)
            else:
                r = one_round(wl, runner)
                rounds.append(r)
            # Only the first round's outputs are checked; later rounds are
            # compared by digest.  Dropping their outputs keeps peak_rss_mb
            # from growing with the number of rounds a run holds.
            if r is not rounds[0]:
                del r["out"]
            if time.perf_counter() - start >= seconds and (
                    not trace or traced):
                break
    finally:
        signal.signal(signal.SIGALRM, previous)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    everything = rounds + traced
    first = rounds[0]
    problems = []
    try:
        problems += wl.check(first["out"])
    except Exception as exc:  # a crashed check is a failed check
        problems.append(f"check raised {type(exc).__name__}: {exc}")
    if any(r["digest"] != first["digest"] for r in everything):
        problems.append("rounds emitted different certificates")
    for p in problems:
        print("check failed:", p, file=sys.stderr)
    errors = sorted({e for r in everything for e in r["errors"]})
    for e in errors:
        print("failed operation:", e, file=sys.stderr)
    print(f"rounds: {len(rounds)} untraced, {len(traced)} traced;"
          f" longest operation that completed:"
          f" {max(r['longest'] for r in everything):.3f} s;"
          f" raw wall_s median {statistics.median(r['raw_wall'] for r in rounds):.4f},"
          f" speed scale median {statistics.median(r['scale'] for r in rounds):.4f}",
          file=sys.stderr)

    med = statistics.median
    if trace:
        metrics = tracing.median_metrics([r["layers"] for r in traced])
        metrics["certificates.max_entry_bits"] = certificate_bits(
            first["out"]["docs"])
        mark = len(speed.samples)
        speed.sample()
        kinds = verify_kind_seconds(af, first["out"]["docs"])
        speed.sample()
        metrics.update({k: v * speed.factor(mark) for k, v in kinds.items()})
        metrics["trace.overhead_s"] = (med(r["wall"] for r in traced)
                                       - med(r["wall"] for r in rounds))
        tracer.dump(os.path.join(os.path.dirname(work),
                                 f"trace-{workload}-seed{seed}.jsonl"))
        report = {k: {"value": v, "unit": per_layer_unit(k)}
                  for k, v in metrics.items()}
    else:
        values = {
            "setup_s": med(setups),
            "construct_s": med(r["construct"] for r in rounds),
            "verify_s": med(r["verify"] for r in rounds),
            # each certificate's median over the rounds, then the median
            # over certificates
            "verify_p50_s": med(med(times) for times in
                                zip(*(r["verify_times"] for r in rounds))),
            "wall_s": med(r["wall"] for r in rounds),
            "cli_s": med(r["cli"] for r in rounds),
            "ops_per_s": med(r["library_ok"] / r["wall"] for r in rounds),
            "cert_bytes": first["cert_bytes"],
            "peak_rss_mb": peak_rss_mb,
        }
        report = {k: {"value": v, "unit": END_TO_END[k]}
                  for k, v in values.items()}
    return {"correct": not problems,
            "attempted": sum(r["attempted"] for r in everything),
            "failed": sum(r["failed"] for r in everything),
            "metrics": report}


def self_check(work: str) -> int:
    """Quick runs (tiny inputs, one round) of every workload, traced and
    untraced, printing every metric with its unit: every metric named in
    BENCHMARK.json must be emitted with its unit, and outputs must check."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    bad = 0
    for w in spec["workloads"]:
        for trace, wanted in ((False, spec["end_to_end"]),
                              (True, spec["per_layer"])):
            result = run(w["name"], 1, 0, trace, work, quick=True)
            want = {m["name"]: m["unit"] for m in wanted}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            ok = (got == want and result["correct"]
                  and result["attempted"] >= 1
                  and all(isinstance(v["value"], (int, float))
                          for v in result["metrics"].values()))
            bad += not ok
            print(f"{w['name']} trace={int(trace)}: {'ok' if ok else 'FAIL'}"
                  f" attempted={result['attempted']} failed={result['failed']}")
            for k, v in result["metrics"].items():
                print(f"  {k} = {v['value']:.6g} {v['unit']}")
            for k in sorted(set(want) ^ set(got)):
                print(f"  metric {k}: wanted {want.get(k)}, emitted {got.get(k)}")
            for k in sorted(set(want) & set(got)):
                if want[k] != got[k]:
                    print(f"  metric {k}: unit {got[k]}, wanted {want[k]}")
    return 1 if bad else 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true",
                        help="quick runs of every workload in both modes")
    args = parser.parse_args()
    if not args.self_check and args.workload is None:
        parser.error("--workload is required")
    if not os.path.isfile(os.path.join(SRC, "algforge", "__init__.py")):
        print(f"algforge sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    base = os.path.join(ROOT, ".bench_work")
    os.makedirs(base, exist_ok=True)
    work = os.path.join(base, f"run-{os.getpid()}")
    os.makedirs(work)
    try:
        if args.self_check:
            return self_check(work)
        result = run(args.workload, args.seed, args.seconds, bool(args.trace),
                     work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
