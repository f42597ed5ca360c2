"""Closed-loop benchmark of the eye2vec library: one client, one process.

    python3 perfbench/run.py --workload short-reads --seed 1 --seconds 30 --trace 0

The run writes its seeded inputs (``gen.py``, in a child process), warms up
with one pass over the run's requests, then sends requests back to back for
``--seconds`` seconds, finishing the pass it is in and timing the program's
set-up once before each pass. Each time is normalised to the host's speed
with a probe that uses nothing from the program (see ``Probe``). Every
output is checked against ``digests.json``. The last line of standard output is one JSON object; with
``--trace 0`` it holds the end-to-end metrics, with ``--trace 1`` the
per-layer metrics of a traced run. A readable summary goes to standard
error. See README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import random
import resource
import shutil
import statistics
import subprocess
import sys
import time
from collections import Counter
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
TRACE_OUT = ROOT / ".perfbench_out"

# At least ten samples then lie beyond p90.
MIN_REQUESTS = 100
# The probe's size, and its time on the host the benchmark was tuned on in
# that host's fast state: normalised times are in that host's fast-state
# seconds.
PROBE_LOOP = 10_000
PROBE_POOL = 50_000
PROBE_READS = 2_000
REF_PROBE_S = 0.0014
DM_TOLERANCE = 1e-9


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()[:32]


# --- calling into the layers ---------------------------------------------------


def direct(name, fn, *args):
    return fn(*args)


class Tracer:
    """Spans (name, start, end, parent, request id) kept in memory.

    ``call`` is passed to the request functions in place of ``direct``.
    The first span of a request is the request itself; its layer spans
    name it as their parent.
    """

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.request_id = -1
        self.request_span = -1
        self.results: dict[str, object] = {}

    def request(self, fn, *args):
        self.request_id += 1
        self.request_span = len(self.spans)
        self.results = {}
        self.spans.append(("request", 0.0, 0.0, -1, self.request_id))
        start = time.perf_counter()
        out = fn(*args)
        self.spans[self.request_span] = ("request", start, time.perf_counter(), -1,
                                         self.request_id)
        return out

    def call(self, name, fn, *args):
        start = time.perf_counter()
        out = fn(*args)
        self.spans.append((name, start, time.perf_counter(), self.request_span, self.request_id))
        self.results[name] = out
        return out

    def busy(self) -> Counter:
        totals: Counter = Counter()
        for name, start, end, _, _ in self.spans:
            totals[name] += end - start
        return totals


# --- requests -----------------------------------------------------------------------


class Encode:
    """``eye2vec vectorize``: source text + fixation CSV -> eye-vector JSON bytes."""

    def __init__(self, e2v, manifest: dict, inputs: Path, table):
        self.e2v = e2v
        self.table = table
        self.inputs = inputs
        self.sources = {r["program"]: (inputs / r["program"]).read_text(encoding="utf-8")
                        for r in manifest["requests"]}

    def __call__(self, call, req: dict) -> bytes:
        e2v = self.e2v
        root = call("minilang.parse", e2v.parse, self.sources[req["program"]])
        recording = call("gaze.read_fixations", e2v.read_fixations,
                         self.inputs / req["csv"], req["mode"])
        if req["mode"] == "pixel":
            recording = call("gaze.convert_recording", e2v.convert_recording,
                             recording, e2v.FontGrid(*req["calibration"]))
        profile = call("linker.build_profile", e2v.build_profile, recording, root)
        vector = call("compressor.compress", e2v.compress, profile, self.table)
        return call("compressor.to_json", vector.to_json).encode("utf-8")

    def check(self, req: dict, output: bytes) -> str:
        return digest(output)


class Cohort:
    """``eye2vec cluster`` and ``predict``: eye-vector JSON files -> analyses."""

    def __init__(self, e2v, manifest: dict, inputs: Path, table):
        self.e2v = e2v
        self.inputs = inputs
        self.last_dm = None
        self.references: dict[str, np.ndarray] = {}

    def __call__(self, call, req: dict) -> bytes:
        e2v = self.e2v
        vectors = [call("compressor.read_eye_vector", e2v.read_eye_vector, self.inputs / f)
                   for f in req["files"]]
        self.last_dm = call("analysis.distance_matrix", e2v.distance_matrix, vectors)
        assignments = call("analysis.kmeans", e2v.kmeans, vectors, req["kmeans_k"],
                           req["kmeans_seed"])
        every = req["test_every"]
        pairs = list(zip(vectors, req["labels"]))
        train = e2v.LabeledSet([p for i, p in enumerate(pairs) if i % every])
        test = [v for i, (v, _) in enumerate(pairs) if not i % every]
        predictions = call("analysis.predict", e2v.nearest_centroid_predict, train, test)
        accuracy = call("analysis.leave_one_out", e2v.leave_one_out, train)
        return json.dumps({"assignments": assignments, "predictions": predictions,
                           "loo_accuracy": accuracy}).encode("utf-8")

    def check(self, req: dict, output: bytes) -> str:
        """Digest of the outputs, or "" if the distance matrix is wrong.

        The matrix is checked against a NumPy reference within a tolerance
        rather than by digest, so summation order may change.
        """
        dm = self.last_dm
        reference = self.references.get(req["id"])
        if reference is None:
            values = np.stack([json.loads((self.inputs / f).read_text())["values"]
                               for f in req["files"]])
            unit = values / np.linalg.norm(values, axis=1)[:, None]
            reference = 1.0 - unit @ unit.T
            np.fill_diagonal(reference, 0.0)
            self.references[req["id"]] = reference
        ok = (dm.values.shape == reference.shape
              and np.array_equal(dm.values, dm.values.T)
              and not np.any(np.diag(dm.values))
              and float(np.max(np.abs(dm.values - reference))) <= DM_TOLERANCE)
        return digest(output) if ok else ""


# --- run ------------------------------------------------------------------------------


class Run:
    def __init__(self, handler, requests: list[dict], expected: dict[str, str]):
        self.handler = handler
        self.requests = requests
        self.expected = expected
        self.attempted = 0
        self.failed = 0
        self.failures: Counter = Counter()

    def one(self, call, req: dict, wrap=None) -> float:
        """Send one request, check its output; returns its latency in seconds."""
        self.attempted += 1
        start = time.perf_counter()
        try:
            output = wrap(self.handler, call, req) if wrap else self.handler(call, req)
        except Exception as exc:  # a failed request is counted, not fatal
            elapsed = time.perf_counter() - start
            self.failed += 1
            self.failures[f"{type(exc).__name__}: {exc}"] += 1
            return elapsed
        elapsed = time.perf_counter() - start
        got = self.handler.check(req, output)
        if got != self.expected.get(req["id"]):
            self.failed += 1
            self.failures[f"output mismatch on {req['id']}"] += 1
        return elapsed


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: at least (1 - q) of samples lie at or above it."""
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def generate(workload: str, seed: int, out: Path) -> tuple[dict, float]:
    start = time.perf_counter()
    subprocess.run([sys.executable, str(HERE / "gen.py"), "--workload", workload,
                    "--seed", str(seed), "--src", str(SRC), "--out", str(out)], check=True)
    elapsed = time.perf_counter() - start
    return json.loads((out / "manifest.json").read_text(encoding="utf-8")), elapsed


def import_program():
    sys.path.insert(0, str(SRC))
    import eye2vec

    if Path(eye2vec.__file__).resolve().parent != (SRC / "eye2vec").resolve():
        raise ImportError(f"eye2vec imported from {eye2vec.__file__}, not from {SRC}")
    return eye2vec


def make_table(e2v, manifest: dict, inputs: Path):
    """The workload's embedding table: loaded, seeded fallback, or none."""
    if manifest["table"]:
        return e2v.load_table(inputs / manifest["table"])
    if manifest["fallback_seed"] is not None:
        return e2v.EmbeddingTable(dim=manifest["dim"], fallback_seed=manifest["fallback_seed"])
    return None


def _program_modules() -> dict:
    return {name: module for name, module in sys.modules.items()
            if name == "eye2vec" or name.startswith("eye2vec.")}


def setup_once(manifest: dict, inputs: Path) -> float:
    """Time the program's own set-up: import eye2vec afresh, then build or
    load the workload's table.

    numpy and the standard library stay loaded; they are not the program's.
    The modules in use are put back afterwards, so the run goes on with the
    objects it already holds, and the fresh copies are collected, so memory
    does not grow with the number of passes.
    """
    in_use = _program_modules()
    for name in in_use:
        del sys.modules[name]
    try:
        start = time.perf_counter()
        make_table(importlib.import_module("eye2vec"), manifest, inputs)
        return time.perf_counter() - start
    finally:
        for name in _program_modules():
            del sys.modules[name]
        sys.modules.update(in_use)
        gc.collect()


HANDLERS = {"short-reads": Encode, "large-program": Encode, "cohort-analysis": Cohort}


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


class Probe:
    """Times a fixed piece of pure-Python work that uses nothing from the
    program: an arithmetic loop that stays in the core's own caches, then
    reads at random over a pool of small dicts (about 10 MB) that does not
    fit in them.

    Its time follows the speed the shared host gives this process at that
    moment, and no change to eye2vec can move it. Neighbours on the host
    slow cache-bound work more than arithmetic, so the probe holds both in
    about equal parts.
    """

    def __init__(self):
        rng = random.Random(0)
        self.pool = [{"v": float(i)} for i in range(PROBE_POOL)]
        self.order = rng.sample(range(PROBE_POOL), PROBE_READS)

    def __call__(self) -> float:
        start = time.perf_counter()
        x = 0
        for i in range(PROBE_LOOP):
            x += i * i
        total = 0.0
        pool = self.pool
        for i in self.order:
            total += pool[i]["v"]
        return time.perf_counter() - start


def end_to_end(run: Run, seconds: float, manifest: dict, inputs: Path) -> tuple[dict, dict]:
    """Untraced passes, each after one set-up sample, until ``seconds`` have
    elapsed and at least MIN_REQUESTS were sent.

    The probe is timed before the first set-up sample and after every
    set-up sample and request, outside their time, so that each sits
    between two probes. Each time is normalised to the host's speed around
    it: multiplied by REF_PROBE_S over the mean of its two probes. The
    shared host this was tuned on switches between a fast state and one up
    to two times slower, within a second and over minutes; raw times move
    with the share of slow time in a run, normalised ones much less. The
    raw figures go to standard error.
    """
    latencies: list[float] = []
    norm: list[float] = []
    setup: list[float] = []
    norm_setup: list[float] = []
    probe = Probe()
    probes = [probe()]

    def normalised(elapsed: float) -> float:
        probes.append(probe())
        return elapsed * 2 * REF_PROBE_S / (probes[-2] + probes[-1])

    start = time.perf_counter()
    while time.perf_counter() - start < seconds or len(latencies) < MIN_REQUESTS:
        setup.append(setup_once(manifest, inputs))
        norm_setup.append(normalised(setup[-1]))
        for req in run.requests:
            latencies.append(run.one(direct, req))
            norm.append(normalised(latencies[-1]))

    info = {"requests": len(latencies), "passes": len(setup),
            "raw_requests_per_s": len(latencies) / sum(latencies),
            "raw_p50_ms": 1000 * statistics.median(latencies),
            "raw_p90_ms": 1000 * percentile(latencies, 0.9),
            "raw_setup_s": statistics.median(setup),
            "probe_ms_p10_p50_p90": [round(1000 * percentile(probes, q), 3)
                                              for q in (0.1, 0.5, 0.9)]}
    metrics = {
        "setup_s": metric(statistics.median(norm_setup), "s"),
        "norm_requests_per_s": metric(len(norm) / sum(norm), "1/s"),
        "norm_p50_ms": metric(1000 * statistics.median(norm), "ms"),
        "norm_p90_ms": metric(1000 * percentile(norm, 0.9), "ms"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    return metrics, info


def traced(run: Run, seconds: float, e2v, manifest: dict, inputs: Path, table,
           workload: str, seed: int) -> tuple[dict, dict]:
    """Traced and untraced passes in alternation, until ``seconds`` elapse.

    Layer times come from the traced passes. Each traced pass is compared
    with the untraced pass next to it in time, so that the host's changes
    of speed fall on both sides of ``trace.overhead_ratio``.
    """
    tracer = Tracer()
    firsts: dict[str, dict] = {}

    def wrap(handler, call, req):
        out = tracer.request(handler, call, req)
        if req["id"] not in firsts:
            firsts[req["id"]] = dict(tracer.results)
        return out

    load_s = 0.0
    if manifest["table"]:
        start = time.perf_counter()
        e2v.load_table(inputs / manifest["table"])
        load_s = time.perf_counter() - start

    pass_times: dict[bool, list[float]] = {True: [], False: []}
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        traced_first = len(pass_times[True]) % 2 == 0
        for is_traced in (traced_first, not traced_first):
            pass_start = time.perf_counter()
            for req in run.requests:
                if is_traced:
                    run.one(tracer.call, req, wrap)
                else:
                    run.one(direct, req)
            pass_times[is_traced].append(time.perf_counter() - pass_start)
    n_passes = len(pass_times[True])
    overhead = statistics.median(t / u for t, u in zip(pass_times[True], pass_times[False]))

    busy = tracer.busy()
    request_s = busy["request"]
    uses = Counter(req["id"] for req in run.requests)
    for k in uses:
        uses[k] *= n_passes
    counts = Counter()
    keys_seen: set[str] = set()
    accuracies = []
    for req in run.requests:
        results, n = firsts.get(req["id"], {}), uses[req["id"]]
        if "linker.build_profile" in results:
            root = results["minilang.parse"]
            recording = results.get("gaze.convert_recording", results["gaze.read_fixations"])
            profile = results["linker.build_profile"]
            mapped = Counter(e2v.map_fixation(f, root).mapping for f in recording.fixations)
            keys = [k for c in profile.entries
                    for k in ("tok:" + c.source_text, "path:" + c.path_encoding,
                              "tok:" + c.target_text)]
            keys_seen.update(keys)
            counts.update({
                "minilang.tokens": n * len(e2v.tokenize(run.handler.sources[req["program"]])),
                "minilang.leaves": n * len(e2v.leaves(root)),
                "gaze.rows": n * len(recording.fixations),
                "linker.fixations": n * len(recording.fixations),
                "linker.hit": n * mapped["hit"],
                "linker.snapped": n * mapped["snapped"],
                "linker.dropped": n * mapped["dropped"],
                "linker.transitions": n * profile.total_transitions,
                "linker.contexts": n * len(profile.entries),
                "embeddings.lookups": n * len(keys),
                "embeddings.table_hits": n * sum(k in table.entries for k in keys),
                "compressor.contexts_summed": n * len(profile.entries),
            })
        elif "analysis.leave_one_out" in results:
            size = len(req["files"])
            counts.update({"analysis.vectors": n * size,
                           "analysis.pairs": n * size * (size - 1) // 2})
            accuracies += [results["analysis.leave_one_out"]] * n

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    layers = {
        "minilang": ["minilang.parse"],
        "gaze": ["gaze.read_fixations", "gaze.convert_recording"],
        "linker": ["linker.build_profile"],
        "compressor": ["compressor.compress", "compressor.to_json", "compressor.read_eye_vector"],
        "analysis": ["analysis.distance_matrix", "analysis.kmeans", "analysis.predict",
                     "analysis.leave_one_out"],
    }
    values = {
        "minilang.parse_s": (busy["minilang.parse"], "s"),
        "minilang.tokens": (counts["minilang.tokens"], "count"),
        "minilang.leaves": (counts["minilang.leaves"], "count"),
        "minilang.tokens_per_s": (ratio(counts["minilang.tokens"], busy["minilang.parse"]), "1/s"),
        "gaze.read_s": (busy["gaze.read_fixations"], "s"),
        "gaze.convert_s": (busy["gaze.convert_recording"], "s"),
        "gaze.rows": (counts["gaze.rows"], "count"),
        "gaze.rows_per_s": (ratio(counts["gaze.rows"], busy["gaze.read_fixations"]), "1/s"),
        "linker.build_profile_s": (busy["linker.build_profile"], "s"),
        "linker.us_per_fixation": (1e6 * ratio(busy["linker.build_profile"],
                                               counts["linker.fixations"]), "us"),
        "linker.fixations": (counts["linker.fixations"], "count"),
        "linker.hit": (counts["linker.hit"], "count"),
        "linker.snapped": (counts["linker.snapped"], "count"),
        "linker.dropped": (counts["linker.dropped"], "count"),
        "linker.transitions": (counts["linker.transitions"], "count"),
        "linker.contexts": (counts["linker.contexts"], "count"),
        "embeddings.load_table_s": (load_s, "s"),
        "embeddings.table_keys": (len(table.entries) if table is not None else 0, "count"),
        "embeddings.lookups": (counts["embeddings.lookups"], "count"),
        "embeddings.table_hits": (counts["embeddings.table_hits"], "count"),
        "embeddings.distinct_keys": (len(keys_seen), "count"),
        "embeddings.repeat_share": (1 - ratio(len(keys_seen), counts["embeddings.lookups"])
                                    if counts["embeddings.lookups"] else 0.0, "ratio"),
        "compressor.compress_s": (busy["compressor.compress"], "s"),
        "compressor.to_json_s": (busy["compressor.to_json"], "s"),
        "compressor.contexts_summed": (counts["compressor.contexts_summed"], "count"),
        "compressor.read_eye_vector_s": (busy["compressor.read_eye_vector"], "s"),
        "analysis.distance_matrix_s": (busy["analysis.distance_matrix"], "s"),
        "analysis.kmeans_s": (busy["analysis.kmeans"], "s"),
        "analysis.predict_s": (busy["analysis.predict"], "s"),
        "analysis.leave_one_out_s": (busy["analysis.leave_one_out"], "s"),
        "analysis.vectors": (counts["analysis.vectors"], "count"),
        "analysis.pairs": (counts["analysis.pairs"], "count"),
        "analysis.loo_accuracy": (statistics.fmean(accuracies) if accuracies else 0.0, "ratio"),
        "trace.request_s": (request_s, "s"),
        "trace.requests": (tracer.request_id + 1, "count"),
        "trace.overhead_ratio": (overhead, "ratio"),
    }
    for layer, names in layers.items():
        values[f"{layer}.share"] = (ratio(sum(busy[n] for n in names), request_s), "ratio")
    metrics = {name: metric(v, unit) for name, (v, unit) in values.items()}

    TRACE_OUT.mkdir(exist_ok=True)
    out = TRACE_OUT / f"trace-{workload}-seed{seed}.json"
    out.write_text(json.dumps({
        "workload": workload, "seed": seed,
        "span_fields": ["name", "start", "end", "parent", "request_id"],
        "spans": tracer.spans, "counts": dict(counts),
    }), encoding="utf-8")
    return metrics, {"trace_file": str(out.relative_to(ROOT)), "passes": n_passes,
                     "traced_s": sum(pass_times[True]), "untraced_s": sum(pass_times[False])}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(HANDLERS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "eye2vec" / "__init__.py").is_file():
        print(f"error: no eye2vec package under {SRC}", file=sys.stderr)
        return 2
    digests = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    inputs = WORK / f"{args.workload}-{os.getpid()}"
    try:
        manifest, generate_s = generate(args.workload, args.seed, inputs)
        e2v = import_program()
        table = make_table(e2v, manifest, inputs)
        handler = HANDLERS[args.workload](e2v, manifest, inputs, table)
        run = Run(handler, manifest["requests"], digests[args.workload])
        for req in run.requests:  # warm-up pass, checked like the rest
            run.one(direct, req)
        if args.trace:
            metrics, info = traced(run, args.seconds, e2v, manifest, inputs, table,
                                   args.workload, args.seed)
        else:
            metrics, info = end_to_end(run, args.seconds, manifest, inputs)
    finally:
        shutil.rmtree(inputs, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:  # another run's inputs are still there
            pass

    info.update({"workload": args.workload, "seed": args.seed, "generate_s": generate_s,
                 "distinct_requests": len(run.requests),
                 "failed_ratio": run.failed / run.attempted})
    for name, value in info.items():
        print(f"# {name}: {value}", file=sys.stderr)
    for name, m in metrics.items():
        print(f"{name:32s} {m['value']:>16.6g} {m['unit']}", file=sys.stderr)
    for failure, count in run.failures.most_common(5):
        print(f"# failure x{count}: {failure}", file=sys.stderr)
    print(json.dumps({"correct": run.failed == 0, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
