"""Statistics of the benchmark: turns the JVM's raw samples, Spark records
and spans into the metrics of BENCHMARK.json, and renders the report."""
import statistics

# name -> unit, in the report's order; README.md says what each one is.
END_TO_END = {
    "setup_s": "s",
    "query_s": "s",
    "objects_per_s": "1/s",
    "task_cpu_s": "s",
}
PER_LAYER = {
    "retained_cache_mb": "MB",
    "failed_frac": "fraction",
    "parser.parse_ms": "ms",
    "semantics.translate_ms": "ms",
    "json.parse_ns_per_obj": "ns",
    "json.stage_text_s": "s",
    "json.stage_parse_s": "s",
    "json.write_ns_per_obj": "ns",
    "spark.output_mb": "MB",
    "model.ser_ns_per_item": "ns",
    "model.deser_ns_per_item": "ns",
    "model.bytes_per_item": "bytes",
    "model.stage_serde_s": "s",
    "runtime.local_ns_per_obj": "ns",
    "flwor.context_ns_per_tuple": "ns",
    "flwor.key_encode_ns": "ns",
    "spark.jobs": "count",
    "spark.stages": "count",
    "spark.tasks": "count",
    "spark.task_run_s": "s",
    "spark.gc_s": "s",
    "spark.task_deser_s": "s",
    "spark.input_records": "count",
    "spark.shuffle_write_mb": "MB",
    "spark.shuffle_read_mb": "MB",
    "spark.shuffle_fetch_wait_s": "s",
    "spark.spill_mb": "MB",
    "spark.result_mb": "MB",
    "spark.peak_exec_mem_mb": "MB",
    "spark.failed_tasks": "count",
    "spark.task_skew": "ratio",
    "spark.cpu_util": "ratio",
    "spark.driver_gap_s": "s",
    "spark.cached_rdds_retained": "count",
    "ref.spark_rdd_s": "s",
    "ref.vs_spark_rdd": "ratio",
    "ref.spark_sql_s": "s",
    "ref.vs_spark_sql": "ratio",
    "ref.vs_fast_path": "ratio",
    "trace.overhead_frac": "fraction",
}

# Per-query Spark records copied into per-layer metrics of the same name.
SPARK_SUMS = ("jobs", "stages", "tasks", "task_run_s", "gc_s", "task_deser_s",
              "input_records", "shuffle_write_mb", "shuffle_read_mb",
              "shuffle_fetch_wait_s", "spill_mb", "result_mb", "peak_exec_mem_mb",
              "failed_tasks", "output_mb")

PERCENTILES = (90.0, 99.0, 99.9)


def median(xs):
    if not xs:
        raise ValueError("median of no samples")
    return statistics.median(xs)


def quartiles(xs):
    """First and third quartile, as statistics.quantiles(xs, n=4) gives them."""
    if len(xs) < 2:
        return (xs[0], xs[0]) if xs else (None, None)
    q = statistics.quantiles(xs, n=4)
    return q[0], q[2]


def tail_percentile(n):
    """The highest of PERCENTILES with at least ten of n samples beyond it,
    or None when there is none."""
    best = None
    for p in PERCENTILES:
        if n * (100.0 - p) / 100.0 >= 10.0 - 1e-9:
            best = p
    return best


def percentile(xs, p):
    """Nearest-rank percentile."""
    s = sorted(xs)
    k = max(0, min(len(s) - 1, int(-(-len(s) * p // 100)) - 1))
    return s[k]


def union_length(intervals, lo=None, hi=None):
    """Total length covered by (start, end) intervals, clipped to [lo, hi];
    overlapping intervals count once."""
    clipped = []
    for a, b in intervals:
        if lo is not None:
            a = max(a, lo)
        if hi is not None:
            b = min(b, hi)
        if b > a:
            clipped.append((a, b))
    total, end = 0.0, None
    start = None
    for a, b in sorted(clipped):
        if end is None or a > end:
            if end is not None:
                total += end - start
            start, end = a, b
        else:
            end = max(end, b)
    if end is not None:
        total += end - start
    return total


def self_time(span, children):
    """A span's duration minus the part of it its children cover."""
    a, b = span
    return (b - a) - union_length(children, a, b)


def skew(task_ms):
    """Slowest task / median task of one stage (1.0 for a one-task stage)."""
    m = median(task_ms)
    return max(task_ms) / m if m > 0 else 1.0


def metric(name, value, samples):
    unit = END_TO_END[name] if name in END_TO_END else PER_LAYER[name]
    return {"value": value, "unit": unit, "samples": samples}


def report(raw):
    """Metrics, provenance and answer checks of one run's raw record."""
    queries = raw["queries"]
    measured = [q for q in queries if q["phase"] == "measure" and q["ok"]]
    traced = [q for q in queries if q["phase"] == "traced" and q["ok"]]
    failed = [q for q in queries if not q["ok"]]
    prov = raw["provenance"]
    if not measured:
        raise RuntimeError("no query completed with a right answer")

    e2e = {}
    e2e["setup_s"] = metric("setup_s", median(raw["setup_s"]), len(raw["setup_s"]))
    e2e["setup_s"]["each"] = raw["setup_s"]
    walls = [q["wall_s"] for q in measured]
    query_s = median(walls)
    e2e["query_s"] = metric("query_s", query_s, len(walls))
    e2e["query_s"]["each"] = walls
    p = tail_percentile(len(walls))
    if p is not None:
        e2e["query_s"]["p%g" % p] = percentile(walls, p)
    e2e["objects_per_s"] = metric("objects_per_s", prov["input_objects"] / query_s, len(walls))
    e2e["task_cpu_s"] = metric("task_cpu_s", median([q["cpu_s"] for q in measured]), len(walls))

    layer = {}

    def put(name, values):
        layer[name] = metric(name, median(values), len(values))

    after = [q for q in queries if q["phase"] != "warmup"]
    put("retained_cache_mb", [q["retained_mb"] for q in after])
    put("spark.cached_rdds_retained", [q["cached_rdds"] for q in after])
    layer["failed_frac"] = metric("failed_frac", len(failed) / len(queries), len(queries))
    for name, samples in raw["layers"].items():
        if name in PER_LAYER:
            put(name, samples)
    if raw["layers"]:
        for name, base in (("ref.vs_spark_rdd", "ref.spark_rdd_s"),
                           ("ref.vs_spark_sql", "ref.spark_sql_s"),
                           ("ref.vs_fast_path", "ref.filter_s")):
            layer[name] = metric(name, query_s / median(raw["layers"][base]), len(walls))
    if traced:
        sp = [q["spark"] for q in traced]
        for k in SPARK_SUMS:
            put("spark." + k, [s[k] for s in sp])
        put("spark.task_skew", [max([skew(t) for t in s["stage_task_ms"]] or [1.0]) for s in sp])
        put("spark.cpu_util", [q["cpu_s"] / (q["wall_s"] * prov["cores"]) for q in traced])
        spans = raw["spans"]
        put("spark.driver_gap_s", [
            self_time((s["start_ms"], s["end_ms"]),
                      [(j["start_ms"], j["end_ms"]) for j in spans
                       if j["query"] == s["query"] and j["name"].startswith("job ")]) / 1e3
            for s in spans if s["name"] == "query"])
        layer["trace.overhead_frac"] = metric(
            "trace.overhead_frac", median([q["wall_s"] for q in traced]) / query_s - 1.0, len(traced))
    layer = {k: layer[k] for k in PER_LAYER if k in layer}

    return {
        "workload": raw["workload"],
        "provenance": prov,
        "attempted": len(queries),
        "failed": len(failed),
        "failures": [{"id": q["id"], "failure": q["failure"]} for q in failed],
        "checks": {"queries_checked": len(queries), "right_answers": len(queries) - len(failed)},
        "end_to_end": e2e,
        "per_layer": layer,
    }


def render(rep):
    """Human-readable report: provenance, answer checks, then every metric."""
    prov = rep["provenance"]
    lines = ["workload %s: %d objects (%d bytes), seed %s, %s cores, heap %s MB, Spark %s, JDK %s, git %s"
             % (rep["workload"], prov["input_objects"], prov["input_bytes"], prov["seed"],
                prov["cores"], prov["max_heap_mb"], prov["spark_version"], prov["jdk_version"],
                prov.get("git_sha") or "(not a git checkout)")]
    lines.append("answer checks: %d of %d queries right (expected guess = target matches: %d)"
                 % (rep["checks"]["right_answers"], rep["checks"]["queries_checked"],
                    prov["expected_matches"]))
    for f in rep["failures"]:
        lines.append("  WRONG %s: %s" % (f["id"], f["failure"]))
    for title, ms in (("end-to-end", rep["end_to_end"]), ("per-layer", rep["per_layer"])):
        if ms:
            lines.append(title + ":")
        for name, m in ms.items():
            extra = "".join("  %s %.6g" % (k, v) for k, v in m.items() if k.startswith("p"))
            lines.append("  %-28s %14.6g %-8s n=%d%s" % (name, m["value"], m["unit"], m["samples"], extra))
    return "\n".join(lines)
