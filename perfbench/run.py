#!/usr/bin/env python3
"""Benchmark of the simulator: paper-table sweep throughput, accuracy and
per-layer host time. See README.md in this directory.

Run from the repository root:

  python3 perfbench/run.py --workload t3-gen --seed 1 --seconds 12 --trace 0
  python3 perfbench/run.py --regen-refs [--workload NAME]

Each run builds the simulator in Release from the checkout's sources
into .bench_build/ (scratch files go there too and are removed at
exit), runs the workload's paper-table driver from outside as
closed-loop iterations until their sweeps have taken --seconds, checks
every table cell against perfbench/refs/, and prints one JSON object as
the last line of stdout:

  {"correct": ..., "attempted": cells, "failed": cells, "metrics": {...}}

--trace 0 prints the end-to-end metrics of BENCHMARK.json, measured
untraced. --trace 1 prints the per-layer metrics: it runs one untraced
iteration, the same serially as the overhead baseline, and then the
layer tracer (layer_trace.cc) over the same cells; a cell whose traced
outputs differ from the untraced run, or whose spans do not nest (a
child outside its parent, or children and calibrated calls that take
longer than their span), counts as failed.

--seed picks the simulator seeds from the reference seeds 1..10:
iteration i uses seed (seed + i - 1) mod 10 + 1, so every cell is
checked against a reference. t4-replay-procs takes two consecutive
seeds per iteration and captures their traces at its start.
--regen-refs rewrites perfbench/refs/ from the current simulator; run
it only for a change meant to alter simulated results.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD_ROOT = os.path.join(ROOT, ".bench_build")
BUILD = os.path.join(BUILD_ROOT, "cmake")
REFS = os.path.join(HERE, "refs")

REF_SEEDS = 10
KERNELS = ["compress", "gcc", "go", "li", "perl",
           "hydro2d", "mgrid", "su2cor", "swim", "wave5"]
T3_SPECS = ["ideal:1"] + [f"{k}:{w}" for w in (2, 4, 8, 16)
                          for k in ("ideal", "repl", "bank")]
T4_SPECS = ["lbic:" + c for c in ("2x2", "2x4", "4x2", "4x4", "8x2", "8x4")]
# Every deterministic per-run field of the drivers' --json output.
REF_FIELDS = ("instructions", "cycles", "ipc", "l1_miss_rate",
              "attribution", "port")
# Traced vs untraced outputs compared cell by cell (sampled cells: the
# interval runs' summed instructions and cycles).
FULL_OUTPUTS = ("instructions", "cycles", "ipc", "l1_miss_rate",
                "requests_seen", "requests_granted")
SAMPLED_OUTPUTS = ("ipc", "ci_low", "ci_high", "ci_valid",
                   "instructions", "cycles")
# Records a replay trace needs beyond insts (the driver asks for
# insts + RUU + fetch width + 8; keep a margin).
TRACE_MARGIN = 4096
# Start-up probes of the driver binary after every iteration (set-up of
# the workloads that capture no traces). The first starts after a sweep
# run slower while caches refill, so they are left out.
SETUP_WARMUP = 5
SETUP_PROBES = 15
PROC_TIMEOUT_S = 150

WORKLOADS = {
    "t3-gen": dict(driver="table3_ipc", grid="t3", insts=100_000,
                   args=["jobs=1"], parallel=1),
    "t4-replay-procs": dict(driver="table4_lbic", grid="t4",
                            insts=1_000_000, args=["workers=3"],
                            parallel=3, seeds=2, replay=True),
    "t3-sampled": dict(driver="table3_ipc", grid="t3",
                       insts=10_000_000, parallel=3, sampled=True,
                       args=["jobs=3", "sampled=1",
                             "sample_mode=systematic", "intervals=5"]),
}
# The traced pass runs its cells one at a time in one process; its
# overhead is measured against the driver doing the same serially,
# without a result store.
SERIAL_ARGS = {"jobs=3": "jobs=1", "workers=3": "jobs=1"}


class BenchError(Exception):
    pass


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def specs_of(w):
    return T3_SPECS if w["grid"] == "t3" else T4_SPECS


def labels_of(w):
    return [f"{k}/{s}" for k in KERNELS for s in specs_of(w)]


def sim_seeds(w, seed, iteration=0):
    """Simulator seeds of one iteration: consecutive reference seeds,
    moving on with each iteration so a run covers several inputs."""
    n = w.get("seeds", 1)
    first = seed - 1 + iteration * n
    return [(first + j) % REF_SEEDS + 1 for j in range(n)]


# --- building and running the program -------------------------------------

def build():
    """Configure (once) and build the Release targets; return their paths."""
    for need in ("CMakeLists.txt", "src", "bench"):
        if not os.path.exists(os.path.join(ROOT, need)):
            raise BenchError(f"simulator sources not found: {need} is "
                             f"missing from {ROOT}")
    os.makedirs(BUILD, exist_ok=True)
    build_log = os.path.join(BUILD_ROOT, "build.log")
    steps = []
    if not os.path.exists(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD,
                      "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j4"])
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT,
                              cwd=ROOT).returncode != 0:
                with open(build_log) as f:
                    log(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(cmd))
    return {
        "table3_ipc": os.path.join(BUILD, "lbic", "bench", "table3_ipc"),
        "table4_lbic": os.path.join(BUILD, "lbic", "bench", "table4_lbic"),
        "lbicsim": os.path.join(BUILD, "lbic", "src", "sim", "lbicsim"),
        "layer_trace": os.path.join(BUILD, "layer_trace"),
        "run_measured": os.path.join(BUILD, "run_measured"),
    }


class Scratch:
    """A fresh directory under .bench_build, removed on exit."""

    def __enter__(self):
        self.path = os.path.join(BUILD_ROOT, f"scratch-{os.getpid()}")
        shutil.rmtree(self.path, ignore_errors=True)
        os.makedirs(self.path)
        self.n = 0
        return self

    def new(self, name):
        self.n += 1
        return os.path.join(self.path, f"{self.n}-{name}")

    def __exit__(self, *exc):
        shutil.rmtree(self.path, ignore_errors=True)


def run_proc(exe, argv, out_path, cwd):
    """Run argv to completion; return (exit code, wall s, peak RSS KB).

    run_measured starts the process and reports wait4's peak RSS, which
    covers the process and every child it reaped (the driver's worker
    processes). It runs in its own session so a hung run can be killed
    with its workers.
    """
    report = out_path + ".rusage"
    with open(out_path, "wb") as out, open(out_path + ".err", "wb") as err:
        p = subprocess.Popen([exe["run_measured"], report, *argv],
                             stdin=subprocess.DEVNULL, stdout=out,
                             stderr=err, cwd=cwd, start_new_session=True)
        timer = threading.Timer(PROC_TIMEOUT_S, os.killpg,
                                (p.pid, signal.SIGKILL))
        timer.start()
        try:
            p.wait()
        finally:
            timer.cancel()
    try:
        with open(report) as f:
            code, wall_ns, rss_kb = map(int, f.read().split())
    except (OSError, ValueError):
        raise BenchError(f"{os.path.basename(argv[0])} was killed")
    return code, wall_ns / 1e9, rss_kb


def load_json(path, what):
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        with open(path + ".err", errors="replace") as f:
            log(f.read()[-2000:])
        raise BenchError(f"{what}: no JSON output ({e})")


def make_traces(exe, w, seeds, scratch):
    """Set-up of t4-replay-procs: capture every (kernel, seed) trace the
    sweep replays, under the names the drivers' trace= knob looks for.
    Returns the directory, the summed capture wall (s) and peak RSS."""
    tdir = scratch.new("traces")
    os.makedirs(tdir)
    wall, rss = 0.0, 0
    for seed in seeds:
        for k in KERNELS:
            argv = [exe["lbicsim"], "mode=capture", f"workload={k}",
                    f"seed={seed}", f"insts={w['insts'] + TRACE_MARGIN}",
                    f"trace={os.path.join(tdir, f'{k}_s{seed}.trace')}"]
            rc, t, r = run_proc(exe, argv,
                                os.path.join(tdir, f"{k}_s{seed}.log"),
                                scratch.path)
            if rc != 0:
                raise BenchError(f"trace capture of {k} seed {seed} "
                                 f"exited {rc}")
            wall += t
            rss = max(rss, r)
    return tdir, wall, rss


def driver_argv(exe, w, seed, extra=()):
    return [exe[w["driver"]], f"insts={w['insts']}", f"seed={seed}",
            "ledger=none", *w["args"], *extra, "--json"]


def sweep(exe, w, seed, scratch, trace_dir=None, serial=False,
          flight=False):
    """One driver invocation over one table at one seed. With @flight,
    the driver also writes its flight record, from which the process
    path's retries are counted."""
    extra = [f"trace={trace_dir}"] if trace_dir else []
    store = None
    if trace_dir and not serial:
        store = scratch.new("store")
        extra.append(f"store={store}")
    record = scratch.new("flight.jsonl") if flight else None
    if record:
        extra.append(f"trace_sweep={record}")
    out = scratch.new("sweep.json")
    argv = driver_argv(exe, w, seed, extra)
    if serial:
        argv = [SERIAL_ARGS.get(a, a) for a in argv]
    _, wall, rss = run_proc(exe, argv, out, scratch.path)
    d = load_json(out, f"{w['driver']} seed {seed}")
    if store:
        # Slow where freeing fsync'd blocks is (~50 ms a record on a
        # disk mounted with online discard), so done between sweeps.
        shutil.rmtree(store, ignore_errors=True)
    retries = (redispatches(record) if record
               else d["resources"]["retries"])
    return dict(json=d, wall_s=wall, rss_kb=rss, seed=seed,
                retries=retries)


def redispatches(path):
    """Jobs the coordinator dispatched again, from its flight record:
    attempts that ended in a worker's death or a transient failure, less
    the jobs failed as poison instead. The --json resources block of
    the process path reports no retries."""
    n = 0
    with open(path) as f:
        for line in f:
            e = json.loads(line)
            if e.get("cat") != "job":
                continue
            if e["name"] == "running" and e.get("a_status") in ("died",
                                                                  "retry"):
                n += 1
            elif e["name"] == "poison":
                n -= 1
    return n


# --- references and correctness --------------------------------------------

def digest(run, fields=REF_FIELDS):
    canon = json.dumps({k: run.get(k) for k in fields},
                       sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canon.encode()).hexdigest()[:16]


def sampled_digest(run):
    """Digest of a sampled cell's deterministic outputs: the estimate and
    the whole sampling block (CI, plan shape, and every interval run's
    instructions and cycles)."""
    return digest(run, ("ipc", "sampling"))


def load_refs(name):
    path = os.path.join(REFS, name + ".json")
    if not os.path.exists(path):
        return {}
    with open(path) as f:
        return json.load(f)["seeds"]


def check_sweep(w, name, sw, refs):
    """Failed cells of one sweep: failed runs, and cells whose outputs
    differ from the reference (the sampled outputs, in sampled mode) or
    that report no valid CI (sampled). Raises when the seed has no
    reference (unchecked)."""
    runs = sw["json"].get("runs", [])
    labels = labels_of(w)
    ref = refs.get(str(sw["seed"]))
    if ref is None or (w.get("sampled") and any(
            "sampled" not in v for v in ref.values())):
        raise BenchError(f"{name}: seed {sw['seed']} has no reference; "
                         "its outputs are unchecked")
    if [r.get("label") for r in runs] != labels:
        log(f"{name}: seed {sw['seed']}: runs do not match the grid")
        return len(labels)
    failed = 0
    for r in runs:
        if r.get("status") != "ok":
            bad = True
        elif w.get("sampled"):
            bad = (r["sampling"].get("ci_valid") != 1
                   or sampled_digest(r) != ref[r["label"]]["sampled"])
        else:
            bad = digest(r) != ref[r["label"]]["digest"]
        if bad:
            log(f"{name}: seed {sw['seed']}: cell {r['label']} failed "
                "or differs from its reference")
        failed += bad
    if sw["json"].get("store", {}).get("hits", 0):
        log(f"{name}: fresh result store answered from cache")
        failed += len(runs)
    return failed


# --- paper fidelity --------------------------------------------------------

def paper_err_pct(w, sweeps):
    """Mean |relative error| (%) of simulated IPC against the paper
    values the repository holds for this table, over @sweeps."""
    with open(os.path.join(HERE, "paper.json")) as f:
        paper = json.load(f)
    groups = paper["groups"]
    table = paper[{"t3": "table3", "t4": "table4"}[w["grid"]]]
    errs = []
    for sw in sweeps:
        ipc = {r["label"]: r["ipc"] for r in sw["json"]["runs"]}

        def model(key):
            group, spec = key.split("/")
            if group in groups:
                return statistics.fmean(ipc[f"{k}/{spec}"]
                                        for k in groups[group])
            return ipc[key]

        for part in ("cells", "averages"):
            for key, v in table.get(part, {}).get("values", {}).items():
                errs.append(abs(model(key) - v) / v)
    return 100.0 * statistics.fmean(errs)


# --- untraced measurement (--trace 0) --------------------------------------

def iteration(exe, w, seeds, scratch, trace_dir, serial=False,
              flight=False):
    return [sweep(exe, w, s, scratch, trace_dir, serial, flight)
            for s in seeds]


def probe_start(exe, w, scratch):
    """Wall (s) of starting the driver binary: its worker subcommand
    with no input exits right after process start."""
    out = scratch.new("probe")
    rc, wall, _ = run_proc(exe, [exe[w["driver"]], "worker"], out,
                           scratch.path)
    if rc != 0:
        raise BenchError(f"{w['driver']} worker exited {rc}")
    return wall


def measure(exe, name, seed, seconds, scratch):
    """Closed-loop iterations until their sweeps have taken --seconds;
    return (cells attempted, cells failed, end-to-end metrics)."""
    w = WORKLOADS[name]
    refs = load_refs(name)
    setup, peaks = [], []
    iters, measured = [], 0.0
    trace_dir = None
    while measured < seconds or not iters:
        seeds = sim_seeds(w, seed, len(iters))
        rss = 0
        if w.get("replay"):
            # Set-up of every iteration: capture its seeds' traces.
            # Removing the previous set while its pages are still dirty
            # costs nothing; once written back it would.
            if trace_dir:
                shutil.rmtree(trace_dir)
            trace_dir, wall, rss = make_traces(exe, w, seeds, scratch)
            setup.append(wall)
        it = iteration(exe, w, seeds, scratch, trace_dir)
        iters.append(it)
        measured += sum(sw["wall_s"] for sw in it)
        peaks.append(max([rss] + [sw["rss_kb"] for sw in it]))
        if not w.get("replay"):
            probes = [probe_start(exe, w, scratch)
                      for _ in range(SETUP_WARMUP + SETUP_PROBES)]
            setup += probes[SETUP_WARMUP:]

    sweeps = [sw for it in iters for sw in it]
    cells = len(sweeps) * len(labels_of(w))
    failed = sum(check_sweep(w, name, sw, refs) for sw in sweeps)
    rates = [len(it) * len(labels_of(w)) * w["insts"] * 1e-3
             / sum(sw["json"]["total_wall_ms"] for sw in it)
             for it in iters]
    cell_ms = [r["wall_ms"] for sw in sweeps for r in sw["json"]["runs"]]
    log(f"{name}: {len(iters)} iterations, {cells} cells, seeds "
        f"{sorted({sw['seed'] for sw in sweeps})}")
    metrics = {
        "table_minst_per_s": (statistics.median(rates), "Minst/s"),
        "cell_ms_p50": (statistics.median(cell_ms), "ms"),
        "cell_ms_p90": (statistics.quantiles(cell_ms, n=10)[8], "ms"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (statistics.median(peaks) / 1024.0, "MB"),
        "paper_ipc_err_pct": (paper_err_pct(w, sweeps), "%"),
    }
    return cells, failed, metrics


# --- traced measurement (--trace 1) ----------------------------------------

LAYER_OF = {"sim.run": "cpu"}


def layer_of(span_name):
    return LAYER_OF.get(span_name, span_name.split(".")[0])


def inner_ns(trace):
    """Per span: the time (ns) of its child spans and of the per-cycle
    aggregates charged to it."""
    spans = trace["spans"]
    inner = [0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            inner[parent] += end - start
    for _, span, ns, _ in trace["aggs"]:
        inner[span] += ns
    return inner


def nesting_violations(trace):
    """Cells (-1: spans outside any cell) whose spans do not nest: a
    child outside its parent's [start, end] or in another cell, or a
    span whose children and charged aggregates take longer than the span
    itself. The aggregates of generation and memory time are calibrated
    outside the cell, so the last rule is what keeps every layer's self
    time, and the cpu remainder above all, from going negative."""
    spans = trace["spans"]
    bad = set()
    for name, start, end, parent, cell in spans:
        if parent >= 0:
            _, p_start, p_end, _, p_cell = spans[parent]
            if start < p_start or end > p_end or cell != p_cell:
                bad.add(cell)
    for (_, start, end, _, cell), inner in zip(spans, inner_ns(trace)):
        if end < start or inner > end - start:
            bad.add(cell)
    return bad


def self_times(trace):
    """Per cell: traced wall (ns) of its root span and the self time (ns)
    of each layer inside it. A span's self time is its duration minus
    its child spans and the per-cycle aggregates charged to it, and the
    aggregates count under their own layers, so a cell's self times sum
    to its wall by construction."""
    spans, aggs = trace["spans"], trace["aggs"]
    inner = inner_ns(trace)
    cells = {}
    for i, (name, start, end, parent, cell) in enumerate(spans):
        if cell < 0:
            continue
        c = cells.setdefault(cell, {"wall": 0, "self": {}})
        if parent < 0:
            c["wall"] += end - start
        lay = layer_of(name)
        c["self"][lay] = c["self"].get(lay, 0) + (end - start) - inner[i]
    for name, span, ns, _ in aggs:
        c = cells[spans[span][4]]
        lay = layer_of(name)
        c["self"][lay] = c["self"].get(lay, 0) + ns
    return cells


def span_ms(trace, name):
    return [(e - s) / 1e6 for n, s, e, _, _ in trace["spans"] if n == name]


def ratio(a, b):
    return a / b if b else 0.0


def pct(values, q):
    if not values:
        return 0.0
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_traced(exe, name, seed, scratch):
    """One untraced iteration, then the layer tracer over the same cells.
    Returns (attempted, failed, metrics, raw) where raw holds the two
    runs' outputs for the self-test."""
    w = WORKLOADS[name]
    seeds = sim_seeds(w, seed)
    trace_dir = None
    if w.get("replay"):
        trace_dir, _, _ = make_traces(exe, w, seeds, scratch)
    untraced = iteration(exe, w, seeds, scratch, trace_dir,
                         flight=bool(w.get("replay")))
    serial = untraced
    if w["parallel"] > 1:
        serial = iteration(exe, w, seeds, scratch, trace_dir, serial=True)
    refs = load_refs(name)
    checked = untraced + (serial if serial is not untraced else [])
    failed = sum(check_sweep(w, name, sw, refs) for sw in checked)
    cells = len(untraced) * len(labels_of(w))

    out = scratch.new("layers.json")
    argv = [exe["layer_trace"], f"grid={w['grid']}",
            f"mode={'sampled' if w.get('sampled') else 'full'}",
            f"insts={w['insts']}", "seeds=" + ",".join(map(str, seeds)),
            f"out={out}"]
    if w.get("replay"):
        traced_traces = scratch.new("traced-traces")
        os.makedirs(traced_traces)
        argv += [f"trace_dir={traced_traces}",
                 f"store={scratch.new('traced-store')}"]
    if w.get("sampled"):
        argv += [a for a in w["args"] if a.startswith("intervals=")]
    rc, _, _ = run_proc(exe, argv, out + ".log", scratch.path)
    if rc != 0:
        raise BenchError(f"layer_trace exited {rc}")
    trace = load_json(out, "layer_trace")

    # (a) traced outputs equal the untraced run's, cell by cell.
    plain = untraced_outputs(w, untraced)
    keys = outputs_of(w)
    mismatched = 0
    for c in trace["cells"]:
        if plain.get((c["seed"], c["label"])) != tuple(c[k] for k in keys):
            log(f"{name}: traced cell {c['label']} seed {c['seed']} "
                "differs from the untraced run")
            mismatched += 1
    if len(trace["cells"]) != cells:
        mismatched = max(mismatched, abs(cells - len(trace["cells"])))
    # The memory replay must reproduce each cell's hierarchy behaviour.
    mismatched += trace["totals"]["mem_replay_mismatches"]
    # (b) spans nest, so no layer's self time is negative.
    for cell in sorted(nesting_violations(trace)):
        log(f"{name}: spans of traced cell {cell} do not nest")
        mismatched += 1
    st = self_times(trace)
    failed += mismatched
    attempted = len(checked) * len(labels_of(w)) + len(trace["cells"])

    m = layer_metrics(w, untraced, trace, st)
    serial_ms = sum(r["wall_ms"] for sw in serial for r in sw["json"]["runs"])
    # The serial run keeps no result store, so leave the store calls out.
    traced_ms = sum(v["wall"] - v["self"].get("service", 0)
                    for v in st.values()) / 1e6
    m["bench.trace_overhead_pct"] = (
        100.0 * (traced_ms / serial_ms - 1.0), "%")
    m["cell_fail_ratio"] = (ratio(failed, attempted), "ratio")
    m.update(accuracy(w, name, untraced))
    raw = dict(untraced=untraced, trace=trace, self_times=st)
    return attempted, failed, m, raw


def outputs_of(w):
    return SAMPLED_OUTPUTS if w.get("sampled") else FULL_OUTPUTS


def untraced_outputs(w, untraced):
    """(seed, label) -> the outputs the traced run must reproduce, for
    every ok cell of the untraced run (failed ones are counted by
    check_sweep, and show here as missing)."""
    plain = {}
    for sw in untraced:
        for r in sw["json"]["runs"]:
            if r.get("status") != "ok":
                continue
            if w.get("sampled"):
                s = r["sampling"]
                v = dict(s, ipc=r["ipc"], **{
                    k: sum(i[k] for i in s["interval_runs"])
                    for k in ("instructions", "cycles")})
            else:
                v = dict(r, **r["port"])
            plain[(sw["seed"], r["label"])] = tuple(v[k]
                                                    for k in outputs_of(w))
    return plain


def accuracy(w, name, untraced):
    """Sampled estimates against the reference full-run IPC."""
    errs, misses, n = [], 0, 0
    if w.get("sampled"):
        refs = load_refs(name)
        for sw in untraced:
            ref = refs[str(sw["seed"])]
            for r in sw["json"]["runs"]:
                if r.get("status") != "ok":
                    continue
                full = ref[r["label"]]["ipc"]
                s = r["sampling"]
                errs.append(100.0 * abs(r["ipc"] - full) / full)
                misses += not (s["ci_low"] <= full <= s["ci_high"])
                n += 1
    return {
        "sampled_err_pct_mean": (statistics.fmean(errs) if errs else 0.0,
                                 "%"),
        "sampled_err_pct_max": (max(errs, default=0.0), "%"),
        "ci_miss_ratio": (ratio(misses, n), "ratio"),
    }


def layer_metrics(w, untraced, trace, st):
    tot = trace["totals"]
    cells = trace["cells"]
    sampled = bool(w.get("sampled"))
    cycles = sum(c["cycles"] for c in cells)
    insts = sum(c["instructions"] for c in cells)
    cpu_self = sum(v["self"].get("cpu", 0) for v in st.values())
    select = tot["select"]
    selects = sum(v[1] for v in select.values())
    presented = sum(c.get("presented", 0) for c in cells)
    granted = sum(c.get("granted", 0) for c in cells)
    mem_acc = sum(c["mem_accesses"] for c in cells)
    misses = sum(c["l1_misses"] for c in cells)

    total_ms = sum(sw["json"]["total_wall_ms"] for sw in untraced)
    cell_ms = sum(r["wall_ms"] for sw in untraced
                  for r in sw["json"]["runs"])
    par = w["parallel"]
    procs = bool(w.get("replay"))
    busy_ms = sum(sw["json"]["resources"]["busy_ms"] for sw in untraced)
    traced_cell_ms = sum(v["wall"] for v in st.values()) / 1e6
    gen_ff = tot["gen_ns"] if sampled else 0
    plan_s = sum(span_ms(trace, "sample.plan")) / 1e3
    ckpt_s = sum(span_ms(trace, "sample.checkpoint")) / 1e3
    run_ms = sum(span_ms(trace, "sim.run"))

    m = {
        "workload.gen_ns_per_inst": (ratio(tot["gen_ns"], tot["gen_insts"]),
                                     "ns"),
        "workload.insts_fetched": (tot["gen_insts"], "count"),
        "workload.trace_gen_s": (tot["trace_gen_ns"] / 1e9, "s"),
        "workload.trace_load_ms": (tot["trace_load_ns"] / 1e6, "ms"),
        "cpu.self_ns_per_cycle": (ratio(cpu_self, cycles), "ns"),
        "cpu.self_ns_per_inst": (ratio(cpu_self, insts), "ns"),
        "cpu.cycles": (cycles, "count"),
        "cpu.cache_port_stall_share": (
            ratio(sum(c["cache_port_stall_slots"] for c in cells),
                  sum(c["commit_slots"] for c in cells)), "ratio"),
        "cpu.ff_ns_per_inst": (
            ratio(tot["ff_ns"] - gen_ff - tot["warm_ns"], tot["ff_insts"]),
            "ns"),
        "cacheport.selects": (selects, "count"),
        "cacheport.requests_per_select": (ratio(presented, selects),
                                          "count"),
        "cacheport.grant_ratio": (ratio(granted, presented), "ratio"),
        "memory.access_ns": (ratio(tot["mem_ns"], tot["mem_accesses"]),
                             "ns"),
        "memory.warm_access_ns": (ratio(tot["warm_ns"],
                                        tot["warm_accesses"]), "ns"),
        "memory.accesses": (mem_acc + tot["warm_accesses"], "count"),
        "memory.l1_miss_rate": (ratio(misses, mem_acc), "ratio"),
        "sim.sweep_overhead_ms": (total_ms - cell_ms / par, "ms"),
        "sim.pool_busy_ratio": (
            0.0 if procs else ratio(cell_ms, par * total_ms), "ratio"),
        "service.worker_busy_ratio": (
            ratio(busy_ms, par * total_ms) if procs else 0.0, "ratio"),
        "service.store_put_ms_p50": (pct(span_ms(trace, "service.put"), 50),
                                     "ms"),
        "service.store_put_ms_p90": (pct(span_ms(trace, "service.put"), 90),
                                     "ms"),
        "service.store_lookup_ms_p50": (
            pct(span_ms(trace, "service.lookup"), 50), "ms"),
        "service.worker_deaths": (
            sum(sw["json"].get("store", {}).get("worker_deaths", 0)
                for sw in untraced), "count"),
        "service.retries": (sum(sw["retries"] for sw in untraced),
                            "count"),
        "sample.plan_s": (plan_s, "s"),
        "sample.checkpoint_s": (ckpt_s, "s"),
        "sample.apply_ms": (statistics.fmean(span_ms(trace, "sample.apply"))
                            if sampled else 0.0, "ms"),
        "sample.checkpoint_mb": (tot["checkpoint_bytes"] / 2**20, "MB"),
        "sample.detailed_share": (
            ratio(run_ms, traced_cell_ms + 1e3 * (plan_s + ckpt_s))
            if sampled else 0.0, "ratio"),
        "sample.intervals": (ratio(tot["intervals"], len(cells)), "count"),
    }
    for org in ("ideal", "repl", "bank", "lbic"):
        ns, calls = select.get(org, (0, 0))
        m[f"cacheport.select_ns.{org}"] = (ratio(ns, calls), "ns")
    return m


# --- reference regeneration ------------------------------------------------

def ref_runs(exe, w, name, seed, scratch, args):
    out = scratch.new("ref.json")
    argv = [exe[w["driver"]], f"insts={w['insts']}", f"seed={seed}",
            "ledger=none", *args, "--json"]
    rc, wall, _ = run_proc(exe, argv, out, scratch.path)
    runs = load_json(out, f"{name} seed {seed}")["runs"]
    if rc != 0 or [r["label"] for r in runs] != labels_of(w) or any(
            r["status"] != "ok" for r in runs):
        raise BenchError(f"{name}: reference run of seed {seed} failed")
    return runs, wall


def regen_refs(exe, names, scratch):
    """Rewrite perfbench/refs/<workload>.json for every reference seed
    from plain generator-mode driver runs. For the sampled workload the
    full run at the stream length gives the IPC, and a run with the
    workload's own arguments the digest of the sampled outputs."""
    os.makedirs(REFS, exist_ok=True)
    for name in names:
        w = WORKLOADS[name]
        seeds = {}
        for seed in range(1, REF_SEEDS + 1):
            runs, wall = ref_runs(exe, w, name, seed, scratch, ["jobs=4"])
            cells = {r["label"]: {"ipc": r["ipc"], "cycles": r["cycles"],
                                  "digest": digest(r)} for r in runs}
            if w.get("sampled"):
                sampled, t = ref_runs(exe, w, name, seed, scratch,
                                      w["args"])
                wall += t
                for r in sampled:
                    cells[r["label"]]["sampled"] = sampled_digest(r)
            seeds[str(seed)] = cells
            log(f"{name}: reference seed {seed} in {wall:.1f} s")
        write_refs(name, seeds)


def write_refs(name, seeds):
    """Write one cell per line, so a changed cell shows in a diff."""
    w = WORKLOADS[name]
    sampled = (" sampled: digest of the ipc and sampling block of the "
               "run with " + " ".join(w["args"]) + ".") if w.get(
                   "sampled") else ""
    lines = [
        "{",
        f'  "about": "Reference outputs of {name}: for every cell, the '
        "full-mode IPC and cycles and a digest of the deterministic "
        "run fields " + ", ".join(REF_FIELDS) + " of "
        f"{w['driver']} --json at insts={w['insts']}.{sampled} "
        "Regenerate with python3 perfbench/run.py --regen-refs "
        f'--workload {name}.",',
        f'  "driver": "{w["driver"]}",',
        f'  "insts": {w["insts"]},',
        '  "seeds": {',
    ]
    for si, (seed, cells) in enumerate(seeds.items()):
        lines.append(f'    "{seed}": {{')
        items = list(cells.items())
        for ci, (label, v) in enumerate(items):
            sep = "," if ci + 1 < len(items) else ""
            lines.append(f'      "{label}": ' + json.dumps(v) + sep)
        lines.append("    }" + ("," if si + 1 < len(seeds) else ""))
    lines += ["  }", "}"]
    with open(os.path.join(REFS, name + ".json"), "w") as f:
        f.write("\n".join(lines) + "\n")


# --- entry point -----------------------------------------------------------

def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--regen-refs", action="store_true")
    a = ap.parse_args(argv)
    if not a.workload and not a.regen_refs:
        ap.error("--workload is required")
    try:
        exe = build()
        with Scratch() as scratch:
            if a.regen_refs:
                regen_refs(exe, [a.workload] if a.workload
                           else sorted(WORKLOADS), scratch)
                return 0
            if a.trace:
                attempted, failed, m, _ = run_traced(exe, a.workload,
                                                     a.seed, scratch)
            else:
                attempted, failed, m = measure(exe, a.workload, a.seed,
                                               a.seconds, scratch)
    except BenchError as e:
        log(f"perfbench: {e}")
        return 1
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u}
                    for k, (v, u) in sorted(m.items())},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
