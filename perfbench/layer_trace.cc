/**
 * @file
 * Layer tracer of the benchmark (run.py --trace 1).
 *
 * Re-runs one benchmark workload's table cells in this process with
 * the benchmark's own timers around the public calls into each
 * module, and writes the spans, per-cycle aggregates and every cell's
 * simulated outputs as one JSON object:
 *
 *  - full mode: a counting forwarding Workload and a timing forwarding
 *    PortScheduler are handed to Core; Core::run is timed; the cell's
 *    granted address stream is replayed through a fresh
 *    MemoryHierarchy::access, and its instruction count through an
 *    untimed loop of Workload::next(), to split generation and memory
 *    time out of the core loop; with store=DIR every cell's record
 *    goes through ResultStore::lookup/put;
 *  - sampled mode: makePlan, makeCheckpoints, applyCheckpoint and
 *    Simulator::run are timed per kernel / interval, and
 *    Simulator::fastForward, Workload::next() and
 *    MemoryHierarchy::warmAccess are timed over each kernel's stream.
 *
 * Timing every select() costs two clock reads per simulated cycle;
 * timing every next() call would double a generator-bound cell, which
 * is why generation is measured by a separate loop instead.
 *
 * Usage:
 *   layer_trace grid=t3|t4 mode=full|sampled insts=N seeds=S[,S...]
 *               [trace_dir=DIR] [store=DIR] [intervals=K] out=PATH
 *
 * intervals= is required in sampled mode; run.py passes the value of
 * the workload's own driver arguments.
 */

#include <chrono>
#include <cstdint>
#include <fstream>
#include <map>
#include <memory>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#include "cacheport/factory.hh"
#include "common/config.hh"
#include "common/logging.hh"
#include "cpu/core.hh"
#include "memory/hierarchy.hh"
#include "observe/attribution.hh"
#include "sample/checkpoint.hh"
#include "sample/sampler.hh"
#include "service/result_store.hh"
#include "service/run_request.hh"
#include "sim/simulator.hh"
#include "sim/sweep.hh"
#include "workload/registry.hh"
#include "workload/replay.hh"

using namespace lbic;

namespace
{

using Clock = std::chrono::steady_clock;

const Clock::time_point epoch = Clock::now();

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               Clock::now() - epoch)
        .count();
}

/** Spans (name, start, end, parent, cell) and per-span aggregates. */
class SpanLog
{
  public:
    int
    open(const std::string &name, int parent, int cell)
    {
        spans_.push_back({name, nowNs(), 0, parent, cell});
        return static_cast<int>(spans_.size()) - 1;
    }

    void close(int span) { spans_[span].end = nowNs(); }

    /** Charge @p ns over @p calls of @p name to @p span's children. */
    void
    aggregate(const std::string &name, int span, std::int64_t ns,
              std::uint64_t calls)
    {
        aggs_.push_back({name, span, ns, calls});
    }

    void
    print(std::ostream &os) const
    {
        os << "\"spans\": [";
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            os << (i ? ", " : "") << "[\"" << s.name << "\", "
               << s.start << ", " << s.end << ", " << s.parent << ", "
               << s.cell << ']';
        }
        os << "], \"aggs\": [";
        for (std::size_t i = 0; i < aggs_.size(); ++i) {
            const Agg &a = aggs_[i];
            os << (i ? ", " : "") << "[\"" << a.name << "\", "
               << a.span << ", " << a.ns << ", " << a.calls << ']';
        }
        os << ']';
    }

  private:
    struct Span
    {
        std::string name;
        std::int64_t start;
        std::int64_t end;
        int parent;
        int cell;
    };
    struct Agg
    {
        std::string name;
        int span;
        std::int64_t ns;
        std::uint64_t calls;
    };
    std::vector<Span> spans_;
    std::vector<Agg> aggs_;
};

/** Forwarding Workload that counts the records the core consumes. */
class CountingWorkload : public Workload
{
  public:
    explicit CountingWorkload(Workload &inner) : inner_(inner) {}

    const std::string &name() const override { return inner_.name(); }

    bool
    next(DynInst &inst) override
    {
        ++fetched;
        return inner_.next(inst);
    }

    void reset() override { inner_.reset(); }

    std::size_t
    peekSpan(const DynInst *&span) override
    {
        return inner_.peekSpan(span);
    }

    void
    advanceSpan(std::size_t n) override
    {
        fetched += n;
        inner_.advanceSpan(n);
    }

    std::uint64_t fetched = 0;

  private:
    Workload &inner_;
};

/** One cache access as the core presented it. */
struct Access
{
    Addr addr;
    bool is_store;
    Cycle cycle;
};

/**
 * Forwarding PortScheduler: times each select() of the wrapped
 * organization and records the granted requests, whose cache accesses
 * the core makes in the same cycle.
 */
class TimedScheduler : public PortScheduler
{
  public:
    TimedScheduler(stats::StatGroup *parent, PortScheduler &inner)
        : PortScheduler(parent, "traced_" + inner.name()),
          inner_(inner)
    {
    }

    void setCore(const Core *core) { core_ = core; }

    unsigned peakWidth() const override { return inner_.peakWidth(); }

    bool
    hasPendingWork() const override
    {
        return inner_.hasPendingWork();
    }

    void
    dumpState(std::ostream &os) const override
    {
        inner_.dumpState(os);
    }

    void
    tick() override
    {
        inner_.tick();
        PortScheduler::tick();
    }

    std::int64_t select_ns = 0;
    std::uint64_t selects = 0;
    std::uint64_t presented = 0;
    std::uint64_t granted = 0;
    std::vector<Access> grants;

  protected:
    void
    doSelect(const std::vector<MemRequest> &requests,
             std::vector<std::size_t> &accepted) override
    {
        const auto t0 = Clock::now();
        inner_.select(requests, accepted);
        select_ns += std::chrono::duration_cast<std::chrono::nanoseconds>(
                         Clock::now() - t0)
                         .count();
        ++selects;
        presented += requests.size();
        granted += accepted.size();
        for (const std::size_t i : accepted)
            grants.push_back({requests[i].addr, requests[i].is_store,
                              core_->now()});
        // Keep this wrapper's own rejection partition exact.
        recordRejects(RejectCause::AllPortsBusy, 0,
                      requests.size() - accepted.size());
    }

  private:
    PortScheduler &inner_;
    const Core *core_ = nullptr;
};

std::vector<std::uint64_t>
parseSeeds(const std::string &text)
{
    std::vector<std::uint64_t> seeds;
    std::stringstream ss(text);
    std::string item;
    while (std::getline(ss, item, ','))
        seeds.push_back(std::stoull(item));
    if (seeds.empty())
        lbic_fatal("seeds= names no seed");
    return seeds;
}

/** The port organizations of a table, in the driver's column order. */
std::vector<std::string>
gridSpecs(const std::string &grid)
{
    std::vector<std::string> specs;
    if (grid == "t3") {
        specs.push_back("ideal:1");
        for (const unsigned w : {2u, 4u, 8u, 16u})
            for (const char *kind : {"ideal", "repl", "bank"})
                specs.push_back(std::string(kind) + ":"
                                + std::to_string(w));
    } else if (grid == "t4") {
        for (const char *c : {"2x2", "2x4", "4x2", "4x4", "8x2", "8x4"})
            specs.push_back(std::string("lbic:") + c);
    } else {
        lbic_fatal("unknown grid '", grid, "' (t3 | t4)");
    }
    return specs;
}

std::vector<std::string>
gridKernels()
{
    std::vector<std::string> kernels = specintKernels();
    for (const auto &k : specfpKernels())
        kernels.push_back(k);
    return kernels;
}

std::string
orgOf(const std::string &spec)
{
    return spec.substr(0, spec.find(':'));
}

/** Totals of the calibration passes and per-organization selects. */
struct Totals
{
    std::int64_t gen_ns = 0;
    std::uint64_t gen_insts = 0;
    std::int64_t mem_ns = 0;
    std::uint64_t mem_accesses = 0;
    std::uint64_t mem_replay_mismatches = 0;
    std::int64_t warm_ns = 0;
    std::uint64_t warm_accesses = 0;
    std::int64_t ff_ns = 0;
    std::uint64_t ff_insts = 0;
    std::int64_t trace_gen_ns = 0;
    std::int64_t trace_load_ns = 0;
    std::uint64_t checkpoint_bytes = 0;
    std::uint64_t intervals = 0;
    std::map<std::string, std::pair<std::int64_t, std::uint64_t>>
        select; //!< organization -> (ns, calls)
};

/** Keeps the generation loop's results observable. */
volatile std::uint64_t generation_sink = 0;

/** Time @p n calls of next() on a fresh copy of @p cfg's stream. */
std::int64_t
timeGeneration(const SimConfig &cfg, std::uint64_t n)
{
    const auto stream = makeConfiguredWorkload(cfg);
    DynInst inst;
    std::uint64_t sum = 0;
    const std::int64_t t0 = nowNs();
    for (std::uint64_t i = 0; i < n && stream->next(inst); ++i)
        sum += inst.addr;
    const std::int64_t ns = nowNs() - t0;
    generation_sink = sum;
    return ns;
}

/** Commit slots lost to a head waiting for a cache-port grant. */
std::uint64_t
portStallSlots(const observe::StallAttribution &attr)
{
    return attr.stallSlots(observe::StallCause::CachePortLoad)
        + attr.stallSlots(observe::StallCause::CachePortStore);
}

/** Run one full-mode cell under the tracer; return its JSON outputs. */
std::string
runFullCell(const SimConfig &cfg, const std::string &label, int cell,
            SpanLog &log, Totals &tot, service::ResultStore *store)
{
    const int root = log.open("sim.cell", -1, cell);
    const int build = log.open("sim.build", root, cell);
    const auto stream = makeConfiguredWorkload(cfg);
    CountingWorkload counted(*stream);
    stats::StatGroup group;
    cfg.memory.l1.validate();
    cfg.memory.l2.validate();
    MemoryHierarchy hierarchy(cfg.memory, &group);
    const auto inner =
        makePortScheduler(cfg.port_spec, &group, cfg.portOptions());
    TimedScheduler sched(&group, *inner);
    Core core(cfg.core, counted, hierarchy, sched, &group);
    sched.setCore(&core);
    log.close(build);

    const int run = log.open("sim.run", root, cell);
    const RunResult result = core.run(cfg.max_insts);
    log.close(run);

    if (store) {
        SweepResult sr;
        sr.label = label;
        sr.result = result;
        sr.metrics.l1_miss_rate = hierarchy.l1MissRate();
        sr.metrics.requests_seen = inner->requests_seen.value();
        sr.metrics.requests_granted = inner->requests_granted.value();
        const service::StoreKey key = service::StoreKey::of(
            service::RunRequest::fromJob(
                SweepJob::of(cfg.workload, cfg.port_spec, cfg.max_insts,
                             cfg, label)),
            "perfbench");
        const int lookup = log.open("service.lookup", root, cell);
        const bool hit = store->lookup(key).has_value();
        log.close(lookup);
        if (hit)
            lbic_fatal("fresh result store already holds '", label, "'");
        const int put = log.open("service.put", root, cell);
        store->put(key, service::RunOutcome::fromSweepResult(sr));
        log.close(put);
    }
    log.close(root);

    // Calibration, outside the cell: generation and memory time of
    // exactly this cell's work, charged to its run span.
    const std::int64_t gen_ns = timeGeneration(cfg, counted.fetched);
    log.aggregate("workload.next", run, gen_ns, counted.fetched);
    tot.gen_ns += gen_ns;
    tot.gen_insts += counted.fetched;

    stats::StatGroup replay_group;
    MemoryHierarchy replay(cfg.memory, &replay_group);
    const std::int64_t m0 = nowNs();
    for (const Access &a : sched.grants)
        replay.access(a.addr, a.is_store, a.cycle);
    const std::int64_t mem_ns = nowNs() - m0;
    log.aggregate("memory.access", run, mem_ns, sched.grants.size());
    tot.mem_ns += mem_ns;
    tot.mem_accesses += sched.grants.size();
    if (replay.misses.value() != hierarchy.misses.value()
        || replay.accesses.value() != hierarchy.accesses.value())
        ++tot.mem_replay_mismatches;

    log.aggregate("cacheport.select", run, sched.select_ns,
                  sched.selects);
    auto &sel = tot.select[orgOf(cfg.port_spec)];
    sel.first += sched.select_ns;
    sel.second += sched.selects;

    const observe::StallAttribution &attr = core.attribution();
    std::ostringstream os;
    os << "{\"label\": \"" << label << "\", \"seed\": " << cfg.seed
       << ", \"instructions\": " << result.instructions
       << ", \"cycles\": " << result.cycles
       << ", \"ipc\": " << result.ipc()
       << ", \"l1_miss_rate\": " << hierarchy.l1MissRate()
       << ", \"requests_seen\": "
       << static_cast<std::uint64_t>(inner->requests_seen.value())
       << ", \"requests_granted\": "
       << static_cast<std::uint64_t>(inner->requests_granted.value())
       << ", \"presented\": " << sched.presented
       << ", \"granted\": " << sched.granted
       << ", \"fetched\": " << counted.fetched
       << ", \"cache_port_stall_slots\": " << portStallSlots(attr)
       << ", \"commit_slots\": " << result.cycles * attr.commitWidth()
       << ", \"mem_accesses\": " << sched.grants.size()
       << ", \"l1_misses\": "
       << static_cast<std::uint64_t>(hierarchy.misses.value()) << '}';
    return os.str();
}

/** Time fastForward, next() and warmAccess over @p base's stream. */
void
calibrateStream(const SimConfig &base, Totals &tot)
{
    {
        Simulator sim(base);
        const std::int64_t t0 = nowNs();
        tot.ff_insts += sim.fastForward(base.max_insts);
        tot.ff_ns += nowNs() - t0;
    }
    tot.gen_ns += timeGeneration(base, base.max_insts);
    tot.gen_insts += base.max_insts;

    std::vector<std::pair<Addr, bool>> mem;
    {
        const auto stream = makeConfiguredWorkload(base);
        DynInst inst;
        for (std::uint64_t i = 0;
             i < base.max_insts && stream->next(inst); ++i) {
            if (inst.isMem())
                mem.emplace_back(inst.addr, inst.isStore());
        }
    }
    stats::StatGroup group;
    MemoryHierarchy hierarchy(base.memory, &group);
    const std::int64_t t0 = nowNs();
    for (const auto &[addr, is_store] : mem)
        hierarchy.warmAccess(addr, is_store);
    tot.warm_ns += nowNs() - t0;
    tot.warm_accesses += mem.size();
}

/** Run one kernel's sampled cells under the tracer; append their JSON
 *  outputs to @p cells. */
void
runSampledKernel(const SimConfig &base, const sample::SamplingConfig &sc,
                 const std::vector<std::string> &specs, SpanLog &log,
                 Totals &tot, std::vector<std::string> &cells)
{
    const int plan_span = log.open("sample.plan", -1, -1);
    const sample::SamplingPlan plan = sample::makePlan(base, sc);
    log.close(plan_span);
    const int ck_span = log.open("sample.checkpoint", -1, -1);
    const std::vector<sample::Checkpoint> ckpts =
        sample::makeCheckpoints(base, plan);
    log.close(ck_span);
    for (const sample::Checkpoint &c : ckpts)
        tot.checkpoint_bytes += c.memory_state.size()
            + (c.segment ? c.segment->size() * sizeof(DynInst) : 0);

    for (const std::string &spec : specs) {
        SimConfig cfg = base;
        cfg.port_spec = spec;
        const std::string label = base.workload + "/" + spec;
        const std::vector<SweepJob> jobs =
            sample::buildJobs(cfg, plan, ckpts, label);
        std::vector<SweepResult> results;
        std::uint64_t instructions = 0, cycles = 0, port_stalls = 0,
                      slots = 0;
        double accesses = 0.0, misses = 0.0;
        const int cell = static_cast<int>(cells.size());
        const int root = log.open("sim.cell", -1, cell);
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            const int build = log.open("sim.build", root, cell);
            Simulator sim(jobs[i].config);
            log.close(build);
            const int apply = log.open("sample.apply", root, cell);
            sample::applyCheckpoint(sim, ckpts[i]);
            log.close(apply);
            const int run = log.open("sim.run", root, cell);
            SweepResult r;
            r.label = jobs[i].label;
            r.result = sim.run();
            log.close(run);
            results.push_back(r);
            instructions += r.result.instructions;
            cycles += r.result.cycles;
            const observe::StallAttribution &attr =
                sim.core().attribution();
            port_stalls += portStallSlots(attr);
            slots += r.result.cycles * attr.commitWidth();
            accesses += sim.hierarchy().accesses.value();
            misses += sim.hierarchy().misses.value();
        }
        log.close(root);
        tot.intervals += jobs.size();
        const sample::SampledEstimate est =
            sample::estimate(plan, results);
        std::ostringstream os;
        os << "{\"label\": \"" << label
           << "\", \"seed\": " << base.seed << ", \"ipc\": " << est.ipc
           << ", \"ci_low\": " << est.ci_low
           << ", \"ci_high\": " << est.ci_high
           << ", \"ci_valid\": " << (est.ci_valid ? 1 : 0)
           << ", \"intervals\": " << jobs.size()
           << ", \"instructions\": " << instructions
           << ", \"cycles\": " << cycles
           << ", \"cache_port_stall_slots\": " << port_stalls
           << ", \"commit_slots\": " << slots
           << ", \"mem_accesses\": "
           << static_cast<std::uint64_t>(accesses)
           << ", \"l1_misses\": " << static_cast<std::uint64_t>(misses)
           << '}';
        cells.push_back(os.str());
    }
    calibrateStream(base, tot);
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    const Config args = Config::fromArgs(argc, argv);
    const std::string grid = args.getString("grid", "t3");
    const std::string mode = args.getString("mode", "full");
    const std::uint64_t insts = args.getU64("insts", 100000);
    const std::vector<std::uint64_t> seeds =
        parseSeeds(args.getString("seeds", "1"));
    const std::string trace_dir = args.getString("trace_dir", "");
    const std::string store_dir = args.getString("store", "");
    const unsigned intervals =
        static_cast<unsigned>(args.getU64("intervals", 0));
    const std::string out_path = args.getString("out", "");
    args.rejectUnrecognized();
    if (out_path.empty())
        lbic_fatal("out=PATH is required");
    if (mode != "full" && mode != "sampled")
        lbic_fatal("unknown mode '", mode, "' (full | sampled)");
    if (mode == "sampled" && intervals == 0)
        lbic_fatal("mode=sampled needs intervals=K");

    const std::vector<std::string> specs = gridSpecs(grid);
    SpanLog log;
    Totals tot;
    std::vector<std::string> cells;
    const std::int64_t t0 = nowNs();

    std::unique_ptr<service::ResultStore> store;
    if (!store_dir.empty())
        store = std::make_unique<service::ResultStore>(store_dir);

    for (const std::uint64_t seed : seeds) {
        for (const std::string &kernel : gridKernels()) {
            SimConfig base;
            base.seed = seed;
            base.workload = kernel;
            base.max_insts = insts;
            base.port_spec = specs.front();
            if (!trace_dir.empty()) {
                base.replay_trace = trace_dir + "/" + kernel + "_s"
                    + std::to_string(seed) + ".trace";
                const std::int64_t g0 = nowNs();
                writeTraceFile(base.replay_trace, kernel, seed,
                               base.replayRecordsNeeded());
                const std::int64_t g1 = nowNs();
                loadTraceFile(base.replay_trace);
                tot.trace_gen_ns += g1 - g0;
                tot.trace_load_ns += nowNs() - g1;
            }
            if (mode == "sampled") {
                sample::SamplingConfig sc;
                sc.mode = sample::SampleMode::Systematic;
                sc.total_insts = insts;
                sc.max_intervals = intervals;
                sc.phase_seed = seed;
                runSampledKernel(base, sc, specs, log, tot, cells);
                continue;
            }
            for (const std::string &spec : specs) {
                SimConfig cfg = base;
                cfg.port_spec = spec;
                cells.push_back(runFullCell(cfg, kernel + "/" + spec,
                                            static_cast<int>(cells.size()),
                                            log, tot, store.get()));
            }
        }
    }
    const std::int64_t wall_ns = nowNs() - t0;

    std::ofstream os(out_path);
    if (!os)
        lbic_fatal("cannot open '", out_path, "' for writing");
    os << "{\"mode\": \"" << mode << "\", \"wall_ns\": " << wall_ns
       << ", \"cells\": [";
    for (std::size_t i = 0; i < cells.size(); ++i)
        os << (i ? ", " : "") << cells[i];
    os << "], ";
    log.print(os);
    os << ", \"totals\": {\"gen_ns\": " << tot.gen_ns
       << ", \"gen_insts\": " << tot.gen_insts
       << ", \"mem_ns\": " << tot.mem_ns
       << ", \"mem_accesses\": " << tot.mem_accesses
       << ", \"mem_replay_mismatches\": " << tot.mem_replay_mismatches
       << ", \"warm_ns\": " << tot.warm_ns
       << ", \"warm_accesses\": " << tot.warm_accesses
       << ", \"ff_ns\": " << tot.ff_ns
       << ", \"ff_insts\": " << tot.ff_insts
       << ", \"trace_gen_ns\": " << tot.trace_gen_ns
       << ", \"trace_load_ns\": " << tot.trace_load_ns
       << ", \"checkpoint_bytes\": " << tot.checkpoint_bytes
       << ", \"intervals\": " << tot.intervals << ", \"select\": {";
    bool sep = false;
    for (const auto &[org, v] : tot.select) {
        os << (sep ? ", " : "") << '"' << org << "\": [" << v.first
           << ", " << v.second << ']';
        sep = true;
    }
    os << "}}}\n";
    return os ? 0 : 1;
}
