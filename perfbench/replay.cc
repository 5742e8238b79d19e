#include "replay.h"

#include <atomic>
#include <cmath>
#include <cstring>
#include <ctime>
#include <filesystem>
#include <fstream>
#include <limits>

#include "baselines/baselines.h"
#include "cache/blob_store.h"
#include "cache/compile_pool.h"
#include "cache/fingerprint.h"
#include "cache/serialize.h"
#include "compiler/compiler.h"
#include "opt/pass.h"
#include "sim/interpreter.h"
#include "sim/microop.h"
#include "support/error.h"

using namespace tilus;

namespace perfbench {

int64_t
nowNs()
{
    timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return int64_t(ts.tv_sec) * 1000000000 + ts.tv_nsec;
}

namespace {

thread_local std::vector<int> open_spans;

int
threadIndex()
{
    static std::atomic<int> next{0};
    thread_local int index = next++;
    return index;
}

} // namespace

SpanLog &
SpanLog::instance()
{
    static SpanLog log;
    return log;
}

void
SpanLog::enable(int run_id)
{
    enabled_ = true;
    run_id_ = run_id;
}

int
SpanLog::open(const std::string &name)
{
    if (!enabled_)
        return -1;
    Record record;
    record.name = name;
    record.parent = open_spans.empty() ? pool_parent_ : open_spans.back();
    record.thread = threadIndex();
    record.start_ns = nowNs();
    int id;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        id = static_cast<int>(records_.size());
        records_.push_back(std::move(record));
    }
    open_spans.push_back(id);
    return id;
}

void
SpanLog::close(int id, double value)
{
    if (id < 0)
        return;
    const int64_t end = nowNs();
    open_spans.pop_back();
    std::lock_guard<std::mutex> lock(mutex_);
    records_[id].end_ns = end;
    records_[id].value = value;
}

void
SpanLog::point(const std::string &name, double value)
{
    if (!enabled_)
        return;
    Record record;
    record.name = name;
    record.parent = open_spans.empty() ? pool_parent_ : open_spans.back();
    record.thread = threadIndex();
    record.start_ns = record.end_ns = nowNs();
    record.value = value;
    std::lock_guard<std::mutex> lock(mutex_);
    records_.push_back(std::move(record));
}

void
SpanLog::write(const std::string &path) const
{
    std::ofstream out(path);
    std::lock_guard<std::mutex> lock(mutex_);
    char buf[96];
    for (const Record &r : records_) {
        std::snprintf(buf, sizeof(buf), "%.17g", r.value);
        out << "{\"name\":\"" << r.name << "\",\"start_ns\":" << r.start_ns
            << ",\"end_ns\":" << r.end_ns << ",\"parent\":" << r.parent
            << ",\"thread\":" << r.thread << ",\"run\":" << run_id_
            << ",\"value\":" << buf << "}\n";
    }
}

Span::Span(const std::string &name) : id_(SpanLog::instance().open(name))
{}

Span::~Span() { SpanLog::instance().close(id_, value_); }

std::vector<autotune::SweepRequest>
engineSweeps(const llm::ModelConfig &model,
             const llm::EngineOptions &options,
             const std::vector<int64_t> &decode_batches,
             const std::vector<int64_t> &prefill_chunks)
{
    std::vector<int64_t> steps = decode_batches;
    steps.insert(steps.end(), prefill_chunks.begin(), prefill_chunks.end());
    std::vector<autotune::SweepRequest> out;
    std::vector<cache::Fingerprint> seen;
    compiler::CompileOptions opts;
    opts.sm_arch = 80;
    opts.opt_level = options.opt_level;
    auto add = [&](baselines::System system, DataType wdtype, int64_t n,
                   int64_t k, int64_t m) {
        autotune::SweepRequest req;
        req.wdtype = wdtype;
        req.n = n;
        req.k = k;
        req.m = m;
        req.group_size = wdtype.bits() == 16 ? 0 : options.group_size;
        req.opts = opts;
        req.traits = baselines::systemTraits(system);
        if (options.tune_space)
            req.space = *options.tune_space;
        // Tilus and cuBLAS sweep the default space when not overridden.
        const cache::Fingerprint key =
            autotune::tuneKey(req, sim::l40s());
        for (const cache::Fingerprint &s : seen)
            if (s == key)
                return;
        seen.push_back(key);
        out.push_back(req);
    };
    for (int64_t m : steps) {
        for (const llm::LinearShape &shape : model.layerLinears())
            add(options.system, options.wdtype, shape.n, shape.k, m);
        add(baselines::System::kCublas, float16(), model.vocab,
            model.hidden, m);
    }
    return out;
}

namespace {

int64_t
countBody(const lir::LBody &body)
{
    int64_t n = 0;
    for (const lir::LNode &node : body) {
        ++n;
        if (const auto *f = std::get_if<lir::LFor>(&node.node))
            n += countBody(*f->body);
        else if (const auto *w = std::get_if<lir::LWhile>(&node.node))
            n += countBody(*w->body);
        else if (const auto *i = std::get_if<lir::LIf>(&node.node)) {
            n += countBody(*i->then_body);
            if (i->else_body)
                n += countBody(*i->else_body);
        }
    }
    return n;
}

/** The passes of opt::PassManager::standardPipeline, in its order. */
std::vector<std::unique_ptr<opt::Pass>>
pipelinePasses(compiler::OptLevel level)
{
    std::vector<std::unique_ptr<opt::Pass>> passes;
    if (level == compiler::OptLevel::O0)
        return passes;
    if (level >= compiler::OptLevel::O2)
        passes.push_back(opt::createSoftwarePipelinePass());
    passes.push_back(opt::createSyncEliminationPass());
    passes.push_back(opt::createDeadTensorPass());
    if (level >= compiler::OptLevel::O2)
        passes.push_back(opt::createAddressHoistPass());
    return passes;
}

/** Probe-trace extrapolation of autotune::estimateConfig: every counter
    is linear in the outer pipeline iteration count. */
sim::SimStats
extrapolate(const sim::SimStats &s1, const sim::SimStats &s2, double extra)
{
    sim::SimStats out = s1;
    auto lin = [&](int64_t a, int64_t b) {
        return a + static_cast<int64_t>(
                       std::llround(static_cast<double>(b - a) * extra));
    };
    auto linMap = [&](const std::map<int, int64_t> &m1,
                      const std::map<int, int64_t> &m2,
                      std::map<int, int64_t> &dst) {
        for (const auto &[id, b2] : m2) {
            auto it = m1.find(id);
            dst[id] = lin(it == m1.end() ? 0 : it->second, b2);
        }
    };
    out.global_load_bytes = lin(s1.global_load_bytes, s2.global_load_bytes);
    out.global_store_bytes =
        lin(s1.global_store_bytes, s2.global_store_bytes);
    out.cp_async_bytes = lin(s1.cp_async_bytes, s2.cp_async_bytes);
    out.global_sectors = lin(s1.global_sectors, s2.global_sectors);
    out.ldg_ops = lin(s1.ldg_ops, s2.ldg_ops);
    out.stg_ops = lin(s1.stg_ops, s2.stg_ops);
    out.bit_extract_ops = lin(s1.bit_extract_ops, s2.bit_extract_ops);
    linMap(s1.load_bytes_by_global, s2.load_bytes_by_global,
           out.load_bytes_by_global);
    linMap(s1.store_bytes_by_global, s2.store_bytes_by_global,
           out.store_bytes_by_global);
    out.smem_load_bytes = lin(s1.smem_load_bytes, s2.smem_load_bytes);
    out.smem_store_bytes = lin(s1.smem_store_bytes, s2.smem_store_bytes);
    out.lds_ops = lin(s1.lds_ops, s2.lds_ops);
    out.sts_ops = lin(s1.sts_ops, s2.sts_ops);
    out.ldmatrix_ops = lin(s1.ldmatrix_ops, s2.ldmatrix_ops);
    out.mma_ops = lin(s1.mma_ops, s2.mma_ops);
    out.mma_flops = lin(s1.mma_flops, s2.mma_flops);
    out.simt_fma = lin(s1.simt_fma, s2.simt_fma);
    out.alu_elt_ops = lin(s1.alu_elt_ops, s2.alu_elt_ops);
    out.cast_vec_elems = lin(s1.cast_vec_elems, s2.cast_vec_elems);
    out.cast_scalar_elems =
        lin(s1.cast_scalar_elems, s2.cast_scalar_elems);
    out.bar_syncs = lin(s1.bar_syncs, s2.bar_syncs);
    out.cp_commits = lin(s1.cp_commits, s2.cp_commits);
    out.max_groups_in_flight =
        std::max(s1.max_groups_in_flight, s2.max_groups_in_flight);
    out.overlapped = s1.overlapped || s2.overlapped;
    return out;
}

ir::Env
ghostEnv(const lir::Kernel &kernel, int64_t m)
{
    ir::Env env;
    for (const ir::Var &p : kernel.params)
        env.bind(p, p.name() == "m" ? m : 0);
    return env;
}

kernels::MatmulBundle
build(const kernels::MatmulConfig &config)
{
    Span span("kernels.build");
    return kernels::buildMatmul(config);
}

kernels::MatmulConfig
probeConfig(const kernels::MatmulConfig &config, int outers)
{
    kernels::MatmulConfig p = config;
    p.k = config.bk * config.stages * outers;
    if (p.group_size > 0)
        p.group_size = p.bk;
    return p;
}

/** Maps process-global tensor ids to declaration order. */
struct Renumber
{
    std::map<int, int> tensors, globals;

    void t(int &id) { id = tensors.count(id) ? tensors[id] : id; }
    void g(int &id) { id = globals.count(id) ? globals[id] : id; }

    void operator()(lir::LoadGlobalVec &o) { t(o.dst_tensor), g(o.global_id); }
    void operator()(lir::StoreGlobalVec &o) { t(o.src_tensor), g(o.global_id); }
    void operator()(lir::LoadGlobalBits &o) { t(o.dst_tensor), g(o.global_id); }
    void operator()(lir::StoreGlobalBits &o) { t(o.src_tensor), g(o.global_id); }
    void operator()(lir::LoadSharedVec &o) { t(o.dst_tensor); }
    void operator()(lir::StoreSharedVec &o) { t(o.src_tensor); }
    void operator()(lir::CpAsync &o) { g(o.global_id); }
    void operator()(lir::CpAsyncCommit &) {}
    void operator()(lir::CpAsyncWait &) {}
    void operator()(lir::BarSync &) {}
    void operator()(lir::MmaTile &o) { tile(o); }
    void operator()(lir::SimtDot &o) { tile(o); }
    void operator()(lir::EltwiseBinary &o)
    {
        t(o.dst_tensor), t(o.a_tensor), t(o.b_tensor);
    }
    void operator()(lir::EltwiseScalar &o) { t(o.dst_tensor), t(o.a_tensor); }
    void operator()(lir::EltwiseUnary &o) { t(o.dst_tensor), t(o.a_tensor); }
    void operator()(lir::CastTensor &o) { t(o.dst_tensor), t(o.src_tensor); }
    void operator()(lir::InitTensor &o) { t(o.dst_tensor); }
    void operator()(lir::PrintTensor &o) { t(o.tensor); }
    void operator()(lir::ExitOp &) {}

    template <typename Op>
    void
    tile(Op &o)
    {
        t(o.a_tensor), t(o.b_tensor), t(o.c_tensor), t(o.d_tensor);
    }

    void
    body(lir::LBody &nodes)
    {
        for (lir::LNode &node : nodes) {
            if (auto *op = std::get_if<lir::LOp>(&node.node))
                std::visit(*this, *op);
            else if (auto *f = std::get_if<lir::LFor>(&node.node))
                body(*f->body);
            else if (auto *w = std::get_if<lir::LWhile>(&node.node))
                body(*w->body);
            else if (auto *i = std::get_if<lir::LIf>(&node.node)) {
                body(*i->then_body);
                if (i->else_body)
                    body(*i->else_body);
            }
        }
    }
};

} // namespace

int64_t
countLirOps(const lir::Kernel &kernel)
{
    return countBody(kernel.body);
}

std::string
kernelArtifactsDigest(const std::string &dir)
{
    namespace fs = std::filesystem;
    std::vector<std::string> lines;
    if (fs::exists(dir)) {
        for (const fs::directory_entry &e :
             fs::recursive_directory_iterator(dir)) {
            if (e.path().extension() != ".lirk")
                continue;
            const std::string path = e.path().string();
            uint32_t magic = 0;
            std::ifstream(path, std::ios::binary)
                .read(reinterpret_cast<char *>(&magic), sizeof(magic));
            std::string payload, why;
            std::string digest = "unreadable";
            if (cache::readBlobFile(path, magic, cache::kCacheFormatVersion,
                                    &payload, &why) == cache::BlobRead::kHit) {
                lir::Kernel kernel = cache::deserializeKernel(payload);
                Renumber r;
                for (size_t i = 0; i < kernel.tensors.size(); ++i)
                    r.tensors[kernel.tensors[i].id] = int(i);
                for (size_t i = 0; i < kernel.globals.size(); ++i)
                    r.globals[kernel.globals[i].id] = int(i);
                for (lir::TensorDecl &t : kernel.tensors)
                    r.t(t.id);
                for (lir::GlobalDecl &g : kernel.globals)
                    r.g(g.id);
                r.body(kernel.body);
                cache::Hasher h;
                h.str(cache::serializeKernel(kernel));
                digest = h.digest().hex();
            }
            lines.push_back(fs::relative(e.path(), dir).string() + ":" +
                            digest);
        }
    }
    std::sort(lines.begin(), lines.end());
    cache::Hasher h;
    for (const std::string &line : lines)
        h.str(line);
    return std::to_string(lines.size()) + ":" + h.digest().hex();
}

Replayer::Replayer(const sim::GpuSpec &spec, const std::string &cache_dir)
    : spec_(spec), disk_(cache_dir), tune_db_(cache_dir)
{}

const lir::Kernel &
Replayer::get(const ir::Program &program,
              const compiler::CompileOptions &options)
{
    cache::Fingerprint fp;
    {
        Span span("cache.fingerprint");
        fp = cache::fingerprintProgram(program, options);
    }
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = cache_.find(fp);
        if (it != cache_.end()) {
            SpanLog::instance().point("runtime.get", 1);
            return *it->second.kernel;
        }
    }
    SpanLog::instance().point("runtime.get", 0);

    Entry entry;
    {
        Span span("cache.load.kernel");
        entry.kernel = disk_.load(fp);
        span.value(entry.kernel ? 1 : 0);
    }
    const bool compiled = !entry.kernel;
    if (compiled) {
        compiler::CompileOptions o0 = options;
        o0.opt_level = compiler::OptLevel::O0;
        lir::Kernel kernel;
        {
            Span span("compiler.lower");
            kernel = compiler::compile(program, o0);
        }
        for (const auto &pass : pipelinePasses(options.opt_level)) {
            Span span(std::string("opt.") + pass->name());
            span.value(pass->run(kernel) ? 1 : 0);
        }
        SpanLog::instance().point("compiler.lir_ops",
                                  double(countLirOps(kernel)));
        std::string payload;
        {
            Span span("cache.serialize");
            payload = cache::serializeKernel(kernel);
            span.value(double(payload.size()));
        }
        lir::Kernel back;
        {
            Span span("cache.deserialize");
            back = cache::deserializeKernel(payload);
        }
        TILUS_CHECK(cache::serializeKernel(back) == payload);
        entry.kernel = std::make_unique<lir::Kernel>(std::move(kernel));
    }

    const lir::Kernel *result;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = cache_.find(fp);
        if (it != cache_.end())
            return *it->second.kernel; // another worker won the race
        auto pos = cache_.emplace(fp, std::move(entry)).first;
        entries_.emplace(pos->second.kernel.get(), &pos->second);
        result = pos->second.kernel.get();
    }
    if (compiled) { // map nodes are address-stable: store off the lock
        Span span("cache.store.kernel");
        disk_.store(fp, *result);
    }
    return *result;
}

const sim::MicroProgram *
Replayer::decoded(const lir::Kernel &kernel)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find(&kernel);
    TILUS_CHECK(it != entries_.end());
    Entry &entry = *it->second;
    if (!entry.program) {
        Span span("sim.decode");
        entry.program = std::make_unique<sim::MicroProgram>(
            sim::compileMicroProgram(kernel));
        span.value(entry.program->ok() ? 0 : 1);
    }
    return entry.program.get();
}

sim::LatencyBreakdown
Replayer::estimate(const kernels::MatmulConfig &config, int64_t m,
                   const compiler::CompileOptions &options,
                   const sim::PerfTraits &traits)
{
    auto probe = [&](int outers) {
        const lir::Kernel &kernel =
            get(build(probeConfig(config, outers)).main_program, options);
        const sim::MicroProgram *program = decoded(kernel);
        Span span("sim.trace");
        sim::SimStats stats =
            sim::traceOneBlock(kernel, ghostEnv(kernel, m), program);
        span.value(double(stats.microop_fallbacks));
        return stats;
    };
    sim::SimStats s1 = probe(1);
    sim::SimStats s2 = probe(2);
    const lir::Kernel &kernel = get(build(config).main_program, options);
    const double full_outers =
        static_cast<double>(config.k / config.bk) / config.stages;
    sim::SimStats stats = extrapolate(s1, s2, full_outers - 1.0);
    Span span("sim.timing");
    return sim::estimateLatency(kernel, stats, ghostEnv(kernel, m), spec_,
                                traits);
}

autotune::TuneResult
Replayer::sweep(const autotune::SweepRequest &req)
{
    Span sweep_span("autotune.sweep");
    const cache::Fingerprint key = autotune::tuneKey(req, spec_);
    std::optional<cache::TuneRecord> record;
    {
        Span span("cache.load.tune");
        record = tune_db_.load(key);
        span.value(record ? 1 : 0);
    }
    autotune::TuneResult best;
    if (record) {
        sweep_span.value(1);
        best.config = record->config;
        best.latency = record->latency;
        best.candidates_tried = record->candidates_tried;
        best.candidates = std::move(record->candidates);
        return best;
    }

    std::vector<kernels::MatmulConfig> candidates;
    {
        Span span("autotune.enumerate");
        for (kernels::MatmulConfig cfg : autotune::enumerateConfigs(
                 req.wdtype, req.n, req.k, req.m, req.space)) {
            cfg.group_size = req.group_size;
            cfg.convert_via_smem = req.convert_via_smem;
            if (cfg.valid())
                candidates.push_back(cfg);
        }
        span.value(double(candidates.size()));
    }
    best.latency.total_us = std::numeric_limits<double>::infinity();
    best.candidates_tried = static_cast<int>(candidates.size());
    if (candidates.empty())
        return best;

    {
        Span pool_span("autotune.compile-ahead");
        SpanLog::instance().setPoolParent(pool_span.id());
        cache::parallelFor(
            static_cast<int64_t>(candidates.size()), [&](int64_t i) {
                const kernels::MatmulConfig &cfg = candidates[i];
                for (int outers = 1; outers <= 2; ++outers)
                    get(build(probeConfig(cfg, outers)).main_program,
                        req.opts);
                get(build(cfg).main_program, req.opts);
            });
        SpanLog::instance().setPoolParent(-1);
    }

    for (const kernels::MatmulConfig &cfg : candidates) {
        sim::LatencyBreakdown est =
            estimate(cfg, req.m, req.opts, req.traits);
        best.candidates.push_back(cache::TuneCandidate{cfg, est});
        if (est.total_us < best.latency.total_us) {
            best.latency = est;
            best.config = cfg;
        }
    }

    cache::TuneRecord out;
    out.config = best.config;
    out.latency = best.latency;
    out.candidates_tried = best.candidates_tried;
    out.candidates = best.candidates;
    Span span("cache.store.tune");
    tune_db_.store(key, out);
    return best;
}

sim::SimStats
Replayer::launch(runtime::Runtime &rt, const lir::Kernel &kernel,
                 const std::vector<runtime::KernelArg> &args)
{
    ir::Env env;
    for (const runtime::KernelArg &arg : args) {
        bool bound = false;
        for (const ir::Var &param : kernel.params) {
            if (param.name() == arg.var.name()) {
                env.bind(param, arg.value);
                bound = true;
                break;
            }
        }
        if (!bound)
            env.bind(arg.var, arg.value);
    }
    sim::RunOptions options;
    options.micro_program = decoded(kernel);
    Span span("sim.run");
    sim::SimStats stats = sim::run(kernel, env, &rt.device(), options);
    span.value(double(stats.microop_fallbacks));
    return stats;
}

} // namespace perfbench
