#include "obs/profile.h"

#include <algorithm>
#include <cmath>
#include <functional>

#include "obs/build_info.h"
#include "obs/sink.h"
#include "support/json.h"
#include "support/string_util.h"

namespace tilus {
namespace obs {

namespace {

/** printKernel-style mnemonic of a leaf op. */
struct OpcodeVisitor
{
    const char *operator()(const lir::LoadGlobalVec &) const
    {
        return "ldg";
    }
    const char *operator()(const lir::StoreGlobalVec &) const
    {
        return "stg";
    }
    const char *operator()(const lir::LoadGlobalBits &) const
    {
        return "ldg.bits";
    }
    const char *operator()(const lir::StoreGlobalBits &) const
    {
        return "stg.bits";
    }
    const char *operator()(const lir::LoadSharedVec &op) const
    {
        return op.via_ldmatrix ? "ldmatrix" : "lds";
    }
    const char *operator()(const lir::StoreSharedVec &) const
    {
        return "sts";
    }
    const char *operator()(const lir::CpAsync &) const
    {
        return "cp.async";
    }
    const char *operator()(const lir::CpAsyncCommit &) const
    {
        return "cp.async.commit_group";
    }
    const char *operator()(const lir::CpAsyncWait &) const
    {
        return "cp.async.wait_group";
    }
    const char *operator()(const lir::BarSync &) const
    {
        return "bar.sync";
    }
    const char *operator()(const lir::MmaTile &) const { return "mma"; }
    const char *operator()(const lir::SimtDot &) const
    {
        return "simt.dot";
    }
    const char *operator()(const lir::EltwiseBinary &) const
    {
        return "elt.bin";
    }
    const char *operator()(const lir::EltwiseScalar &) const
    {
        return "elt.scalar";
    }
    const char *operator()(const lir::EltwiseUnary &) const
    {
        return "elt.unary";
    }
    const char *operator()(const lir::CastTensor &) const
    {
        return "cast";
    }
    const char *operator()(const lir::InitTensor &) const
    {
        return "init";
    }
    const char *operator()(const lir::PrintTensor &) const
    {
        return "print";
    }
    const char *operator()(const lir::ExitOp &) const { return "exit"; }
};

std::string
countersJson(const sim::Counters &c)
{
    json::Object o;
#define TILUS_COUNTER_JSON(f) o.add(#f, c.f);
    TILUS_SIM_COUNTERS(TILUS_COUNTER_JSON)
#undef TILUS_COUNTER_JSON
    return o.str();
}

std::string
componentsJson(const ComponentUs &c)
{
    return json::Object()
        .raw("alu_us", json::exact(c.alu_us))
        .raw("dram_us", json::exact(c.dram_us))
        .raw("l2_us", json::exact(c.l2_us))
        .raw("serial_us", json::exact(c.serial_us))
        .raw("simt_us", json::exact(c.simt_us))
        .raw("smem_us", json::exact(c.smem_us))
        .raw("tc_us", json::exact(c.tc_us))
        .str();
}

std::string
latencyJson(const sim::LatencyBreakdown &l)
{
    return json::Object()
        .raw("alu_us", json::exact(l.alu_us))
        .add("blocks", l.blocks)
        .raw("dram_us", json::exact(l.dram_us))
        .raw("l2_us", json::exact(l.l2_us))
        .raw("launch_us", json::exact(l.launch_us))
        .raw("occupancy_blocks_per_sm",
             json::exact(l.occupancy_blocks_per_sm))
        .add("pipelined", l.pipelined)
        .raw("serial_us", json::exact(l.serial_us))
        .raw("simt_us", json::exact(l.simt_us))
        .raw("smem_us", json::exact(l.smem_us))
        .raw("tc_us", json::exact(l.tc_us))
        .raw("total_us", json::exact(l.total_us))
        .str();
}

} // namespace

const char *
regionName(Region region)
{
    switch (region) {
      case Region::kPrologue: return "prologue";
      case Region::kMainLoop: return "main_loop";
      case Region::kEpilogue: return "epilogue";
    }
    return "prologue";
}

const char *
boundName(Bound bound)
{
    switch (bound) {
      case Bound::kDram: return "dram";
      case Bound::kL2: return "l2";
      case Bound::kTensorCore: return "tensor_core";
      case Bound::kSimt: return "simt";
      case Bound::kAlu: return "alu";
      case Bound::kSmem: return "smem";
      case Bound::kSerialization: return "serialization";
    }
    return "dram";
}

Bound
classify(const ComponentUs &c)
{
    const std::pair<Bound, double> comps[] = {
        {Bound::kDram, c.dram_us},        {Bound::kL2, c.l2_us},
        {Bound::kTensorCore, c.tc_us},    {Bound::kSimt, c.simt_us},
        {Bound::kAlu, c.alu_us},          {Bound::kSmem, c.smem_us},
        {Bound::kSerialization, c.serial_us},
    };
    Bound best = Bound::kDram;
    double best_us = c.dram_us;
    for (const auto &[bound, us] : comps) {
        if (us > best_us) {
            best = bound;
            best_us = us;
        }
    }
    return best;
}

Bound
classifyBound(const sim::LatencyBreakdown &breakdown)
{
    ComponentUs c;
    c.dram_us = breakdown.dram_us;
    c.l2_us = breakdown.l2_us;
    c.tc_us = breakdown.tc_us;
    c.simt_us = breakdown.simt_us;
    c.alu_us = breakdown.alu_us;
    c.smem_us = breakdown.smem_us;
    c.serial_us = breakdown.serial_us;
    return classify(c);
}

// ------------------------------------------------------------------
// KernelProfile JSON
// ------------------------------------------------------------------

std::string
KernelProfile::toJson() const
{
    std::vector<std::string> instrs;
    for (const InstrProfile &instr : instructions)
        instrs.push_back(json::Object()
                             .raw("components",
                                  componentsJson(instr.components))
                             .raw("counters", countersJson(instr.counters))
                             .raw("est_us", json::exact(instr.estUs()))
                             .add("executions", instr.executions)
                             .add("id", int64_t{instr.id})
                             .add("opcode", instr.opcode)
                             .add("region", regionName(instr.region))
                             .str());
    std::vector<std::string> regs;
    for (const RegionProfile &reg : regions)
        regs.push_back(json::Object()
                           .add("bound", boundName(reg.bound))
                           .raw("components", componentsJson(reg.components))
                           .raw("counters", countersJson(reg.counters))
                           .add("executions", reg.executions)
                           .add("instructions", reg.instructions)
                           .add("region", regionName(reg.region))
                           .str());
    return json::Object()
        .raw("arith_intensity", json::exact(arith_intensity))
        .add("blocks_profiled", blocks_profiled)
        .add("bound", boundName(bound))
        .add("engine", engine)
        .raw("instructions", "[" + join(instrs, ",") + "]")
        .add("kernel", kernel)
        .raw("latency", latencyJson(latency))
        .add("memory_bound", memory_bound)
        .raw("regions", "[" + join(regs, ",") + "]")
        .raw("ridge_flops_per_byte", json::exact(ridge_flops_per_byte))
        .raw("totals", countersJson(totals))
        .str();
}

// ------------------------------------------------------------------
// ProfileCollector
// ------------------------------------------------------------------

ProfileCollector::ProfileCollector(const lir::Kernel &kernel)
    : kernel_(kernel)
{
    // Locate the main k-loop: the first top-level-reachable LFor whose
    // extent is structurally the kernel's main_loop_extent (node
    // identity does not survive a kernel-cache round trip).
    enum class Phase
    {
        kBefore,
        kInside,
        kAfter
    };
    Phase phase = Phase::kBefore;
    bool main_found = false;

    std::function<void(const lir::LBody &)> walk =
        [&](const lir::LBody &body) {
            for (const lir::LNode &node : body) {
                if (const lir::LOp *op =
                        std::get_if<lir::LOp>(&node.node)) {
                    InstrProfile row;
                    row.id = static_cast<int>(rows_.size());
                    row.opcode = std::visit(OpcodeVisitor{}, *op);
                    row.region = phase == Phase::kBefore
                                     ? Region::kPrologue
                                 : phase == Phase::kInside
                                     ? Region::kMainLoop
                                     : Region::kEpilogue;
                    index_.emplace(op, row.id);
                    rows_.push_back(std::move(row));
                } else if (const lir::LFor *loop =
                               std::get_if<lir::LFor>(&node.node)) {
                    bool is_main =
                        !main_found && phase == Phase::kBefore &&
                        kernel.main_loop_extent &&
                        ir::structurallyEqual(loop->extent,
                                              kernel.main_loop_extent);
                    if (is_main) {
                        main_found = true;
                        phase = Phase::kInside;
                    }
                    walk(*loop->body);
                    if (is_main)
                        phase = Phase::kAfter;
                } else if (const lir::LIf *branch =
                               std::get_if<lir::LIf>(&node.node)) {
                    walk(*branch->then_body);
                    if (branch->else_body)
                        walk(*branch->else_body);
                } else if (const lir::LWhile *loop_w =
                               std::get_if<lir::LWhile>(&node.node)) {
                    walk(*loop_w->body);
                }
                // LAssign / LBreak / LContinue carry no leaf ops.
            }
        };
    walk(kernel.body);
}

sim::Counters
ProfileCollector::attributedTotals() const
{
    sim::Counters total;
    for (const InstrProfile &row : rows_)
        total.add(row.counters);
    return total;
}

KernelProfile
ProfileCollector::finish(const sim::SimStats &block_stats,
                         const ir::Env &args, const sim::GpuSpec &spec,
                         const sim::PerfTraits &traits,
                         const std::string &engine) const
{
    KernelProfile out;
    out.kernel = kernel_.name;
    out.engine = engine;
    out.blocks_profiled = blocks_;
    out.instructions = rows_;
    out.totals = attributedTotals();
    out.latency =
        sim::estimateLatency(kernel_, block_stats, args, spec, traits);
    out.bound = classifyBound(out.latency);

    // Roofline verdict: block flops (2 per fma) per global byte moved,
    // against the spec's tensor-core/DRAM ridge point.
    const sim::ComponentWork block = sim::componentWork(block_stats);
    const double flops = block.tc_flops + 2.0 * block.fma;
    out.arith_intensity =
        block.global_bytes > 0 ? flops / block.global_bytes : 0.0;
    out.ridge_flops_per_byte =
        spec.fp16_tc_tflops * 1e12 / (spec.dram_gbps * 1e9);
    out.memory_bound = out.arith_intensity < out.ridge_flops_per_byte;

    // ---- Attribute each LatencyBreakdown component over instructions:
    // an instruction's share of a component is its share of the work
    // that component prices. Every weight in the table is an integer,
    // so the totals' work is exactly the sum of the rows' work.
    const sim::ComponentWork total = sim::componentWork(out.totals);

    // Serialized time splits into the synchronization term (attributable
    // per instruction) and the structural round-trip / pipeline-fill
    // term, which belongs to the main loop as a whole rather than to
    // any one instruction.
    const double sync_us =
        std::min(sim::kSyncOpUs * block.sync_ops *
                     sim::waves(out.latency, spec),
                 out.latency.serial_us);
    const double structural_serial_us = out.latency.serial_us - sync_us;

    auto share = [](double us, double part, double whole) {
        return whole > 0 ? us * part / whole : 0.0;
    };
    const sim::LatencyBreakdown &l = out.latency;
    for (InstrProfile &row : out.instructions) {
        const sim::ComponentWork w = sim::componentWork(row.counters);
        ComponentUs &c = row.components;
        c.dram_us = share(l.dram_us, w.global_bytes, total.global_bytes);
        c.l2_us = share(l.l2_us, w.global_bytes, total.global_bytes);
        c.tc_us = share(l.tc_us, w.tc_flops, total.tc_flops);
        c.simt_us = share(l.simt_us, w.fma, total.fma);
        c.alu_us = share(l.alu_us, w.alu_ops, total.alu_ops);
        c.smem_us = share(l.smem_us, w.smem_bytes, total.smem_bytes);
        c.serial_us = share(sync_us, w.sync_ops, total.sync_ops);
    }

    // ---- Region rollups and classification.
    for (int r = 0; r < kNumRegions; ++r)
        out.regions[static_cast<size_t>(r)].region =
            static_cast<Region>(r);
    for (const InstrProfile &row : out.instructions) {
        RegionProfile &reg =
            out.regions[static_cast<size_t>(row.region)];
        reg.instructions += 1;
        reg.executions += row.executions;
        reg.counters.add(row.counters);
        reg.components.add(row.components);
    }
    const size_t main_idx = static_cast<size_t>(Region::kMainLoop);
    RegionProfile &structural_region =
        out.regions[main_idx].instructions > 0
            ? out.regions[main_idx]
            : out.regions[static_cast<size_t>(Region::kPrologue)];
    structural_region.components.serial_us += structural_serial_us;
    for (int r = 0; r < kNumRegions; ++r) {
        RegionProfile &reg = out.regions[static_cast<size_t>(r)];
        reg.bound = classify(reg.components);
    }
    return out;
}

// ------------------------------------------------------------------
// ProfileSink
// ------------------------------------------------------------------

ProfileSink &
ProfileSink::instance()
{
    // Leaked on purpose: the exit flush (and late launches from static
    // destructors) must outlive ordinary static teardown.
    static ProfileSink *sink = [] {
        auto *s = new ProfileSink();
        const std::string path = armExitSink(
            "TILUS_PROFILE", [] { ProfileSink::instance().flush(); });
        if (!path.empty())
            s->enable(path);
        return s;
    }();
    return *sink;
}

void
ProfileSink::enable(const std::string &path)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        path_ = path;
        profiles_.clear();
    }
    enabled_.store(true, std::memory_order_relaxed);
}

void
ProfileSink::disable()
{
    enabled_.store(false, std::memory_order_relaxed);
    std::lock_guard<std::mutex> lock(mutex_);
    profiles_.clear();
    path_.clear();
}

void
ProfileSink::record(KernelProfile profile)
{
    if (!enabled())
        return;
    std::lock_guard<std::mutex> lock(mutex_);
    profiles_[profile.kernel] = std::move(profile);
}

std::string
ProfileSink::document() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    std::vector<std::string> docs;
    for (const auto &[name, profile] : profiles_)
        docs.push_back(profile.toJson());
    return json::Object()
               .raw("build_info", buildInfoJson())
               .raw("profiles", "[" + join(docs, ",") + "]")
               .add("schema", "tilus-profile-v1")
               .str() +
           "\n";
}

bool
ProfileSink::flush()
{
    std::string path;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        path = path_;
    }
    return !path.empty() && writeSink("TILUS_PROFILE", path, document());
}

int64_t
ProfileSink::profileCount() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return static_cast<int64_t>(profiles_.size());
}

} // namespace obs
} // namespace tilus
