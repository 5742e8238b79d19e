/**
 * @file
 * Functional execution of LIR kernels on the simulated GPU.
 *
 * Each thread block is executed with per-thread register storages, a
 * shared-memory buffer, and a cp.async group queue whose copies are
 * genuinely deferred until the matching wait — a missing wait observably
 * yields stale shared memory, just like on hardware. Warp-wide mma ops
 * gather operand fragments across the 32 lanes of each warp using the
 * hardware atom layouts.
 *
 * Execution is statement-lockstep: every thread finishes an op before the
 * next op starts. This makes ordinary shared-memory races unobservable
 * (a deliberate simplification) while keeping the asynchronous-copy
 * hazards of Section 6.3 fully observable.
 */
#pragma once

#include <functional>

#include "ir/expr.h"
#include "lir/lir.h"
#include "sim/device.h"
#include "sim/stats.h"

namespace tilus {

namespace obs {
class ProfileCollector; // obs/profile.h
}

namespace sim {

class MicroProgram; // sim/microop.h

/** How the interpreter touches memory. */
enum class MemoryMode
{
    kFunctional, ///< real loads/stores against a Device
    kGhost,      ///< addresses evaluated and counted, no data moved
};

/**
 * Which execution engine runs a functional launch. kAuto prefers the
 * pre-decoded micro-op engine (sim/microop.h) and falls back to the
 * tree-walk interpreter when the kernel is not decodable. Ghost traces
 * always walk the tree: a trace runs one block, too few to repay a
 * decode.
 */
enum class Engine
{
    kAuto,
    kMicroOps, ///< require the micro-op engine (panics if undecodable)
    kTreeWalk, ///< force the legacy tree-walk interpreter
};

/** Options for a kernel execution or trace. */
struct RunOptions
{
    MemoryMode mode = MemoryMode::kFunctional;
    /** Execute only the first `max_blocks` blocks (-1 = all). */
    int64_t max_blocks = -1;
    /** Enable Print instructions (block 0 only). */
    bool enable_print = true;
    /** Execution engine of a functional run (see Engine). */
    Engine engine = Engine::kAuto;
    /**
     * A program already decoded from `kernel`. When null, as for every
     * caller but perfbench's replay, a functional run decodes the kernel
     * itself, once per run() call. Ghost traces ignore it.
     */
    const MicroProgram *micro_program = nullptr;
    /**
     * When non-null, both engines attribute every additive SimStats
     * counter delta to the originating LIR leaf instruction (see
     * obs/profile.h). Disarmed (null) this costs exactly one pointer
     * test per executed leaf and runs stay byte-identical.
     */
    obs::ProfileCollector *profile = nullptr;
};

/**
 * Execute (or trace) a kernel.
 *
 * @param kernel  lowered kernel
 * @param args    bound parameter values (pointers are device offsets;
 *                the workspace pointer is bound internally)
 * @param device  device memory (may be null in ghost mode)
 * @param options execution options
 * @return accumulated statistics over the executed blocks
 */
SimStats run(const lir::Kernel &kernel, ir::Env args, Device *device,
             const RunOptions &options = {});

/**
 * Trace a single representative block in ghost mode on the tree walk and
 * return its per-block statistics (the timing model's input). @p program
 * is ignored; it stays only for perfbench's replay, which still passes
 * the program it decoded.
 */
SimStats traceOneBlock(const lir::Kernel &kernel, const ir::Env &args,
                       const MicroProgram *program = nullptr);

} // namespace sim
} // namespace tilus
