#include "fuzz/generator.h"

#include <sstream>
#include <vector>

#include "lang/script.h"
#include "layout/atoms.h"
#include "support/rng.h"

namespace tilus {
namespace fuzz {

namespace {

/**
 * A factorization of the block's thread count into a 2-D tile:
 * ts x tc threads, each holding lr x lc elements. Every 2-D layout
 * variant built from one Factors value has logical shape
 * (ts*lr, tc*lc), so patterns can draw several *different* layouts of
 * the *same* tile (the shared-memory round-trip conversion pattern).
 */
struct Factors
{
    int64_t ts, tc, lr, lc;

    int64_t rows() const { return ts * lr; }
    int64_t cols() const { return tc * lc; }
};

Factors
randomFactors(Rng &rng, int64_t threads)
{
    std::vector<int64_t> divisors;
    for (int64_t d = 1; d <= threads; ++d)
        if (threads % d == 0)
            divisors.push_back(d);
    Factors f;
    f.ts = divisors[rng.nextBelow(divisors.size())];
    f.tc = threads / f.ts;
    const int64_t locals[] = {1, 1, 2, 4};
    f.lr = locals[rng.nextBelow(4)];
    f.lc = rng.nextBelow(2) == 0 ? 1 : 2;
    return f;
}

/** Number of 2-D layout variants makeLayout knows. */
constexpr int kLayoutVariants = 5;

/** One of the shape-preserving 2-D layouts of a factorization. */
Layout
makeLayout(const Factors &f, int variant)
{
    switch (variant % kLayoutVariants) {
      case 0:
        return local(f.lr, 1) * spatial(f.ts, f.tc) * local(1, f.lc);
      case 1:
        return spatial(f.ts, f.tc) * local(f.lr, f.lc);
      case 2:
        return local(f.lr, f.lc) * spatial(f.ts, f.tc);
      case 3:
        return local(f.lr, 1) * columnSpatial(f.ts, f.tc) *
               local(1, f.lc);
      default:
        return spatial(f.ts, f.tc) * columnLocal(f.lr, f.lc);
    }
}

/** Byte-aligned element types safe on every lowering path. */
DataType
byteDtype(Rng &rng)
{
    switch (rng.nextBelow(6)) {
      case 0: return float32();
      case 1: return float16();
      case 2: return uint8();
      case 3: return uint16();
      case 4: return uint32();
      default: return int32();
    }
}

/** Sub-byte element types (the bit-extraction lowering fallback). */
DataType
subByteDtype(Rng &rng)
{
    switch (rng.nextBelow(7)) {
      case 0: return uint1();
      case 1: return uint2();
      case 2: return uint3();
      case 3: return uint4();
      case 4: return uint5();
      case 5: return uint6();
      default: return uint7();
    }
}

/** Generation context threaded through the pattern emitters. */
struct Gen
{
    Rng rng;
    lang::Script script;
    int64_t threads;
    ir::Var p0, p1, p2; ///< pointer params (p2 is the output by habit)
    ir::Var n;          ///< scalar param (the oracle binds it to 1)
    std::vector<ir::Var> bidx;
    int64_t grid_x; ///< extent of grid dim 0 (block-staggered stores)

    Gen(uint64_t seed, int num_warps, int64_t gx)
        : rng(seed),
          script("fuzz", num_warps),
          threads(num_warps * 32),
          grid_x(gx)
    {}

    ir::RegTensor
    binop(const ir::RegTensor &a, const ir::RegTensor &b)
    {
        switch (rng.nextBelow(4)) {
          case 0: return script.add(a, b);
          case 1: return script.sub(a, b);
          case 2: return script.mul(a, b);
          default: return script.div(a, b);
        }
    }

    ir::RegTensor
    scalarOp(const ir::RegTensor &a, ir::Expr scalar)
    {
        if (rng.nextBelow(2) == 0)
            return script.addScalar(a, std::move(scalar));
        return script.mulScalar(a, std::move(scalar));
    }

    /** A small integer scalar expression (const, param, block index). */
    ir::Expr
    smallScalar()
    {
        switch (rng.nextBelow(3)) {
          case 0: return ir::constInt(rng.nextRange(-3, 7));
          case 1: return ir::Expr(n) + rng.nextRange(0, 3);
          default: return ir::Expr(bidx[0]) + 1;
        }
    }
};

/**
 * Reinterpret @p t as a dtype whose width divides the current one
 * (f32 -> u16/u8/u4/..., f16 -> u8/..., in-width reinterprets allowed),
 * multiplying the trailing local extent so bits per thread are
 * preserved. Returns @p t unchanged when no candidate divides.
 */
ir::RegTensor
maybeView(Gen &g, const ir::RegTensor &t)
{
    const DataType pool[] = {float32(), float16(), uint32(), int32(),
                             uint16(),  uint8(),   uint4(),  uint2(),
                             uint1()};
    std::vector<DataType> fits;
    for (const DataType &d : pool)
        if (t->dtype.bits() % d.bits() == 0 && !(d == t->dtype))
            fits.push_back(d);
    if (fits.empty())
        return t;
    DataType d2 = fits[g.rng.nextBelow(fits.size())];
    const int64_t r = t->dtype.bits() / d2.bits();
    Layout l2 = t->layout;
    if (r > 1) {
        if (l2.rank() == 2)
            l2 = l2 * local(1, r);
        else
            l2 = l2 * Layout::makeLocal({r});
    }
    return g.script.view(t, d2, l2);
}

/**
 * The dot arm of the layout class. Tensor-core operands are built the
 * way kernels/matmul.cc builds them: an m16n8k16 or m16n8k8 atom under a
 * warp grid, with A replicated over the warp columns and B over the warp
 * rows. SIMT operands follow the small-batch path: A replicated over
 * every thread, B and the accumulator thread-local in k. One program in
 * four draws an operand variant that no schedule may fit (a
 * compile-reject, not a failure). Operands are loaded as u8 and cast, so
 * every product and partial sum is exact in f32 and both engines must
 * agree bit for bit.
 */
void
emitDotPattern(Gen &g)
{
    const int warps = static_cast<int>(g.threads / 32);
    const bool mma = g.rng.nextBelow(2) == 0;
    const bool bad = g.rng.nextBelow(4) == 0;
    DataType operand = float16();
    Layout la, lb, lc;
    if (mma) {
        int64_t wm = 1;
        while (wm < warps && g.rng.nextBelow(2) == 0)
            wm *= 2;
        const int64_t wn = warps / wm;
        const int64_t rm = g.rng.nextRange(1, 2), rn = g.rng.nextRange(1, 2);
        const int64_t rk = g.rng.nextRange(1, 2);
        const bool k16 = g.rng.nextBelow(2) == 0;
        auto tiles = [&](int64_t r0, int64_t r1) {
            return g.rng.nextBelow(2) ? local(r0, r1) : columnLocal(r0, r1);
        };
        lc = spatial(wm, wn) * tiles(rm, rn) * atoms::mmaM16N8K16C();
        // The bad variant ravels A's replica above its warp rows, so warp
        // w of A is not warp w of C when both warp dims exceed one.
        Layout warps_a = bad ? replicaSpatial(2, wn) * spatial(wm, 1)
                             : spatial(wm, 1) * replicaSpatial(2, wn);
        la = warps_a * tiles(rm, rk) *
             (k16 ? atoms::mmaM16N8K16A() : atoms::mmaM16N8K8A());
        lb = replicaSpatial(2, wm) * spatial(1, wn) * tiles(rk, rn) *
             (k16 ? atoms::mmaM16N8K16B() : atoms::mmaM16N8K8B());
    } else {
        const int64_t bm = int64_t(1) << g.rng.nextBelow(3);
        const int64_t rn = g.rng.nextRange(1, 2);
        const int64_t bk = int64_t(2) << g.rng.nextBelow(3);
        if (g.rng.nextBelow(2) == 0)
            operand = float32();
        lc = local(bm, 1) * spatial(1, g.threads) * local(1, rn);
        la = local(bm, 1) * replicaSpatial(2, g.threads) * local(1, bk);
        // The bad variant deals B's columns round-robin over the threads,
        // where the accumulator gives each thread a contiguous run.
        lb = bad ? local(bk, rn) * spatial(1, g.threads)
                 : spatial(1, g.threads) * local(bk, rn);
    }
    const int64_t m = lc.shape()[0], n = lc.shape()[1], k = la.shape()[1];

    ir::Expr row0 = ir::Expr(g.bidx[0]) * m;
    auto load = [&](const ir::Var &p, const Layout &layout, int64_t rows,
                    int64_t cols, ir::Expr r0) {
        auto view = g.script.viewGlobal(
            p, uint8(), {ir::constInt(rows), ir::constInt(cols)});
        return g.script.cast(g.script.loadGlobal(view, layout,
                                                 {std::move(r0),
                                                  ir::constInt(0)}),
                             operand);
    };
    ir::RegTensor a = load(g.p0, la, g.grid_x * m, k, row0);
    ir::RegTensor b = load(g.p1, lb, k, n, ir::constInt(0));
    ir::RegTensor acc = g.script.allocateRegister(float32(), lc, 0.0);
    g.script.dot(a, b, acc);
    auto gout = g.script.viewGlobal(
        g.p2, float32(), {ir::constInt(g.grid_x * m), ir::constInt(n)});
    g.script.storeGlobal(acc, gout, {row0, ir::constInt(0)});
}

/**
 * Bug class "layout/indexing": load tiles under exotic layouts, View
 * reinterpretation, replica-broadcast operands, block-staggered stores,
 * and (one program in four) the tensor-core and SIMT dot schedules.
 */
void
emitLayoutPattern(Gen &g)
{
    if (g.rng.nextBelow(4) == 0) {
        emitDotPattern(g);
        return;
    }
    Factors f = randomFactors(g.rng, g.threads);
    const int variant = static_cast<int>(g.rng.nextBelow(kLayoutVariants));
    Layout layout = makeLayout(f, variant);
    const bool sub_byte = g.rng.nextBelow(4) == 0;
    DataType dt = sub_byte ? subByteDtype(g.rng) : byteDtype(g.rng);
    const int64_t rows = f.rows(), cols = f.cols();

    // Sub-byte accesses lower to the unpredicated bit-extraction path,
    // so their views fit the tile exactly; byte-wide views may be
    // block-staggered along dim 0.
    const int64_t stagger = sub_byte ? 1 : g.grid_x;
    ir::Expr row0 = sub_byte ? ir::constInt(0)
                             : ir::Expr(g.bidx[0]) * rows;
    auto gin = g.script.viewGlobal(
        g.p0, dt, {ir::constInt(stagger * rows), ir::constInt(cols)});
    ir::RegTensor a = g.script.loadGlobal(gin, layout, {row0, ir::constInt(0)});

    ir::RegTensor c = a;
    switch (g.rng.nextBelow(3)) {
      case 0: { // second full-tile operand from another arena
        auto gb = g.script.viewGlobal(
            g.p1, dt,
            {ir::constInt(stagger * rows), ir::constInt(cols)});
        ir::RegTensor b =
            g.script.loadGlobal(gb, makeLayout(f, variant), {row0, ir::constInt(0)});
        c = g.binop(a, b);
        break;
      }
      case 1: { // replica-broadcast column operand (b shape rows x 1)
        // The replica mode must sit where a's column-thread mode sits in
        // the thread ravel, so every thread holds its row element:
        // row-major variants ravel t = rt*tc + ct, the column-spatial
        // variant ravels t = ct*ts + rt.
        Layout bl = variant == 3
                        ? replicaSpatial(2, f.tc) * spatial(f.ts, 1) *
                              local(f.lr, 1)
                        : spatial(f.ts, 1) * replicaSpatial(2, f.tc) *
                              local(f.lr, 1);
        auto gb = g.script.viewGlobal(
            g.p1, dt, {ir::constInt(rows), ir::constInt(1)});
        ir::RegTensor b = g.script.loadGlobal(
            gb, bl, {ir::constInt(0), ir::constInt(0)});
        c = g.binop(a, b);
        break;
      }
      default:
        c = g.scalarOp(a, g.smallScalar());
        break;
    }
    if (g.rng.nextBelow(2) == 0)
        c = maybeView(g, c);

    const auto &shape = c->shape();
    std::vector<ir::Expr> out_shape, out_off;
    for (size_t d = 0; d < shape.size(); ++d) {
        int64_t extent = shape[d];
        ir::Expr off = ir::constInt(0);
        if (d == 0 && !sub_byte && !(c->dtype.bits() % 8)) {
            extent *= g.grid_x;
            off = ir::Expr(g.bidx[0]) * shape[0];
        }
        out_shape.push_back(ir::constInt(extent));
        out_off.push_back(off);
    }
    auto gout = g.script.viewGlobal(g.p2, c->dtype, out_shape);
    g.script.storeGlobal(c, gout, out_off);
}

/**
 * Bug class "masking": the view's extents are deliberately not tile
 * multiples, so edge tiles exercise the lowered predicate (zero-fill
 * load, skipped store) paths.
 */
void
emitMaskingPattern(Gen &g)
{
    Factors f = randomFactors(g.rng, g.threads);
    Layout layout = makeLayout(f, static_cast<int>(g.rng.nextBelow(kLayoutVariants)));
    DataType dt = byteDtype(g.rng);
    const int64_t th = f.rows(), tw = f.cols();
    const int64_t nh = g.rng.nextRange(1, 3);
    const int64_t nw = g.rng.nextRange(1, 2);
    const int64_t gh =
        std::max<int64_t>(1, nh * th - g.rng.nextRange(0, th - 1));
    const int64_t gw =
        std::max<int64_t>(1, nw * tw - g.rng.nextRange(0, tw - 1));

    auto gin = g.script.viewGlobal(g.p0, dt,
                                   {ir::constInt(gh), ir::constInt(gw)});
    auto gout = g.script.viewGlobal(g.p2, dt,
                                    {ir::constInt(gh), ir::constInt(gw)});
    g.script.forRange(ir::constInt(nh), [&](ir::Var i) {
        for (int64_t j = 0; j < nw; ++j) {
            ir::RegTensor t = g.script.loadGlobal(
                gin, layout, {ir::Expr(i) * th, ir::constInt(j * tw)});
            ir::RegTensor u = g.scalarOp(t, ir::constInt(3));
            g.script.storeGlobal(u, gout,
                                 {ir::Expr(i) * th, ir::constInt(j * tw)});
        }
    });
}

/**
 * Bug class "synchronization": cp.async (or store-based) shared-memory
 * staging loops with commit/wait/barrier, reading back under a
 * *different* layout of the same tile — the inputs the O2 software
 * pipeliner and redundant-sync eliminator rewrite hardest.
 */
void
emitSyncPattern(Gen &g)
{
    Factors f = randomFactors(g.rng, g.threads);
    const int v1 = static_cast<int>(g.rng.nextBelow(kLayoutVariants));
    const int v2 = static_cast<int>(g.rng.nextBelow(kLayoutVariants));
    DataType dt = byteDtype(g.rng);
    const int64_t th = f.rows(), tw = f.cols();
    const int64_t nk = g.rng.nextRange(2, 3);
    // cp.async stages rows in >= 4-byte chunks; unaligned tiles are a
    // clean CompileError, so only roll the async path when it can run.
    const bool cpasync_fits = (tw * dt.bits() / 8) % 4 == 0;
    const bool use_cpasync = cpasync_fits && g.rng.nextBelow(3) != 0;

    auto gin = g.script.viewGlobal(
        g.p0, dt, {ir::constInt(nk * th), ir::constInt(tw)});
    auto gout = g.script.viewGlobal(
        g.p2, dt, {ir::constInt(nk * th), ir::constInt(tw)});
    auto smem = g.script.allocateShared(dt, {th, tw});
    g.script.forRange(ir::constInt(nk), [&](ir::Var k) {
        if (use_cpasync) {
            g.script.copyAsync(smem, gin,
                               {ir::Expr(k) * th, ir::constInt(0)});
            g.script.copyAsyncCommitGroup();
            g.script.copyAsyncWaitGroup(0);
            g.script.synchronize();
        } else {
            ir::RegTensor t = g.script.loadGlobal(
                gin, makeLayout(f, v1), {ir::Expr(k) * th, ir::constInt(0)});
            g.script.storeShared(t, smem,
                                 {ir::constInt(0), ir::constInt(0)});
            g.script.synchronize();
        }
        ir::RegTensor u = g.script.loadShared(
            smem, makeLayout(f, v2), {ir::constInt(0), ir::constInt(0)});
        ir::RegTensor w = g.scalarOp(u, g.smallScalar());
        g.script.storeGlobal(w, gout, {ir::Expr(k) * th, ir::constInt(0)});
        // The barrier below orders this iteration's reads of smem before
        // the next iteration's overwrite.
        g.script.synchronize();
    });
}

/**
 * Bug class "dtype conversion": cast chains across byte-wide and
 * sub-byte types. Float-to-int casts are excluded: NaN bit patterns
 * from random DRAM would hit host-implementation-defined conversion
 * behavior on the fast-cast path (see src/fuzz/README.md).
 */
void
emitDtypePattern(Gen &g)
{
    Factors f = randomFactors(g.rng, g.threads);
    Layout layout = makeLayout(f, static_cast<int>(g.rng.nextBelow(kLayoutVariants)));
    const bool sub_byte = g.rng.nextBelow(3) == 0;
    DataType dt = sub_byte ? subByteDtype(g.rng) : byteDtype(g.rng);
    const int64_t rows = f.rows(), cols = f.cols();

    auto gin = g.script.viewGlobal(
        g.p0, dt, {ir::constInt(rows), ir::constInt(cols)});
    ir::RegTensor t = g.script.loadGlobal(
        gin, layout, {ir::constInt(0), ir::constInt(0)});

    const int chain = static_cast<int>(g.rng.nextRange(1, 3));
    for (int i = 0; i < chain; ++i) {
        DataType cur = t->dtype;
        DataType next;
        if (cur.isFloat()) {
            // float -> float only (see above).
            next = cur == float16() ? float32() : float16();
        } else {
            const DataType pool[] = {float32(), float16(), int32(),
                                     uint16(),  uint8(),   uint4(),
                                     uint2()};
            next = pool[g.rng.nextBelow(7)];
            if (next == cur)
                next = float32();
        }
        t = g.script.cast(t, next);
    }
    if (g.rng.nextBelow(2) == 0)
        t = g.scalarOp(t, ir::constInt(g.rng.nextRange(1, 5)));

    auto gout = g.script.viewGlobal(
        g.p2, t->dtype, {ir::constInt(rows), ir::constInt(cols)});
    g.script.storeGlobal(t, gout, {ir::constInt(0), ir::constInt(0)});
}

/**
 * Bug class "control flow": scalar state threaded through for/while/if
 * with break/continue; loads and stores indexed by loop-carried scalars.
 */
void
emitControlPattern(Gen &g)
{
    const int64_t l = 1 + g.rng.nextBelow(2) * 3; // locals per thread
    Layout layout = g.rng.nextBelow(2) == 0
                        ? spatial(g.threads) * Layout::makeLocal({l})
                        : Layout::makeLocal({l}) * spatial(g.threads);
    DataType dt = byteDtype(g.rng);
    const int64_t len = g.threads * l;
    const int64_t steps = g.rng.nextRange(2, 4);

    auto gin = g.script.viewGlobal(g.p0, dt, {ir::constInt(steps * len)});
    auto gout = g.script.viewGlobal(g.p2, dt, {ir::constInt(steps * len)});
    ir::Var v = g.script.letVar("v", ir::constInt(0));
    const int64_t skip = g.rng.nextRange(0, steps - 1);
    g.script.forRange(ir::constInt(steps), [&](ir::Var i) {
        if (g.rng.nextBelow(2) == 0)
            g.script.ifThen(ir::Expr(i) == ir::constInt(skip),
                            [&] { g.script.continueLoop(); });
        ir::RegTensor t =
            g.script.loadGlobal(gin, layout, {ir::Expr(i) * len});
        ir::RegTensor u = g.scalarOp(t, ir::Expr(v) + 1);
        g.script.storeGlobal(u, gout, {ir::Expr(i) * len});
        g.script.assign(v, ir::Expr(v) + 2);
    });
    // A data-dependent while loop the optimizer cannot constant-fold:
    // the bound references the scalar parameter n (bound at launch).
    g.script.whileLoop(ir::Expr(v) < ir::Expr(g.n) * 16, [&] {
        g.script.assign(v, ir::Expr(v) + 3);
        g.script.ifThen(ir::Expr(v) > ir::constInt(12),
                        [&] { g.script.breakLoop(); });
    });
    ir::RegTensor t = g.script.loadGlobal(gin, layout, {ir::constInt(0)});
    ir::RegTensor u = g.scalarOp(t, ir::Expr(v));
    ir::RegTensor w = maybeView(g, u);
    auto gout2 = g.script.viewGlobal(
        g.p1, w->dtype, {ir::constInt(w->shape()[0]),
                         ir::constInt(w->shape().size() > 1
                                          ? w->shape()[1]
                                          : 1)});
    if (w->shape().size() == 1) {
        g.script.storeGlobal(w, g.script.viewGlobal(
                                    g.p1, w->dtype,
                                    {ir::constInt(w->shape()[0])}),
                             {ir::constInt(0)});
    } else {
        g.script.storeGlobal(w, gout2,
                             {ir::constInt(0), ir::constInt(0)});
    }
}

} // namespace

Generated
generateProgram(uint64_t seed)
{
    Rng pick(seed);
    // A small slice of the budget goes to must-reject programs so the
    // verifier-vs-divergence classification stays exercised.
    if (pick.nextBelow(25) == 0) {
        return generateAdversarial(
            static_cast<int>(pick.nextBelow(
                static_cast<uint64_t>(adversarialTemplateCount()))),
            seed);
    }

    const int warps_pool[] = {1, 1, 2, 4};
    const int num_warps = warps_pool[pick.nextBelow(4)];
    const int64_t gx = static_cast<int64_t>(pick.nextBelow(3)) + 1;
    Gen g(pick.next(), num_warps, gx);

    std::vector<ir::Expr> grid = {ir::constInt(gx)};
    if (g.rng.nextBelow(3) == 0)
        grid.push_back(ir::constInt(g.rng.nextRange(1, 2)));
    g.p0 = g.script.paramPointer("p0", uint8());
    g.p1 = g.script.paramPointer("p1", uint8());
    g.p2 = g.script.paramPointer("p2", uint8());
    g.n = g.script.paramScalar("n");
    g.script.setGrid(grid);
    g.bidx = g.script.blockIndices();

    using Emitter = void (*)(Gen &);
    struct Weighted
    {
        Emitter emit;
        const char *name;
        int weight;
    };
    const Weighted emitters[] = {
        {emitLayoutPattern, "layout", 30},
        {emitMaskingPattern, "masking", 20},
        {emitSyncPattern, "sync", 20},
        {emitDtypePattern, "dtype", 15},
        {emitControlPattern, "control", 15},
    };
    int total = 0;
    for (const Weighted &w : emitters)
        total += w.weight;

    Generated out;
    const int patterns = g.rng.nextBelow(5) < 3 ? 1 : 2;
    for (int p = 0; p < patterns; ++p) {
        int roll = static_cast<int>(g.rng.nextBelow(total));
        for (const Weighted &w : emitters) {
            roll -= w.weight;
            if (roll < 0) {
                if (p == 0)
                    out.bug_class = w.name;
                w.emit(g);
                break;
            }
        }
    }
    out.program = g.script.finish();
    {
        std::ostringstream name;
        name << "fuzz_" << std::hex << seed;
        out.program.name = name.str();
    }
    return out;
}

namespace {

/** Raw-IR builder state for the adversarial templates. */
struct Raw
{
    int next_id = 9000;
    std::vector<ir::Stmt> stmts;

    ir::RegTensor
    reg(DataType dt, Layout layout)
    {
        const int id = next_id++;
        return std::make_shared<ir::RegTensorNode>(
            id, "r" + std::to_string(id), dt, layout);
    }

    ir::SharedTensor
    shared(DataType dt, std::vector<int64_t> shape)
    {
        const int id = next_id++;
        return std::make_shared<ir::SharedTensorNode>(
            id, "s" + std::to_string(id), dt, std::move(shape));
    }

    ir::GlobalTensor
    global(DataType dt, std::vector<ir::Expr> shape, ir::Expr ptr)
    {
        const int id = next_id++;
        return std::make_shared<ir::GlobalTensorNode>(
            id, "g" + std::to_string(id), dt, std::move(shape),
            std::move(ptr), false);
    }

    void
    inst(ir::Inst i)
    {
        stmts.push_back(ir::instStmt(std::move(i)));
    }
};

} // namespace

int
adversarialTemplateCount()
{
    return 11;
}

Generated
generateAdversarial(int index, uint64_t seed)
{
    Rng rng(seed ^ 0xadefaced5a1ULL);
    Raw b;
    ir::Var ptr = ir::Var::make("p", tilus::int64());
    ir::Program prog;
    prog.name = "adversarial_" + std::to_string(index);
    prog.grid = {ir::constInt(1)};
    prog.params = {ptr};
    prog.num_warps = 1;

    switch (index % adversarialTemplateCount()) {
      case 0: { // register tile rank exceeds the shared tensor's rank
        auto s = b.shared(uint8(), {64});
        b.inst(std::make_shared<ir::AllocateSharedInst>(s));
        auto r = b.reg(uint8(), spatial(4, 8));
        b.inst(std::make_shared<ir::LoadSharedInst>(
            s, std::vector<ir::Expr>{ir::constInt(0)}, r));
        break;
      }
      case 1: { // constant-offset tile exceeds the shared extent
        const int64_t short_rows = rng.nextRange(1, 7);
        auto s = b.shared(uint8(), {short_rows, 32});
        b.inst(std::make_shared<ir::AllocateSharedInst>(s));
        auto r = b.reg(uint8(), spatial(8, 4));
        b.inst(std::make_shared<ir::AllocateRegisterInst>(r, 0.0));
        b.inst(std::make_shared<ir::StoreSharedInst>(
            r, s,
            std::vector<ir::Expr>{ir::constInt(0), ir::constInt(0)}));
        break;
      }
      case 2: { // sub-byte shared tensor (must be staged as bytes)
        auto s = b.shared(uint4(), {8, 8});
        b.inst(std::make_shared<ir::AllocateSharedInst>(s));
        break;
      }
      case 3: { // negative constant loop extent
        ir::Var i = ir::Var::make("i");
        b.stmts.push_back(std::make_shared<ir::ForStmt>(
            i, ir::constInt(-rng.nextRange(1, 8)),
            ir::seq({})));
        break;
      }
      case 4: // zero grid dimension
        prog.grid = {ir::constInt(0)};
        break;
      case 5: { // use of a register tensor that was never defined
        auto a = b.reg(float32(), spatial(32));
        auto c = b.reg(float32(), spatial(32));
        b.inst(std::make_shared<ir::BinaryInst>(
            ir::TensorBinaryOp::kAdd, a, a, c));
        break;
      }
      case 6: { // load dtype disagrees with the view dtype
        auto gv = b.global(float16(), {ir::constInt(32)}, ptr);
        b.inst(std::make_shared<ir::ViewGlobalInst>(gv));
        auto r = b.reg(float32(), spatial(32));
        b.inst(std::make_shared<ir::LoadGlobalInst>(
            gv, std::vector<ir::Expr>{ir::constInt(0)}, r));
        break;
      }
      case 7: { // offset rank disagrees with the view rank
        auto gv = b.global(uint8(),
                           {ir::constInt(8), ir::constInt(8)}, ptr);
        b.inst(std::make_shared<ir::ViewGlobalInst>(gv));
        auto r = b.reg(uint8(), spatial(4, 8));
        b.inst(std::make_shared<ir::LoadGlobalInst>(
            gv, std::vector<ir::Expr>{ir::constInt(0)}, r));
        break;
      }
      case 8: { // negative constant offset
        auto gv = b.global(uint8(), {ir::constInt(64)}, ptr);
        b.inst(std::make_shared<ir::ViewGlobalInst>(gv));
        auto r = b.reg(uint8(), spatial(32));
        b.inst(std::make_shared<ir::LoadGlobalInst>(
            gv,
            std::vector<ir::Expr>{
                ir::constInt(-rng.nextRange(1, 16))},
            r));
        break;
      }
      case 9: // break outside any loop
        b.stmts.push_back(std::make_shared<ir::BreakStmt>());
        break;
      default: { // view shape references an undefined scalar
        ir::Var ghost = ir::Var::make("ghost");
        auto gv = b.global(uint8(), {ir::Expr(ghost)}, ptr);
        b.inst(std::make_shared<ir::ViewGlobalInst>(gv));
        break;
      }
    }

    prog.body = ir::seq(std::move(b.stmts));
    Generated out;
    out.program = std::move(prog);
    out.bug_class = "adversarial";
    out.expect_invalid = true;
    return out;
}

} // namespace fuzz
} // namespace tilus
