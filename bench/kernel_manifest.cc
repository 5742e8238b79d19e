/**
 * @file
 * The compiled-kernel manifest: the cheapest proof that a compile-path
 * change left every generated kernel alone.
 *
 * Compiles the full-depth kernel of every autotune::enumerateConfigs
 * candidate of a fixed set of sweeps and checks
 * fingerprint -> hash(serialized LIR) against a committed manifest:
 *
 *     kernel_manifest tests/kernel_manifest.txt           # check (ctest)
 *     kernel_manifest --update tests/kernel_manifest.txt  # rewrite
 *
 * The sweeps are u4 and int6 weights with group size 128, each at one
 * SIMT batch (m=1) and one tensor-core batch (m=16), each at O0 and O2.
 * The serializer stores process-global tensor ids, so tensor and global
 * ids are renumbered in declaration order before hashing. Check mode
 * prints every missing, new or changed entry and exits 1 on any.
 */
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "autotune/tuner.h"
#include "cache/compile_pool.h"
#include "cache/fingerprint.h"
#include "cache/serialize.h"
#include "compiler/compiler.h"

using namespace tilus;

namespace {

/** Maps process-global tensor/global ids to declaration order. */
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

/** Hash of the serialized kernel with ids renumbered. */
std::string
lirHash(lir::Kernel kernel)
{
    Renumber r;
    for (size_t i = 0; i < kernel.tensors.size(); ++i)
        r.tensors[kernel.tensors[i].id] = static_cast<int>(i);
    for (size_t i = 0; i < kernel.globals.size(); ++i)
        r.globals[kernel.globals[i].id] = static_cast<int>(i);
    for (lir::TensorDecl &t : kernel.tensors)
        r.t(t.id);
    for (lir::GlobalDecl &g : kernel.globals)
        r.g(g.id);
    r.body(kernel.body);
    cache::Hasher h;
    h.str(cache::serializeKernel(kernel));
    return h.digest().hex();
}

struct Entry
{
    kernels::MatmulConfig config;
    compiler::CompileOptions options;
    std::string label; ///< "<config name> O0|O2"
    std::string fingerprint, lir;
};

std::vector<Entry>
manifestEntries()
{
    std::vector<Entry> entries;
    for (DataType wdtype : {uint4(), int6()}) {
        for (int64_t m : {1, 16}) {
            for (compiler::OptLevel level :
                 {compiler::OptLevel::O0, compiler::OptLevel::O2}) {
                for (kernels::MatmulConfig cfg : autotune::enumerateConfigs(
                         wdtype, /*n=*/4096, /*k=*/3072, m)) {
                    cfg.group_size = 128;
                    if (!cfg.valid())
                        continue;
                    Entry e;
                    e.config = cfg;
                    e.options.opt_level = level;
                    e.label = cfg.name() +
                              (level == compiler::OptLevel::O0 ? " O0"
                                                               : " O2");
                    entries.push_back(std::move(e));
                }
            }
        }
    }
    return entries;
}

/** fingerprint -> "lir-hash label" lines of a manifest file. */
std::map<std::string, std::string>
readManifest(const std::string &path, bool *ok)
{
    std::map<std::string, std::string> out;
    std::ifstream in(path);
    *ok = static_cast<bool>(in);
    std::string line;
    while (std::getline(in, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        const size_t space = line.find(' ');
        out[line.substr(0, space)] = line.substr(space + 1);
    }
    return out;
}

} // namespace

int
main(int argc, char **argv)
{
    bool update = false;
    std::string path;
    for (int i = 1; i < argc; ++i) {
        if (std::strcmp(argv[i], "--update") == 0)
            update = true;
        else
            path = argv[i];
    }
    if (path.empty()) {
        std::fprintf(stderr, "usage: %s [--update] MANIFEST\n", argv[0]);
        return 2;
    }

    std::vector<Entry> entries = manifestEntries();
    cache::parallelFor(static_cast<int64_t>(entries.size()), [&](int64_t i) {
        Entry &e = entries[i];
        const ir::Program program = kernels::buildMatmul(e.config).main_program;
        e.fingerprint = cache::fingerprintProgram(program, e.options).hex();
        e.lir = lirHash(compiler::compile(program, e.options));
    });

    std::map<std::string, std::string> fresh;
    for (const Entry &e : entries)
        fresh[e.fingerprint] = e.lir + " " + e.label;

    if (update) {
        std::ofstream out(path);
        out << "# fingerprint lir-hash config opt-level; regenerate with\n"
            << "# ./build/kernel_manifest --update tests/kernel_manifest.txt\n";
        for (const auto &[fp, rest] : fresh)
            out << fp << " " << rest << "\n";
        out.flush();
        if (!out) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return 2;
        }
        std::printf("kernel_manifest: wrote %zu kernels to %s\n",
                    fresh.size(), path.c_str());
        return 0;
    }

    bool ok = false;
    const std::map<std::string, std::string> committed =
        readManifest(path, &ok);
    if (!ok) {
        std::fprintf(stderr, "cannot read %s\n", path.c_str());
        return 2;
    }
    int diffs = 0;
    for (const auto &[fp, rest] : committed) {
        auto it = fresh.find(fp);
        if (it == fresh.end()) {
            std::printf("missing: %s %s\n", fp.c_str(), rest.c_str());
            ++diffs;
        } else if (it->second != rest) {
            std::printf("changed: %s %s -> %s\n", fp.c_str(), rest.c_str(),
                        it->second.c_str());
            ++diffs;
        }
    }
    for (const auto &[fp, rest] : fresh) {
        if (!committed.count(fp)) {
            std::printf("new:     %s %s\n", fp.c_str(), rest.c_str());
            ++diffs;
        }
    }
    std::printf("kernel_manifest: %zu kernels, %d differences from %s\n",
                fresh.size(), diffs, path.c_str());
    return diffs == 0 ? 0 : 1;
}
