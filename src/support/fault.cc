#include "support/fault.h"

#include <cstdlib>
#include <map>
#include <mutex>
#include <utility>
#include <vector>

#include "obs/metrics.h"
#include "obs/trace.h"
#include "support/rng.h"

namespace tilus {
namespace fault {

namespace detail {

std::atomic<int> g_state{0};

} // namespace detail

namespace {

enum class Kind { kAlways, kNthHit, kProbability };

struct Trigger
{
    std::string pattern; // site name, '*' stripped for prefix entries
    bool prefix = false;
    Kind kind = Kind::kAlways;
    int64_t nth = 0;   // kNthHit: ordinal of the matching probe that fires
    double prob = 0.0; // kProbability
    uint64_t seed = 0;
    Rng rng{0};
    int64_t hits = 0; // matching probes seen since configure()
};

struct State
{
    std::mutex mutex;
    std::vector<Trigger> triggers;
    std::map<std::string, int64_t> injections; // per concrete site
    int64_t total = 0;
};

State &
state()
{
    // Leaked on purpose: probes may run from static destructors.
    static State *s = new State();
    return *s;
}

uint64_t
hashSite(const std::string &s)
{
    uint64_t h = 1469598103934665603ULL; // FNV-1a
    for (char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 1099511628211ULL;
    }
    return h;
}

bool
validSiteChar(char c)
{
    return (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') ||
           (c >= '0' && c <= '9') || c == '_' || c == '.';
}

[[noreturn]] void
badSpec(const std::string &spec, const std::string &why)
{
    throw FatalError("TILUS_FAULTS: malformed spec \"" + spec + "\": " + why);
}

Trigger
parseEntry(const std::string &spec, const std::string &entry)
{
    const size_t eq = entry.find('=');
    if (eq == std::string::npos || eq == 0)
        badSpec(spec, "entry \"" + entry + "\" is not site=trigger");

    Trigger t;
    t.pattern = entry.substr(0, eq);
    if (t.pattern.back() == '*') {
        t.prefix = true;
        t.pattern.pop_back();
    }
    for (char c : t.pattern)
        if (!validSiteChar(c))
            badSpec(spec, "invalid site character in \"" + entry + "\"");

    const std::string trig = entry.substr(eq + 1);
    if (trig == "always") {
        t.kind = Kind::kAlways;
        return t;
    }
    if (trig.size() >= 2 && trig[0] == 'n') {
        t.kind = Kind::kNthHit;
        size_t used = 0;
        try {
            t.nth = std::stoll(trig.substr(1), &used);
        } catch (const std::exception &) {
            badSpec(spec, "bad hit count in \"" + entry + "\"");
        }
        if (used != trig.size() - 1 || t.nth < 1)
            badSpec(spec, "bad hit count in \"" + entry + "\"");
        return t;
    }
    if (trig.size() >= 2 && trig[0] == 'p') {
        t.kind = Kind::kProbability;
        const size_t at = trig.find('@');
        const std::string prob_str = trig.substr(1, at == std::string::npos
                                                        ? std::string::npos
                                                        : at - 1);
        size_t used = 0;
        try {
            t.prob = std::stod(prob_str, &used);
        } catch (const std::exception &) {
            badSpec(spec, "bad probability in \"" + entry + "\"");
        }
        if (used != prob_str.size() || t.prob < 0.0 || t.prob > 1.0)
            badSpec(spec, "probability must be in [0,1] in \"" + entry + "\"");
        if (at != std::string::npos) {
            const std::string seed_str = trig.substr(at + 1);
            try {
                t.seed = std::stoull(seed_str, &used);
            } catch (const std::exception &) {
                badSpec(spec, "bad seed in \"" + entry + "\"");
            }
            if (used != seed_str.size())
                badSpec(spec, "bad seed in \"" + entry + "\"");
        } else {
            t.seed = hashSite(t.pattern);
        }
        t.rng = Rng(t.seed);
        return t;
    }
    badSpec(spec, "unknown trigger \"" + trig + "\" in \"" + entry + "\"");
}

std::vector<Trigger>
parseSpec(const std::string &spec)
{
    std::vector<Trigger> triggers;
    size_t pos = 0;
    while (pos < spec.size()) {
        size_t comma = spec.find(',', pos);
        if (comma == std::string::npos)
            comma = spec.size();
        const std::string entry = spec.substr(pos, comma - pos);
        if (entry.empty())
            badSpec(spec, "empty entry");
        triggers.push_back(parseEntry(spec, entry));
        pos = comma + 1;
    }
    return triggers;
}

/** Prometheus-compatible per-site counter name. */
std::string
siteCounterName(const std::string &site)
{
    std::string name = "fault_";
    for (char c : site) {
        if (c >= 'A' && c <= 'Z')
            name += static_cast<char>(c - 'A' + 'a');
        else if (c == '.')
            name += '_';
        else
            name += c;
    }
    name += "_injected_total";
    return name;
}

/** Install a parsed trigger set; resets all counts. Mutex held. */
void
installLocked(State &s, std::vector<Trigger> triggers)
{
    s.triggers = std::move(triggers);
    s.injections.clear();
    s.total = 0;
    detail::g_state.store(s.triggers.empty() ? 1 : 2,
                          std::memory_order_relaxed);
}

/** Read TILUS_FAULTS on the first probe. Mutex held. */
void
ensureInitLocked(State &s)
{
    if (detail::g_state.load(std::memory_order_relaxed) != 0)
        return;
    const char *env = std::getenv("TILUS_FAULTS");
    installLocked(s, env && *env ? parseSpec(env) : std::vector<Trigger>());
}

bool
matches(const Trigger &t, const std::string &site)
{
    if (t.prefix)
        return site.compare(0, t.pattern.size(), t.pattern) == 0;
    return site == t.pattern;
}

void
recordInjectionLocked(State &s, const std::string &site)
{
    ++s.total;
    ++s.injections[site];
    auto &reg = obs::Registry::instance();
    reg.counter("fault_injected_total").add(1);
    reg.counter(siteCounterName(site)).add(1);
    obs::Tracer::instance().instant("fault", site,
                                    json::Object().add("site", site));
}

} // namespace

namespace detail {

bool
maybeFailSlow(const char *site_cstr)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    ensureInitLocked(s);
    if (g_state.load(std::memory_order_relaxed) != 2)
        return false;

    const std::string site(site_cstr);
    for (Trigger &t : s.triggers) {
        if (!matches(t, site))
            continue;
        ++t.hits;
        bool fire = false;
        switch (t.kind) {
        case Kind::kAlways: fire = true; break;
        case Kind::kNthHit: fire = (t.hits == t.nth); break;
        case Kind::kProbability: fire = (t.rng.nextDouble() < t.prob); break;
        }
        if (fire)
            recordInjectionLocked(s, site);
        return fire; // first matching entry decides
    }
    return false;
}

} // namespace detail

void
maybeThrow(const char *site)
{
    if (maybeFail(site))
        throw FaultInjectedError(site);
}

void
configure(const std::string &spec)
{
    std::vector<Trigger> triggers = parseSpec(spec); // throws before mutating
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    installLocked(s, std::move(triggers));
}

void
disarm()
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    installLocked(s, {});
}

bool
enabled()
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    ensureInitLocked(s);
    return detail::g_state.load(std::memory_order_relaxed) == 2;
}

int64_t
injectionCount()
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    return s.total;
}

int64_t
injectionCount(const std::string &site)
{
    State &s = state();
    std::lock_guard<std::mutex> lock(s.mutex);
    const auto it = s.injections.find(site);
    return it == s.injections.end() ? 0 : it->second;
}

} // namespace fault
} // namespace tilus
