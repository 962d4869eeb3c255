#include "svc/job.hh"

#include <algorithm>
#include <cmath>
#include <set>

#include "common/logging.hh"
#include "sim/system.hh"

namespace stitch::svc
{

using fault::ConfigError;

namespace
{

/** Max queue priority accepted by the schema (kept small: priority
 *  is a scheduling hint, not a score). */
constexpr int maxPriority = 1'000'000;

const char *
kindName(obs::Json::Kind k)
{
    using Kind = obs::Json::Kind;
    switch (k) {
      case Kind::Null: return "null";
      case Kind::Bool: return "bool";
      case Kind::Int: return "integer";
      case Kind::Double: return "number";
      case Kind::String: return "string";
      case Kind::Array: return "array";
      case Kind::Object: return "object";
    }
    return "?";
}

[[noreturn]] void
badField(const char *key, const char *expected, const obs::Json &v)
{
    throw ConfigError(detail::formatMessage(
        "stitch-job field '", key, "': expected ", expected,
        ", got ", kindName(v.kind())));
}

std::string
strField(const obs::Json &v, const char *key)
{
    if (v.kind() != obs::Json::Kind::String)
        badField(key, "a string", v);
    return v.asString();
}

bool
boolField(const obs::Json &v, const char *key)
{
    if (v.kind() != obs::Json::Kind::Bool)
        badField(key, "a bool", v);
    return v.asBool();
}

std::uint64_t
uintField(const obs::Json &v, const char *key)
{
    if (v.kind() == obs::Json::Kind::Int)
        return v.asUint();
    if (v.kind() == obs::Json::Kind::Double) {
        double d = v.asDouble();
        if (d >= 0 && d == std::floor(d))
            return static_cast<std::uint64_t>(d);
    }
    badField(key, "a non-negative integer", v);
}

double
numField(const obs::Json &v, const char *key)
{
    if (v.kind() != obs::Json::Kind::Int &&
        v.kind() != obs::Json::Kind::Double)
        badField(key, "a number", v);
    return v.asDouble();
}

/** Reject any key outside `allowed` — strict parsing is the schema's
 *  typo guard (a silently ignored "policy " would run the wrong
 *  simulation and cache it under the wrong identity). */
void
checkKeys(const obs::Json &obj, const char *what,
          std::initializer_list<const char *> allowed)
{
    for (const auto &kv : obj.items()) {
        bool known = false;
        for (const char *key : allowed)
            known = known || kv.first == key;
        if (!known)
            throw ConfigError(detail::formatMessage(
                "unknown key '", kv.first, "' in ", what));
    }
}

fault::SnocLink
linkFromName(const std::string &name)
{
    for (const auto &link : fault::allSnocLinks())
        if (link.name() == name)
            return link;
    throw ConfigError(detail::formatMessage(
        "unknown sNoC link '", name,
        "' (expected a mesh link name like \"t5-t6\")"));
}

fault::FaultPlan
faultsFromJson(const obs::Json &doc)
{
    if (!doc.isObject())
        badField("faults", "an object", doc);
    checkKeys(doc, "stitch-job \"faults\"",
              {"seed", "patch_dead", "links_down", "msg_drop_prob",
               "msg_delay_prob", "msg_delay_cycles",
               "cust_flip_prob"});
    fault::FaultPlan plan;
    if (doc.has("seed"))
        plan.seed = uintField(doc.get("seed"), "faults.seed");
    if (doc.has("patch_dead")) {
        const auto &arr = doc.get("patch_dead");
        if (!arr.isArray())
            badField("faults.patch_dead", "an array", arr);
        for (std::size_t i = 0; i < arr.size(); ++i) {
            auto t = uintField(arr.at(i), "faults.patch_dead[]");
            if (t >= static_cast<std::uint64_t>(numTiles))
                throw ConfigError(detail::formatMessage(
                    "faults.patch_dead names tile ", t,
                    " outside the ", numTiles, "-tile mesh"));
            plan.patchDead[static_cast<std::size_t>(t)] = true;
        }
    }
    if (doc.has("links_down")) {
        const auto &arr = doc.get("links_down");
        if (!arr.isArray())
            badField("faults.links_down", "an array", arr);
        for (std::size_t i = 0; i < arr.size(); ++i)
            plan.snocLinksDown.push_back(linkFromName(
                strField(arr.at(i), "faults.links_down[]")));
    }
    if (doc.has("msg_drop_prob"))
        plan.msgDropProb =
            numField(doc.get("msg_drop_prob"), "faults.msg_drop_prob");
    if (doc.has("msg_delay_prob"))
        plan.msgDelayProb = numField(doc.get("msg_delay_prob"),
                                     "faults.msg_delay_prob");
    if (doc.has("msg_delay_cycles"))
        plan.msgDelayCycles =
            static_cast<Cycles>(uintField(doc.get("msg_delay_cycles"),
                                          "faults.msg_delay_cycles"));
    if (doc.has("cust_flip_prob"))
        plan.custFlipProb = numField(doc.get("cust_flip_prob"),
                                     "faults.cust_flip_prob");
    plan.validate(); // typed, eager
    return plan;
}

/** Canonical faults object: fixed key order, defaults materialized,
 *  collections sorted and deduplicated. */
obs::Json
faultsJson(const fault::FaultPlan &plan)
{
    obs::Json j = obs::Json::object();
    j.set("seed", plan.seed);
    obs::Json dead = obs::Json::array();
    for (TileId t = 0; t < numTiles; ++t)
        if (plan.patchDead[static_cast<std::size_t>(t)])
            dead.push(static_cast<std::uint64_t>(t));
    j.set("patch_dead", dead);
    std::set<std::string> linkNames;
    for (const auto &link : plan.snocLinksDown)
        linkNames.insert(link.name());
    obs::Json links = obs::Json::array();
    for (const auto &name : linkNames)
        links.push(name);
    j.set("links_down", links);
    j.set("msg_drop_prob", plan.msgDropProb);
    j.set("msg_delay_prob", plan.msgDelayProb);
    j.set("msg_delay_cycles", plan.msgDelayCycles);
    j.set("cust_flip_prob", plan.custFlipProb);
    return j;
}

/** splitmix64 finalizer: full 64-bit avalanche (as in fault.cc). */
std::uint64_t
mix64(std::uint64_t x)
{
    x ^= x >> 30;
    x *= 0xbf58476d1ce4e5b9ull;
    x ^= x >> 27;
    x *= 0x94d049bb133111ebull;
    x ^= x >> 31;
    return x;
}

} // namespace

const char *
appModeToken(apps::AppMode mode)
{
    switch (mode) {
      case apps::AppMode::Baseline: return "baseline";
      case apps::AppMode::Locus: return "locus";
      case apps::AppMode::StitchNoFusion: return "stitch_no_fusion";
      case apps::AppMode::Stitch: return "stitch";
    }
    STITCH_PANIC("bad AppMode");
}

apps::AppMode
appModeFromToken(const std::string &token)
{
    if (token == "baseline")
        return apps::AppMode::Baseline;
    if (token == "locus")
        return apps::AppMode::Locus;
    if (token == "stitch_no_fusion")
        return apps::AppMode::StitchNoFusion;
    if (token == "stitch")
        return apps::AppMode::Stitch;
    throw ConfigError(detail::formatMessage(
        "unknown mode '", token,
        "' (expected baseline, locus, stitch_no_fusion or stitch)"));
}

const char *
stitchPolicyToken(compiler::StitchPolicy policy)
{
    switch (policy) {
      case compiler::StitchPolicy::Greedy: return "greedy";
      case compiler::StitchPolicy::SinglesOnly: return "singles_only";
      case compiler::StitchPolicy::Auto: return "auto";
    }
    STITCH_PANIC("bad StitchPolicy");
}

compiler::StitchPolicy
stitchPolicyFromToken(const std::string &token)
{
    if (token == "greedy")
        return compiler::StitchPolicy::Greedy;
    if (token == "singles_only")
        return compiler::StitchPolicy::SinglesOnly;
    if (token == "auto")
        return compiler::StitchPolicy::Auto;
    throw ConfigError(detail::formatMessage(
        "unknown policy '", token,
        "' (expected greedy, singles_only or auto)"));
}

JobSpec
JobSpec::fromJson(const obs::Json &doc)
{
    if (!doc.isObject())
        throw ConfigError("stitch-job document is not a JSON object");
    checkKeys(doc, "stitch-job document",
              {"schema", "version", "name", "priority", "deadline_ms",
               "app", "mode", "policy", "scheduler", "samples_short",
               "samples_long", "max_instructions", "health", "faults",
               "artifacts"});
    if (!doc.has("schema") ||
        strField(doc.get("schema"), "schema") != jobSchema)
        throw ConfigError(detail::formatMessage(
            "document is not a \"", jobSchema, "\" job"));
    if (!doc.has("version") ||
        uintField(doc.get("version"), "version") !=
            static_cast<std::uint64_t>(jobSchemaVersion))
        throw ConfigError(detail::formatMessage(
            "unsupported ", jobSchema, " version (expected ",
            jobSchemaVersion, ")"));

    JobSpec spec;
    if (doc.has("name"))
        spec.name = strField(doc.get("name"), "name");
    if (doc.has("priority"))
        spec.priority = static_cast<int>(
            uintField(doc.get("priority"), "priority"));
    if (doc.has("deadline_ms"))
        spec.deadlineMs =
            uintField(doc.get("deadline_ms"), "deadline_ms");
    if (!doc.has("app"))
        throw ConfigError("stitch-job is missing the \"app\" field");
    spec.app = strField(doc.get("app"), "app");
    if (doc.has("mode"))
        spec.mode =
            appModeFromToken(strField(doc.get("mode"), "mode"));
    if (doc.has("policy"))
        spec.policy = stitchPolicyFromToken(
            strField(doc.get("policy"), "policy"));
    if (doc.has("scheduler"))
        spec.scheduler = sim::schedulerKindFromName(
            strField(doc.get("scheduler"), "scheduler"));
    if (doc.has("samples_short"))
        spec.samplesShort = static_cast<int>(
            uintField(doc.get("samples_short"), "samples_short"));
    if (doc.has("samples_long"))
        spec.samplesLong = static_cast<int>(
            uintField(doc.get("samples_long"), "samples_long"));
    if (doc.has("max_instructions"))
        spec.maxInstructions =
            uintField(doc.get("max_instructions"), "max_instructions");
    if (doc.has("health")) {
        std::string h = strField(doc.get("health"), "health");
        if (h == "from_faults")
            spec.healthFromFaults = true;
        else if (h != "healthy")
            throw ConfigError(detail::formatMessage(
                "unknown health '", h,
                "' (expected healthy or from_faults)"));
    }
    if (doc.has("faults"))
        spec.faults = faultsFromJson(doc.get("faults"));
    if (doc.has("artifacts")) {
        const auto &art = doc.get("artifacts");
        if (!art.isObject())
            badField("artifacts", "an object", art);
        checkKeys(art, "stitch-job \"artifacts\"",
                  {"profile", "energy"});
        if (art.has("profile"))
            spec.artifacts.profile =
                boolField(art.get("profile"), "artifacts.profile");
        if (art.has("energy"))
            spec.artifacts.energy =
                boolField(art.get("energy"), "artifacts.energy");
    }
    spec.validate();
    spec.app = spec.resolveApp().name; // canonical full name
    return spec;
}

void
JobSpec::validate() const
{
    if (priority < 0 || priority > maxPriority)
        throw ConfigError(detail::formatMessage(
            "priority ", priority, " outside [0, ", maxPriority,
            "]"));
    if (!(samplesShort >= 1 && samplesLong > samplesShort))
        throw ConfigError(detail::formatMessage(
            "invalid sample window: short=", samplesShort,
            " long=", samplesLong, " (need 1 <= short < long)"));
    faults.validate();
    resolveApp();
}

const apps::AppSpec &
JobSpec::resolveApp() const
{
    static const auto all = apps::allApps();
    const apps::AppSpec *match = nullptr;
    for (const auto &candidate : all) {
        if (candidate.name == app)
            return candidate; // exact name wins outright
        if (candidate.name.rfind(app, 0) == 0) {
            if (match)
                throw ConfigError(detail::formatMessage(
                    "app '", app, "' is ambiguous (matches ",
                    match->name, " and ", candidate.name, ")"));
            match = &candidate;
        }
    }
    if (!match)
        throw ConfigError(detail::formatMessage(
            "unknown app '", app, "'"));
    return *match;
}

apps::RunConfig
JobSpec::runConfig() const
{
    apps::RunConfig cfg;
    cfg.policy = policy;
    cfg.scheduler = scheduler;
    cfg.faults = faults;
    cfg.health = healthFromFaults
                     ? fault::ArchHealth::fromPlan(faults)
                     : fault::ArchHealth::healthy();
    cfg.maxInstructions = maxInstructions;
    cfg.samplesShort = samplesShort;
    cfg.samplesLong = samplesLong;
    return cfg;
}

obs::Json
JobSpec::canonicalJson() const
{
    obs::Json j = obs::Json::object();
    j.set("schema", jobSchema);
    j.set("version", jobSchemaVersion);
    j.set("app", resolveApp().name);
    j.set("mode", appModeToken(mode));
    j.set("policy", stitchPolicyToken(policy));
    j.set("samples_short", samplesShort);
    j.set("samples_long", samplesLong);
    j.set("max_instructions", maxInstructions);
    j.set("health", healthFromFaults ? "from_faults" : "healthy");
    j.set("faults", faultsJson(faults));
    obs::Json art = obs::Json::object();
    art.set("profile", artifacts.profile);
    art.set("energy", artifacts.energy);
    j.set("artifacts", art);
    return j;
}

obs::Json
JobSpec::toJson() const
{
    obs::Json j = obs::Json::object();
    j.set("schema", jobSchema);
    j.set("version", jobSchemaVersion);
    if (!name.empty())
        j.set("name", name);
    if (priority != 0)
        j.set("priority", priority);
    if (deadlineMs != 0)
        j.set("deadline_ms", deadlineMs);
    obs::Json canonical = canonicalJson();
    for (const auto &kv : canonical.items()) {
        if (kv.first == "schema" || kv.first == "version")
            continue;
        j.set(kv.first, kv.second);
        // Not hashed; emitted after "policy" so documents keep their
        // key order.
        if (kv.first == "policy")
            j.set("scheduler", sim::schedulerKindName(scheduler));
    }
    return j;
}

std::uint64_t
hashBytes(const std::string &bytes)
{
    // Chain splitmix64 avalanches over little-endian 8-byte words;
    // the length seeds the chain so "a" and "a\0" differ.
    std::uint64_t h = 0x9e3779b97f4a7c15ull ^
                      mix64(static_cast<std::uint64_t>(bytes.size()));
    std::size_t i = 0;
    while (i < bytes.size()) {
        std::uint64_t word = 0;
        for (int b = 0; b < 8 && i < bytes.size(); ++b, ++i)
            word |= static_cast<std::uint64_t>(
                        static_cast<unsigned char>(bytes[i]))
                    << (8 * b);
        h = mix64(h ^ word);
    }
    return h;
}

std::string
cacheKeyFor(const std::string &canonical)
{
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(hashBytes(canonical)));
    return buf;
}

std::string
JobSpec::cacheKey() const
{
    return cacheKeyFor(canonicalJson().dump());
}

} // namespace stitch::svc
