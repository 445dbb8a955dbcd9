// e2e_harness — the measuring half of the end-to-end benchmark (run.py is
// the other half: it builds this binary, generates the inputs, and turns
// the raw samples printed here into the benchmark's metrics).
//
// One invocation runs one phase of one workload described by a manifest
// (JSON written by run.py: bundle paths, assessment config, expected
// answers, and for serve_mixed the per-client request schedule):
//
//   setup    the workload's one-off set-up, timed once (batch: the first
//            cold operation of the process; serve: Server::start until every
//            bundle of the mix answered one warm-up request)
//   measure  warm up, then a closed loop of operations for --seconds; every
//            operation's verdicts are checked against the manifest. With
//            --trace 1 operations alternate untraced/traced and the traced
//            ones are attributed to the program's layers
//   pin      compute the expected answers of the committed case-study
//            bundles and cross-check them on the static-prefilter-off, DPLL
//            and ground-once-off paths (run once, when the pin is created)
//
// The harness drives only the program's public entry points:
// core::load_bundle_lenient -> core::RiskAssessment::run -> the report
// renderers, and serve::Server over its Unix socket. The last stdout line
// is one JSON object with the raw results.
#include <sys/resource.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <memory>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "cprisk.hpp"
#include "security/catalog.hpp"

namespace {

using namespace cprisk;
using Clock = std::chrono::steady_clock;

double ms_since(Clock::time_point start) {
    return std::chrono::duration<double, std::milli>(Clock::now() - start).count();
}

std::string read_file(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

std::string num(double value) {
    char buffer[64];
    std::snprintf(buffer, sizeof(buffer), "%.9g", value);
    return buffer;
}

double peak_rss_mb() {
    rusage usage{};
    ::getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is KiB on Linux
}

// --- Manifest and expected answers --------------------------------------

struct ExpectedHazard {
    std::vector<std::string> mutations;  ///< "component.fault", sorted
    std::vector<std::string> violated;   ///< requirement ids, sorted
};

struct Expected {
    long long scenarios = -1;
    std::map<std::string, ExpectedHazard> hazards;  ///< by scenario id
};

struct BundleCase {
    std::string name;
    std::string path;
    std::string text;
    Expected expected;
};

struct Manifest {
    std::string workload;
    core::AssessmentConfig config;
    std::vector<BundleCase> bundles;
    /// serve_mixed: per client, the bundle index of each request.
    std::vector<std::vector<std::size_t>> schedule;
    std::string socket;  ///< serve_mixed: socket path
};

std::vector<std::string> strings_of(const json::Value* array) {
    std::vector<std::string> out;
    if (array == nullptr || !array->is_array()) return out;
    for (const json::Value& item : array->as_array()) out.push_back(item.as_string());
    return out;
}

Result<Manifest> load_manifest(const std::string& path) {
    auto parsed = json::parse(read_file(path));
    if (!parsed.ok()) return Result<Manifest>::failure("manifest: " + parsed.error());
    const json::Value& root = parsed.value();
    Manifest manifest;
    manifest.workload = root.get_string("workload");
    manifest.socket = root.get_string("socket");
    const json::Value* config = root.get("config");
    if (config == nullptr) return Result<Manifest>::failure("manifest: no config");
    core::AssessmentConfig& c = manifest.config;
    c.horizon = static_cast<int>(config->get_int("horizon", 6));
    c.max_simultaneous_faults = static_cast<std::size_t>(config->get_int("max_faults", 2));
    c.include_attack_scenarios = config->get_bool("attack_scenarios", true);
    c.use_cegar = config->get_bool("use_cegar", true);
    c.pareto = config->get_bool("pareto", false);
    c.exhaustive = config->get_bool("exhaustive", false);
    c.jobs = 1;
    const json::Value* bundles = root.get("bundles");
    if (bundles == nullptr || !bundles->is_array() || bundles->as_array().empty()) {
        return Result<Manifest>::failure("manifest: no bundles");
    }
    for (const json::Value& entry : bundles->as_array()) {
        BundleCase bundle;
        bundle.name = entry.get_string("name");
        bundle.path = entry.get_string("path");
        bundle.text = read_file(bundle.path);
        if (bundle.text.empty()) {
            return Result<Manifest>::failure("manifest: cannot read bundle " + bundle.path);
        }
        bundle.expected.scenarios = entry.get_int("scenarios", -1);
        if (const json::Value* hazards = entry.get("hazards")) {
            for (const json::Value& hazard : hazards->as_array()) {
                bundle.expected.hazards[hazard.get_string("id")] =
                    ExpectedHazard{strings_of(hazard.get("mutations")),
                                   strings_of(hazard.get("violated"))};
            }
        }
        manifest.bundles.push_back(std::move(bundle));
    }
    if (const json::Value* schedule = root.get("schedule")) {
        for (const json::Value& client : schedule->as_array()) {
            std::vector<std::size_t> sequence;
            for (const json::Value& index : client.as_array()) {
                const long long i = index.as_int();
                if (i < 0 || static_cast<std::size_t>(i) >= manifest.bundles.size()) {
                    return Result<Manifest>::failure("manifest: schedule index out of range");
                }
                sequence.push_back(static_cast<std::size_t>(i));
            }
            manifest.schedule.push_back(std::move(sequence));
        }
    }
    return manifest;
}

// --- Verdict gate ----------------------------------------------------------

/// A verdict's fault set as sorted "component.fault" strings.
std::vector<std::string> fault_set(const epa::ScenarioVerdict& verdict) {
    std::vector<std::string> out;
    for (const security::Mutation& m : verdict.mutations) out.push_back(m.to_string());
    std::sort(out.begin(), out.end());
    return out;
}

/// Empty when the report matches the expected answer, else the first
/// mismatch. Every scenario must be decided (an Undetermined one fails).
std::string check_report(const core::AssessmentReport& report, const Expected& expected) {
    if (!report.complete()) {
        return std::to_string(report.undetermined.size()) + " undetermined scenario(s)";
    }
    if (expected.scenarios >= 0 &&
        static_cast<long long>(report.scenario_count) != expected.scenarios) {
        return "scenario count " + std::to_string(report.scenario_count) + ", expected " +
               std::to_string(expected.scenarios);
    }
    if (report.hazards.size() != expected.hazards.size()) {
        return std::to_string(report.hazards.size()) + " hazards, expected " +
               std::to_string(expected.hazards.size());
    }
    for (const epa::ScenarioVerdict& hazard : report.hazards) {
        const auto it = expected.hazards.find(hazard.scenario_id);
        if (it == expected.hazards.end()) return "unexpected hazard " + hazard.scenario_id;
        if (fault_set(hazard) != it->second.mutations) {
            return "fault set differs on " + hazard.scenario_id;
        }
        if (hazard.violated_requirements != it->second.violated) {
            return "violated requirements differ on " + hazard.scenario_id;
        }
    }
    return {};
}

/// Same gate over a serve `assess` reply: the report JSON names each
/// confirmed hazard (with its violated requirements) in `risks`.
std::string check_reply(const json::Value& reply, const Expected& expected) {
    if (!reply.get_bool("ok")) {
        const json::Value* error = reply.get("error");
        return "error reply: " + (error != nullptr ? error->serialize() : std::string("?"));
    }
    if (reply.get_bool("partial", true)) return "partial report";
    const json::Value* report = reply.get("report");
    if (report == nullptr || !report->is_object()) return "reply without report";
    const json::Value* system = report->get("system");
    if (expected.scenarios >= 0 &&
        (system == nullptr || system->get_int("scenarios", -1) != expected.scenarios)) {
        return "scenario count differs";
    }
    const json::Value* risks = report->get("risks");
    if (risks == nullptr || !risks->is_array()) return "reply without risks";
    if (risks->as_array().size() != expected.hazards.size()) {
        return std::to_string(risks->as_array().size()) + " hazards, expected " +
               std::to_string(expected.hazards.size());
    }
    for (const json::Value& risk : risks->as_array()) {
        const std::string id = risk.get_string("scenario_id");
        const auto it = expected.hazards.find(id);
        if (it == expected.hazards.end()) return "unexpected hazard " + id;
        if (strings_of(risk.get("violated")) != it->second.violated) {
            return "violated requirements differ on " + id;
        }
    }
    return {};
}

// --- Layer attribution -----------------------------------------------------

/// Span name -> the benchmark's layer metric its self time is charged to.
/// Spans not listed here stay in unattributed_ms.
const std::map<std::string, std::string>& span_layers() {
    static const std::map<std::string, std::string> layers = {
        {"assess.scenario_space", "security.space_ms"},
        {"epa.ground_base", "asp.ground_ms"},
        {"asp.ground", "asp.ground_ms"},
        {"epa.absint_prefilter", "asp.absint_ms"},
        {"asp.solve", "asp.solve_ms"},
        {"epa.evaluate", "epa.evaluate_ms"},
        {"epa.hazard_core", "epa.evaluate_ms"},
        {"assess.frontier", "epa.frontier_ms"},
        {"epa.frontier", "epa.frontier_ms"},
        {"assess.cegar", "hierarchy.cegar_ms"},
        {"cegar.walk", "hierarchy.cegar_ms"},
        {"cegar.stage_setup", "hierarchy.stage_setup_ms"},
        {"assess.risk", "risk.rate_ms"},
        {"assess.mitigation", "mitigation.optimize_ms"},
        {"mitigation.optimize", "mitigation.optimize_ms"},
        {"mitigation.pareto", "mitigation.pareto_ms"},
    };
    return layers;
}

/// Counters read from the run's MetricsRegistry after each traced op.
const std::vector<std::string>& registry_counters() {
    static const std::vector<std::string> names = {
        "assess.scenarios",           "asp.ground.atoms",
        "asp.ground.rules",           "epa.absint.rules_deleted",
        "epa.absint.static_safe",     "epa.absint.static_hazard",
        "asp.solve.calls",            "asp.solve.decisions",
        "asp.solve.conflicts",        "asp.solve.propagations",
        "asp.solve.learned_clauses",  "asp.solve.reused_propagations",
        "epa.ground_cache.hits",      "epa.ground_cache.misses",
        "epa.frontier.candidates",    "epa.frontier.evaluated",
        "epa.frontier.pruned",        "cegar.scenarios.spurious",
        "mitigation.pareto.solves",   "mitigation.optimize.nodes",
    };
    return names;
}

/// Per-layer totals over the traced operations of one run.
struct LayerTotals {
    std::size_t ops = 0;
    double wall_ms = 0.0;
    std::map<std::string, double> self_ms;    ///< layer metric -> summed self time
    std::map<std::string, double> counters;   ///< counter -> summed value
    double evaluate_spans = 0.0;

    /// Charges every span's self time (duration minus the part covered by
    /// its child spans on the same thread) to its layer.
    void add_trace(const obs::ChromeTraceSink& sink) {
        std::vector<obs::TraceEvent> events = sink.drain_ordered();
        std::sort(events.begin(), events.end(),
                  [](const obs::TraceEvent& a, const obs::TraceEvent& b) {
                      if (a.thread != b.thread) return a.thread < b.thread;
                      if (a.start_us != b.start_us) return a.start_us < b.start_us;
                      return a.duration_us > b.duration_us;
                  });
        std::vector<double> self(events.size());
        std::vector<std::size_t> stack;
        for (std::size_t i = 0; i < events.size(); ++i) {
            const obs::TraceEvent& event = events[i];
            self[i] = static_cast<double>(event.duration_us);
            while (!stack.empty()) {
                const obs::TraceEvent& top = events[stack.back()];
                if (top.thread == event.thread &&
                    event.start_us < top.start_us + top.duration_us) {
                    break;
                }
                stack.pop_back();
            }
            if (!stack.empty()) self[stack.back()] -= static_cast<double>(event.duration_us);
            stack.push_back(i);
            if (event.name == "epa.evaluate") evaluate_spans += 1.0;
        }
        const auto& layers = span_layers();
        for (std::size_t i = 0; i < events.size(); ++i) {
            const auto it = layers.find(events[i].name);
            if (it != layers.end()) self_ms[it->second] += self[i] / 1000.0;
        }
    }

    void add_registry(obs::MetricsRegistry& metrics) {
        for (const std::string& name : registry_counters()) {
            counters[name] += static_cast<double>(metrics.counter(name).value());
        }
    }
};

// --- Batch operations ------------------------------------------------------

struct Observer {
    obs::ChromeTraceSink trace;
    obs::MetricsRegistry metrics;
    double load_ms = 0.0;
    double report_ms = 0.0;
    double report_bytes = 0.0;
};

struct OpOutcome {
    double ms = 0.0;
    std::size_t scenarios = 0;
    std::string error;  ///< empty = op succeeded and every verdict matched
};

/// One batch operation: bundle text -> RiskAssessment::run -> Markdown and
/// JSON reports. `observer` non-null attaches the trace sink and metrics
/// registry and times the loader and renderer calls.
OpOutcome batch_op(const BundleCase& bundle, const core::AssessmentConfig& config,
                   Observer* observer) {
    OpOutcome outcome;
    const auto start = Clock::now();
    DiagnosticSink diagnostics;
    core::Bundle loaded = core::load_bundle_lenient(bundle.text, diagnostics);
    if (observer != nullptr) observer->load_ms = ms_since(start);
    const auto matrix = security::AttackMatrix::standard_ics();
    const auto catalog = security::SecurityCatalog::standard_ics();
    const auto mitigations = epa::MitigationMap::from_attack_matrix(loaded.model, matrix);
    core::RiskAssessment assessment(loaded.model, loaded.effective_behavioral(),
                                    loaded.effective_topology(), matrix, mitigations, &catalog);
    RunContext ctx;
    ctx.jobs = 1;
    if (observer != nullptr) {
        ctx.trace = &observer->trace;
        ctx.metrics = &observer->metrics;
    }
    auto report = assessment.run(config, ctx);
    std::string markdown;
    std::string json_report;
    if (report.ok()) {
        const auto render_start = Clock::now();
        markdown = core::render_markdown(report.value());
        json_report = core::render_report_json(report.value());
        if (observer != nullptr) {
            observer->report_ms = ms_since(render_start);
            observer->report_bytes = static_cast<double>(markdown.size() + json_report.size());
        }
    }
    outcome.ms = ms_since(start);

    if (diagnostics.has_errors()) {
        outcome.error = "bundle " + bundle.name + " has load errors";
    } else if (!report.ok()) {
        outcome.error = "assessment failed: " + report.error();
    } else if (markdown.empty() || json_report.empty()) {
        outcome.error = "empty report";
    } else {
        outcome.scenarios = report.value().scenario_count;
        const std::string mismatch = check_report(report.value(), bundle.expected);
        if (!mismatch.empty()) outcome.error = bundle.name + ": " + mismatch;
    }
    return outcome;
}

// --- Serve client ----------------------------------------------------------

class Client {
public:
    explicit Client(const std::string& socket_path) {
        fd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, socket_path.c_str(), sizeof(addr.sun_path) - 1);
        if (fd_ >= 0 &&
            ::connect(fd_, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0) {
            ::close(fd_);
            fd_ = -1;
        }
    }
    ~Client() {
        if (fd_ >= 0) ::close(fd_);
    }
    Client(const Client&) = delete;
    Client& operator=(const Client&) = delete;

    bool connected() const { return fd_ >= 0; }

    /// Sends one request line and reads one reply line. False on a dropped
    /// connection.
    bool call(const std::string& line, std::string& reply) {
        if (fd_ < 0) return false;
        std::string out = line + "\n";
        std::size_t sent = 0;
        while (sent < out.size()) {
            const ssize_t n = ::send(fd_, out.data() + sent, out.size() - sent, MSG_NOSIGNAL);
            if (n <= 0) return drop();
            sent += static_cast<std::size_t>(n);
        }
        for (;;) {
            const std::size_t newline = buffer_.find('\n');
            if (newline != std::string::npos) {
                reply = buffer_.substr(0, newline);
                buffer_.erase(0, newline + 1);
                return true;
            }
            char chunk[65536];
            const ssize_t n = ::recv(fd_, chunk, sizeof(chunk), 0);
            if (n <= 0) return drop();
            buffer_.append(chunk, static_cast<std::size_t>(n));
        }
    }

private:
    bool drop() {
        ::close(fd_);
        fd_ = -1;
        return false;
    }


private:
    int fd_ = -1;
    std::string buffer_;
};

std::string assess_line(const Manifest& manifest, std::size_t bundle, const std::string& id) {
    json::Object config;
    json::set(config, "horizon", manifest.config.horizon);
    json::set(config, "max_faults", manifest.config.max_simultaneous_faults);
    json::Object request;
    json::set(request, "id", id);
    json::set(request, "op", "assess");
    json::set(request, "model", manifest.bundles[bundle].path);
    json::set(request, "config", json::Value(std::move(config)));
    return json::Value(std::move(request)).serialize();
}

/// One serve request from send to reply-read, with its verdict check.
OpOutcome serve_op(Client& client, const Manifest& manifest, std::size_t bundle,
                   const std::string& id) {
    OpOutcome outcome;
    const std::string line = assess_line(manifest, bundle, id);
    std::string reply;
    const auto start = Clock::now();
    const bool answered = client.call(line, reply);
    outcome.ms = ms_since(start);
    if (!answered) {
        outcome.error = "connection dropped";
        return outcome;
    }
    auto parsed = json::parse(reply);
    if (!parsed.ok()) {
        outcome.error = "unparsable reply";
        return outcome;
    }
    const std::string mismatch = check_reply(parsed.value(), manifest.bundles[bundle].expected);
    if (!mismatch.empty()) {
        outcome.error = manifest.bundles[bundle].name + ": " + mismatch;
        return outcome;
    }
    if (const json::Value* system = parsed.value().get("report")->get("system")) {
        outcome.scenarios = static_cast<std::size_t>(system->get_int("scenarios", 0));
    }
    return outcome;
}

struct ServerHandle {
    std::unique_ptr<serve::Server> server;
    ~ServerHandle() {
        if (server) {
            server->begin_drain(false);
            server->wait();
        }
    }
};

/// The daemon's options; the traced run's in-process replay builds its
/// ModelCache from the same caps so it mirrors the daemon it attributes.
serve::ServeOptions serve_options(const Manifest& manifest) {
    serve::ServeOptions options;
    options.socket_path = manifest.socket;
    options.executors = 2;
    options.hot_models = 2;
    options.request_jobs = 1;
    return options;
}

Result<std::unique_ptr<serve::Server>> start_server(const Manifest& manifest) {
    return serve::Server::start(serve_options(manifest));
}

/// Warm-up: every bundle of the mix answers one request, in order.
std::string warm_up_serve(const Manifest& manifest) {
    Client client(manifest.socket);
    if (!client.connected()) return "cannot connect to " + manifest.socket;
    for (std::size_t b = 0; b < manifest.bundles.size(); ++b) {
        const OpOutcome outcome = serve_op(client, manifest, b, "warmup-" + std::to_string(b));
        if (!outcome.error.empty()) return outcome.error;
    }
    return {};
}

// --- Results ---------------------------------------------------------------

struct RunResult {
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> errors;  ///< first few failure messages
    std::vector<double> samples_ms;   ///< untraced op latencies
    std::vector<std::size_t> sample_bundle;
    std::vector<double> traced_ms;    ///< traced op latencies (trace mode)
    std::vector<std::size_t> traced_bundle;
    double scenarios = 0.0;
    double wall_s = 0.0;
    LayerTotals layers;
    std::map<std::string, double> extra;  ///< serve-specific per-layer values

    void record(const OpOutcome& outcome, std::size_t bundle, bool traced) {
        ++attempted;
        if (!outcome.error.empty()) {
            ++failed;
            if (errors.size() < 5) errors.push_back(outcome.error);
        }
        if (traced) {
            traced_ms.push_back(outcome.ms);
            traced_bundle.push_back(bundle);
        } else {
            samples_ms.push_back(outcome.ms);
            sample_bundle.push_back(bundle);
        }
        scenarios += static_cast<double>(outcome.scenarios);
    }
};

std::string object_json(const std::map<std::string, double>& values) {
    std::string out = "{";
    for (const auto& [name, value] : values) {
        if (out.size() > 1) out += ",";
        out += "\"" + name + "\":" + num(value);
    }
    return out + "}";
}

std::string array_json(const std::vector<double>& values) {
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        if (i > 0) out += ",";
        out += num(values[i]);
    }
    return out + "]";
}

void print_result(const RunResult& result, const std::string& phase, double setup_s) {
    std::string out = "{\"phase\":\"" + phase + "\"";
    out += ",\"attempted\":" + std::to_string(result.attempted);
    out += ",\"failed\":" + std::to_string(result.failed);
    out += ",\"errors\":[";
    for (std::size_t i = 0; i < result.errors.size(); ++i) {
        if (i > 0) out += ",";
        out += "\"" + json::escape(result.errors[i]) + "\"";
    }
    out += "]";
    if (phase == "setup") out += ",\"setup_s\":" + num(setup_s);
    out += ",\"samples_ms\":" + array_json(result.samples_ms);
    std::vector<double> bundles(result.sample_bundle.begin(), result.sample_bundle.end());
    out += ",\"sample_bundle\":" + array_json(bundles);
    out += ",\"traced_ms\":" + array_json(result.traced_ms);
    std::vector<double> traced_bundles(result.traced_bundle.begin(), result.traced_bundle.end());
    out += ",\"traced_bundle\":" + array_json(traced_bundles);
    out += ",\"scenarios\":" + num(result.scenarios);
    out += ",\"wall_s\":" + num(result.wall_s);
    out += ",\"peak_rss_mb\":" + num(peak_rss_mb());
    out += ",\"traced_ops\":" + std::to_string(result.layers.ops);
    out += ",\"traced_wall_ms\":" + num(result.layers.wall_ms);
    out += ",\"evaluate_spans\":" + num(result.layers.evaluate_spans);
    out += ",\"self_ms\":" + object_json(result.layers.self_ms);
    out += ",\"counters\":" + object_json(result.layers.counters);
    out += ",\"extra\":" + object_json(result.extra) + "}";
    std::printf("%s\n", out.c_str());
}

// --- Workload loops --------------------------------------------------------

/// Batch closed loop, one caller. Operations rotate through the mix in
/// whole rounds, so every bundle is measured equally often; the loop ends
/// at the first round boundary past the deadline (or after `max_rounds`).
RunResult run_batch(const Manifest& manifest, double seconds, bool traced,
                    std::size_t max_rounds) {
    RunResult result;
    // Warm-up: one untimed round (the first cold op is the set-up phase).
    for (const BundleCase& bundle : manifest.bundles) {
        (void)batch_op(bundle, manifest.config, nullptr);
    }
    const auto start = Clock::now();
    const auto deadline = start + std::chrono::duration<double>(seconds);
    for (std::size_t round = 0; round < max_rounds && Clock::now() < deadline; ++round) {
        for (std::size_t b = 0; b < manifest.bundles.size(); ++b) {
            // Trace mode alternates untraced and traced operations, each
            // bundle traced every other round, so the trace overhead is
            // measured on the same inputs under the same conditions.
            const bool observe = traced && (round + b) % 2 == 1;
            if (!observe) {
                result.record(batch_op(manifest.bundles[b], manifest.config, nullptr), b, false);
                continue;
            }
            Observer observer;
            const OpOutcome outcome = batch_op(manifest.bundles[b], manifest.config, &observer);
            result.record(outcome, b, true);
            LayerTotals& layers = result.layers;
            ++layers.ops;
            layers.wall_ms += outcome.ms;
            layers.self_ms["core.load_ms"] += observer.load_ms;
            layers.self_ms["core.report_ms"] += observer.report_ms;
            layers.counters["core.report_bytes"] += observer.report_bytes;
            layers.add_trace(observer.trace);
            layers.add_registry(observer.metrics);
        }
    }
    result.wall_s = std::chrono::duration<double>(Clock::now() - start).count();
    return result;
}

/// In-process replay of served requests, for the traced serve run: the
/// same request lines, parsed with serve::parse_request and executed the
/// way the daemon's executor does (ModelCache::acquire, then
/// RiskAssessment::run on the entry's warm ground-once bases), so the
/// client latency can be split into pipeline layers and serve overhead.
void replay_serve(const Manifest& manifest, const std::vector<std::size_t>& requests,
                  double seconds, RunResult& result) {
    const serve::ServeOptions options = serve_options(manifest);
    obs::MetricsRegistry cache_metrics;
    serve::ModelCache cache(options.hot_models, options.cache_bytes, &cache_metrics);
    double parse_us = 0.0;
    double acquire_hit_ms = 0.0;
    double acquire_miss_ms = 0.0;
    double hits = 0.0;
    double misses = 0.0;
    double inprocess_ms = 0.0;
    std::size_t replayed = 0;
    const auto deadline = Clock::now() + std::chrono::duration<double>(seconds);
    for (std::size_t i = 0; i < requests.size() && Clock::now() < deadline; ++i) {
        const std::size_t b = requests[i];
        const std::string line = assess_line(manifest, b, "replay-" + std::to_string(i));
        const bool observe = i % 2 == 1;
        const auto parse_start = Clock::now();
        std::string id;
        auto request = serve::parse_request(line, &id);
        const double parse_ms = ms_since(parse_start);
        OpOutcome outcome;
        if (!request.ok()) {
            outcome.error = "parse_request: " + request.error();
            result.record(outcome, b, observe);
            continue;
        }
        Observer observer;
        RunContext ctx;
        ctx.jobs = options.request_jobs;
        if (observe) {
            ctx.trace = &observer.trace;
            ctx.metrics = &observer.metrics;
        }
        const std::uint64_t hits_before = cache_metrics.counter("serve.cache.hits").value();
        const auto start = Clock::now();
        auto model = cache.acquire(request.value().model);
        const double acquire_ms = ms_since(start);
        const bool hit = cache_metrics.counter("serve.cache.hits").value() > hits_before;
        if (!model.ok()) {
            outcome.error = "acquire: " + model.error();
            result.record(outcome, b, observe);
            continue;
        }
        ctx.base_cache = &model.value()->bases;
        auto report = model.value()->assessment->run(request.value().config, ctx);
        outcome.ms = ms_since(start);
        cache.enforce_caps();
        if (!report.ok()) {
            outcome.error = "assessment failed: " + report.error();
        } else {
            outcome.scenarios = report.value().scenario_count;
            const std::string mismatch = check_report(report.value(), manifest.bundles[b].expected);
            if (!mismatch.empty()) outcome.error = manifest.bundles[b].name + ": " + mismatch;
        }
        result.record(outcome, b, observe);
        if (!observe) continue;
        ++replayed;
        parse_us += parse_ms * 1000.0;
        (hit ? acquire_hit_ms : acquire_miss_ms) += acquire_ms;
        (hit ? hits : misses) += 1.0;
        inprocess_ms += outcome.ms;
        LayerTotals& layers = result.layers;
        ++layers.ops;
        layers.wall_ms += outcome.ms;
        layers.self_ms["serve.acquire_ms"] += acquire_ms;
        layers.add_trace(observer.trace);
        layers.add_registry(observer.metrics);
    }
    result.extra["replayed"] = static_cast<double>(replayed);
    result.extra["serve.parse_us_total"] = parse_us;
    result.extra["serve.acquire_hit_ms_total"] = acquire_hit_ms;
    result.extra["serve.acquire_miss_ms_total"] = acquire_miss_ms;
    result.extra["serve.acquire_hits"] = hits;
    result.extra["serve.acquire_misses"] = misses;
    result.extra["serve.inprocess_ms_total"] = inprocess_ms;
}

/// Serve closed loop: one connection per schedule entry (two clients),
/// each sending its next assess request only after reading the reply.
RunResult run_serve(const Manifest& manifest, double seconds, bool traced,
                    std::size_t max_requests) {
    RunResult result;
    ServerHandle handle;
    auto started = start_server(manifest);
    if (!started.ok()) {
        result.record(OpOutcome{0.0, 0, "server start: " + started.error()}, 0, false);
        return result;
    }
    handle.server = std::move(started).value();
    if (const std::string error = warm_up_serve(manifest); !error.empty()) {
        result.record(OpOutcome{0.0, 0, "warm-up: " + error}, 0, false);
        return result;
    }

    // Trace mode spends half the time on the live loop and half on the
    // in-process replay of the requests it served.
    const double live_seconds = traced ? seconds / 2.0 : seconds;
    std::mutex result_mutex;
    std::vector<std::size_t> served;  ///< bundle of every request, in completion order
    const auto start = Clock::now();
    const auto deadline = start + std::chrono::duration<double>(live_seconds);
    std::vector<std::thread> clients;
    for (std::size_t c = 0; c < manifest.schedule.size(); ++c) {
        clients.emplace_back([&, c] {
            Client client(manifest.socket);
            const std::vector<std::size_t>& sequence = manifest.schedule[c];
            for (std::size_t i = 0; i < sequence.size() && i < max_requests; ++i) {
                if (Clock::now() >= deadline) break;
                OpOutcome outcome;
                if (!client.connected()) {
                    outcome.error = "cannot connect";
                } else {
                    outcome = serve_op(client, manifest, sequence[i],
                                       "c" + std::to_string(c) + "-" + std::to_string(i));
                }
                std::lock_guard<std::mutex> lock(result_mutex);
                result.record(outcome, sequence[i], false);
                served.push_back(sequence[i]);
                if (!client.connected()) break;
            }
        });
    }
    for (std::thread& client : clients) client.join();
    result.wall_s = std::chrono::duration<double>(Clock::now() - start).count();

    // Daemon-side cache and admission counters, through the metrics op.
    Client probe(manifest.socket);
    std::string reply;
    if (probe.connected() && probe.call("{\"id\":\"m\",\"op\":\"metrics\"}", reply)) {
        auto parsed = json::parse(reply);
        const json::Value* counters =
            parsed.ok() && parsed.value().get("metrics") != nullptr
                ? parsed.value().get("metrics")->get("counters")
                : nullptr;
        if (counters != nullptr) {
            for (const char* name : {"serve.cache.hits", "serve.cache.misses",
                                     "serve.cache.evictions", "serve.requests.overloaded",
                                     "serve.requests.completed"}) {
                result.extra[name] = static_cast<double>(counters->get_int(name, 0));
            }
        }
    }
    if (traced) {
        // The replay's untraced in-process executions replace the client
        // latencies as the untraced samples: trace_overhead compares like
        // with like.
        double client_ms = 0.0;
        for (double ms : result.samples_ms) client_ms += ms;
        result.extra["serve.client_ms_total"] = client_ms;
        result.extra["serve.client_ops"] = static_cast<double>(result.samples_ms.size());
        result.samples_ms.clear();
        result.sample_bundle.clear();
        replay_serve(manifest, served, seconds - live_seconds, result);
    }
    return result;
}

// --- Phases ----------------------------------------------------------------

int phase_setup(const Manifest& manifest) {
    RunResult result;
    double setup_s = 0.0;
    if (manifest.workload == "serve_mixed") {
        const auto start = Clock::now();
        ServerHandle handle;
        auto started = start_server(manifest);
        std::string error = started.ok() ? std::string() : "server start: " + started.error();
        if (started.ok()) {
            handle.server = std::move(started).value();
            error = warm_up_serve(manifest);
        }
        setup_s = ms_since(start) / 1000.0;
        result.record(OpOutcome{setup_s * 1000.0, 0, error}, 0, false);
    } else {
        const OpOutcome outcome = batch_op(manifest.bundles.front(), manifest.config, nullptr);
        setup_s = outcome.ms / 1000.0;
        result.record(outcome, 0, false);
    }
    print_result(result, "setup", setup_s);
    return result.failed == 0 ? 0 : 1;
}

int phase_measure(const Manifest& manifest, double seconds, bool traced, std::size_t max_rounds) {
    const RunResult result = manifest.workload == "serve_mixed"
                                 ? run_serve(manifest, seconds, traced, max_rounds)
                                 : run_batch(manifest, seconds, traced, max_rounds);
    print_result(result, "measure", 0.0);
    return result.failed == 0 ? 0 : 1;
}

/// The expected answer a report gives.
Expected expected_of(const core::AssessmentReport& report) {
    Expected expected;
    expected.scenarios = static_cast<long long>(report.scenario_count);
    for (const epa::ScenarioVerdict& hazard : report.hazards) {
        expected.hazards[hazard.scenario_id] =
            ExpectedHazard{fault_set(hazard), hazard.violated_requirements};
    }
    return expected;
}

/// An expected answer as manifest-style JSON.
json::Value expected_json(const Expected& expected) {
    const auto strings = [](const std::vector<std::string>& values) {
        json::Array out;
        for (const std::string& value : values) out.push_back(value);
        return json::Value(std::move(out));
    };
    json::Array hazards;
    for (const auto& [id, hazard] : expected.hazards) {
        json::Object entry;
        json::set(entry, "id", id);
        json::set(entry, "mutations", strings(hazard.mutations));
        json::set(entry, "violated", strings(hazard.violated));
        hazards.push_back(std::move(entry));
    }
    json::Object out;
    json::set(out, "scenarios", expected.scenarios);
    json::set(out, "hazards", std::move(hazards));
    return json::Value(std::move(out));
}

/// Hazards of the CEGAR ladder recomputed with ground-once off: a scenario
/// is a hazard iff the topology stage flags it and the behavioural stage
/// confirms it (hierarchy/cegar.cpp walk_ladder).
Result<std::map<std::string, std::vector<std::string>>> cegar_without_ground_once(
    const core::Bundle& bundle, const core::AssessmentConfig& config) {
    using R = Result<std::map<std::string, std::vector<std::string>>>;
    const auto matrix = security::AttackMatrix::standard_ics();
    const auto catalog = security::SecurityCatalog::standard_ics();
    const auto mitigations = epa::MitigationMap::from_attack_matrix(bundle.model, matrix);
    security::ScenarioSpaceOptions space_options;
    space_options.max_simultaneous_faults = config.max_simultaneous_faults;
    space_options.include_attack_scenarios = config.include_attack_scenarios;
    const auto space = security::ScenarioSpace::build(
        bundle.model, matrix, security::standard_threat_actors(), space_options, &catalog);
    const auto make = [&](epa::AnalysisFocus focus, const std::vector<epa::Requirement>& reqs) {
        epa::EpaOptions options;
        options.focus = focus;
        options.horizon = config.horizon;
        options.ground_once = false;
        return epa::ErrorPropagationAnalysis::create(bundle.model, reqs, mitigations, options);
    };
    auto topology = make(epa::AnalysisFocus::Topology, bundle.effective_topology());
    auto behavioral = make(epa::AnalysisFocus::Behavioral, bundle.effective_behavioral());
    if (!topology.ok()) return R::failure(topology.error());
    if (!behavioral.ok()) return R::failure(behavioral.error());
    std::map<std::string, std::vector<std::string>> hazards;
    for (const security::AttackScenario& scenario : space.scenarios()) {
        auto top = topology.value().evaluate(scenario, {});
        if (!top.ok()) return R::failure(top.error());
        if (top.value().status == epa::VerdictStatus::Undetermined) {
            return R::failure("undetermined topology verdict on " + scenario.id);
        }
        if (top.value().status != epa::VerdictStatus::Hazard) continue;
        auto behaviour = behavioral.value().evaluate(scenario, {});
        if (!behaviour.ok()) return R::failure(behaviour.error());
        if (behaviour.value().status == epa::VerdictStatus::Undetermined) {
            return R::failure("undetermined behavioural verdict on " + scenario.id);
        }
        if (behaviour.value().status == epa::VerdictStatus::Hazard) {
            hazards[scenario.id] = behaviour.value().violated_requirements;
        }
    }
    return hazards;
}

/// Pins the expected answers of the manifest's bundles under its config:
/// the default path computes them; the prefilter-off, DPLL and
/// ground-once-off paths must agree, or the pin is refused.
int phase_pin(const Manifest& manifest) {
    json::Object out;
    int status = 0;
    for (const BundleCase& bundle : manifest.bundles) {
        DiagnosticSink diagnostics;
        core::Bundle loaded = core::load_bundle_lenient(bundle.text, diagnostics);
        if (diagnostics.has_errors()) {
            std::fprintf(stderr, "pin: %s has load errors\n", bundle.name.c_str());
            return 1;
        }
        const auto matrix = security::AttackMatrix::standard_ics();
        const auto catalog = security::SecurityCatalog::standard_ics();
        const auto mitigations = epa::MitigationMap::from_attack_matrix(loaded.model, matrix);
        core::RiskAssessment assessment(loaded.model, loaded.effective_behavioral(),
                                        loaded.effective_topology(), matrix, mitigations,
                                        &catalog);
        const auto run = [&](const core::AssessmentConfig& config) {
            RunContext ctx;
            return assessment.run(config, ctx);
        };
        auto reference = run(manifest.config);
        if (!reference.ok() || !reference.value().complete()) {
            std::fprintf(stderr, "pin: %s: reference run failed or incomplete\n",
                         bundle.name.c_str());
            return 1;
        }
        const Expected expected = expected_of(reference.value());

        core::AssessmentConfig no_prefilter = manifest.config;
        no_prefilter.static_prefilter = false;
        core::AssessmentConfig dpll = manifest.config;
        dpll.solver = asp::SolverEngine::Dpll;
        for (const auto& [label, config] :
             {std::pair<const char*, const core::AssessmentConfig*>{"static_prefilter off",
                                                                    &no_prefilter},
              {"dpll", &dpll}}) {
            auto other = run(*config);
            const std::string mismatch =
                other.ok() ? check_report(other.value(), expected) : other.error();
            if (!mismatch.empty()) {
                std::fprintf(stderr, "pin: %s: %s path disagrees: %s\n", bundle.name.c_str(),
                             label, mismatch.c_str());
                status = 1;
            }
        }
        if (!manifest.config.exhaustive && manifest.config.use_cegar) {
            auto cold = cegar_without_ground_once(loaded, manifest.config);
            bool agrees = cold.ok() && cold.value().size() == expected.hazards.size();
            for (const auto& [id, hazard] : expected.hazards) {
                if (!agrees) break;
                const auto it = cold.value().find(id);
                agrees = it != cold.value().end() && it->second == hazard.violated;
            }
            if (!agrees) {
                std::fprintf(stderr, "pin: %s: ground_once off path disagrees%s%s\n",
                             bundle.name.c_str(), cold.ok() ? "" : ": ",
                             cold.ok() ? "" : cold.error().c_str());
                status = 1;
            }
        }
        json::set(out, bundle.name, expected_json(expected));
    }
    std::printf("%s\n", json::Value(std::move(out)).serialize().c_str());
    return status;
}

}  // namespace

int main(int argc, char** argv) {
    std::string manifest_path;
    std::string phase = "measure";
    double seconds = 10.0;
    bool traced = false;
    std::size_t max_rounds = static_cast<std::size_t>(-1);
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--manifest") {
            manifest_path = value;
        } else if (flag == "--phase") {
            phase = value;
        } else if (flag == "--seconds") {
            seconds = std::stod(value);
        } else if (flag == "--trace") {
            traced = value == "1";
        } else if (flag == "--max-rounds") {
            max_rounds = static_cast<std::size_t>(std::stoul(value));
        } else {
            std::fprintf(stderr, "e2e_harness: unknown flag %s\n", flag.c_str());
            return 2;
        }
    }
    auto manifest = load_manifest(manifest_path);
    if (!manifest.ok()) {
        std::fprintf(stderr, "e2e_harness: %s\n", manifest.error().c_str());
        return 2;
    }
    if (phase == "setup") return phase_setup(manifest.value());
    if (phase == "measure") return phase_measure(manifest.value(), seconds, traced, max_rounds);
    if (phase == "pin") return phase_pin(manifest.value());
    std::fprintf(stderr, "e2e_harness: unknown phase %s\n", phase.c_str());
    return 2;
}
