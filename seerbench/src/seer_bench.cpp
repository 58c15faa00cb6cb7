/**
 * @file
 * seer-bench replay process: one workload, one seed, one pass over the
 * stream, one JSON result line on stdout.
 *
 *   seer_bench --workload NAME --seed N --mode MODE [--workdir DIR]
 *              [--spin-ns NS] [--line-times FILE] [--spans FILE]
 *
 * Modes:
 *   shape    print the stream's shape and exit (no replay)
 *   replay   the measured run: every line through feedLine, every
 *            report through reportToJson, then finish(); two clock reads
 *            per line, the per-line times written to --line-times
 *   bare, flight, vault
 *            traced: the workload's ingest configuration with nothing
 *            more (bare), with the flight recorder (flight), or with the
 *            flight recorder behind the vault (vault); spans around each
 *            feedLine call, its report JSON and explicit checkpoints.
 *            The workload's own configuration is vault on the durable
 *            workload and bare on the others.
 *   layers   traced: feedLine re-driven layer by layer through each
 *            module's public API in WorkflowMonitor::deliver's order
 *            (decode, parse+find+intern, sweep, feed); on the durable
 *            workload, whose ingest guards sit between parse and the
 *            checker, decode and then WorkflowMonitor::feed as one layer
 *   unguarded
 *            traced, durable workload only: the layer-by-layer pass
 *            without the ingest guards (its verdicts differ)
 *
 * Each process replays once. The identifier interner is process-wide
 * and never shrinks, so a second pass in the same process would see
 * only interner hits on a pre-grown table; repetitions are separate
 * processes (see run.py).
 */

#include <malloc.h>
#include <unistd.h>

#include <algorithm>
#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "analysis/interference.hpp"
#include "analysis/model_lint.hpp"
#include "core/checker/interleaved_checker.hpp"
#include "core/monitor/report_json.hpp"
#include "core/monitor/timeout_estimator.hpp"
#include "core/monitor/workflow_monitor.hpp"
#include "logging/identifier_interner.hpp"
#include "logging/log_codec.hpp"
#include "logging/variable_extractor.hpp"
#include "scoring.hpp"
#include "spans.hpp"
#include "vault/vaulted_monitor.hpp"
#include "workloads.hpp"

#ifndef SEERBENCH_BUILD_TYPE
#define SEERBENCH_BUILD_TYPE "unknown"
#endif

namespace seerbench {
namespace {

using namespace cloudseer;
namespace fs = std::filesystem;

/** Inputs between vault checkpoints on the durable workload. */
constexpr std::uint64_t kCheckpointEvery = 4096;

/** Identifier tokens per report the harness makes room for. */
constexpr std::size_t kIdsPerReport = 16;

/** Monitor set-ups per process; setup_s is the run's fastest (run.py). */
constexpr int kSetups = 7;

struct Options
{
    std::string workload;
    std::string mode = "replay";
    std::string workdir = ".";
    std::string spans;
    std::string lineTimes;
    std::uint64_t seed = 1;
    std::int64_t spinNs = 0;
};

bool
parseArgs(int argc, char **argv, Options &out)
{
    for (int i = 1; i < argc; ++i) {
        std::string flag = argv[i];
        if (i + 1 >= argc)
            return false;
        std::string value = argv[++i];
        if (flag == "--workload")
            out.workload = value;
        else if (flag == "--mode")
            out.mode = value;
        else if (flag == "--workdir")
            out.workdir = value;
        else if (flag == "--spans")
            out.spans = value;
        else if (flag == "--line-times")
            out.lineTimes = value;
        else if (flag == "--seed")
            out.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--spin-ns")
            out.spinNs = std::strtoll(value.c_str(), nullptr, 10);
        else
            return false;
    }
    return !out.workload.empty();
}

/** A size field of /proc/self/status (VmRSS:, VmHWM:), MiB. */
double
statusMb(const std::string &field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.compare(0, field.size(), field) == 0)
            return std::strtod(line.c_str() + field.size(), nullptr) /
                   1024.0;
    }
    return 0.0;
}

/** Reset the peak resident set (VmHWM) to the current one. */
bool
resetPeakRss()
{
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
    out.flush();
    return static_cast<bool>(out);
}

/** FNV-1a over the verdict JSON stream, one line per report. */
struct Digest
{
    std::uint64_t hash = 1469598103934665603ULL;

    void
    add(const std::string &line)
    {
        for (unsigned char c : line)
            hash = (hash ^ c) * 1099511628211ULL;
        hash = (hash ^ '\n') * 1099511628211ULL;
    }

    std::string
    hex() const
    {
        char buf[24];
        std::snprintf(buf, sizeof buf, "%016" PRIx64, hash);
        return buf;
    }
};

void
spin(std::int64_t ns)
{
    if (ns <= 0)
        return;
    std::int64_t until = nowNs() + ns;
    while (nowNs() < until) {
    }
}

/** The monitor under test: bare, or behind the vault. */
struct Subject
{
    std::unique_ptr<core::WorkflowMonitor> plain;
    std::unique_ptr<vault::VaultedMonitor> vaulted;

    std::vector<core::MonitorReport>
    feedLine(const std::string &line)
    {
        return vaulted ? vaulted->feedLine(line) : plain->feedLine(line);
    }

    std::vector<core::MonitorReport>
    finish()
    {
        return vaulted ? vaulted->finish() : plain->finish();
    }

    core::WorkflowMonitor &
    monitor()
    {
        return vaulted ? vaulted->monitor() : *plain;
    }
};

core::MonitorConfig
monitorConfig(const WorkloadSpec &spec, bool flight)
{
    core::MonitorConfig config;
    if (spec.durable)
        config.ingest = core::hardenedIngestDefaults();
    if (flight)
        config.observability.flightRecorder.perNodeCapacity = 32;
    return config;
}

/** What the set-up of one monitor cost. */
struct SetupCost
{
    double miningMs = 0.0;
    double totalS = 0.0; ///< mining + construction (seer-lint, -prove)
};

/**
 * Mine the models and construct the subject kSetups times (earlier
 * instances are dropped); returns the last and every attempt's cost.
 */
Subject
setUp(const WorkloadSpec &spec, const std::string &mode,
      const std::vector<TaskRuns> &training, const fs::path &workdir,
      std::vector<SetupCost> &costs)
{
    const bool own = mode == "replay";
    const bool vaulted = mode == "vault" || (own && spec.durable);
    const bool flight = vaulted || mode == "flight";
    Subject subject;
    for (int k = 0; k < kSetups; ++k) {
        subject = Subject{};
        fs::path dir = workdir / ("vault-" + std::to_string(k));
        fs::remove_all(dir);

        std::int64_t t0 = nowNs();
        Models models = mineModels(training);
        std::int64_t t1 = nowNs();
        core::MonitorConfig config = monitorConfig(spec, flight);
        if (vaulted) {
            vault::VaultConfig vc;
            vc.directory = dir.string();
            // The traced run checkpoints explicitly, inside its own
            // span, at the same cadence.
            vc.checkpointEveryRecords =
                mode == "replay" ? kCheckpointEvery : 0;
            subject.vaulted = std::make_unique<vault::VaultedMonitor>(
                vc, config, models.catalog, std::move(models.automata));
        } else {
            subject.plain = std::make_unique<core::WorkflowMonitor>(
                config, models.catalog, std::move(models.automata));
        }
        std::int64_t t2 = nowNs();
        costs.push_back({(t1 - t0) / 1e6, (t2 - t0) / 1e9});
    }
    return subject;
}

/**
 * Everything a pass produced, for scoring and the result line. Reports
 * are not kept: each is rendered to JSON, digested, reduced to what
 * scoring needs and dropped.
 */
struct Pass
{
    Verdicts verdicts;
    Digest digest;
    std::vector<std::int64_t> lineNs; ///< measured replay only
    std::int64_t finishNs = 0; ///< finish() and its report JSON
    std::int64_t elapsedNs = 0;
    std::size_t malformed = 0;
};

/** The consumer's share of a line: every report rendered to JSON. */
void
render(const std::vector<core::MonitorReport> &reports,
       const logging::TemplateCatalog &catalog,
       std::vector<std::string> &json)
{
    json.clear();
    for (const core::MonitorReport &report : reports)
        json.push_back(core::reportToJson(report, catalog));
}

/** Digest the rendered reports and keep what scoring needs (untimed). */
void
keep(Pass &pass, const std::vector<core::MonitorReport> &reports,
     const std::vector<std::string> &json)
{
    for (std::size_t k = 0; k < reports.size(); ++k) {
        pass.digest.add(json[k]);
        pass.verdicts.add(reports[k].event);
    }
}

/**
 * The measured replay: feedLine + report JSON per line, then finish().
 * A line's time ends when its reports are rendered; digesting and
 * dropping them is the harness's work and is not timed.
 */
void
replay(Subject &subject, const Stream &stream, std::int64_t spin_ns,
       Pass &pass)
{
    const logging::TemplateCatalog &catalog = subject.monitor().catalog();
    std::vector<std::string> json;
    std::int64_t start = nowNs();
    for (std::size_t i = 0; i < stream.lines.size(); ++i) {
        std::int64_t t0 = nowNs();
        std::vector<core::MonitorReport> reports =
            subject.feedLine(stream.lines[i]);
        render(reports, catalog, json);
        spin(spin_ns);
        pass.lineNs[i] = nowNs() - t0;
        keep(pass, reports, json);
    }
    std::int64_t tail_start = nowNs();
    std::vector<core::MonitorReport> tail = subject.finish();
    render(tail, catalog, json);
    std::int64_t end = nowNs();
    keep(pass, tail, json);
    pass.elapsedNs = end - start;
    pass.finishNs = end - tail_start;
    pass.malformed = subject.monitor().malformedLines();
}

/** Traced counters beyond the span totals, by metric name. */
using Counters = std::map<std::string, double>;

/** Report rates by kind, per thousand lines. */
void
countKinds(const Verdicts &verdicts, double lines, Counters &counters)
{
    using core::CheckEventKind;
    const std::pair<const char *, std::size_t> kinds[] = {
        {"accepted", verdicts.count(CheckEventKind::Accepted)},
        {"error", verdicts.count(CheckEventKind::ErrorDetected)},
        {"timeout", verdicts.count(CheckEventKind::Timeout) +
                        verdicts.count(CheckEventKind::LatencyAnomaly)},
        {"degraded", verdicts.count(CheckEventKind::Degraded)}};
    for (const auto &[kind, count] : kinds)
        counters[std::string("monitor.reports_per_kline.") + kind] =
            static_cast<double>(count) * 1000.0 / lines;
}

/** Traced replay through the monitor (or the vaulted monitor). */
void
traceMonitor(Subject &subject, const Stream &stream, SpanLog &log,
             Counters &counters, Pass &pass)
{
    const logging::TemplateCatalog &catalog = subject.monitor().catalog();
    const std::uint16_t kLine = log.name("line");
    const std::uint16_t kFeed = log.name("monitor.feed");
    const std::uint16_t kJson = log.name("monitor.report_json");
    const std::uint16_t kCheckpoint = log.name("vault.checkpoint");
    std::vector<std::string> json;
    double groups_sum = 0.0;
    std::size_t groups_peak = 0;
    std::uint64_t wal_bytes = 0;
    std::uint64_t ckpt_bytes = 0;
    std::uint64_t ckpts = 0;
    std::int64_t start = nowNs();
    for (std::size_t i = 0; i < stream.lines.size(); ++i) {
        auto id = static_cast<std::uint32_t>(i);
        std::int32_t line = log.open(kLine, id);
        std::int32_t feed = log.open(kFeed, id, line);
        std::vector<core::MonitorReport> reports =
            subject.feedLine(stream.lines[i]);
        log.close(feed);
        std::int32_t span = log.open(kJson, id, line);
        render(reports, catalog, json);
        log.close(span);
        log.close(line);
        keep(pass, reports, json);

        std::size_t groups = subject.monitor().activeGroups();
        groups_sum += static_cast<double>(groups);
        groups_peak = std::max(groups_peak, groups);
        if (subject.vaulted && (i + 1) % kCheckpointEvery == 0) {
            wal_bytes += subject.vaulted->stats().walBytes;
            std::int32_t ckpt = log.open(kCheckpoint, id);
            subject.vaulted->checkpoint();
            log.close(ckpt);
            ckpt_bytes += subject.vaulted->stats().lastCheckpointBytes;
            ++ckpts;
        }
    }
    if (subject.vaulted)
        wal_bytes += subject.vaulted->stats().walBytes;
    std::vector<core::MonitorReport> tail = subject.finish();
    render(tail, catalog, json);
    keep(pass, tail, json);
    pass.elapsedNs = nowNs() - start;
    pass.malformed = subject.monitor().malformedLines();

    const double lines = static_cast<double>(stream.lines.size());
    const core::CheckerStats &stats = subject.monitor().stats();
    double recoveries = static_cast<double>(
        stats.recoveredPassUnknown + stats.recoveredNewSequence +
        stats.recoveredOtherSet + stats.recoveredFalseDependency);
    counters["checker.groups_mean"] = groups_sum / lines;
    counters["checker.groups_peak"] = static_cast<double>(groups_peak);
    counters["checker.decisive_frac"] = stats.decisiveFraction();
    counters["checker.consume_attempts_per_line"] =
        static_cast<double>(stats.consumeAttempts) / lines;
    counters["checker.recoveries_per_kline"] = recoveries * 1000.0 / lines;
    counters["logging.interner_entries"] = static_cast<double>(
        logging::IdentifierInterner::process().size());
    countKinds(pass.verdicts, lines, counters);
    if (const obs::FlightRecorder *flight =
            subject.monitor().flightRecorder()) {
        double bytes = 0.0;
        for (const std::string &bundle : flight->bundles())
            bytes += static_cast<double>(bundle.size());
        double kept = static_cast<double>(flight->bundles().size());
        counters["flight.bundle_bytes"] = kept == 0 ? 0.0 : bytes / kept;
    }
    if (subject.vaulted) {
        counters["vault.wal_bytes_per_line"] =
            static_cast<double>(wal_bytes) / lines;
        counters["vault.checkpoint_bytes"] =
            ckpts == 0 ? 0.0
                       : static_cast<double>(ckpt_bytes) /
                             static_cast<double>(ckpts);
    }
}

/**
 * Traced replay of feedLine as two layers, for the durable workload:
 * decodeLogLine, then WorkflowMonitor::feed on the decoded record. The
 * second layer is everything the monitor does after decode (ingest
 * guards, parse, sweep, checker feed) timed as one, because the guards
 * (reorder, dedup, shed) stop a layer-by-layer checker pass from
 * matching the monitor. The reports are the monitor's own.
 */
void
traceIngest(Subject &subject, const Stream &stream, SpanLog &log,
            Pass &pass)
{
    core::WorkflowMonitor &monitor = subject.monitor();
    const logging::TemplateCatalog &catalog = monitor.catalog();
    const std::uint16_t kLine = log.name("line");
    const std::uint16_t kDecode = log.name("logging.decode");
    const std::uint16_t kIngest = log.name("monitor.ingest");
    const std::uint16_t kJson = log.name("monitor.report_json");
    std::vector<std::string> json;
    std::int64_t start = nowNs();
    for (std::size_t i = 0; i < stream.lines.size(); ++i) {
        auto id = static_cast<std::uint32_t>(i);
        std::int32_t line = log.open(kLine, id);

        std::int32_t span = log.open(kDecode, id, line);
        logging::DecodeFailure why = logging::DecodeFailure::None;
        std::optional<logging::LogRecord> record =
            logging::decodeLogLine(stream.lines[i], &why);
        log.close(span);
        if (!record) {
            ++pass.malformed;
            log.close(line);
            continue;
        }

        span = log.open(kIngest, id, line);
        std::vector<core::MonitorReport> reports = monitor.feed(*record);
        log.close(span);

        span = log.open(kJson, id, line);
        render(reports, catalog, json);
        log.close(span);
        log.close(line);
        keep(pass, reports, json);
    }
    std::vector<core::MonitorReport> tail = monitor.finish();
    render(tail, catalog, json);
    keep(pass, tail, json);
    pass.elapsedNs = nowNs() - start;
}

/**
 * Traced replay of WorkflowMonitor::deliver's default-config pipeline,
 * driven layer by layer from here. Reports are the monitor's reports
 * only if this mirrors deliver() exactly; the digest check proves it.
 * On the durable workload the monitor also runs the ingest guards
 * (reorder, dedup, shed), which this pass does not: there it is the
 * "unguarded" role, which times parse and the checker on the same
 * traffic without the guards, and its reports are not compared.
 */
void
traceLayers(const WorkloadSpec &spec, const Models &models,
            const Stream &stream, SpanLog &log, Pass &pass)
{
    core::MonitorConfig config = monitorConfig(spec, false);
    std::vector<const core::TaskAutomaton *> pointers;
    for (const core::TaskAutomaton &automaton : models.automata)
        pointers.push_back(&automaton);
    core::InterleavedChecker checker(config.checker, pointers);
    analysis::InterferenceOptions prove;
    prove.maxForkFanout = config.checker.maxForkFanout;
    prove.numbersAsIdentifiers = config.numbersAsIdentifiers;
    checker.setCertifiedTemplates(
        analysis::analyzeInterference(models.automata, *models.catalog,
                                      prove)
            .certificate.certifiedBits(models.catalog->size()));
    core::TimeoutPolicy policy;
    policy.defaultTimeout = config.timeoutSeconds;
    auto resolver = [&policy](const std::vector<std::string> &tasks) {
        return policy.timeoutForCandidates(tasks);
    };

    const logging::TemplateCatalog &catalog = *models.catalog;
    logging::VariableExtractor extractor;
    logging::IdentifierInterner &interner =
        logging::IdentifierInterner::process();
    const std::uint16_t kLine = log.name("line");
    const std::uint16_t kDecode = log.name("logging.decode");
    const std::uint16_t kParse = log.name("logging.parse");
    const std::uint16_t kSweep = log.name("checker.sweep");
    const std::uint16_t kFeed = log.name("checker.feed");
    const std::uint16_t kJson = log.name("monitor.report_json");
    std::vector<std::string> json;

    common::SimTime last = 0.0;
    bool any = false;
    std::int64_t start = nowNs();
    for (std::size_t i = 0; i < stream.lines.size(); ++i) {
        auto id = static_cast<std::uint32_t>(i);
        std::int32_t line = log.open(kLine, id);

        std::int32_t span = log.open(kDecode, id, line);
        logging::DecodeFailure why = logging::DecodeFailure::None;
        std::optional<logging::LogRecord> record =
            logging::decodeLogLine(stream.lines[i], &why);
        log.close(span);
        if (!record) {
            ++pass.malformed;
            log.close(line);
            continue;
        }

        // Timestamp guard at the default (no clamp).
        common::SimTime now = std::max(last, record->timestamp);
        last = now;
        any = true;

        span = log.open(kParse, id, line);
        core::CheckMessage message;
        logging::ParsedBody parsed = extractor.parse(record->body);
        message.tpl = catalog.find(record->service, parsed.templateText);
        for (logging::Variable &var : parsed.variables) {
            if (var.kind == logging::VariableKind::Number &&
                !config.numbersAsIdentifiers)
                continue;
            logging::IdToken token = interner.intern(var.text);
            if (token == logging::kInvalidIdToken)
                continue;
            message.identifiers.push_back(token);
        }
        message.level = record->level;
        message.record = record->id;
        message.time = record->timestamp;
        log.close(span);

        std::vector<core::MonitorReport> reports;
        span = log.open(kSweep, id, line);
        for (core::CheckEvent &event : checker.sweepTimeouts(now, resolver))
            reports.push_back({std::move(event), false});
        log.close(span);

        span = log.open(kFeed, id, line);
        for (core::CheckEvent &event : checker.feed(message))
            reports.push_back({std::move(event), false});
        log.close(span);

        span = log.open(kJson, id, line);
        render(reports, catalog, json);
        log.close(span);
        log.close(line);
        keep(pass, reports, json);
    }

    // WorkflowMonitor::finish at the default config: one last sweep
    // past the horizon, then flush the open groups.
    std::vector<core::MonitorReport> tail;
    if (any) {
        common::SimTime horizon = last + config.timeoutSeconds * 1.001;
        for (core::CheckEvent &event :
             checker.sweepTimeouts(horizon, resolver))
            tail.push_back({std::move(event), true});
        for (core::CheckEvent &event : checker.finish(horizon))
            tail.push_back({std::move(event), true});
    }
    render(tail, catalog, json);
    keep(pass, tail, json);
    pass.elapsedNs = nowNs() - start;
}

/** The seer-lint + seer-prove passes a monitor runs at load, ms. */
double
verifyMs(const Models &models)
{
    core::MonitorConfig config;
    std::int64_t t0 = nowNs();
    analysis::LintOptions lint;
    lint.maxForkFanout = config.checker.maxForkFanout;
    lint.defaultTimeout = config.timeoutSeconds;
    analysis::LintReport report =
        analysis::lintModels(models.automata, *models.catalog, lint);
    analysis::InterferenceOptions prove;
    prove.maxForkFanout = config.checker.maxForkFanout;
    analysis::InterferenceResult result = analysis::analyzeInterference(
        models.automata, *models.catalog, prove);
    report.merge(std::move(result.report));
    return (nowNs() - t0) / 1e6;
}

/**
 * Vault open cost: constructing the vaulted monitor over an empty
 * directory minus constructing the same monitor bare, median of three.
 */
double
vaultOpenMs(const WorkloadSpec &spec, const Models &models,
            const fs::path &workdir)
{
    std::vector<double> diffs;
    for (int k = 0; k < 3; ++k) {
        core::MonitorConfig config = monitorConfig(spec, true);
        std::int64_t t0 = nowNs();
        {
            core::WorkflowMonitor bare(config, models.catalog,
                                       models.automata);
        }
        std::int64_t t1 = nowNs();
        fs::path dir = workdir / "vault-open";
        fs::remove_all(dir);
        vault::VaultConfig vc;
        vc.directory = dir.string();
        {
            vault::VaultedMonitor vm(vc, config, models.catalog,
                                     models.automata);
        }
        std::int64_t t2 = nowNs();
        fs::remove_all(dir);
        diffs.push_back(((t2 - t1) - (t1 - t0)) / 1e6);
    }
    std::sort(diffs.begin(), diffs.end());
    return diffs[1];
}

/** Write native int64 values to `path`; false on failure. */
bool
writeTimes(const std::string &path, const std::vector<std::int64_t> &ns)
{
    std::ofstream out(path, std::ios::binary);
    out.write(reinterpret_cast<const char *>(ns.data()),
              static_cast<std::streamsize>(ns.size() * sizeof(std::int64_t)));
    return static_cast<bool>(out);
}

std::string
fmt(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.9g", value);
    return buf;
}

int
run(const Options &opt)
{
    const WorkloadSpec *spec = findWorkload(opt.workload);
    if (spec == nullptr) {
        std::fprintf(stderr, "seer_bench: unknown workload '%s'\n",
                     opt.workload.c_str());
        return 2;
    }
    const std::string &mode = opt.mode;
    const bool traced = mode != "replay" && mode != "shape";
    if (mode != "replay" && mode != "shape" && mode != "bare" &&
        mode != "flight" && mode != "vault" && mode != "layers" &&
        !(mode == "unguarded" && spec->durable)) {
        std::fprintf(stderr, "seer_bench: unknown mode '%s'\n",
                     mode.c_str());
        return 2;
    }

    // Generator work: never timed.
    Stream stream = generateStream(*spec, opt.seed);
    Shape shape = shapeOf(stream);
    if (mode == "shape") {
        std::printf("{\"shape\":%s}\n", shapeJson(shape).c_str());
        return 0;
    }
    std::vector<TaskRuns> training = generateTraining(opt.seed);

    // Fixed width: with address-space randomisation off, the heap, and
    // so peak_rss_mb, follows the sizes of everything allocated before
    // the replay, down to this name.
    char scratch_name[32];
    std::snprintf(scratch_name, sizeof scratch_name, "seer-bench-%010ld",
                  static_cast<long>(getpid()));
    fs::path workdir = fs::path(opt.workdir) / scratch_name;
    fs::create_directories(workdir);

    // The default pipeline re-driven layer by layer: "layers" on the
    // workloads without ingest guards, "unguarded" on the durable one.
    const bool split =
        mode == "unguarded" || (mode == "layers" && !spec->durable);
    std::vector<SetupCost> costs;
    Subject subject;
    Models layer_models;
    if (split) {
        // The layered pass builds its own checker from the models.
        layer_models = mineModels(training);
    } else {
        subject = setUp(*spec, mode, training, workdir, costs);
    }
    training.clear();
    training.shrink_to_fit();
    // Return freed generator memory so the growth measured below is the
    // replay's own.
    malloc_trim(0);
    // The harness's own storage is allocated and touched before the
    // baseline, so the growth measured below is the monitor's.
    Pass pass;
    const std::size_t report_room =
        stream.lines.size() + stream.executions.size();
    pass.verdicts.preallocate(report_room, report_room * kIdsPerReport);
    if (mode == "replay")
        pass.lineNs.assign(stream.lines.size(), 0);
    SpanLog log(traced ? stream.lines.size() * 6 + 64 : 0);
    // Peak resident-set growth over the pass, exact: the kernel's
    // high-water mark, reset here and read as soon as the pass ends.
    if (!resetPeakRss()) {
        std::fprintf(stderr, "seer_bench: cannot reset the peak RSS\n");
        return 1;
    }
    const double rss_before = statusMb("VmRSS:");

    Counters counters;
    if (mode == "replay")
        replay(subject, stream, opt.spinNs, pass);
    else if (split)
        traceLayers(*spec, layer_models, stream, log, pass);
    else if (mode == "layers")
        traceIngest(subject, stream, log, pass);
    else
        traceMonitor(subject, stream, log, counters, pass);
    const double rss_growth = statusMb("VmHWM:") - rss_before;

    Score score = scoreVerdicts(stream, pass.verdicts);

    if (mode == "bare") {
        counters["analysis.verify_ms"] =
            verifyMs(mineModels(generateTraining(opt.seed)));
    } else if (mode == "vault") {
        counters["vault.recover_ms"] = vaultOpenMs(
            *spec, mineModels(generateTraining(opt.seed)), workdir);
    }
    subject = Subject{};
    fs::remove_all(workdir);

    const double lines = static_cast<double>(stream.lines.size());
    std::string out = "{\"mode\":\"" + mode + "\",\"workload\":\"" +
                      spec->name + "\",\"seed\":" +
                      std::to_string(opt.seed);
    out += ",\"lines\":" + std::to_string(stream.lines.size());
    out += ",\"malformed\":" + std::to_string(pass.malformed);
    out += ",\"reports\":" + std::to_string(pass.verdicts.size());
    out += ",\"digest\":\"" + pass.digest.hex() + "\"";
    out += ",\"executions\":" + std::to_string(score.executions);
    out += ",\"faulted\":" + std::to_string(score.faulted);
    out += ",\"failed\":" + std::to_string(score.failed());
    out += ",\"correct_missed\":" + std::to_string(score.correctMissed);
    out += ",\"faulted_missed\":" + std::to_string(score.faultedMissed);
    out += ",\"unmapped_reports\":" +
           std::to_string(score.unmappedReports);
    out += ",\"fail_frac\":" + fmt(score.failFrac());
    out += ",\"setup_s\":[";
    for (std::size_t k = 0; k < costs.size(); ++k)
        out += (k ? "," : "") + fmt(costs[k].totalS);
    out += "],\"mining_ms\":[";
    for (std::size_t k = 0; k < costs.size(); ++k)
        out += (k ? "," : "") + fmt(costs[k].miningMs);
    out += "]";
    out += ",\"elapsed_s\":" + fmt(pass.elapsedNs / 1e9);
    out += ",\"throughput_lps\":" + fmt(lines / (pass.elapsedNs / 1e9));
    out += ",\"finish_ns\":" + std::to_string(pass.finishNs);
    // Per-line times for run.py's cross-process estimators: the service
    // times of a replay, or each span name's per-line duration (as
    // <path>.<name>) of a traced pass.
    if (!opt.lineTimes.empty()) {
        bool ok = true;
        if (traced) {
            for (const std::string &name : log.spanNames()) {
                ok = ok && writeTimes(opt.lineTimes + "." + name,
                                      log.perLine(name, stream.lines.size()));
            }
        } else {
            ok = writeTimes(opt.lineTimes, pass.lineNs);
        }
        if (!ok) {
            std::fprintf(stderr, "seer_bench: cannot write %s\n",
                         opt.lineTimes.c_str());
            return 1;
        }
    }
    out += ",\"rss_growth_mb\":" + fmt(rss_growth);
    out += ",\"shape\":" + shapeJson(shape);
    if (traced) {
        out += ",\"spans\":{";
        bool first = true;
        for (const auto &[name, t] : log.totals()) {
            out += std::string(first ? "" : ",") + "\"" + name +
                   "\":{\"count\":" + std::to_string(t.count) +
                   ",\"total_ns\":" + std::to_string(t.totalNs) +
                   ",\"self_ns\":" + std::to_string(t.selfNs) + "}";
            first = false;
        }
        out += "},\"counters\":{";
        first = true;
        for (const auto &[name, value] : counters) {
            out += std::string(first ? "" : ",") + "\"" + name +
                   "\":" + fmt(value);
            first = false;
        }
        out += "}";
        if (!opt.spans.empty() && !log.write(opt.spans)) {
            std::fprintf(stderr, "seer_bench: cannot write %s\n",
                         opt.spans.c_str());
            return 1;
        }
    }
    out += ",\"env\":{\"hw_threads\":" +
           std::to_string(std::thread::hardware_concurrency()) +
           ",\"compiler\":\"" + std::string(__VERSION__) +
           "\",\"build_type\":\"" SEERBENCH_BUILD_TYPE "\"}";
    out += "}";
    std::printf("%s\n", out.c_str());
    return 0;
}

} // namespace
} // namespace seerbench

int
main(int argc, char **argv)
{
    seerbench::Options opt;
    if (!seerbench::parseArgs(argc, argv, opt)) {
        std::fprintf(stderr,
                     "usage: seer_bench --workload NAME --seed N "
                     "[--mode replay|shape|bare|flight|vault|layers|unguarded] "
                     "[--workdir DIR] [--spin-ns NS] "
                     "[--line-times FILE] [--spans FILE]\n");
        return 2;
    }
    return seerbench::run(opt);
}
