#include "workloads.hpp"

#include <algorithm>
#include <cstdio>
#include <unordered_set>

#include "collect/stream_merger.hpp"
#include "core/mining/model_builder.hpp"
#include "logging/log_codec.hpp"
#include "logging/variable_extractor.hpp"
#include "sim/simulation.hpp"
#include "workload/workload_generator.hpp"

namespace seerbench {

using namespace cloudseer;

namespace {

/** Training executions per task; above the modeling harness's
 *  convergence floor (60 runs plus four stable checks of 20). */
constexpr std::size_t kTrainingRunsPerTask = 160;

const std::vector<WorkloadSpec> &
allWorkloads()
{
    static const std::vector<WorkloadSpec> specs = [] {
        std::vector<WorkloadSpec> out;

        // The paper's Table 3 regime, extended in time: distinct users,
        // each running one task at a time, tens of executions open.
        WorkloadSpec mix;
        mix.name = "paper-mix";
        mix.users = 160;
        mix.tasksPerUser = 24;
        mix.userStagger = 1.0;
        out.push_back(mix);

        // Bursts: 300 users start within 3 s, so each wave of tasks
        // opens ~300 executions at once and every record's timeout sweep
        // walks a large live set. (1000 users, as first planned, spilled
        // the live set out of the per-core cache and made throughput
        // follow the host's shared-cache load by up to a third.)
        WorkloadSpec burst;
        burst.name = "burst-300";
        burst.users = 300;
        burst.tasksPerUser = 6;
        burst.userStagger = 0.01;
        out.push_back(burst);

        // One shared identity (identifier ambiguity) with Table 4
        // style fault injection, run through the hardened ingest
        // guards, the flight recorder and the vault.
        WorkloadSpec faulty;
        faulty.name = "faulty-durable";
        faulty.users = 48;
        faulty.tasksPerUser = 50;
        faulty.singleUid = true;
        faulty.userStagger = 1.0;
        faulty.faultPoint = sim::InjectionPoint::AmqpSender;
        faulty.durable = true;
        out.push_back(faulty);
        return out;
    }();
    return specs;
}

} // namespace

const WorkloadSpec *
findWorkload(const std::string &name)
{
    for (const WorkloadSpec &spec : allWorkloads()) {
        if (spec.name == name)
            return &spec;
    }
    return nullptr;
}

Stream
generateStream(const WorkloadSpec &spec, std::uint64_t seed)
{
    sim::Simulation simulation(sim::SimConfig{}, seed);
    if (spec.faultPoint != sim::InjectionPoint::None) {
        simulation.setInjector(sim::FaultInjector(
            spec.faultPoint, spec.triggerProbability, 0.7,
            seed ^ 0xfa17ULL));
    }
    workload::WorkloadConfig wl;
    wl.users = spec.users;
    wl.tasksPerUser = spec.tasksPerUser;
    wl.singleUid = spec.singleUid;
    wl.userStagger = spec.userStagger;
    wl.interTaskWait = spec.interTaskWait;
    wl.seed = seed ^ 0x3141ULL;
    workload::WorkloadGenerator(wl).submitAll(simulation);
    simulation.run();

    collect::ShippingConfig ship;
    ship.seed = seed ^ 0x5a1cULL;

    Stream out;
    out.records = collect::mergeStream(simulation.records(), ship);
    out.lines.reserve(out.records.size());
    for (const logging::LogRecord &record : out.records)
        out.lines.push_back(logging::encodeLogLine(record));
    for (const sim::ExecutionInfo &info :
         simulation.truth().executions()) {
        if (info.anyEmission)
            out.executions.push_back(info);
    }
    out.injections = simulation.injector().records();
    return out;
}

std::vector<TaskRuns>
generateTraining(std::uint64_t seed)
{
    // The modeling harness's procedure: each task runs alone on its own
    // deployment, runs spaced so their windows never overlap, with
    // background noise in every window.
    std::vector<TaskRuns> out;
    std::uint64_t task_seed = seed * 131 + 2016;
    for (sim::TaskType type : sim::kAllTaskTypes) {
        sim::Simulation simulation(sim::SimConfig{}, task_seed);
        sim::UserProfile user = simulation.makeUser();
        TaskRuns task{sim::taskTypeName(type), {}};
        std::size_t cursor = 0;
        common::SimTime start = 1.0;
        std::uint64_t ship_seed = task_seed ^ 0x5eedf00dULL;
        for (std::size_t run = 0; run < kTrainingRunsPerTask; ++run) {
            sim::VmHandle vm = simulation.makeVm();
            simulation.submit(type, start, user, vm);
            start += 30.0;
            simulation.run();
            const auto &all = simulation.records();
            std::vector<logging::LogRecord> window(
                all.begin() + static_cast<long>(cursor), all.end());
            cursor = all.size();
            collect::ShippingConfig ship;
            ship.seed = ship_seed++;
            task.runs.push_back(collect::mergeStream(window, ship));
        }
        out.push_back(std::move(task));
        ++task_seed;
    }
    return out;
}

Models
mineModels(const std::vector<TaskRuns> &training)
{
    Models out;
    out.catalog = std::make_shared<logging::TemplateCatalog>();
    core::TaskModeler modeler(*out.catalog);
    for (const TaskRuns &task : training) {
        std::vector<core::TemplateSequence> sequences;
        sequences.reserve(task.runs.size());
        for (const auto &run : task.runs)
            sequences.push_back(modeler.toTemplateSequence(run));
        out.automata.push_back(
            modeler.buildAutomaton(task.task, sequences));
    }
    return out;
}

Shape
shapeOf(const Stream &stream)
{
    Shape shape;
    shape.lines = stream.lines.size();
    shape.executions = stream.executions.size();

    // Executions open at each line's timestamp: +1 at first emission,
    // -1 just after the last, swept against the sorted line times.
    std::vector<std::pair<double, int>> edges;
    for (const sim::ExecutionInfo &info : stream.executions) {
        edges.emplace_back(info.firstEmit, +1);
        edges.emplace_back(info.lastEmit, -1);
    }
    // At equal times opens sort first, so an execution covers its own
    // first and last line.
    std::sort(edges.begin(), edges.end(),
              [](const auto &a, const auto &b) {
                  return a.first != b.first ? a.first < b.first
                                            : a.second > b.second;
              });
    std::vector<double> times;
    times.reserve(stream.records.size());
    for (const logging::LogRecord &record : stream.records)
        times.push_back(record.timestamp);
    std::sort(times.begin(), times.end());
    long open = 0;
    std::size_t next = 0;
    double sum = 0.0;
    for (double t : times) {
        while (next < edges.size() &&
               (edges[next].first < t ||
                (edges[next].first == t && edges[next].second > 0))) {
            open += edges[next].second;
            ++next;
        }
        // Closes at exactly t are applied by the next, later line, so
        // an execution's own last line still counts it as open.
        sum += static_cast<double>(open);
        shape.peakInFlight = std::max(shape.peakInFlight,
                                      static_cast<std::size_t>(open));
    }
    if (!times.empty())
        shape.meanInFlight = sum / static_cast<double>(times.size());

    logging::VariableExtractor extractor;
    std::unordered_set<std::string> ids;
    for (const logging::LogRecord &record : stream.records) {
        for (std::string &id : extractor.extractIdentifiers(record.body))
            ids.insert(std::move(id));
    }
    shape.distinctIdentifiers = ids.size();

    for (const sim::InjectionRecord &injection : stream.injections) {
        switch (injection.type) {
          case sim::ProblemType::Delay:
            ++shape.faultsDelay;
            break;
          case sim::ProblemType::Abort:
            ++shape.faultsAbort;
            break;
          case sim::ProblemType::Silent:
            ++shape.faultsSilent;
            break;
          case sim::ProblemType::None:
            break;
        }
    }
    return shape;
}

std::string
shapeJson(const Shape &shape)
{
    char buf[512];
    std::snprintf(buf, sizeof buf,
                  "{\"lines\":%zu,\"executions\":%zu,"
                  "\"mean_in_flight\":%.3f,\"peak_in_flight\":%zu,"
                  "\"distinct_identifiers\":%zu,"
                  "\"faults\":{\"delay\":%zu,\"abort\":%zu,"
                  "\"silent\":%zu}}",
                  shape.lines, shape.executions, shape.meanInFlight,
                  shape.peakInFlight, shape.distinctIdentifiers,
                  shape.faultsDelay, shape.faultsAbort,
                  shape.faultsSilent);
    return buf;
}

} // namespace seerbench
