/**
 * @file
 * seer-bench workloads: what each one feeds the monitor, how its
 * stream and training executions are generated from a seed, and the
 * stream's shape (the fingerprint a run checks against the recorded
 * one so the traffic under every comparison stays the same).
 *
 * Everything here is generator work and is never timed, except
 * mineModels(), which is the first half of the benchmark's set-up.
 */

#ifndef SEERBENCH_WORKLOADS_HPP
#define SEERBENCH_WORKLOADS_HPP

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/automaton/task_automaton.hpp"
#include "logging/log_record.hpp"
#include "logging/template_catalog.hpp"
#include "sim/fault_injector.hpp"
#include "sim/ground_truth.hpp"

namespace seerbench {

/** One workload: the stream it generates and the monitor it runs. */
struct WorkloadSpec
{
    std::string name;
    int users = 0;
    int tasksPerUser = 0;
    bool singleUid = false;
    double userStagger = 3.0;  ///< seconds between user start times
    double interTaskWait = 15.0;
    /** Fault injection point (None = fault-free stream). */
    cloudseer::sim::InjectionPoint faultPoint =
        cloudseer::sim::InjectionPoint::None;
    double triggerProbability = 0.25;
    /** hardenedIngestDefaults() + flight recorder + vault. */
    bool durable = false;
};

/** The workload called `name`, or nullptr. */
const WorkloadSpec *findWorkload(const std::string &name);

/** A generated stream with its ground truth. */
struct Stream
{
    /** Records in collector order, ground-truth fields intact. */
    std::vector<cloudseer::logging::LogRecord> records;
    /** The same records as wire lines (encodeLogLine). */
    std::vector<std::string> lines;
    /** Executions that emitted at least one line. */
    std::vector<cloudseer::sim::ExecutionInfo> executions;
    std::vector<cloudseer::sim::InjectionRecord> injections;
};

/** Simulate, collect and encode the workload's stream for `seed`. */
Stream generateStream(const WorkloadSpec &spec, std::uint64_t seed);

/** Correct executions of one task, one record vector per run. */
struct TaskRuns
{
    std::string task;
    std::vector<std::vector<cloudseer::logging::LogRecord>> runs;
};

/** Pre-generated training executions for every task type. */
std::vector<TaskRuns> generateTraining(std::uint64_t seed);

/** Mined models: the catalog and one automaton per task. */
struct Models
{
    std::shared_ptr<cloudseer::logging::TemplateCatalog> catalog;
    std::vector<cloudseer::core::TaskAutomaton> automata;
};

/** TaskModeler mining over the training runs (timed as set-up). */
Models mineModels(const std::vector<TaskRuns> &training);

/** What the stream looks like; drift here changes every comparison. */
struct Shape
{
    std::size_t lines = 0;
    std::size_t executions = 0;
    double meanInFlight = 0.0;   ///< executions open per line, mean
    std::size_t peakInFlight = 0;
    std::size_t distinctIdentifiers = 0;
    std::size_t faultsDelay = 0;
    std::size_t faultsAbort = 0;
    std::size_t faultsSilent = 0;
};

Shape shapeOf(const Stream &stream);

/** Single-line JSON object of the shape. */
std::string shapeJson(const Shape &shape);

} // namespace seerbench

#endif // SEERBENCH_WORKLOADS_HPP
