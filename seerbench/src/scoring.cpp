#include "scoring.hpp"

#include <map>
#include <set>
#include <unordered_map>

#include "logging/identifier_interner.hpp"
#include "logging/variable_extractor.hpp"
#include "sim/task_type.hpp"

namespace seerbench {

using namespace cloudseer;

namespace {

/** Owner value of an identifier seen in more than one execution. */
constexpr logging::ExecutionId kShared = ~logging::ExecutionId{0};

} // namespace

void
Verdicts::preallocate(std::size_t reports, std::size_t id_count)
{
    entries.resize(reports);
    entries.clear();
    ids.resize(id_count);
    ids.clear();
}

void
Verdicts::add(const core::CheckEvent &event)
{
    std::size_t task = 0;
    while (task < tasks.size() && tasks[task] != event.taskName)
        ++task;
    if (task == tasks.size())
        tasks.push_back(event.taskName);
    ids.insert(ids.end(), event.identifiers.begin(),
               event.identifiers.end());
    entries.push_back({event.kind, static_cast<std::uint16_t>(task),
                       static_cast<std::uint32_t>(ids.size())});
}

std::size_t
Verdicts::count(core::CheckEventKind kind) const
{
    std::size_t n = 0;
    for (const Entry &entry : entries)
        n += entry.kind == kind;
    return n;
}

Score
scoreVerdicts(const Stream &stream, const Verdicts &verdicts)
{
    const logging::IdentifierInterner &interner =
        logging::IdentifierInterner::process();
    logging::VariableExtractor extractor;
    std::unordered_map<logging::IdToken, logging::ExecutionId> owner;
    for (const logging::LogRecord &record : stream.records) {
        logging::ExecutionId exec =
            record.truthExecution == 0 ? kShared : record.truthExecution;
        for (const std::string &id :
             extractor.extractIdentifiers(record.body)) {
            logging::IdToken token = interner.find(id);
            if (token == logging::kInvalidIdToken)
                continue;
            auto [it, inserted] = owner.emplace(token, exec);
            if (!inserted && it->second != exec)
                it->second = kShared;
        }
    }

    std::set<logging::ExecutionId> faulted;
    for (const sim::InjectionRecord &injection : stream.injections)
        faulted.insert(injection.execution);

    // execution -> accepted task names / whether a problem was reported
    std::map<logging::ExecutionId, std::set<std::string>> accepted;
    std::set<logging::ExecutionId> flagged;

    Score score;
    std::uint32_t id_begin = 0;
    for (const Verdicts::Entry &entry : verdicts.entries) {
        core::CheckEventKind kind = entry.kind;
        std::uint32_t first = id_begin;
        id_begin = entry.idEnd;
        if (kind == core::CheckEventKind::Degraded ||
            kind == core::CheckEventKind::LatencyAnomaly)
            continue;
        std::map<logging::ExecutionId, int> votes;
        for (std::uint32_t k = first; k < entry.idEnd; ++k) {
            auto it = owner.find(verdicts.ids[k]);
            if (it != owner.end() && it->second != kShared)
                ++votes[it->second];
        }
        logging::ExecutionId best = 0;
        int best_votes = 0;
        for (auto [exec, count] : votes) {
            if (count > best_votes) {
                best = exec;
                best_votes = count;
            }
        }
        if (best == 0) {
            ++score.unmappedReports;
            continue;
        }
        if (kind == core::CheckEventKind::Accepted)
            accepted[best].insert(verdicts.tasks[entry.task]);
        else
            flagged.insert(best);
    }

    for (const sim::ExecutionInfo &info : stream.executions) {
        ++score.executions;
        if (faulted.count(info.id)) {
            ++score.faulted;
            if (!flagged.count(info.id))
                ++score.faultedMissed;
            continue;
        }
        auto it = accepted.find(info.id);
        if (it == accepted.end() ||
            !it->second.count(sim::taskTypeName(info.type)))
            ++score.correctMissed;
    }
    return score;
}

} // namespace seerbench
