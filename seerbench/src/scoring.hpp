/**
 * @file
 * Scoring a replay's verdicts against the simulator's ground truth.
 *
 * Lines on the wire carry no record ids, so a report is tied to an
 * execution through its identifier set: every execution logs its own
 * request id, and an identifier that occurs in exactly one execution's
 * lines (and in no background line) votes for that execution.
 */

#ifndef SEERBENCH_SCORING_HPP
#define SEERBENCH_SCORING_HPP

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "core/monitor/report.hpp"
#include "workloads.hpp"

namespace seerbench {

struct Score
{
    std::size_t executions = 0;
    std::size_t faulted = 0;
    /** Correct runs not accepted as their own task. */
    std::size_t correctMissed = 0;
    /** Faulted runs without an Error or Timeout report. */
    std::size_t faultedMissed = 0;
    /** Problem or accept reports no execution could be tied to. */
    std::size_t unmappedReports = 0;

    std::size_t failed() const { return correctMissed + faultedMissed; }

    double
    failFrac() const
    {
        return executions == 0 ? 1.0
                               : static_cast<double>(failed()) /
                                     static_cast<double>(executions);
    }
};

/**
 * What scoring needs of a replay's reports, and nothing more: each
 * report's kind, task and identifier tokens, in two flat arrays. The
 * replay drops every report once its JSON is digested, so the memory
 * the harness holds while measuring is these few bytes per report.
 */
class Verdicts
{
  public:
    /**
     * Reserve room for `reports` reports carrying `ids` identifiers in
     * all, and touch it, so that keeping them within that room adds
     * nothing to the resident set measured during the replay.
     */
    void preallocate(std::size_t reports, std::size_t ids);

    void add(const cloudseer::core::CheckEvent &event);

    std::size_t size() const { return entries.size(); }

    /** Reports of `kind`. */
    std::size_t count(cloudseer::core::CheckEventKind kind) const;

  private:
    friend Score scoreVerdicts(const Stream &, const Verdicts &);

    struct Entry
    {
        cloudseer::core::CheckEventKind kind;
        std::uint16_t task;  ///< index into `tasks`
        std::uint32_t idEnd; ///< one past its last entry of `ids`
    };

    std::vector<Entry> entries;
    std::vector<cloudseer::logging::IdToken> ids;
    std::vector<std::string> tasks;
};

/**
 * Score a replay's verdicts (finish() included). Resolves identifier
 * tokens through the process interner, so call it in the process that
 * ran the replay, after the measurement.
 */
Score scoreVerdicts(const Stream &stream, const Verdicts &verdicts);

} // namespace seerbench

#endif // SEERBENCH_SCORING_HPP
