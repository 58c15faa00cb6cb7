/**
 * @file
 * Abstract checking-engine interface (seer-swarm, DESIGN.md §14).
 *
 * The monitor drives Algorithm 2 through this interface so the engine
 * behind it is a deployment decision, not a code path: the serial
 * `InterleavedChecker` (the reference implementation) and the
 * multi-core `ShardedChecker` are interchangeable backends selected by
 * `IngestConfig::numShards`, the same one-abstract-checker /
 * several-engines shape simple_CAR uses for its model-checking
 * backends. Every engine must emit bit-identical report streams for
 * the same input stream — the sharded engine's whole design budget is
 * spent preserving that equivalence (see DESIGN.md §14).
 */

#ifndef CLOUDSEER_CORE_CHECKER_BASE_CHECKER_HPP
#define CLOUDSEER_CORE_CHECKER_BASE_CHECKER_HPP

#include <cstddef>
#include <functional>
#include <string>
#include <vector>

#include "common/binio.hpp"
#include "common/time_util.hpp"
#include "core/automaton/refinement.hpp"
#include "core/checker/check_types.hpp"
#include "core/mining/latency_profile.hpp"
#include "obs/trace.hpp"

namespace cloudseer::core {

class ShardedChecker;

/** The engine contract behind WorkflowMonitor (DESIGN.md §14). */
class BaseChecker
{
  public:
    virtual ~BaseChecker() = default;

    /**
     * Resolves the timeout for a group from the task names it still
     * tracks (per-task timeouts from the estimator, or a constant).
     * It must be a pure function of the names, and the same one on
     * every sweep of an engine: engines resolve a group once and again
     * only after its candidate set narrows (DESIGN.md §4).
     */
    using TimeoutResolver =
        std::function<double(const std::vector<std::string> &)>;

    /** Process one message (Algorithm 2); see InterleavedChecker. */
    virtual std::vector<CheckEvent> feed(const CheckMessage &message) = 0;

    /** Timeout criterion with a per-group timeout resolver. */
    virtual std::vector<CheckEvent>
    sweepTimeouts(common::SimTime now, const TimeoutResolver &resolver) = 0;

    /** Load shedding to a group-count cap (Degraded reports). */
    virtual std::vector<CheckEvent> shedToCap(std::size_t cap,
                                              common::SimTime now) = 0;

    /** Load shedding to a byte ceiling (Degraded reports). */
    virtual std::vector<CheckEvent> shedToMemory(std::size_t max_bytes,
                                                 common::SimTime now) = 0;

    /** Deterministic size estimate of retained state. */
    virtual std::size_t approxRetainedBytes() const = 0;

    /**
     * End of stream: every remaining unaccepted group is reported as
     * a timeout and the state is cleared.
     */
    virtual std::vector<CheckEvent> finish(common::SimTime now) = 0;

    /** Counters (a pipelined engine's view is exact after a flush). */
    virtual const CheckerStats &stats() const = 0;

    /** Groups currently tracked. */
    virtual std::size_t activeGroups() const = 0;

    /** Identifier sets currently tracked. */
    virtual std::size_t activeIdentifierSets() const = 0;

    /** Recovery (d) removal tallies (model-refinement feedback). */
    virtual const RemovalCounts &dependencyRemovals() const = 0;

    /**
     * Serialise the full checking state (seer-vault, DESIGN.md §13).
     * Every engine writes the *same* serial-state image — a sharded
     * engine quiesces and consolidates first — so checkpoints restore
     * into either engine interchangeably.
     */
    virtual void saveState(common::BinWriter &out) = 0;

    /** Restore a saveState image (see InterleavedChecker). */
    virtual bool restoreState(common::BinReader &in) = 0;

    /** Attach an execution tracer (null = null sink). */
    virtual void setTracer(obs::ExecutionTracer *tracer) = 0;

    /** Install the latency-anomaly criterion (seer-flight). */
    virtual void
    setLatencyPolicy(const std::vector<LatencyProfile> &profiles,
                     const LatencyCheckConfig &policy = {}) = 0;

    /**
     * Install the seer-prove certified-unambiguous template bitmap
     * (DESIGN.md §15), indexed by TemplateId. Messages of certified
     * templates take provably equivalent shortcut paths through
     * Algorithm 2's selection, rekeying, and lineage pruning; reports
     * stay bit-identical either way. An empty bitmap (the default)
     * disables the fast path entirely.
     */
    virtual void setCertifiedTemplates(std::vector<char> certified) = 0;

    /** Stable engine name for logs and exposition. */
    virtual const char *engineName() const = 0;

    /**
     * Engine-kind probe: non-null when this engine is the sharded
     * one, giving the monitor access to the pipelined submit/drain
     * surface without a dynamic_cast per record.
     */
    virtual ShardedChecker *sharded() { return nullptr; }
};

} // namespace cloudseer::core

#endif // CLOUDSEER_CORE_CHECKER_BASE_CHECKER_HPP
