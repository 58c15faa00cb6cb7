#include "core/checker/sharded_checker.hpp"

#include <algorithm>
#include <chrono>
#include <set>

#include "common/error.hpp"
#include "common/thread_annotations.hpp"
#include "obs/profiler.hpp"
#include "core/checker/identifier_set.hpp"

namespace cloudseer::core {

using logging::IdToken;

namespace {

/** Field-wise counter merge (consolidation and stats aggregation). */
void
accumulateStats(CheckerStats &into, const CheckerStats &add)
{
    into.messages += add.messages;
    into.decisive += add.decisive;
    into.ambiguous += add.ambiguous;
    into.recoveredPassUnknown += add.recoveredPassUnknown;
    into.recoveredNewSequence += add.recoveredNewSequence;
    into.recoveredOtherSet += add.recoveredOtherSet;
    into.recoveredFalseDependency += add.recoveredFalseDependency;
    into.unmatched += add.unmatched;
    into.errorsReported += add.errorsReported;
    into.timeoutsReported += add.timeoutsReported;
    into.timeoutsSuppressed += add.timeoutsSuppressed;
    into.latencyAnomalies += add.latencyAnomalies;
    into.groupsShed += add.groupsShed;
    into.accepted += add.accepted;
    into.consumeAttempts += add.consumeAttempts;
}

} // namespace

double
ShardMetrics::imbalance() const
{
    if (shards.empty())
        return 1.0;
    std::uint64_t total = 0;
    std::uint64_t largest = 0;
    for (const PerShard &shard : shards) {
        total += shard.messagesRouted;
        largest = std::max(largest, shard.messagesRouted);
    }
    if (total == 0)
        return 1.0;
    double mean =
        static_cast<double>(total) / static_cast<double>(shards.size());
    return static_cast<double>(largest) / mean;
}

ShardedChecker::ShardedChecker(
    const CheckerConfig &config_,
    std::vector<const TaskAutomaton *> automata,
    const ShardedCheckerConfig &swarm_)
    : config(config_), automatonSet(std::move(automata)), swarm(swarm_)
{
    CS_ASSERT(swarm.numShards >= 1, "sharded checker needs >= 1 shard");
    CS_ASSERT(swarm.ringCapacity >= 1, "shard rings need capacity >= 1");

    // Affinity routing IS identifier routing: with it off the serial
    // engine brute-forces every live group on every message, which no
    // partition can reproduce without serializing everything.
    CS_ASSERT(config.identifierRouting || swarm.numShards == 1,
              "sharded checking requires identifier routing");

    // The router needs its own copy of the template alphabet: messages
    // outside every automaton's Σ never touch partitioned state.
    for (const TaskAutomaton *automaton : automatonSet) {
        for (std::size_t e = 0; e < automaton->eventCount(); ++e) {
            logging::TemplateId tpl =
                automaton->event(static_cast<int>(e)).tpl;
            if (tpl >= knownTemplates.size())
                knownTemplates.resize(tpl + 1, 0);
            knownTemplates[tpl] = 1;
        }
    }

    mergeShards.resize(swarm.numShards);
    shardMetrics.shards.resize(swarm.numShards);
    shards.reserve(swarm.numShards);
    for (std::size_t i = 0; i < swarm.numShards; ++i) {
        shards.push_back(
            std::make_unique<ShardState>(swarm.ringCapacity));
        shards[i]->checker =
            std::make_unique<InterleavedChecker>(config, automatonSet);
    }
    // Spawn only after the shard vector is fully built: workers index
    // into it and a growing vector would move state under them.
    for (std::size_t i = 0; i < swarm.numShards; ++i)
        shards[i]->worker =
            std::thread(&ShardedChecker::shardMain, this, i);
}

ShardedChecker::~ShardedChecker()
{
    if (state == PipelineState::Running) {
        flushInternal();
        for (auto &shard : shards) {
            ShardIn stop;
            stop.op = ShardOp::Stop;
            common::RoleGuard produce(shard->in.producerRole);
            shard->in.push(std::move(stop));
        }
    } else {
        for (auto &shard : shards) {
            shard->stopRequested = true;
            shard->resume.release();
        }
    }
    for (auto &shard : shards) {
        if (shard->worker.joinable())
            shard->worker.join();
    }
}

bool
ShardedChecker::templateKnown(logging::TemplateId tpl) const
{
    return tpl != logging::kInvalidTemplate &&
           tpl < knownTemplates.size() && knownTemplates[tpl] != 0;
}

void
ShardedChecker::enableStageTimers(std::size_t sample_every)
{
    // Pre-first-submit contract (see header): the worker only reads
    // these fields after popping a work item pushed later, so the
    // ring's release/acquire pair orders this write before that read.
    for (auto &shard : shards) {
        shard->stageEvery = sample_every;
        shard->opsSeen = 0;
        if (sample_every > 0 && shard->checkLatency == nullptr)
            shard->checkLatency =
                std::make_unique<obs::Histogram>(-1, 6);
    }
}

const obs::Histogram *
ShardedChecker::shardCheckLatency(std::size_t idx) const
{
    return idx < shards.size() ? shards[idx]->checkLatency.get()
                               : nullptr;
}

// --- shard worker ------------------------------------------------------

void
ShardedChecker::shardMain(std::size_t idx)
{
    ShardState &s = *shards[idx];

    // This thread is the sole consumer of its input ring and the sole
    // producer of its output ring, for the worker's whole lifetime.
    common::RoleGuard consumeIn(s.in.consumerRole);
    common::RoleGuard produceOut(s.out.producerRole);

    // seer-probe: cache this thread's stack bounds once so in-handler
    // captures can walk frame pointers instead of unwinding.
    obs::prepareThreadForProfiling();

    BaseChecker::TimeoutResolver resolver =
        [&s](const std::vector<std::string> &tasks) {
            return s.policy.timeoutForCandidates(tasks);
        };

    ShardIn item;
    for (;;) {
        s.in.pop(item);
        if (item.op == ShardOp::Stop)
            return;
        if (item.op == ShardOp::Park) {
            ShardOut ack;
            ack.parkAck = true;
            s.out.push(std::move(ack));
            s.resume.acquire();
            if (s.stopRequested)
                return;
            continue;
        }

        // seer-probe: the whole op — sweep, feed, stats assembly —
        // samples into this shard's check lane.
        obs::StageScope profScope(obs::ProfStage::ShardCheck,
                                  static_cast<unsigned>(idx));
        ShardOut out;
        out.seq = item.seq;
        s.gidBirthLog.clear();
        s.setBirthLog.clear();
        s.rivalBirthCount = 0;

        // Rebound every op (not once at startup) so the caller may
        // clear or swap the checker while the shard is parked.
        InterleavedChecker &checker = *s.checker;
        checker.setBirthLogs(&s.gidBirthLog, &s.setBirthLog,
                             &s.rivalBirthCount);
        checker.noteTimeoutFloor(item.timeoutFloor);

        // seer-pulse: sampled check-stage timing around the actual
        // checking work (sweep + feed), one in stageEvery ops.
        const bool timed =
            s.stageEvery > 0 && s.opsSeen++ % s.stageEvery == 0;
        std::chrono::steady_clock::time_point before;
        if (timed)
            before = std::chrono::steady_clock::now();

        if (item.op != ShardOp::Feed)
            out.sweepEvents = checker.sweepTimeouts(item.now, resolver);
        if (item.op != ShardOp::Tick)
            out.feedEvents = checker.feed(item.msg);

        if (timed) {
            s.checkLatency->record(
                std::chrono::duration<double, std::micro>(
                    std::chrono::steady_clock::now() - before)
                    .count());
        }

        out.groupBirths = static_cast<std::uint32_t>(s.gidBirthLog.size());
        out.setBirths = static_cast<std::uint32_t>(s.setBirthLog.size());
        out.rivalBirths = static_cast<std::uint32_t>(s.rivalBirthCount);
        out.localMaxTimeout = checker.maxResolvedTimeout;
        out.groupsNow = checker.activeGroups();
        out.setsNow = checker.activeIdentifierSets();
        out.resolutions = s.policy.resolutions;
        out.fallbacks = s.policy.defaultFallbacks;
        out.stats = checker.stats();
        s.out.push(std::move(out));
    }
}

// --- router ------------------------------------------------------------

void
ShardedChecker::dsuEnsure(std::uint32_t token)
{
    if (token < dsuParent.size())
        return;
    std::size_t old = dsuParent.size();
    dsuParent.resize(token + 1);
    dsuHome.resize(token + 1, -1);
    for (std::size_t i = old; i < dsuParent.size(); ++i)
        dsuParent[i] = static_cast<std::uint32_t>(i);
}

std::uint32_t
ShardedChecker::dsuFind(std::uint32_t token)
{
    while (dsuParent[token] != token) {
        dsuParent[token] = dsuParent[dsuParent[token]]; // path halving
        token = dsuParent[token];
    }
    return token;
}

int
ShardedChecker::routeShard(const std::vector<IdToken> &view,
                           bool template_known)
{
    if (view.empty()) {
        // Known template + empty view: serial scans every live group —
        // unpartitionable, reconcile. Unknown template + empty view:
        // state-free (pass-through or an unassociated error report) —
        // any shard works; spread them by stream position.
        if (template_known)
            return -1;
        return static_cast<int>(nextSeq % shards.size());
    }

    int home = -1;
    for (IdToken token : view) {
        dsuEnsure(token);
        std::int32_t h = dsuHome[dsuFind(token)];
        if (h < 0)
            continue;
        if (home >= 0 && h != home)
            return -1; // bridges two shards: reconcile
        home = h;
    }

    // Union the view into one component (colocating more than strictly
    // necessary is always exact — the cost is balance, not identity).
    std::uint32_t root = dsuFind(view.front());
    for (std::size_t i = 1; i < view.size(); ++i) {
        std::uint32_t other = dsuFind(view[i]);
        if (other != root)
            dsuParent[other] = root;
    }
    root = dsuFind(root);

    if (home < 0) {
        home = static_cast<int>(roundRobinNext % shards.size());
        ++roundRobinNext;
    }
    dsuHome[root] = home;
    return home;
}

void
ShardedChecker::pushToShard(std::size_t shard, ShardIn &&item)
{
    auto &ring = shards[shard]->in;
    common::RoleGuard produce(ring.producerRole);
    while (!ring.tryPush(std::move(item))) {
        // Backpressure: help drain results instead of busy-waiting —
        // a blocked router would deadlock against a shard blocked on
        // its own full output ring.
        pumpOutputs();
        emitReady();
        std::this_thread::yield();
    }
    ShardMetrics::PerShard &m = shardMetrics.shards[shard];
    std::uint64_t depth = ring.size();
    if (depth > m.inputRingPeak)
        m.inputRingPeak = depth;
}

// --- submit / drain ----------------------------------------------------

void
ShardedChecker::submitFeed(const CheckMessage &message)
{
    CS_ASSERT(state == PipelineState::Running,
              "submit on a parked pipeline");
    const std::vector<IdToken> view =
        IdentifierSet::dedupSorted(message.identifiers);
    int home = routeShard(view, templateKnown(message.tpl));
    if (home < 0) {
        if (view.empty())
            ++shardMetrics.globalFallbacks;
        else
            ++shardMetrics.crossShardUnions;
        std::vector<CheckEvent> events =
            reconcileFeed(message, false, message.time);
        readyEvents.insert(readyEvents.end(),
                           std::make_move_iterator(events.begin()),
                           std::make_move_iterator(events.end()));
        return;
    }

    Pending pending;
    pending.step = false;
    pending.owner = static_cast<std::uint8_t>(home);
    window.push_back(std::move(pending));

    ShardIn in;
    in.seq = nextSeq++;
    in.op = ShardOp::Feed;
    in.now = message.time;
    in.timeoutFloor = globalMaxTimeout;
    in.msg = message;
    ++shardMetrics.shards[static_cast<std::size_t>(home)].messagesRouted;
    pushToShard(static_cast<std::size_t>(home), std::move(in));

    pumpOutputs();
    emitReady();
}

void
ShardedChecker::submitStep(const CheckMessage &message,
                           common::SimTime now)
{
    CS_ASSERT(state == PipelineState::Running,
              "submit on a parked pipeline");
    const std::vector<IdToken> view =
        IdentifierSet::dedupSorted(message.identifiers);
    int home = routeShard(view, templateKnown(message.tpl));
    if (home < 0) {
        if (view.empty())
            ++shardMetrics.globalFallbacks;
        else
            ++shardMetrics.crossShardUnions;
        std::vector<CheckEvent> events = reconcileFeed(message, true, now);
        readyEvents.insert(readyEvents.end(),
                           std::make_move_iterator(events.begin()),
                           std::make_move_iterator(events.end()));
        return;
    }

    Pending pending;
    pending.step = true;
    pending.owner = static_cast<std::uint8_t>(home);
    pending.ticks.resize(shards.size());
    window.push_back(std::move(pending));

    // Broadcast the tick: serial sweeps every live group before each
    // feed, so every shard sweeps its partition at this record's time.
    std::uint64_t seq = nextSeq++;
    for (std::size_t s = 0; s < shards.size(); ++s) {
        ShardIn in;
        in.seq = seq;
        in.op = (static_cast<int>(s) == home) ? ShardOp::Step
                                              : ShardOp::Tick;
        in.now = now;
        in.timeoutFloor = globalMaxTimeout;
        if (static_cast<int>(s) == home)
            in.msg = message;
        pushToShard(s, std::move(in));
    }
    ++shardMetrics.shards[static_cast<std::size_t>(home)].messagesRouted;

    pumpOutputs();
    emitReady();
}

void
ShardedChecker::submitSweep(common::SimTime now)
{
    CS_ASSERT(state == PipelineState::Running,
              "submit on a parked pipeline");
    Pending pending;
    pending.step = true;
    pending.owner = 0; // all lanes tick; shard 0's result is primary
    pending.ticks.resize(shards.size());
    window.push_back(std::move(pending));

    std::uint64_t seq = nextSeq++;
    for (std::size_t s = 0; s < shards.size(); ++s) {
        ShardIn in;
        in.seq = seq;
        in.op = ShardOp::Tick;
        in.now = now;
        in.timeoutFloor = globalMaxTimeout;
        pushToShard(s, std::move(in));
    }

    pumpOutputs();
    emitReady();
}

void
ShardedChecker::drainReady(std::vector<CheckEvent> &out)
{
    pumpOutputs();
    emitReady();
    if (!readyEvents.empty()) {
        out.insert(out.end(),
                   std::make_move_iterator(readyEvents.begin()),
                   std::make_move_iterator(readyEvents.end()));
        readyEvents.clear();
    }
}

void
ShardedChecker::flush(std::vector<CheckEvent> &out)
{
    flushInternal();
    drainReady(out);
}

void
ShardedChecker::flushInternal()
{
    while (windowBase < nextSeq) {
        pumpOutputs();
        emitReady();
        if (windowBase < nextSeq)
            std::this_thread::yield();
    }
}

// --- merge -------------------------------------------------------------

void
ShardedChecker::pumpOutputs()
{
    for (std::size_t s = 0; s < shards.size(); ++s) {
        auto &ring = shards[s]->out;
        ShardMetrics::PerShard &m = shardMetrics.shards[s];
        std::uint64_t depth = ring.size();
        if (depth > m.outputRingPeak)
            m.outputRingPeak = depth;
        ShardOut out;
        common::RoleGuard consume(ring.consumerRole);
        while (ring.tryPop(out)) {
            CS_ASSERT(!out.parkAck, "park ack outside quiesce");
            CS_ASSERT(out.seq >= windowBase &&
                          out.seq - windowBase < window.size(),
                      "shard result outside the merge window");
            Pending &pending =
                window[static_cast<std::size_t>(out.seq - windowBase)];
            if (s == pending.owner) {
                pending.primary = std::move(out);
            } else {
                CS_ASSERT(pending.step && s < pending.ticks.size(),
                          "tick result for a feed-only seq");
                pending.ticks[s] = std::move(out);
            }
            ++pending.seen;
        }
    }
}

void
ShardedChecker::emitReady()
{
    while (!window.empty()) {
        Pending &pending = window.front();
        std::uint32_t need =
            pending.step ? static_cast<std::uint32_t>(shards.size()) : 1u;
        if (pending.seen < need)
            break;
        processSeq(pending);
        window.pop_front();
        ++windowBase;
    }
}

std::uint64_t
ShardedChecker::mapLocalGid(std::size_t shard, std::uint64_t gid) const
{
    if (gid == 0)
        return 0;
    const MergeShard &m = mergeShards[shard];
    if (gid >= kStaleBase) {
        auto it = m.staleL2G.find(gid);
        CS_ASSERT(it != m.staleL2G.end(), "unmapped stale group id");
        return it->second;
    }
    CS_ASSERT(gid < m.gidL2G.size(), "unmapped shard-local group id");
    return m.gidL2G[static_cast<std::size_t>(gid)];
}

void
ShardedChecker::rewriteEvents(std::size_t shard,
                              std::vector<CheckEvent> &events)
{
    for (CheckEvent &event : events)
        event.group = mapLocalGid(shard, event.group);
}

void
ShardedChecker::processSeq(Pending &pending)
{
    ShardOut &own = pending.primary;
    MergeShard &owner = mergeShards[pending.owner];

    // Mirror serial's global allocators: the owner allocated ids
    // densely in this op, and serial would have allocated the same
    // count here, in the same order.
    for (std::uint32_t i = 0; i < own.groupBirths; ++i)
        owner.gidL2G.push_back(serialNextGroupId++);
    for (std::uint32_t i = 0; i < own.setBirths; ++i)
        owner.setL2G.push_back(serialNextIdSetId++);
    for (std::uint32_t i = 0; i < own.rivalBirths; ++i)
        owner.rivalL2G.push_back(serialNextRivalSet++);

    auto absorb = [this](std::size_t s, const ShardOut &out) {
        MergeShard &m = mergeShards[s];
        m.lastStats = out.stats;
        m.groupsNow = out.groupsNow;
        m.setsNow = out.setsNow;
        m.resolutions = out.resolutions;
        m.fallbacks = out.fallbacks;
        if (out.localMaxTimeout > globalMaxTimeout)
            globalMaxTimeout = out.localMaxTimeout;
        shardMetrics.shards[s].activeGroups = out.groupsNow;
    };
    absorb(pending.owner, own);

    if (pending.step) {
        for (std::size_t s = 0; s < shards.size(); ++s) {
            if (s != pending.owner)
                absorb(s, pending.ticks[s]);
        }
        // Serial sweeps emit in ascending group id over all shards'
        // groups; each shard's list is already ascending (the local →
        // serial map is monotone), so a k-way merge restores the
        // global order.
        std::vector<std::vector<CheckEvent> *> lanes;
        for (std::size_t s = 0; s < shards.size(); ++s) {
            std::vector<CheckEvent> &events =
                (s == pending.owner) ? own.sweepEvents
                                     : pending.ticks[s].sweepEvents;
            rewriteEvents(s, events);
            if (!events.empty())
                lanes.push_back(&events);
        }
        std::vector<std::size_t> cursor(lanes.size(), 0);
        for (;;) {
            std::size_t best = lanes.size();
            for (std::size_t l = 0; l < lanes.size(); ++l) {
                if (cursor[l] >= lanes[l]->size())
                    continue;
                if (best == lanes.size() ||
                    (*lanes[l])[cursor[l]].group <
                        (*lanes[best])[cursor[best]].group)
                    best = l;
            }
            if (best == lanes.size())
                break;
            readyEvents.push_back(
                std::move((*lanes[best])[cursor[best]]));
            ++cursor[best];
        }
    }

    rewriteEvents(pending.owner, own.feedEvents);
    readyEvents.insert(readyEvents.end(),
                       std::make_move_iterator(own.feedEvents.begin()),
                       std::make_move_iterator(own.feedEvents.end()));
}

// --- quiesce / consolidate / resplit -----------------------------------

void
ShardedChecker::quiesce()
{
    CS_ASSERT(state == PipelineState::Running, "double quiesce");
    flushInternal();
    for (auto &shard : shards) {
        ShardIn park;
        park.op = ShardOp::Park;
        common::RoleGuard produce(shard->in.producerRole);
        shard->in.push(std::move(park));
    }
    for (auto &shard : shards) {
        ShardOut ack;
        common::RoleGuard consume(shard->out.consumerRole);
        shard->out.pop(ack);
        CS_ASSERT(ack.parkAck, "expected park ack");
    }
    state = PipelineState::Parked;
    ++shardMetrics.quiesces;
}

void
ShardedChecker::resumeShards()
{
    CS_ASSERT(state == PipelineState::Parked, "resume without quiesce");
    for (auto &shard : shards)
        shard->resume.release();
    state = PipelineState::Running;
}

InterleavedChecker &
ShardedChecker::consolidate()
{
    CS_ASSERT(state == PipelineState::Parked,
              "consolidate needs a parked pipeline");
    InterleavedChecker &host = *shards[0]->checker;

    for (std::size_t s = 0; s < shards.size(); ++s) {
        InterleavedChecker &ck = *shards[s]->checker;
        ck.setBirthLogs(nullptr, nullptr, nullptr);
        MergeShard &m = mergeShards[s];

        // Local → serial, including tombstones: a stale lineage link
        // renumbers exactly like a live group.
        std::unordered_map<GroupId, GroupId> gid_map;
        for (std::size_t local = 1; local < m.gidL2G.size(); ++local)
            gid_map.emplace(local, m.gidL2G[local]);
        for (const auto &[local, global] : m.staleL2G)
            gid_map.emplace(local, global);
        std::unordered_map<std::uint64_t, std::uint64_t> set_map;
        for (std::size_t local = 1; local < m.setL2G.size(); ++local)
            set_map.emplace(local, m.setL2G[local]);
        std::unordered_map<std::uint64_t, std::uint64_t> rival_map;
        for (std::size_t local = 1; local < m.rivalL2G.size(); ++local)
            rival_map.emplace(local, m.rivalL2G[local]);
        ck.renumber(gid_map, set_map, rival_map);
    }

    for (std::size_t s = 1; s < shards.size(); ++s) {
        InterleavedChecker &ck = *shards[s]->checker;
        std::vector<GroupId> gids;
        gids.reserve(ck.groups.size());
        for (const auto &[gid, group] : ck.groups)
            gids.push_back(gid);
        ck.moveGroupsInto(host, gids);

        accumulateStats(host.counters, ck.counters);
        ck.counters = CheckerStats{};
        for (const auto &[name, edges] : ck.removalCounts) {
            auto &into = host.removalCounts[name];
            for (const auto &[edge, count] : edges)
                into[edge] += count;
        }
        ck.removalCounts.clear();
        host.maxResolvedTimeout =
            std::max(host.maxResolvedTimeout, ck.maxResolvedTimeout);
        ck.maxResolvedTimeout = 0.0;
        ck.nextGroupId = ck.nextIdSetId = ck.nextRivalSet = 1;
    }

    host.nextGroupId = serialNextGroupId;
    host.nextIdSetId = serialNextIdSetId;
    host.nextRivalSet = serialNextRivalSet;
    host.noteTimeoutFloor(globalMaxTimeout);
    globalMaxTimeout = host.maxResolvedTimeout;
    return host;
}

void
ShardedChecker::resplit()
{
    CS_ASSERT(state == PipelineState::Parked,
              "resplit needs a parked pipeline");
    InterleavedChecker &host = *shards[0]->checker;

    // 1. Identifier components over the live sets: sets sharing a
    // token are one component; the groups of one set always colocate.
    std::unordered_map<std::uint64_t, std::uint64_t> setParent;
    auto findSet = [&setParent](std::uint64_t sid) {
        while (setParent[sid] != sid) {
            setParent[sid] = setParent[setParent[sid]];
            sid = setParent[sid];
        }
        return sid;
    };
    std::unordered_map<IdToken, std::uint64_t> tokenOwner;
    for (const auto &[sid, entry] : host.idsets) {
        setParent.emplace(sid, sid);
        for (IdToken token : entry.ids.values()) {
            auto [it, fresh] = tokenOwner.try_emplace(token, sid);
            if (!fresh) {
                std::uint64_t a = findSet(sid);
                std::uint64_t b = findSet(it->second);
                if (a != b)
                    setParent[a] = b;
            }
        }
    }

    struct Component
    {
        GroupId minGid = ~0ULL;
        std::vector<GroupId> gids;
        bool emptySet = false;
    };
    std::unordered_map<std::uint64_t, Component> comps;
    for (const auto &[gid, group] : host.groups) {
        std::uint64_t sid = host.groupToSet.at(gid);
        Component &comp = comps[findSet(sid)];
        comp.minGid = std::min(comp.minGid, gid);
        comp.gids.push_back(gid);
        if (host.idsets.at(sid).ids.empty())
            comp.emptySet = true;
    }

    // 2. Deterministic assignment: components by first-created group,
    // round-robin across shards. Empty-set components (reachable only
    // via global scans, never via routing) pin to shard 0.
    std::vector<Component *> ordered;
    ordered.reserve(comps.size());
    for (auto &[root, comp] : comps)
        ordered.push_back(&comp);
    std::sort(ordered.begin(), ordered.end(),
              [](const Component *a, const Component *b) {
                  return a->minGid < b->minGid;
              });
    std::vector<std::vector<GroupId>> perShard(shards.size());
    std::size_t rr = 0;
    for (Component *comp : ordered) {
        std::size_t home =
            comp->emptySet ? 0 : (rr++ % shards.size());
        auto &bucket = perShard[home];
        bucket.insert(bucket.end(), comp->gids.begin(),
                      comp->gids.end());
    }
    roundRobinNext = rr % shards.size();

    for (std::size_t s = 1; s < shards.size(); ++s) {
        std::sort(perShard[s].begin(), perShard[s].end());
        host.moveGroupsInto(*shards[s]->checker, perShard[s]);
    }

    // 3. Per shard: serial → dense local ids, rebuild the merge-side
    // mirrors, reset allocators, re-arm the timeout horizon.
    for (std::size_t s = 0; s < shards.size(); ++s) {
        InterleavedChecker &ck = *shards[s]->checker;
        MergeShard &m = mergeShards[s];
        m = MergeShard{};

        std::unordered_map<GroupId, GroupId> gid_map;
        for (const auto &[gid, group] : ck.groups) {
            gid_map.emplace(gid, m.gidL2G.size());
            m.gidL2G.push_back(gid);
        }
        std::unordered_map<std::uint64_t, std::uint64_t> set_map;
        for (const auto &[sid, entry] : ck.idsets) {
            set_map.emplace(sid, m.setL2G.size());
            m.setL2G.push_back(sid);
        }
        std::set<std::uint64_t> rivals;
        for (const auto &[gid, group] : ck.groups) {
            if (group.rivalSet() != 0)
                rivals.insert(group.rivalSet());
        }
        std::unordered_map<std::uint64_t, std::uint64_t> rival_map;
        for (std::uint64_t rival : rivals) {
            rival_map.emplace(rival, m.rivalL2G.size());
            m.rivalL2G.push_back(rival);
        }

        // Lineage links to groups that no longer exist (or now live on
        // another shard — equally dead from here) become stale-range
        // locals, so they can never collide with future dense ids.
        std::uint64_t staleNext = kStaleBase + 1;
        auto mapStale = [&](GroupId ref) {
            if (ref == 0 || gid_map.count(ref))
                return;
            gid_map.emplace(ref, staleNext);
            m.staleL2G.emplace(staleNext, ref);
            ++staleNext;
        };
        for (const auto &[gid, group] : ck.groups) {
            mapStale(group.parent());
            for (GroupId child : group.children())
                mapStale(child);
        }

        ck.renumber(gid_map, set_map, rival_map);
        ck.nextGroupId = m.gidL2G.size();
        ck.nextIdSetId = m.setL2G.size();
        ck.nextRivalSet = m.rivalL2G.size();
        ck.maxResolvedTimeout = 0.0;
        ck.noteTimeoutFloor(globalMaxTimeout);

        m.lastStats = ck.counters;
        m.groupsNow = ck.groups.size();
        m.setsNow = ck.idsets.size();
        m.resolutions = shards[s]->policy.resolutions;
        m.fallbacks = shards[s]->policy.defaultFallbacks;
        shardMetrics.shards[s].activeGroups = m.groupsNow;
    }

    // 4. Rebuild the router from the live sets: token components are
    // shard-closed by construction, so each set's tokens carry its
    // shard as the component home.
    for (std::size_t i = 0; i < dsuParent.size(); ++i) {
        dsuParent[i] = static_cast<std::uint32_t>(i);
        dsuHome[i] = -1;
    }
    for (std::size_t s = 0; s < shards.size(); ++s) {
        for (const auto &[sid, entry] : shards[s]->checker->idsets) {
            const std::vector<IdToken> &tokens = entry.ids.values();
            if (tokens.empty())
                continue;
            dsuEnsure(tokens.front());
            std::uint32_t root = dsuFind(tokens.front());
            for (std::size_t i = 1; i < tokens.size(); ++i) {
                dsuEnsure(tokens[i]);
                std::uint32_t other = dsuFind(tokens[i]);
                if (other != root)
                    dsuParent[other] = root;
            }
        }
    }
    for (std::size_t s = 0; s < shards.size(); ++s) {
        for (const auto &[sid, entry] : shards[s]->checker->idsets) {
            const std::vector<IdToken> &tokens = entry.ids.values();
            if (!tokens.empty())
                dsuHome[dsuFind(tokens.front())] =
                    static_cast<std::int32_t>(s);
        }
    }
}

std::vector<CheckEvent>
ShardedChecker::reconcileFeed(const CheckMessage &message, bool step,
                              common::SimTime now)
{
    CS_ASSERT(swarm.reconcilePolicy != ReconcilePolicy::Forbid,
              "unpartitionable message under ReconcilePolicy::Forbid");
    ++shardMetrics.reconcilerHits;

    quiesce();
    InterleavedChecker &host = consolidate();

    std::vector<CheckEvent> events;
    if (step) {
        BaseChecker::TimeoutResolver resolver =
            [this](const std::vector<std::string> &tasks) {
                return masterPolicy.timeoutForCandidates(tasks);
            };
        events = host.sweepTimeouts(now, resolver);
    }
    std::vector<CheckEvent> fed = host.feed(message);
    events.insert(events.end(), std::make_move_iterator(fed.begin()),
                  std::make_move_iterator(fed.end()));

    serialNextGroupId = host.nextGroupId;
    serialNextIdSetId = host.nextIdSetId;
    serialNextRivalSet = host.nextRivalSet;
    globalMaxTimeout = host.maxResolvedTimeout;

    resplit();
    resumeShards();
    return events;
}

template <typename Op>
std::vector<CheckEvent>
ShardedChecker::consolidatedOp(Op &&op)
{
    quiesce();
    InterleavedChecker &host = consolidate();
    std::vector<CheckEvent> events = op(host);
    serialNextGroupId = host.nextGroupId;
    serialNextIdSetId = host.nextIdSetId;
    serialNextRivalSet = host.nextRivalSet;
    globalMaxTimeout = host.maxResolvedTimeout;
    resplit();
    resumeShards();
    return events;
}

// --- BaseChecker surface -----------------------------------------------

std::vector<CheckEvent>
ShardedChecker::feed(const CheckMessage &message)
{
    submitFeed(message);
    std::vector<CheckEvent> out;
    flush(out);
    return out;
}

std::vector<CheckEvent>
ShardedChecker::sweepTimeouts(common::SimTime now,
                              const TimeoutResolver &resolver)
{
    return consolidatedOp([&](InterleavedChecker &host) {
        return host.sweepTimeouts(now, resolver);
    });
}

std::vector<CheckEvent>
ShardedChecker::shedToCap(std::size_t cap, common::SimTime now)
{
    return consolidatedOp([&](InterleavedChecker &host) {
        return host.shedToCap(cap, now);
    });
}

std::vector<CheckEvent>
ShardedChecker::shedToMemory(std::size_t max_bytes, common::SimTime now)
{
    return consolidatedOp([&](InterleavedChecker &host) {
        return host.shedToMemory(max_bytes, now);
    });
}

std::size_t
ShardedChecker::approxRetainedBytes() const
{
    // Semantically const; mechanically a consolidate+resplit cycle.
    auto *self = const_cast<ShardedChecker *>(this);
    std::size_t bytes = 0;
    self->consolidatedOp([&](InterleavedChecker &host) {
        bytes = host.approxRetainedBytes();
        return std::vector<CheckEvent>{};
    });
    return bytes;
}

std::vector<CheckEvent>
ShardedChecker::finish(common::SimTime now)
{
    return consolidatedOp([&](InterleavedChecker &host) {
        return host.finish(now);
    });
}

const CheckerStats &
ShardedChecker::stats() const
{
    statsCache = CheckerStats{};
    for (const MergeShard &m : mergeShards)
        accumulateStats(statsCache, m.lastStats);
    return statsCache;
}

std::size_t
ShardedChecker::activeGroups() const
{
    std::size_t total = 0;
    for (const MergeShard &m : mergeShards)
        total += static_cast<std::size_t>(m.groupsNow);
    return total;
}

std::size_t
ShardedChecker::activeIdentifierSets() const
{
    std::size_t total = 0;
    for (const MergeShard &m : mergeShards)
        total += static_cast<std::size_t>(m.setsNow);
    return total;
}

const RemovalCounts &
ShardedChecker::dependencyRemovals() const
{
    // Tallies are additive across shards: no consolidation needed,
    // just a parked window to read each checker safely.
    auto *self = const_cast<ShardedChecker *>(this);
    self->flushInternal();
    self->quiesce();
    removalsCache.clear();
    for (const auto &shard : shards) {
        for (const auto &[name, edges] : shard->checker->removalCounts) {
            auto &into = removalsCache[name];
            for (const auto &[edge, count] : edges)
                into[edge] += count;
        }
    }
    self->resumeShards();
    return removalsCache;
}

void
ShardedChecker::saveState(common::BinWriter &out)
{
    consolidatedOp([&](InterleavedChecker &host) {
        const InterleavedChecker &serial = host;
        serial.saveState(out); // the serial image: engines interchange
        return std::vector<CheckEvent>{};
    });
}

bool
ShardedChecker::restoreState(common::BinReader &in)
{
    flushInternal();
    quiesce();
    // The caller's restored policy carries the checkpoint's resolution
    // tallies; live tallies reset so the sum does not double-count.
    masterPolicy.resolutions = 0;
    masterPolicy.defaultFallbacks = 0;
    for (const auto &shard : shards) {
        shard->policy.resolutions = 0;
        shard->policy.defaultFallbacks = 0;
        InterleavedChecker &ck = *shard->checker;
        ck.setBirthLogs(nullptr, nullptr, nullptr);
        ck.clearState();
    }
    InterleavedChecker &host = *shards[0]->checker;
    bool ok = host.restoreState(in);
    if (ok) {
        serialNextGroupId = host.nextGroupId;
        serialNextIdSetId = host.nextIdSetId;
        serialNextRivalSet = host.nextRivalSet;
        globalMaxTimeout = host.maxResolvedTimeout;
    } else {
        serialNextGroupId = serialNextIdSetId = serialNextRivalSet = 1;
        globalMaxTimeout = 0.0;
    }
    resplit();
    resumeShards();
    return ok;
}

void
ShardedChecker::setTracer(obs::ExecutionTracer *tracer)
{
    // Span identity is shard-local; the monitor keeps the serial
    // engine when tracing is on.
    CS_ASSERT(tracer == nullptr,
              "execution tracing requires the serial engine");
}

void
ShardedChecker::setLatencyPolicy(
    const std::vector<LatencyProfile> &profiles,
    const LatencyCheckConfig &policy)
{
    latProfiles = profiles;
    latConfig = policy;
    quiesce();
    for (const auto &shard : shards)
        shard->checker->setLatencyPolicy(profiles, policy);
    resumeShards();
}

void
ShardedChecker::setCertifiedTemplates(std::vector<char> certified)
{
    certBits = std::move(certified);
    quiesce();
    for (const auto &shard : shards)
        shard->checker->setCertifiedTemplates(certBits);
    resumeShards();
}

void
ShardedChecker::setTimeoutPolicy(const TimeoutPolicy &policy)
{
    masterPolicy = policy;
    masterPolicy.resolutions = 0;
    masterPolicy.defaultFallbacks = 0;
    quiesce();
    for (const auto &shard : shards) {
        shard->policy = policy;
        shard->policy.resolutions = 0;
        shard->policy.defaultFallbacks = 0;
    }
    resumeShards();
}

std::pair<std::uint64_t, std::uint64_t>
ShardedChecker::timeoutResolutionCounts() const
{
    std::uint64_t resolutions = masterPolicy.resolutions;
    std::uint64_t fallbacks = masterPolicy.defaultFallbacks;
    for (const MergeShard &m : mergeShards) {
        resolutions += m.resolutions;
        fallbacks += m.fallbacks;
    }
    return {resolutions, fallbacks};
}

bool
ShardedChecker::indexesConsistent()
{
    flushInternal();
    quiesce();
    bool ok = true;
    for (const auto &shard : shards)
        ok = ok && shard->checker->indexConsistent();
    resumeShards();
    return ok;
}

} // namespace cloudseer::core
