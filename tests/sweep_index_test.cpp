/**
 * @file
 * Differential test of the deadline-indexed timeout sweep.
 *
 * SweepScanOracle keeps the full-scan sweep the index replaced: snapshot
 * every live group id, resolve every group's timeout on every sweep,
 * and apply the timeout criterion in ascending id. Two checkers see the
 * same seeded random stream, one swept by the oracle and one by
 * InterleavedChecker::sweepTimeouts; after every step their events,
 * CheckerStats, zombie horizons, saveState images and execution traces
 * must be equal. The streams cover backwards (unclamped) timestamps,
 * narrowing candidate sets, clones and rival sets, timeout suppression,
 * zombie fade under a growing horizon, both shedding paths, restore, and
 * the sharded engine's renumber/moveGroupsInto surgery.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.hpp"
#include "core/checker/interleaved_checker.hpp"
#include "test_util.hpp"

using namespace cloudseer;
using namespace cloudseer::core;
using cloudseer::testutil::LetterCatalog;
using cloudseer::testutil::makeLetterAutomaton;
using cloudseer::testutil::makeMessage;

namespace cloudseer::core {

/** Friend of InterleavedChecker: the reference full-scan sweep. */
class SweepScanOracle
{
  public:
    static std::vector<CheckEvent>
    sweep(InterleavedChecker &c, common::SimTime now,
          const BaseChecker::TimeoutResolver &resolver)
    {
        std::vector<CheckEvent> events;
        c.traceNow = now;
        std::vector<GroupId> snapshot;
        snapshot.reserve(c.groups.size());
        for (const auto &[gid, group] : c.groups)
            snapshot.push_back(gid);

        for (GroupId gid : snapshot) {
            auto it = c.groups.find(gid);
            if (it == c.groups.end())
                continue;
            AutomatonGroup &group = it->second;
            double timeout = resolver(group.candidateTaskNames());
            c.maxResolvedTimeout = std::max(c.maxResolvedTimeout, timeout);
            if (group.zombie()) {
                if (now - group.lastActivity() >
                    3.0 * c.maxResolvedTimeout)
                    c.eraseGroup(gid);
                continue;
            }
            if (now - group.lastActivity() <= timeout)
                continue;
            if (c.config.timeoutSuppression &&
                c.lineageCovered(group, now, timeout)) {
                ++c.counters.timeoutsSuppressed;
                c.eraseGroup(gid);
                continue;
            }
            ++c.counters.timeoutsReported;
            c.traceEnd(group, now, obs::SpanEnd::TimedOut);
            events.push_back(
                c.makeEvent(CheckEventKind::Timeout, group, now));
            if (c.config.zombieAbsorption)
                group.markZombie();
            else
                c.eraseGroup(gid);
        }
        return events;
    }

    static double horizon(const InterleavedChecker &c)
    {
        return c.maxResolvedTimeout;
    }

    /** Identity renumbering: the groups move to new map nodes. */
    static void renumberInPlace(InterleavedChecker &c)
    {
        c.renumber({}, {}, {});
    }

    /** Move every group into `spare` and back again. */
    static void moveOutAndBack(InterleavedChecker &c,
                               InterleavedChecker &spare)
    {
        std::vector<GroupId> gids;
        for (const auto &[gid, group] : c.groups)
            gids.push_back(gid);
        c.moveGroupsInto(spare, gids);
        spare.moveGroupsInto(c, gids);
    }

    static std::size_t indexedGroups(const InterleavedChecker &c)
    {
        return c.deadlines.size();
    }
};

} // namespace cloudseer::core

namespace {

std::string
fmtTime(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%a", value);
    return buf;
}

std::string
describe(const std::vector<CheckEvent> &events)
{
    std::string out;
    for (const CheckEvent &e : events) {
        out += std::to_string(static_cast<int>(e.kind)) + " g" +
               std::to_string(e.group) + " t" + fmtTime(e.time) + " s" +
               fmtTime(e.startTime) + " " + e.taskName + " [";
        for (const std::string &task : e.candidateTasks)
            out += task + ",";
        out += "] r";
        for (logging::RecordId r : e.records)
            out += std::to_string(r) + ",";
        out += " f";
        for (logging::TemplateId t : e.frontierTemplates)
            out += std::to_string(t) + ",";
        out += " x";
        for (logging::TemplateId t : e.expectedTemplates)
            out += std::to_string(t) + ",";
        out += " i";
        for (logging::IdToken t : e.identifiers)
            out += std::to_string(t) + ",";
        out += "\n";
    }
    return out;
}

std::string
describe(const CheckerStats &s)
{
    const std::uint64_t fields[] = {s.messages,
                                    s.decisive,
                                    s.ambiguous,
                                    s.recoveredPassUnknown,
                                    s.recoveredNewSequence,
                                    s.recoveredOtherSet,
                                    s.recoveredFalseDependency,
                                    s.unmatched,
                                    s.errorsReported,
                                    s.timeoutsReported,
                                    s.timeoutsSuppressed,
                                    s.latencyAnomalies,
                                    s.groupsShed,
                                    s.accepted,
                                    s.consumeAttempts};
    std::string out;
    for (std::uint64_t f : fields)
        out += std::to_string(f) + " ";
    return out;
}

std::string
image(const InterleavedChecker &checker)
{
    common::BinWriter out;
    checker.saveState(out);
    return out.bytes();
}

/** Letter automata with shared prefixes and per-task timeouts. */
struct Models
{
    LetterCatalog letters;
    std::vector<std::unique_ptr<TaskAutomaton>> owned;
    std::vector<const TaskAutomaton *> all;
    std::map<std::string, double> timeouts;

    Models()
    {
        add(makeLetterAutomaton(letters, "boot",
                                {"A", "P", "S", "G", "T", "W"},
                                {{"A", "P"},
                                 {"P", "S"},
                                 {"S", "G"},
                                 {"S", "T"},
                                 {"G", "W"},
                                 {"T", "W"}}),
            6.0);
        // Shares A and P with boot: the candidate set narrows (and the
        // timeout with it) at the third message.
        add(makeLetterAutomaton(letters, "del", {"A", "P", "X", "Y"},
                                {{"A", "P"}, {"P", "X"}, {"X", "Y"}}),
            4.0);
        add(makeLetterAutomaton(letters, "stop", {"A", "Q", "R"},
                                {{"A", "Q"}, {"Q", "R"}}),
            2.0);
        // Only started late in a stream: raises the zombie horizon
        // while zombies are fading.
        add(makeLetterAutomaton(letters, "long", {"L", "M", "N"},
                                {{"L", "M"}, {"M", "N"}}),
            40.0);
    }

    void add(TaskAutomaton automaton, double timeout)
    {
        timeouts[automaton.name()] = timeout;
        owned.push_back(
            std::make_unique<TaskAutomaton>(std::move(automaton)));
        all.push_back(owned.back().get());
    }

    /** Most generous candidate wins, like TimeoutPolicy. */
    double resolve(const std::vector<std::string> &tasks) const
    {
        double best = 0.0;
        for (const std::string &task : tasks) {
            auto it = timeouts.find(task);
            best = std::max(best, it == timeouts.end() ? 10.0 : it->second);
        }
        return tasks.empty() ? 10.0 : best;
    }
};

/** One synthetic execution walking an automaton. */
struct Walk
{
    std::unique_ptr<AutomatonInstance> probe;
    std::string id;
    std::string user;
};

/** The oracle-swept and index-swept checkers, side by side. */
struct Pair
{
    const Models &models;
    CheckerConfig config;
    std::unique_ptr<InterleavedChecker> oracle, indexed;
    obs::ExecutionTracer oracleTrace{100000}, indexedTrace{100000};

    Pair(const Models &m, const CheckerConfig &c) : models(m), config(c)
    {
        oracle = fresh();
        indexed = fresh();
        oracle->setTracer(&oracleTrace);
        indexed->setTracer(&indexedTrace);
    }

    std::unique_ptr<InterleavedChecker> fresh() const
    {
        return std::make_unique<InterleavedChecker>(config, models.all);
    }

    BaseChecker::TimeoutResolver resolver() const
    {
        return [this](const std::vector<std::string> &tasks) {
            return models.resolve(tasks);
        };
    }

    void expectSame(const std::vector<CheckEvent> &a,
                    const std::vector<CheckEvent> &b,
                    const std::string &where) const
    {
        ASSERT_EQ(describe(a), describe(b)) << where;
        ASSERT_EQ(describe(oracle->stats()), describe(indexed->stats()))
            << where;
        ASSERT_EQ(SweepScanOracle::horizon(*oracle),
                  SweepScanOracle::horizon(*indexed))
            << where;
        ASSERT_EQ(image(*oracle), image(*indexed)) << where;
    }

    void sweep(common::SimTime now, const std::string &where)
    {
        auto a = SweepScanOracle::sweep(*oracle, now, resolver());
        auto b = indexed->sweepTimeouts(now, resolver());
        expectSame(a, b, where + " sweep@" + fmtTime(now));
    }

    void feed(const CheckMessage &message, const std::string &where)
    {
        auto a = oracle->feed(message);
        auto b = indexed->feed(message);
        expectSame(a, b, where + " feed r" +
                             std::to_string(message.record));
    }
};

/** Runs one stream; returns the timeouts it suppressed. */
std::uint64_t
runStream(std::uint64_t seed, const CheckerConfig &config)
{
    Models models;
    Pair pair(models, config);
    common::Rng rng(seed);
    const std::string tag = "seed " + std::to_string(seed) + " ";

    std::vector<Walk> live;
    int next_exec = 0;
    logging::RecordId record = 1;
    double clock = 100.0;
    double wall = clock;
    const int steps = 2500;

    for (int step = 0; step < steps; ++step) {
        const std::string where = tag + "step " + std::to_string(step);
        double roll = rng.uniformReal(0.0, 1.0);

        if (roll < 0.015) {
            auto oa = SweepScanOracle::sweep(*pair.oracle, wall,
                                             pair.resolver());
            std::size_t cap =
                static_cast<std::size_t>(rng.uniformInt(0, 12));
            auto a = pair.oracle->shedToCap(cap, wall);
            auto ib = pair.indexed->sweepTimeouts(wall, pair.resolver());
            auto b = pair.indexed->shedToCap(cap, wall);
            oa.insert(oa.end(), a.begin(), a.end());
            ib.insert(ib.end(), b.begin(), b.end());
            pair.expectSame(oa, ib, where + " shedToCap");
            continue;
        }
        if (roll < 0.03) {
            std::size_t bytes =
                static_cast<std::size_t>(rng.uniformInt(1, 20000));
            auto a = pair.oracle->shedToMemory(bytes, wall);
            auto b = pair.indexed->shedToMemory(bytes, wall);
            pair.expectSame(a, b, where + " shedToMemory");
            continue;
        }
        if (roll < 0.04) {
            // Checkpoint both and continue on restored checkers.
            auto restore = [&pair](std::unique_ptr<InterleavedChecker> &c,
                                   obs::ExecutionTracer &tracer) {
                std::string bytes = image(*c);
                auto copy = pair.fresh();
                common::BinReader in(bytes);
                ASSERT_TRUE(copy->restoreState(in));
                copy->setTracer(&tracer);
                c = std::move(copy);
            };
            restore(pair.oracle, pair.oracleTrace);
            if (::testing::Test::HasFatalFailure())
                return 0;
            restore(pair.indexed, pair.indexedTrace);
            pair.expectSame({}, {}, where + " restore");
            continue;
        }
        if (roll < 0.05) {
            SweepScanOracle::renumberInPlace(*pair.oracle);
            SweepScanOracle::renumberInPlace(*pair.indexed);
            pair.expectSame({}, {}, where + " renumber");
            continue;
        }
        if (roll < 0.06) {
            auto spare_a = pair.fresh();
            auto spare_b = pair.fresh();
            SweepScanOracle::moveOutAndBack(*pair.oracle, *spare_a);
            SweepScanOracle::moveOutAndBack(*pair.indexed, *spare_b);
            pair.expectSame({}, {}, where + " moveGroupsInto");
            continue;
        }

        // Message clock: mostly forward, sometimes backwards (the
        // checker does not clamp), now and then a long silence.
        double advance = rng.uniformReal(0.0, 1.0) * 0.6;
        double dir = rng.uniformReal(0.0, 1.0);
        if (dir < 0.12)
            clock -= rng.uniformReal(0.0, 1.0) * 8.0;
        else if (dir < 0.15)
            clock += 5.0 + rng.uniformReal(0.0, 1.0) * 60.0;
        else
            clock += advance;
        wall = std::max(wall, clock);

        // Sweep time: the monitor's clamped clock, the raw message
        // time, or a deadline hit exactly.
        double sweep_at = wall;
        double pick = rng.uniformReal(0.0, 1.0);
        if (pick < 0.2)
            sweep_at = clock;
        else if (pick < 0.25)
            sweep_at = wall + 6.0;
        pair.sweep(sweep_at, where);
        if (::testing::Test::HasFatalFailure())
            return 0;

        // Choose an execution to advance, or start one ("long" only in
        // the second half of the stream).
        CheckMessage message;
        bool start = live.empty() || rng.uniformReal(0.0, 1.0) < 0.18;
        if (start) {
            Walk walk;
            std::size_t pool = step < steps / 2 ? 3 : 4;
            const TaskAutomaton *automaton =
                models.all[static_cast<std::size_t>(
                    rng.uniformInt(0, static_cast<int>(pool) - 1))];
            walk.probe = std::make_unique<AutomatonInstance>(automaton);
            walk.id = "e" + std::to_string(seed) + "-" +
                      std::to_string(next_exec++);
            walk.user = "u" + std::to_string(rng.uniformInt(0, 3));
            live.push_back(std::move(walk));
        }
        std::size_t index =
            start ? live.size() - 1
                  : static_cast<std::size_t>(rng.uniformInt(
                        0, static_cast<int>(live.size()) - 1));
        Walk &walk = live[index];
        std::vector<logging::TemplateId> enabled =
            walk.probe->expectedTemplates();
        logging::TemplateId tpl = rng.pick(enabled);
        walk.probe->consume(tpl);

        std::vector<std::string> ids;
        double id_roll = rng.uniformReal(0.0, 1.0);
        if (id_roll < 0.15)
            ids = {walk.user}; // ambiguous across this user's walks
        else if (id_roll < 0.25)
            ids = {};
        else if (id_roll < 0.5)
            ids = {walk.id, walk.user};
        else
            ids = {walk.id};
        logging::LogLevel level = rng.uniformReal(0.0, 1.0) < 0.02
                                      ? logging::LogLevel::Error
                                      : logging::LogLevel::Info;
        message = makeMessage(models.letters,
                              models.letters.catalog->text(tpl), ids,
                              record++, clock, level);
        if (rng.uniformReal(0.0, 1.0) < 0.01)
            message.tpl = logging::kInvalidTemplate;
        if (rng.uniformReal(0.0, 1.0) < 0.003)
            message.time = std::numeric_limits<double>::quiet_NaN();
        pair.feed(message, where);
        if (::testing::Test::HasFatalFailure())
            return 0;
        if (walk.probe->accepting())
            live.erase(live.begin() + static_cast<long>(index));
    }

    // The stream must have reached the paths under test.
    const CheckerStats &stats = pair.indexed->stats();
    EXPECT_GT(stats.ambiguous, 0u) << tag << "no clones";
    EXPECT_GT(stats.timeoutsReported, 20u) << tag;
    EXPECT_GT(stats.groupsShed, 0u) << tag;
    EXPECT_EQ(SweepScanOracle::horizon(*pair.indexed), 40.0) << tag;
    const std::uint64_t suppressed = stats.timeoutsSuppressed;

    // Horizon sweeps: far ahead, then infinitely far.
    pair.sweep(wall + 1000.0, tag + "horizon");
    pair.sweep(std::numeric_limits<double>::infinity(), tag + "inf");
    pair.expectSame(pair.oracle->finish(wall + 2000.0),
                    pair.indexed->finish(wall + 2000.0), tag + "finish");
    EXPECT_EQ(pair.oracleTrace.chromeTraceJson(),
              pair.indexedTrace.chromeTraceJson())
        << tag << "tracer span ends differ";
    return suppressed;
}

} // namespace

TEST(SweepIndexTest, MatchesFullScanOnRandomStreams)
{
    std::uint64_t suppressed = 0;
    for (std::uint64_t seed = 1; seed <= 12; ++seed) {
        CheckerConfig config;
        if (seed % 3 == 1)
            config.zombieAbsorption = false;
        if (seed % 3 == 2)
            config.timeoutSuppression = false;
        suppressed += runStream(seed, config);
        if (HasFatalFailure())
            return;
    }
    EXPECT_GT(suppressed, 10u) << "timeout suppression never ran";
}

TEST(SweepIndexTest, ResolvesOncePerCandidateSet)
{
    Models models;
    InterleavedChecker checker(CheckerConfig{}, models.all);
    std::vector<std::vector<std::string>> calls;
    auto resolver = [&](const std::vector<std::string> &tasks) {
        calls.push_back(tasks);
        return models.resolve(tasks);
    };
    auto msg = [&](const std::string &letter, logging::RecordId r,
                   double t) {
        return makeMessage(models.letters, letter, {"one"}, r, t);
    };

    checker.feed(msg("A", 1, 0.0)); // boot, del, stop
    for (int i = 0; i < 5; ++i)
        EXPECT_TRUE(checker.sweepTimeouts(0.5 + i * 0.1, resolver).empty());
    ASSERT_EQ(calls.size(), 1u) << "resolved once, reused afterwards";
    EXPECT_EQ(calls[0],
              (std::vector<std::string>{"boot", "del", "stop"}));

    checker.feed(msg("P", 2, 1.0)); // boot, del: narrowed
    checker.sweepTimeouts(1.5, resolver);
    checker.sweepTimeouts(1.6, resolver);
    ASSERT_EQ(calls.size(), 2u);
    EXPECT_EQ(calls[1], (std::vector<std::string>{"boot", "del"}));

    checker.feed(msg("S", 3, 2.0)); // boot only
    checker.sweepTimeouts(2.5, resolver);
    ASSERT_EQ(calls.size(), 3u);
    EXPECT_EQ(calls[2], (std::vector<std::string>{"boot"}));

    // The narrowed 6 s timeout applies: due strictly after 8.0.
    EXPECT_TRUE(checker.sweepTimeouts(8.0, resolver).empty());
    EXPECT_EQ(checker.sweepTimeouts(8.01, resolver).size(), 1u);
    EXPECT_EQ(calls.size(), 3u);
}

TEST(SweepIndexTest, BackwardsActivityPullsTheDeadlineEarlier)
{
    Models models;
    InterleavedChecker checker(CheckerConfig{}, models.all);
    auto resolver = [&](const std::vector<std::string> &tasks) {
        return models.resolve(tasks);
    };
    checker.feed(makeMessage(models.letters, "L", {"k"}, 1, 50.0));
    EXPECT_TRUE(checker.sweepTimeouts(50.0, resolver).empty());
    // An unclamped earlier timestamp moves lastActivity back to 10 s:
    // the long task's 40 s timeout now expires after 50 s, not 90 s.
    checker.feed(makeMessage(models.letters, "M", {"k"}, 2, 10.0));
    EXPECT_TRUE(checker.sweepTimeouts(50.0, resolver).empty());
    EXPECT_EQ(checker.sweepTimeouts(50.5, resolver).size(), 1u);
}

TEST(SweepIndexTest, IndexHoldsOneEntryPerLiveGroup)
{
    Models models;
    InterleavedChecker checker(CheckerConfig{}, models.all);
    auto resolver = [&](const std::vector<std::string> &tasks) {
        return models.resolve(tasks);
    };
    for (int i = 0; i < 40; ++i) {
        checker.feed(makeMessage(models.letters, "A",
                                 {"g" + std::to_string(i)},
                                 static_cast<logging::RecordId>(i + 1),
                                 i * 0.01));
    }
    checker.sweepTimeouts(0.5, resolver);
    EXPECT_EQ(SweepScanOracle::indexedGroups(checker),
              checker.activeGroups());
    checker.shedToCap(25, 0.5);
    EXPECT_EQ(SweepScanOracle::indexedGroups(checker), 25u);
    checker.sweepTimeouts(100.0, resolver); // all time out -> zombies
    EXPECT_EQ(SweepScanOracle::indexedGroups(checker), 25u);
    checker.sweepTimeouts(1000.0, resolver); // zombies fade
    EXPECT_EQ(checker.activeGroups(), 0u);
    EXPECT_EQ(SweepScanOracle::indexedGroups(checker), 0u);
}
