/**
 * @file
 * Allocation pin for the timeout sweep: once every live group's timeout
 * is resolved, a sweep that finds nothing due makes no heap allocation,
 * whatever the number of live groups. A global operator new counts the
 * allocations, so this test is an executable of its own.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <new>
#include <string>

#include "core/checker/interleaved_checker.hpp"
#include "test_util.hpp"

namespace {

std::atomic<bool> counting{false};
std::atomic<std::size_t> allocations{0};

} // namespace

void *
operator new(std::size_t size)
{
    if (counting.load(std::memory_order_relaxed))
        allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size == 0 ? 1 : size))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

using namespace cloudseer;
using namespace cloudseer::core;
using cloudseer::testutil::LetterCatalog;
using cloudseer::testutil::makeLetterAutomaton;
using cloudseer::testutil::makeMessage;

namespace {

/** Heap allocations made by `fn`. */
template <typename Fn>
std::size_t
allocationsDuring(Fn &&fn)
{
    allocations.store(0);
    counting.store(true);
    fn();
    counting.store(false);
    return allocations.load();
}

} // namespace

TEST(SweepAllocTest, SweepWithNothingDueDoesNotAllocate)
{
    LetterCatalog letters;
    TaskAutomaton boot = makeLetterAutomaton(
        letters, "boot", {"A", "P", "S"}, {{"A", "P"}, {"P", "S"}});
    InterleavedChecker checker(CheckerConfig{}, {&boot});
    const BaseChecker::TimeoutResolver resolver =
        [](const std::vector<std::string> &) { return 10.0; };

    constexpr int kGroups = 1000;
    logging::RecordId record = 1;
    for (int i = 0; i < kGroups; ++i) {
        checker.feed(makeMessage(letters, "A",
                                 {"vm-" + std::to_string(i)}, record++,
                                 i * 0.001));
    }
    ASSERT_EQ(checker.activeGroups(), static_cast<std::size_t>(kGroups));
    // First sweep: every timeout is resolved (warm-up).
    ASSERT_TRUE(checker.sweepTimeouts(2.0, resolver).empty());

    std::vector<CheckEvent> events;
    std::size_t made = allocationsDuring(
        [&] { events = checker.sweepTimeouts(5.0, resolver); });
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(made, 0u) << "sweep over " << kGroups
                        << " live groups, none due";

    // Every group consumes again at t = 8: their indexed bounds (10 to
    // 11 s) have passed at t = 11.5, but nothing is due until 18. All
    // 1000 pop, are re-checked and re-indexed, still without
    // allocating.
    for (int i = 0; i < kGroups; ++i) {
        checker.feed(makeMessage(letters, "P",
                                 {"vm-" + std::to_string(i)}, record++,
                                 8.0));
    }
    made = allocationsDuring(
        [&] { events = checker.sweepTimeouts(11.5, resolver); });
    EXPECT_TRUE(events.empty());
    EXPECT_EQ(made, 0u) << "re-keying " << kGroups << " popped groups";
    ASSERT_EQ(checker.activeGroups(), static_cast<std::size_t>(kGroups));

    // The counter works: a due sweep allocates its reports.
    made = allocationsDuring(
        [&] { events = checker.sweepTimeouts(18.5, resolver); });
    EXPECT_EQ(events.size(), static_cast<std::size_t>(kGroups));
    EXPECT_GT(made, 0u);
}
