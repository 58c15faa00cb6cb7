/**
 * @file
 * Unit tests for model persistence: token escaping, save/load round
 * trips (including over the real mined models), and rejection of
 * malformed files.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/model_lint.hpp"
#include "core/mining/model_io.hpp"
#include "core/monitor/workflow_monitor.hpp"
#include "eval/accuracy_harness.hpp"
#include "eval/modeling_harness.hpp"
#include "test_util.hpp"

using namespace cloudseer;
using namespace cloudseer::core;

TEST(ModelToken, EscapesAndRestores)
{
    for (const std::string &raw :
         {std::string("plain"), std::string("with space"),
          std::string("tabs\tand\nnewlines"), std::string("100%"),
          std::string("[req-<uuid>] \"POST /v2\" status: <num>"),
          std::string("")}) {
        std::string encoded = encodeModelToken(raw);
        EXPECT_EQ(encoded.find(' '), std::string::npos) << raw;
        EXPECT_EQ(encoded.find('\n'), std::string::npos) << raw;
        auto decoded = decodeModelToken(encoded);
        ASSERT_TRUE(decoded.has_value()) << raw;
        EXPECT_EQ(*decoded, raw);
    }
}

TEST(ModelToken, RejectsBadEscapes)
{
    EXPECT_FALSE(decodeModelToken("abc%").has_value());
    EXPECT_FALSE(decodeModelToken("abc%2").has_value());
    EXPECT_FALSE(decodeModelToken("abc%zz").has_value());
}

TEST(ModelIo, RoundTripsHandBuiltAutomaton)
{
    testutil::LetterCatalog letters;
    TaskAutomaton automaton = testutil::makeLetterAutomaton(
        letters, "demo task", {"A", "B", "C"},
        {{"A", "B"}, {"A", "C"}});

    std::string text = saveModelsToString(*letters.catalog, {automaton});
    auto loaded = loadModelsFromString(text);
    ASSERT_TRUE(loaded.has_value());
    ASSERT_EQ(loaded->automata.size(), 1u);
    const TaskAutomaton &copy = loaded->automata[0];
    EXPECT_EQ(copy.name(), "demo task");
    EXPECT_EQ(copy.eventCount(), 3u);
    EXPECT_EQ(copy.edgeCount(), 2u);
    EXPECT_EQ(copy.forkStates().size(), 1u);
}

TEST(ModelIo, RoundTripsTheRealMinedModels)
{
    eval::ModelingConfig config;
    config.minRuns = 40;
    config.maxRuns = 150;
    eval::ModeledSystem models = eval::buildModels(config);

    std::string text =
        saveModelsToString(*models.catalog, models.automata);
    auto loaded = loadModelsFromString(text);
    ASSERT_TRUE(loaded.has_value());
    ASSERT_EQ(loaded->automata.size(), models.automata.size());
    for (std::size_t i = 0; i < models.automata.size(); ++i) {
        EXPECT_EQ(loaded->automata[i].name(),
                  models.automata[i].name());
        EXPECT_EQ(loaded->automata[i].eventCount(),
                  models.automata[i].eventCount());
        EXPECT_EQ(loaded->automata[i].edgeCount(),
                  models.automata[i].edgeCount());
    }

    // Save(load(x)) is a fixed point (ids are re-interned densely).
    std::string again = saveModelsToString(*loaded->catalog,
                                           loaded->automata);
    auto reloaded = loadModelsFromString(again);
    ASSERT_TRUE(reloaded.has_value());
    EXPECT_EQ(saveModelsToString(*reloaded->catalog,
                                 reloaded->automata),
              again);
}

TEST(ModelIo, LoadedModelsMonitorEquivalently)
{
    // A monitor built from persisted models must accept the same
    // dataset as one built from the in-memory models.
    eval::ModelingConfig config;
    config.minRuns = 40;
    config.maxRuns = 150;
    eval::ModeledSystem models = eval::buildModels(config);

    auto loaded = loadModelsFromString(
        saveModelsToString(*models.catalog, models.automata));
    ASSERT_TRUE(loaded.has_value());

    eval::ModeledSystem restored;
    restored.catalog = loaded->catalog;
    restored.automata = std::move(loaded->automata);

    eval::DatasetConfig dataset;
    dataset.users = 2;
    dataset.tasksPerUser = 8;
    dataset.seed = 3;
    eval::GeneratedDataset generated = eval::generateDataset(dataset);

    core::MonitorConfig monitor_config;
    eval::DatasetResult original =
        eval::checkDataset(models, generated, monitor_config);
    eval::DatasetResult reloaded =
        eval::checkDataset(restored, generated, monitor_config);
    EXPECT_EQ(original.acceptedCorrect, reloaded.acceptedCorrect);
    EXPECT_EQ(reloaded.acceptedCorrect, generated.totalTasks);
}

TEST(ModelIo, RejectsMalformedFiles)
{
    EXPECT_FALSE(loadModelsFromString("").has_value());
    EXPECT_FALSE(loadModelsFromString("wrong-magic 1\n").has_value());
    EXPECT_FALSE(
        loadModelsFromString("cloudseer-models 999\n").has_value());
    // Truncated automaton section.
    EXPECT_FALSE(loadModelsFromString(
                     "cloudseer-models 1\n"
                     "template 0 svc A\n"
                     "automaton t 1 0\n"
                     "event 0 0 0\n")
                     .has_value());
    // Edge out of range.
    EXPECT_FALSE(loadModelsFromString(
                     "cloudseer-models 1\n"
                     "template 0 svc A\n"
                     "automaton t 1 1\n"
                     "event 0 0 0\n"
                     "edge 0 7 0\n"
                     "end\n")
                     .has_value());
    // Event references an unknown template.
    EXPECT_FALSE(loadModelsFromString(
                     "cloudseer-models 1\n"
                     "automaton t 1 0\n"
                     "event 0 42 0\n"
                     "end\n")
                     .has_value());
    // Unknown directive.
    EXPECT_FALSE(loadModelsFromString(
                     "cloudseer-models 1\n"
                     "banana 1 2 3\n")
                     .has_value());
}

TEST(ModelIo, MalformedNumbersAreRejectedNotThrown)
{
    // Every numeric field, broken in each way a checked parse must
    // refuse: not a number, trailing junk, a sign on an unsigned field,
    // and out of range. The loader returns nullopt; it never throws.
    const std::string head = "cloudseer-models 1\n";
    const std::string tpl = "template 0 svc A\n";
    const std::string open = "automaton t 1 0\n";
    const std::string event = "event 0 0 0\n";
    const std::string lat = "tasklat 5 5 1 2 3 4\n";
    const std::vector<std::string> bad = {
        head + "template notanumber svc-api A\n",
        head + "template 7x svc A\n",
        head + "template -1 svc A\n",
        head + "template 99999999999999999999 svc A\n",
        head + "template 4294967296 svc A\n",
        head + tpl + "automaton t one 0\n",
        head + tpl + "automaton t 1 -3\n",
        head + tpl + "automaton t 1 0\nevent zero 0 0\nend\n",
        head + tpl + "automaton t 1 0\nevent 0 x 0\nend\n",
        head + tpl + "automaton t 1 0\nevent 0 0 1e3\nend\n",
        head + tpl + "automaton t 1 1\n" + event + "edge a 0 0\nend\n",
        head + tpl + "automaton t 1 1\n" + event +
            "edge 0 99999999999 0\nend\n",
        head + tpl + open + event + "tasklat many 5 1 2 3 4\nend\n",
        head + tpl + open + event + "tasklat 5 5 1 2 3 fast\nend\n",
        head + tpl + open + event + "tasklat 5 -5 1 2 3 4\nend\n",
        head + tpl + open + event + lat +
            "edgelat 0 x 5 1 2 3 4\nend\n",
        head + tpl + open + event + lat +
            "edgelat 0 0 5 1 2 3 1e999\nend\n",
        head + "certificate 0xff\n",
        head + tpl + "certificate 1\nverdict x certified 1 1\n",
        head + tpl + "certificate 1\nverdict 0 certified 1 -1\n",
    };
    for (const std::string &text : bad) {
        std::optional<ModelBundle> loaded;
        EXPECT_NO_THROW(loaded = loadModelsFromString(text)) << text;
        EXPECT_FALSE(loaded.has_value()) << text;
    }
    // The same shapes with sound numbers still load.
    EXPECT_TRUE(loadModelsFromString(head + tpl + open + event + lat +
                                     "end\n")
                    .has_value());
    EXPECT_TRUE(loadModelsFromString(head + tpl +
                                     "certificate 18446744073709551615\n"
                                     "verdict 0 certified 1 2\n")
                    .has_value());
}

TEST(ModelIo, EmptyBundleIsValid)
{
    logging::TemplateCatalog catalog;
    auto loaded =
        loadModelsFromString(saveModelsToString(catalog, {}));
    ASSERT_TRUE(loaded.has_value());
    EXPECT_TRUE(loaded->automata.empty());
}

TEST(ModelIo, SourceMapRecordsDirectiveLines)
{
    const std::string text = "cloudseer-models 1\n"   // line 1
                             "template 0 svc A\n"     // line 2
                             "template 1 svc B\n"     // line 3
                             "automaton t 2 1\n"      // line 4
                             "event 0 0 0\n"          // line 5
                             "event 1 1 0\n"          // line 6
                             "edge 0 1 1\n"           // line 7
                             "end\n";                 // line 8
    std::istringstream in(text);
    ModelSourceMap sources;
    auto loaded = loadModels(in, &sources);
    ASSERT_TRUE(loaded.has_value());

    EXPECT_EQ(sources.declLine(0), 4);
    EXPECT_EQ(sources.eventLine(0, 0), 5);
    EXPECT_EQ(sources.eventLine(0, 1), 6);
    EXPECT_EQ(sources.edgeLine(0, 0, 1), 7);
    ASSERT_EQ(sources.templateLines.size(), 2u);

    // Out-of-range queries degrade to "unknown" rather than crash.
    EXPECT_EQ(sources.eventLine(0, 9), 0);
    EXPECT_EQ(sources.eventLine(3, 0), 0);
    EXPECT_EQ(sources.edgeLine(0, 1, 0), 0);
    EXPECT_EQ(sources.declLine(7), 0);
}

TEST(ModelIo, SourceMapSkipsBlankLinesCorrectly)
{
    const std::string text = "cloudseer-models 1\n"  // line 1
                             "\n"                    // line 2
                             "template 0 svc A\n"    // line 3
                             "\n"                    // line 4
                             "automaton t 1 0\n"     // line 5
                             "event 0 0 0\n"         // line 6
                             "end\n";
    std::istringstream in(text);
    ModelSourceMap sources;
    auto loaded = loadModels(in, &sources);
    ASSERT_TRUE(loaded.has_value());
    EXPECT_EQ(sources.declLine(0), 5);
    EXPECT_EQ(sources.eventLine(0, 0), 6);
}

/**
 * Broken-model matrix: every corrupted bundle either fails to load
 * (structural damage the parser owns) or loads and produces the
 * matching seer-lint diagnostic (semantic damage the analyzer owns).
 * No corruption may slip through both nets.
 */
TEST(ModelIo, BrokenModelsLoadFailOrLintFail)
{
    struct Case
    {
        const char *label;
        const char *text;
        const char *lintId; ///< nullptr = the loader must reject it
    };
    const Case cases[] = {
        {"truncated header", "cloudseer-models\n", nullptr},
        {"event count lies",
         "cloudseer-models 1\n"
         "template 0 svc A%20<uuid>\n"
         "automaton t 2 0\n"
         "event 0 0 0\n"
         "end\n",
         nullptr},
        {"duplicate edge",
         "cloudseer-models 1\n"
         "template 0 svc A%20<uuid>\n"
         "template 1 svc B%20<uuid>\n"
         "automaton t 2 2\n"
         "event 0 0 0\n"
         "event 1 1 0\n"
         "edge 0 1 0\n"
         "edge 0 1 0\n"
         "end\n",
         "SL001"},
        {"self-loop edge",
         "cloudseer-models 1\n"
         "template 0 svc A%20<uuid>\n"
         "automaton t 1 1\n"
         "event 0 0 0\n"
         "edge 0 0 0\n"
         "end\n",
         "SL002"},
        {"dependency cycle",
         "cloudseer-models 1\n"
         "template 0 svc A%20<uuid>\n"
         "template 1 svc B%20<uuid>\n"
         "automaton t 2 2\n"
         "event 0 0 0\n"
         "event 1 1 0\n"
         "edge 0 1 0\n"
         "edge 1 0 0\n"
         "end\n",
         "SL003"},
        {"strong cycle",
         "cloudseer-models 1\n"
         "template 0 svc A%20<uuid>\n"
         "template 1 svc B%20<uuid>\n"
         "automaton t 2 2\n"
         "event 0 0 0\n"
         "event 1 1 0\n"
         "edge 0 1 1\n"
         "edge 1 0 1\n"
         "end\n",
         "SL009"},
        {"two templates merge into one aliased event pair",
         // Two template directives with identical text re-intern to
         // one id, leaving duplicate (template, occurrence) events.
         "cloudseer-models 1\n"
         "template 0 svc A%20<uuid>\n"
         "template 1 svc A%20<uuid>\n"
         "automaton t 2 1\n"
         "event 0 0 0\n"
         "event 1 1 0\n"
         "edge 0 1 0\n"
         "end\n",
         "SL007"},
        {"empty automaton",
         "cloudseer-models 1\n"
         "automaton t 0 0\n"
         "end\n",
         "SL002"},
    };

    for (const Case &broken : cases) {
        auto loaded = loadModelsFromString(broken.text);
        if (broken.lintId == nullptr) {
            EXPECT_FALSE(loaded.has_value()) << broken.label;
            continue;
        }
        ASSERT_TRUE(loaded.has_value()) << broken.label;
        analysis::LintReport report = analysis::lintModels(
            loaded->automata, *loaded->catalog);
        EXPECT_FALSE(report.withId(broken.lintId).empty())
            << broken.label << "\n"
            << report.toText();
        EXPECT_TRUE(report.hasErrors()) << broken.label;
    }
}
