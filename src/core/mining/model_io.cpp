#include "core/mining/model_io.hpp"

#include <cctype>
#include <charconv>
#include <cstdio>
#include <map>
#include <set>
#include <sstream>

#include "common/string_util.hpp"

namespace cloudseer::core {

namespace {

constexpr const char *kMagic = "cloudseer-models";
constexpr int kVersion = 1;

bool
needsEscape(char c)
{
    return c == '%' || std::isspace(static_cast<unsigned char>(c)) ||
           !std::isprint(static_cast<unsigned char>(c));
}

int
hexValue(char c)
{
    if (c >= '0' && c <= '9')
        return c - '0';
    if (c >= 'a' && c <= 'f')
        return c - 'a' + 10;
    if (c >= 'A' && c <= 'F')
        return c - 'A' + 10;
    return -1;
}

} // namespace

std::string
encodeModelToken(const std::string &raw)
{
    std::string out;
    out.reserve(raw.size());
    for (char c : raw) {
        if (needsEscape(c)) {
            char buf[4];
            std::snprintf(buf, sizeof(buf), "%%%02x",
                          static_cast<unsigned char>(c));
            out += buf;
        } else {
            out.push_back(c);
        }
    }
    if (out.empty())
        out = "%00"; // keep empty fields tokenizable
    return out;
}

std::optional<std::string>
decodeModelToken(const std::string &token)
{
    std::string out;
    out.reserve(token.size());
    for (std::size_t i = 0; i < token.size(); ++i) {
        if (token[i] != '%') {
            out.push_back(token[i]);
            continue;
        }
        if (i + 2 >= token.size())
            return std::nullopt;
        int hi = hexValue(token[i + 1]);
        int lo = hexValue(token[i + 2]);
        if (hi < 0 || lo < 0)
            return std::nullopt;
        char c = static_cast<char>(hi * 16 + lo);
        if (c != '\0')
            out.push_back(c);
        i += 2;
    }
    return out;
}

namespace {

/**
 * Parse a whole field as a number. False (never an exception) on an
 * empty field, trailing junk, a sign an unsigned type cannot hold, or
 * a value out of the type's range.
 */
template <typename T>
bool
parseNumber(const std::string &field, T &out)
{
    const char *first = field.data();
    const char *last = first + field.size();
    auto [end, ec] = std::from_chars(first, last, out);
    return ec == std::errc() && end == last;
}

/** Shortest decimal that round-trips the double exactly. */
std::string
formatLatency(double value)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    return buf;
}

void
writeLatencyStats(std::ostream &out, const LatencyStats &stats)
{
    out << stats.count << " " << formatLatency(stats.p50) << " "
        << formatLatency(stats.p95) << " " << formatLatency(stats.p99)
        << " " << formatLatency(stats.maxSeen);
}

bool
parseLatencyStats(const std::vector<std::string> &fields,
                  std::size_t offset, LatencyStats &stats)
{
    return fields.size() == offset + 5 &&
           parseNumber(fields[offset], stats.count) &&
           parseNumber(fields[offset + 1], stats.p50) &&
           parseNumber(fields[offset + 2], stats.p95) &&
           parseNumber(fields[offset + 3], stats.p99) &&
           parseNumber(fields[offset + 4], stats.maxSeen);
}

} // namespace

void
saveModels(std::ostream &out, const logging::TemplateCatalog &catalog,
           const std::vector<TaskAutomaton> &automata)
{
    saveModels(out, catalog, automata, {});
}

void
saveModels(std::ostream &out, const logging::TemplateCatalog &catalog,
           const std::vector<TaskAutomaton> &automata,
           const std::vector<LatencyProfile> &profiles)
{
    saveModels(out, catalog, automata, profiles, {});
}

void
saveModels(std::ostream &out, const logging::TemplateCatalog &catalog,
           const std::vector<TaskAutomaton> &automata,
           const std::vector<LatencyProfile> &profiles,
           const CertificateRecord &certificate)
{
    out << kMagic << " " << kVersion << "\n";

    std::map<std::string, const LatencyProfile *> profile_of;
    for (const LatencyProfile &profile : profiles)
        profile_of.emplace(profile.task, &profile);

    // Persist only the templates the automata actually reference.
    std::set<logging::TemplateId> used;
    for (const TaskAutomaton &automaton : automata) {
        for (std::size_t e = 0; e < automaton.eventCount(); ++e)
            used.insert(automaton.event(static_cast<int>(e)).tpl);
    }
    for (logging::TemplateId tpl : used) {
        out << "template " << tpl << " "
            << encodeModelToken(catalog.service(tpl)) << " "
            << encodeModelToken(catalog.text(tpl)) << "\n";
    }

    for (const TaskAutomaton &automaton : automata) {
        out << "automaton " << encodeModelToken(automaton.name()) << " "
            << automaton.eventCount() << " " << automaton.edgeCount()
            << "\n";
        for (std::size_t e = 0; e < automaton.eventCount(); ++e) {
            const EventNode &node =
                automaton.event(static_cast<int>(e));
            out << "event " << e << " " << node.tpl << " "
                << node.occurrence << "\n";
        }
        for (const DependencyEdge &edge : automaton.edges()) {
            out << "edge " << edge.from << " " << edge.to << " "
                << (edge.strong ? 1 : 0) << "\n";
        }
        auto pit = profile_of.find(automaton.name());
        if (pit != profile_of.end() && pit->second->hasSamples()) {
            const LatencyProfile &profile = *pit->second;
            out << "tasklat " << profile.runs << " ";
            writeLatencyStats(out, profile.total);
            out << "\n";
            for (const auto &[edge, stats] : profile.edges) {
                out << "edgelat " << edge.first << " " << edge.second
                    << " ";
                writeLatencyStats(out, stats);
                out << "\n";
            }
        }
        out << "end\n";
    }

    if (certificate.present) {
        out << "certificate " << certificate.fingerprint << "\n";
        for (const SignatureVerdictRecord &record : certificate.verdicts) {
            if (!used.count(record.tpl))
                continue; // unresolvable on load; drop
            out << "verdict " << record.tpl << " "
                << encodeModelToken(record.verdict) << " "
                << record.automata << " " << record.sites << "\n";
        }
    }
}

std::string
saveModelsToString(const logging::TemplateCatalog &catalog,
                   const std::vector<TaskAutomaton> &automata)
{
    std::ostringstream out;
    saveModels(out, catalog, automata);
    return out.str();
}

int
ModelSourceMap::eventLine(std::size_t index, int id) const
{
    if (index >= automata.size() || id < 0 ||
        static_cast<std::size_t>(id) >= automata[index].eventLines.size())
        return 0;
    return automata[index].eventLines[static_cast<std::size_t>(id)];
}

int
ModelSourceMap::edgeLine(std::size_t index, int from, int to) const
{
    if (index >= automata.size())
        return 0;
    auto it = automata[index].edgeLines.find({from, to});
    return it == automata[index].edgeLines.end() ? 0 : it->second;
}

int
ModelSourceMap::declLine(std::size_t index) const
{
    return index < automata.size() ? automata[index].declLine : 0;
}

std::optional<ModelBundle>
loadModels(std::istream &in, ModelSourceMap *source_map)
{
    std::string line;
    if (!std::getline(in, line))
        return std::nullopt;
    {
        auto header = common::splitWhitespace(line);
        if (header.size() != 2 || header[0] != kMagic ||
            header[1] != std::to_string(kVersion)) {
            return std::nullopt;
        }
    }

    ModelBundle bundle;
    bundle.catalog = std::make_shared<logging::TemplateCatalog>();
    ModelSourceMap locations;
    // File template id -> re-interned id.
    std::map<logging::TemplateId, logging::TemplateId> remap;

    struct PendingAutomaton
    {
        std::string name;
        std::size_t event_count = 0;
        std::size_t edge_count = 0;
        std::vector<EventNode> events;
        std::vector<DependencyEdge> edges;
        LatencyProfile profile;
        bool open = false;
        AutomatonSourceMap lines;
    };
    PendingAutomaton pending;

    auto finishAutomaton = [&]() -> bool {
        if (pending.events.size() != pending.event_count ||
            pending.edges.size() != pending.edge_count) {
            return false;
        }
        for (const DependencyEdge &edge : pending.edges) {
            if (edge.from < 0 ||
                edge.from >= static_cast<int>(pending.events.size()) ||
                edge.to < 0 ||
                edge.to >= static_cast<int>(pending.events.size())) {
                return false;
            }
        }
        for (const auto &[edge, stats] : pending.profile.edges) {
            (void)stats;
            if (edge.first < 0 ||
                edge.first >= static_cast<int>(pending.events.size()) ||
                edge.second < 0 ||
                edge.second >= static_cast<int>(pending.events.size())) {
                return false;
            }
        }
        pending.profile.task = pending.name;
        bundle.automata.emplace_back(pending.name,
                                     std::move(pending.events),
                                     std::move(pending.edges));
        bundle.profiles.push_back(std::move(pending.profile));
        locations.automata.push_back(std::move(pending.lines));
        pending = PendingAutomaton{};
        return true;
    };

    int line_no = 1; // the header was line 1
    while (std::getline(in, line)) {
        ++line_no;
        auto fields = common::splitWhitespace(line);
        if (fields.empty())
            continue;
        const std::string &kind = fields[0];
        if (kind == "template") {
            if (fields.size() != 4 || pending.open)
                return std::nullopt;
            auto service = decodeModelToken(fields[2]);
            auto text = decodeModelToken(fields[3]);
            logging::TemplateId file_id = 0;
            if (!service || !text || !parseNumber(fields[1], file_id))
                return std::nullopt;
            logging::TemplateId interned =
                bundle.catalog->intern(*service, *text);
            remap[file_id] = interned;
            locations.templateLines.try_emplace(interned, line_no);
        } else if (kind == "automaton") {
            if (fields.size() != 4 || pending.open)
                return std::nullopt;
            auto name = decodeModelToken(fields[1]);
            if (!name || !parseNumber(fields[2], pending.event_count) ||
                !parseNumber(fields[3], pending.edge_count))
                return std::nullopt;
            pending.name = *name;
            pending.open = true;
            pending.lines.declLine = line_no;
        } else if (kind == "event") {
            if (fields.size() != 4 || !pending.open)
                return std::nullopt;
            std::size_t index = 0;
            logging::TemplateId file_id = 0;
            int occurrence = 0;
            if (!parseNumber(fields[1], index) ||
                index != pending.events.size() ||
                !parseNumber(fields[2], file_id) ||
                !parseNumber(fields[3], occurrence))
                return std::nullopt;
            auto it = remap.find(file_id);
            if (it == remap.end())
                return std::nullopt;
            pending.events.push_back({it->second, occurrence});
            pending.lines.eventLines.push_back(line_no);
        } else if (kind == "edge") {
            if (fields.size() != 4 || !pending.open)
                return std::nullopt;
            DependencyEdge edge;
            if (!parseNumber(fields[1], edge.from) ||
                !parseNumber(fields[2], edge.to))
                return std::nullopt;
            edge.strong = fields[3] == "1";
            pending.edges.push_back(edge);
            pending.lines.edgeLines.try_emplace(
                {pending.edges.back().from, pending.edges.back().to},
                line_no);
        } else if (kind == "tasklat") {
            if (fields.size() != 7 || !pending.open)
                return std::nullopt;
            if (!parseNumber(fields[1], pending.profile.runs) ||
                !parseLatencyStats(fields, 2, pending.profile.total))
                return std::nullopt;
        } else if (kind == "edgelat") {
            if (fields.size() != 8 || !pending.open)
                return std::nullopt;
            std::pair<int, int> edge;
            LatencyStats stats;
            if (!parseNumber(fields[1], edge.first) ||
                !parseNumber(fields[2], edge.second) ||
                !parseLatencyStats(
                    {fields.begin() + 3, fields.end()}, 0, stats))
                return std::nullopt;
            pending.profile.edges[edge] = stats;
        } else if (kind == "end") {
            if (!pending.open || !finishAutomaton())
                return std::nullopt;
        } else if (kind == "certificate") {
            if (fields.size() != 2 || pending.open ||
                bundle.certificate.present) {
                return std::nullopt;
            }
            if (!parseNumber(fields[1], bundle.certificate.fingerprint))
                return std::nullopt;
            bundle.certificate.present = true;
        } else if (kind == "verdict") {
            if (fields.size() != 5 || pending.open ||
                !bundle.certificate.present) {
                return std::nullopt;
            }
            SignatureVerdictRecord record;
            logging::TemplateId file_id = 0;
            auto word = decodeModelToken(fields[2]);
            if (!word || !parseNumber(fields[1], file_id) ||
                !parseNumber(fields[3], record.automata) ||
                !parseNumber(fields[4], record.sites))
                return std::nullopt;
            auto it = remap.find(file_id);
            if (it == remap.end())
                return std::nullopt; // verdict on an unknown template
            record.tpl = it->second;
            record.verdict = *word;
            bundle.certificate.verdicts.push_back(std::move(record));
        } else {
            return std::nullopt; // unknown directive
        }
    }
    if (pending.open)
        return std::nullopt; // truncated automaton section
    // A pre-seer-flight file has no latency directives at all: hand
    // back an empty profile vector (the documented "no profiles"
    // signal) rather than one placeholder per automaton.
    bool any_samples = false;
    for (const LatencyProfile &profile : bundle.profiles)
        any_samples = any_samples || profile.hasSamples();
    if (!any_samples)
        bundle.profiles.clear();
    if (source_map)
        *source_map = std::move(locations);
    return bundle;
}

std::optional<ModelBundle>
loadModelsFromString(const std::string &text)
{
    std::istringstream in(text);
    return loadModels(in);
}

} // namespace cloudseer::core
