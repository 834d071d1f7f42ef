#include "src/telemetry/manifest.hh"

#include <cctype>
#include <filesystem>
#include <fstream>
#include <iomanip>
#include <sstream>

namespace sac {
namespace telemetry {

std::string
gitDescribe()
{
#ifdef SAC_GIT_DESCRIBE
    return SAC_GIT_DESCRIBE;
#else
    return "unknown";
#endif
}

std::uint64_t
fnv1a(const std::string &s)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const char c : s) {
        h ^= static_cast<unsigned char>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

std::string
manifestFileName(const std::string &workload,
                 const std::string &cache_key)
{
    std::string safe;
    for (const char c : workload) {
        if (std::isalnum(static_cast<unsigned char>(c)))
            safe += c;
        else
            safe += '_';
    }
    if (safe.empty())
        safe = "run";
    std::ostringstream os;
    os << safe << '_' << std::hex << std::setw(16)
       << std::setfill('0') << fnv1a(cache_key) << ".json";
    return os.str();
}

util::Json
manifestJson(const Manifest &m)
{
    util::Json doc = util::Json::object();
    doc.set("schema", manifestSchema);
    doc.set("git_describe", gitDescribe());
    doc.set("workload", m.workload);
    doc.set("config_name", m.configName);
    doc.set("cache_key", m.cacheKey);
    if (!m.engine.empty())
        doc.set("engine", m.engine);
    doc.set("config", m.config);
    doc.set("counters", m.counters);
    doc.set("metrics", m.metrics);
    doc.set("timing", m.timing);
    if (m.profile.size() > 0)
        doc.set("profile", m.profile);
    return doc;
}

std::string
manifestDocument(const Manifest &m)
{
    std::ostringstream os;
    manifestJson(m).write(os, 2);
    os << '\n';
    return os.str();
}

std::string
writeManifestDocument(const std::string &dir, const std::string &file,
                      const std::string &document)
{
    std::error_code ec;
    std::filesystem::create_directories(dir, ec);
    if (ec)
        return "";
    const std::filesystem::path path = std::filesystem::path(dir) / file;
    std::ofstream os(path);
    os << document;
    if (!os)
        return "";
    return path.string();
}

std::string
writeManifestFile(const std::string &dir, const Manifest &m)
{
    return writeManifestDocument(dir,
                                 manifestFileName(m.workload, m.cacheKey),
                                 manifestDocument(m));
}

} // namespace telemetry
} // namespace sac
