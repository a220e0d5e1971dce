#include "io/file.hpp"

#include <unistd.h>

#include <atomic>
#include <fstream>
#include <sstream>

namespace relb::io {

using re::Error;

std::optional<std::string> readFile(const std::filesystem::path& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return std::nullopt;
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return std::move(buffer).str();
}

void atomicWriteFile(const std::filesystem::path& path,
                     std::string_view content) {
  // The pid keeps two processes writing one path off each other's temp
  // file; the counter does the same for two threads of one process.
  static std::atomic<unsigned> counter{0};
  const std::filesystem::path dir =
      path.has_parent_path() ? path.parent_path() : ".";
  const std::filesystem::path tmp =
      dir / (".tmp-" + std::to_string(::getpid()) + "-" +
             std::to_string(counter.fetch_add(1)) + "-" +
             path.filename().string());
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw Error("io: cannot open '" + tmp.string() + "' for writing");
    }
    out.write(content.data(),
              static_cast<std::streamsize>(content.size()));
    out.flush();
    if (!out.good()) {
      std::error_code ec;
      std::filesystem::remove(tmp, ec);
      throw Error("io: short write to '" + tmp.string() + "'");
    }
  }
  std::error_code ec;
  std::filesystem::rename(tmp, path, ec);
  if (ec) {
    std::filesystem::remove(tmp, ec);
    throw Error("io: cannot rename into '" + path.string() + "'");
  }
}

Json sealSections(const SealedLayout& layout, int version,
                  std::span<Json> bodies) {
  Json checksums = Json::object();
  Json out = Json::object();
  out.set("format", layout.format);
  out.set("version", version);
  if (bodies.size() != layout.sections.size()) {
    throw Error(layout.what + ": wrong number of sections");
  }
  for (std::size_t i = 0; i < bodies.size(); ++i) {
    checksums.set(layout.sections[i], fnv1a64Hex(bodies[i].dump()));
    out.set(layout.sections[i], std::move(bodies[i]));
  }
  out.set("checksums", std::move(checksums));
  return out;
}

void checkSealed(const SealedLayout& layout, const Json& doc) {
  if (doc.at("format").asString() != layout.format) {
    throw Error(layout.what + ": not a " + layout.format + " document");
  }
  const std::int64_t version = doc.at("version").asInt();
  if (version != layout.version) {
    throw Error(layout.what + ": unsupported version " +
                std::to_string(version) + " (supported: " +
                std::to_string(layout.version) + ")");
  }
  const Json& checksums = doc.at("checksums");
  for (const std::string& section : layout.sections) {
    const std::string actual = fnv1a64Hex(doc.at(section).dump());
    const std::string& expected = checksums.at(section).asString();
    if (actual != expected) {
      throw Error(layout.what + ": checksum mismatch in section '" +
                  section + "' (expected " + expected + ", computed " +
                  actual + ")");
    }
  }
}

}  // namespace relb::io
