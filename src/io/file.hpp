// The io file layer.  Every file the library reads or writes goes through
// readFile / atomicWriteFile, and certificates and run reports share one
// document shape on top of them, the sealed-section document
// (docs/formats.md): {"format", "version", <sections>..., "checksums"},
// where "checksums" maps each section to the FNV-1a hash of its compact
// dump.  Readers match format and version exactly and re-hash every section
// before decoding, so an edited file fails naming the bad section.
#pragma once

#include <filesystem>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "io/json.hpp"

namespace relb::io {

/// The whole file, or std::nullopt if it cannot be opened (callers decide
/// whether that is an error or a miss).
[[nodiscard]] std::optional<std::string> readFile(
    const std::filesystem::path& path);

/// Writes `content` to `path` atomically (a same-directory temp file named
/// for this process and call, then rename); throws re::Error on any I/O
/// failure.  Concurrent writers of one path, in any processes, each land
/// whole; the last rename wins.
void atomicWriteFile(const std::filesystem::path& path,
                     std::string_view content);

/// One sealed document kind: the name its errors start with, the "format"
/// string, the one version readers accept, and the sections in order.
struct SealedLayout {
  std::string what;
  std::string format;
  int version = 0;
  std::vector<std::string> sections;
};

/// Assembles the document, moving out of `bodies` (which line up with
/// `layout.sections`); `version` is written as given.
[[nodiscard]] Json sealSections(const SealedLayout& layout, int version,
                                std::span<Json> bodies);

/// Validates format, version, and every section checksum of `doc`.  Throws
/// re::Error prefixed "<what>: " on the first mismatch.
void checkSealed(const SealedLayout& layout, const Json& doc);

}  // namespace relb::io
