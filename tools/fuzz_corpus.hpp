// The standalone corpus runner shared by the fuzz_* tools: replays every
// corpus entry through a tool's fuzz oracle and prints one summary line,
// "<tool>: <n> corpus entries, <f> findings".
#pragma once

#include <algorithm>
#include <exception>
#include <filesystem>
#include <iostream>
#include <stdexcept>
#include <string>
#include <string_view>
#include <vector>

#include "io/file.hpp"

namespace relb::tools {

/// Replays every file under `roots` (directories are walked recursively,
/// entries run in sorted order) through `fuzzOne`.  Any exception escaping
/// it is a finding, reported as "FINDING <path>: <what>" on stderr.
/// Returns 0 iff every entry behaves, 1 on findings, 2 if no entry exists.
inline int runCorpus(std::string_view tool,
                     const std::vector<std::string>& roots,
                     void (*fuzzOne)(std::string_view)) {
  namespace fs = std::filesystem;
  std::vector<fs::path> entries;
  for (const std::string& root : roots) {
    if (fs::is_directory(root)) {
      for (const auto& e : fs::recursive_directory_iterator(root)) {
        if (e.is_regular_file()) entries.push_back(e.path());
      }
    } else {
      entries.emplace_back(root);
    }
  }
  std::sort(entries.begin(), entries.end());
  int findings = 0;
  for (const fs::path& entry : entries) {
    try {
      const auto text = io::readFile(entry);
      if (!text) throw std::runtime_error("cannot open " + entry.string());
      fuzzOne(*text);
    } catch (const std::exception& e) {
      std::cerr << "FINDING " << entry.string() << ": " << e.what() << "\n";
      ++findings;
    }
  }
  std::cout << tool << ": " << entries.size() << " corpus entries, "
            << findings << " findings\n";
  if (entries.empty()) {
    std::cerr << tool << ": no corpus entries found\n";
    return 2;
  }
  return findings == 0 ? 0 : 1;
}

}  // namespace relb::tools
