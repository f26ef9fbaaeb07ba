// Helpers for the golden-file tests (corpus/sync_golden/, corpus/async_golden/):
// read a recorded file, digest a trace the way traces.txt records it, and
// compare csd-bench-v1 reports without their wall-clock env object.
#pragma once

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>

#include "obs/json.hpp"

namespace csd::golden {

inline std::string read_file(const std::string& path) {
  std::ifstream is(path, std::ios::binary);
  EXPECT_TRUE(is.good()) << path;
  std::ostringstream os;
  os << is.rdbuf();
  return os.str();
}

/// "<bytes> <FNV-1a 64, hex>", the form traces.txt records a trace in.
inline std::string size_and_digest(const std::string& bytes) {
  std::uint64_t h = 0xcbf29ce484222325ULL;
  for (const char c : bytes) {
    h ^= static_cast<unsigned char>(c);
    h *= 0x100000001b3ULL;
  }
  char hex[17];
  std::snprintf(hex, sizeof hex, "%016llx",
                static_cast<unsigned long long>(h));
  return std::to_string(bytes.size()) + " " + hex;
}

/// traces.txt: one "<name> <bytes> <digest>" line per recorded trace.
inline std::map<std::string, std::string> read_traces(const std::string& path) {
  std::map<std::string, std::string> traces;
  std::istringstream is(read_file(path));
  std::string name, size, digest;
  while (is >> name >> size >> digest) traces[name] = size + " " + digest;
  return traces;
}

/// A csd-bench-v1 report without its env object (wall clock, jobs,
/// workers, git sha), re-serialized.
inline std::string report_without_env(const std::string& text) {
  const obs::Json doc = obs::Json::parse(text);
  obs::Json kept = obs::Json::object();
  for (const auto& [key, value] : doc.members())
    if (key != "env") kept.set(key, value);
  return kept.dump();
}

}  // namespace csd::golden
