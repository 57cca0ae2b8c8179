// Crash-safe files: the one append-only JSONL primitive every journal,
// trace and event log goes through, and the one atomic replace every state
// file goes through. The crash model (a killed process, not power loss;
// nothing calls fsync) is docs/architecture.md, "Files a run leaves behind".
#pragma once

#include "support/json.h"

#include <cstdint>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace motune::support {

/// The complete ('\n'-terminated) records of a JSONL file, in file order.
/// An unterminated last line is a killed writer's torn tail and is dropped;
/// any complete line that does not parse, the last one included, is
/// corruption: CheckError naming the file and the line.
std::vector<Json> readJsonl(const std::string& path);
/// readJsonl over text in memory; `source` names it in errors.
std::vector<Json> parseJsonl(std::string_view text, const std::string& source);

/// The whole content of a file (CheckError when it cannot be opened).
std::string readFile(const std::string& path);

/// Append-only JSONL writer; thread-safe, every call one write of whole
/// lines. Append mode first cuts a torn tail off, reading only the file's
/// end, so the file reads as the complete records of every run.
class JsonlWriter {
public:
  enum class Mode {
    Truncate, ///< create a fresh file; refuses an existing one
    Append,   ///< continue an existing file; refuses a missing one
  };

  JsonlWriter(std::string path, Mode mode);
  ~JsonlWriter();
  JsonlWriter(const JsonlWriter&) = delete;
  JsonlWriter& operator=(const JsonlWriter&) = delete;

  void write(const Json& record);
  /// Appends `records` pre-encoded lines, each ending in '\n'.
  void writeLines(std::string_view lines, std::uint64_t records);

  const std::string& path() const { return path_; }
  std::uint64_t recordsWritten() const { return records_; }

private:
  std::string path_;
  std::mutex mutex_;
  int fd_ = -1;
  std::uint64_t records_ = 0;
};

/// Replaces `path` by writing `path`.tmp and renaming it over `path`: a
/// reader sees the old content or the new, never a part.
void writeFileAtomic(const std::string& path, std::string_view content);

} // namespace motune::support
