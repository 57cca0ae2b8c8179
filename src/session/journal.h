// Low-level session-journal I/O: an append-only JSON-lines file that is
// safe to re-read after the writing process was killed at any instant.
//
// Crash model: a SIGKILL/OOM-kill can truncate the file mid-line (the last
// record was partially flushed). readJournal() therefore tolerates exactly
// one unparseable *tail*; garbage in the middle of the file is corruption
// and is reported as an error. Every write is flushed before the call
// returns. The session layer writes each evaluation batch's records in one
// write, so the journal never lags the search by more than the batch in
// flight.
//
// The record vocabulary and field-by-field format live in
// docs/architecture.md ("Session journal format"); this layer only moves
// parsed JSON values in and out of the file.
#pragma once

#include "support/json.h"

#include <fstream>
#include <mutex>
#include <string>
#include <string_view>
#include <vector>

namespace motune::session {

/// The journal file inside a session directory.
std::string journalPath(const std::string& directory);

/// All complete records of a journal, in file order. A truncated final
/// line (the crash tail) is silently dropped; an unparseable line that is
/// NOT the tail throws support::CheckError.
std::vector<support::Json> readJournal(const std::string& path);

/// Appending record writer; thread-safe, one flushed write per call.
class JournalWriter {
public:
  enum class Mode {
    Truncate, ///< fresh journal (refuses to overwrite an existing one)
    Append,   ///< continue an existing journal (resume)
  };

  JournalWriter(std::string path, Mode mode);

  void write(const support::Json& record);

  /// Appends `records` complete, pre-encoded lines (each ending in '\n')
  /// in one flushed write.
  void writeLines(std::string_view lines, std::uint64_t records);

  const std::string& path() const { return path_; }
  std::uint64_t recordsWritten() const { return records_; }

private:
  std::string path_;
  std::mutex mutex_;
  std::ofstream out_;
  std::uint64_t records_ = 0;
};

} // namespace motune::session
