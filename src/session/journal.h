// The session journal: an append-only JSONL file in the session directory,
// written and read through support/files.h (which states the crash model).
// docs/architecture.md ("Session journal format") specifies its records.
#pragma once

#include "support/files.h"

#include <filesystem>
#include <string>

namespace motune::session {

/// The journal file inside a session directory.
inline std::string journalPath(const std::string& directory) {
  return (std::filesystem::path(directory) / "session.jsonl").string();
}

/// All complete records of a journal, in file order.
inline constexpr auto& readJournal = support::readJsonl;

using JournalWriter = support::JsonlWriter;

} // namespace motune::session
