#include "session/journal.h"

#include "support/check.h"

#include <filesystem>
#include <sstream>

namespace motune::session {

std::string journalPath(const std::string& directory) {
  return (std::filesystem::path(directory) / "session.jsonl").string();
}

std::vector<support::Json> readJournal(const std::string& path) {
  std::ifstream in(path);
  MOTUNE_CHECK_MSG(in.good(), "cannot open session journal: " + path);

  std::vector<support::Json> records;
  std::string line;
  std::size_t lineNo = 0;
  bool sawBadLine = false;
  std::size_t badLineNo = 0;
  while (std::getline(in, line)) {
    ++lineNo;
    if (line.empty()) continue;
    // A parse failure is only acceptable as the crash-truncated tail: any
    // complete record after it means mid-file corruption.
    MOTUNE_CHECK_MSG(!sawBadLine, "corrupt session journal " + path +
                                      ": unparseable record at line " +
                                      std::to_string(badLineNo) +
                                      " is not the final line");
    try {
      records.push_back(support::Json::parse(line));
    } catch (const support::CheckError&) {
      sawBadLine = true;
      badLineNo = lineNo;
    }
  }
  return records;
}

JournalWriter::JournalWriter(std::string path, Mode mode)
    : path_(std::move(path)) {
  const std::filesystem::path p(path_);
  if (p.has_parent_path()) std::filesystem::create_directories(p.parent_path());
  if (mode == Mode::Truncate) {
    MOTUNE_CHECK_MSG(!std::filesystem::exists(p),
                     "session journal already exists: " + path_ +
                         " (use --resume to continue it, or point "
                         "--checkpoint at a fresh directory)");
    out_.open(path_, std::ios::out | std::ios::trunc);
  } else {
    MOTUNE_CHECK_MSG(std::filesystem::exists(p),
                     "no session journal to resume: " + path_);
    // Crash repair: a kill mid-write leaves a torn final line without a
    // trailing newline. readJournal tolerates it, but only while it stays
    // last — drop it so appended records start on a fresh line and the
    // mid-file corruption check keeps its teeth.
    {
      std::ifstream in(path_, std::ios::binary);
      std::ostringstream buffer;
      buffer << in.rdbuf();
      const std::string content = buffer.str();
      const std::size_t lastNewline = content.rfind('\n');
      const std::size_t keep =
          lastNewline == std::string::npos ? 0 : lastNewline + 1;
      if (keep != content.size()) std::filesystem::resize_file(p, keep);
    }
    out_.open(path_, std::ios::out | std::ios::app);
  }
  MOTUNE_CHECK_MSG(out_.good(), "cannot open session journal for writing: " +
                                    path_);
}

void JournalWriter::write(const support::Json& record) {
  std::string line = record.dump(-1);
  line += '\n';
  writeLines(line, 1);
}

void JournalWriter::writeLines(std::string_view lines,
                               std::uint64_t records) {
  std::lock_guard lock(mutex_);
  out_.write(lines.data(), static_cast<std::streamsize>(lines.size()));
  out_.flush();
  MOTUNE_CHECK_MSG(out_.good(), "session journal write failed: " + path_);
  records_ += records;
}

} // namespace motune::session
