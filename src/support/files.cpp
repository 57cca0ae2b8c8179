#include "support/files.h"

#include "support/check.h"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>

#include <fcntl.h>
#include <unistd.h>

namespace motune::support {

namespace fs = std::filesystem;

namespace {

/// Cuts a torn tail off a regular file: whatever follows its last '\n',
/// found by reading backwards from the end.
void cutTornTail(const std::string& path) {
  if (!fs::is_regular_file(path)) return;
  const auto size = static_cast<std::streamoff>(fs::file_size(path));
  std::ifstream in(path, std::ios::binary);
  std::streamoff keep = size;
  for (std::string chunk; keep > 0;) {
    const std::streamoff from = std::max<std::streamoff>(0, keep - 4096);
    chunk.resize(static_cast<std::size_t>(keep - from));
    in.seekg(from).read(chunk.data(), keep - from);
    MOTUNE_CHECK_MSG(in.good(), "cannot read " + path);
    const std::size_t nl = chunk.rfind('\n');
    keep = nl == std::string::npos ? from : from + std::streamoff(nl) + 1;
    if (nl != std::string::npos) break;
  }
  if (keep != size) fs::resize_file(path, static_cast<std::uintmax_t>(keep));
}

} // namespace

std::string readFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  MOTUNE_CHECK_MSG(in.good(), "cannot open " + path);
  std::ostringstream text;
  text << in.rdbuf();
  return std::move(text).str();
}

std::vector<Json> parseJsonl(std::string_view text,
                             const std::string& source) {
  std::vector<Json> records;
  std::size_t line = 0;
  for (std::size_t end; (end = text.find('\n')) != std::string_view::npos;
       text.remove_prefix(end + 1)) {
    ++line;
    if (end == 0) continue;
    try {
      records.push_back(Json::parse(std::string(text.substr(0, end))));
    } catch (const std::exception& e) {
      MOTUNE_CHECK_MSG(false, source + ": unparseable record at line " +
                                  std::to_string(line) + " (" + e.what() +
                                  ")");
    }
  }
  return records; // what is left of `text` is the torn tail, if any
}

std::vector<Json> readJsonl(const std::string& path) {
  return parseJsonl(readFile(path), path);
}

JsonlWriter::JsonlWriter(std::string path, Mode mode)
    : path_(std::move(path)) {
  const bool fresh = mode == Mode::Truncate;
  const fs::path parent = fs::path(path_).parent_path();
  if (fresh && !parent.empty()) fs::create_directories(parent);
  if (!fresh) cutTornTail(path_);
  fd_ = ::open(path_.c_str(),
               O_WRONLY | O_APPEND | O_CLOEXEC | (fresh ? O_CREAT | O_EXCL : 0),
               0644);
  const int error = errno;
  MOTUNE_CHECK_MSG(fd_ >= 0, "cannot open " + path_ +
                                 (fresh ? " as a new file: " : " to append: ") +
                                 std::strerror(error));
}

JsonlWriter::~JsonlWriter() { ::close(fd_); }

void JsonlWriter::write(const Json& record) {
  writeLines(record.dump(-1) + '\n', 1);
}

void JsonlWriter::writeLines(std::string_view lines, std::uint64_t records) {
  std::lock_guard lock(mutex_);
  while (!lines.empty()) { // a regular file takes it in one write(2)
    const ssize_t n = ::write(fd_, lines.data(), lines.size());
    if (n < 0 && errno == EINTR) continue;
    MOTUNE_CHECK_MSG(n > 0, "write failed: " + path_ + ": " +
                                std::strerror(errno));
    lines.remove_prefix(static_cast<std::size_t>(n));
  }
  records_ += records;
}

void writeFileAtomic(const std::string& path, std::string_view content) {
  const std::string tmp = path + ".tmp";
  std::ofstream out(tmp, std::ios::binary);
  out.write(content.data(), static_cast<std::streamsize>(content.size()));
  out.close();
  MOTUNE_CHECK_MSG(!out.fail(), "cannot write " + tmp);
  fs::rename(tmp, path);
}

} // namespace motune::support
