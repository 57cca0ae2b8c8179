#include "verify/oracle.h"

#include "codegen/cemit.h"
#include "ir/bytecode.h"
#include "ir/interp.h"
#include "support/check.h"
#include "support/files.h"

#include <array>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <mutex>
#include <sstream>

#ifndef _WIN32
#include <unistd.h>
#endif

namespace motune::verify {

namespace fs = std::filesystem;

double fillValue(std::size_t arrayIndex, std::size_t elementIndex) {
  // splitmix64-style scramble; must stay in lockstep with the C copy the
  // native harness embeds (emitHarness below).
  std::uint64_t x = (static_cast<std::uint64_t>(arrayIndex) + 1) *
                        0x9e3779b97f4a7c15ull ^
                    (static_cast<std::uint64_t>(elementIndex) + 1) *
                        0xbf58476d1ce4e5b9ull;
  x ^= x >> 31;
  x *= 0x94d049bb133111ebull;
  x ^= x >> 27;
  return 1.0 + static_cast<double>(x >> 11) * 0x1.0p-53;
}

namespace {

std::size_t elementCount(const ir::ArrayDecl& decl) {
  std::size_t n = 1;
  for (std::int64_t d : decl.dims) n *= static_cast<std::size_t>(d);
  return n;
}

// Works for both executors (ir::Interpreter and ir::CompiledProgram share
// the array()/run() surface).
template <typename Exec>
void fillArrays(Exec& exec, const ir::Program& p) {
  for (std::size_t a = 0; a < p.arrays.size(); ++a) {
    auto& data = exec.array(p.arrays[a].name);
    for (std::size_t i = 0; i < data.size(); ++i)
      data[i] = fillValue(a, i);
  }
}

/// Equality that tolerates signed zeros colliding (fmin/fmax may pick
/// either) and treats two NaNs as agreeing; everything else is exact.
bool sameValue(double a, double b) {
  if (a == b) return true;
  return a != a && b != b; // both NaN
}

template <typename Exec>
std::optional<Mismatch> compareArrays(const ir::Program& p,
                                      const ir::Interpreter& ref,
                                      const Exec& got,
                                      const std::string& stage) {
  for (const auto& decl : p.arrays) {
    const auto& expected = ref.array(decl.name);
    const auto& actual = got.array(decl.name);
    MOTUNE_CHECK_MSG(expected.size() == actual.size(),
                     "oracle: array size diverged for " + decl.name);
    for (std::size_t i = 0; i < expected.size(); ++i)
      if (!sameValue(expected[i], actual[i]))
        return Mismatch{stage, decl.name, i, expected[i], actual[i]};
  }
  return std::nullopt;
}

/// Self-contained C translation unit: the emitted kernel plus a main that
/// reproduces fillValue, runs the kernel, and prints every element as a %a
/// hex float (one per line, arrays in declaration order) so the comparison
/// sees the exact bits.
std::string emitHarness(const ir::Program& p, const OracleOptions& opts) {
  std::ostringstream os;
  os << codegen::emitFunction(p, "motune_fuzz_kernel", opts.emitPragmas);
  os << "\n#include <stdio.h>\n#include <stdlib.h>\n#include <stdint.h>\n\n";
  os << "static double motune_fill(uint64_t a, uint64_t i) {\n"
     << "  uint64_t x = (a + 1) * 0x9e3779b97f4a7c15ull ^"
     << " (i + 1) * 0xbf58476d1ce4e5b9ull;\n"
     << "  x ^= x >> 31;\n"
     << "  x *= 0x94d049bb133111ebull;\n"
     << "  x ^= x >> 27;\n"
     << "  return 1.0 + (double)(x >> 11) * 0x1.0p-53;\n"
     << "}\n\n";
  os << "int main(void) {\n";
  for (std::size_t a = 0; a < p.arrays.size(); ++a) {
    const auto& decl = p.arrays[a];
    const std::size_t n = elementCount(decl);
    os << "  double* " << decl.name << " = malloc(" << n
       << " * sizeof(double));\n"
       << "  if (!" << decl.name << ") return 2;\n"
       << "  for (uint64_t i = 0; i < " << n << "ull; ++i) " << decl.name
       << "[i] = motune_fill(" << a << "ull, i);\n";
  }
  os << "  motune_fuzz_kernel(";
  for (std::size_t a = 0; a < p.arrays.size(); ++a)
    os << (a ? ", " : "") << p.arrays[a].name;
  os << ");\n";
  for (const auto& decl : p.arrays) {
    os << "  for (uint64_t i = 0; i < " << elementCount(decl)
       << "ull; ++i) printf(\"%a\\n\", " << decl.name << "[i]);\n";
  }
  os << "  return 0;\n}\n";
  return os.str();
}

/// Runs `cmd`, capturing stdout into `outPath` and stderr into `errPath`.
int runCommand(const std::string& cmd, const fs::path& outPath,
               const fs::path& errPath) {
  const std::string full = cmd + " > \"" + outPath.string() + "\" 2> \"" +
                           errPath.string() + "\"";
  return std::system(full.c_str());
}

const fs::path& processWorkDir() {
  static const fs::path dir = [] {
    fs::path d = fs::temp_directory_path() /
                 ("motune-fuzz-" + std::to_string(
#ifdef _WIN32
                                       0
#else
                                       static_cast<long>(::getpid())
#endif
                                       ));
    fs::create_directories(d);
    return d;
  }();
  return dir;
}

} // namespace

const std::string& hostCompiler() {
  static const std::string compiler = [] {
    for (const char* candidate : {"cc", "gcc", "clang"}) {
      const std::string probe = std::string(candidate) +
                                " --version > /dev/null 2> /dev/null";
      if (std::system(probe.c_str()) == 0) return std::string(candidate);
    }
    return std::string();
  }();
  return compiler;
}

std::string OracleVerdict::describe() const {
  if (agree) return nativeRan ? "agree (3-way)" : "agree (interp only)";
  std::ostringstream os;
  if (mismatch) {
    char exp[64], got[64];
    std::snprintf(exp, sizeof exp, "%a", mismatch->expected);
    std::snprintf(got, sizeof got, "%a", mismatch->got);
    os << mismatch->stage << " mismatch at " << mismatch->array << "["
       << mismatch->index << "]: expected " << exp << ", got " << got;
  } else {
    os << "failure";
  }
  if (!detail.empty()) os << "\n" << detail;
  return os.str();
}

OracleVerdict checkEquivalence(const ir::Program& original,
                               const ir::Program& transformed,
                               const OracleOptions& opts) {
  MOTUNE_CHECK_MSG(original.arrays.size() == transformed.arrays.size(),
                   "oracle: programs declare different arrays");
  for (std::size_t a = 0; a < original.arrays.size(); ++a)
    MOTUNE_CHECK_MSG(original.arrays[a].name == transformed.arrays[a].name &&
                         original.arrays[a].dims == transformed.arrays[a].dims,
                     "oracle: array shapes diverged");

  OracleVerdict verdict;

  // Path 1: reference execution of the original.
  ir::Interpreter ref(original);
  fillArrays(ref, original);
  ref.run();

  // Path 2: the transformed program through the flat-bytecode engine (the
  // default — every oracle run thus also differentially validates the
  // bytecode engine against the tree walker) or the tree walker itself.
  std::optional<Mismatch> m;
  if (opts.useBytecode) {
    ir::CompiledProgram alt(transformed);
    fillArrays(alt, transformed);
    alt.run();
    m = compareArrays(original, ref, alt, "interp");
  } else {
    ir::Interpreter alt(transformed);
    fillArrays(alt, transformed);
    alt.run();
    m = compareArrays(original, ref, alt, "interp");
  }
  if (m) {
    verdict.agree = false;
    verdict.mismatch = std::move(m);
    return verdict;
  }

  if (!opts.runNative) return verdict;
  const std::string compiler =
      opts.compiler.empty() ? hostCompiler() : opts.compiler;
  if (compiler.empty()) return verdict; // interp-only when no compiler found

  // Path 3: compile and run the emitted C for the transformed program.
  // Serialize: the fixed file names in the shared work dir would collide.
  static std::mutex nativeMutex;
  std::lock_guard<std::mutex> lock(nativeMutex);

  const fs::path dir =
      opts.workDir.empty() ? processWorkDir() : fs::path(opts.workDir);
  fs::create_directories(dir);
  const fs::path src = dir / "harness.c";
  const fs::path bin = dir / "harness.bin";
  const fs::path out = dir / "harness.out";
  const fs::path err = dir / "harness.err";
  {
    std::ofstream file(src);
    file << emitHarness(transformed, opts);
  }

  // -O0 -ffp-contract=off keeps the compiled arithmetic the same IEEE
  // operation sequence as the interpreter (no FMA fusion, no reordering).
  const std::string compileCmd = compiler +
                                 " -std=c11 -O0 -ffp-contract=off -o \"" +
                                 bin.string() + "\" \"" + src.string() +
                                 "\" -lm";
  if (runCommand(compileCmd, out, err) != 0) {
    verdict.agree = false;
    verdict.mismatch = Mismatch{"native-compile", "", 0, 0.0, 0.0};
    verdict.detail = support::readFile(err.string()).substr(0, 4096);
    return verdict;
  }

  if (runCommand("\"" + bin.string() + "\"", out, err) != 0) {
    verdict.agree = false;
    verdict.mismatch = Mismatch{"native-run", "", 0, 0.0, 0.0};
    verdict.detail = support::readFile(err.string()).substr(0, 4096);
    return verdict;
  }
  verdict.nativeRan = true;

  std::ifstream results(out);
  std::string line;
  for (const auto& decl : original.arrays) {
    const auto& expected = ref.array(decl.name);
    for (std::size_t i = 0; i < expected.size(); ++i) {
      if (!std::getline(results, line)) {
        verdict.agree = false;
        verdict.mismatch = Mismatch{"native-run", decl.name, i, expected[i], 0.0};
        verdict.detail = "native output truncated";
        return verdict;
      }
      const double got = std::strtod(line.c_str(), nullptr);
      if (!sameValue(expected[i], got)) {
        verdict.agree = false;
        verdict.mismatch = Mismatch{"native", decl.name, i, expected[i], got};
        return verdict;
      }
    }
  }
  return verdict;
}

} // namespace motune::verify
