// Island-model distributed RS-GDE3 (`motune tune --islands N`).
//
// N islands each run an independent, analytically seeded RS-GDE3 instance
// (distinct RNG seed per island) and exchange their top-ranked individuals
// every `migrateEvery` generations over a deterministic ring: at migration
// round r (generation r * migrateEvery) island k publishes its `migrants`
// best members, then integrates round r's emigrants of island (k-1) mod N.
// Publication precedes the fetch, and the island waits until the
// neighbour's round-r record exists (or the neighbour has provably
// terminated earlier), so the dataflow between islands — and therefore
// every island's trajectory and the merged Pareto front — is a pure
// function of (problem, options, island count): bit-identical across
// reruns, thread-pool sizes and exchange media.
//
// Exchange media: an in-process MemoryExchange (no persistence) or a
// JournalExchange of per-island append-only journals
// (`DIR/island-<k>/migrants.jsonl`, same torn-tail-tolerant format as the
// session journal) that worker *processes* share through the filesystem.
// Islands under a session directory also keep an ordinary RS-GDE3 session
// (`DIR/island-<k>/session.jsonl`), so a SIGKILLed island resumes through
// the existing checkpoint machinery; its migrant journal is append-only
// and replayed rounds are skipped, so peers never observe a duplicate or
// retracted record. The record schema is specified field by field in
// docs/search.md ("Migrant wire format").
#pragma once

#include "core/rsgde3.h"
#include "session/session.h"

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <set>
#include <string>
#include <vector>

namespace motune::tuning {

/// `DIR/island-<k>` — one island's session directory.
std::string islandDirectory(const std::string& directory, int island);

/// `DIR/island-<k>/migrants.jsonl` — one island's migrant journal.
std::string migrantJournalPath(const std::string& directory, int island);

/// Migrant transport between islands. Implementations must make tryFetch()
/// return the same individuals for the same (island, round) on every call
/// and every rerun — published records are immutable — which is what the
/// determinism contract of the merged front rests on.
class MigrantExchange {
public:
  virtual ~MigrantExchange() = default;

  /// Publishes island `island`'s round-`round` emigrants. Returns false
  /// when the round was already published (a resumed island replaying
  /// generations past its last checkpoint) — the original record stands
  /// and nothing is written, so peers see each round exactly once.
  virtual bool publish(int island, int round, int generation,
                       const std::vector<opt::Individual>& emigrants) = 0;

  /// Non-blocking probe: round `round`'s emigrants of island `from` if
  /// the record is visible, an empty result if `from` has retired before
  /// that round, std::nullopt while `from` lags.
  virtual std::optional<std::vector<opt::Individual>> tryFetch(int from,
                                                               int round) = 0;

  /// tryFetch() polled every pollIntervalMs() until it has a result, or
  /// until `stop` returns true (empty result; the caller is being
  /// cancelled and discards its partial state). Each miss counts one
  /// `tuning.island.stale_reads` (the lagging-island signal).
  std::vector<opt::Individual> fetch(int from, int round,
                                     const std::function<bool()>& stop);

  /// Marks `island` cleanly terminated after `generation` generations:
  /// `round` = floor(generation / migrateEvery) is the last round it
  /// published; fetches for later rounds resolve to empty immediately.
  virtual void retire(int island, int round, int generation,
                      std::uint64_t evaluations) = 0;

  /// Poll interval of fetch(), milliseconds (test hook).
  void setPollIntervalMs(int ms) { pollMs_ = ms; }

private:
  int pollMs_ = 10;
};

/// In-process exchange for tests and sessionless `--islands N` runs:
/// records live in a mutex-guarded map. Same protocol as JournalExchange,
/// so trajectories are identical whichever medium carries the migrants.
class MemoryExchange final : public MigrantExchange {
public:
  bool publish(int island, int round, int generation,
               const std::vector<opt::Individual>& emigrants) override;
  std::optional<std::vector<opt::Individual>> tryFetch(int from,
                                                       int round) override;
  void retire(int island, int round, int generation,
              std::uint64_t evaluations) override;

private:
  std::mutex mutex_;
  std::map<std::pair<int, int>, std::vector<opt::Individual>> records_;
  std::map<int, int> retired_; ///< island -> last published round
};

/// Filesystem exchange over per-island migrant journals. Readers tolerate
/// a torn tail (a record mid-append or cut by a SIGKILL) by treating the
/// journal as if the torn record were not yet written — the next poll
/// re-reads the file; mid-file corruption stays a hard error.
class JournalExchange final : public MigrantExchange {
public:
  /// `islands`, `migrateEvery`, `migrants` and `seed` describe the run the
  /// exchange belongs to; they are stamped into (and on resume validated
  /// against) each island's migrant-journal header record.
  JournalExchange(std::string directory, int islands, int migrateEvery,
                  std::size_t migrants, std::uint64_t seed);

  /// Opens island `island`'s migrant journal for writing: fresh mode
  /// writes the header record, resume mode validates the existing header
  /// and scans the rounds already published (exactly-once republish).
  /// A process only attaches the islands it runs; reads need no attach.
  void attach(int island, bool resume);

  bool publish(int island, int round, int generation,
               const std::vector<opt::Individual>& emigrants) override;
  /// std::nullopt also while the peer's journal tail is torn.
  std::optional<std::vector<opt::Individual>> tryFetch(int from,
                                                       int round) override;
  void retire(int island, int round, int generation,
              std::uint64_t evaluations) override;

private:
  struct Attached {
    std::unique_ptr<session::JournalWriter> writer;
    std::set<int> publishedRounds;
    bool retired = false;
  };

  std::string directory_;
  int islands_;
  int migrateEvery_;
  std::size_t migrants_;
  std::uint64_t seed_;
  std::mutex mutex_;
  std::map<int, Attached> attached_;
};

/// One island-model run. The merged result is assembled deterministically:
/// front = the non-dominated subset of the islands' fronts concatenated in
/// island order, evaluations = sum over islands (each island pays for its
/// own memoized evaluations), generations = the maximum, population = the
/// concatenation, hvHistory = island 0's trajectory.
struct IslandOptions {
  int islands = 2;
  int migrateEvery = 5;     ///< generations between migration rounds
  std::size_t migrants = 3; ///< emigrants per island per round
  /// Worker-process mode: run only this island (>= 0) against the shared
  /// directory; another invocation merges once all islands finished. -1
  /// runs every island on the calling thread and merges directly.
  int islandIndex = -1;
  /// Shared session directory; empty = in-memory exchange, no persistence
  /// (islandIndex then must be -1).
  std::string directory;
  int checkpointEvery = 1;
  bool resume = false;
  bool reduction = true; ///< false = plain GDE3 islands
  /// Base engine options. Island k runs with seed = gde3.seed + k and
  /// initialSeeds rotated by k (every island knows all analytic seeds but
  /// plants them in different population slots).
  opt::GDE3Options gde3;
  std::vector<Config> seeds; ///< analytic seeds (may be empty)
  /// Session-header factory for island k (the caller owns the algorithm
  /// options blob format); required when `directory` is set.
  std::function<session::SessionHeader(int island, std::uint64_t seed)>
      makeHeader;
  std::function<bool()> stopRequested;
  /// Per-generation progress, forwarded from island 0 only (a single
  /// monotone generation stream for the serve layer's subscribers).
  std::function<void(const opt::GenerationProgress&)> onProgress;
};

struct IslandRun {
  opt::OptResult merged;
  bool cancelled = false; ///< stopRequested fired; no finish/retire records
  /// Session provenance, aggregated over the islands this invocation
  /// touched (zero / empty without a directory).
  std::string journal; ///< island 0's session journal path
  std::uint64_t checkpoints = 0;
  int resumes = 0;
  std::uint64_t recordedEvaluations = 0;
};

/// Runs the island model over `fn`. In worker mode the merged result is
/// the single island's own snapshot (callers treat it as provisional; the
/// merge invocation produces the real front). In-process islands run one
/// after another on the calling thread: each runs generations up to its
/// next migration round, then waits while the others catch up. Run side
/// by side on their own threads, they met every few milliseconds at a
/// round, so a run went at the pace of whichever core other processes
/// held longest (on 4 vCPUs, three busy processes made a 4-island tune
/// 2.5x slower). Worker processes run islands in parallel.
IslandRun runIslands(ObjectiveFunction& fn, runtime::ThreadPool& pool,
                     const IslandOptions& options);

} // namespace motune::tuning
