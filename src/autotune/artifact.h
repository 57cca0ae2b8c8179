// Tuning artifacts: persisted results of the static optimizer.
//
// The paper's workflow compiles the Pareto set into a multi-versioned
// executable once; this module provides the same decoupling for the
// library: `tune once -> save artifact -> load at program start -> build
// the runtime version table`, without re-running the (potentially long)
// search. The format is self-describing JSON (see support/json.h); the
// motune CLI (tools/motune_cli.cpp) reads and writes it.
#pragma once

#include "autotune/autotuner.h"
#include "multiversion/version_table.h"
#include "support/json.h"

#include <string>
#include <vector>

namespace motune::autotune {

/// Everything needed to reconstruct a multi-version table later — plus the
/// provenance a deployment wants on record (machine, problem size, search
/// effort, achieved quality).
struct TunedArtifact {
  std::string kernel;      ///< built-in kernel name ("mm", ...)
  std::string machineName; ///< the machine model the tuning targeted
  std::int64_t problemSize = 0;
  std::uint64_t evaluations = 0;
  double hypervolume = 0.0;
  double untiledSerialSeconds = 0.0;
  std::vector<mv::VersionMeta> front; ///< time-sorted Pareto set
  /// Session provenance when the search ran under `--checkpoint`: which
  /// journal produced this front, how often it checkpointed and how many
  /// times it was resumed. Serialized as the optional "session" object of
  /// the artifact format (readers ignore unknown fields, so pre-session
  /// artifacts load unchanged — see docs/architecture.md).
  std::optional<session::Provenance> session;
};

/// Packages a tuning result (provenance from `problem`).
TunedArtifact makeArtifact(const TuningResult& result,
                           const tuning::KernelTuningProblem& problem);

/// JSON round-trip.
support::Json toJson(const TunedArtifact& artifact);
TunedArtifact artifactFromJson(const support::Json& json);

/// Convenience text round-trip (toJson(...).dump() / parse + fromJson).
std::string serializeArtifact(const TunedArtifact& artifact);
TunedArtifact deserializeArtifact(const std::string& text);

/// File I/O (saves replace atomically); CheckError on missing/invalid files.
void saveArtifact(const TunedArtifact& artifact, const std::string& path);
TunedArtifact loadArtifact(const std::string& path);

} // namespace motune::autotune
