#include "autotune/artifact.h"

#include "support/check.h"
#include "support/files.h"

namespace motune::autotune {

TunedArtifact makeArtifact(const TuningResult& result,
                           const tuning::KernelTuningProblem& problem) {
  TunedArtifact a;
  a.kernel = problem.kernel().name;
  a.machineName = problem.machine().name;
  a.problemSize = problem.problemSize();
  a.evaluations = result.evaluations;
  a.hypervolume = result.hypervolume;
  a.untiledSerialSeconds = result.timeRef;
  a.front = result.front;
  a.session = result.session;
  return a;
}

namespace {

support::Json metaToJson(const mv::VersionMeta& m) {
  support::JsonArray config, tiles;
  for (auto v : m.configuration) config.emplace_back(v);
  for (auto v : m.tileSizes) tiles.emplace_back(v);
  return support::JsonObject{
      {"config", std::move(config)},   {"tiles", std::move(tiles)},
      {"threads", m.threads},          {"time_s", m.timeSeconds},
      {"resources", m.resources},      {"joules", m.joules},
  };
}

mv::VersionMeta metaFromJson(const support::Json& j) {
  mv::VersionMeta m;
  for (const auto& v : j.at("config").asArray())
    m.configuration.push_back(v.asInt());
  for (const auto& v : j.at("tiles").asArray())
    m.tileSizes.push_back(v.asInt());
  m.threads = static_cast<int>(j.at("threads").asInt());
  m.timeSeconds = j.at("time_s").asNumber();
  m.resources = j.at("resources").asNumber();
  if (j.has("joules")) m.joules = j.at("joules").asNumber();
  return m;
}

} // namespace

support::Json toJson(const TunedArtifact& artifact) {
  support::JsonArray versions;
  for (const auto& m : artifact.front) versions.push_back(metaToJson(m));
  support::JsonObject out{
      {"format", "motune-artifact-v1"},
      {"kernel", artifact.kernel},
      {"machine", artifact.machineName},
      {"problem_size", artifact.problemSize},
      {"evaluations", artifact.evaluations},
      {"hypervolume", artifact.hypervolume},
      {"untiled_serial_s", artifact.untiledSerialSeconds},
      {"versions", std::move(versions)},
  };
  if (artifact.session.has_value()) {
    const session::Provenance& s = *artifact.session;
    out.emplace("session", support::JsonObject{
                               {"journal", s.journal},
                               {"checkpoints", s.checkpoints},
                               {"resumes", s.resumes},
                               {"recorded_evaluations", s.recordedEvaluations},
                           });
  }
  return out;
}

TunedArtifact artifactFromJson(const support::Json& json) {
  MOTUNE_CHECK_MSG(json.has("format") &&
                       json.at("format").asString() == "motune-artifact-v1",
                   "not a motune tuning artifact");
  TunedArtifact a;
  a.kernel = json.at("kernel").asString();
  a.machineName = json.at("machine").asString();
  a.problemSize = json.at("problem_size").asInt();
  a.evaluations = static_cast<std::uint64_t>(json.at("evaluations").asInt());
  a.hypervolume = json.at("hypervolume").asNumber();
  a.untiledSerialSeconds = json.at("untiled_serial_s").asNumber();
  for (const auto& v : json.at("versions").asArray())
    a.front.push_back(metaFromJson(v));
  if (json.has("session")) {
    const support::Json& s = json.at("session");
    session::Provenance p;
    p.journal = s.at("journal").asString();
    p.checkpoints = static_cast<std::uint64_t>(s.at("checkpoints").asInt());
    p.resumes = static_cast<int>(s.at("resumes").asInt());
    p.recordedEvaluations =
        static_cast<std::uint64_t>(s.at("recorded_evaluations").asInt());
    a.session = std::move(p);
  }
  return a;
}

std::string serializeArtifact(const TunedArtifact& artifact) {
  return toJson(artifact).dump();
}

TunedArtifact deserializeArtifact(const std::string& text) {
  return artifactFromJson(support::Json::parse(text));
}

void saveArtifact(const TunedArtifact& artifact, const std::string& path) {
  support::writeFileAtomic(path, serializeArtifact(artifact) + "\n");
}

TunedArtifact loadArtifact(const std::string& path) {
  return deserializeArtifact(support::readFile(path));
}

} // namespace motune::autotune
