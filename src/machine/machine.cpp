#include "machine/machine.h"

#include "support/check.h"

#include <algorithm>
#include <cctype>

namespace motune::machine {

int MachineModel::socketsUsed(int threads) const {
  MOTUNE_CHECK(threads >= 1);
  const int capped = std::min(threads, totalCores());
  return (capped + coresPerSocket - 1) / coresPerSocket;
}

int MachineModel::maxThreadsOnOneSocket(int threads) const {
  MOTUNE_CHECK(threads >= 1);
  return std::min(threads, coresPerSocket);
}

double MachineModel::effectiveCapacityPerThread(std::size_t level,
                                                int threads) const {
  MOTUNE_CHECK(level < caches.size());
  const CacheLevelSpec& spec = caches[level];
  if (!spec.sharedPerSocket) return static_cast<double>(spec.capacityBytes);
  const int sharers = maxThreadsOnOneSocket(threads);
  return static_cast<double>(spec.capacityBytes) / std::max(1, sharers);
}

double MachineModel::aggregateDramBandwidthGBs(int threads) const {
  return dramBandwidthGBs * socketsUsed(threads);
}

double MachineModel::memContentionFactor(int threads) const {
  const int onSocket = maxThreadsOnOneSocket(threads);
  const int sockets = socketsUsed(threads);
  return (1.0 + memContentionPerThread * (onSocket - 1)) *
         (1.0 + memContentionPerSocket * (sockets - 1));
}

MachineModel westmere() {
  MachineModel m;
  m.name = "Westmere";
  m.sockets = 4;
  m.coresPerSocket = 10;
  m.freqGHz = 2.4;
  m.flopsPerCyclePerCore = 4.0; // SSE4.2 double precision, mul+add pipes
  m.dramBandwidthGBs = 17.0;    // per socket, sustained
  m.dramLatencyCycles = 220;
  m.memContentionPerThread = 0.0085; // 10-core socket: ~8% at full occupancy
  m.memContentionPerSocket = 0.14;   // QPI / snoop traffic across 4 sockets
  m.corePowerActiveW = 10.0;  // 130W TDP / 10 cores, minus uncore share
  m.socketPowerBaseW = 30.0;
  m.dramEnergyPerByteNj = 0.4;
  m.caches = {
      {"L1", 32 * 1024, 64, 8, 4, false},
      {"L2", 256 * 1024, 64, 8, 11, false},
      {"L3", 30 * 1024 * 1024, 64, 24, 42, true},
  };
  return m;
}

MachineModel barcelona() {
  MachineModel m;
  m.name = "Barcelona";
  m.sockets = 8;
  m.coresPerSocket = 4;
  m.freqGHz = 2.3;
  m.flopsPerCyclePerCore = 4.0; // SSE double precision
  m.dramBandwidthGBs = 8.0;     // per socket, sustained
  m.dramLatencyCycles = 230;
  m.memContentionPerThread = 0.033; // small 2M L3, weak memory subsystem
  m.memContentionPerSocket = 0.13;  // 8-socket HyperTransport fabric
  m.corePowerActiveW = 15.0;  // 95W TDP / 4 cores, 65nm-era efficiency
  m.socketPowerBaseW = 25.0;
  m.dramEnergyPerByteNj = 0.6;
  m.caches = {
      {"L1", 64 * 1024, 64, 2, 3, false},
      {"L2", 512 * 1024, 64, 16, 15, false},
      {"L3", 2 * 1024 * 1024, 64, 32, 40, true},
  };
  return m;
}

const std::vector<MachineModel>& allMachines() {
  static const std::vector<MachineModel> machines = {westmere(), barcelona()};
  return machines;
}

const MachineModel& machineByName(const std::string& name) {
  std::string known;
  for (const MachineModel& m : allMachines()) {
    std::string key = m.name;
    std::transform(key.begin(), key.end(), key.begin(),
                   [](unsigned char c) { return std::tolower(c); });
    if (key == name) return m;
    known += (known.empty() ? "" : ", ") + key;
  }
  MOTUNE_CHECK_MSG(false, "unknown machine: " + name + " (available: " +
                              known + ")");
  return allMachines().front();
}

std::vector<int> evaluatedThreadCounts(const MachineModel& m) {
  if (m.name == "Westmere") return {1, 5, 10, 20, 40};
  if (m.name == "Barcelona") return {1, 2, 4, 8, 16, 32};
  // Generic fallback: powers of two up to the core count, plus the maximum.
  std::vector<int> counts;
  for (int t = 1; t < m.totalCores(); t *= 2) counts.push_back(t);
  counts.push_back(m.totalCores());
  return counts;
}

} // namespace motune::machine
