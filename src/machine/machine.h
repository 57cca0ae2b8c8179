// Target machine description.
//
// The paper evaluates on two real systems (Table I): a 4-socket Intel Xeon
// E7-4870 ("Westmere") and an 8-socket AMD Opteron 8356 ("Barcelona").
// This module describes such machines — topology, cache hierarchy, compute
// and memory throughput — for the analytical performance model and the
// trace-driven cache simulator, which together stand in for the real
// hardware in this reproduction (see DESIGN.md §1).
#pragma once

#include <cstdint>
#include <string>
#include <vector>

namespace motune::machine {

/// One level of the data-cache hierarchy.
struct CacheLevelSpec {
  std::string name;           ///< "L1", "L2", "L3"
  std::int64_t capacityBytes; ///< total capacity of one instance
  std::int64_t lineBytes;     ///< cache line size
  int associativity;          ///< ways; <=0 means fully associative
  int latencyCycles;          ///< access latency on hit at this level
  bool sharedPerSocket;       ///< true: one instance per socket, shared by
                              ///< its cores; false: private per core
};

/// A shared-memory multiprocessor in the paper's experimental-setup sense.
///
/// Thread placement follows the paper's protocol: "all involved threads were
/// bound to individual physical cores such that the resources of one chip
/// are fully utilized before involving an additional processor" — i.e.
/// fill-first (compact) placement, which the helpers below encode.
struct MachineModel {
  std::string name;
  int sockets = 1;
  int coresPerSocket = 1;
  double freqGHz = 1.0;
  double flopsPerCyclePerCore = 2.0;   ///< sustained double-precision
  double dramBandwidthGBs = 10.0;      ///< per-socket sustained bandwidth
  int dramLatencyCycles = 200;
  double forkJoinBaseUs = 3.0;         ///< parallel-region entry cost
  double forkJoinPerThreadUs = 0.15;   ///< additional per-thread cost
  /// Memory-path contention: co-located threads share the L3, memory
  /// controller and (across sockets) the interconnect. Memory time is
  /// scaled by (1 + perThread*(threadsOnSocket-1)) * (1 + perSocket*
  /// (socketsUsed-1)) — the mechanism behind the paper's sub-linear
  /// scaling (Fig. 1, Table III).
  double memContentionPerThread = 0.01;
  double memContentionPerSocket = 0.10;
  /// Power model (for the optional energy objective; paper §III.B.1 lists
  /// "energy consumption" among the objectives f may quantify).
  double corePowerActiveW = 8.0;   ///< per busy core
  double socketPowerBaseW = 25.0;  ///< uncore/static per occupied socket
  double dramEnergyPerByteNj = 0.5; ///< DRAM access energy, nJ per byte
  std::vector<CacheLevelSpec> caches;  ///< ordered L1 -> last level

  int totalCores() const { return sockets * coresPerSocket; }

  /// Number of sockets occupied by `threads` under fill-first placement.
  int socketsUsed(int threads) const;

  /// Threads running on the most-populated socket under fill-first
  /// placement (determines how thin shared caches are sliced).
  int maxThreadsOnOneSocket(int threads) const;

  /// Effective capacity of cache level `level` available to one thread when
  /// `threads` threads run under fill-first placement: private levels keep
  /// their full size, shared levels are divided among the co-located
  /// threads. This is the mechanism behind thread-count-dependent optimal
  /// tile sizes (paper §II, Fig. 2).
  double effectiveCapacityPerThread(std::size_t level, int threads) const;

  /// Aggregate DRAM bandwidth available to `threads` threads (fill-first):
  /// each occupied socket contributes its full memory controller.
  double aggregateDramBandwidthGBs(int threads) const;

  /// Memory contention multiplier for `threads` threads (see the
  /// memContention* fields).
  double memContentionFactor(int threads) const;
};

/// Intel Xeon E7-4870 system: 4 sockets x 10 cores, 32K/256K private,
/// 30M shared L3 per socket (paper Table I).
MachineModel westmere();

/// AMD Opteron 8356 system: 8 sockets x 4 cores, 64K/512K private,
/// 2M shared L3 per socket (paper Table I).
MachineModel barcelona();

/// The built-in machine models, and lookup by the lowercase name flags and
/// specs use ("westmere"; artifacts record the model's name, "Westmere").
/// Throws, listing the names, on a miss.
const std::vector<MachineModel>& allMachines();
const MachineModel& machineByName(const std::string& name);

/// The thread counts the paper evaluates on each machine (Table II/III).
std::vector<int> evaluatedThreadCounts(const MachineModel& m);

} // namespace motune::machine
