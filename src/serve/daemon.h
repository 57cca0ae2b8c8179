// The tuning daemon: a TCP server speaking the length-prefixed JSON
// protocol of serve/protocol.h, dispatching verbs onto a JobScheduler.
//
// Request/response verbs (one JSON object per frame, "verb" selects):
//
//   {"verb":"ping"}                          -> {"ok":true}
//   {"verb":"submit","spec":{..},"priority":N[,"no_cache":true]}
//     -> {"ok":true,"id":"j000001"}
//     -> {"ok":true,"id":"j000001","cached":true}  (spec already finished;
//                                                   nothing scheduled)
//     -> {"ok":false,"error":"queue full","retry_after":0.5}   (backpressure)
//   {"verb":"status","id":"j000001"}         -> {"ok":true,"job":{..}}
//   {"verb":"result","id":"j000001"}         -> {"ok":true,"artifact":{..}}
//   {"verb":"cancel","id":"j000001"}         -> {"ok":true,"detail":"..."}
//   {"verb":"list"}                          -> {"ok":true,"jobs":[..]}
//   {"verb":"stats"}                         -> {"ok":true,"stats":{..}}
//   {"verb":"stats","format":"prometheus"}   -> {"ok":true,"prometheus":"..."}
//                                               (text exposition 0.0.4)
//   {"verb":"shutdown"}                      -> {"ok":true}, then the daemon
//                                               drains connections and stops
//
// One streaming verb breaks the request/response pattern: subscribe
// upgrades the connection to a push stream of a job's live frames (state
// transitions, per-generation progress, trace records) until the job
// reaches a terminal state, closing with an `end` frame that reports how
// many best-effort frames this subscriber lost. Wire format in
// docs/serve.md; buffering policy in serve/stream.h.
//
//   {"verb":"subscribe","id":"j000001"}      -> {"ok":true,...}, then frames
//
// Every failure is an {"ok":false,"error":...} response on the same
// connection; only a protocol violation (oversized/malformed frame) drops
// the connection. Connections are handled one thread each — clients are
// expected to be few (CI harnesses, CLIs), jobs are where the concurrency
// is — and requests on one connection are served strictly in order, so a
// client may pipeline frames.
//
// Lifecycle: start() binds (port 0 picks an ephemeral port — port() tells
// which), recovers + starts the scheduler, writes STATE/daemon.json and
// begins accepting. waitForShutdown() blocks until a shutdown verb or
// requestShutdown(); stop() is the idempotent teardown (also called by the
// destructor). SIGKILL needs no cooperation from any of this: the store is
// crash-consistent and the next start() resumes from it.
#pragma once

#include "serve/scheduler.h"
#include "serve/store.h"
#include "serve/stream.h"

#include <condition_variable>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>
#include <vector>

namespace motune::serve {

struct DaemonOptions {
  std::string stateDir;          ///< required: the durable job store
  std::string host = "127.0.0.1"; ///< bind address
  int port = 0;                  ///< 0 = ephemeral (see Daemon::port())
  SchedulerOptions scheduler;
  /// Per-subscriber buffer (frames) for the subscribe verb. A subscriber
  /// slower than the stream loses best-effort frames past this depth —
  /// counted, reported in its end frame — but never blocks a worker.
  std::size_t streamBufferFrames = 256;
};

class Daemon {
public:
  explicit Daemon(DaemonOptions options);
  ~Daemon(); ///< stop()s if still running

  /// Bind + listen, recover + start the scheduler, write daemon.json,
  /// spawn the accept loop. Throws support::CheckError when the port
  /// cannot be bound.
  void start();

  /// Blocks until a `shutdown` verb arrives or requestShutdown() is
  /// called; the caller then runs stop(). With a positive timeout it
  /// returns after at most that many seconds, reporting whether shutdown
  /// was requested — the CLI polls this so a signal handler only has to
  /// set an atomic flag (requestShutdown takes a mutex and is not
  /// async-signal-safe).
  bool waitForShutdown(double timeoutSeconds = 0.0);

  /// Unblocks waitForShutdown() (signal handlers route here).
  void requestShutdown();

  /// Stops accepting, closes live connections, stops the scheduler
  /// (running jobs finish; their artifacts land before stop() returns).
  /// Idempotent.
  void stop();

  int port() const { return port_; }
  JobScheduler& scheduler() { return *scheduler_; }

private:
  void acceptLoop();
  void serveConnection(int fd);
  support::Json dispatch(const support::Json& request);
  /// The subscribe verb: upgrades the connection to a push stream of the
  /// job's frames until the job ends (or the peer hangs up), then returns
  /// — the connection goes back to request/response.
  void handleSubscribe(int fd, const support::Json& request);

  DaemonOptions options_;
  JobStore store_;
  std::unique_ptr<StreamHub> hub_;
  std::unique_ptr<JobScheduler> scheduler_;

  int listenFd_ = -1;
  int port_ = 0;
  std::thread acceptThread_;

  /// Live connections: each runs on its own detached thread, which owns
  /// its fd and closes it once it has left connFds_. stop() shuts the live
  /// fds down and waits on connDone_ until connFds_ is empty.
  std::mutex connMutex_;
  std::condition_variable connDone_;
  std::set<int> connFds_;

  std::mutex shutdownMutex_;
  std::condition_variable shutdownCv_;
  bool shutdownRequested_ = false;
  bool running_ = false;
};

} // namespace motune::serve
