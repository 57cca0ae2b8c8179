// Live job streaming for the tuning daemon: the fan-out hub behind the
// `subscribe` verb.
//
// Producers are the scheduler's worker threads (state transitions,
// per-generation progress) and each job's tracer (span/event records via
// StreamSink); consumers are connection threads holding a Subscription
// each. The contract that keeps streaming off the scheduler hot path:
//
//   - publish with zero subscribers is one relaxed atomic load;
//   - a subscriber's buffer is bounded. Best-effort frames (trace,
//     progress) are dropped and counted when it is full; control frames
//     (state transitions, the terminal end-of-stream) are always enqueued
//     so every subscriber observes the job's outcome;
//   - producers never block: push is a mutex-protected deque append, the
//     socket write happens on the consumer's thread.
//
// The wire format of the frames (docs/serve.md "Subscribing to a job") is
// composed by the publishers; this layer moves opaque JSON payloads.
#pragma once

#include "observe/trace.h"
#include "support/json.h"

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

namespace motune::serve {

/// One subscriber's bounded frame queue. Created by StreamHub::subscribe;
/// the connection thread drains it with next() and the hub closes it when
/// the job ends or the daemon stops.
class Subscription {
public:
  explicit Subscription(std::size_t capacity) : capacity_(capacity) {}

  /// Blocks up to timeoutSeconds for the next frame. nullopt on timeout or
  /// when the stream is closed and fully drained — check finished() to
  /// tell the two apart.
  std::optional<support::Json> next(double timeoutSeconds);

  /// Closed and nothing left to drain: the consumer should send its end
  /// frame and stop.
  bool finished() const;

  /// Best-effort frames discarded because the buffer was full.
  std::uint64_t dropped() const {
    return dropped_.load(std::memory_order_relaxed);
  }

private:
  friend class StreamHub;

  /// Control frames always enqueue (the buffer may transiently exceed
  /// capacity by the handful of lifecycle frames); best-effort frames are
  /// dropped and counted when the buffer is full. Never blocks.
  void push(support::Json frame, bool control);
  void close();

  const std::size_t capacity_;
  mutable std::mutex mutex_;
  std::condition_variable ready_;
  std::deque<support::Json> queue_;
  bool closed_ = false;
  std::atomic<std::uint64_t> dropped_{0};
};

/// Per-job fan-out of live frames to any number of subscribers.
class StreamHub {
public:
  explicit StreamHub(std::size_t bufferFrames = 256)
      : bufferFrames_(bufferFrames == 0 ? 1 : bufferFrames) {}

  std::shared_ptr<Subscription> subscribe(const std::string& jobId);
  void unsubscribe(const std::string& jobId,
                   const std::shared_ptr<Subscription>& sub);

  /// True when anyone subscribes to any job — the producers' cheap gate
  /// (conservative: a subscriber to job A keeps publishes for job B on the
  /// locked path, which only costs the lookup).
  bool anySubscribers() const {
    return subscriberCount_.load(std::memory_order_relaxed) != 0;
  }

  /// Lifecycle frame: always delivered to every current subscriber.
  void publishControl(const std::string& jobId, support::Json frame);

  /// Best-effort frame (trace records, per-generation progress): dropped
  /// and counted per subscriber when its buffer is full.
  void publishBestEffort(const std::string& jobId, support::Json frame);

  /// Terminal frame: delivered like a control frame, then every
  /// subscription of the job is closed and forgotten.
  void publishEnd(const std::string& jobId, support::Json frame);

  /// Daemon shutdown: closes every subscription of every job so blocked
  /// consumer threads wake and finish.
  void closeAll();

  std::size_t subscriberCount() const {
    return subscriberCount_.load(std::memory_order_relaxed);
  }

private:
  const std::size_t bufferFrames_;
  std::atomic<std::size_t> subscriberCount_{0};
  mutable std::mutex mutex_;
  std::map<std::string, std::vector<std::shared_ptr<Subscription>>> subs_;
};

/// observe::Sink adapter: forwards every record of a job's tracer into the
/// hub as a best-effort `{"stream":"trace","record":{...}}` frame. Attached
/// to the per-job tracer alongside its JSONL file sink.
class StreamSink final : public observe::Sink {
public:
  StreamSink(StreamHub& hub, std::string jobId)
      : hub_(&hub), jobId_(std::move(jobId)) {}
  void write(const observe::TraceRecord& record,
             const observe::TraceStamp& stamp) override;

private:
  StreamHub* hub_;
  std::string jobId_;
};

} // namespace motune::serve
