#include "serve/stream.h"

#include "observe/metrics.h"

#include <algorithm>
#include <chrono>

namespace motune::serve {

// ----------------------------------------------------------- subscription

std::optional<support::Json> Subscription::next(double timeoutSeconds) {
  std::unique_lock lock(mutex_);
  if (queue_.empty() && !closed_) {
    ready_.wait_for(lock,
                    std::chrono::duration<double>(
                        std::max(0.0, timeoutSeconds)),
                    [this] { return !queue_.empty() || closed_; });
  }
  if (queue_.empty()) return std::nullopt;
  support::Json frame = std::move(queue_.front());
  queue_.pop_front();
  return frame;
}

bool Subscription::finished() const {
  std::lock_guard lock(mutex_);
  return closed_ && queue_.empty();
}

void Subscription::push(support::Json frame, bool control) {
  {
    std::lock_guard lock(mutex_);
    if (closed_) return;
    if (!control && queue_.size() >= capacity_) {
      dropped_.fetch_add(1, std::memory_order_relaxed);
      observe::MetricsRegistry::global()
          .counter("serve.stream.dropped")
          .add();
      return;
    }
    queue_.push_back(std::move(frame));
  }
  ready_.notify_one();
}

void Subscription::close() {
  {
    std::lock_guard lock(mutex_);
    closed_ = true;
  }
  ready_.notify_all();
}

// -------------------------------------------------------------------- hub

std::shared_ptr<Subscription> StreamHub::subscribe(const std::string& jobId) {
  auto sub = std::make_shared<Subscription>(bufferFrames_);
  {
    std::lock_guard lock(mutex_);
    subs_[jobId].push_back(sub);
  }
  subscriberCount_.fetch_add(1, std::memory_order_relaxed);
  observe::MetricsRegistry::global()
      .gauge("serve.stream.subscribers")
      .set(static_cast<double>(subscriberCount()));
  return sub;
}

void StreamHub::unsubscribe(const std::string& jobId,
                            const std::shared_ptr<Subscription>& sub) {
  bool removed = false;
  {
    std::lock_guard lock(mutex_);
    auto it = subs_.find(jobId);
    if (it != subs_.end()) {
      auto& list = it->second;
      auto pos = std::find(list.begin(), list.end(), sub);
      if (pos != list.end()) {
        list.erase(pos);
        removed = true;
      }
      if (list.empty()) subs_.erase(it);
    }
  }
  if (removed) {
    sub->close();
    subscriberCount_.fetch_sub(1, std::memory_order_relaxed);
    observe::MetricsRegistry::global()
        .gauge("serve.stream.subscribers")
        .set(static_cast<double>(subscriberCount()));
  }
}

void StreamHub::publishControl(const std::string& jobId,
                               support::Json frame) {
  if (!anySubscribers()) return;
  std::lock_guard lock(mutex_);
  auto it = subs_.find(jobId);
  if (it == subs_.end()) return;
  for (const auto& sub : it->second) sub->push(frame, /*control=*/true);
}

void StreamHub::publishBestEffort(const std::string& jobId,
                                  support::Json frame) {
  if (!anySubscribers()) return;
  std::lock_guard lock(mutex_);
  auto it = subs_.find(jobId);
  if (it == subs_.end()) return;
  observe::MetricsRegistry::global().counter("serve.stream.frames").add();
  for (const auto& sub : it->second) sub->push(frame, /*control=*/false);
}

void StreamHub::publishEnd(const std::string& jobId, support::Json frame) {
  std::vector<std::shared_ptr<Subscription>> ended;
  {
    std::lock_guard lock(mutex_);
    auto it = subs_.find(jobId);
    if (it == subs_.end()) return;
    ended = std::move(it->second);
    subs_.erase(it);
  }
  for (const auto& sub : ended) {
    sub->push(frame, /*control=*/true);
    sub->close();
  }
  subscriberCount_.fetch_sub(ended.size(), std::memory_order_relaxed);
  observe::MetricsRegistry::global()
      .gauge("serve.stream.subscribers")
      .set(static_cast<double>(subscriberCount()));
}

void StreamHub::closeAll() {
  std::map<std::string, std::vector<std::shared_ptr<Subscription>>> all;
  {
    std::lock_guard lock(mutex_);
    all = std::move(subs_);
    subs_.clear();
  }
  std::size_t count = 0;
  for (const auto& [id, list] : all) {
    for (const auto& sub : list) {
      sub->close();
      ++count;
    }
  }
  subscriberCount_.fetch_sub(count, std::memory_order_relaxed);
  observe::MetricsRegistry::global()
      .gauge("serve.stream.subscribers")
      .set(static_cast<double>(subscriberCount()));
}

// ------------------------------------------------------------------- sink

void StreamSink::write(const observe::TraceRecord& record,
                       const observe::TraceStamp& stamp) {
  if (!hub_->anySubscribers()) return;
  hub_->publishBestEffort(
      jobId_, support::Json(support::JsonObject{
                  {"stream", support::Json("trace")},
                  {"job", support::Json(jobId_)},
                  {"record", stamp.applyTo(record).toJson()}}));
}

} // namespace motune::serve
