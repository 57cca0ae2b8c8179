#include "serve/daemon.h"

#include "observe/expose.h"
#include "observe/metrics.h"
#include "serve/protocol.h"
#include "support/check.h"
#include "support/files.h"

#include <cerrno>
#include <chrono>
#include <cstring>
#include <system_error>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

namespace motune::serve {

namespace {

support::Json errorResponse(const std::string& message) {
  return support::JsonObject{{"ok", false}, {"error", message}};
}

} // namespace

Daemon::Daemon(DaemonOptions options)
    : options_(std::move(options)), store_(options_.stateDir) {
  MOTUNE_CHECK_MSG(!options_.stateDir.empty(), "serve: state dir is required");
}

Daemon::~Daemon() { stop(); }

void Daemon::start() {
  MOTUNE_CHECK_MSG(!running_, "daemon already running");

  listenFd_ = ::socket(AF_INET, SOCK_STREAM, 0);
  MOTUNE_CHECK_MSG(listenFd_ >= 0, "serve: cannot create socket");
  int one = 1;
  ::setsockopt(listenFd_, SOL_SOCKET, SO_REUSEADDR, &one, sizeof one);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<std::uint16_t>(options_.port));
  MOTUNE_CHECK_MSG(
      ::inet_pton(AF_INET, options_.host.c_str(), &addr.sin_addr) == 1,
      "serve: invalid bind address: " + options_.host);
  if (::bind(listenFd_, reinterpret_cast<sockaddr*>(&addr), sizeof addr) != 0) {
    const std::string err = std::strerror(errno);
    ::close(listenFd_);
    listenFd_ = -1;
    MOTUNE_CHECK_MSG(false, "serve: cannot bind " + options_.host + ":" +
                                std::to_string(options_.port) + ": " + err);
  }
  MOTUNE_CHECK_MSG(::listen(listenFd_, 64) == 0, "serve: listen failed");

  sockaddr_in bound{};
  socklen_t len = sizeof bound;
  ::getsockname(listenFd_, reinterpret_cast<sockaddr*>(&bound), &len);
  port_ = ntohs(bound.sin_port);

  hub_ = std::make_unique<StreamHub>(options_.streamBufferFrames);
  scheduler_ =
      std::make_unique<JobScheduler>(store_, options_.scheduler, hub_.get());
  scheduler_->start();
  store_.writeDaemonInfo(port_, options_.scheduler.workers);

  running_ = true;
  shutdownRequested_ = false;
  acceptThread_ = std::thread([this] { acceptLoop(); });
}

bool Daemon::waitForShutdown(double timeoutSeconds) {
  std::unique_lock lock(shutdownMutex_);
  auto requested = [this] { return shutdownRequested_; };
  if (timeoutSeconds <= 0.0) {
    shutdownCv_.wait(lock, requested);
    return true;
  }
  return shutdownCv_.wait_for(
      lock, std::chrono::duration<double>(timeoutSeconds), requested);
}

void Daemon::requestShutdown() {
  {
    std::lock_guard lock(shutdownMutex_);
    shutdownRequested_ = true;
  }
  shutdownCv_.notify_all();
}

void Daemon::stop() {
  if (!running_) return;
  running_ = false;
  requestShutdown();

  // Shutting the listen socket down pops the accept loop out of accept();
  // it is closed only after the loop has exited, since the loop keeps
  // reading listenFd_ (and retries accept after EMFILE).
  if (listenFd_ >= 0) ::shutdown(listenFd_, SHUT_RDWR);
  if (acceptThread_.joinable()) acceptThread_.join();
  if (listenFd_ >= 0) {
    ::close(listenFd_);
    listenFd_ = -1;
  }

  // Close every live subscription first: streaming connection threads are
  // blocked in Subscription::next(), not recv(), and only a closed
  // subscription pops them out promptly.
  if (hub_) hub_->closeAll();

  // Kick live connections out of recv(); their threads then close their
  // fds and leave the live set. A listed fd is still open: its thread
  // closes it only after removing it under this lock.
  {
    std::unique_lock lock(connMutex_);
    for (int fd : connFds_) ::shutdown(fd, SHUT_RDWR);
    connDone_.wait(lock, [this] { return connFds_.empty(); });
  }

  if (scheduler_) scheduler_->stop();
}

void Daemon::acceptLoop() {
  for (;;) {
    const int fd = ::accept(listenFd_, nullptr, nullptr);
    if (fd < 0) {
      if (errno == EINTR || errno == ECONNABORTED) continue;
      if (errno == EMFILE || errno == ENFILE) {
        // Out of descriptors: closing connections free some, so back off
        // instead of giving up on the listener.
        std::this_thread::sleep_for(std::chrono::milliseconds(10));
        continue;
      }
      return; // listener closed: shutting down
    }
    std::lock_guard lock(connMutex_);
    connFds_.insert(fd);
    try {
      std::thread([this, fd] { serveConnection(fd); }).detach();
    } catch (const std::system_error&) { // no thread to serve it: refuse
      connFds_.erase(fd);
      ::close(fd);
    }
  }
}

void Daemon::serveConnection(int fd) {
  FrameReader reader;
  try {
    for (;;) {
      std::optional<support::Json> request = recvFrame(fd, reader);
      if (!request) break; // clean EOF
      if (request->has("verb") &&
          request->at("verb").asString() == "subscribe") {
        // Streaming verb: pushes frames until the job ends, then the
        // connection is request/response again.
        handleSubscribe(fd, *request);
        continue;
      }
      support::Json response = dispatch(*request);
      const bool shutdownVerb =
          request->has("verb") && request->at("verb").asString() == "shutdown";
      sendFrame(fd, response);
      if (shutdownVerb) {
        requestShutdown();
        break;
      }
    }
  } catch (const std::exception&) {
    // Protocol violation or the peer vanished mid-frame: this connection
    // is done; the daemon and every other connection are unaffected.
  }
  // Leave the live set, then close: stop() only touches listed fds, so the
  // number cannot be reused under it. The notify is this thread's last
  // touch of the daemon — stop() may return and destroy it right after.
  std::lock_guard lock(connMutex_);
  connFds_.erase(fd);
  ::close(fd);
  connDone_.notify_all();
}

void Daemon::handleSubscribe(int fd, const support::Json& request) {
  std::string id;
  try {
    MOTUNE_CHECK_MSG(request.has("id"), "subscribe needs an id");
    id = request.at("id").asString();
  } catch (const std::exception& e) {
    sendFrame(fd, errorResponse(e.what()));
    return;
  }

  // Register before looking at the job's state: a terminal transition
  // between the two would otherwise slip past both the status check and
  // the hub. The reverse order is safe — publishEnd on the freshly
  // registered subscription just closes it and the loop below drains.
  std::shared_ptr<Subscription> sub = hub_->subscribe(id);
  const std::optional<JobInfo> info = scheduler_->status(id);
  if (!info) {
    hub_->unsubscribe(id, sub);
    sendFrame(fd, errorResponse("unknown job: " + id));
    return;
  }

  sendFrame(fd, support::JsonObject{{"ok", true},
                                    {"id", id},
                                    {"state", jobStateName(info->state)}});

  const bool terminal = info->state == JobState::Done ||
                        info->state == JobState::Failed ||
                        info->state == JobState::Cancelled;
  bool peerGone = false;
  if (terminal) {
    hub_->unsubscribe(id, sub);
  } else {
    for (;;) {
      std::optional<support::Json> frame = sub->next(0.25);
      if (frame) {
        try {
          sendFrame(fd, *frame);
        } catch (const std::exception&) {
          peerGone = true; // EPIPE mid-stream
          break;
        }
        continue;
      }
      if (sub->finished()) break; // job ended (or daemon shutting down)
      // Idle tick: is the peer still there? MSG_PEEK leaves any pipelined
      // request in the socket buffer for the post-stream loop.
      char probe;
      const ssize_t n = ::recv(fd, &probe, 1, MSG_PEEK | MSG_DONTWAIT);
      if (n == 0 || (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                     errno != EINTR)) {
        peerGone = true;
        break;
      }
    }
    if (peerGone) hub_->unsubscribe(id, sub);
  }

  if (peerGone)
    throw std::runtime_error("subscriber disconnected mid-stream");

  // The daemon (not the hub) composes the end frame: it carries the final
  // state from a fresh status lookup and this subscriber's drop count.
  const std::optional<JobInfo> last = scheduler_->status(id);
  sendFrame(fd,
            support::JsonObject{
                {"stream", "end"},
                {"job", id},
                {"state", last ? jobStateName(last->state) : "unknown"},
                {"dropped", std::to_string(sub->dropped())}});
}

support::Json Daemon::dispatch(const support::Json& request) {
  try {
    MOTUNE_CHECK_MSG(request.has("verb"), "request has no verb");
    const std::string verb = request.at("verb").asString();

    if (verb == "ping") return support::JsonObject{{"ok", true}};

    if (verb == "submit") {
      const JobSpec spec = specFromJson(request.at("spec"));
      const int priority =
          request.has("priority")
              ? static_cast<int>(request.at("priority").asInt())
              : 0;
      const bool noCache =
          request.has("no_cache") && request.at("no_cache").asBool();
      const Admission admission =
          scheduler_->submit(spec, priority, noCache);
      if (!admission.accepted) {
        support::JsonObject response{{"ok", false},
                                     {"error", admission.error}};
        if (admission.retryAfterSeconds > 0.0)
          response.emplace("retry_after", admission.retryAfterSeconds);
        return response;
      }
      support::JsonObject response{{"ok", true}, {"id", admission.id}};
      if (admission.cached) response.emplace("cached", true);
      return response;
    }

    if (verb == "status") {
      const std::string id = request.at("id").asString();
      const std::optional<JobInfo> info = scheduler_->status(id);
      if (!info) return errorResponse("unknown job: " + id);
      return support::JsonObject{{"ok", true}, {"job", infoToJson(*info)}};
    }

    if (verb == "result") {
      const std::string id = request.at("id").asString();
      const std::optional<JobInfo> info = scheduler_->status(id);
      if (!info) return errorResponse("unknown job: " + id);
      if (info->state != JobState::Done)
        return errorResponse("job " + id + " is " +
                             jobStateName(info->state) + ", not done");
      const support::Json artifact =
          support::Json::parse(support::readFile(info->artifactPath));
      return support::JsonObject{{"ok", true}, {"artifact", artifact}};
    }

    if (verb == "cancel") {
      const CancelOutcome outcome =
          scheduler_->cancel(request.at("id").asString());
      if (!outcome.ok) return errorResponse(outcome.detail);
      return support::JsonObject{{"ok", true}, {"detail", outcome.detail}};
    }

    if (verb == "list") {
      support::JsonArray jobs;
      for (const JobInfo& info : scheduler_->list())
        jobs.push_back(infoToJson(info));
      return support::JsonObject{{"ok", true}, {"jobs", std::move(jobs)}};
    }

    if (verb == "stats") {
      if (request.has("format") &&
          request.at("format").asString() == "prometheus")
        return support::JsonObject{
            {"ok", true},
            {"prometheus",
             observe::renderPrometheus(observe::MetricsRegistry::global())}};
      return support::JsonObject{{"ok", true}, {"stats", scheduler_->stats()}};
    }

    if (verb == "shutdown") return support::JsonObject{{"ok", true}};

    return errorResponse("unknown verb: " + verb);
  } catch (const std::exception& e) {
    return errorResponse(e.what());
  }
}

} // namespace motune::serve
