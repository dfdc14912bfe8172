#include "bus/daemon.h"

#include <csignal>
#include <cstring>
#include <stdexcept>
#include <unistd.h>

#include "bus/scenario_jobs.h"
#include "core/parallel.h"
#include "scenario/registry.h"
#include "store/chunk_cache.h"

namespace psc::bus {

namespace {

void send_error(const Socket& socket, ErrorCode code,
                const std::string& message) {
  PayloadWriter w;
  ErrorMsg{code, message}.encode(w);
  send_frame(socket, MsgType::error, w);
}

// Write end of the owning daemon's stop pipe, for the signal handler.
// std::atomic<int> is lock-free on every supported target, which keeps
// the handler async-signal-safe.
std::atomic<int> g_signal_fd{-1};

void handle_stop_signal(int /*signo*/) {
  const int fd = g_signal_fd.load(std::memory_order_relaxed);
  if (fd >= 0) {
    const char byte = 's';
    [[maybe_unused]] const ssize_t n = ::write(fd, &byte, 1);
  }
}

}  // namespace

BusDaemon::BusDaemon(BusDaemonConfig config)
    : config_(std::move(config)),
      jobs_(std::make_shared<JobTable>(config_.per_session_quota)) {
  // The stop pipe exists from construction so install_signal_handlers
  // may run before start(); a signal delivered in between simply stops
  // the daemon right after it starts.
  if (::pipe(stop_pipe_) != 0) {
    throw BusError(std::string("pipe: ") + std::strerror(errno));
  }
}

BusDaemon::~BusDaemon() {
  if (started_.load(std::memory_order_acquire)) {
    stop();
  }
  if (stopper_thread_.joinable()) {
    stopper_thread_.join();
  }
  // A submit that raced do_stop's drain can leave one last driver behind
  // (its job only touches the table and mapping, both still alive); a
  // joinable thread must not reach the vector's destructor.
  {
    std::lock_guard<std::mutex> lock(drivers_mu_);
    for (JobDriver& driver : drivers_) {
      driver.thread.join();
    }
    drivers_.clear();
  }
  if (g_signal_fd.load(std::memory_order_relaxed) == stop_pipe_[1]) {
    g_signal_fd.store(-1, std::memory_order_relaxed);
  }
  ::close(stop_pipe_[0]);
  ::close(stop_pipe_[1]);
}

void BusDaemon::start() {
  if (started_.exchange(true, std::memory_order_acq_rel)) {
    throw BusError("BusDaemon: already started");
  }
  try {
    if (config_.chunk_cache_mb > 0) {
      chunk_cache_ = std::make_shared<store::ChunkCache>(
          config_.chunk_cache_mb * std::size_t{1024} * 1024);
      registry_.set_chunk_cache(chunk_cache_);
    }
    for (const auto& [name, path] : config_.datasets) {
      registry_.open(name, path);
    }
    core::WorkerPool::instance().reserve(config_.pool_reserve);
    listener_ = std::make_unique<Listener>(config_.socket_path);
  } catch (...) {
    started_.store(false, std::memory_order_release);
    throw;
  }
  stopper_thread_ = std::thread([this] { stopper_loop(); });
  accept_thread_ = std::thread([this] { accept_loop(); });
}

void BusDaemon::stop() {
  if (!started_.load(std::memory_order_acquire)) {
    return;
  }
  request_stop();
  wait();
}

void BusDaemon::wait() {
  if (!started_.load(std::memory_order_acquire)) {
    return;
  }
  std::unique_lock<std::mutex> lock(stopped_mu_);
  stopped_cv_.wait(lock, [&] { return stopped_; });
}

void BusDaemon::install_signal_handlers(BusDaemon& daemon) {
  g_signal_fd.store(daemon.stop_pipe_[1], std::memory_order_relaxed);
  struct sigaction sa = {};
  sa.sa_handler = handle_stop_signal;
  sigemptyset(&sa.sa_mask);
  sa.sa_flags = SA_RESTART;
  ::sigaction(SIGINT, &sa, nullptr);
  ::sigaction(SIGTERM, &sa, nullptr);
}

void BusDaemon::request_stop() {
  const char byte = 's';
  [[maybe_unused]] const ssize_t n = ::write(stop_pipe_[1], &byte, 1);
}

void BusDaemon::stopper_loop() {
  // Park until anyone requests a stop: stop(), a SHUTDOWN frame (which
  // cannot run the teardown on its own connection thread — it would join
  // itself) or a signal handler.
  for (;;) {
    char byte = 0;
    const ssize_t n = ::read(stop_pipe_[0], &byte, 1);
    if (n == 1 || n == 0) {
      break;
    }
    if (n < 0 && errno == EINTR) {
      continue;
    }
    break;  // pipe broken: stop anyway rather than leak the daemon
  }
  do_stop();
}

void BusDaemon::do_stop() {
  // Order matters: reject new work, drain what is running (watchers get
  // their JOB_DONE while sockets are still healthy), then tear down.
  stopping_.store(true, std::memory_order_release);
  jobs_->wait_idle();

  // Every job is terminal, so each driver is at most a few instructions
  // from returning; join them all before the sockets go away.
  {
    std::lock_guard<std::mutex> lock(drivers_mu_);
    for (JobDriver& driver : drivers_) {
      driver.thread.join();
    }
    drivers_.clear();
  }

  listener_->shutdown();
  // On Linux, shutdown() on a *listening* AF_UNIX socket does not
  // reliably unblock a thread parked in accept(); a throwaway connection
  // does. The accept loop sees stopping_ set and exits.
  try {
    Socket wake = connect_unix(config_.socket_path);
  } catch (...) {
    // Listener already dead: accept() has returned on its own.
  }
  if (accept_thread_.joinable()) {
    accept_thread_.join();
  }

  std::vector<std::thread> conn_threads;
  {
    std::lock_guard<std::mutex> lock(conn_mu_);
    for (auto& [session, socket] : connections_) {
      socket->shutdown_both();
    }
    conn_threads = std::move(conn_threads_);
  }
  for (auto& thread : conn_threads) {
    thread.join();
  }

  listener_.reset();  // unlink the socket file

  {
    std::lock_guard<std::mutex> lock(stopped_mu_);
    stopped_ = true;
  }
  stopped_cv_.notify_all();
}

void BusDaemon::accept_loop() {
  for (;;) {
    Socket accepted;
    try {
      accepted = listener_->accept();
    } catch (const BusError&) {
      return;
    }
    if (!accepted.valid()) {
      return;  // listener shut down
    }
    if (stopping_.load(std::memory_order_acquire)) {
      return;  // draining: drop the connection and stop accepting
    }
    // Heap-box the socket and register it before the thread exists, so
    // the shutdown sweep in do_stop can never miss a connection that the
    // accept loop already handed off.
    auto socket = std::make_unique<Socket>(std::move(accepted));
    Socket* raw = socket.get();
    std::uint64_t session = 0;
    {
      std::lock_guard<std::mutex> lock(conn_mu_);
      session = next_session_++;
      connections_.emplace_back(session, raw);
      conn_threads_.emplace_back(
          [this, session, owned = std::move(socket)]() mutable {
            handle_connection(owned.get(), session);
            std::lock_guard<std::mutex> inner(conn_mu_);
            for (auto it = connections_.begin(); it != connections_.end();
                 ++it) {
              if (it->first == session) {
                connections_.erase(it);
                break;
              }
            }
            // `owned` is destroyed with the closure after the thread
            // function returns — strictly after the erase above, so a
            // registered Socket* is always alive.
            owned->close();
          });
    }
  }
}

void BusDaemon::handle_connection(Socket* socket, std::uint64_t session) {
  std::vector<std::byte> payload;
  try {
    for (;;) {
      const std::optional<MsgType> type = recv_frame(*socket, payload);
      if (!type.has_value()) {
        return;  // clean EOF: client hung up between frames
      }
      if (!dispatch(*socket, session, *type, payload)) {
        return;
      }
    }
  } catch (const ProtocolError& e) {
    // Peer spoke garbage: one best-effort diagnosis, then hang up. The
    // daemon and every other session are unaffected.
    try {
      send_error(*socket, ErrorCode::bad_request, e.what());
    } catch (...) {
    }
  } catch (const BusError&) {
    // Peer vanished mid-frame or the shutdown sweep closed us; nothing
    // to send and nobody to send it to.
  } catch (const std::exception& e) {
    try {
      send_error(*socket, ErrorCode::internal, e.what());
    } catch (...) {
    }
  }
}

bool BusDaemon::dispatch(Socket& socket, std::uint64_t session, MsgType type,
                         const std::vector<std::byte>& payload) {
  switch (type) {
    case MsgType::ping: {
      PayloadReader r(payload);
      r.expect_end();
      send_frame(socket, MsgType::ok, std::span<const std::byte>{});
      return true;
    }
    case MsgType::list_datasets: {
      PayloadReader r(payload);
      r.expect_end();
      DatasetListMsg msg;
      for (auto& entry : registry_.list()) {
        msg.datasets.push_back({std::move(entry.name),
                                std::move(entry.summary)});
      }
      PayloadWriter w;
      msg.encode(w);
      send_frame(socket, MsgType::dataset_list, w);
      return true;
    }
    case MsgType::open_dataset: {
      PayloadReader r(payload);
      const OpenDatasetMsg msg = OpenDatasetMsg::decode(r);
      if (reject_if_draining(socket)) {
        return true;
      }
      try {
        registry_.open(msg.name, msg.path);
      } catch (const std::exception& e) {
        send_error(socket, ErrorCode::bad_request, e.what());
        return true;
      }
      send_frame(socket, MsgType::ok, std::span<const std::byte>{});
      return true;
    }
    case MsgType::submit_cpa: {
      PayloadReader r(payload);
      const SubmitCpaMsg msg = SubmitCpaMsg::decode(r);
      if (auto mapping = submit_dataset(socket, msg.dataset)) {
        submit_job(socket, session, [mapping, spec = msg.spec](
                                        auto id, const auto& progress,
                                        const auto& exec) {
          return result_frame(
              CpaResultMsg{id, run_cpa_job(mapping, spec, progress, exec)});
        });
      }
      return true;
    }
    case MsgType::submit_tvla: {
      PayloadReader r(payload);
      const SubmitTvlaMsg msg = SubmitTvlaMsg::decode(r);
      if (auto mapping = submit_dataset(socket, msg.dataset)) {
        submit_job(socket, session, [mapping, spec = msg.spec](
                                        auto id, const auto& progress,
                                        const auto& exec) {
          return result_frame(
              TvlaResultMsg{id, run_tvla_job(mapping, spec, progress, exec)});
        });
      }
      return true;
    }
    case MsgType::list_scenarios: {
      PayloadReader r(payload);
      r.expect_end();
      ScenarioListMsg msg;
      for (const scenario::ScenarioInfo& info :
           scenario::ScenarioRegistry::built_in().describe_all()) {
        msg.scenarios.push_back({info.name, info.description, info.victim,
                                 info.channel, info.params, info.channels,
                                 info.analysis.cpa,
                                 info.analysis.default_traces_per_set});
      }
      PayloadWriter w;
      msg.encode(w);
      send_frame(socket, MsgType::scenario_list, w);
      return true;
    }
    case MsgType::submit_scenario: {
      PayloadReader r(payload);
      const SubmitScenarioMsg msg = SubmitScenarioMsg::decode(r);
      if (reject_if_draining(socket)) {
        return true;
      }
      const std::shared_ptr<const scenario::Scenario> sc =
          scenario::ScenarioRegistry::built_in().find(msg.spec.scenario);
      if (sc == nullptr) {
        send_error(socket, ErrorCode::unknown_scenario,
                   "no such scenario: " + msg.spec.scenario);
        return true;
      }
      try {  // channels() surfaces out-of-range values
        (void)sc->channels(sc->parse_params(msg.spec.params));
      } catch (const std::exception& e) {
        send_error(socket, ErrorCode::bad_request, e.what());
        return true;
      }
      submit_job(socket, session, [spec = msg.spec](auto id,
                                                    const auto& progress,
                                                    const auto& exec) {
        return result_frame(
            ScenarioResultMsg{id, run_scenario_job(spec, progress, exec)});
      });
      return true;
    }
    case MsgType::job_status: {
      PayloadReader r(payload);
      const JobIdMsg msg = JobIdMsg::decode(r);
      const std::unique_ptr<JobStatusMsg> status = jobs_->status(msg.id);
      if (status == nullptr) {
        send_error(socket, ErrorCode::unknown_job,
                   "no such job: " + std::to_string(msg.id));
        return true;
      }
      PayloadWriter w;
      status->encode(w);
      send_frame(socket, MsgType::job_status_r, w);
      return true;
    }
    case MsgType::watch_job: {
      PayloadReader r(payload);
      const JobIdMsg msg = JobIdMsg::decode(r);
      stream_watch(socket, msg.id);
      return true;
    }
    case MsgType::fetch_result: {
      PayloadReader r(payload);
      const JobIdMsg msg = JobIdMsg::decode(r);
      send_result(socket, msg.id);
      return true;
    }
    case MsgType::get_stats: {
      PayloadReader r(payload);
      r.expect_end();
      StatsMsg msg;
      if (chunk_cache_ != nullptr) {
        const store::ChunkCache::Stats cache = chunk_cache_->stats();
        msg.cache_hits = cache.hits;
        msg.cache_misses = cache.misses;
        msg.cache_evictions = cache.evictions;
        msg.cache_resident_bytes = cache.resident_bytes;
        msg.cache_capacity_bytes = chunk_cache_->capacity_bytes();
        msg.cache_entries = cache.entries;
      }
      jobs_->fill_stats(msg);
      msg.pool_threads = static_cast<std::uint32_t>(
          core::WorkerPool::instance().thread_count());
      PayloadWriter w;
      msg.encode(w);
      send_frame(socket, MsgType::stats, w);
      return true;
    }
    case MsgType::shutdown: {
      PayloadReader r(payload);
      r.expect_end();
      send_frame(socket, MsgType::ok, std::span<const std::byte>{});
      request_stop();
      return true;  // keep reading; the shutdown sweep will close us
    }
    default: {
      send_error(socket, ErrorCode::bad_request,
                 "unexpected message type " +
                     std::to_string(static_cast<unsigned>(type)));
      return false;
    }
  }
}

bool BusDaemon::reject_if_draining(const Socket& socket) {
  if (!stopping_.load(std::memory_order_acquire)) {
    return false;
  }
  send_error(socket, ErrorCode::shutting_down, "daemon is draining");
  return true;
}

std::shared_ptr<const store::SharedMapping> BusDaemon::submit_dataset(
    const Socket& socket, const std::string& name) {
  if (reject_if_draining(socket)) {
    return nullptr;
  }
  std::shared_ptr<const store::SharedMapping> mapping =
      registry_.mapping(name);
  if (mapping == nullptr) {
    send_error(socket, ErrorCode::unknown_dataset, "no such dataset: " + name);
  }
  return mapping;
}

void BusDaemon::submit_job(const Socket& socket, std::uint64_t session,
                           JobRun run) {
  const std::uint64_t id = jobs_->submit(session);
  if (id == 0) {
    send_error(socket, ErrorCode::quota_exceeded,
               "session quota of " + std::to_string(config_.per_session_quota) +
                   " in-flight jobs reached");
    return;
  }
  PayloadWriter w;
  JobIdMsg{id}.encode(w);
  send_frame(socket, MsgType::job_accepted, w);

  // Each job gets a dedicated driver thread instead of one whole-job
  // pool task: the driver posts the job's shard units to the pool under
  // its fair in-flight cap, re-read before each unit, and blocks merging
  // them, so a blocked driver never occupies a pool slot, and units from
  // every active job interleave in the pool's FIFO queue. The resolved
  // shard count — and with it the result — is a pure function of the
  // spec, so the cap can never make a served job differ from a client's
  // local verification run. The closure owns everything it touches: the
  // table keeps the job row alive, `run` keeps the job's spec (and a
  // dataset job's mapping) alive, all independent of this daemon's
  // sockets and of the submitting client, which may disconnect long
  // before the job finishes.
  std::shared_ptr<JobTable> table = jobs_;
  std::shared_ptr<store::ChunkCache> cache = chunk_cache_;
  const std::uint32_t parallelism = shard_parallelism();
  auto done = std::make_shared<std::atomic<bool>>(false);
  auto driver = [table, cache, parallelism, done, id, run = std::move(run)] {
    // Granted before the job turns running, so a running row in STATS
    // always shows the cap it runs under.
    table->shard_budget(id, parallelism);
    table->mark_running(id);
    try {
      JobExecOptions exec;
      exec.chunk_cache = cache;
      exec.shard_budget = [table, id, parallelism] {
        return table->shard_budget(id, parallelism);
      };
      exec.on_shard_activity = [table, id](std::size_t shards,
                                           std::size_t running) {
        table->update_shard_activity(id, static_cast<std::uint32_t>(shards),
                                     static_cast<std::uint32_t>(running));
      };
      const JobProgressFn progress = [&](std::uint64_t consumed,
                                         std::uint64_t total) {
        table->update_progress(id, consumed, total);
      };
      table->mark_done(id, run(id, progress, exec));
    } catch (const std::exception& e) {
      table->mark_failed(id, e.what());
    } catch (...) {
      table->mark_failed(id, "unknown job failure");
    }
    done->store(true, std::memory_order_release);
  };
  {
    std::lock_guard<std::mutex> lock(drivers_mu_);
    reap_drivers_locked();
    drivers_.push_back({std::thread(std::move(driver)), std::move(done)});
  }
}

std::uint32_t BusDaemon::shard_parallelism() const noexcept {
  const std::size_t p = config_.shard_parallelism == 0
                            ? config_.pool_reserve
                            : config_.shard_parallelism;
  return static_cast<std::uint32_t>(p == 0 ? 1 : p);
}

void BusDaemon::reap_drivers_locked() {
  for (auto it = drivers_.begin(); it != drivers_.end();) {
    if (it->done->load(std::memory_order_acquire)) {
      it->thread.join();
      it = drivers_.erase(it);
    } else {
      ++it;
    }
  }
}

void BusDaemon::stream_watch(Socket& socket, std::uint64_t id) {
  std::unique_ptr<JobStatusMsg> status = jobs_->status(id);
  if (status == nullptr) {
    send_error(socket, ErrorCode::unknown_job,
               "no such job: " + std::to_string(id));
    return;
  }
  constexpr std::chrono::milliseconds poll_interval{250};
  while (!is_terminal(status->state)) {
    PayloadWriter w;
    ProgressMsg{id, status->consumed, status->total, status->running_shards}
        .encode(w);
    send_frame(socket, MsgType::progress, w);
    std::unique_ptr<JobStatusMsg> next =
        jobs_->wait_change(id, status->state, status->consumed, poll_interval);
    if (next == nullptr) {
      send_error(socket, ErrorCode::unknown_job,
                 "job vanished: " + std::to_string(id));
      return;
    }
    status = std::move(next);
  }
  PayloadWriter w;
  status->encode(w);
  send_frame(socket, MsgType::job_done, w);
}

void BusDaemon::send_result(Socket& socket, std::uint64_t id) {
  const std::unique_ptr<JobStatusMsg> status = jobs_->status(id);
  if (status == nullptr) {
    send_error(socket, ErrorCode::unknown_job,
               "no such job: " + std::to_string(id));
    return;
  }
  if (status->state == JobState::failed) {
    send_error(socket, ErrorCode::internal, status->error);
    return;
  }
  if (status->state != JobState::done) {
    send_error(socket, ErrorCode::bad_request,
               "job " + std::to_string(id) + " is still " +
                   job_state_name(status->state));
    return;
  }
  // A done job never mutates again and the status() read above
  // synchronized with the terminal transition, so the result frame is
  // safe to read without the table lock. The job may have been retired
  // from the table in between (JobTable keeps only the most recent
  // terminal jobs); the handle keeps a job found here alive.
  const std::shared_ptr<Job> job = jobs_->find(id);
  if (job == nullptr) {
    send_error(socket, ErrorCode::unknown_job,
               "no such job: " + std::to_string(id));
    return;
  }
  send_frame(socket, job->result.type, job->result.payload);
}

}  // namespace psc::bus
