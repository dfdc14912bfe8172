// BusClient: the request/response side of the bus protocol, one method
// per daemon capability. Connection-oriented and synchronous — each call
// sends one request frame and blocks for the response on the same
// socket (watch() consumes the PROGRESS stream until JOB_DONE).
//
// Daemon-reported failures surface as BusRemoteError carrying the wire
// ErrorCode, distinct from local socket trouble (BusError) and malformed
// daemon bytes (ProtocolError). A client is not thread-safe; use one per
// thread — they are cheap, and the daemon handles each connection
// independently.
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "bus/framing.h"
#include "bus/protocol.h"

namespace psc::bus {

// The daemon answered with an ERROR frame.
class BusRemoteError : public std::runtime_error {
 public:
  BusRemoteError(ErrorCode code, const std::string& message)
      : std::runtime_error(std::string(error_code_name(code)) + ": " +
                           message),
        code_(code) {}

  ErrorCode code() const noexcept { return code_; }

 private:
  ErrorCode code_;
};

class BusClient {
 public:
  // Connects to a serving daemon; throws BusError when nobody listens.
  explicit BusClient(const std::string& socket_path);

  // Round-trip liveness check (PING -> OK).
  void ping();

  std::vector<DatasetListMsg::Entry> list_datasets();

  // The daemon's scenario registry (LIST_SCENARIOS -> SCENARIO_LIST).
  std::vector<ScenarioListMsg::Entry> list_scenarios();

  // Asks the daemon to register `path` under `name`.
  void open_dataset(const std::string& name, const std::string& path);

  // Submit a campaign; returns the accepted job id.
  std::uint64_t submit_cpa(const std::string& dataset, const CpaJobSpec& spec);
  std::uint64_t submit_tvla(const std::string& dataset,
                            const TvlaJobSpec& spec);
  // Submit a live-acquisition campaign by scenario name; an unknown name
  // surfaces as BusRemoteError(unknown_scenario), malformed params as
  // BusRemoteError(bad_request) — the connection stays usable either way.
  std::uint64_t submit_scenario(const ScenarioJobSpec& spec);

  JobStatusMsg status(std::uint64_t id);

  // Daemon observability counters: chunk-cache hit/miss/eviction totals
  // plus per-job shard-scheduler state (GET_STATS -> STATS).
  StatsMsg stats();

  // Streams the job's progress (on_progress per PROGRESS frame, may be
  // empty) and returns the terminal status carried by JOB_DONE.
  using WatchFn = std::function<void(const ProgressMsg&)>;
  JobStatusMsg watch(std::uint64_t id, const WatchFn& on_progress = {});

  // Fetch a finished job's result frame, whatever its type;
  // BusRemoteError(internal) relays the failure message of a failed job.
  ResultFrame fetch_result(std::uint64_t id);
  // fetch_result decoded as one result type; a frame of another type is
  // a ProtocolError.
  CpaJobResult cpa_result(std::uint64_t id);
  TvlaJobResult tvla_result(std::uint64_t id);
  ScenarioJobResult scenario_result(std::uint64_t id);

  // Asks the daemon to stop gracefully (drain, then exit). Returns once
  // the daemon acknowledged; the drain itself may outlive this client.
  void shutdown_server();

 private:
  // Sends `type` and blocks for one response frame, whose type it
  // returns — an ERROR frame becomes BusRemoteError. The response
  // payload lands in payload_.
  MsgType exchange(MsgType type, const PayloadWriter& body);
  // exchange() whose response must be `expected` (else ProtocolError).
  void request(MsgType type, const PayloadWriter& body, MsgType expected);

  Socket socket_;
  std::vector<std::byte> payload_;
};

}  // namespace psc::bus
