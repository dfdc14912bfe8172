// psc::bus wire protocol: length-prefixed, versioned, CRC-checked binary
// frames over a local Unix-domain socket.
//
// Frame layout (little-endian, 16-byte header):
//
//   offset  size  field
//   0       4     magic "PSCB"
//   4       2     protocol version (= 3)
//   6       2     message type (MsgType)
//   8       4     payload length in bytes (<= max_payload_bytes)
//   12      4     CRC32 of the payload bytes (util/crc32)
//   16      n     payload
//
// Payloads are flat little-endian scalar sequences built and consumed by
// PayloadWriter/PayloadReader: u8/u16/u32/u64, f64 carried as its IEEE-754
// bit pattern (so results cross the wire bit-exactly — the daemon's
// bit-identity contract extends to the client), and length-prefixed (u32)
// strings/byte blocks. Every decode bound-checks; a malformed payload is
// a ProtocolError, never UB.
//
// A peer that sends garbage gets one ERROR frame (bad_request) where
// possible and its connection closed; the daemon survives any byte
// stream. Responses to one request arrive in order on the same
// connection; WATCH_JOB is the only request answered by more than one
// frame (a stream of PROGRESS then one JOB_DONE).
#pragma once

#include <cstddef>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <vector>

#include "bus/jobs.h"
#include "bus/scenario_jobs.h"
#include "store/dataset_summary.h"

namespace psc::bus {

inline constexpr char frame_magic[4] = {'P', 'S', 'C', 'B'};
// v2: GET_STATS/STATS frames; running_shards added to JobStatusMsg and
// ProgressMsg.
// v3: scenario-registry service — LIST_SCENARIOS/SCENARIO_LIST,
// SUBMIT_SCENARIO (a live-acquisition campaign addressed by registry
// name), the SCENARIO_RESULT frame and ErrorCode::unknown_scenario.
// Both sides of the protocol live in this repo and are versioned
// together, so there is no cross-version compatibility path — a version
// mismatch is rejected at the frame layer.
inline constexpr std::uint16_t protocol_version = 3;
inline constexpr std::size_t frame_header_bytes = 16;
// Largest payload either side accepts; a declared length beyond this is
// rejected before any allocation (oversize-length robustness).
inline constexpr std::size_t max_payload_bytes = 8 * 1024 * 1024;

// Peer sent malformed bytes: bad magic/version/CRC, truncated frame,
// oversized declared length, or a payload that does not decode.
class ProtocolError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// Local socket failure (connect/send/recv), as opposed to peer-sent
// garbage.
class BusError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

enum class MsgType : std::uint16_t {
  // Requests (client -> daemon).
  list_datasets = 1,
  open_dataset = 2,
  submit_cpa = 3,
  submit_tvla = 4,
  job_status = 5,
  watch_job = 6,
  fetch_result = 7,
  shutdown = 8,
  ping = 9,
  get_stats = 10,
  list_scenarios = 11,
  submit_scenario = 12,
  // Responses (daemon -> client).
  ok = 64,
  error = 65,
  dataset_list = 66,
  job_accepted = 67,
  job_status_r = 68,
  progress = 69,
  job_done = 70,
  cpa_result = 71,
  tvla_result = 72,
  stats = 73,
  scenario_list = 74,
  scenario_result = 75,
};

enum class ErrorCode : std::uint16_t {
  bad_request = 1,     // malformed frame/payload or unsupported request
  unknown_dataset = 2,
  unknown_job = 3,
  quota_exceeded = 4,  // per-session in-flight job quota hit
  shutting_down = 5,   // daemon draining; no new jobs
  internal = 6,        // job failed server-side (message carries why)
  unknown_scenario = 7,  // SUBMIT_SCENARIO named nothing in the registry
};

const char* error_code_name(ErrorCode code) noexcept;

// ---------- payload building / parsing ----------

class PayloadWriter {
 public:
  void u8(std::uint8_t v);
  void u16(std::uint16_t v);
  void u32(std::uint32_t v);
  void u64(std::uint64_t v);
  void f64(double v);  // IEEE-754 bit pattern, bit-exact round trip
  void str(const std::string& s);
  void block(const void* data, std::size_t size);  // u32 length + bytes

  const std::vector<std::byte>& bytes() const noexcept { return bytes_; }

 private:
  std::vector<std::byte> bytes_;
};

class PayloadReader {
 public:
  PayloadReader(const std::byte* data, std::size_t size)
      : data_(data), size_(size) {}
  explicit PayloadReader(const std::vector<std::byte>& payload)
      : PayloadReader(payload.data(), payload.size()) {}

  std::uint8_t u8();
  std::uint16_t u16();
  std::uint32_t u32();
  std::uint64_t u64();
  double f64();
  std::string str();
  std::vector<std::uint8_t> block();
  // Fixed-size copy (e.g. an aes::Block), no length prefix.
  void raw(void* out, std::size_t size);

  std::size_t remaining() const noexcept { return size_ - pos_; }
  // Throws ProtocolError unless the payload was consumed exactly.
  void expect_end() const;

 private:
  const std::byte* need(std::size_t n);

  const std::byte* data_;
  std::size_t size_;
  std::size_t pos_ = 0;
};

// ---------- message bodies ----------
//
// Each message struct encodes itself into a PayloadWriter and decodes
// from a PayloadReader (throwing ProtocolError on malformed payloads).
// Requests with no body (list_datasets, shutdown, ping) have no struct.

struct ErrorMsg {
  ErrorCode code = ErrorCode::internal;
  std::string message;

  void encode(PayloadWriter& w) const;
  static ErrorMsg decode(PayloadReader& r);
};

struct OpenDatasetMsg {
  std::string name;
  std::string path;

  void encode(PayloadWriter& w) const;
  static OpenDatasetMsg decode(PayloadReader& r);
};

struct DatasetListMsg {
  struct Entry {
    std::string name;
    store::DatasetSummary summary;
  };
  std::vector<Entry> datasets;

  void encode(PayloadWriter& w) const;
  static DatasetListMsg decode(PayloadReader& r);
};

struct SubmitCpaMsg {
  std::string dataset;
  CpaJobSpec spec;

  void encode(PayloadWriter& w) const;
  static SubmitCpaMsg decode(PayloadReader& r);
};

struct SubmitTvlaMsg {
  std::string dataset;
  TvlaJobSpec spec;

  void encode(PayloadWriter& w) const;
  static SubmitTvlaMsg decode(PayloadReader& r);
};

// job_accepted, job_status, watch_job, fetch_result all carry one id.
struct JobIdMsg {
  std::uint64_t id = 0;

  void encode(PayloadWriter& w) const;
  static JobIdMsg decode(PayloadReader& r);
};

enum class JobState : std::uint8_t {
  queued = 0,
  running = 1,
  done = 2,
  failed = 3,
};

const char* job_state_name(JobState state) noexcept;

// Done or failed: a terminal job never changes state again.
inline bool is_terminal(JobState state) noexcept {
  return state == JobState::done || state == JobState::failed;
}

struct JobStatusMsg {
  std::uint64_t id = 0;
  JobState state = JobState::queued;
  std::uint64_t consumed = 0;
  std::uint64_t total = 0;
  std::uint32_t running_shards = 0;  // shard units in flight right now
  std::string error;  // non-empty iff state == failed

  void encode(PayloadWriter& w) const;
  static JobStatusMsg decode(PayloadReader& r);
};

struct ProgressMsg {
  std::uint64_t id = 0;
  std::uint64_t consumed = 0;
  std::uint64_t total = 0;
  std::uint32_t running_shards = 0;  // shard units in flight right now

  void encode(PayloadWriter& w) const;
  static ProgressMsg decode(PayloadReader& r);
};

// Daemon observability counters (GET_STATS -> STATS): the shared
// decoded-chunk cache plus the shard scheduler's per-job view. Cache
// fields are all zero when the cache is disabled (PSC_BUS_CHUNK_CACHE_MB
// = 0).
struct StatsMsg {
  std::uint64_t cache_hits = 0;
  std::uint64_t cache_misses = 0;
  std::uint64_t cache_evictions = 0;
  std::uint64_t cache_resident_bytes = 0;
  std::uint64_t cache_capacity_bytes = 0;
  std::uint64_t cache_entries = 0;
  std::uint64_t jobs_submitted = 0;  // lifetime
  std::uint64_t jobs_active = 0;     // queued + running
  std::uint32_t pool_threads = 0;

  struct JobRow {
    std::uint64_t id = 0;
    JobState state = JobState::queued;
    std::uint32_t shards = 0;         // resolved shard count
    std::uint32_t shard_cap = 0;      // fair in-flight cap last granted
    std::uint32_t running_shards = 0;
    std::uint32_t peak_shards = 0;
  };
  std::vector<JobRow> jobs;  // non-terminal jobs, id-ascending

  void encode(PayloadWriter& w) const;
  static StatsMsg decode(PayloadReader& r);
};

// SUBMIT_SCENARIO: a live-acquisition campaign addressed by registry
// name. Params travel as the key=value strings the registry validates,
// so one frame shape serves every scenario, present and future.
struct SubmitScenarioMsg {
  ScenarioJobSpec spec;

  void encode(PayloadWriter& w) const;
  static SubmitScenarioMsg decode(PayloadReader& r);
};

// LIST_SCENARIOS -> SCENARIO_LIST: the registry's describe_all(), flat
// enough for a CLI table — name, one-line victim/channel summaries,
// parameter specs with defaults, channel columns and the default
// analysis binding.
struct ScenarioListMsg {
  struct Entry {
    std::string name;
    std::string description;
    std::string victim;
    std::string channel;
    std::vector<scenario::ParamSpec> params;
    std::vector<util::FourCc> channels;  // with default params
    bool cpa = false;                    // CPA/GE sinks attach by default
    std::uint64_t default_traces_per_set = 0;
  };
  std::vector<Entry> scenarios;

  void encode(PayloadWriter& w) const;
  static ScenarioListMsg decode(PayloadReader& r);
};

// Result messages encode every field of their job result, each double
// as its bit pattern, so two results are bit-identical exactly when
// their encoded payloads are byte-equal.
struct CpaResultMsg {
  static constexpr MsgType type = MsgType::cpa_result;
  std::uint64_t id = 0;
  CpaJobResult result;

  void encode(PayloadWriter& w) const;
  static CpaResultMsg decode(PayloadReader& r);
};

struct TvlaResultMsg {
  static constexpr MsgType type = MsgType::tvla_result;
  std::uint64_t id = 0;
  TvlaJobResult result;

  void encode(PayloadWriter& w) const;
  static TvlaResultMsg decode(PayloadReader& r);
};

// The complete scenario runner result: secret, TVLA matrix per channel,
// and — when the scenario binds CPA — the full rankings and GE curves.
struct ScenarioResultMsg {
  static constexpr MsgType type = MsgType::scenario_result;
  std::uint64_t id = 0;
  ScenarioJobResult result;

  void encode(PayloadWriter& w) const;
  static ScenarioResultMsg decode(PayloadReader& r);
};

// A finished job's result as it travels: the frame type (CPA_RESULT,
// TVLA_RESULT or SCENARIO_RESULT) and the encoded payload. The daemon
// stores one per done job and sends it verbatim on every FETCH_RESULT;
// `psc_busctl submit --verify-local` compares a local rerun's frame
// with the served one byte for byte.
struct ResultFrame {
  MsgType type = MsgType::cpa_result;
  std::vector<std::byte> payload;

  bool operator==(const ResultFrame&) const = default;
};

// Encodes a result message into an exactly-sized frame (the writer's
// spare capacity is not retained).
template <typename ResultMsg>
ResultFrame result_frame(const ResultMsg& msg) {
  PayloadWriter w;
  msg.encode(w);
  return {ResultMsg::type, {w.bytes().begin(), w.bytes().end()}};
}

}  // namespace psc::bus
