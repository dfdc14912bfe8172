#include "bus/protocol.h"

#include <algorithm>
#include <bit>
#include <cstring>

namespace psc::bus {

namespace {

[[noreturn]] void malformed(const char* what) {
  throw ProtocolError(std::string("bus payload: ") + what);
}

void encode_model_result(PayloadWriter& w, const core::ModelResult& m) {
  w.u8(static_cast<std::uint8_t>(m.model));
  for (const core::ByteRanking& ranking : m.bytes) {
    for (const double c : ranking.correlation) {
      w.f64(c);
    }
  }
  for (const int rank : m.true_ranks) {
    w.u32(static_cast<std::uint32_t>(rank));
  }
  w.block(m.scored_key.data(), m.scored_key.size());
  w.f64(m.ge_bits);
  w.f64(m.mean_rank);
  w.block(m.best_round_key.data(), m.best_round_key.size());
  w.block(m.implied_master_key.data(), m.implied_master_key.size());
  w.u32(static_cast<std::uint32_t>(m.recovered_bytes));
  w.u32(static_cast<std::uint32_t>(m.near_recovered_bytes));
}

power::PowerModel decode_power_model(std::uint8_t v) {
  if (v >= power::all_power_models.size()) {
    malformed("unknown power model");
  }
  return power::all_power_models[v];
}

aes::Block decode_key_block(PayloadReader& r) {
  const std::vector<std::uint8_t> bytes = r.block();
  if (bytes.size() != std::tuple_size_v<aes::Block>) {
    malformed("key block is not 16 bytes");
  }
  aes::Block out;
  std::memcpy(out.data(), bytes.data(), out.size());
  return out;
}

core::ModelResult decode_model_result(PayloadReader& r) {
  core::ModelResult m;
  m.model = decode_power_model(r.u8());
  for (core::ByteRanking& ranking : m.bytes) {
    for (double& c : ranking.correlation) {
      c = r.f64();
    }
  }
  for (int& rank : m.true_ranks) {
    rank = static_cast<int>(r.u32());
  }
  m.scored_key = decode_key_block(r);
  m.ge_bits = r.f64();
  m.mean_rank = r.f64();
  m.best_round_key = decode_key_block(r);
  m.implied_master_key = decode_key_block(r);
  m.recovered_bytes = static_cast<int>(r.u32());
  m.near_recovered_bytes = static_cast<int>(r.u32());
  return m;
}

// u32 count, then each model result.
void encode_models(PayloadWriter& w,
                   const std::vector<core::ModelResult>& models) {
  w.u32(static_cast<std::uint32_t>(models.size()));
  for (const core::ModelResult& m : models) {
    encode_model_result(w, m);
  }
}

std::vector<core::ModelResult> decode_models(PayloadReader& r) {
  const std::uint32_t count = r.u32();
  if (count > power::all_power_models.size()) {
    malformed("bad model count");
  }
  std::vector<core::ModelResult> models;
  for (std::uint32_t i = 0; i < count; ++i) {
    models.push_back(decode_model_result(r));
  }
  return models;
}

void encode_ge_curve(PayloadWriter& w,
                     const std::vector<core::GeCurvePoint>& curve) {
  w.u32(static_cast<std::uint32_t>(curve.size()));
  for (const core::GeCurvePoint& point : curve) {
    w.u64(point.traces);
    w.f64(point.ge_bits);
    w.f64(point.mean_rank);
    w.u32(static_cast<std::uint32_t>(point.recovered_bytes));
  }
}

std::vector<core::GeCurvePoint> decode_ge_curve(PayloadReader& r) {
  std::vector<core::GeCurvePoint> curve;
  const std::uint32_t points = r.u32();
  for (std::uint32_t p = 0; p < points; ++p) {
    core::GeCurvePoint point;
    point.traces = static_cast<std::size_t>(r.u64());
    point.ge_bits = r.f64();
    point.mean_rank = r.f64();
    point.recovered_bytes = static_cast<int>(r.u32());
    curve.push_back(point);
  }
  return curve;
}

// u32 count, then per channel its name and 3x3 t-matrix.
void encode_tvla_channels(
    PayloadWriter& w, const std::vector<core::TvlaChannelResult>& channels) {
  w.u32(static_cast<std::uint32_t>(channels.size()));
  for (const core::TvlaChannelResult& channel : channels) {
    w.str(channel.channel);
    for (const auto& row : channel.matrix.t) {
      for (const double t : row) {
        w.f64(t);
      }
    }
  }
}

std::vector<core::TvlaChannelResult> decode_tvla_channels(PayloadReader& r) {
  std::vector<core::TvlaChannelResult> channels;
  const std::uint32_t count = r.u32();
  for (std::uint32_t c = 0; c < count; ++c) {
    core::TvlaChannelResult channel;
    channel.channel = r.str();
    for (auto& row : channel.matrix.t) {
      for (double& t : row) {
        t = r.f64();
      }
    }
    channels.push_back(std::move(channel));
  }
  return channels;
}

// u32 count, then key and value strings (metadata, scenario params).
void encode_string_pairs(PayloadWriter& w, const store::Metadata& pairs) {
  w.u32(static_cast<std::uint32_t>(pairs.size()));
  for (const auto& [key, value] : pairs) {
    w.str(key);
    w.str(value);
  }
}

store::Metadata decode_string_pairs(PayloadReader& r) {
  store::Metadata pairs;
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    std::string key = r.str();
    std::string value = r.str();
    pairs.emplace_back(std::move(key), std::move(value));
  }
  return pairs;
}

void encode_fourcc_list(PayloadWriter& w,
                        const std::vector<util::FourCc>& keys) {
  w.u32(static_cast<std::uint32_t>(keys.size()));
  for (const util::FourCc key : keys) {
    w.u32(key.code());
  }
}

std::vector<util::FourCc> decode_fourcc_list(PayloadReader& r) {
  std::vector<util::FourCc> keys;
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    keys.push_back(util::FourCc(r.u32()));
  }
  return keys;
}

void encode_summary(PayloadWriter& w, const store::DatasetSummary& s) {
  w.str(s.path);
  w.u16(s.format_version);
  w.u64(s.trace_count);
  w.u64(s.file_bytes);
  w.u64(s.chunk_count);
  w.u64(s.chunk_capacity);
  w.u32(static_cast<std::uint32_t>(s.channels.size()));
  for (const std::string& channel : s.channels) {
    w.str(channel);
  }
  encode_string_pairs(w, s.metadata);
  w.u32(static_cast<std::uint32_t>(s.columns.size()));
  for (const store::DatasetColumnSummary& col : s.columns) {
    w.str(col.name);
    w.u64(col.chunks_coded);
    w.u64(col.raw_bytes);
    w.u64(col.stored_bytes);
  }
}

store::DatasetSummary decode_summary(PayloadReader& r) {
  store::DatasetSummary s;
  s.path = r.str();
  s.format_version = r.u16();
  s.trace_count = r.u64();
  s.file_bytes = r.u64();
  s.chunk_count = r.u64();
  s.chunk_capacity = r.u64();
  const std::uint32_t channels = r.u32();
  for (std::uint32_t c = 0; c < channels; ++c) {
    s.channels.push_back(r.str());
  }
  s.metadata = decode_string_pairs(r);
  const std::uint32_t columns = r.u32();
  for (std::uint32_t c = 0; c < columns; ++c) {
    store::DatasetColumnSummary col;
    col.name = r.str();
    col.chunks_coded = r.u64();
    col.raw_bytes = r.u64();
    col.stored_bytes = r.u64();
    s.columns.push_back(std::move(col));
  }
  return s;
}

}  // namespace

const char* error_code_name(ErrorCode code) noexcept {
  switch (code) {
    case ErrorCode::bad_request:
      return "bad_request";
    case ErrorCode::unknown_dataset:
      return "unknown_dataset";
    case ErrorCode::unknown_job:
      return "unknown_job";
    case ErrorCode::quota_exceeded:
      return "quota_exceeded";
    case ErrorCode::shutting_down:
      return "shutting_down";
    case ErrorCode::internal:
      return "internal";
    case ErrorCode::unknown_scenario:
      return "unknown_scenario";
  }
  return "unknown";
}

const char* job_state_name(JobState state) noexcept {
  switch (state) {
    case JobState::queued:
      return "queued";
    case JobState::running:
      return "running";
    case JobState::done:
      return "done";
    case JobState::failed:
      return "failed";
  }
  return "unknown";
}

// ---------- PayloadWriter ----------

void PayloadWriter::u8(std::uint8_t v) {
  bytes_.push_back(static_cast<std::byte>(v));
}

void PayloadWriter::u16(std::uint16_t v) {
  u8(static_cast<std::uint8_t>(v));
  u8(static_cast<std::uint8_t>(v >> 8));
}

void PayloadWriter::u32(std::uint32_t v) {
  u16(static_cast<std::uint16_t>(v));
  u16(static_cast<std::uint16_t>(v >> 16));
}

void PayloadWriter::u64(std::uint64_t v) {
  u32(static_cast<std::uint32_t>(v));
  u32(static_cast<std::uint32_t>(v >> 32));
}

void PayloadWriter::f64(double v) { u64(std::bit_cast<std::uint64_t>(v)); }

void PayloadWriter::str(const std::string& s) { block(s.data(), s.size()); }

void PayloadWriter::block(const void* data, std::size_t size) {
  u32(static_cast<std::uint32_t>(size));
  const std::byte* p = static_cast<const std::byte*>(data);
  bytes_.insert(bytes_.end(), p, p + size);
}

// ---------- PayloadReader ----------

const std::byte* PayloadReader::need(std::size_t n) {
  if (n > size_ - pos_) {
    malformed("truncated payload");
  }
  const std::byte* p = data_ + pos_;
  pos_ += n;
  return p;
}

std::uint8_t PayloadReader::u8() {
  return static_cast<std::uint8_t>(*need(1));
}

std::uint16_t PayloadReader::u16() {
  const std::byte* p = need(2);
  return static_cast<std::uint16_t>(static_cast<std::uint8_t>(p[0]) |
                                    (static_cast<std::uint8_t>(p[1]) << 8));
}

std::uint32_t PayloadReader::u32() {
  const std::byte* p = need(4);
  std::uint32_t v = 0;
  for (int i = 3; i >= 0; --i) {
    v = (v << 8) | static_cast<std::uint8_t>(p[i]);
  }
  return v;
}

std::uint64_t PayloadReader::u64() {
  const std::uint64_t lo = u32();
  const std::uint64_t hi = u32();
  return lo | (hi << 32);
}

double PayloadReader::f64() { return std::bit_cast<double>(u64()); }

std::string PayloadReader::str() {
  const std::uint32_t len = u32();
  const std::byte* p = need(len);
  return std::string(reinterpret_cast<const char*>(p), len);
}

std::vector<std::uint8_t> PayloadReader::block() {
  const std::uint32_t len = u32();
  const std::byte* p = need(len);
  const auto* bytes = reinterpret_cast<const std::uint8_t*>(p);
  return std::vector<std::uint8_t>(bytes, bytes + len);
}

void PayloadReader::raw(void* out, std::size_t size) {
  std::memcpy(out, need(size), size);
}

void PayloadReader::expect_end() const {
  if (pos_ != size_) {
    malformed("trailing bytes after message body");
  }
}

// ---------- message bodies ----------

void ErrorMsg::encode(PayloadWriter& w) const {
  w.u16(static_cast<std::uint16_t>(code));
  w.str(message);
}

ErrorMsg ErrorMsg::decode(PayloadReader& r) {
  ErrorMsg m;
  m.code = static_cast<ErrorCode>(r.u16());
  m.message = r.str();
  r.expect_end();
  return m;
}

void OpenDatasetMsg::encode(PayloadWriter& w) const {
  w.str(name);
  w.str(path);
}

OpenDatasetMsg OpenDatasetMsg::decode(PayloadReader& r) {
  OpenDatasetMsg m;
  m.name = r.str();
  m.path = r.str();
  r.expect_end();
  return m;
}

void DatasetListMsg::encode(PayloadWriter& w) const {
  w.u32(static_cast<std::uint32_t>(datasets.size()));
  for (const Entry& entry : datasets) {
    w.str(entry.name);
    encode_summary(w, entry.summary);
  }
}

DatasetListMsg DatasetListMsg::decode(PayloadReader& r) {
  DatasetListMsg m;
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    Entry entry;
    entry.name = r.str();
    entry.summary = decode_summary(r);
    m.datasets.push_back(std::move(entry));
  }
  r.expect_end();
  return m;
}

void SubmitCpaMsg::encode(PayloadWriter& w) const {
  w.str(dataset);
  w.u32(spec.channel);
  w.block(spec.known_key.data(), spec.known_key.size());
  w.u32(static_cast<std::uint32_t>(spec.models.size()));
  for (const power::PowerModel model : spec.models) {
    w.u8(static_cast<std::uint8_t>(model));
  }
  w.u64(spec.trace_count);
  w.u32(spec.shards);
}

SubmitCpaMsg SubmitCpaMsg::decode(PayloadReader& r) {
  SubmitCpaMsg m;
  m.dataset = r.str();
  m.spec.channel = r.u32();
  m.spec.known_key = decode_key_block(r);
  const std::uint32_t models = r.u32();
  if (models == 0 || models > power::all_power_models.size()) {
    malformed("bad model count");
  }
  m.spec.models.clear();
  for (std::uint32_t i = 0; i < models; ++i) {
    m.spec.models.push_back(decode_power_model(r.u8()));
  }
  m.spec.trace_count = r.u64();
  m.spec.shards = r.u32();
  r.expect_end();
  return m;
}

void SubmitTvlaMsg::encode(PayloadWriter& w) const {
  w.str(dataset);
  w.u64(spec.traces_per_set);
  w.u32(spec.shards);
}

SubmitTvlaMsg SubmitTvlaMsg::decode(PayloadReader& r) {
  SubmitTvlaMsg m;
  m.dataset = r.str();
  m.spec.traces_per_set = r.u64();
  m.spec.shards = r.u32();
  r.expect_end();
  return m;
}

void SubmitScenarioMsg::encode(PayloadWriter& w) const {
  w.str(spec.scenario);
  encode_string_pairs(w, spec.params);
  w.u64(spec.traces_per_set);
  w.u64(spec.seed);
  w.u32(spec.shards);
}

SubmitScenarioMsg SubmitScenarioMsg::decode(PayloadReader& r) {
  SubmitScenarioMsg m;
  m.spec.scenario = r.str();
  m.spec.params = decode_string_pairs(r);
  m.spec.traces_per_set = r.u64();
  m.spec.seed = r.u64();
  m.spec.shards = r.u32();
  r.expect_end();
  return m;
}

void ScenarioListMsg::encode(PayloadWriter& w) const {
  w.u32(static_cast<std::uint32_t>(scenarios.size()));
  for (const Entry& entry : scenarios) {
    w.str(entry.name);
    w.str(entry.description);
    w.str(entry.victim);
    w.str(entry.channel);
    w.u32(static_cast<std::uint32_t>(entry.params.size()));
    for (const scenario::ParamSpec& param : entry.params) {
      w.str(param.name);
      w.str(param.default_value);
      w.str(param.description);
    }
    encode_fourcc_list(w, entry.channels);
    w.u8(entry.cpa ? 1 : 0);
    w.u64(entry.default_traces_per_set);
  }
}

ScenarioListMsg ScenarioListMsg::decode(PayloadReader& r) {
  ScenarioListMsg m;
  const std::uint32_t count = r.u32();
  for (std::uint32_t i = 0; i < count; ++i) {
    Entry entry;
    entry.name = r.str();
    entry.description = r.str();
    entry.victim = r.str();
    entry.channel = r.str();
    const std::uint32_t params = r.u32();
    for (std::uint32_t p = 0; p < params; ++p) {
      scenario::ParamSpec param;
      param.name = r.str();
      param.default_value = r.str();
      param.description = r.str();
      entry.params.push_back(std::move(param));
    }
    entry.channels = decode_fourcc_list(r);
    const std::uint8_t cpa = r.u8();
    if (cpa > 1) {
      malformed("bad cpa flag");
    }
    entry.cpa = cpa != 0;
    entry.default_traces_per_set = r.u64();
    m.scenarios.push_back(std::move(entry));
  }
  r.expect_end();
  return m;
}

void JobIdMsg::encode(PayloadWriter& w) const { w.u64(id); }

JobIdMsg JobIdMsg::decode(PayloadReader& r) {
  JobIdMsg m;
  m.id = r.u64();
  r.expect_end();
  return m;
}

void JobStatusMsg::encode(PayloadWriter& w) const {
  w.u64(id);
  w.u8(static_cast<std::uint8_t>(state));
  w.u64(consumed);
  w.u64(total);
  w.u32(running_shards);
  w.str(error);
}

JobStatusMsg JobStatusMsg::decode(PayloadReader& r) {
  JobStatusMsg m;
  m.id = r.u64();
  const std::uint8_t state = r.u8();
  if (state > static_cast<std::uint8_t>(JobState::failed)) {
    malformed("unknown job state");
  }
  m.state = static_cast<JobState>(state);
  m.consumed = r.u64();
  m.total = r.u64();
  m.running_shards = r.u32();
  m.error = r.str();
  r.expect_end();
  return m;
}

void ProgressMsg::encode(PayloadWriter& w) const {
  w.u64(id);
  w.u64(consumed);
  w.u64(total);
  w.u32(running_shards);
}

ProgressMsg ProgressMsg::decode(PayloadReader& r) {
  ProgressMsg m;
  m.id = r.u64();
  m.consumed = r.u64();
  m.total = r.u64();
  m.running_shards = r.u32();
  r.expect_end();
  return m;
}

void StatsMsg::encode(PayloadWriter& w) const {
  w.u64(cache_hits);
  w.u64(cache_misses);
  w.u64(cache_evictions);
  w.u64(cache_resident_bytes);
  w.u64(cache_capacity_bytes);
  w.u64(cache_entries);
  w.u64(jobs_submitted);
  w.u64(jobs_active);
  w.u32(pool_threads);
  w.u32(static_cast<std::uint32_t>(jobs.size()));
  for (const JobRow& job : jobs) {
    w.u64(job.id);
    w.u8(static_cast<std::uint8_t>(job.state));
    w.u32(job.shards);
    w.u32(job.shard_cap);
    w.u32(job.running_shards);
    w.u32(job.peak_shards);
  }
}

StatsMsg StatsMsg::decode(PayloadReader& r) {
  StatsMsg m;
  m.cache_hits = r.u64();
  m.cache_misses = r.u64();
  m.cache_evictions = r.u64();
  m.cache_resident_bytes = r.u64();
  m.cache_capacity_bytes = r.u64();
  m.cache_entries = r.u64();
  m.jobs_submitted = r.u64();
  m.jobs_active = r.u64();
  m.pool_threads = r.u32();
  const std::uint32_t count = r.u32();
  m.jobs.reserve(std::min<std::size_t>(count, r.remaining()));
  for (std::uint32_t i = 0; i < count; ++i) {
    JobRow job;
    job.id = r.u64();
    const std::uint8_t state = r.u8();
    if (state > static_cast<std::uint8_t>(JobState::failed)) {
      malformed("unknown job state");
    }
    job.state = static_cast<JobState>(state);
    job.shards = r.u32();
    job.shard_cap = r.u32();
    job.running_shards = r.u32();
    job.peak_shards = r.u32();
    m.jobs.push_back(job);
  }
  r.expect_end();
  return m;
}

void CpaResultMsg::encode(PayloadWriter& w) const {
  w.u64(id);
  w.u64(result.traces);
  encode_models(w, result.models);
}

CpaResultMsg CpaResultMsg::decode(PayloadReader& r) {
  CpaResultMsg m;
  m.id = r.u64();
  m.result.traces = r.u64();
  m.result.models = decode_models(r);
  r.expect_end();
  return m;
}

void TvlaResultMsg::encode(PayloadWriter& w) const {
  w.u64(id);
  w.u64(result.traces_per_set);
  encode_tvla_channels(w, result.channels);
}

TvlaResultMsg TvlaResultMsg::decode(PayloadReader& r) {
  TvlaResultMsg m;
  m.id = r.u64();
  m.result.traces_per_set = r.u64();
  m.result.channels = decode_tvla_channels(r);
  r.expect_end();
  return m;
}

void ScenarioResultMsg::encode(PayloadWriter& w) const {
  w.u64(id);
  w.str(result.scenario);
  w.block(result.secret.data(), result.secret.size());
  w.u64(result.traces_per_set);
  w.u64(result.cpa_trace_count);
  encode_fourcc_list(w, result.channels);
  encode_fourcc_list(w, result.leakage_channels);
  encode_tvla_channels(w, result.tvla);
  w.u32(static_cast<std::uint32_t>(result.cpa.size()));
  for (const core::CpaKeyResult& key : result.cpa) {
    w.u32(key.key.code());
    encode_models(w, key.final_results);
    w.u32(static_cast<std::uint32_t>(key.curves.size()));
    for (const std::vector<core::GeCurvePoint>& curve : key.curves) {
      encode_ge_curve(w, curve);
    }
  }
}

ScenarioResultMsg ScenarioResultMsg::decode(PayloadReader& r) {
  ScenarioResultMsg m;
  m.id = r.u64();
  m.result.scenario = r.str();
  m.result.secret = decode_key_block(r);
  m.result.traces_per_set = static_cast<std::size_t>(r.u64());
  m.result.cpa_trace_count = static_cast<std::size_t>(r.u64());
  m.result.channels = decode_fourcc_list(r);
  m.result.leakage_channels = decode_fourcc_list(r);
  m.result.tvla = decode_tvla_channels(r);
  const std::uint32_t cpa = r.u32();
  for (std::uint32_t k = 0; k < cpa; ++k) {
    core::CpaKeyResult key;
    key.key = util::FourCc(r.u32());
    key.final_results = decode_models(r);
    const std::uint32_t curves = r.u32();
    if (curves > power::all_power_models.size()) {
      malformed("bad curve count");
    }
    for (std::uint32_t i = 0; i < curves; ++i) {
      key.curves.push_back(decode_ge_curve(r));
    }
    m.result.cpa.push_back(std::move(key));
  }
  r.expect_end();
  return m;
}

}  // namespace psc::bus
