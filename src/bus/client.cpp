#include "bus/client.h"

#include <utility>

namespace psc::bus {

namespace {

[[noreturn]] void throw_unexpected(MsgType got, const std::string& expected) {
  throw ProtocolError("daemon sent message type " +
                      std::to_string(static_cast<unsigned>(got)) + " where " +
                      expected + " was expected");
}

[[noreturn]] void throw_unexpected(MsgType got, MsgType expected) {
  throw_unexpected(got,
                   "type " + std::to_string(static_cast<unsigned>(expected)));
}

template <typename ResultMsg>
ResultMsg decode_result(const ResultFrame& frame) {
  if (frame.type != ResultMsg::type) {
    throw_unexpected(frame.type, ResultMsg::type);
  }
  PayloadReader r(frame.payload);
  return ResultMsg::decode(r);
}

}  // namespace

BusClient::BusClient(const std::string& socket_path)
    : socket_(connect_unix(socket_path)) {}

MsgType BusClient::exchange(MsgType type, const PayloadWriter& body) {
  send_frame(socket_, type, body);
  const std::optional<MsgType> got = recv_frame(socket_, payload_);
  if (!got.has_value()) {
    throw BusError("daemon closed the connection mid-request");
  }
  if (*got == MsgType::error) {
    PayloadReader r(payload_);
    const ErrorMsg err = ErrorMsg::decode(r);
    throw BusRemoteError(err.code, err.message);
  }
  return *got;
}

void BusClient::request(MsgType type, const PayloadWriter& body,
                        MsgType expected) {
  const MsgType got = exchange(type, body);
  if (got != expected) {
    throw_unexpected(got, expected);
  }
}

void BusClient::ping() {
  request(MsgType::ping, PayloadWriter{}, MsgType::ok);
}

std::vector<DatasetListMsg::Entry> BusClient::list_datasets() {
  request(MsgType::list_datasets, PayloadWriter{}, MsgType::dataset_list);
  PayloadReader r(payload_);
  return DatasetListMsg::decode(r).datasets;
}

void BusClient::open_dataset(const std::string& name, const std::string& path) {
  PayloadWriter w;
  OpenDatasetMsg{name, path}.encode(w);
  request(MsgType::open_dataset, w, MsgType::ok);
}

std::uint64_t BusClient::submit_cpa(const std::string& dataset,
                                    const CpaJobSpec& spec) {
  PayloadWriter w;
  SubmitCpaMsg{dataset, spec}.encode(w);
  request(MsgType::submit_cpa, w, MsgType::job_accepted);
  PayloadReader r(payload_);
  return JobIdMsg::decode(r).id;
}

std::uint64_t BusClient::submit_tvla(const std::string& dataset,
                                     const TvlaJobSpec& spec) {
  PayloadWriter w;
  SubmitTvlaMsg{dataset, spec}.encode(w);
  request(MsgType::submit_tvla, w, MsgType::job_accepted);
  PayloadReader r(payload_);
  return JobIdMsg::decode(r).id;
}

std::vector<ScenarioListMsg::Entry> BusClient::list_scenarios() {
  request(MsgType::list_scenarios, PayloadWriter{}, MsgType::scenario_list);
  PayloadReader r(payload_);
  return ScenarioListMsg::decode(r).scenarios;
}

std::uint64_t BusClient::submit_scenario(const ScenarioJobSpec& spec) {
  PayloadWriter w;
  SubmitScenarioMsg{spec}.encode(w);
  request(MsgType::submit_scenario, w, MsgType::job_accepted);
  PayloadReader r(payload_);
  return JobIdMsg::decode(r).id;
}

JobStatusMsg BusClient::status(std::uint64_t id) {
  PayloadWriter w;
  JobIdMsg{id}.encode(w);
  request(MsgType::job_status, w, MsgType::job_status_r);
  PayloadReader r(payload_);
  return JobStatusMsg::decode(r);
}

StatsMsg BusClient::stats() {
  request(MsgType::get_stats, PayloadWriter{}, MsgType::stats);
  PayloadReader r(payload_);
  return StatsMsg::decode(r);
}

JobStatusMsg BusClient::watch(std::uint64_t id, const WatchFn& on_progress) {
  PayloadWriter w;
  JobIdMsg{id}.encode(w);
  send_frame(socket_, MsgType::watch_job, w);
  for (;;) {
    const std::optional<MsgType> got = recv_frame(socket_, payload_);
    if (!got.has_value()) {
      throw BusError("daemon closed the connection mid-watch");
    }
    PayloadReader r(payload_);
    switch (*got) {
      case MsgType::progress: {
        const ProgressMsg msg = ProgressMsg::decode(r);
        if (on_progress) {
          on_progress(msg);
        }
        break;
      }
      case MsgType::job_done:
        return JobStatusMsg::decode(r);
      case MsgType::error: {
        const ErrorMsg err = ErrorMsg::decode(r);
        throw BusRemoteError(err.code, err.message);
      }
      default:
        throw_unexpected(*got, MsgType::job_done);
    }
  }
}

ResultFrame BusClient::fetch_result(std::uint64_t id) {
  PayloadWriter w;
  JobIdMsg{id}.encode(w);
  const MsgType got = exchange(MsgType::fetch_result, w);
  if (got != MsgType::cpa_result && got != MsgType::tvla_result &&
      got != MsgType::scenario_result) {
    throw_unexpected(got, "a result frame");
  }
  return {got, std::move(payload_)};
}

CpaJobResult BusClient::cpa_result(std::uint64_t id) {
  return decode_result<CpaResultMsg>(fetch_result(id)).result;
}

TvlaJobResult BusClient::tvla_result(std::uint64_t id) {
  return decode_result<TvlaResultMsg>(fetch_result(id)).result;
}

ScenarioJobResult BusClient::scenario_result(std::uint64_t id) {
  return decode_result<ScenarioResultMsg>(fetch_result(id)).result;
}

void BusClient::shutdown_server() {
  request(MsgType::shutdown, PayloadWriter{}, MsgType::ok);
}

}  // namespace psc::bus
