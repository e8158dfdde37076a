#include "serve/client.hpp"

#include <csignal>

#include "serve/protocol.hpp"
#include "util/error.hpp"
#include "util/strings.hpp"

namespace rotsv {
namespace {

int record_int(const JsonRecord& rec, const std::string& key) {
  return rec.has(key) ? static_cast<int>(rec.get_uint64(key)) : 0;
}

JobSummary decode_summary(const JsonRecord& rec) {
  JobSummary s;
  if (rec.has("job")) s.job = rec.get_uint64("job");
  if (rec.has("state")) s.state = rec.get_string("state");
  if (rec.has("fingerprint")) s.fingerprint = rec.get_string("fingerprint");
  s.total = record_int(rec, "total");
  s.screened = record_int(rec, "screened");
  s.resumed = record_int(rec, "resumed");
  s.restarts = record_int(rec, "restarts");
  s.die_bins.pass = record_int(rec, "pass");
  s.die_bins.open = record_int(rec, "open");
  s.die_bins.leak = record_int(rec, "leak");
  s.die_bins.stuck = record_int(rec, "stuck");
  s.die_bins.inconclusive = record_int(rec, "inconclusive");
  s.quality.defective = record_int(rec, "defective");
  s.quality.clean = record_int(rec, "clean");
  s.quality.caught = record_int(rec, "caught");
  s.quality.escapes = record_int(rec, "escapes");
  s.quality.overkill = record_int(rec, "overkill");
  s.quality.misclassified = record_int(rec, "misclassified");
  s.quality.quarantined = record_int(rec, "quarantined");
  if (rec.has("sim_steps")) s.sim_steps = rec.get_uint64("sim_steps");
  if (rec.has("early_exits")) s.early_exits = rec.get_uint64("early_exits");
  return s;
}

[[noreturn]] void throw_remote(const JsonRecord& body) {
  throw RemoteError(WireError::from_record(body));
}

}  // namespace

ServeClient::ServeClient(const std::string& address) {
  std::signal(SIGPIPE, SIG_IGN);
  fd_ = connect_to(ServeAddress::parse(address));
}

JobSummary ServeClient::submit_and_stream(
    const CampaignSpec& spec,
    const std::function<void(const DieResult&)>& on_verdict,
    const std::function<bool()>& should_cancel) {
  send_message(fd_.get(), MsgType::kSubmitJob, campaign_spec_to_record(spec));

  MsgType type{};
  JsonRecord body;
  if (!recv_message(fd_.get(), &type, &body)) {
    throw IoError("serve: server closed the connection before accepting");
  }
  if (type == MsgType::kWireError) throw_remote(body);
  require(type == MsgType::kJobAccepted,
          format("serve: expected job-accepted, got %s", msg_type_name(type)));
  const uint64_t job = body.get_uint64("job");
  require_same_campaign(body.get_string("fingerprint"), spec,
                        "serve: the job the server accepted");

  bool cancel_sent = false;
  while (recv_message(fd_.get(), &type, &body)) {
    switch (type) {
      case MsgType::kVerdict: {
        const DieResult die = die_result_from_record(body);
        if (on_verdict) on_verdict(die);
        if (!cancel_sent && should_cancel && should_cancel()) {
          JsonRecord cancel;
          cancel.set("job", job);
          send_message(fd_.get(), MsgType::kCancelJob, cancel);
          cancel_sent = true;
        }
        break;
      }
      case MsgType::kJobDone:
        return decode_summary(body);
      case MsgType::kStatus: {
        // A status frame ends the stream only when it reports cancellation.
        const JobSummary s = decode_summary(body);
        if (s.state == "cancelled") return s;
        break;
      }
      case MsgType::kWireError:
        throw_remote(body);
      default:
        throw IoError(format("serve: unexpected %s frame mid-stream",
                             msg_type_name(type)));
    }
  }
  throw IoError("serve: server closed the connection mid-job");
}

JobSummary ServeClient::status(uint64_t job) {
  JsonRecord req;
  req.set("job", job);
  send_message(fd_.get(), MsgType::kJobStatus, req);
  MsgType type{};
  JsonRecord body;
  if (!recv_message(fd_.get(), &type, &body)) {
    throw IoError("serve: server closed the connection on status");
  }
  if (type == MsgType::kWireError) throw_remote(body);
  require(type == MsgType::kStatus,
          format("serve: expected status, got %s", msg_type_name(type)));
  return decode_summary(body);
}

JobSummary ServeClient::stream_verdicts(
    uint64_t job, const std::function<void(const DieResult&)>& on_verdict) {
  JsonRecord req;
  req.set("job", job);
  send_message(fd_.get(), MsgType::kStreamVerdicts, req);
  MsgType type{};
  JsonRecord body;
  while (recv_message(fd_.get(), &type, &body)) {
    switch (type) {
      case MsgType::kVerdict:
        if (on_verdict) on_verdict(die_result_from_record(body));
        break;
      case MsgType::kJobDone:
        return decode_summary(body);
      case MsgType::kWireError:
        throw_remote(body);
      default:
        throw IoError(format("serve: unexpected %s frame in replay",
                             msg_type_name(type)));
    }
  }
  throw IoError("serve: server closed the connection mid-replay");
}

JobSummary ServeClient::cancel(uint64_t job) {
  JsonRecord req;
  req.set("job", job);
  send_message(fd_.get(), MsgType::kCancelJob, req);
  MsgType type{};
  JsonRecord body;
  if (!recv_message(fd_.get(), &type, &body)) {
    throw IoError("serve: server closed the connection on cancel");
  }
  if (type == MsgType::kWireError) throw_remote(body);
  require(type == MsgType::kStatus,
          format("serve: expected status, got %s", msg_type_name(type)));
  return decode_summary(body);
}

void ServeClient::shutdown() {
  send_message(fd_.get(), MsgType::kShutdown, JsonRecord());
  MsgType type{};
  JsonRecord body;
  if (!recv_message(fd_.get(), &type, &body)) return;  // it already exited
  if (type == MsgType::kWireError) throw_remote(body);
}

}  // namespace rotsv
