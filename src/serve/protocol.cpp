#include "serve/protocol.hpp"

#include <climits>
#include <cstdlib>

#include "util/error.hpp"
#include "util/framing.hpp"
#include "util/strings.hpp"

namespace rotsv {

const char* msg_type_name(MsgType type) {
  switch (type) {
    case MsgType::kSubmitJob: return "submit-job";
    case MsgType::kJobStatus: return "job-status";
    case MsgType::kStreamVerdicts: return "stream-verdicts";
    case MsgType::kCancelJob: return "cancel";
    case MsgType::kShutdown: return "shutdown";
    case MsgType::kJobAccepted: return "job-accepted";
    case MsgType::kStatus: return "status";
    case MsgType::kVerdict: return "verdict";
    case MsgType::kJobDone: return "job-done";
    case MsgType::kWireError: return "error";
    case MsgType::kWorkerInit: return "worker-init";
    case MsgType::kWorkerReady: return "worker-ready";
    case MsgType::kAssignShard: return "assign-shard";
    case MsgType::kShardDone: return "shard-done";
  }
  return "?";
}

void send_message(int fd, MsgType type, const JsonRecord& body) {
  Frame frame;
  frame.type = static_cast<uint8_t>(type);
  frame.payload = body.to_json();
  write_frame(fd, frame);
}

bool recv_message(int fd, MsgType* type, JsonRecord* body) {
  Frame frame;
  if (!read_frame(fd, &frame)) return false;
  *type = static_cast<MsgType>(frame.type);
  if (!JsonRecord::parse(frame.payload, body)) {
    throw IoError(format("serve: unparseable %s payload on fd %d",
                         msg_type_name(*type), fd));
  }
  return true;
}

JsonRecord WireError::to_record() const {
  JsonRecord rec;
  rec.set("kind", failure_kind_name(kind)).set("msg", message);
  if (!detail.empty()) rec.set("detail", detail);
  return rec;
}

WireError WireError::from_record(const JsonRecord& rec) {
  WireError err;
  err.kind = failure_kind_from_name(rec.get_string("kind"));
  err.message = rec.get_string("msg");
  if (rec.has("detail")) err.detail = rec.get_string("detail");
  return err;
}

void send_wire_error(int fd, const WireError& error) {
  send_message(fd, MsgType::kWireError, error.to_record());
}

std::string dice_to_string(const std::vector<int>& dice) {
  std::string out;
  for (size_t i = 0; i < dice.size(); ++i) {
    if (i > 0) out += ',';
    out += format("%d", dice[i]);
  }
  return out;
}

std::vector<int> dice_from_string(const std::string& text,
                                  const CampaignSpec& spec) {
  std::vector<int> dice;
  for (const std::string& tok : split(text, ",")) {
    char* end = nullptr;
    const long g = std::strtol(tok.c_str(), &end, 10);
    require(end != tok.c_str() && *end == '\0' && g >= 0 && g <= INT_MAX,
            format("serve: bad die index '%s' in shard", tok.c_str()));
    int wafer = 0, row = 0, col = 0;
    spec.die_site(static_cast<int>(g), &wafer, &row, &col);  // range check
    require(spec.die_present(row, col),
            format("serve: shard names unpopulated die %ld", g));
    dice.push_back(static_cast<int>(g));
  }
  return dice;
}

}  // namespace rotsv
