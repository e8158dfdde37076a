// rotsv::serve wire protocol: versioned, CRC-framed messages whose payloads
// are the same flat JSON records the JSONL result log uses.
//
// Two conversations share the frame layer (util/framing.hpp):
//
//  client <-> server (TCP or Unix socket):
//    -> submit-job {campaign spec}        <- job-accepted {job, fingerprint}
//       ... then the submitting connection streams:
//                                         <- verdict {die record}  (xN)
//                                         <- job-done {summary}
//    -> job-status {job}                  <- status {state, counts}
//    -> stream-verdicts {job}             <- verdict* + job-done (attach)
//    -> cancel {job}                      <- status {state: cancelled}
//    -> shutdown {}                       <- status {state: idle}
//    any request may instead draw         <- error {kind, message, detail}
//
//  scheduler <-> worker (pipes over fork/exec of rotsv_worker):
//    -> worker-init {spec + bands}        <- worker-ready {pid}
//    -> assign-shard {shard, dice CSV}    <- verdict {die record}  (xN)
//                                         <- shard-done {shard, dice}
//
// Spec payloads (submit-job, worker-init) use campaign_spec_to_record(), so a
// worker decodes exactly the fields the campaign fingerprint covers.
//
// Error taxonomy rides the existing util/failure FailureKind names, so a
// wire error is machine-readable with the same vocabulary as a quarantined
// die's FailureRecord. Preflight rejections carry the full diagnostic list
// in `detail` (one formatted finding per line, analyzer format).
#pragma once

#include <cstdint>
#include <string>

#include "campaign/campaign_spec.hpp"
#include "util/error.hpp"
#include "util/failure.hpp"
#include "util/jsonl.hpp"

namespace rotsv {

/// Protocol message types (the frame-type byte). Requests are < 32,
/// server->client replies < 64, scheduler<->worker traffic >= 64.
enum class MsgType : uint8_t {
  kSubmitJob = 1,
  kJobStatus = 2,
  kStreamVerdicts = 3,
  kCancelJob = 4,
  kShutdown = 5,

  kJobAccepted = 32,
  kStatus = 33,
  kVerdict = 34,
  kJobDone = 35,
  kWireError = 36,

  kWorkerInit = 64,
  kWorkerReady = 65,
  kAssignShard = 66,
  kShardDone = 67,
};

/// Stable name for logs and errors, e.g. "submit-job".
const char* msg_type_name(MsgType type);

/// Sends one message: the record's JSON text as the frame payload.
void send_message(int fd, MsgType type, const JsonRecord& body);

/// Receives one message. Returns false on clean EOF at a frame boundary;
/// throws IoError on transport corruption or an unparseable payload.
bool recv_message(int fd, MsgType* type, JsonRecord* body);

/// A structured failure delivered over the wire (kWireError payload).
struct WireError {
  FailureKind kind = FailureKind::kNone;
  std::string message;
  /// Optional multi-line machine-oriented context; preflight rejections put
  /// the full analyzer diagnostic list here.
  std::string detail;

  JsonRecord to_record() const;
  static WireError from_record(const JsonRecord& record);
};

void send_wire_error(int fd, const WireError& error);

/// Thrown by the client when the server answers a request with kWireError.
class RemoteError : public Error {
 public:
  explicit RemoteError(WireError wire)
      : Error(wire.message, wire.kind), wire_(std::move(wire)) {}

  const WireError& wire() const { return wire_; }

 private:
  WireError wire_;
};

/// Die-index shard list codec ("3,4,9"). Decoding validates every index
/// against the spec's grid.
std::string dice_to_string(const std::vector<int>& dice);
std::vector<int> dice_from_string(const std::string& text,
                                  const CampaignSpec& spec);

}  // namespace rotsv
