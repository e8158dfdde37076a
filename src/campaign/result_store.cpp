#include "campaign/result_store.hpp"

#include <algorithm>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace rotsv {
namespace {

constexpr int kLogVersion = 1;

const char* truth_name(TsvFaultType t) {
  switch (t) {
    case TsvFaultType::kNone: return "none";
    case TsvFaultType::kResistiveOpen: return "open";
    case TsvFaultType::kLeakage: return "leak";
  }
  return "?";
}

TsvFaultType truth_from_name(const std::string& s) {
  if (s == "none") return TsvFaultType::kNone;
  if (s == "open") return TsvFaultType::kResistiveOpen;
  if (s == "leak") return TsvFaultType::kLeakage;
  throw ConfigError(format("result log: unknown truth class '%s'", s.c_str()));
}

}  // namespace

TsvVerdict verdict_from_code(char c) {
  switch (c) {
    case 'P': return TsvVerdict::kPass;
    case 'O': return TsvVerdict::kResistiveOpen;
    case 'L': return TsvVerdict::kLeakage;
    case 'S': return TsvVerdict::kStuck;
    case 'I': return TsvVerdict::kInconclusive;
  }
  throw ConfigError(format("result log: unknown verdict code '%c'", c));
}

JsonRecord die_result_to_record(const DieResult& r) {
  JsonRecord rec;
  rec.set("type", "die")
      .set("die", r.die)
      .set("wafer", r.wafer)
      .set("row", r.row)
      .set("col", r.col)
      .set("verdict", std::string(1, verdict_code(r.verdict)))
      .set("tsvs", r.tsv_verdicts)
      .set("truth", truth_name(r.truth))
      .set("defective", r.defective)
      .set("steps", r.sim_steps)
      .set("early", r.early_exits)
      .set("sec", r.seconds);
  // Containment fields only when they carry information, so clean logs stay
  // byte-compatible with pre-containment readers.
  if (r.attempts != 1) rec.set("attempts", r.attempts);
  if (!r.failure.ok()) {
    rec.set("fail_kind", failure_kind_name(r.failure.kind))
        .set("fail_msg", r.failure.message)
        .set("fail_tsv", r.failure.tsv);
  }
  return rec;
}

DieResult die_result_from_record(const JsonRecord& rec) {
  DieResult r;
  r.die = static_cast<int>(rec.get_number("die"));
  r.wafer = static_cast<int>(rec.get_number("wafer"));
  r.row = static_cast<int>(rec.get_number("row"));
  r.col = static_cast<int>(rec.get_number("col"));
  const std::string& v = rec.get_string("verdict");
  require(v.size() == 1, "result log: malformed verdict");
  r.verdict = verdict_from_code(v[0]);
  r.tsv_verdicts = rec.get_string("tsvs");
  for (char c : r.tsv_verdicts) verdict_from_code(c);  // validate
  r.truth = truth_from_name(rec.get_string("truth"));
  r.defective = rec.get_bool("defective");
  r.sim_steps = rec.get_uint64("steps");
  // Absent in logs written before the streaming measurement path existed.
  r.early_exits = rec.has("early") ? rec.get_uint64("early") : 0;
  r.seconds = rec.get_number_or("sec", 0.0);
  r.attempts = static_cast<int>(rec.get_number_or("attempts", 1.0));
  if (rec.has("fail_kind")) {
    r.failure.kind = failure_kind_from_name(rec.get_string("fail_kind"));
    r.failure.message = rec.get_string("fail_msg");
    r.failure.tsv = static_cast<int>(rec.get_number_or("fail_tsv", -1.0));
    r.failure.attempts = r.attempts;
  }
  return r;
}

char verdict_code(TsvVerdict v) {
  switch (v) {
    case TsvVerdict::kPass: return 'P';
    case TsvVerdict::kResistiveOpen: return 'O';
    case TsvVerdict::kLeakage: return 'L';
    case TsvVerdict::kStuck: return 'S';
    case TsvVerdict::kInconclusive: return 'I';
  }
  return '?';
}

CampaignResultStore::CampaignResultStore(const std::string& path, bool append)
    : writer_(path, append, /*checksums=*/true) {}

std::unique_ptr<CampaignResultStore> CampaignResultStore::create(
    const std::string& path, const CampaignSpec& spec) {
  std::unique_ptr<CampaignResultStore> store(
      new CampaignResultStore(path, /*append=*/false));
  JsonRecord header;
  header.set("type", "campaign")
      .set("version", kLogVersion)
      .set("lot", spec.lot_id)
      .set("fingerprint", spec.fingerprint())
      .set("total_dice", spec.total_dice());
  store->writer_.write(header);
  return store;
}

std::unique_ptr<CampaignResultStore> CampaignResultStore::resume(
    const std::string& path, const CampaignSpec& spec, ResumeState* state) {
  *state = load_resume_state(path, spec);
  return std::unique_ptr<CampaignResultStore>(
      new CampaignResultStore(path, /*append=*/true));
}

void CampaignResultStore::write_bands(
    const std::vector<std::pair<double, double>>& bands,
    const std::vector<double>& voltages) {
  require(bands.size() == voltages.size(),
          "result log: bands must match the voltage plan");
  std::lock_guard<std::mutex> lock(mutex_);
  for (size_t i = 0; i < bands.size(); ++i) {
    JsonRecord rec;
    rec.set("type", "band")
        .set("index", i)
        .set("vdd", voltages[i])
        .set("lo", bands[i].first)
        .set("hi", bands[i].second);
    writer_.write(rec);
  }
}

void CampaignResultStore::write_diagnostics(const AnalysisReport& report) {
  std::lock_guard<std::mutex> lock(mutex_);
  for (const Diagnostic& d : report.diagnostics()) {
    JsonRecord rec;
    rec.set("type", "preflight")
        .set("code", diag_code_name(d.code))
        .set("severity", diag_severity_name(d.severity))
        .set("object", d.object)
        .set("message", d.message);
    writer_.write(rec);
  }
}

void CampaignResultStore::append(const DieResult& result) {
  std::lock_guard<std::mutex> lock(mutex_);
  writer_.write(die_result_to_record(result));
  if (++appends_since_sync_ >= kSyncInterval) {
    writer_.sync();
    appends_since_sync_ = 0;
  }
}

void CampaignResultStore::sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  writer_.sync();
  appends_since_sync_ = 0;
}

ResumeState load_resume_state(const std::string& path, const CampaignSpec& spec) {
  const JsonlReadResult raw = read_jsonl(path);
  require(!raw.records.empty(),
          format("resume: '%s' is missing or empty", path.c_str()));

  const JsonRecord& header = raw.records.front();
  require(header.has("type") && header.get_string("type") == "campaign",
          format("resume: '%s' does not start with a campaign header", path.c_str()));
  require(static_cast<int>(header.get_number("version")) == kLogVersion,
          "resume: unsupported result-log version");
  require_same_campaign(header.get_string("fingerprint"), spec,
                        format("resume: checkpoint '%s'", path.c_str()));

  ResumeState state;
  state.skipped_lines = raw.skipped_lines;
  std::vector<std::pair<double, double>> bands(spec.tester.voltages.size(),
                                               {0.0, 0.0});
  std::vector<bool> band_seen(spec.tester.voltages.size(), false);
  std::vector<bool> die_seen;

  for (size_t i = 1; i < raw.records.size(); ++i) {
    const JsonRecord& rec = raw.records[i];
    if (!rec.has("type")) {
      ++state.skipped_lines;
      continue;
    }
    const std::string& type = rec.get_string("type");
    if (type == "band") {
      const size_t idx = static_cast<size_t>(rec.get_number("index"));
      if (idx < bands.size()) {
        bands[idx] = {rec.get_number("lo"), rec.get_number("hi")};
        band_seen[idx] = true;
      }
    } else if (type == "die") {
      DieResult r = die_result_from_record(rec);
      const size_t slot = static_cast<size_t>(r.die);
      if (die_seen.size() <= slot) die_seen.resize(slot + 1, false);
      if (die_seen[slot]) continue;  // duplicate (kill between write and ack)
      die_seen[slot] = true;
      state.completed.push_back(std::move(r));
    }
  }

  if (std::all_of(band_seen.begin(), band_seen.end(), [](bool b) { return b; })) {
    state.bands = std::move(bands);
  }
  std::sort(state.completed.begin(), state.completed.end(),
            [](const DieResult& a, const DieResult& b) { return a.die < b.die; });
  return state;
}

}  // namespace rotsv
