#include "campaign/campaign_spec.hpp"

#include <climits>
#include <cmath>
#include <cstdlib>
#include <cstring>
#include <type_traits>

#include "util/error.hpp"
#include "util/strings.hpp"

namespace rotsv {
namespace {

using Bands = std::vector<std::pair<double, double>>;

double parse_double(const std::string& text, const char* what) {
  char* end = nullptr;
  const double v = std::strtod(text.c_str(), &end);
  require(end != text.c_str() && *end == '\0',
          format("campaign spec: bad %s '%s'", what, text.c_str()));
  return v;
}

/// Untrusted numbers never reach a static_cast<int> unchecked: a value
/// outside [lo, hi], or with a fraction, is refused by key.
int read_int(const JsonRecord& rec, const char* key, int lo, int hi) {
  const double x = rec.get_number(key);
  require(std::floor(x) == x && x >= lo && x <= hi,
          format("campaign spec: '%s' must be an integer in [%d, %d], got %.17g",
                 key, lo, hi, x));
  return static_cast<int>(x);
}

int last_enumerator(Integrator) { return static_cast<int>(Integrator::kTrapezoidal); }
int last_enumerator(MeterBackend) { return static_cast<int>(MeterBackend::kLfsr); }

/// Encodes one listed field: enums as their int, vectors as %.17g lists.
struct FieldWriter {
  JsonRecord* rec;
  template <typename T>
  void operator()(const char* key, const T& value) const {
    if constexpr (std::is_enum_v<T>) {
      rec->set(key, static_cast<int>(value));
    } else if constexpr (std::is_same_v<T, std::vector<double>>) {
      std::string csv;
      for (double v : value) csv += format(",%.17g", v);
      rec->set(key, csv.empty() ? csv : csv.substr(1));
    } else if constexpr (std::is_same_v<T, Bands>) {
      rec->set(key, bands_to_string(value));
    } else {
      rec->set(key, value);
    }
  }
};

struct FieldReader {
  const JsonRecord& rec;
  template <typename T>
  void operator()(const char* key, T& value) const {
    if constexpr (std::is_same_v<T, int>) {
      value = read_int(rec, key, INT_MIN, INT_MAX);
    } else if constexpr (std::is_enum_v<T>) {
      value = static_cast<T>(read_int(rec, key, 0, last_enumerator(value)));
    } else if constexpr (std::is_same_v<T, uint64_t>) {
      value = rec.get_uint64(key);
    } else if constexpr (std::is_same_v<T, double>) {
      value = rec.get_number(key);
    } else if constexpr (std::is_same_v<T, bool>) {
      value = rec.get_bool(key);
    } else if constexpr (std::is_same_v<T, std::string>) {
      value = rec.get_string(key);
    } else if constexpr (std::is_same_v<T, Bands>) {
      value = bands_from_string(rec.get_string(key));
    } else {
      value.clear();
      for (const std::string& tok : split(rec.get_string(key), ",")) {
        value.push_back(parse_double(tok, key));
      }
    }
  }
};

/// One field's exact wire text, e.g. `4` or `"lot0"`.
template <typename T>
std::string field_text(const char* key, const T& value) {
  JsonRecord one;
  FieldWriter{&one}(key, value);
  const std::string json = one.to_json();  // {"key":text}
  const size_t start = std::strlen(key) + 4;
  return json.substr(start, json.size() - start - 1);
}

JsonRecord listed_fields_record(const CampaignSpec& spec) {
  JsonRecord rec;
  visit_spec_fields(spec, FieldWriter{&rec});
  return rec;
}

}  // namespace

TsvFault DefectMix::draw(Rng& rng, double rho) const {
  const double scale = 1.0 + edge_bias * (2.0 * rho) * (2.0 * rho);
  const double p_open = std::min(open_rate * scale, 0.95);
  const double p_leak = std::min(leak_rate * scale, 0.95 - p_open);
  // One uniform decides the class so the draw consumes a fixed number of
  // random values per TSV regardless of outcome -- keeps streams aligned.
  const double u = rng.uniform();
  const double severity = rng.uniform();
  const double position = rng.uniform(open_x_min, open_x_max);
  if (u < p_open) {
    const double r = open_r_min * std::pow(open_r_max / open_r_min, severity);
    return TsvFault::open(r, position);
  }
  if (u < p_open + p_leak) {
    const double r = leak_r_min * std::pow(leak_r_max / leak_r_min, severity);
    return TsvFault::leakage(r);
  }
  return TsvFault::none();
}

void CampaignSpec::validate() const {
  require(wafers >= 1, "campaign: wafers >= 1");
  require(rows >= 1 && cols >= 1, "campaign: wafer grid must be at least 1x1");
  require(tsvs_per_die >= 1, "campaign: tsvs_per_die >= 1");
  require(mix.open_rate >= 0.0 && mix.leak_rate >= 0.0 &&
              mix.open_rate + mix.leak_rate <= 1.0,
          "campaign: defect rates must be probabilities summing to <= 1");
  require(mix.open_r_min > 0.0 && mix.open_r_max >= mix.open_r_min,
          "campaign: open resistance range invalid");
  require(mix.leak_r_min > 0.0 && mix.leak_r_max >= mix.leak_r_min,
          "campaign: leakage resistance range invalid");
  require(mix.open_x_min >= 0.0 && mix.open_x_max <= 1.0 &&
              mix.open_x_min <= mix.open_x_max,
          "campaign: open position range invalid");
  require(mix.edge_bias >= 0.0, "campaign: edge_bias >= 0");
  require(!tester.voltages.empty(), "campaign: tester needs a voltage plan");
  require(preset_bands.empty() || preset_bands.size() == tester.voltages.size(),
          "campaign: preset_bands must match the voltage plan");
  require(retry.retries >= 0, "campaign: retry.retries >= 0");
  require(std::isfinite(retry.ic_perturbation) && retry.ic_perturbation >= 0.0,
          "campaign: retry.ic_perturbation must be finite and >= 0");
  require(std::isfinite(retry.escalated_gmin) && retry.escalated_gmin >= 0.0,
          "campaign: retry.escalated_gmin must be finite and >= 0");
  require(std::isfinite(tester.die_budget.max_seconds) &&
              tester.die_budget.max_seconds >= 0.0,
          "campaign: die_budget.max_seconds must be finite and >= 0");
  require(grid_fits_int(),
          format("campaign: %dx%dx%d site grid exceeds %d sites", wafers, rows,
                 cols, INT_MAX));
  require(total_dice() >= 1, "campaign: wafer grid has no populated dice");
}

double CampaignSpec::die_rho(int row, int col) const {
  // Die-center offsets from wafer center, normalized so the grid spans
  // [-0.5, 0.5] on its longer axis-independent unit square.
  const double dx = (col + 0.5) / cols - 0.5;
  const double dy = (row + 0.5) / rows - 0.5;
  return std::sqrt(dx * dx + dy * dy);
}

bool CampaignSpec::die_present(int row, int col) const {
  // Populated sites lie inside the inscribed circle; a 1xN or small grid is
  // entirely populated because die centers stay within radius 0.5.
  return die_rho(row, col) <= 0.5 + 1e-12;
}

int CampaignSpec::dice_per_wafer() const {
  int count = 0;
  for (int r = 0; r < rows; ++r) {
    for (int c = 0; c < cols; ++c) {
      if (die_present(r, c)) ++count;
    }
  }
  return count;
}

int CampaignSpec::total_dice() const { return wafers * dice_per_wafer(); }

bool CampaignSpec::grid_fits_int() const {
  // rows * cols fits int64 for any ints; checking it first keeps the
  // second product within int64 as well.
  const int64_t per_wafer = static_cast<int64_t>(rows) * cols;
  return per_wafer <= INT_MAX && per_wafer * wafers <= INT_MAX;
}

int CampaignSpec::die_index(int wafer, int row, int col) const {
  return (wafer * rows + row) * cols + col;
}

void CampaignSpec::die_site(int index, int* wafer, int* row, int* col) const {
  require(index >= 0 && index < wafers * rows * cols,
          format("campaign: die index %d outside the %dx%dx%d grid", index,
                 wafers, rows, cols));
  *col = index % cols;
  *row = (index / cols) % rows;
  *wafer = index / (rows * cols);
}

std::string CampaignSpec::fingerprint() const {
  return listed_fields_record(*this).to_json();
}

JsonRecord campaign_spec_to_record(const CampaignSpec& spec) {
  JsonRecord rec = listed_fields_record(spec);
  rec.set("threads", static_cast<uint64_t>(spec.threads));
  return rec;
}

CampaignSpec campaign_spec_from_record(const JsonRecord& record) {
  CampaignSpec spec;
  visit_spec_fields(spec, FieldReader{record});
  spec.threads = static_cast<size_t>(record.get_uint64("threads"));
  return spec;
}

void require_same_campaign(const std::string& stored, const CampaignSpec& spec,
                           const std::string& what) {
  const std::string mine = spec.fingerprint();
  if (stored == mine) return;
  JsonRecord theirs;
  std::string difference =
      format("stored %s\n  this spec %s", stored.c_str(), mine.c_str());
  if (JsonRecord::parse(stored, &theirs)) {
    bool found = false;
    visit_spec_fields(spec, [&](const char* key, const auto& value) {
      if (found) return;
      auto stored_value = value;
      std::string stored_text = "absent";
      try {
        FieldReader{theirs}(key, stored_value);
        stored_text = field_text(key, stored_value);
      } catch (const Error&) {
        // missing, mistyped or out of range: reported as "absent"
      }
      const std::string mine_text = field_text(key, value);
      found = stored_text != mine_text;
      if (found) {
        difference = format("%s is %s there, %s here", key,
                            stored_text.c_str(), mine_text.c_str());
      }
    });
  }
  throw ConfigError(format("%s belongs to a different campaign: %s",
                           what.c_str(), difference.c_str()));
}

std::string bands_to_string(const Bands& bands) {
  std::string out;
  for (const auto& [lo, hi] : bands) out += format(",%.17g:%.17g", lo, hi);
  return out.empty() ? out : out.substr(1);
}

Bands bands_from_string(const std::string& text) {
  Bands bands;
  for (const std::string& tok : split(text, ",")) {
    const size_t colon = tok.find(':');
    require(colon != std::string::npos,
            format("campaign spec: bad band '%s' (want lo:hi)", tok.c_str()));
    bands.emplace_back(parse_double(tok.substr(0, colon), "band low endpoint"),
                       parse_double(tok.substr(colon + 1), "band high endpoint"));
  }
  return bands;
}

bool DieGroundTruth::defective() const {
  for (const TsvFault& f : faults) {
    if (f.is_fault()) return true;
  }
  return false;
}

TsvFaultType DieGroundTruth::worst_type() const {
  TsvFaultType worst = TsvFaultType::kNone;
  for (const TsvFault& f : faults) {
    if (f.type == TsvFaultType::kLeakage) return TsvFaultType::kLeakage;
    if (f.type == TsvFaultType::kResistiveOpen) worst = TsvFaultType::kResistiveOpen;
  }
  return worst;
}

DieGroundTruth die_ground_truth(const CampaignSpec& spec, int wafer, int row, int col) {
  // Stream 2g: defect draws; stream 2g+1 belongs to the die's test (process
  // variation + counter phases). Both are functions of (seed, g) only.
  const int g = spec.die_index(wafer, row, col);
  Rng rng = Rng::fork(spec.seed, 2 * static_cast<uint64_t>(g));
  DieGroundTruth truth;
  truth.faults.reserve(static_cast<size_t>(spec.tsvs_per_die));
  const double rho = spec.die_rho(row, col);
  for (int t = 0; t < spec.tsvs_per_die; ++t) {
    truth.faults.push_back(spec.mix.draw(rng, rho));
  }
  return truth;
}

}  // namespace rotsv
