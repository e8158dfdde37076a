#include "serve/scheduler.hpp"

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <deque>
#include <memory>
#include <poll.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include "analyze/cost_model.hpp"
#include "campaign/executor.hpp"
#include "serve/protocol.hpp"
#include "serve/socket.hpp"
#include "util/error.hpp"
#include "util/framing.hpp"
#include "util/strings.hpp"

namespace rotsv {
namespace {

/// One live worker process and the shard it is working on.
struct Worker {
  pid_t pid = -1;
  UniqueFd to_child;    ///< frames to the worker (its stdin)
  UniqueFd from_child;  ///< frames from the worker (its stdout)
  bool ready = false;   ///< worker-ready received
  bool idle = false;    ///< ready and not holding a shard
  uint64_t shard_id = 0;
  /// Dice of the current shard that have not produced a verdict yet -- the
  /// exact set reassigned if this worker dies.
  std::vector<int> outstanding;
};

void reap(pid_t pid) {
  int status = 0;
  while (::waitpid(pid, &status, 0) < 0 && errno == EINTR) {
  }
}

}  // namespace

std::vector<std::pair<double, double>> campaign_bands(
    const CampaignSpec& spec) {
  const size_t num_voltages = spec.tester.voltages.size();
  if (!spec.preset_bands.empty()) {
    require(spec.preset_bands.size() == num_voltages,
            "serve: preset bands must match the spec's voltage plan");
    return spec.preset_bands;
  }
  PreBondTsvTester tester(spec.tester);
  tester.calibrate();
  std::vector<std::pair<double, double>> bands;
  for (size_t vi = 0; vi < num_voltages; ++vi) {
    bands.emplace_back(tester.classifier(vi).lower(),
                       tester.classifier(vi).upper());
  }
  return bands;
}

ShardScheduler::ShardScheduler(CampaignSpec spec, SchedulerOptions options)
    : spec_(std::move(spec)), options_(std::move(options)) {
  spec_.validate();
  require(options_.workers > 0, "serve: need at least one worker");
  require(options_.shard_size > 0, "serve: shard size must be positive");
  require(!options_.worker_path.empty(), "serve: no worker binary configured");
}

SchedulerReport ShardScheduler::run(
    ResultSink* sink, const std::vector<DieResult>& resumed,
    const std::vector<std::pair<double, double>>& bands,
    const std::function<void(const DieResult&)>& on_verdict,
    const std::function<bool()>& cancel_check) {
  // A dead worker turns our next write into EPIPE, which the framing layer
  // reports as IoError; the default SIGPIPE disposition would kill us first.
  std::signal(SIGPIPE, SIG_IGN);

  const JsonRecord spec_record = campaign_spec_to_record(spec_);
  require(bands.size() == spec_.tester.voltages.size(),
          "serve: bands must match the spec's voltage plan");

  SchedulerReport report;
  report.bands = bands;
  report.resumed_dice = static_cast<int>(resumed.size());

  StreamingAggregate agg(spec_);
  std::vector<bool> done(
      static_cast<size_t>(spec_.wafers * spec_.rows * spec_.cols), false);
  for (const DieResult& r : resumed) {
    agg.add(r);
    done[static_cast<size_t>(r.die)] = true;
  }

  // --- shard the pending dice -----------------------------------------------
  std::deque<std::vector<int>> queue;
  size_t remaining = 0;
  {
    const std::vector<DieSite> pending = campaign_sites(spec_, &done);
    remaining = pending.size();
    if (options_.cost_shards && !pending.empty()) {
      // Price every pending die with the static cost model (ground truth is
      // a pure function of the spec, so the price is too) and close each
      // shard at shard_size x the average predicted die cost. Site order is
      // preserved and membership covers exactly the pending set, so the
      // verdicts are bit-identical to count-based sharding.
      const CostModel model = build_cost_model(spec_.tester, spec_.mix);
      std::vector<double> costs;
      costs.reserve(pending.size());
      double total_cost = 0.0;
      for (const DieSite& site : pending) {
        const double cost =
            model.predicted_die_steps(spec_, site.wafer, site.row, site.col);
        costs.push_back(cost);
        total_cost += cost;
      }
      report.predicted_steps = total_cost;
      const double target =
          total_cost * static_cast<double>(options_.shard_size) /
          static_cast<double>(pending.size());
      std::vector<int> shard;
      double shard_cost = 0.0;
      for (size_t i = 0; i < pending.size(); ++i) {
        const DieSite& site = pending[i];
        shard.push_back(spec_.die_index(site.wafer, site.row, site.col));
        shard_cost += costs[i];
        if (shard_cost >= target) {
          queue.push_back(std::move(shard));
          shard.clear();
          shard_cost = 0.0;
        }
      }
      if (!shard.empty()) queue.push_back(std::move(shard));
    } else {
      std::vector<int> shard;
      for (const DieSite& site : pending) {
        shard.push_back(spec_.die_index(site.wafer, site.row, site.col));
        if (static_cast<int>(shard.size()) >= options_.shard_size) {
          queue.push_back(std::move(shard));
          shard.clear();
        }
      }
      if (!shard.empty()) queue.push_back(std::move(shard));
    }
  }
  if (remaining == 0) {
    report.aggregate = agg.aggregate();
    return report;
  }

  JsonRecord init = spec_record;
  init.set("bands", bands_to_string(bands));

  bool inject_armed = options_.inject_worker_kill >= 0;
  std::vector<std::unique_ptr<Worker>> workers;
  uint64_t next_shard_id = 0;

  auto spawn = [&]() {
    int to_pipe[2] = {-1, -1};
    int from_pipe[2] = {-1, -1};
    if (::pipe(to_pipe) != 0 || ::pipe(from_pipe) != 0) {
      throw IoError(format("serve: pipe: %s", errno_message(errno).c_str()));
    }
    const bool inject = inject_armed;
    inject_armed = false;  // only the first spawn carries the chaos flag
    const pid_t pid = ::fork();
    if (pid < 0) {
      throw IoError(format("serve: fork: %s", errno_message(errno).c_str()));
    }
    if (pid == 0) {
      ::dup2(to_pipe[0], STDIN_FILENO);
      ::dup2(from_pipe[1], STDOUT_FILENO);
      ::close(to_pipe[0]);
      ::close(to_pipe[1]);
      ::close(from_pipe[0]);
      ::close(from_pipe[1]);
      const std::string kill_after = format("%d", options_.inject_worker_kill);
      const char* argv[4] = {options_.worker_path.c_str(), nullptr, nullptr,
                             nullptr};
      if (inject) {
        argv[1] = "--kill-after";
        argv[2] = kill_after.c_str();
      }
      ::execv(options_.worker_path.c_str(), const_cast<char* const*>(argv));
      std::fprintf(stderr, "rotsv_worker exec '%s': %s\n",
                   options_.worker_path.c_str(), errno_message(errno).c_str());
      ::_exit(127);
    }
    auto w = std::make_unique<Worker>();
    w->pid = pid;
    w->to_child = UniqueFd(to_pipe[1]);
    w->from_child = UniqueFd(from_pipe[0]);
    ::close(to_pipe[0]);
    ::close(from_pipe[1]);
    send_message(w->to_child.get(), MsgType::kWorkerInit, init);
    workers.push_back(std::move(w));
  };

  auto assign = [&](Worker& w) {
    if (queue.empty() || !w.ready || !w.idle) return;
    std::vector<int> shard = std::move(queue.front());
    queue.pop_front();
    w.shard_id = next_shard_id++;
    w.outstanding = shard;
    w.idle = false;
    JsonRecord body;
    body.set("shard", w.shard_id).set("dice", dice_to_string(shard));
    send_message(w.to_child.get(), MsgType::kAssignShard, body);
  };

  // Death handling: requeue the dice the worker never answered for (front of
  // the queue -- they were in flight, finish them first), reap the child, and
  // charge the restart budget. Determinism holds because the replacement
  // screens the same (spec, die, bands) tuples.
  auto worker_died = [&](size_t index) {
    std::unique_ptr<Worker> w = std::move(workers[index]);
    workers.erase(workers.begin() + static_cast<long>(index));
    w->to_child.reset();
    w->from_child.reset();
    reap(w->pid);
    if (!w->outstanding.empty()) queue.push_front(std::move(w->outstanding));
    ++report.worker_restarts;
    require(report.worker_restarts <= options_.max_restarts,
            format("serve: worker restart budget exhausted (%d deaths; "
                   "is '%s' a working rotsv_worker binary?)",
                   report.worker_restarts, options_.worker_path.c_str()));
  };

  auto handle_frame = [&](size_t index) -> bool {
    Worker& w = *workers[index];
    MsgType type{};
    JsonRecord body;
    bool alive = true;
    try {
      alive = recv_message(w.from_child.get(), &type, &body);
    } catch (const Error&) {
      alive = false;  // torn frame: the worker died mid-write
    }
    if (!alive) {
      worker_died(index);
      return false;
    }
    switch (type) {
      case MsgType::kWorkerReady:
        w.ready = true;
        w.idle = true;
        break;
      case MsgType::kVerdict: {
        const DieResult die = die_result_from_record(body);
        w.outstanding.erase(
            std::remove(w.outstanding.begin(), w.outstanding.end(), die.die),
            w.outstanding.end());
        if (!done[static_cast<size_t>(die.die)]) {
          done[static_cast<size_t>(die.die)] = true;
          if (sink) sink->append(die);
          agg.add(die);
          ++report.screened_dice;
          report.sim_steps += die.sim_steps;
          report.early_exits += die.early_exits;
          --remaining;
          if (on_verdict) on_verdict(die);
        }
        break;
      }
      case MsgType::kShardDone:
        require(w.outstanding.empty(),
                format("serve: worker %d closed shard %llu with dice missing",
                       static_cast<int>(w.pid),
                       static_cast<unsigned long long>(
                           body.get_uint64("shard"))));
        w.idle = true;
        break;
      default:
        throw IoError(format("serve: unexpected %s frame from worker %d",
                             msg_type_name(type), static_cast<int>(w.pid)));
    }
    return true;
  };

  // Hard stop: SIGTERM the fleet and reap it. Used on cancellation and on
  // the error path so no code path leaves zombies behind.
  auto kill_fleet = [&]() {
    for (auto& w : workers) {
      ::kill(w->pid, SIGTERM);
      w->to_child.reset();
      w->from_child.reset();
    }
    for (auto& w : workers) reap(w->pid);
    workers.clear();
  };

  const int want_workers = std::min<int>(
      options_.workers, static_cast<int>(queue.size()));
  for (int i = 0; i < want_workers; ++i) spawn();

  // --- the event loop ---------------------------------------------------------
  try {
    while (remaining > 0) {
      if (cancel_check && cancel_check()) {
        kill_fleet();
        report.cancelled = true;
        if (sink) sink->sync();
        report.aggregate = agg.aggregate();
        return report;
      }
      // Keep the fleet at strength while work remains; a spawn that throws
      // (fork/pipe exhaustion) aborts the job, as it should.
      while (static_cast<int>(workers.size()) < options_.workers &&
             !queue.empty()) {
        spawn();
      }
      require(!workers.empty(), "serve: no workers left and dice remain");
      for (auto& w : workers) assign(*w);

      std::vector<pollfd> fds;
      fds.reserve(workers.size());
      for (const auto& w : workers) {
        fds.push_back({w->from_child.get(), POLLIN, 0});
      }
      // With a cancel check installed, wake periodically so a cancellation
      // does not wait on the next verdict of a slow die.
      const int timeout_ms = cancel_check ? 200 : -1;
      int rc = ::poll(fds.data(), fds.size(), timeout_ms);
      if (rc < 0 && errno == EINTR) continue;
      if (rc < 0) {
        throw IoError(format("serve: poll: %s", errno_message(errno).c_str()));
      }

      // Walk backwards: worker_died() erases from `workers`, and handling one
      // fd must not shift the indices of the ones still pending.
      for (size_t i = fds.size(); i-- > 0;) {
        if (fds[i].revents == 0) continue;
        handle_frame(i);
        if (remaining == 0) break;
      }
    }
  } catch (...) {
    kill_fleet();
    throw;
  }

  // Graceful shutdown: EOF on stdin is the worker's exit signal.
  for (auto& w : workers) w->to_child.reset();
  for (auto& w : workers) {
    // Drain whatever the worker flushed before exiting (a final shard-done).
    Frame frame;
    try {
      while (read_frame(w->from_child.get(), &frame)) {
      }
    } catch (const Error&) {
    }
    w->from_child.reset();
    reap(w->pid);
  }

  if (sink) sink->sync();
  report.aggregate = agg.aggregate();
  return report;
}

}  // namespace rotsv
