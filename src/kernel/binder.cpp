#include "kernel/binder.h"

#include <utility>

#include "obs/metrics.h"
#include "obs/trace.h"

namespace eandroid::kernelsim {

namespace {
// Measured Binder round-trips on period hardware are tens of microseconds;
// we charge a flat cost plus a per-KB copy cost.
constexpr sim::Duration kPerTransaction = sim::micros(60);
constexpr sim::Duration kPerKb = sim::micros(8);
}  // namespace

BinderDriver::BinderDriver(sim::Simulator& sim, ProcessTable& processes)
    : sim_(sim), processes_(processes) {
  processes_.add_death_observer(
      [this](const ProcessInfo& info) { on_process_death(info); });
  // The SystemServer binds observability into the sim before constructing
  // its kernel members, so interning/registering here keeps transact()
  // allocation-free.
  if (auto* tr = sim_.trace()) txn_trace_name_ = tr->intern("binder.txn");
  if (auto* m = sim_.metrics()) {
    txn_metric_ = m->counter("binder.txns");
    fail_metric_ = m->counter("binder.txn_failures");
  }
}

BinderToken BinderDriver::mint_token(Pid owner) {
  const BinderToken token{next_token_++};
  token_owner_[token.id] = owner;
  tokens_by_pid_[owner].push_back(token.id);
  return token;
}

bool BinderDriver::link_to_death(BinderToken token, DeathRecipient recipient) {
  auto it = token_owner_.find(token.id);
  if (it == token_owner_.end() || !processes_.alive(it->second)) {
    // Matches Binder: linking to a dead (or reaped) object delivers the
    // obituary immediately.
    recipient(token);
    return false;
  }
  recipients_[token.id].push_back(std::move(recipient));
  return true;
}

void BinderDriver::unlink_to_death(BinderToken token) {
  recipients_.erase(token.id);
}

sim::Duration BinderDriver::transact(Pid from, Pid to, std::uint64_t bytes) {
  const sim::Duration cost =
      kPerTransaction + kPerKb * static_cast<std::int64_t>(bytes / 1024);
  auto& from_stats = per_pid_stats_[from];
  ++from_stats.count;
  from_stats.bytes += bytes;
  auto& to_stats = per_pid_stats_[to];
  ++to_stats.count;
  to_stats.bytes += bytes;
  ++total_.count;
  total_.bytes += bytes;
#if !defined(EANDROID_TRACE_COMPILED_OUT)
  // Open-coded rather than the bare macro: the uid lookup should not run
  // at all when no recorder is attached (or when tracing is compiled out).
  if (obs::TraceRecorder* tr = sim_.trace(); tr != nullptr) {
    const ProcessInfo* info = processes_.find(from);
    tr->record(obs::TraceCategory::kBinder, txn_trace_name_,
               info == nullptr ? -1 : info->uid.value,
               static_cast<std::int64_t>(bytes), sim_.now().micros());
  }
#endif
  if (auto* m = sim_.metrics()) m->add(txn_metric_);
  return cost;
}

bool BinderDriver::try_transact(Pid from, Pid to, std::uint64_t bytes,
                                sim::Duration* cost) {
  if (fail_budget_ > 0) {
    --fail_budget_;
    ++failed_;
    EANDROID_TRACE_LIT(sim_.trace(), sim_.now().micros(),
                       obs::TraceCategory::kBinder, "binder.txn_fail",
                       /*uid=*/-1, static_cast<std::int64_t>(bytes));
    if (auto* m = sim_.metrics()) m->add(fail_metric_);
    if (cost != nullptr) *cost = sim::Duration(0);
    return false;
  }
  const sim::Duration d = transact(from, to, bytes);
  if (cost != nullptr) *cost = d;
  return true;
}

bool BinderDriver::tokens_consistent() const {
  for (const auto& [id, owner] : token_owner_) {
    if (!processes_.alive(owner)) return false;
  }
  return true;
}

const TransactionStats& BinderDriver::stats_for(Pid pid) const {
  static const TransactionStats kEmpty;
  auto it = per_pid_stats_.find(pid);
  return it == per_pid_stats_.end() ? kEmpty : it->second;
}

void BinderDriver::on_process_death(const ProcessInfo& info) {
  auto it = tokens_by_pid_.find(info.pid);
  if (it == tokens_by_pid_.end()) return;
  const std::vector<std::uint64_t> token_ids = std::move(it->second);
  tokens_by_pid_.erase(it);
  for (std::uint64_t id : token_ids) {
    token_owner_.erase(id);
    auto rit = recipients_.find(id);
    if (rit == recipients_.end()) continue;
    const std::vector<DeathRecipient> rs = std::move(rit->second);
    recipients_.erase(rit);
    for (const auto& recipient : rs) recipient(BinderToken{id});
  }
}

}  // namespace eandroid::kernelsim
