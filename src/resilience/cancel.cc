#include "resilience/cancel.h"

#include <limits>
#include <string>

namespace sparsedet::resilience {

Deadline Deadline::AfterMillis(std::int64_t ms) {
  return At(std::chrono::steady_clock::now() + std::chrono::milliseconds(ms));
}

Deadline Deadline::At(std::chrono::steady_clock::time_point tp) {
  Deadline deadline;
  deadline.set_ = true;
  deadline.tp_ = tp;
  return deadline;
}

bool Deadline::Expired() const {
  return set_ && std::chrono::steady_clock::now() >= tp_;
}

std::int64_t Deadline::RemainingMillis() const {
  if (!set_) return std::numeric_limits<std::int64_t>::max();
  const auto remaining = tp_ - std::chrono::steady_clock::now();
  const std::int64_t ms =
      std::chrono::duration_cast<std::chrono::milliseconds>(remaining)
          .count();
  return ms < 0 ? 0 : ms;
}

const char* CancelReasonName(CancelReason reason) {
  switch (reason) {
    case CancelReason::kNone:
      return "none";
    case CancelReason::kDeadline:
      return "deadline";
    case CancelReason::kWatchdog:
      return "watchdog";
    case CancelReason::kShutdown:
      return "shutdown";
    case CancelReason::kUser:
      return "user";
    case CancelReason::kDisconnect:
      return "disconnect";
  }
  return "?";
}

const char* CancelErrorCode(CancelReason reason) {
  switch (reason) {
    case CancelReason::kDeadline:
      return "deadline_exceeded";
    case CancelReason::kWatchdog:
      return "watchdog_cancelled";
    case CancelReason::kDisconnect:
      return "disconnected";
    default:
      return "cancelled";
  }
}

void CancelToken::Cancel(CancelReason reason) const {
  int expected = static_cast<int>(CancelReason::kNone);
  reason_.compare_exchange_strong(expected, static_cast<int>(reason),
                                  std::memory_order_release,
                                  std::memory_order_relaxed);
}

bool CancelToken::IsCancelled() const {
  if (reason_.load(std::memory_order_acquire) !=
      static_cast<int>(CancelReason::kNone)) {
    return true;
  }
  return parent_ != nullptr && parent_->IsCancelled();
}

CancelReason CancelToken::reason() const {
  const int own = reason_.load(std::memory_order_acquire);
  if (own != static_cast<int>(CancelReason::kNone)) {
    return static_cast<CancelReason>(own);
  }
  return parent_ != nullptr ? parent_->reason() : CancelReason::kNone;
}

Deadline CancelToken::EffectiveDeadline() const {
  Deadline soonest = deadline_;
  for (const CancelToken* token = parent_.get(); token != nullptr;
       token = token->parent_.get()) {
    const Deadline& d = token->deadline_;
    if (!d.set()) continue;
    if (!soonest.set() || d.time_point() < soonest.time_point()) soonest = d;
  }
  return soonest;
}

void CancelToken::ThrowIfCancelled() const {
  for (const CancelToken* token = this; token != nullptr;
       token = token->parent_.get()) {
    const int flagged = token->reason_.load(std::memory_order_acquire);
    if (flagged != static_cast<int>(CancelReason::kNone)) {
      const auto reason = static_cast<CancelReason>(flagged);
      throw Cancelled(reason, std::string("cancelled (") +
                                  CancelReasonName(reason) + ")");
    }
    if (token->deadline_.Expired()) {
      token->Cancel(CancelReason::kDeadline);
      throw Cancelled(CancelReason::kDeadline, "cancelled (deadline)");
    }
  }
}

namespace {

thread_local const CancelToken* tl_current_token = nullptr;
// Amortizes the deadline clock read in CancellationPoint().
thread_local unsigned tl_check_tick = 0;

}  // namespace

ScopedCancelScope::ScopedCancelScope(const CancelToken* token)
    : previous_(tl_current_token) {
  tl_current_token = token;
}

ScopedCancelScope::~ScopedCancelScope() { tl_current_token = previous_; }

const CancelToken* CurrentCancelToken() { return tl_current_token; }

void CancellationPoint() {
  const CancelToken* token = tl_current_token;
  if (token == nullptr) return;
  if (token->IsCancelled() || (++tl_check_tick & 0x3fU) == 0) {
    token->ThrowIfCancelled();
  }
}

bool CancellationRequested() {
  const CancelToken* token = tl_current_token;
  return token != nullptr && token->IsCancelled();
}

}  // namespace sparsedet::resilience
