// Deadlines and cooperative cancellation.
//
// A CancelToken is a latch shared between a coordinator (who cancels) and
// the code doing the work (who checks). Cancellation is cooperative: the
// solvers call CancellationPoint() inside their expensive loops, which
// consults a thread-local current token installed with ScopedCancelScope —
// the same install-point pattern obs uses for its global registry — so the
// numeric kernels stay free of any engine dependency.
//
// Cost model: CancellationPoint() with no token installed is one
// thread-local read. With a token it adds a relaxed atomic load; the
// deadline *clock* is only consulted every ~64 calls, so tokens whose
// deadline nobody has latched yet still expire promptly without a steady-
// clock read per loop iteration.
//
// Tokens chain: a per-attempt token created with a parent observes the
// parent's cancellation (and deadline) as well as its own, so cancelling
// one request's token stops every attempt spawned for it without touching
// unrelated work.
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>

#include "common/error.h"

namespace sparsedet::resilience {

// A point in time on the steady clock; default-constructed = unset (never
// expires). Value type, freely copyable.
class Deadline {
 public:
  Deadline() = default;

  static Deadline AfterMillis(std::int64_t ms);
  static Deadline At(std::chrono::steady_clock::time_point tp);

  bool set() const { return set_; }
  bool Expired() const;
  std::chrono::steady_clock::time_point time_point() const { return tp_; }
  // Milliseconds until expiry, clamped at 0. A very large value when unset.
  std::int64_t RemainingMillis() const;

 private:
  bool set_ = false;
  std::chrono::steady_clock::time_point tp_{};
};

enum class CancelReason : int {
  kNone = 0,
  kDeadline,    // the token's (or an ancestor's) deadline expired
  kWatchdog,    // the worker-pool watchdog declared the task stuck
  kShutdown,    // the owning component is tearing down
  kUser,        // explicit external cancellation
  kDisconnect,  // the network peer that asked for the work went away
};

// "deadline", "watchdog", ... for error messages and span fields.
const char* CancelReasonName(CancelReason reason);

// The "error_code" a cancelled request or long command reports:
// deadline_exceeded | watchdog_cancelled | disconnected | cancelled. The
// engine, optimize and adapt share it so clients branch on one vocabulary.
const char* CancelErrorCode(CancelReason reason);

// Thrown by CancellationPoint() / ThrowIfCancelled().
class Cancelled : public Error {
 public:
  Cancelled(CancelReason reason, const std::string& what)
      : Error(what), reason_(reason) {}
  CancelReason reason() const { return reason_; }

 private:
  CancelReason reason_;
};

class CancelToken {
 public:
  CancelToken() = default;
  // `allow_memo_inserts` marks a token that exists purely so completed
  // work can be abandoned (e.g. a network connection token cancelled on
  // disconnect), not to bound computation time. Solves running under such
  // a token may still populate the solver memo cache: a compute that
  // *finishes* under it is a pure function of its key and therefore just
  // as valid as an uncancelled one, while a compute interrupted mid-way
  // throws Cancelled and never produces a value to insert. Deadline-
  // bearing tokens always forbid inserts (the PR 5 structural guarantee),
  // and the permission only survives chaining if every ancestor grants it.
  explicit CancelToken(Deadline deadline,
                       std::shared_ptr<const CancelToken> parent = nullptr,
                       bool allow_memo_inserts = false)
      : deadline_(deadline),
        parent_(std::move(parent)),
        memo_inserts_allowed_(
            !deadline.set() &&
            (parent_ != nullptr ? parent_->memo_inserts_allowed_
                                : allow_memo_inserts)) {}

  CancelToken(const CancelToken&) = delete;
  CancelToken& operator=(const CancelToken&) = delete;

  // First reason wins; later calls are no-ops.
  void Cancel(CancelReason reason) const;

  // Flag-only check (this token or any ancestor); never reads the clock.
  bool IsCancelled() const;
  // kNone while not cancelled. Reflects an ancestor's reason if only the
  // ancestor is cancelled.
  CancelReason reason() const;

  const Deadline& deadline() const { return deadline_; }
  // True when work completed under this token may populate the solver
  // memo cache; see the constructor comment.
  bool memo_inserts_allowed() const { return memo_inserts_allowed_; }
  // The soonest deadline along the ancestor chain; unset if none carries
  // one.
  Deadline EffectiveDeadline() const;

  // Throws Cancelled if this token or an ancestor is cancelled, or if any
  // deadline along the chain has expired (latching kDeadline so subsequent
  // flag-only checks see it).
  void ThrowIfCancelled() const;

 private:
  // Mutable so expiry observed through a const chain can be latched.
  mutable std::atomic<int> reason_{0};
  Deadline deadline_;
  std::shared_ptr<const CancelToken> parent_;
  bool memo_inserts_allowed_ = false;
};

// Installs `token` as the current thread's cancellation target for the
// scope's lifetime; restores the previous target on destruction (scopes
// nest). `token` may be null (scope is then a no-op).
class ScopedCancelScope {
 public:
  explicit ScopedCancelScope(const CancelToken* token);
  ~ScopedCancelScope();

  ScopedCancelScope(const ScopedCancelScope&) = delete;
  ScopedCancelScope& operator=(const ScopedCancelScope&) = delete;

 private:
  const CancelToken* previous_;
};

// The token installed on this thread, or null.
const CancelToken* CurrentCancelToken();

// Cooperative check for solver loops: throws Cancelled when the current
// token is cancelled or (checked every ~64 calls) past its deadline. No-op
// when no token is installed.
void CancellationPoint();

// Flag-only, non-throwing form for skip-style loops.
bool CancellationRequested();

}  // namespace sparsedet::resilience
