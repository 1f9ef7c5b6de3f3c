#ifndef QUAESTOR_COMMON_REQUEST_CONTEXT_H_
#define QUAESTOR_COMMON_REQUEST_CONTEXT_H_

#include <string_view>

#include "common/clock.h"

namespace quaestor {

/// Scheduling class of a request under overload. Lower numeric value means
/// more important: the admission controller sheds the least important
/// classes first so the invalidation pipeline and cheap revalidations
/// survive while expensive cache-miss queries are dropped.
enum class Priority {
  /// Invalidation / purge traffic. Dropping it converts a load problem
  /// into a correctness problem, so it is never shed by queue delay.
  kCritical = 0,
  /// Conditional revalidations (If-None-Match) — usually a cheap 304.
  kHigh = 1,
  /// Plain reads and queries.
  kNormal = 2,
  /// Writes — retried by clients, so they are shed first.
  kLow = 3,
};

constexpr std::string_view PriorityToString(Priority p) {
  switch (p) {
    case Priority::kCritical:
      return "critical";
    case Priority::kHigh:
      return "high";
    case Priority::kNormal:
      return "normal";
    case Priority::kLow:
      return "low";
  }
  return "unknown";
}

/// Per-request metadata threaded from the client through the cache tiers
/// into the origin server. A default-constructed context carries no
/// deadline and normal priority, which every call site treats as "feature
/// off": the request behaves exactly as it did before deadlines existed.
struct RequestContext {
  /// Absolute deadline in the issuing clock's domain (microseconds).
  /// 0 means "no deadline".
  Micros deadline = 0;
  Priority priority = Priority::kNormal;

  bool has_deadline() const { return deadline > 0; }

  /// True if the deadline has passed at `now`.
  bool Expired(Micros now) const { return has_deadline() && now >= deadline; }

  /// Time left before the deadline, clamped at 0. Returns a very large
  /// value when no deadline is set so comparisons like
  /// `Remaining(now) < cost` stay simple at call sites.
  Micros Remaining(Micros now) const {
    if (!has_deadline()) return kNoDeadlineRemaining;
    return deadline > now ? deadline - now : 0;
  }

  static constexpr Micros kNoDeadlineRemaining =
      static_cast<Micros>(1) << 62;

  static RequestContext WithTimeout(Micros now, Micros timeout,
                                    Priority priority = Priority::kNormal) {
    RequestContext ctx;
    ctx.deadline = now + timeout;
    ctx.priority = priority;
    return ctx;
  }
};

}  // namespace quaestor

#endif  // QUAESTOR_COMMON_REQUEST_CONTEXT_H_
