#include "common/faultpoint.h"

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <thread>

#include "common/string_util.h"

namespace crossmine {

namespace {

/// Symbolic errno names accepted in plan actions. Numeric values are also
/// accepted, so this table only needs the names scripts actually use.
struct ErrnoName {
  const char* name;
  int value;
};

constexpr ErrnoName kErrnoNames[] = {
    {"EIO", EIO},           {"ENOSPC", ENOSPC},   {"ENOENT", ENOENT},
    {"EACCES", EACCES},     {"EBADF", EBADF},     {"EPIPE", EPIPE},
    {"ECONNRESET", ECONNRESET}, {"ECONNREFUSED", ECONNREFUSED},
    {"ECONNABORTED", ECONNABORTED}, {"EMFILE", EMFILE}, {"ENFILE", ENFILE},
    {"EINTR", EINTR},       {"EAGAIN", EAGAIN},   {"EINVAL", EINVAL},
    {"ENOMEM", ENOMEM},     {"EFBIG", EFBIG},     {"EDQUOT", EDQUOT},
    {"ETIMEDOUT", ETIMEDOUT},
};

bool ParseErrnoName(const std::string& token, int* out) {
  for (const ErrnoName& e : kErrnoNames) {
    if (token == e.name) {
      *out = e.value;
      return true;
    }
  }
  int64_t v = 0;
  if (ParseInt64(token, &v) && v > 0 && v < 4096) {
    *out = static_cast<int>(v);
    return true;
  }
  return false;
}

}  // namespace

// ---------------------------------------------------------------------------
// FaultPoint

FaultPoint::FaultPoint(const char* name) : name_(name) {
  FaultRegistry::Instance().Register(this);
}

FaultPoint::Action FaultPoint::Consume() {
  int64_t sleep_ms = 0;
  Action action;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!armed_.load(std::memory_order_relaxed)) return action;
    ++hits_seen_;
    if (hits_seen_ >= hit_ + count_ - 1) {
      // Last hit of the window (or already past it): disarm so later hits
      // return to the single-load fast path.
      armed_.store(false, std::memory_order_relaxed);
    }
    if (hits_seen_ < hit_ || hits_seen_ >= hit_ + count_) return action;
    action.err = err_;
    action.byte_limit = byte_limit_;
    sleep_ms = sleep_ms_;
  }
  // Sleep outside the lock: delay injection must not serialize unrelated
  // arms/disarms (and a kill-9 test parks here for hundreds of ms).
  if (sleep_ms > 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
  }
  return action;
}

void FaultPoint::Arm(int64_t hit, int64_t count, int err, int64_t sleep_ms,
                     int64_t byte_limit) {
  std::lock_guard<std::mutex> lock(mu_);
  hit_ = hit;
  count_ = count;
  err_ = err;
  sleep_ms_ = sleep_ms;
  byte_limit_ = byte_limit;
  hits_seen_ = 0;
  armed_.store(true, std::memory_order_relaxed);
}

void FaultPoint::Disarm() {
  std::lock_guard<std::mutex> lock(mu_);
  armed_.store(false, std::memory_order_relaxed);
  hits_seen_ = 0;
}

// ---------------------------------------------------------------------------
// FaultRegistry

FaultRegistry& FaultRegistry::Instance() {
  static FaultRegistry* registry = new FaultRegistry();
  return *registry;
}

void FaultRegistry::Register(FaultPoint* point) {
  std::lock_guard<std::mutex> lock(mu_);
  points_.push_back(point);
}

std::vector<std::string> FaultRegistry::Names() const {
  std::vector<std::string> names;
  {
    std::lock_guard<std::mutex> lock(mu_);
    names.reserve(points_.size());
    for (const FaultPoint* p : points_) names.emplace_back(p->name());
  }
  std::sort(names.begin(), names.end());
  return names;
}

FaultPoint* FaultRegistry::Find(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  for (FaultPoint* p : points_) {
    if (name == p->name()) return p;
  }
  return nullptr;
}

Status FaultRegistry::ApplyPlan(const std::string& plan) {
  for (const std::string& raw : Split(plan, ';')) {
    std::string entry{Trim(raw)};
    if (entry.empty()) continue;

    size_t eq = entry.find('=');
    if (eq == std::string::npos) {
      return Status::InvalidArgument(
          StrFormat("fault plan entry \"%s\": expected name[@hit]=action",
                    entry.c_str()));
    }
    std::string target = entry.substr(0, eq);
    std::string action = entry.substr(eq + 1);

    int64_t hit = 1;
    size_t at = target.find('@');
    if (at != std::string::npos) {
      if (!ParseInt64(target.substr(at + 1), &hit) || hit < 1) {
        return Status::InvalidArgument(
            StrFormat("fault plan entry \"%s\": bad hit index", entry.c_str()));
      }
      target.resize(at);
    }

    int64_t count = 1;
    size_t star = action.find('*');
    if (star != std::string::npos) {
      if (!ParseInt64(action.substr(star + 1), &count) || count < 1) {
        return Status::InvalidArgument(
            StrFormat("fault plan entry \"%s\": bad count", entry.c_str()));
      }
      action.resize(star);
    }

    int err = 0;
    int64_t sleep_ms = 0;
    int64_t byte_limit = -1;
    if (action.rfind("sleep:", 0) == 0) {
      if (!ParseInt64(action.substr(6), &sleep_ms) || sleep_ms < 0) {
        return Status::InvalidArgument(StrFormat(
            "fault plan entry \"%s\": bad sleep millis", entry.c_str()));
      }
    } else if (action.rfind("short:", 0) == 0) {
      if (!ParseInt64(action.substr(6), &byte_limit) || byte_limit < 0) {
        return Status::InvalidArgument(StrFormat(
            "fault plan entry \"%s\": bad short-write cap", entry.c_str()));
      }
    } else if (!ParseErrnoName(action, &err)) {
      return Status::InvalidArgument(StrFormat(
          "fault plan entry \"%s\": unknown action \"%s\"", entry.c_str(),
          action.c_str()));
    }

    FaultPoint* point = Find(target);
    if (point == nullptr) {
      std::string known = Join(Names(), ", ");
      return Status::InvalidArgument(
          StrFormat("fault plan entry \"%s\": no fault point named \"%s\" "
                    "(known: %s)",
                    entry.c_str(), target.c_str(), known.c_str()));
    }
    point->Arm(hit, count, err, sleep_ms, byte_limit);
  }
  return Status::OK();
}

Status FaultRegistry::ApplyPlanFromEnv() {
  const char* plan = std::getenv("CROSSMINE_FAULT_PLAN");
  if (plan == nullptr || plan[0] == '\0') return Status::OK();
  return ApplyPlan(plan);
}

void FaultRegistry::DisarmAll() {
  std::vector<FaultPoint*> points;
  {
    std::lock_guard<std::mutex> lock(mu_);
    points = points_;
  }
  for (FaultPoint* p : points) p->Disarm();
}

}  // namespace crossmine
