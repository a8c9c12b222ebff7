#include "serve/server.h"

#include <bit>
#include <cmath>
#include <cstring>

#include "common/faultpoint.h"
#include "common/string_util.h"
#include "core/classifier.h"

namespace crossmine::serve {

namespace {

// Fault points on the two internal seams of the request path: admission
// (request parsed, about to queue) and execution (worker about to run the
// prediction). Both map an injected fault to a clean wire error — the
// request always gets an answer.
FaultPoint fp_admit("serve.admit");
FaultPoint fp_execute("serve.execute");

}  // namespace

// ---------------------------------------------------------------------------
// LatencyHistogram

void LatencyHistogram::Record(double seconds) {
  if (seconds < 0) seconds = 0;
  uint64_t us = static_cast<uint64_t>(seconds * 1e6);
  int bucket = us == 0 ? 0 : std::bit_width(us) - 1;
  if (bucket >= kBuckets) bucket = kBuckets - 1;
  buckets_[bucket].fetch_add(1, std::memory_order_relaxed);
}

uint64_t LatencyHistogram::count() const {
  uint64_t total = 0;
  for (const auto& b : buckets_) total += b.load(std::memory_order_relaxed);
  return total;
}

double LatencyHistogram::Quantile(double q) const {
  uint64_t counts[kBuckets];
  uint64_t total = 0;
  for (int i = 0; i < kBuckets; ++i) {
    counts[i] = buckets_[i].load(std::memory_order_relaxed);
    total += counts[i];
  }
  if (total == 0) return 0.0;
  if (q < 0) q = 0;
  if (q > 1) q = 1;
  uint64_t rank = static_cast<uint64_t>(std::ceil(q * static_cast<double>(total)));
  if (rank == 0) rank = 1;
  uint64_t seen = 0;
  for (int i = 0; i < kBuckets; ++i) {
    seen += counts[i];
    if (seen >= rank) {
      // Geometric midpoint of [2^i, 2^(i+1)) µs; bucket 0 is [0, 2) µs.
      double us = i == 0 ? 1.0 : std::exp2(i + 0.5);
      return us * 1e-6;
    }
  }
  return std::exp2(kBuckets - 1) * 1e-6;
}

void LatencyHistogram::Reset() {
  for (auto& b : buckets_) b.store(0, std::memory_order_relaxed);
}

// ---------------------------------------------------------------------------
// PredictionServer

namespace {

const char* const kVerbCounterKeys[] = {
    "serve.requests.predict", "serve.requests.predict_batch",
    "serve.requests.explain", "serve.requests.stats",
    "serve.requests.health",
};

}  // namespace

void TouchServeMetrics(MetricsRegistry* registry) {
  if (registry == nullptr) return;
  registry->counter("serve.requests");
  registry->counter("serve.requests.invalid");
  for (const char* key : kVerbCounterKeys) registry->counter(key);
  registry->counter("serve.responses_ok");
  registry->counter("serve.errors");
  registry->counter("serve.sheds");
  registry->counter("serve.deadline_exceeded");
  registry->counter("serve.rejected_unavailable");
  registry->counter("serve.batches");
  registry->counter("serve.batched_requests");
  registry->counter("serve.predicted_ids");
}

PredictionServer::PredictionServer(const Database* db, ServerOptions options)
    : db_(db), options_(std::move(options)) {
  TouchServeMetrics(&metrics_);
  TouchStandardPredictMetrics(&metrics_);
  c_requests_ = metrics_.counter("serve.requests");
  c_invalid_ = metrics_.counter("serve.requests.invalid");
  for (int v = 0; v < 5; ++v) {
    c_verb_[v] = metrics_.counter(kVerbCounterKeys[v]);
  }
  c_ok_ = metrics_.counter("serve.responses_ok");
  c_errors_ = metrics_.counter("serve.errors");
  c_sheds_ = metrics_.counter("serve.sheds");
  c_deadline_exceeded_ = metrics_.counter("serve.deadline_exceeded");
  c_unavailable_ = metrics_.counter("serve.rejected_unavailable");
  c_batches_ = metrics_.counter("serve.batches");
  c_batched_requests_ = metrics_.counter("serve.batched_requests");
  c_predicted_ids_ = metrics_.counter("serve.predicted_ids");
}

PredictionServer::~PredictionServer() { Drain(); }

Status PredictionServer::AddModel(std::string name,
                                  std::unique_ptr<RelationalClassifier> model) {
  if (model == nullptr) {
    return Status::InvalidArgument("null model");
  }
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (started_) {
      return Status::FailedPrecondition(
          "models must be registered before Start (the roster is read "
          "lock-free on the request path)");
    }
  }
  for (const auto& [existing, _] : models_) {
    if (existing == name) {
      return Status::AlreadyExists(
          StrFormat("model \"%s\" already registered", name.c_str()));
    }
  }
  // Validate-once serving contract: after this check, per-request work
  // against the pinned database is only a bounds check away from Predict.
  CM_RETURN_IF_ERROR(model->ValidateForPredict(*db_));
  model->set_metrics(&metrics_);
  models_.emplace_back(std::move(name), std::move(model));
  return Status::OK();
}

Status PredictionServer::Start() {
  std::lock_guard<std::mutex> lock(mu_);
  if (started_) {
    return Status::FailedPrecondition("server already started");
  }
  if (models_.empty()) {
    return Status::FailedPrecondition("no models registered");
  }
  pool_ = std::make_unique<ThreadPool>(ThreadPool::Resolve(options_.threads));
  started_ = true;
  dispatcher_ = std::thread([this] { DispatcherLoop(); });
  return Status::OK();
}

std::string PredictionServer::Submit(const std::string& line) {
  return SubmitAsync(line).get();
}

std::future<std::string> PredictionServer::SubmitAsync(
    const std::string& line) {
  c_requests_->Add();
  std::promise<std::string> inline_promise;
  std::future<std::string> inline_future = inline_promise.get_future();

  StatusOr<Request> parsed = ParseRequest(line, options_.limits);
  if (!parsed.ok()) {
    c_invalid_->Add();
    c_errors_->Add();
    inline_promise.set_value(EncodeError(parsed.status(), ""));
    return inline_future;
  }
  Request& req = *parsed;
  c_verb_[static_cast<int>(req.verb)]->Add();

  // Inline verbs: answered from atomic state, never queued, so health and
  // stats stay responsive while the prediction queue is deep.
  if (req.verb == Verb::kStats) {
    c_ok_->Add();
    inline_promise.set_value(EncodeStats(StatsSnapshot(), req.req_id_json));
    return inline_future;
  }
  if (req.verb == Verb::kHealth) {
    c_ok_->Add();
    inline_promise.set_value(EncodeHealth(draining(), model_names(),
                                          queue_depth(), req.req_id_json));
    return inline_future;
  }

  if (draining()) {
    c_unavailable_->Add();
    c_errors_->Add();
    inline_promise.set_value(EncodeError(
        Status::Unavailable("server is draining"), req.req_id_json));
    return inline_future;
  }

  if (int err = fp_admit.Fire(); err != 0) {
    c_errors_->Add();
    inline_promise.set_value(EncodeError(
        Status::Unavailable(StrFormat("admission failed: %s",
                                      std::strerror(err))),
        req.req_id_json));
    return inline_future;
  }

  Pending p;
  p.admitted = std::chrono::steady_clock::now();
  int64_t deadline_ms =
      req.deadline_ms > 0 ? req.deadline_ms : options_.default_deadline_ms;
  if (deadline_ms > 0) {
    p.has_deadline = true;
    p.deadline = p.admitted + std::chrono::milliseconds(deadline_ms);
  }
  p.req = std::move(req);
  std::future<std::string> future = p.promise.get_future();
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (draining_.load(std::memory_order_acquire)) {
      c_unavailable_->Add();
      c_errors_->Add();
      p.promise.set_value(EncodeError(Status::Unavailable("server is draining"),
                                      p.req.req_id_json));
      return future;
    }
    if (queue_.size() >= static_cast<size_t>(options_.max_queue)) {
      // Shed, don't buffer: bounded queues are the overload contract.
      c_sheds_->Add();
      c_errors_->Add();
      p.promise.set_value(EncodeError(
          Status::ResourceExhausted(StrFormat(
              "admission queue full (%d requests)", options_.max_queue)),
          p.req.req_id_json));
      return future;
    }
    queue_.push_back(std::move(p));
    uint64_t depth = queue_.size();
    uint64_t hw = queue_highwater_.load(std::memory_order_relaxed);
    while (depth > hw && !queue_highwater_.compare_exchange_weak(
                             hw, depth, std::memory_order_relaxed)) {
    }
  }
  cv_.notify_one();
  return future;
}

void PredictionServer::DispatcherLoop() {
  for (;;) {
    std::vector<Pending> batch;
    {
      std::unique_lock<std::mutex> lock(mu_);
      cv_.wait(lock, [this] {
        return !queue_.empty() || draining_.load(std::memory_order_acquire);
      });
      if (queue_.empty()) return;  // draining and nothing left in flight
      size_t take = std::min(queue_.size(),
                             static_cast<size_t>(options_.batch_size));
      batch.reserve(take);
      for (size_t i = 0; i < take; ++i) {
        batch.push_back(std::move(queue_.front()));
        queue_.pop_front();
      }
    }

    c_batches_->Add();
    c_batched_requests_->Add(batch.size());

    // One response slot per request; deadline-expired requests answer
    // without costing a prediction, the rest fan across the pool. Each
    // task touches only its own slot, so results are independent of
    // scheduling — responses stay byte-identical at any thread count.
    std::vector<std::string> responses(batch.size());
    std::vector<std::function<void(int)>> tasks;
    auto now = std::chrono::steady_clock::now();
    for (size_t i = 0; i < batch.size(); ++i) {
      if (batch[i].has_deadline && now >= batch[i].deadline) {
        c_deadline_exceeded_->Add();
        responses[i] = EncodeError(
            Status::DeadlineExceeded(StrFormat(
                "deadline expired before execution (queued %.1f ms)",
                std::chrono::duration<double, std::milli>(now -
                                                          batch[i].admitted)
                    .count())),
            batch[i].req.req_id_json);
        continue;
      }
      tasks.push_back([this, &batch, &responses, i](int) {
        responses[i] = Execute(batch[i].req);
      });
    }
    if (!tasks.empty() && !pool_->RunTasks(tasks)) {
      // Pool already shut down (only possible once draining): reject the
      // batch rather than losing it.
      for (size_t i = 0; i < batch.size(); ++i) {
        if (responses[i].empty()) {
          c_unavailable_->Add();
          responses[i] =
              EncodeError(Status::Unavailable("worker pool shut down"),
                          batch[i].req.req_id_json);
        }
      }
    }
    for (size_t i = 0; i < batch.size(); ++i) {
      FinishResponse(&batch[i], std::move(responses[i]));
    }
  }
}

void PredictionServer::FinishResponse(Pending* p, std::string response) {
  latency_.Record(std::chrono::duration<double>(
                      std::chrono::steady_clock::now() - p->admitted)
                      .count());
  if (response.rfind("{\"ok\":true", 0) == 0) {
    c_ok_->Add();
  } else {
    c_errors_->Add();
  }
  p->promise.set_value(std::move(response));
}

std::string PredictionServer::Execute(const Request& req) const {
  if (int err = fp_execute.Fire(); err != 0) {
    return EncodeError(Status::Internal(StrFormat("execution failed: %s",
                                                  std::strerror(err))),
                       req.req_id_json);
  }
  switch (req.verb) {
    case Verb::kPredict:
    case Verb::kPredictBatch:
      return ExecutePredict(req);
    case Verb::kExplain:
      return ExecuteExplain(req);
    default:
      return EncodeError(Status::Internal("inline verb reached the queue"),
                         req.req_id_json);
  }
}

const RelationalClassifier* PredictionServer::FindModel(
    const std::string& name) const {
  if (models_.empty()) return nullptr;
  if (name.empty()) return models_.front().second.get();
  for (const auto& [n, m] : models_) {
    if (n == name) return m.get();
  }
  return nullptr;
}

std::string PredictionServer::ExecutePredict(const Request& req) const {
  const RelationalClassifier* model = FindModel(req.model);
  if (model == nullptr) {
    return EncodeError(Status::NotFound(StrFormat(
                           "no model named \"%s\"", req.model.c_str())),
                       req.req_id_json);
  }
  StatusOr<std::vector<ClassId>> pred = model->PredictBatchChecked(*db_, req.ids);
  if (!pred.ok()) {
    return EncodeError(pred.status(), req.req_id_json);
  }
  c_predicted_ids_->Add(req.ids.size());
  if (req.verb == Verb::kPredict) {
    return EncodePrediction((*pred)[0], req.req_id_json);
  }
  return EncodePredictions(*pred, req.req_id_json);
}

std::string PredictionServer::ExecuteExplain(const Request& req) const {
  const RelationalClassifier* model = FindModel(req.model);
  if (model == nullptr) {
    return EncodeError(Status::NotFound(StrFormat(
                           "no model named \"%s\"", req.model.c_str())),
                       req.req_id_json);
  }
  const auto* crossmine = dynamic_cast<const CrossMineClassifier*>(model);
  if (crossmine == nullptr) {
    return EncodeError(
        Status::FailedPrecondition(StrFormat(
            "model \"%s\" (%s) does not support explain",
            req.model.empty() ? models_.front().first.c_str()
                              : req.model.c_str(),
            model->name())),
        req.req_id_json);
  }
  TupleId id = req.ids[0];
  TupleId num_targets = db_->target_relation().num_tuples();
  if (id >= num_targets) {
    return EncodeError(
        Status::OutOfRange(StrFormat(
            "tuple id %u beyond target relation (%u tuples)", id,
            num_targets)),
        req.req_id_json);
  }
  CrossMineClassifier::Explanation ex = crossmine->Explain(*db_, id);
  std::string clause_text;
  if (ex.clause_index >= 0) {
    clause_text =
        crossmine->clauses()[static_cast<size_t>(ex.clause_index)].ToString(
            *db_);
  }
  return EncodeExplanation(ex.predicted, ex.clause_index, clause_text,
                           ex.satisfied, req.req_id_json);
}

void PredictionServer::BeginDrain() {
  {
    // Set under mu_: the dispatcher's wait predicate reads draining_, and a
    // store between its check and its sleep would lose this wakeup.
    std::lock_guard<std::mutex> lock(mu_);
    draining_.store(true, std::memory_order_release);
  }
  cv_.notify_all();
}

void PredictionServer::Drain() {
  BeginDrain();
  bool join_dispatcher = false;
  {
    std::lock_guard<std::mutex> lock(mu_);
    if (!started_) {
      // Never started: no dispatcher will ever serve the queue, so answer
      // everything waiting with UNAVAILABLE instead of hanging futures.
      while (!queue_.empty()) {
        Pending p = std::move(queue_.front());
        queue_.pop_front();
        c_unavailable_->Add();
        c_errors_->Add();
        p.promise.set_value(
            EncodeError(Status::Unavailable("server drained before Start"),
                        p.req.req_id_json));
      }
    } else {
      join_dispatcher = dispatcher_.joinable();
    }
  }
  if (join_dispatcher) {
    // Concurrent Drain calls serialize here so join() runs exactly once.
    std::lock_guard<std::mutex> lock(drain_mu_);
    if (dispatcher_.joinable()) dispatcher_.join();
  }
  if (pool_ != nullptr) pool_->Shutdown();
}

size_t PredictionServer::queue_depth() const {
  std::lock_guard<std::mutex> lock(mu_);
  return queue_.size();
}

std::vector<std::string> PredictionServer::model_names() const {
  std::vector<std::string> names;
  names.reserve(models_.size());
  for (const auto& [n, _] : models_) names.push_back(n);
  return names;
}

MetricsSnapshot PredictionServer::StatsSnapshot() const {
  MetricsSnapshot snap = metrics_.Snapshot();
  snap["serve.queue_depth"] = static_cast<double>(queue_depth());
  snap["serve.queue_highwater"] =
      static_cast<double>(queue_highwater_.load(std::memory_order_relaxed));
  snap["serve.latency_samples"] = static_cast<double>(latency_.count());
  snap["serve.latency_p50_ms"] = latency_.Quantile(0.50) * 1e3;
  snap["serve.latency_p90_ms"] = latency_.Quantile(0.90) * 1e3;
  snap["serve.latency_p99_ms"] = latency_.Quantile(0.99) * 1e3;
  return snap;
}

}  // namespace crossmine::serve
