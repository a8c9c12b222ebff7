// The fault matrix: every registered fault point, armed at its call site,
// must yield a clean non-OK Status (persistence) or a clean wire error /
// connection close (serving) — never a crash, a hang, or silently wrong
// bytes. With no fault armed, behavior must be byte-identical to a run
// without the fault-injection substrate.
//
// The first test enumerates FaultRegistry::Names() against the list of
// points this file drives; registering a new point without adding a driver
// here is a test failure by construction.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include <filesystem>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/faultpoint.h"
#include "common/fs.h"
#include "common/shutdown.h"
#include "core/classifier.h"
#include "core/model_io.h"
#include "relational/csv.h"
#include "serve/protocol.h"
#include "storage/storage.h"
#include "serve/server.h"
#include "serve/tcp.h"
#include "test_util.h"

namespace crossmine {
namespace {

using serve::JsonValue;
using testing::Fig2Database;
using testing::MakeFig2Database;

FaultRegistry& Registry() { return FaultRegistry::Instance(); }

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream buf;
  buf << in.rdbuf();
  return buf.str();
}

void WriteFile(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out << bytes;
  ASSERT_TRUE(out.good()) << path;
}

/// A fresh per-test scratch directory under the gtest temp dir.
std::string ScratchDir(const char* tag) {
  std::string dir = ::testing::TempDir() + "/fault_matrix_" + tag;
  std::filesystem::remove_all(dir);
  std::filesystem::create_directories(dir);
  return dir;
}

bool HasTempLeftovers(const std::string& dir) {
  for (const auto& entry : std::filesystem::directory_iterator(dir)) {
    if (entry.path().filename().string().find(".tmp.") != std::string::npos) {
      return true;
    }
  }
  return false;
}

CrossMineClassifier TrainedModel(const Database& db) {
  CrossMineClassifier model;
  std::vector<TupleId> all;
  for (TupleId t = 0; t < db.target_relation().num_tuples(); ++t) {
    all.push_back(t);
  }
  CM_CHECK(model.Train(db, all).ok());
  return model;
}

/// Every fixture disarms on both ends so an assertion failure in one test
/// can never leave a plan armed for the next.
class FaultMatrixTest : public ::testing::Test {
 protected:
  void SetUp() override { Registry().DisarmAll(); }
  void TearDown() override { Registry().DisarmAll(); }
};

// ---------------------------------------------------------------------------
// Registry completeness: the matrix below must cover every linked-in point.

TEST_F(FaultMatrixTest, EveryRegisteredPointHasAMatrixDriver) {
  const std::set<std::string> covered = {
      "columnar.load.mmap",  "columnar.load.open",  "columnar.load.read",
      "columnar.save.fsync", "columnar.save.open",  "columnar.save.rename",
      "columnar.save.write", "csv.data.open",       "csv.data.read",
      "csv.schema.open",     "csv.schema.read",     "csv.save.fsync",
      "csv.save.open",       "csv.save.rename",     "csv.save.write",
      "model_io.load.open",  "model_io.load.read",  "model_io.save.fsync",
      "model_io.save.open",  "model_io.save.rename","model_io.save.write",
      "serve.admit",         "serve.execute",       "tcp.accept",
      "tcp.accept.poll",     "tcp.conn.read",       "tcp.send",
  };
  for (const std::string& name : Registry().Names()) {
    EXPECT_TRUE(covered.count(name) > 0)
        << "fault point '" << name
        << "' is registered but has no driver in fault_matrix_test.cc — "
           "add one (injected fault must produce a clean non-OK Status or "
           "wire error)";
  }
  for (const std::string& name : covered) {
    EXPECT_NE(Registry().Find(name), nullptr)
        << "expected fault point '" << name << "' is not registered";
  }
}

TEST_F(FaultMatrixTest, PlanParsingRejectsBadInput) {
  EXPECT_FALSE(Registry().ApplyPlan("no.such.point=EIO").ok());
  EXPECT_FALSE(Registry().ApplyPlan("csv.schema.open").ok());
  EXPECT_FALSE(Registry().ApplyPlan("csv.schema.open=NOT_AN_ERRNO").ok());
  EXPECT_FALSE(Registry().ApplyPlan("csv.schema.open@zero=EIO").ok());
  EXPECT_TRUE(Registry().ApplyPlan("").ok());
  // Multi-entry plans arm every named point.
  ASSERT_TRUE(
      Registry().ApplyPlan("csv.schema.open@5=EIO;model_io.load.open@5=EIO")
          .ok());
  Registry().DisarmAll();
}

// ---------------------------------------------------------------------------
// Persistence: model save / load.

TEST_F(FaultMatrixTest, ModelSaveFaultsLeaveOldFileIntact) {
  Fig2Database fig = MakeFig2Database();
  CrossMineClassifier model = TrainedModel(fig.db);
  std::string dir = ScratchDir("model_save");
  std::string path = dir + "/model.cmm";

  ASSERT_TRUE(SaveModel(model, fig.db, path).ok());
  std::string baseline = ReadFile(path);
  ASSERT_FALSE(baseline.empty());

  for (const char* point : {"model_io.save.open", "model_io.save.write",
                            "model_io.save.fsync", "model_io.save.rename"}) {
    ASSERT_TRUE(Registry().ApplyPlan(std::string(point) + "@1=EIO").ok());
    Status st = SaveModel(model, fig.db, path);
    EXPECT_FALSE(st.ok()) << point << " armed but SaveModel succeeded";
    EXPECT_EQ(ReadFile(path), baseline)
        << point << ": failed save must leave the previous model intact";
    EXPECT_FALSE(HasTempLeftovers(dir))
        << point << ": failed save leaked a temp file";
    Registry().DisarmAll();
    // Disarmed rerun: byte-identical to the baseline save.
    EXPECT_TRUE(SaveModel(model, fig.db, path).ok()) << point;
    EXPECT_EQ(ReadFile(path), baseline) << point;
  }
  EXPECT_TRUE(LoadModel(fig.db, path).ok());
}

TEST_F(FaultMatrixTest, ModelLoadFaultsFailCleanly) {
  Fig2Database fig = MakeFig2Database();
  CrossMineClassifier model = TrainedModel(fig.db);
  std::string path = ScratchDir("model_load") + "/model.cmm";
  ASSERT_TRUE(SaveModel(model, fig.db, path).ok());

  for (const char* point : {"model_io.load.open", "model_io.load.read"}) {
    ASSERT_TRUE(Registry().ApplyPlan(std::string(point) + "@1=EACCES").ok());
    StatusOr<CrossMineClassifier> loaded = LoadModel(fig.db, path);
    EXPECT_FALSE(loaded.ok()) << point << " armed but LoadModel succeeded";
    Registry().DisarmAll();
    EXPECT_TRUE(LoadModel(fig.db, path).ok()) << point;
  }
}

// ---------------------------------------------------------------------------
// Persistence: CSV dataset save / load.

TEST_F(FaultMatrixTest, CsvSaveFaultsLeaveOldFilesIntact) {
  Fig2Database fig = MakeFig2Database();
  std::string dir = ScratchDir("csv_save");
  ASSERT_TRUE(SaveDatabaseCsv(fig.db, dir).ok());
  std::string schema_baseline = ReadFile(dir + "/schema.txt");
  std::string account_baseline = ReadFile(dir + "/Account.csv");
  ASSERT_FALSE(schema_baseline.empty());
  ASSERT_FALSE(account_baseline.empty());

  for (const char* point : {"csv.save.open", "csv.save.write",
                            "csv.save.fsync", "csv.save.rename"}) {
    // Hit 1 is schema.txt — the first file of every dataset save.
    ASSERT_TRUE(Registry().ApplyPlan(std::string(point) + "@1=ENOSPC").ok());
    EXPECT_FALSE(SaveDatabaseCsv(fig.db, dir).ok()) << point;
    EXPECT_EQ(ReadFile(dir + "/schema.txt"), schema_baseline) << point;
    EXPECT_FALSE(HasTempLeftovers(dir)) << point;
    Registry().DisarmAll();
    EXPECT_TRUE(SaveDatabaseCsv(fig.db, dir).ok()) << point;
    EXPECT_EQ(ReadFile(dir + "/schema.txt"), schema_baseline) << point;
  }

  // Hit 2 lands on the first relation file; that file must stay intact too.
  ASSERT_TRUE(Registry().ApplyPlan("csv.save.rename@2=EIO").ok());
  EXPECT_FALSE(SaveDatabaseCsv(fig.db, dir).ok());
  EXPECT_EQ(ReadFile(dir + "/Account.csv"), account_baseline);
  EXPECT_FALSE(HasTempLeftovers(dir));
  Registry().DisarmAll();
  EXPECT_TRUE(SaveDatabaseCsv(fig.db, dir).ok());
  EXPECT_TRUE(LoadDatabaseCsv(dir).ok());
}

TEST_F(FaultMatrixTest, CsvLoadFaultsFailCleanly) {
  Fig2Database fig = MakeFig2Database();
  std::string dir = ScratchDir("csv_load");
  ASSERT_TRUE(SaveDatabaseCsv(fig.db, dir).ok());

  for (const char* point : {"csv.schema.open", "csv.schema.read",
                            "csv.data.open", "csv.data.read"}) {
    ASSERT_TRUE(Registry().ApplyPlan(std::string(point) + "@1=EIO").ok());
    StatusOr<Database> loaded = LoadDatabaseCsv(dir);
    EXPECT_FALSE(loaded.ok()) << point << " armed but LoadDatabaseCsv "
                                          "succeeded";
    Registry().DisarmAll();
    EXPECT_TRUE(LoadDatabaseCsv(dir).ok()) << point;
  }
}

// ---------------------------------------------------------------------------
// Persistence: `.cmdb` columnar save / load.

TEST_F(FaultMatrixTest, ColumnarSaveFaultsLeaveOldFileIntact) {
  Fig2Database fig = MakeFig2Database();
  std::string dir = ScratchDir("columnar_save");
  std::string path = dir + "/db.cmdb";
  ASSERT_TRUE(storage::SaveDatabaseColumnar(fig.db, path).ok());
  std::string baseline = ReadFile(path);
  ASSERT_FALSE(baseline.empty());

  for (const char* point :
       {"columnar.save.open", "columnar.save.write", "columnar.save.fsync",
        "columnar.save.rename"}) {
    ASSERT_TRUE(Registry().ApplyPlan(std::string(point) + "@1=ENOSPC").ok());
    Status st = storage::SaveDatabaseColumnar(fig.db, path);
    EXPECT_FALSE(st.ok()) << point
                          << " armed but SaveDatabaseColumnar succeeded";
    EXPECT_EQ(ReadFile(path), baseline)
        << point << ": failed save must leave the previous file intact";
    EXPECT_FALSE(HasTempLeftovers(dir))
        << point << ": failed save leaked a temp file";
    Registry().DisarmAll();
    // Disarmed rerun: byte-identical to the baseline save.
    EXPECT_TRUE(storage::SaveDatabaseColumnar(fig.db, path).ok()) << point;
    EXPECT_EQ(ReadFile(path), baseline) << point;
  }
  EXPECT_TRUE(storage::OpenDatabaseColumnar(path).ok());
}

TEST_F(FaultMatrixTest, ColumnarLoadFaultsFailCleanly) {
  Fig2Database fig = MakeFig2Database();
  std::string path = ScratchDir("columnar_load") + "/db.cmdb";
  ASSERT_TRUE(storage::SaveDatabaseColumnar(fig.db, path).ok());

  for (const char* point :
       {"columnar.load.open", "columnar.load.mmap", "columnar.load.read"}) {
    ASSERT_TRUE(Registry().ApplyPlan(std::string(point) + "@1=EIO").ok());
    StatusOr<Database> loaded = storage::OpenDatabaseColumnar(path);
    EXPECT_FALSE(loaded.ok())
        << point << " armed but OpenDatabaseColumnar succeeded";
    EXPECT_EQ(loaded.status().code(), StatusCode::kIoError) << point;
    Registry().DisarmAll();
    EXPECT_TRUE(storage::OpenDatabaseColumnar(path).ok()) << point;
    // The facade surfaces the same failure: OpenDatabase sniffs the magic
    // out-of-band, so the injected fault hits the columnar loader itself.
    ASSERT_TRUE(Registry().ApplyPlan(std::string(point) + "@1=EIO").ok());
    EXPECT_FALSE(storage::OpenDatabase(path).ok()) << point;
    Registry().DisarmAll();
  }
}

TEST_F(FaultMatrixTest, HitWindowTargetsTheKthOperation) {
  Fig2Database fig = MakeFig2Database();
  std::string dir = ScratchDir("hit_window");
  ASSERT_TRUE(SaveDatabaseCsv(fig.db, dir).ok());

  // @2 with the default count of 1: first load clean, second fails, third
  // clean again (the armed window has passed and the point disarmed).
  ASSERT_TRUE(Registry().ApplyPlan("csv.schema.open@2=EACCES").ok());
  EXPECT_TRUE(LoadDatabaseCsv(dir).ok());
  EXPECT_FALSE(LoadDatabaseCsv(dir).ok());
  EXPECT_TRUE(LoadDatabaseCsv(dir).ok());
}

// ---------------------------------------------------------------------------
// Corruption: no byte pattern on disk may load as a wrong model.

TEST_F(FaultMatrixTest, EveryTruncationAndByteFlipOfModelIsRejected) {
  Fig2Database fig = MakeFig2Database();
  CrossMineClassifier model = TrainedModel(fig.db);
  std::string dir = ScratchDir("model_corruption");
  std::string good_path = dir + "/good.cmm";
  std::string bad_path = dir + "/bad.cmm";
  ASSERT_TRUE(SaveModel(model, fig.db, good_path).ok());
  std::string bytes = ReadFile(good_path);
  ASSERT_FALSE(bytes.empty());

  for (size_t len = 0; len < bytes.size(); ++len) {
    WriteFile(bad_path, bytes.substr(0, len));
    StatusOr<CrossMineClassifier> loaded = LoadModel(fig.db, bad_path);
    EXPECT_FALSE(loaded.ok())
        << "model truncated to " << len << " of " << bytes.size()
        << " bytes loaded successfully";
  }
  for (size_t i = 0; i < bytes.size(); ++i) {
    std::string flipped = bytes;
    flipped[i] = static_cast<char>(flipped[i] ^ 0xFF);
    WriteFile(bad_path, flipped);
    StatusOr<CrossMineClassifier> loaded = LoadModel(fig.db, bad_path);
    EXPECT_FALSE(loaded.ok())
        << "model with byte " << i << " flipped loaded successfully";
  }
  // The untouched file still loads — the rejections above are not a
  // broken loader.
  EXPECT_TRUE(LoadModel(fig.db, good_path).ok());
}

// ---------------------------------------------------------------------------
// Serving seams: injected faults become clean wire errors.

std::string WireErrorCode(const std::string& response) {
  StatusOr<JsonValue> v = serve::ParseJson(response);
  if (!v.ok() || v->kind != JsonValue::Kind::kObject) return "<unparseable>";
  const JsonValue* ok = v->Find("ok");
  if (ok == nullptr || ok->kind != JsonValue::Kind::kBool) {
    return "<unparseable>";
  }
  if (ok->boolean) return "";
  const JsonValue* code = v->Find("code");
  return code != nullptr ? code->string : "<missing code>";
}

TEST_F(FaultMatrixTest, AdmitAndExecuteFaultsAnswerWithWireErrors) {
  Fig2Database fig = MakeFig2Database();
  serve::PredictionServer server(&fig.db, serve::ServerOptions{});
  ASSERT_TRUE(server
                  .AddModel("m", std::make_unique<CrossMineClassifier>(
                                     TrainedModel(fig.db)))
                  .ok());
  ASSERT_TRUE(server.Start().ok());
  const std::string req = "{\"verb\":\"predict\",\"id\":0}";

  ASSERT_TRUE(Registry().ApplyPlan("serve.admit@1=EIO").ok());
  EXPECT_EQ(WireErrorCode(server.Submit(req)), "UNAVAILABLE");
  EXPECT_EQ(WireErrorCode(server.Submit(req)), "");  // disarmed: clean

  ASSERT_TRUE(Registry().ApplyPlan("serve.execute@1=EIO").ok());
  EXPECT_EQ(WireErrorCode(server.Submit(req)), "INTERNAL");
  EXPECT_EQ(WireErrorCode(server.Submit(req)), "");
}

// ---------------------------------------------------------------------------
// TCP transport.

/// Minimal blocking line client with a receive timeout so a server bug
/// fails the test instead of hanging it.
class TestClient {
 public:
  ~TestClient() {
    if (fd_ >= 0) ::close(fd_);
  }

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    timeval tv = {10, 0};
    ::setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
    sockaddr_in addr = {};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<uint16_t>(port));
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) ==
           0;
  }

  bool SendLine(const std::string& line) {
    std::string framed = line + "\n";
    size_t off = 0;
    while (off < framed.size()) {
      ssize_t n = ::send(fd_, framed.data() + off, framed.size() - off,
                         MSG_NOSIGNAL);
      if (n < 0) {
        if (errno == EINTR) continue;
        return false;
      }
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Next response line; false on EOF, error, or the 10 s receive timeout.
  bool RecvLine(std::string* line) {
    for (;;) {
      size_t nl = buffer_.find('\n');
      if (nl != std::string::npos) {
        line->assign(buffer_, 0, nl);
        buffer_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      ssize_t n = ::read(fd_, chunk, sizeof(chunk));
      if (n < 0 && errno == EINTR) continue;
      if (n <= 0) return false;
      buffer_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// True if the server terminated the connection without sending more
  /// bytes. A server that aborts mid-read closes with our request still in
  /// its receive queue, which the kernel reports as RST (ECONNRESET) rather
  /// than a FIN/EOF — both count as "the server hung up on us".
  bool SawEof() {
    char c;
    for (;;) {
      ssize_t n = ::read(fd_, &c, 1);
      if (n < 0 && errno == EINTR) continue;
      return n == 0 || (n < 0 && errno == ECONNRESET);
    }
  }

 private:
  int fd_ = -1;
  std::string buffer_;
};

class TcpFaultTest : public FaultMatrixTest {
 protected:
  void StartServer(serve::TcpOptions tcp_options) {
    fig_ = std::make_unique<Fig2Database>(MakeFig2Database());
    server_ =
        std::make_unique<serve::PredictionServer>(&fig_->db,
                                                  serve::ServerOptions{});
    ASSERT_TRUE(server_
                    ->AddModel("m", std::make_unique<CrossMineClassifier>(
                                        TrainedModel(fig_->db)))
                    .ok());
    ASSERT_TRUE(server_->Start().ok());
    tcp_ = std::make_unique<serve::TcpServer>(server_.get(), tcp_options);
    ASSERT_TRUE(tcp_->Listen(0).ok());
    notifier_ = ShutdownNotifier::Install();
    notifier_->ResetForTesting();
    serve_thread_ = std::thread(
        [this] { serve_status_ = tcp_->ServeUntilShutdown(notifier_); });
  }

  /// Requests shutdown and returns the ServeUntilShutdown status.
  Status StopServer() {
    notifier_->RequestShutdown();
    return JoinServer();
  }

  /// Joins without requesting shutdown (for tests where the accept loop
  /// exits on its own).
  Status JoinServer() {
    if (serve_thread_.joinable()) serve_thread_.join();
    return serve_status_;
  }

  void TearDown() override {
    if (serve_thread_.joinable()) {
      notifier_->RequestShutdown();
      serve_thread_.join();
    }
    FaultMatrixTest::TearDown();
  }

  int port() const { return tcp_->port(); }

  std::unique_ptr<Fig2Database> fig_;
  std::unique_ptr<serve::PredictionServer> server_;
  std::unique_ptr<serve::TcpServer> tcp_;
  ShutdownNotifier* notifier_ = nullptr;
  std::thread serve_thread_;
  Status serve_status_;
};

TEST_F(TcpFaultTest, HealthySessionAndGracefulShutdown) {
  StartServer({});
  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  ASSERT_TRUE(client.SendLine("{\"verb\":\"health\"}"));
  std::string response;
  ASSERT_TRUE(client.RecvLine(&response));
  EXPECT_EQ(WireErrorCode(response), "");
  EXPECT_TRUE(StopServer().ok());
  EXPECT_TRUE(client.SawEof());
}

TEST_F(TcpFaultTest, IdleTimeoutClosesSilentConnection) {
  serve::TcpOptions options;
  options.idle_timeout_ms = 100;
  StartServer(options);
  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  // Send nothing: the server must hang up on its own.
  EXPECT_TRUE(client.SawEof());
  // Active connections are untouched by the deadline as long as they talk.
  TestClient active;
  ASSERT_TRUE(active.Connect(port()));
  ASSERT_TRUE(active.SendLine("{\"verb\":\"health\"}"));
  std::string response;
  ASSERT_TRUE(active.RecvLine(&response));
  EXPECT_EQ(WireErrorCode(response), "");
  EXPECT_TRUE(StopServer().ok());
}

TEST_F(TcpFaultTest, MaxConnectionsShedsWithResourceExhausted) {
  serve::TcpOptions options;
  options.max_connections = 1;
  StartServer(options);

  TestClient first;
  ASSERT_TRUE(first.Connect(port()));
  ASSERT_TRUE(first.SendLine("{\"verb\":\"health\"}"));
  std::string response;
  ASSERT_TRUE(first.RecvLine(&response));  // first is now surely registered

  TestClient second;
  ASSERT_TRUE(second.Connect(port()));
  ASSERT_TRUE(second.RecvLine(&response));
  EXPECT_EQ(WireErrorCode(response), "RESOURCE_EXHAUSTED");
  EXPECT_TRUE(second.SawEof());

  // The surviving connection is unaffected.
  ASSERT_TRUE(first.SendLine("{\"verb\":\"health\"}"));
  ASSERT_TRUE(first.RecvLine(&response));
  EXPECT_EQ(WireErrorCode(response), "");
  EXPECT_TRUE(StopServer().ok());
}

TEST_F(TcpFaultTest, ShortWriteInjectionStillDeliversFullResponses) {
  StartServer({});
  // Cap every send at a single byte for the next 4096 sends: the response
  // writer must loop through partial writes and deliver every byte.
  ASSERT_TRUE(Registry().ApplyPlan("tcp.send=short:1*4096").ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  ASSERT_TRUE(client.SendLine("{\"verb\":\"predict\",\"id\":0}"));
  std::string response;
  ASSERT_TRUE(client.RecvLine(&response));
  EXPECT_EQ(WireErrorCode(response), "");
  Registry().DisarmAll();
  EXPECT_TRUE(StopServer().ok());
}

TEST_F(TcpFaultTest, SendFaultClosesConnectionServerSurvives) {
  StartServer({});
  ASSERT_TRUE(Registry().ApplyPlan("tcp.send@1=EPIPE").ok());
  TestClient victim;
  ASSERT_TRUE(victim.Connect(port()));
  ASSERT_TRUE(victim.SendLine("{\"verb\":\"health\"}"));
  EXPECT_TRUE(victim.SawEof());  // response write failed → clean close

  TestClient next;
  ASSERT_TRUE(next.Connect(port()));
  ASSERT_TRUE(next.SendLine("{\"verb\":\"health\"}"));
  std::string response;
  ASSERT_TRUE(next.RecvLine(&response));
  EXPECT_EQ(WireErrorCode(response), "");
  EXPECT_TRUE(StopServer().ok());
}

TEST_F(TcpFaultTest, ReadFaultClosesConnectionServerSurvives) {
  StartServer({});
  ASSERT_TRUE(Registry().ApplyPlan("tcp.conn.read@1=ECONNRESET").ok());
  TestClient victim;
  ASSERT_TRUE(victim.Connect(port()));
  ASSERT_TRUE(victim.SendLine("{\"verb\":\"health\"}"));
  EXPECT_TRUE(victim.SawEof());

  TestClient next;
  ASSERT_TRUE(next.Connect(port()));
  ASSERT_TRUE(next.SendLine("{\"verb\":\"health\"}"));
  std::string response;
  ASSERT_TRUE(next.RecvLine(&response));
  EXPECT_EQ(WireErrorCode(response), "");
  EXPECT_TRUE(StopServer().ok());
}

TEST_F(TcpFaultTest, TransientAcceptErrorKeepsServing) {
  StartServer({});
  // EMFILE on the accept leaves the pending connection in the backlog; the
  // loop logs, continues, and picks it up on the next iteration.
  ASSERT_TRUE(Registry().ApplyPlan("tcp.accept@1=EMFILE").ok());
  TestClient client;
  ASSERT_TRUE(client.Connect(port()));
  ASSERT_TRUE(client.SendLine("{\"verb\":\"health\"}"));
  std::string response;
  ASSERT_TRUE(client.RecvLine(&response));
  EXPECT_EQ(WireErrorCode(response), "");
  EXPECT_TRUE(StopServer().ok());
}

TEST_F(TcpFaultTest, AcceptPollFaultExitsCleanlyWithStatus) {
  // Armed before the accept loop starts: its first poll fails hard. The
  // server must return a non-OK Status — drained and joined, not crashed
  // or hung.
  ASSERT_TRUE(Registry().ApplyPlan("tcp.accept.poll@1=EIO").ok());
  StartServer({});
  Status st = JoinServer();
  EXPECT_FALSE(st.ok());
}

}  // namespace
}  // namespace crossmine
