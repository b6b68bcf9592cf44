// Loopback end-to-end tests for the whyq_server daemon: a real WhyqServer
// on an ephemeral port driven from blocking client sockets. Covers the ask
// path (id echo), pipelining, protocol errors, admission control under a
// wedged worker, graceful drain (also of clients still in the accept
// backlog), the idle reaper, the connection cap and TCP_NODELAY.
// Runs under TSan in CI — the loop thread, worker threads and the test
// thread all interleave here.
#include <gtest/gtest.h>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>

#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/net.h"
#include "common/timer.h"
#include "gen/bsbm.h"
#include "gen/figure1.h"
#include "matcher/matcher.h"
#include "query/query_parser.h"
#include "server/json.h"
#include "server/server.h"

namespace whyq::server {
namespace {

/// Blocking loopback client with a receive timeout, so a server bug fails
/// the test instead of hanging it.
class TestClient {
 public:
  explicit TestClient(uint16_t port) {
    std::string error;
    fd_ = ConnectTcp(port, &error);
    EXPECT_TRUE(fd_.valid()) << error;
    struct timeval tv = {20, 0};
    setsockopt(fd_.get(), SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }

  bool ok() const { return fd_.valid(); }

  bool Send(const std::string& data) {
    size_t off = 0;
    while (off < data.size()) {
      ssize_t n = send(fd_.get(), data.data() + off, data.size() - off,
                       MSG_NOSIGNAL);
      if (n <= 0) return false;
      off += static_cast<size_t>(n);
    }
    return true;
  }

  /// Reads one newline-terminated line (terminator stripped); false on
  /// EOF or timeout.
  bool ReadLine(std::string* line) {
    for (;;) {
      size_t nl = buf_.find('\n');
      if (nl != std::string::npos) {
        *line = buf_.substr(0, nl);
        buf_.erase(0, nl + 1);
        return true;
      }
      char chunk[4096];
      ssize_t n = recv(fd_.get(), chunk, sizeof(chunk), 0);
      if (n <= 0) return false;
      buf_.append(chunk, static_cast<size_t>(n));
    }
  }

  /// True when the server closed the connection (orderly EOF).
  bool ReadEof() {
    char c;
    return recv(fd_.get(), &c, 1, 0) == 0;
  }

  void Close() { fd_.Reset(); }

 private:
  UniqueFd fd_;
  std::string buf_;
};

JsonValue ParseLine(const std::string& line) {
  JsonValue v;
  std::string error;
  EXPECT_TRUE(ParseJson(line, kMaxJsonDepth, &v, &error))
      << line << " -> " << error;
  return v;
}

std::string StatusOf(const JsonValue& v) {
  const JsonValue* s = v.Find("status");
  return s != nullptr && s->is_string() ? s->as_string() : "<none>";
}

class ServerTest : public testing::Test {
 protected:
  ServerTest() {
    Figure1 f = MakeFigure1();
    query_text_ = WriteQuery(f.query, f.graph);
    graph_ = std::make_shared<const Graph>(std::move(f.graph));
    a5_ = f.a5;
    s5_ = f.s5;
  }

  ~ServerTest() override { StopServer(); }

  /// Starts a server over the Figure 1 graph (named "fig1") and runs its
  /// event loop on a background thread.
  void StartServer(ServerConfig cfg) {
    server_ = std::make_unique<WhyqServer>(
        std::vector<std::pair<std::string, std::shared_ptr<const Graph>>>{
            {"fig1", graph_}},
        std::move(cfg));
    std::string error;
    ASSERT_TRUE(server_->Start(&error)) << error;
    loop_ = std::thread([this] { rc_ = server_->Run(nullptr); });
  }

  /// Stops the loop (idempotent) and returns Run()'s exit code.
  int StopServer() {
    if (server_ == nullptr) return -1;
    server_->RequestStop();
    if (loop_.joinable()) loop_.join();
    return rc_;
  }

  /// A valid "why" request line against fig1.
  std::string WhyLine(const std::string& id) {
    return "{\"id\":" + id + ",\"question\":\"why\",\"query\":\"" +
           JsonEscape(query_text_) + "\",\"entities\":[" +
           JsonNumber(double(a5_)) + "," + JsonNumber(double(s5_)) +
           "],\"guard\":0}\n";
  }

  /// Polls `pred` until it holds or `ms` elapses.
  template <typename Pred>
  bool WaitUntil(Pred pred, double ms = 10000) {
    Timer t;
    while (!pred()) {
      if (t.ElapsedMillis() > ms) return false;
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    return true;
  }

  std::shared_ptr<const Graph> graph_;
  std::string query_text_;
  NodeId a5_ = kInvalidNode;
  NodeId s5_ = kInvalidNode;
  std::unique_ptr<WhyqServer> server_;
  std::thread loop_;
  int rc_ = -1;
};

TEST_F(ServerTest, AnswersWhyAndEchoesId) {
  StartServer(ServerConfig{});
  TestClient client(server_->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.Send(WhyLine("\"req-1\"")));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  JsonValue v = ParseLine(line);
  EXPECT_EQ(v.Find("id")->as_string(), "req-1");
  EXPECT_EQ(StatusOf(v), "ok");
  const JsonValue* answer = v.Find("answer");
  ASSERT_NE(answer, nullptr);
  EXPECT_TRUE(answer->Find("found")->as_bool());
  const JsonValue* stats = v.Find("stats");
  ASSERT_NE(stats, nullptr);
  EXPECT_GE(stats->Find("latency_ms")->as_number(), 0.0);
}

TEST_F(ServerTest, PipelinedRequestsAllAnswered) {
  StartServer(ServerConfig{});
  TestClient client(server_->port());
  ASSERT_TRUE(client.ok());
  // One write, several requests. Responses may interleave out of order
  // (workers finish independently), so collect ids as a set.
  std::string burst;
  for (int i = 0; i < 5; ++i) burst += WhyLine(std::to_string(i));
  ASSERT_TRUE(client.Send(burst));
  std::set<int> ids;
  for (int i = 0; i < 5; ++i) {
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line)) << "response " << i;
    JsonValue v = ParseLine(line);
    EXPECT_EQ(StatusOf(v), "ok");
    ids.insert(static_cast<int>(v.Find("id")->as_number()));
  }
  EXPECT_EQ(ids, (std::set<int>{0, 1, 2, 3, 4}));
}

TEST_F(ServerTest, MalformedAndInvalidLinesGetErrors) {
  StartServer(ServerConfig{});
  TestClient client(server_->port());
  ASSERT_TRUE(client.ok());
  std::string line;

  // Not JSON at all: id is unknowable, echoed as null.
  ASSERT_TRUE(client.Send("this is not json\n"));
  ASSERT_TRUE(client.ReadLine(&line));
  JsonValue v = ParseLine(line);
  EXPECT_EQ(StatusOf(v), "bad_request");
  EXPECT_TRUE(v.Find("id")->is_null());

  // Well-formed JSON, invalid request: the id must come back.
  ASSERT_TRUE(client.Send("{\"id\":9,\"question\":\"what\"}\n"));
  ASSERT_TRUE(client.ReadLine(&line));
  v = ParseLine(line);
  EXPECT_EQ(StatusOf(v), "bad_request");
  EXPECT_DOUBLE_EQ(v.Find("id")->as_number(), 9.0);

  // Unknown graph.
  std::string unknown = WhyLine("10");
  unknown.insert(unknown.size() - 2, ",\"graph\":\"nope\"");
  ASSERT_TRUE(client.Send(unknown));
  ASSERT_TRUE(client.ReadLine(&line));
  v = ParseLine(line);
  EXPECT_EQ(StatusOf(v), "bad_request");

  // Whitespace-only lines are ignored, not answered: the next real
  // request's response arrives first.
  ASSERT_TRUE(client.Send("\n   \n" + WhyLine("11")));
  ASSERT_TRUE(client.ReadLine(&line));
  v = ParseLine(line);
  EXPECT_DOUBLE_EQ(v.Find("id")->as_number(), 11.0);
  EXPECT_GE(server_->Snapshot().bad_lines, 3u);
}

TEST_F(ServerTest, UpdateVerbAppliesBatchesAndCountsThem) {
  StartServer(ServerConfig{});
  TestClient client(server_->port());
  ASSERT_TRUE(client.ok());
  std::string line;

  // A valid batch: applied inline, new generation reported.
  ASSERT_TRUE(client.Send(
      "{\"id\":1,\"op\":\"update\",\"graph\":\"fig1\","
      "\"ops\":[\"AN Paper\",\"AN Paper\"]}\n"));
  ASSERT_TRUE(client.ReadLine(&line));
  JsonValue v = ParseLine(line);
  EXPECT_EQ(StatusOf(v), "ok");
  EXPECT_DOUBLE_EQ(v.Find("id")->as_number(), 1.0);
  EXPECT_DOUBLE_EQ(v.Find("generation")->as_number(), 1.0);
  const JsonValue* applied = v.Find("applied");
  ASSERT_NE(applied, nullptr);
  EXPECT_DOUBLE_EQ(applied->Find("nodes_added")->as_number(), 2.0);

  // A batch that fails validation: typed rejection, nothing applied.
  ASSERT_TRUE(client.Send(
      "{\"id\":2,\"op\":\"update\",\"graph\":\"fig1\","
      "\"ops\":[\"DN 999999\"]}\n"));
  ASSERT_TRUE(client.ReadLine(&line));
  v = ParseLine(line);
  EXPECT_EQ(StatusOf(v), "bad_request");
  EXPECT_EQ(v.Find("update_status")->as_string(), "no-such-node");

  // Questions keep working against the updated graph.
  ASSERT_TRUE(client.Send(WhyLine("3")));
  ASSERT_TRUE(client.ReadLine(&line));
  v = ParseLine(line);
  EXPECT_EQ(StatusOf(v), "ok");

  ServerSnapshot snap = server_->Snapshot();
  EXPECT_EQ(snap.updates, 1u);
  EXPECT_GE(snap.bad_lines, 1u);
}

TEST_F(ServerTest, StatsQuestionReturnsDocument) {
  StartServer(ServerConfig{});
  TestClient client(server_->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.Send(WhyLine("1")));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  ASSERT_TRUE(client.Send("{\"id\":\"s\",\"question\":\"stats\"}\n"));
  ASSERT_TRUE(client.ReadLine(&line));
  JsonValue v = ParseLine(line);
  EXPECT_EQ(StatusOf(v), "ok");
  const JsonValue* stats = v.Find("stats");
  ASSERT_NE(stats, nullptr);
  const JsonValue* server = stats->Find("server");
  ASSERT_NE(server, nullptr);
  EXPECT_GE(server->Find("requests")->as_number(), 2.0);
  const JsonValue* service = stats->Find("service");
  ASSERT_NE(service, nullptr);
  EXPECT_NE(service->Find("fig1"), nullptr);
}

TEST_F(ServerTest, AdmissionControlRejectsWithRetryHint) {
  // One worker wedged on slow why-so-many questions over a BSBM graph,
  // capacity-2 queue: pipelining a burst must surface immediate
  // "rejected" responses carrying retry_after_ms while the admitted
  // requests still complete.
  auto big = std::make_shared<const Graph>(GenerateBsbm(BsbmConfig{300, 7}));
  Query q;
  {
    std::optional<SymbolId> product = big->node_labels().Find("Product");
    std::optional<SymbolId> review = big->node_labels().Find("Review");
    std::optional<SymbolId> rev_of = big->edge_labels().Find("reviewOf");
    ASSERT_TRUE(product && review && rev_of);
    QNodeId p = q.AddNode(*product);
    QNodeId r = q.AddNode(*review);
    q.AddEdge(r, p, *rev_of);
    q.SetOutput(p);
  }
  ServerConfig cfg;
  cfg.service.workers = 1;
  cfg.service.queue_capacity = 2;
  cfg.service.cache_capacity = 0;
  server_ = std::make_unique<WhyqServer>(
      std::vector<std::pair<std::string, std::shared_ptr<const Graph>>>{
          {"bsbm", big}},
      cfg);
  std::string error;
  ASSERT_TRUE(server_->Start(&error)) << error;
  loop_ = std::thread([this] { rc_ = server_->Run(nullptr); });

  std::string ask = "{\"question\":\"whysomany\",\"query\":\"" +
                    JsonEscape(WriteQuery(q, *big)) +
                    "\",\"target_k\":1,\"budget\":6}\n";
  TestClient client(server_->port());
  ASSERT_TRUE(client.ok());
  std::string burst;
  const int kBurst = 16;
  for (int i = 0; i < kBurst; ++i) burst += ask;
  ASSERT_TRUE(client.Send(burst));

  size_t ok = 0, rejected = 0;
  for (int i = 0; i < kBurst; ++i) {
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line)) << "response " << i;
    JsonValue v = ParseLine(line);
    if (StatusOf(v) == "rejected") {
      ++rejected;
      const JsonValue* retry = v.Find("retry_after_ms");
      ASSERT_NE(retry, nullptr);
      EXPECT_GT(retry->as_number(), 0.0);
    } else {
      EXPECT_EQ(StatusOf(v), "ok");
      ++ok;
    }
  }
  EXPECT_GT(rejected, 0u);
  EXPECT_GT(ok, 0u);
  ServerSnapshot snap = server_->Snapshot();
  EXPECT_EQ(snap.rejected, rejected);
  EXPECT_EQ(snap.admitted, ok);
}

TEST_F(ServerTest, GracefulDrainAnswersEveryAdmittedRequest) {
  StartServer(ServerConfig{});
  TestClient client(server_->port());
  ASSERT_TRUE(client.ok());
  const int kBurst = 6;
  std::string burst;
  for (int i = 0; i < kBurst; ++i) burst += WhyLine(std::to_string(i));
  ASSERT_TRUE(client.Send(burst));
  // Wait until every line is in (admitted or answered), then pull the rug.
  ASSERT_TRUE(WaitUntil(
      [&] { return server_->Snapshot().requests == uint64_t(kBurst); }));
  int rc = StopServer();
  EXPECT_EQ(rc, 0) << "drain must beat the deadline";
  // Every admitted request's response reaches the client, then EOF.
  std::set<int> ids;
  std::string line;
  while (client.ReadLine(&line)) {
    JsonValue v = ParseLine(line);
    EXPECT_EQ(StatusOf(v), "ok");
    ids.insert(static_cast<int>(v.Find("id")->as_number()));
  }
  EXPECT_EQ(ids.size(), size_t(kBurst));
  ServerSnapshot snap = server_->Snapshot();
  EXPECT_EQ(snap.admitted, uint64_t(kBurst));
  EXPECT_EQ(snap.responded, uint64_t(kBurst));
}

// Regression: a drain must end in FIN, not RST. A client that pipelines
// bytes past the shutdown point leaves them unread in the server's
// receive queue (the drain contract stops reading), and close(2) on such
// a socket makes the kernel answer RST — which can discard responses
// still in flight to the client. CloseConn therefore sweeps the receive
// queue before closing. Here one slow exact request keeps the drain
// busy, garbage sent mid-drain sits unread, and the response must
// survive the close, followed by an orderly EOF. (The original failure
// — a python client seeing ECONNRESET mid-burst — reproduces under
// parallel-ctest load in tools/check_server_smoke.sh, which is the
// enforcing check; this test pins the single-connection contract.)
TEST_F(ServerTest, DrainEndsInEofNotResetDespiteUnreadInput) {
  auto big = std::make_shared<const Graph>(GenerateBsbm(BsbmConfig{1200, 7}));
  Query q;
  {
    std::optional<SymbolId> product = big->node_labels().Find("Product");
    std::optional<SymbolId> review = big->node_labels().Find("Review");
    std::optional<SymbolId> offer = big->node_labels().Find("Offer");
    std::optional<SymbolId> rev_of = big->edge_labels().Find("reviewOf");
    std::optional<SymbolId> off_of = big->edge_labels().Find("offerOf");
    ASSERT_TRUE(product && review && offer && rev_of && off_of);
    QNodeId p = q.AddNode(*product);
    QNodeId r = q.AddNode(*review);
    QNodeId o = q.AddNode(*offer);
    q.AddEdge(r, p, *rev_of);
    q.AddEdge(o, p, *off_of);
    q.SetOutput(p);
  }
  ServerConfig cfg;
  cfg.service.workers = 1;
  cfg.service.cache_capacity = 0;
  server_ = std::make_unique<WhyqServer>(
      std::vector<std::pair<std::string, std::shared_ptr<const Graph>>>{
          {"bsbm", big}},
      cfg);
  std::string error;
  ASSERT_TRUE(server_->Start(&error)) << error;
  loop_ = std::thread([this] { rc_ = server_->Run(nullptr); });

  // Exact Why on an actual answer runs ~1 s here (the deadline caps it
  // under slow sanitizers), holding the drain open while we misbehave.
  Matcher m(*big);
  std::vector<NodeId> answers = m.MatchOutput(q);
  ASSERT_FALSE(answers.empty());
  std::string ask = "{\"id\":1,\"question\":\"why\",\"query\":\"" +
                    JsonEscape(WriteQuery(q, *big)) + "\",\"entities\":[" +
                    std::to_string(answers[0]) +
                    "],\"algo\":\"exact\",\"budget\":8,\"guard\":0,"
                    "\"deadline_ms\":2500}\n";
  TestClient client(server_->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.Send(ask));
  ASSERT_TRUE(
      WaitUntil([this] { return server_->Snapshot().admitted == 1; }));

  server_->RequestStop();
  // Let the loop enter the drain (it stops reading within a poll tick),
  // then land bytes it will never read.
  std::this_thread::sleep_for(std::chrono::milliseconds(250));
  ASSERT_TRUE(client.Send("{\"id\":2,\"question\":\"why\"}\n"));

  // Only read after the server is gone: an RST close would have discarded
  // the delivered-but-unread response from the client's receive queue,
  // while a FIN close leaves it readable followed by a clean EOF.
  EXPECT_EQ(StopServer(), 0);
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line)) << "response destroyed by the close";
  JsonValue v = ParseLine(line);
  EXPECT_EQ(StatusOf(v), "ok");
  EXPECT_EQ(v.Find("id")->as_number(), 1.0);
  EXPECT_FALSE(client.ReadLine(&line)) << "unexpected extra line: " << line;
  EXPECT_TRUE(client.ReadEof()) << "drain ended in RST, not FIN";
}

// A client that connected and wrote before the loop ever ran is still in
// the listener's accept backlog when the drain starts. Closing the
// listener over it would reset it; the drain accepts it and closes it
// like any other connection, with a FIN.
TEST_F(ServerTest, DrainClosesBackloggedClientsWithEof) {
  server_ = std::make_unique<WhyqServer>(
      std::vector<std::pair<std::string, std::shared_ptr<const Graph>>>{
          {"fig1", graph_}},
      ServerConfig());
  std::string error;
  ASSERT_TRUE(server_->Start(&error)) << error;
  TestClient client(server_->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.Send(WhyLine("1")));
  // Let loopback deliver the handshake and the line to the listener.
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  volatile std::sig_atomic_t stop = 1;
  EXPECT_EQ(server_->Run(&stop), 0);
  errno = 0;
  EXPECT_TRUE(client.ReadEof()) << "drain ended in " << std::strerror(errno)
                                << ", not EOF";
  ServerSnapshot snap = server_->Snapshot();
  EXPECT_EQ(snap.accepted, 1u);
  EXPECT_EQ(snap.closed, 1u);
  EXPECT_EQ(snap.requests, 0u);  // never read: it was not admitted
}

// Both ends of a loopback connection carry TCP_NODELAY: the client end
// from ConnectTcp, the server end from AcceptTcp (the daemon's accept).
TEST(NetTest, LoopbackSocketsSetTcpNoDelay) {
  std::string error;
  UniqueFd listener = ListenTcp(0, 4, &error);
  ASSERT_TRUE(listener.valid()) << error;
  UniqueFd client = ConnectTcp(LocalPort(listener.get()), &error);
  ASSERT_TRUE(client.valid()) << error;
  UniqueFd server;
  for (int i = 0; i < 1000 && !server.valid(); ++i) {
    server = AcceptTcp(listener.get());
    if (!server.valid()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  ASSERT_TRUE(server.valid());
  for (int fd : {client.get(), server.get()}) {
    int flag = 0;
    socklen_t len = sizeof(flag);
    ASSERT_EQ(getsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &flag, &len), 0);
    EXPECT_NE(flag, 0) << "fd " << fd;
  }
}

TEST_F(ServerTest, IdleConnectionsAreReaped) {
  ServerConfig cfg;
  cfg.idle_timeout_ms = 100;
  StartServer(cfg);
  TestClient client(server_->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(WaitUntil([&] { return server_->Snapshot().accepted == 1; }));
  // Never send a byte: the reaper must close us within a few ticks.
  EXPECT_TRUE(client.ReadEof());
  EXPECT_EQ(server_->Snapshot().idle_closed, 1u);
}

TEST_F(ServerTest, FailedStatsDumpLeavesNoTempFile) {
  // Renaming the dump onto a directory fails; the temp file must go and
  // the server must keep answering.
  std::string dir = ::testing::TempDir() + "whyq_server_stats_dir";
  std::filesystem::create_directories(dir);
  std::filesystem::remove(dir + ".tmp");
  ServerConfig cfg;
  cfg.stats_json_path = dir;
  cfg.stats_period_ms = 0;  // dump on every loop turn
  StartServer(cfg);
  TestClient client(server_->port());
  ASSERT_TRUE(client.ok());
  for (int i = 0; i < 2; ++i) {
    ASSERT_TRUE(client.Send(WhyLine(std::to_string(i))));
    std::string line;
    ASSERT_TRUE(client.ReadLine(&line));
    EXPECT_EQ(StatusOf(ParseLine(line)), "ok");
  }
  EXPECT_EQ(StopServer(), 0);  // runs the forced final dump
  EXPECT_FALSE(std::filesystem::exists(dir + ".tmp"));
  EXPECT_TRUE(std::filesystem::is_directory(dir));
}

TEST_F(ServerTest, ConnectionCapRefusesExtraClients) {
  ServerConfig cfg;
  cfg.max_connections = 1;
  StartServer(cfg);
  TestClient first(server_->port());
  ASSERT_TRUE(first.ok());
  ASSERT_TRUE(WaitUntil([&] { return server_->Snapshot().accepted == 1; }));
  TestClient second(server_->port());
  ASSERT_TRUE(second.ok());
  std::string line;
  ASSERT_TRUE(second.ReadLine(&line));
  JsonValue v = ParseLine(line);
  EXPECT_EQ(StatusOf(v), "rejected");
  EXPECT_TRUE(second.ReadEof());
  EXPECT_EQ(server_->Snapshot().refused, 1u);
  // The surviving connection still serves.
  ASSERT_TRUE(first.Send(WhyLine("1")));
  ASSERT_TRUE(first.ReadLine(&line));
  EXPECT_EQ(StatusOf(ParseLine(line)), "ok");
}

TEST_F(ServerTest, ClientDisconnectMidRequestIsHarmless) {
  StartServer(ServerConfig{});
  {
    TestClient client(server_->port());
    ASSERT_TRUE(client.ok());
    ASSERT_TRUE(client.Send(WhyLine("1")));
    // Close without reading the response: the completion must be dropped
    // on the floor, not crash the loop or leak the connection.
    client.Close();
  }
  ASSERT_TRUE(WaitUntil([&] { return server_->Snapshot().closed == 1; }));
  // The server remains healthy for the next client.
  TestClient client(server_->port());
  ASSERT_TRUE(client.ok());
  ASSERT_TRUE(client.Send(WhyLine("2")));
  std::string line;
  ASSERT_TRUE(client.ReadLine(&line));
  EXPECT_EQ(StatusOf(ParseLine(line)), "ok");
  EXPECT_EQ(StopServer(), 0);
}

// Golden bytes: every counter distinct, so a renamed, dropped or reordered
// key changes the document.
TEST(ServerSnapshotTest, ToJsonGoldenBytes) {
  ServerSnapshot s;
  s.accepted = 1;
  s.refused = 2;
  s.closed = 3;
  s.idle_closed = 4;
  s.requests = 5;
  s.responded = 6;
  s.admitted = 7;
  s.rejected = 8;
  s.bad_lines = 9;
  s.updates = 10;
  s.drained = 11;
  EXPECT_EQ(s.ToJson(),
            "{\"accepted\":1,\"refused\":2,\"closed\":3,"
            "\"idle_closed\":4,\"requests\":5,\"responded\":6,"
            "\"admitted\":7,\"rejected\":8,\"bad_lines\":9,"
            "\"updates\":10,\"drained\":11}");
}

// The per-request "stats" object of an executed response, pinned byte for
// byte (every trace stage distinct, work counters set too: they must not
// leak onto the wire).
TEST_F(ServerTest, WireStatsObjectGoldenBytes) {
  ServiceResponse r;
  r.cache_hit = true;
  r.latency_ms = 12.5;
  r.trace.queue_ms = 0.25;
  r.trace.parse_ms = 1.5;
  r.trace.prepare_ms = 2.75;
  r.trace.candidates_ms = 0.125;
  r.trace.answer_match_ms = 0.375;
  r.trace.path_index_ms = 0.0625;
  r.trace.search_ms = 7.875;
  r.trace.matcher_candidates = 21;
  r.trace.mbs_enumerated = 22;
  r.trace.ctx_hits = 23;
  std::string line = EncodeResponse("42", RequestKind::kWhy, r, *graph_);
  size_t at = line.find("\"stats\":");
  ASSERT_NE(at, std::string::npos) << line;
  EXPECT_EQ(line.substr(at),
            "\"stats\":{\"latency_ms\":12.5,\"cache_hit\":true,"
            "\"queue_ms\":0.25,\"parse_ms\":1.5,\"prepare_ms\":2.75,"
            "\"search_ms\":7.875}}\n");
}

}  // namespace
}  // namespace whyq::server
