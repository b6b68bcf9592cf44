// The one atomic publish every on-disk artifact goes through
// (common/image.h PublishFile): a write that comes up short or a rename
// that fails returns an error, leaves no temp file behind and leaves the
// old target intact — checked for the snapshot writer, the plan writer and
// the daemon's stats dump. Short writes are provoked with RLIMIT_FSIZE
// (SIGXFSZ ignored, so write(2) fails with EFBIG instead of killing the
// process), failed renames by publishing onto a directory.

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/resource.h>

#include <atomic>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/image.h"
#include "gen/figure1.h"
#include "graph/snapshot.h"
#include "query/query_parser.h"
#include "server/server.h"
#include "service/plan.h"
#include "service/prepared.h"

namespace whyq {
namespace {

namespace fs = std::filesystem;

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "whyq_image_" + name;
}

std::string ReadAll(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

// Caps the size of any file this process writes at `bytes` while in scope.
class FileSizeLimit {
 public:
  explicit FileSizeLimit(rlim_t bytes) {
    struct sigaction ignore{};
    ignore.sa_handler = SIG_IGN;
    ::sigaction(SIGXFSZ, &ignore, &old_action_);
    ::getrlimit(RLIMIT_FSIZE, &old_limit_);
    struct rlimit capped = old_limit_;
    capped.rlim_cur = bytes;
    ok_ = ::setrlimit(RLIMIT_FSIZE, &capped) == 0;
  }
  ~FileSizeLimit() {
    ::setrlimit(RLIMIT_FSIZE, &old_limit_);
    ::sigaction(SIGXFSZ, &old_action_, nullptr);
  }
  bool ok() const { return ok_; }

 private:
  struct sigaction old_action_{};
  struct rlimit old_limit_{};
  bool ok_ = false;
};

// The file-size cap of the short-write tests; every artifact is larger.
constexpr rlim_t kCapBytes = 100;

// One writer under test: publishes its artifact at `path`, returning
// whether it reports success (the stats dump reports nothing: true).
struct Writer {
  const char* name;
  std::function<bool(const std::string& path, std::string* error)> write;
};

std::vector<Writer> Writers() {
  auto fig = std::make_shared<Figure1>(MakeFigure1());
  bool complete = false;
  auto prepared =
      PrepareQuery(fig->graph, Query(fig->query), MatchSemantics::kIsomorphism,
                   8, /*cancel=*/nullptr, &complete);
  auto plan = std::make_shared<CompiledPlan>(
      PlanFromPrepared(*prepared, WriteQuery(fig->query, fig->graph), 8));
  const PlanStamp stamp{GraphFingerprint(fig->graph), fig->graph.identity(),
                        fig->graph.generation()};
  return {
      {"snapshot",
       [fig](const std::string& path, std::string* error) {
         return GraphSnapshot::Write(fig->graph, path, error);
       }},
      {"plan",
       [plan, stamp](const std::string& path, std::string* error) {
         return WritePlanFile(*plan, stamp, path, error);
       }},
      {"stats dump",
       [fig](const std::string& path, std::string*) {
         // A stopped daemon's Run() drains and writes its final dump.
         server::ServerConfig cfg;
         cfg.stats_json_path = path;
         server::WhyqServer daemon(
             {{"fig1", std::shared_ptr<const Graph>(fig, &fig->graph)}}, cfg);
         std::string start_error;
         EXPECT_TRUE(daemon.Start(&start_error)) << start_error;
         daemon.RequestStop();
         EXPECT_EQ(daemon.Run(nullptr), 0);
         return true;
       }},
  };
}

TEST(ImagePublishTest, EveryWriterPublishesAWholeFile) {
  for (const Writer& w : Writers()) {
    const std::string path = TempPath("whole");
    fs::remove_all(path);
    std::string error;
    ASSERT_TRUE(w.write(path, &error)) << w.name << ": " << error;
    EXPECT_GT(fs::file_size(path), kCapBytes) << w.name;
    EXPECT_FALSE(fs::exists(path + ".tmp")) << w.name;
  }
}

TEST(ImagePublishTest, ShortWriteFailsAndKeepsTheOldFile) {
  for (const Writer& w : Writers()) {
    const std::string path = TempPath("short");
    fs::remove_all(path);
    fs::remove(path + ".tmp");
    std::ofstream(path) << "old contents\n";
    std::string error;
    bool wrote = false;
    {
      FileSizeLimit limit(kCapBytes);
      ASSERT_TRUE(limit.ok()) << w.name;
      wrote = w.write(path, &error);
    }
    if (std::string(w.name) != "stats dump") {
      EXPECT_FALSE(wrote) << w.name;
      EXPECT_NE(error.find("short write"), std::string::npos)
          << w.name << ": " << error;
    }
    EXPECT_FALSE(fs::exists(path + ".tmp")) << w.name;
    EXPECT_EQ(ReadAll(path), "old contents\n") << w.name;
  }
}

TEST(ImagePublishTest, FailedRenameFailsAndKeepsTheOldTarget) {
  for (const Writer& w : Writers()) {
    // Renaming a file onto a directory fails.
    const std::string path = TempPath("onto_dir");
    fs::remove(path + ".tmp");
    fs::create_directories(path);
    std::string error;
    bool wrote = w.write(path, &error);
    if (std::string(w.name) != "stats dump") {
      EXPECT_FALSE(wrote) << w.name;
      EXPECT_NE(error.find("cannot rename"), std::string::npos)
          << w.name << ": " << error;
    }
    EXPECT_FALSE(fs::exists(path + ".tmp")) << w.name;
    EXPECT_TRUE(fs::is_directory(path)) << w.name;
  }
}

// Publishers of one path take turns on the locked temp file: every write
// succeeds and the survivor is a whole image.
TEST(ImagePublishTest, ConcurrentPublishersOfOnePathTakeTurns) {
  const Figure1 f = MakeFigure1();
  const std::string path = TempPath("concurrent");
  fs::remove_all(path);
  std::atomic<int> failed{0};
  std::vector<std::thread> publishers;
  for (int t = 0; t < 4; ++t) {
    publishers.emplace_back([&] {
      for (int i = 0; i < 25; ++i) {
        std::string error;
        if (!GraphSnapshot::Write(f.graph, path, &error)) failed++;
      }
    });
  }
  for (std::thread& t : publishers) t.join();
  EXPECT_EQ(failed.load(), 0);
  std::string error;
  EXPECT_NE(GraphSnapshot::Load(path, &error), nullptr) << error;
  EXPECT_FALSE(fs::exists(path + ".tmp"));
}

// The stats dumps' own call: not synced, same failure contract.
TEST(ImagePublishTest, UnsyncedPublishReportsItsErrors) {
  const std::string json = "{\"stats\":true}\n";
  const ImageRegion chunk = ImageRegion::Of(json);
  const std::string path = TempPath("unsynced");
  fs::remove_all(path);
  uint64_t bytes = 0;
  std::string error;
  ASSERT_TRUE(PublishFile(path, {&chunk, 1}, /*durable=*/false, "stats",
                          &bytes, &error))
      << error;
  EXPECT_EQ(bytes, json.size());
  EXPECT_EQ(ReadAll(path), json);
  {
    FileSizeLimit limit(4);
    ASSERT_TRUE(limit.ok());
    EXPECT_FALSE(PublishFile(path, {&chunk, 1}, /*durable=*/false, "stats",
                             &bytes, &error));
  }
  EXPECT_EQ(error.rfind("stats: short write", 0), 0u) << error;
  EXPECT_FALSE(fs::exists(path + ".tmp"));
  EXPECT_EQ(ReadAll(path), json);
}

}  // namespace
}  // namespace whyq
