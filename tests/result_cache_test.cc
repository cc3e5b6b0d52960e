// Correctness suite of the locsd result cache: the LRU mapping itself,
// byte-identical differential replies (cached vs fresh) across verbs
// and option sets, cache-counter accounting in STATS, and the epoch
// keying that guarantees an EVICT + re-LOAD of a *different* graph
// under the same name never serves a stale reply.

#include <gtest/gtest.h>

#include <fcntl.h>
#include <unistd.h>

#include <string>
#include <vector>

#include "gen/classic.h"
#include "graph/io.h"
#include "serve/admission.h"
#include "serve/result_cache.h"
#include "serve/session.h"
#include "store/graph_file.h"
#include "test_util.h"

namespace locs::serve {
namespace {

using testing::TempPath;

// ---------------------------------------------------------------------
// ResultCache unit behavior.

TEST(ResultCacheTest, LookupMissThenHit) {
  ResultCache cache(4);
  std::string reply;
  EXPECT_FALSE(cache.Lookup("k1", &reply));
  EXPECT_EQ(cache.Insert("k1", "OK one"), 0u);
  ASSERT_TRUE(cache.Lookup("k1", &reply));
  EXPECT_EQ(reply, "OK one");
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCacheTest, EvictsLeastRecentlyUsed) {
  ResultCache cache(2);
  EXPECT_EQ(cache.Insert("a", "A"), 0u);
  EXPECT_EQ(cache.Insert("b", "B"), 0u);
  // Touch "a" so "b" becomes the LRU victim.
  std::string reply;
  ASSERT_TRUE(cache.Lookup("a", &reply));
  EXPECT_EQ(cache.Insert("c", "C"), 1u);
  EXPECT_TRUE(cache.Lookup("a", &reply));
  EXPECT_FALSE(cache.Lookup("b", &reply));
  EXPECT_TRUE(cache.Lookup("c", &reply));
  EXPECT_EQ(cache.size(), 2u);
}

TEST(ResultCacheTest, ReinsertRefreshesWithoutEviction) {
  ResultCache cache(2);
  EXPECT_EQ(cache.Insert("a", "A1"), 0u);
  EXPECT_EQ(cache.Insert("a", "A2"), 0u);
  std::string reply;
  ASSERT_TRUE(cache.Lookup("a", &reply));
  EXPECT_EQ(reply, "A2");
  EXPECT_EQ(cache.size(), 1u);
}

TEST(ResultCacheTest, ZeroCapacityNeverStores) {
  ResultCache cache(0);
  EXPECT_EQ(cache.Insert("a", "A"), 0u);
  std::string reply;
  EXPECT_FALSE(cache.Lookup("a", &reply));
  EXPECT_EQ(cache.size(), 0u);
}

// ---------------------------------------------------------------------
// End-to-end: scripted sessions with and without the cache.

/// Like serve_session_test's fixture, plus a shared ResultCache wired
/// into the session options.
struct CacheFixture {
  GraphRegistry registry{16};
  AdmissionController admission;
  ServerMetrics metrics;
  ResultCache cache;
  SessionOptions options;

  explicit CacheFixture(size_t cache_entries = 64)
      : cache(cache_entries) {
    options.cache = &cache;
  }

  void Register(const std::string& name, const Graph& graph) {
    const std::string path = TempPath("cache_fix_" + name + ".limg");
    ASSERT_TRUE(store::SaveGraphFile(graph, path));
    IoError error;
    bool full = false;
    ASSERT_NE(registry.Load(name, path, &error, &full), nullptr)
        << error.message;
  }

  std::vector<std::string> Run(const std::vector<std::string>& script,
                               const std::string& tag) {
    const std::string in_path = TempPath("cache_in_" + tag);
    const std::string out_path = TempPath("cache_out_" + tag);
    {
      const int fd =
          ::open(in_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0600);
      EXPECT_GE(fd, 0);
      for (const std::string& line : script) {
        const std::string framed = line + "\n";
        EXPECT_EQ(::write(fd, framed.data(), framed.size()),
                  static_cast<ssize_t>(framed.size()));
      }
      ::close(fd);
    }
    const int in_fd = ::open(in_path.c_str(), O_RDONLY);
    const int out_fd =
        ::open(out_path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0600);
    EXPECT_GE(in_fd, 0);
    EXPECT_GE(out_fd, 0);
    {
      FdTransport transport(in_fd, out_fd);
      Session session(transport, registry, admission, metrics, options);
      session.Run();
    }
    ::close(in_fd);
    ::close(out_fd);

    std::vector<std::string> replies;
    const int read_fd = ::open(out_path.c_str(), O_RDONLY);
    EXPECT_GE(read_fd, 0);
    FdTransport reader(read_fd, -1);
    std::string line;
    while (reader.ReadLine(&line) == Transport::ReadStatus::kLine) {
      replies.push_back(line);
    }
    ::close(read_fd);
    return replies;
  }
};

/// The query mix the differential tests replay: every query verb, found
/// and not-exists outcomes, and the reply-shaping options (limit, trace,
/// gamma) that must all be part of the cache key.
const std::vector<std::string> kQueryMix = {
    "CST bb 0 5",
    "CST bb 0 7",            // exact negative (k above degeneracy)
    "CST bb 0 5 limit=2",    // same query, different rendering
    "CST bb 0 5 trace=1",    // same query, phase breakdown appended
    "CSM bb 0",
    "CSM bb 0 gamma=-1.5",   // wider Eq.-8 budget: distinct key
    "MULTI bb 5 0 1",
    "MULTI bb max 0 1",
};

TEST(ResultCacheServeTest, CachedRepliesAreByteIdenticalToFresh) {
  // Fresh baseline: a fixture with no cache at all.
  CacheFixture fresh;
  fresh.options.cache = nullptr;
  fresh.Register("bb", gen::Barbell(6, 2));
  auto fresh_replies = fresh.Run(kQueryMix, "fresh");

  // Cached run: the same mix twice through one shared cache. The first
  // pass misses and populates; the second pass is all hits.
  CacheFixture cached;
  cached.Register("bb", gen::Barbell(6, 2));
  std::vector<std::string> twice = kQueryMix;
  twice.insert(twice.end(), kQueryMix.begin(), kQueryMix.end());
  auto cached_replies = cached.Run(twice, "cached");

  ASSERT_EQ(fresh_replies.size(), kQueryMix.size());
  ASSERT_EQ(cached_replies.size(), 2 * kQueryMix.size());
  for (size_t i = 0; i < kQueryMix.size(); ++i) {
    // Miss pass == fresh baseline == hit pass, byte for byte.
    EXPECT_EQ(cached_replies[i], fresh_replies[i]) << kQueryMix[i];
    EXPECT_EQ(cached_replies[kQueryMix.size() + i], fresh_replies[i])
        << kQueryMix[i];
  }
  const MetricsSnapshot snap = cached.metrics.Snapshot();
  EXPECT_EQ(snap.cache_hits, kQueryMix.size());
  EXPECT_EQ(snap.cache_misses, kQueryMix.size());
  EXPECT_EQ(snap.cache_inserts, kQueryMix.size());
  EXPECT_EQ(snap.cache_evictions, 0u);
  // The second pass ran no solver: solver query count stays at one mix.
  // (CST bb 0 7 short-circuits on the core index and MULTI max runs a
  // binary search, so compare against the recorded total of pass one.)
  EXPECT_EQ(snap.telemetry.cache_hits, kQueryMix.size());
}

TEST(ResultCacheServeTest, OptionVariantsNeverShareAnEntry) {
  CacheFixture fix;
  fix.Register("bb", gen::Barbell(6, 2));
  const auto replies = fix.Run(
      {
          "CST bb 0 5",
          "CST bb 0 5 limit=2",
          "CST bb 0 5 trace=1",
          "CSM bb 0",
          "CSM bb 0 gamma=-1.5",
      },
      "variants");
  ASSERT_EQ(replies.size(), 5u);
  // All five are distinct keys: zero hits, five misses.
  const MetricsSnapshot snap = fix.metrics.Snapshot();
  EXPECT_EQ(snap.cache_hits, 0u);
  EXPECT_EQ(snap.cache_misses, 5u);
  // And the renderings genuinely differ where they must.
  EXPECT_NE(replies[0], replies[1]);  // limit truncates members
  EXPECT_NE(replies[0], replies[2]);  // trace appends phases
}

TEST(ResultCacheServeTest, EvictAndReloadDifferentGraphNeverServesStale) {
  // Barbell(6,2) has a CST(5) answer of n=6 delta=5 at vertex 0; a
  // 12-vertex cycle has no delta>=5 community at all. Same name, same
  // query, different graph contents — the cached barbell reply must not
  // survive the re-LOAD.
  CacheFixture fix;
  const std::string barbell_path = TempPath("cache_swap_barbell.limg");
  const std::string cycle_path = TempPath("cache_swap_cycle.limg");
  ASSERT_TRUE(store::SaveGraphFile(gen::Barbell(6, 2), barbell_path));
  ASSERT_TRUE(store::SaveGraphFile(gen::Cycle(12), cycle_path));

  const auto replies = fix.Run(
      {
          "LOAD g " + barbell_path,
          "CST g 0 5",  // miss + insert under the barbell epoch
          "CST g 0 5",  // hit
          "EVICT g",
          "CST g 0 5",  // unknown graph: cache must not resurrect it
          "LOAD g " + cycle_path,
          "CST g 0 5",  // same name + query, new epoch: must be fresh
          "CST g 0 5",  // and the cycle reply is itself cacheable
      },
      "swap");
  ASSERT_EQ(replies.size(), 8u);
  EXPECT_EQ(replies[1].rfind("OK status=found n=6 delta=5", 0), 0u)
      << replies[1];
  EXPECT_EQ(replies[2], replies[1]);
  EXPECT_EQ(replies[4].rfind("ERR unknown-graph", 0), 0u) << replies[4];
  EXPECT_EQ(replies[6].rfind("OK status=not-exists", 0), 0u)
      << "stale reply across re-LOAD: " << replies[6];
  EXPECT_EQ(replies[7], replies[6]);
  const MetricsSnapshot snap = fix.metrics.Snapshot();
  EXPECT_EQ(snap.cache_hits, 2u);  // one per graph generation
}

TEST(ResultCacheServeTest, ReplacingLoadOfSameFileStillMintsNewEpoch) {
  // Even re-LOADing the *same* path must not serve pre-replacement
  // replies: the registry cannot know the file is unchanged, so every
  // load generation gets its own key space (conservative, always safe).
  CacheFixture fix;
  const std::string path = TempPath("cache_reload_same.limg");
  ASSERT_TRUE(store::SaveGraphFile(gen::Barbell(6, 2), path));
  const auto replies = fix.Run(
      {
          "LOAD g " + path,
          "CST g 0 5",
          "LOAD g " + path,
          "CST g 0 5",
      },
      "reload");
  ASSERT_EQ(replies.size(), 4u);
  EXPECT_EQ(replies[3], replies[1]);
  const MetricsSnapshot snap = fix.metrics.Snapshot();
  EXPECT_EQ(snap.cache_hits, 0u);
  EXPECT_EQ(snap.cache_misses, 2u);
}

TEST(ResultCacheServeTest, StatsLineCarriesCacheCounters) {
  CacheFixture fix;
  fix.Register("bb", gen::Barbell(6, 2));
  const auto replies = fix.Run(
      {
          "CST bb 0 5",
          "CST bb 0 5",
          "STATS",
      },
      "stats");
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_NE(replies[2].find(" cache_hits=1"), std::string::npos)
      << replies[2];
  EXPECT_NE(replies[2].find(" cache_misses=1"), std::string::npos)
      << replies[2];
  EXPECT_NE(replies[2].find(" cache_inserts=1"), std::string::npos)
      << replies[2];
  EXPECT_NE(replies[2].find(" cache_evictions=0"), std::string::npos)
      << replies[2];
}

TEST(ResultCacheServeTest, EvictionCountersSurfaceUnderTinyCapacity) {
  CacheFixture fix(/*cache_entries=*/1);
  fix.Register("bb", gen::Barbell(6, 2));
  const auto replies = fix.Run(
      {
          "CST bb 0 5",  // insert A
          "CSM bb 0",    // insert B, evicts A
          "CST bb 0 5",  // miss again (A was evicted), reinsert
      },
      "tiny");
  ASSERT_EQ(replies.size(), 3u);
  EXPECT_EQ(replies[2], replies[0]);
  const MetricsSnapshot snap = fix.metrics.Snapshot();
  EXPECT_EQ(snap.cache_hits, 0u);
  EXPECT_EQ(snap.cache_misses, 3u);
  EXPECT_EQ(snap.cache_inserts, 3u);
  EXPECT_EQ(snap.cache_evictions, 2u);
}

}  // namespace
}  // namespace locs::serve
