#include "stream.h"

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <numeric>
#include <random>

#include "oracle.h"

namespace locsbench {

namespace {

/// Independent generator per (seed, salt): splitmix64 of the pair.
std::mt19937_64 Rng(uint64_t seed, uint64_t salt) {
  uint64_t z = seed * 0x9E3779B97F4A7C15ull + salt + 0x632BE59BD9B4E019ull;
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return std::mt19937_64(z ^ (z >> 31));
}

constexpr uint64_t kSaltHotSet = 0x1001;
constexpr uint64_t kSaltPermutation = 0x100000;
constexpr uint64_t kSaltWarmup = 0x1003;

Query MakeCst(uint32_t v, uint32_t k, uint32_t limit) {
  Query q;
  q.verb = QueryVerb::kCst;
  q.v = v;
  q.k = k;
  q.limit = limit;
  q.line = std::string("CST ") + kGraphName + " " + std::to_string(v) + " " +
           std::to_string(k) + " limit=" + std::to_string(limit);
  return q;
}

Query MakeCsm(uint32_t v, uint32_t limit) {
  Query q;
  q.verb = QueryVerb::kCsm;
  q.v = v;
  q.limit = limit;
  q.line = std::string("CSM ") + kGraphName + " " + std::to_string(v) +
           " limit=" + std::to_string(limit);
  return q;
}

Query MakeMulti(std::vector<uint32_t> seeds, uint32_t k) {
  Query q;
  q.verb = QueryVerb::kMulti;
  q.v = seeds[0];
  q.k = k;
  q.limit = 0;
  q.line = std::string("MULTI ") + kGraphName + " " + std::to_string(k);
  for (const uint32_t s : seeds) {
    q.line += ' ';
    q.line += std::to_string(s);
  }
  q.line += " limit=0";
  q.seeds = std::move(seeds);
  return q;
}

/// The 64-vertex hot set of hot_cached, fixed per seed.
std::vector<uint32_t> HotSet(const OracleGraph& graph, uint64_t seed) {
  std::mt19937_64 rng = Rng(seed, kSaltHotSet);
  std::vector<uint32_t> all(graph.n());
  std::iota(all.begin(), all.end(), 0u);
  std::shuffle(all.begin(), all.end(), rng);
  all.resize(std::min<size_t>(64, all.size()));
  return all;
}

/// Zipf(1.0) rank sampler over a seeded permutation of the vertices. The
/// permutation is redrawn for every `block` requests — one reload period
/// at the paced rate. A reload empties the result cache
/// anyway, so this leaves the cache's behaviour alone, while a run
/// averages over many hot sets instead of depending on a single one.
class ZipfVertices {
 public:
  ZipfVertices(const OracleGraph& graph, uint64_t seed, size_t block)
      : seed_(seed), block_size_(block), permutation_(graph.n()) {
    cdf_.resize(graph.n());
    double total = 0.0;
    for (size_t i = 0; i < cdf_.size(); ++i) {
      total += 1.0 / static_cast<double>(i + 1);
      cdf_[i] = total;
    }
    for (double& c : cdf_) c /= total;
  }

  /// Vertex for the `index`-th request of a stream.
  uint32_t Sample(size_t index, std::mt19937_64& rng) {
    const size_t block = index / block_size_;
    if (block != block_) {
      block_ = block;
      std::iota(permutation_.begin(), permutation_.end(), 0u);
      std::mt19937_64 shuffle = Rng(seed_, kSaltPermutation + block);
      std::shuffle(permutation_.begin(), permutation_.end(), shuffle);
    }
    const double u = std::uniform_real_distribution<double>(0.0, 1.0)(rng);
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf_.begin(), cdf_.end(), u) - cdf_.begin());
    return permutation_[std::min(rank, permutation_.size() - 1)];
  }

 private:
  uint64_t seed_;
  size_t block_size_;
  size_t block_ = SIZE_MAX;
  std::vector<uint32_t> permutation_;
  std::vector<double> cdf_;
};

std::vector<Query> Generate(const WorkloadSpec& spec,
                            const OracleGraph& graph, std::mt19937_64& rng,
                            uint64_t seed, size_t count) {
  std::vector<Query> out;
  out.reserve(count);
  std::uniform_int_distribution<uint32_t> any(0, graph.n() - 1);
  switch (spec.kind) {
    case WorkloadKind::kCstUniform:
      for (size_t i = 0; i < count; ++i) out.push_back(MakeCst(any(rng), 6, 1));
      break;
    case WorkloadKind::kHotCached: {
      const std::vector<uint32_t> hot = HotSet(graph, seed);
      std::uniform_int_distribution<size_t> pick(0, 2 * hot.size() - 1);
      for (size_t i = 0; i < count; ++i) {
        const size_t j = pick(rng);
        out.push_back(j < hot.size() ? MakeCst(hot[j], 6, 1)
                                     : MakeCsm(hot[j - hot.size()], 1));
      }
      break;
    }
    case WorkloadKind::kMixedReload: {
      ZipfVertices zipf(graph, seed,
                        static_cast<size_t>(spec.paced_rate * kReloadPeriodS));
      std::uniform_int_distribution<int> percent(0, 99);
      std::uniform_int_distribution<uint32_t> cst_k(4, 10);
      for (size_t i = 0; i < count; ++i) {
        const int p = percent(rng);
        const uint32_t v = zipf.Sample(i, rng);
        if (p < 50) {
          out.push_back(MakeCsm(v, 0));
        } else if (p < 90) {
          out.push_back(MakeCst(v, cst_k(rng), 0));
        } else {
          std::vector<uint32_t> neighbors(graph.Neighbors(v).begin(),
                                          graph.Neighbors(v).end());
          std::shuffle(neighbors.begin(), neighbors.end(), rng);
          const size_t extra = std::min<size_t>(
              neighbors.size(),
              std::uniform_int_distribution<size_t>(1, 3)(rng));
          std::vector<uint32_t> seeds = {v};
          seeds.insert(seeds.end(), neighbors.begin(),
                       neighbors.begin() + static_cast<long>(extra));
          out.push_back(MakeMulti(std::move(seeds), 6));
        }
      }
      break;
    }
    case WorkloadKind::kBatchKcore:
      break;  // batch queries come from MakeBatchPlan
  }
  return out;
}

}  // namespace

std::vector<Query> WarmupStream(const WorkloadSpec& spec,
                                const OracleGraph& graph, uint64_t seed) {
  if (spec.kind == WorkloadKind::kHotCached) {
    std::vector<Query> out;
    const std::vector<uint32_t> hot = HotSet(graph, seed);
    for (int pass = 0; pass < 2; ++pass) {
      for (const uint32_t v : hot) out.push_back(MakeCst(v, 6, 1));
      for (const uint32_t v : hot) out.push_back(MakeCsm(v, 1));
    }
    return out;
  }
  std::mt19937_64 rng = Rng(seed, kSaltWarmup);
  return Generate(spec, graph, rng, seed, 64);
}

std::vector<Query> MeasuredStream(const WorkloadSpec& spec,
                                  const OracleGraph& graph, uint64_t seed,
                                  uint64_t salt, size_t count) {
  std::mt19937_64 rng = Rng(seed, salt);
  return Generate(spec, graph, rng, seed, count);
}

std::vector<uint64_t> PoissonSchedule(double rate, size_t count,
                                      uint64_t seed) {
  std::mt19937_64 rng = Rng(seed, 0x2001);
  std::exponential_distribution<double> gap(rate);
  std::vector<uint64_t> due(count);
  double t = 0.0;
  for (size_t i = 0; i < count; ++i) {
    t += gap(rng);
    due[i] = static_cast<uint64_t>(t * 1e9);
  }
  return due;
}

Query ReloadQuery(const std::string& image_path) {
  Query q;
  q.verb = QueryVerb::kLoadImg;
  q.line = std::string("LOADIMG ") + kGraphName + " " + image_path;
  return q;
}

BatchPlan MakeBatchPlan(const OracleGraph& graph, uint64_t seed,
                        size_t per_class) {
  BatchPlan plan;
  plan.s = std::max(1u, graph.Degeneracy() / 10);
  plan.ks[0] = plan.s;
  plan.ks[1] = 3 * plan.s;
  plan.ks[2] = 8 * plan.s;
  std::mt19937_64 rng = Rng(seed, 0x3001);
  for (int c = 0; c < 3; ++c) {
    std::vector<uint32_t> pool;
    for (uint32_t v = 0; v < graph.n(); ++v) {
      if (graph.Core(v) >= plan.ks[c]) pool.push_back(v);
    }
    std::uniform_int_distribution<size_t> pick(0, pool.size() - 1);
    for (size_t i = 0; i < per_class && !pool.empty(); ++i) {
      plan.cst[c].push_back(pool[pick(rng)]);
    }
  }
  std::vector<uint32_t> pool;
  for (uint32_t v = 0; v < graph.n(); ++v) {
    if (graph.Degree(v) >= 10) pool.push_back(v);
  }
  std::uniform_int_distribution<size_t> pick(0, pool.size() - 1);
  for (size_t i = 0; i < per_class && !pool.empty(); ++i) {
    plan.csm.push_back(pool[pick(rng)]);
  }
  return plan;
}

}  // namespace locsbench
