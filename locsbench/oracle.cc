#include "oracle.h"

#include <algorithm>
#include <charconv>
#include <cstdio>
#include <deque>
#include <fstream>
#include <unordered_map>
#include <utility>

namespace locsbench {

namespace {

bool ParseU64(std::string_view text, uint64_t* out) {
  if (text.empty()) return false;
  const auto [end, ec] =
      std::from_chars(text.data(), text.data() + text.size(), *out);
  return ec == std::errc() && end == text.data() + text.size();
}

/// Value of ` key=` in `line` (up to the next space); empty when absent.
std::string_view Field(std::string_view line, std::string_view key) {
  size_t pos = 0;
  while ((pos = line.find(key, pos)) != std::string_view::npos) {
    if (pos > 0 && line[pos - 1] == ' ' && pos + key.size() < line.size() &&
        line[pos + key.size()] == '=') {
      const size_t start = pos + key.size() + 1;
      const size_t end = line.find(' ', start);
      return line.substr(start, end == std::string_view::npos
                                    ? std::string_view::npos
                                    : end - start);
    }
    pos += key.size();
  }
  return {};
}

std::string Describe(const Query& query, std::string_view reply,
                     const std::string& what) {
  std::string head(reply.substr(0, 160));
  return "'" + query.line + "' -> '" + head + "': " + what;
}

}  // namespace

bool OracleGraph::Load(const std::string& path, std::string* error) {
  std::ifstream in(path);
  if (!in) {
    *error = "cannot open " + path;
    return false;
  }
  std::unordered_map<uint64_t, uint32_t> remap;
  auto intern = [&remap](uint64_t raw) {
    return remap.emplace(raw, static_cast<uint32_t>(remap.size()))
        .first->second;
  };
  std::vector<std::pair<uint32_t, uint32_t>> edges;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty() || line[0] == '#' || line[0] == '%') continue;
    const size_t space = line.find(' ');
    uint64_t a = 0;
    uint64_t b = 0;
    if (space == std::string::npos ||
        !ParseU64(std::string_view(line).substr(0, space), &a) ||
        !ParseU64(std::string_view(line).substr(space + 1), &b)) {
      *error = "unparsable edge line '" + line + "' in " + path;
      return false;
    }
    const uint32_t u = intern(a);
    const uint32_t w = intern(b);
    if (u != w) edges.emplace_back(u, w);
  }
  n_ = static_cast<uint32_t>(remap.size());
  offsets_.assign(n_ + 1, 0);
  for (const auto& [u, w] : edges) {
    ++offsets_[u + 1];
    ++offsets_[w + 1];
  }
  for (uint32_t v = 0; v < n_; ++v) offsets_[v + 1] += offsets_[v];
  adj_.assign(offsets_[n_], 0);
  std::vector<uint64_t> fill(offsets_.begin(), offsets_.end() - 1);
  for (const auto& [u, w] : edges) {
    adj_[fill[u]++] = w;
    adj_[fill[w]++] = u;
  }
  ComputeCores();
  return true;
}

// Batagelj–Zaversnik bucket peel, written independently of src/core.
void OracleGraph::ComputeCores() {
  core_.assign(n_, 0);
  uint32_t max_degree = 0;
  for (uint32_t v = 0; v < n_; ++v) {
    core_[v] = Degree(v);
    max_degree = std::max(max_degree, core_[v]);
  }
  std::vector<uint32_t> bin(max_degree + 2, 0);
  for (uint32_t v = 0; v < n_; ++v) ++bin[core_[v]];
  uint32_t start = 0;
  for (uint32_t d = 0; d <= max_degree; ++d) {
    const uint32_t count = bin[d];
    bin[d] = start;
    start += count;
  }
  std::vector<uint32_t> order(n_);
  std::vector<uint32_t> pos(n_);
  for (uint32_t v = 0; v < n_; ++v) {
    pos[v] = bin[core_[v]]++;
    order[pos[v]] = v;
  }
  for (uint32_t d = max_degree; d > 0; --d) bin[d] = bin[d - 1];
  bin[0] = 0;
  for (uint32_t i = 0; i < n_; ++i) {
    const uint32_t v = order[i];
    for (const uint32_t u : Neighbors(v)) {
      if (core_[u] > core_[v]) {
        const uint32_t du = core_[u];
        const uint32_t pu = pos[u];
        const uint32_t pw = bin[du];
        const uint32_t w = order[pw];
        if (u != w) {
          std::swap(order[pu], order[pw]);
          pos[u] = pw;
          pos[w] = pu;
        }
        ++bin[du];
        --core_[u];
      }
    }
  }
  degeneracy_ = n_ == 0 ? 0 : *std::max_element(core_.begin(), core_.end());
}

const std::vector<uint32_t>& OracleGraph::KCoreComponents(uint32_t k) const {
  auto it = components_.find(k);
  if (it != components_.end()) return it->second;
  std::vector<uint32_t> label(n_, UINT32_MAX);
  uint32_t next = 0;
  std::deque<uint32_t> queue;
  for (uint32_t s = 0; s < n_; ++s) {
    if (core_[s] < k || label[s] != UINT32_MAX) continue;
    label[s] = next;
    queue.push_back(s);
    while (!queue.empty()) {
      const uint32_t v = queue.front();
      queue.pop_front();
      for (const uint32_t u : Neighbors(v)) {
        if (core_[u] >= k && label[u] == UINT32_MAX) {
          label[u] = next;
          queue.push_back(u);
        }
      }
    }
    ++next;
  }
  return components_.emplace(k, std::move(label)).first->second;
}

bool ParseQueryReply(std::string_view line, ParsedReply* reply) {
  if (line.substr(0, 10) != "OK status=") return false;
  *reply = ParsedReply{};
  reply->status = std::string(Field(line, "status"));
  if (!ParseU64(Field(line, "n"), &reply->n) ||
      !ParseU64(Field(line, "delta"), &reply->delta)) {
    return false;
  }
  const std::string_view truncated = Field(line, "truncated");
  if (!truncated.empty() && !ParseU64(truncated, &reply->truncated)) {
    return false;
  }
  std::string_view members = Field(line, "members");
  while (!members.empty()) {
    const size_t comma = members.find(',');
    uint64_t id = 0;
    if (!ParseU64(members.substr(0, comma), &id) || id > UINT32_MAX) {
      return false;
    }
    reply->members.push_back(static_cast<uint32_t>(id));
    if (comma == std::string_view::npos) break;
    members.remove_prefix(comma + 1);
  }
  return reply->members.size() + reply->truncated == reply->n;
}

std::string CheckReply(const OracleGraph& graph, const Query& query,
                       std::string_view reply) {
  if (query.verb == QueryVerb::kLoadImg) {
    if (reply.substr(0, 3) != "OK " ||
        Field(reply, "source") != std::string_view("image")) {
      return Describe(query, reply, "LOADIMG did not report source=image");
    }
    return {};
  }
  ParsedReply parsed;
  if (!ParseQueryReply(reply, &parsed)) {
    return Describe(query, reply, "not a well-formed OK reply");
  }
  const bool listed_all = query.limit == 0;
  auto contains = [&parsed](uint32_t v) {
    return std::find(parsed.members.begin(), parsed.members.end(), v) !=
           parsed.members.end();
  };
  switch (query.verb) {
    case QueryVerb::kCst: {
      const bool exists = graph.Core(query.v) >= query.k;
      const bool found = parsed.status == "found";
      if (found != exists) {
        return Describe(query, reply,
                        "status disagrees with core(v)=" +
                            std::to_string(graph.Core(query.v)));
      }
      if (!found) return {};
      if (parsed.delta < query.k || parsed.delta > graph.Core(query.v)) {
        return Describe(query, reply, "delta outside [k, core(v)]");
      }
      if (listed_all && !contains(query.v)) {
        return Describe(query, reply, "query vertex missing from members");
      }
      return {};
    }
    case QueryVerb::kCsm:
      if (parsed.status != "found") {
        return Describe(query, reply, "CSM did not report found");
      }
      if (parsed.delta < 1 || parsed.delta > graph.Core(query.v)) {
        return Describe(query, reply,
                        "delta outside [1, core(v)=" +
                            std::to_string(graph.Core(query.v)) + "]");
      }
      if (listed_all && !contains(query.v)) {
        return Describe(query, reply, "query vertex missing from members");
      }
      return {};
    case QueryVerb::kMulti: {
      const std::vector<uint32_t>& label = graph.KCoreComponents(query.k);
      bool exists = true;
      for (const uint32_t s : query.seeds) {
        if (label[s] == UINT32_MAX || label[s] != label[query.seeds[0]]) {
          exists = false;
        }
      }
      const bool found = parsed.status == "found";
      if (found != exists) {
        return Describe(query, reply,
                        "status disagrees with the seeds' k-core components");
      }
      if (!found) return {};
      if (parsed.delta < query.k) {
        return Describe(query, reply, "delta below k");
      }
      if (listed_all) {
        for (const uint32_t s : query.seeds) {
          if (!contains(s)) {
            return Describe(query, reply, "a seed is missing from members");
          }
        }
      }
      return {};
    }
    case QueryVerb::kLoadImg:
      break;
  }
  return {};
}

std::string CheckBatchAnswer(const OracleGraph& graph, uint32_t v,
                             uint32_t k, bool csm, bool found,
                             uint64_t delta, bool contains_v) {
  char buffer[160];
  const uint32_t core = graph.Core(v);
  const bool ok = csm ? (found && delta >= 1 && delta <= core && contains_v)
                      : (found && delta >= k && delta <= core && contains_v);
  if (ok) return {};
  std::snprintf(buffer, sizeof(buffer),
                "batch %s v=%u k=%u core=%u: found=%d delta=%llu "
                "contains_v=%d",
                csm ? "CSM" : "CST", v, k, core, found ? 1 : 0,
                static_cast<unsigned long long>(delta), contains_v ? 1 : 0);
  return buffer;
}

}  // namespace locsbench
