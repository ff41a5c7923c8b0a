#include "bench_util.h"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>

#include "common/check.h"
#include "common/sim_thread_pool.h"
#include "obs/trace.h"

namespace lightrw::bench {

namespace {

struct BenchEnv {
  uint32_t scale_shift;
  size_t max_queries;
};

uint64_t EnvOrExit(const char* name, uint64_t fallback, uint64_t max) {
  const StatusOr<uint64_t> value =
      ParseEnvUint(name, std::getenv(name), fallback, max);
  if (!value.ok()) {
    std::fprintf(stderr, "%s\n", value.status().ToString().c_str());
    std::exit(1);
  }
  return *value;
}

const BenchEnv& Env() {
  static const BenchEnv env{
      static_cast<uint32_t>(EnvOrExit("LIGHTRW_SCALE_SHIFT", 7, 31)),
      static_cast<size_t>(
          EnvOrExit("LIGHTRW_MAX_QUERIES", 8192, UINT32_MAX))};
  return env;
}

std::string FormatNumber(double value, int precision) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.*f", precision, value);
  return buf;
}

std::string PlainCell(const obs::Json& cell) {
  switch (cell.kind()) {
    case obs::Json::Kind::kString:
      return cell.string_value();
    case obs::Json::Kind::kInt:
      return std::to_string(cell.int_value());
    case obs::Json::Kind::kUint:
      return std::to_string(cell.uint_value());
    case obs::Json::Kind::kBool:
      return cell.bool_value() ? "on" : "off";
    case obs::Json::Kind::kDouble:
      return FormatNumber(cell.double_value(), 2);
    default:
      break;
  }
  // Null and container cells belong in BENCH-json-only columns.
  LIGHTRW_CHECK(false);
  return "";
}

obs::Json BenchContext() {
  obs::Json context = obs::Json::MakeObject();
  context.Set("scale_shift", static_cast<uint64_t>(ScaleShift()));
  context.Set("max_queries", static_cast<uint64_t>(MaxQueries()));
  context.Set("seed", kBenchSeed);
  // Provenance only: rows must not move with the thread count (the CI
  // determinism gate diffs them across 1 vs N threads).
  context.Set("sim_threads", static_cast<uint64_t>(SimThreads()));
  return context;
}

}  // namespace

StatusOr<uint64_t> ParseEnvUint(const char* name, const char* value,
                                uint64_t fallback, uint64_t max) {
  if (value == nullptr || *value == '\0') {
    return fallback;
  }
  uint64_t parsed = 0;
  for (const char* c = value; *c != '\0'; ++c) {
    const bool digit_fits =
        *c >= '0' && *c <= '9' && parsed <= max / 10 &&
        static_cast<uint64_t>(*c - '0') <= max - parsed * 10;
    if (!digit_fits) {
      return InvalidArgumentError(std::string(name) + "=" + value +
                                  ": want decimal digits in [0, " +
                                  std::to_string(max) + "]");
    }
    parsed = parsed * 10 + static_cast<uint64_t>(*c - '0');
  }
  return parsed;
}

uint32_t ScaleShift() { return Env().scale_shift; }

size_t MaxQueries() { return Env().max_queries; }

uint32_t SimThreads() { return SimThreadPool::DefaultThreads(); }

const graph::CsrGraph& StandIn(graph::Dataset dataset) {
  static std::map<graph::Dataset, graph::CsrGraph>& cache =
      *new std::map<graph::Dataset, graph::CsrGraph>();
  auto it = cache.find(dataset);
  if (it == cache.end()) {
    it = cache
             .emplace(dataset, graph::MakeDatasetStandIn(
                                   dataset, ScaleShift(), kBenchSeed))
             .first;
  }
  return it->second;
}

std::vector<apps::WalkQuery> StandardQueries(const graph::CsrGraph& graph,
                                             uint32_t length, size_t cap) {
  if (cap == 0) {
    cap = MaxQueries();
  }
  return apps::MakeVertexQueries(graph, length, kBenchSeed ^ length, cap);
}

std::vector<apps::WalkQuery> RepeatedQueries(const graph::CsrGraph& graph,
                                             uint32_t length, size_t count) {
  const auto base =
      apps::MakeVertexQueries(graph, length, kBenchSeed ^ length);
  LIGHTRW_CHECK(!base.empty());
  if (count == 0) {
    return base;
  }
  std::vector<apps::WalkQuery> queries;
  queries.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    queries.push_back(base[i % base.size()]);
  }
  return queries;
}

std::unique_ptr<apps::WalkApp> MakeMetaPath(const graph::CsrGraph& graph) {
  return std::make_unique<apps::MetaPathApp>(
      apps::MakeRandomRelationPath(graph, kMetaPathLength, kBenchSeed));
}

std::unique_ptr<apps::WalkApp> MakeNode2Vec() {
  return std::make_unique<apps::Node2VecApp>(kNode2VecP, kNode2VecQ);
}

core::AcceleratorConfig DefaultAccelConfig() {
  core::AcceleratorConfig config;
  config.sampler_parallelism = 16;
  config.burst = core::BurstStrategy{1, 32};
  config.cache_kind = core::CacheKind::kDegreeAware;
  // The on-chip structures shrink with the dataset stand-ins so their
  // capacity relative to the graphs matches the paper's full-scale setup
  // (2^12 cache entries against million-vertex graphs).
  config.cache_entries = std::max<uint32_t>(16, 4096u >> ScaleShift());
  config.prev_neighbor_buffer_edges =
      std::max<uint32_t>(64, 65536u >> ScaleShift());
  config.num_instances = 4;
  config.seed = kBenchSeed;
  return config;
}

CellFormat Num(int precision, std::string suffix) {
  return [precision, suffix = std::move(suffix)](const obs::Json& cell) {
    return FormatNumber(cell.double_value(), precision) + suffix;
  };
}

CellFormat Percent(int precision) {
  return [precision](const obs::Json& cell) {
    return FormatNumber(cell.double_value() * 100, precision) + "%";
  };
}

Table::Table(std::string title, std::vector<Column> columns)
    : title_(std::move(title)), columns_(std::move(columns)) {}

void Table::Add(std::vector<obs::Json> cells) {
  LIGHTRW_CHECK_EQ(cells.size(), columns_.size());
  rows_.push_back(std::move(cells));
}

void Table::AddNote(std::string line) { notes_.push_back(std::move(line)); }

std::string Table::Text() const {
  char context[160];
  std::snprintf(context, sizeof(context),
                "(dataset stand-ins scaled by 2^-%u, query cap %zu; "
                "LightRW times are simulated cycles at %.0f MHz)\n",
                ScaleShift(), MaxQueries(), 300.0);
  std::string out = "\n== " + title_ + " ==\n" + context;
  const auto append_line = [&](const auto& cell_text) {
    for (size_t i = 0; i < columns_.size(); ++i) {
      if (columns_[i].header.empty()) {
        continue;
      }
      const std::string text = cell_text(i);
      out += text;
      const size_t width = static_cast<size_t>(columns_[i].width);
      out.append(width > text.size() ? width - text.size() : 0, ' ');
    }
    out += '\n';
  };
  append_line([&](size_t i) { return columns_[i].header; });
  for (const auto& row : rows_) {
    append_line([&](size_t i) {
      return columns_[i].format ? columns_[i].format(row[i])
                                : PlainCell(row[i]);
    });
  }
  for (const std::string& note : notes_) {
    out += note + '\n';
  }
  return out;
}

std::vector<obs::Json> Table::JsonRows() const {
  std::vector<obs::Json> rows;
  for (const auto& row : rows_) {
    obs::Json object = obs::Json::MakeObject();
    for (size_t i = 0; i < columns_.size(); ++i) {
      if (!columns_[i].key.empty()) {
        object.Set(columns_[i].key, row[i]);
      }
    }
    rows.push_back(std::move(object));
  }
  return rows;
}

int Report(const std::string& name, const std::vector<Table>& tables) {
  obs::Json rows = obs::Json::MakeArray();
  for (const Table& table : tables) {
    std::fputs(table.Text().c_str(), stdout);
    for (obs::Json& row : table.JsonRows()) {
      rows.Append(std::move(row));
    }
  }

  const char* dir = std::getenv("LIGHTRW_BENCH_JSON_DIR");
  std::string path = (dir != nullptr && *dir != '\0') ? dir : ".";
  path += "/BENCH_" + name + ".json";
  obs::Json record = obs::Json::MakeObject();
  record.Set("bench", name);
  record.Set("context", BenchContext());
  record.Set("rows", std::move(rows));
  const Status written =
      obs::WriteTextFile(record.Dump(/*indent=*/2) + "\n", path);
  if (!written.ok()) {
    std::fprintf(stderr, "%s\n", written.ToString().c_str());
    return 1;
  }
  std::printf("wrote %s\n", path.c_str());
  return 0;
}

int RunFailed(const Status& status) {
  std::fprintf(stderr, "%s\n", status.ToString().c_str());
  return 1;
}

}  // namespace lightrw::bench
