// Shared helpers for the per-figure/table benchmark binaries.
//
// Every bench binary reproduces one table or figure of the paper. Graph
// stand-ins are scaled down so the whole suite runs on one CPU core in
// minutes; set LIGHTRW_SCALE_SHIFT=0 to run at the paper's full sizes.
//
// A bench records each result row once, in a Table. Report prints the
// paper-style tables to stdout and writes the same rows to
// BENCH_<name>.json, so the text and the machine-readable record cannot
// disagree.
//
// Environment knobs:
//   LIGHTRW_SCALE_SHIFT     divide dataset |V| and |E| by 2^shift
//                           (default 7, at most 31)
//   LIGHTRW_MAX_QUERIES     cap on queries per run (default 8192; 0 = one
//                           query per non-isolated vertex; at most 2^32-1)
//   LIGHTRW_SIM_THREADS     host worker threads for sharded simulations
//                           (default 1, at most 256); simulated metrics are
//                           unchanged by this value — only wall time moves
//   LIGHTRW_BENCH_JSON_DIR  directory BENCH_<name>.json is written to
//                           (default: the working directory)
// The first three take decimal digits only; any other value makes the
// bench exit 1 with a message naming the variable. A failed run or an
// unwritable BENCH file also exits 1.

#ifndef LIGHTRW_BENCH_BENCH_UTIL_H_
#define LIGHTRW_BENCH_BENCH_UTIL_H_

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "apps/walk_app.h"
#include "common/status.h"
#include "graph/generators.h"
#include "lightrw/config.h"
#include "obs/json.h"

namespace lightrw::bench {

// Paper parameter settings (§6.1.4).
inline constexpr uint32_t kMetaPathLength = 5;
inline constexpr uint32_t kNode2VecLength = 80;
inline constexpr double kNode2VecP = 2.0;
inline constexpr double kNode2VecQ = 0.5;
inline constexpr uint64_t kBenchSeed = 20230618;

// Resolved LIGHTRW_SCALE_SHIFT, LIGHTRW_MAX_QUERIES and
// LIGHTRW_SIM_THREADS (what engines with num_threads = 0 use). All three
// variables are validated on the first call to any of these; an invalid
// one exits 1.
uint32_t ScaleShift();
size_t MaxQueries();
uint32_t SimThreads();

// Cached scaled stand-in for a paper dataset (built on first use).
const graph::CsrGraph& StandIn(graph::Dataset dataset);

// The paper's standard query set for a graph: one query per non-isolated
// vertex, shuffled, truncated to MaxQueries() (or `cap` if nonzero).
std::vector<apps::WalkQuery> StandardQueries(const graph::CsrGraph& graph,
                                             uint32_t length,
                                             size_t cap = 0);

// Exactly `count` queries of the given length, repeating vertices as
// needed (for the Fig. 16 query-count sweep). A count of 0 gives one
// query per non-isolated vertex, like StandardQueries with no cap.
std::vector<apps::WalkQuery> RepeatedQueries(const graph::CsrGraph& graph,
                                             uint32_t length, size_t count);

// Fresh MetaPath app with a relation path realizable in `graph`.
std::unique_ptr<apps::WalkApp> MakeMetaPath(const graph::CsrGraph& graph);
// Fresh Node2Vec app with the paper's p=2, q=0.5.
std::unique_ptr<apps::WalkApp> MakeNode2Vec();

// Default accelerator configuration used across benches (k=16, b1+b32,
// degree-aware cache, 4 instances — the paper's best configuration).
core::AcceleratorConfig DefaultAccelConfig();

// ---------------------------------------------------------------------------
// Results. Each cell is one obs::Json value: it goes to the BENCH json
// with its exact kind and is rendered into the text table by its
// column's CellFormat.

using CellFormat = std::function<std::string(const obs::Json&)>;

// "%.<precision>f" of the number, then `suffix`.
CellFormat Num(int precision, std::string suffix = "");
// A ratio printed as a percentage: "%.<precision>f%" of 100 x value.
CellFormat Percent(int precision);

struct Column {
  std::string key;     // BENCH json key; empty = text table only
  std::string header;  // text table header; empty = BENCH json only
  int width = 0;       // text cells are left-aligned and padded to this
  // Null: strings as they are, integers in decimal, bools as on/off and
  // doubles as Num(2).
  CellFormat format = nullptr;
};

class Table {
 public:
  Table(std::string title, std::vector<Column> columns);

  // Records one row; `cells` lines up with the columns.
  void Add(std::vector<obs::Json> cells);
  // A line printed under the rows (text output only).
  void AddNote(std::string line);

  // "\n== title ==", the reproduction context line, the column headers,
  // one line per row and the notes.
  std::string Text() const;
  // One object per row holding the keyed cells in column order.
  std::vector<obs::Json> JsonRows() const;

 private:
  std::string title_;
  std::vector<Column> columns_;
  std::vector<std::vector<obs::Json>> rows_;
  std::vector<std::string> notes_;
};

// Prints every table and writes {"bench": name, "context": {scale_shift,
// max_queries, seed, sim_threads}, "rows": the tables' rows in order} to
// BENCH_<name>.json under LIGHTRW_BENCH_JSON_DIR. Returns the process exit
// code: 0, or 1 when the file cannot be written.
int Report(const std::string& name, const std::vector<Table>& tables);

// Prints a failed run's status to stderr and returns the exit code 1.
int RunFailed(const Status& status);

}  // namespace lightrw::bench

#endif  // LIGHTRW_BENCH_BENCH_UTIL_H_
