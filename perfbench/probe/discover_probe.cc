// `qbench discover`: the in-process reference and layer timer for the
// discovery path (CSV bytes on disk -> verified key).
//
// The reference is `LoadCsvDataset` + `DiscoveryPipeline::Run`, exactly
// the calls `qikey discover` makes, so its report must equal the CLI's
// byte for byte (the stage-timing line aside). With --layers 1 the same
// ingest is instead done one public call at a time (ReadFileBytes,
// ParseCsv, DatasetBuilder) and the pipeline stages are re-run one
// module call at a time on a fresh Rng with the run's seed, timing each
// call; the re-run must reproduce Run's key.

#include <fstream>
#include <memory>
#include <thread>

#include "common.h"
#include "core/bitset_filter.h"
#include "core/refine_engine.h"
#include "core/sample_bounds.h"
#include "core/tuple_sample_filter.h"
#include "data/csv_loader.h"
#include "data/dataset_builder.h"
#include "data/wire_codec.h"
#include "engine/pipeline.h"
#include "util/csv.h"
#include "util/rng.h"
#include "util/thread_pool.h"

namespace qbench {
namespace {

using qikey::AttributeIndex;
using qikey::AttributeSet;
using qikey::Dataset;
using qikey::FilterBackend;
using qikey::FilterVerdict;
using qikey::RowIndex;

FilterBackend ParseBackend(const std::string& name) {
  if (name == "tuple") return FilterBackend::kTupleSample;
  if (name == "bitset") return FilterBackend::kBitset;
  Die("unknown backend " + name);
}

/// Ingest through the three public calls `LoadCsvDataset` is made of,
/// timing each. The CSV table is dropped before encoding finishes, as
/// in the loader.
Dataset TimedIngest(const std::string& path, JsonLine* out) {
  int64_t t0 = NowNs();
  qikey::Result<std::string> bytes = qikey::ReadFileBytes(path);
  if (!bytes.ok()) Die(bytes.status().ToString());
  int64_t t1 = NowNs();
  double rss_before = ProcStatusMb("VmRSS");
  qikey::Result<qikey::CsvTable> table = qikey::ParseCsv(*bytes);
  if (!table.ok()) Die(table.status().ToString());
  double rss_after = ProcStatusMb("VmRSS");
  int64_t t2 = NowNs();
  double file_mb = static_cast<double>(bytes->size()) / (1024.0 * 1024.0);
  bytes = std::string();
  std::vector<std::string> names = std::move(table->header);
  if (names.empty()) {
    size_t width = table->rows.empty() ? 0 : table->rows[0].size();
    names = qikey::Schema::Anonymous(width).names();
  }
  qikey::DatasetBuilder builder(std::move(names));
  for (const auto& row : table->rows) {
    qikey::Status added = builder.AddRow(row);
    if (!added.ok()) Die(added.ToString());
  }
  table = qikey::CsvTable();
  Dataset data = std::move(builder).Finish();
  int64_t t3 = NowNs();
  out->Num("ingest.read_s", Seconds(t1 - t0));
  out->Num("ingest.parse_s", Seconds(t2 - t1));
  out->Num("ingest.encode_s", Seconds(t3 - t2));
  out->Num("ingest.mb_per_s", file_mb / Seconds(t3 - t0));
  out->Num("ingest.table_rss_mb", rss_after - rss_before);
  return data;
}

/// Re-runs the pipeline's stages through the modules' public calls in
/// the order `DiscoveryPipeline::Run` makes them, so the same seed
/// draws the same sample and pairs. Returns the emitted key.
AttributeSet TimedStages(const Dataset& data,
                         const qikey::PipelineOptions& opts, uint64_t seed,
                         JsonLine* out) {
  qikey::Rng rng(seed);
  size_t threads = opts.num_threads > 0
                       ? opts.num_threads
                       : std::max(1u, std::thread::hardware_concurrency());
  std::unique_ptr<qikey::ThreadPool> pool;
  if (threads > 1) pool = std::make_unique<qikey::ThreadPool>(threads);

  int64_t t0 = NowNs();
  uint64_t r = std::min<uint64_t>(
      qikey::TupleSampleSizePaper(
          static_cast<uint32_t>(data.num_attributes()), opts.eps),
      data.num_rows());
  std::vector<uint64_t> chosen = rng.SampleWithoutReplacement(data.num_rows(), r);
  std::vector<RowIndex> rows(chosen.begin(), chosen.end());
  auto sample = std::make_shared<Dataset>(data.SelectRows(rows));
  int64_t t1 = NowNs();

  std::unique_ptr<qikey::SeparationFilter> filter;
  if (opts.backend == FilterBackend::kTupleSample) {
    filter = std::make_unique<qikey::TupleSampleFilter>(
        qikey::TupleSampleFilter::FromSample(sample, rows, opts.detection));
  } else {
    qikey::BitsetFilterOptions bitset;
    bitset.eps = opts.eps;
    auto built = qikey::BitsetSeparationFilter::Build(data, bitset, &rng);
    if (!built.ok()) Die(built.status().ToString());
    filter = std::make_unique<qikey::BitsetSeparationFilter>(
        std::move(built).ValueOrDie());
  }
  int64_t t2 = NowNs();

  qikey::RefineEngine engine(*sample, opts.gain_strategy);
  engine.set_thread_pool(pool.get());
  qikey::RefineEngine::GreedyResult greedy = engine.RunGreedy(opts.max_attributes);
  AttributeSet key = greedy.chosen;
  int64_t t3 = NowNs();

  // Minimization as the pipeline does it: one batch of single drops,
  // then a fresh query for each further drop once the key has shrunk.
  uint64_t queries = 0;
  if (opts.minimize && key.size() > 1) {
    std::vector<AttributeIndex> members = key.ToIndices();
    std::vector<AttributeSet> candidates;
    for (AttributeIndex a : members) {
      AttributeSet candidate = key;
      candidate.Remove(a);
      candidates.push_back(std::move(candidate));
    }
    std::vector<FilterVerdict> verdicts =
        filter->QueryBatch(candidates, pool.get());
    queries += candidates.size();
    bool changed = false;
    for (size_t i = 0; i < members.size() && key.size() > 1; ++i) {
      if (verdicts[i] == FilterVerdict::kReject) continue;
      AttributeSet candidate = key;
      candidate.Remove(members[i]);
      if (changed) {
        ++queries;
        if (filter->Query(candidate) != FilterVerdict::kAccept) continue;
      }
      key = std::move(candidate);
      changed = true;
    }
  }
  int64_t t4 = NowNs();
  if (filter->Query(key) == FilterVerdict::kReject) filter->QueryWitness(key);
  int64_t t5 = NowNs();

  out->Num("sample.s", Seconds(t1 - t0));
  out->Num("sample.rows", static_cast<double>(sample->num_rows()));
  out->Num("filter.build_s", Seconds(t2 - t1));
  out->Num("filter.samples", static_cast<double>(filter->sample_size()));
  out->Num("filter.bytes", static_cast<double>(filter->MemoryBytes()));
  out->Num("greedy.s", Seconds(t3 - t2));
  out->Num("greedy.rounds", static_cast<double>(greedy.steps.size()));
  out->Num("minimize.s", Seconds(t4 - t3));
  out->Num("minimize.queries", static_cast<double>(queries));
  out->Num("verify.s", Seconds(t5 - t4));
  return key;
}

}  // namespace

int RunDiscover(int argc, char** argv) {
  if (argc < 3) Die("discover needs <csv>");
  std::string path = argv[2];
  Flags flags(argc, argv, 3);
  qikey::PipelineOptions opts;
  opts.eps = flags.Num("eps");
  opts.backend = ParseBackend(flags.Str("backend"));
  opts.num_threads = static_cast<size_t>(flags.Num("threads"));
  uint64_t seed = static_cast<uint64_t>(flags.Num("seed"));
  bool layers = flags.Num("layers") != 0;

  JsonLine out;
  Dataset data;
  if (layers) {
    data = TimedIngest(path, &out);
  } else {
    qikey::Result<Dataset> loaded = qikey::LoadCsvDataset(path);
    if (!loaded.ok()) Die(loaded.status().ToString());
    data = std::move(loaded).ValueOrDie();
  }

  qikey::Rng rng(seed);
  qikey::DiscoveryPipeline pipeline(opts);
  qikey::Result<qikey::PipelineResult> result = pipeline.Run(data, &rng);
  if (!result.ok()) Die(result.status().ToString());
  std::ofstream report(flags.Str("report"), std::ios::trunc);
  report << result->Report(&data.schema());
  if (!report) Die("cannot write the report");
  out.Str("verdict",
          result->verdict == FilterVerdict::kAccept ? "ACCEPT" : "REJECT");
  // The program's own stage report, cross-checked against TimedStages.
  for (const qikey::PipelineStage& stage : result->stages) {
    out.Num("program." + stage.name + "_s", stage.millis * 1e-3);
  }

  if (layers) {
    AttributeSet key = TimedStages(data, opts, seed, &out);
    if (!(key == result->key)) {
      Die("timed stages emitted " + key.ToString(&data.schema()) +
          " but DiscoveryPipeline::Run emitted " +
          result->key.ToString(&data.schema()));
    }
  }
  out.Emit();
  return 0;
}

}  // namespace qbench
