// `qbench expect` and `qbench serve-layers`: the in-process side of the
// serving path (request line on a socket -> response line).
//
// `expect` answers every request line of a pool through the same calls
// the server makes (ParseQueryRequest, QueryEngine::ExecuteBatch,
// EncodeResponseLine) over the same snapshot file, so each served line
// can be compared byte for byte. `serve-layers` times those calls one
// layer at a time.

#include <fstream>
#include <span>

#include "common.h"
#include "core/bitset_filter.h"
#include "core/tuple_sample_filter.h"
#include "serve/protocol.h"
#include "serve/query_engine.h"
#include "serve/snapshot.h"
#include "snapfile/snapfile.h"

namespace qbench {
namespace {

using qikey::QueryKind;
using qikey::QueryRequest;
using qikey::QueryResponse;

qikey::ServeSnapshot ReadSnapshot(const std::string& path) {
  qikey::Result<qikey::ServeSnapshot> snap =
      qikey::snapfile::ReadSnapshotFile(path);
  if (!snap.ok()) Die(snap.status().ToString());
  return std::move(snap).ValueOrDie();
}

std::vector<QueryRequest> ParsePool(const std::vector<std::string>& lines,
                                    const qikey::Schema& schema) {
  std::vector<QueryRequest> requests;
  requests.reserve(lines.size());
  for (const std::string& line : lines) {
    qikey::Result<QueryRequest> req = qikey::ParseQueryRequest(line, schema);
    if (!req.ok()) Die("pool line '" + line + "': " + req.status().ToString());
    requests.push_back(std::move(req).ValueOrDie());
  }
  return requests;
}

/// Median over `reps` timings of `fn`, in nanoseconds.
template <typename Fn>
double MedianNs(int reps, Fn fn) {
  std::vector<double> ns;
  ns.reserve(static_cast<size_t>(reps));
  for (int i = 0; i < reps; ++i) {
    int64_t t0 = NowNs();
    fn();
    ns.push_back(static_cast<double>(NowNs() - t0));
  }
  return Median(std::move(ns));
}

}  // namespace

int RunExpect(int argc, char** argv) {
  if (argc < 5) Die("expect needs <snapshot> <pool> <out>");
  qikey::ServeSnapshot snapshot = ReadSnapshot(argv[2]);
  qikey::Schema schema = snapshot.schema();
  qikey::SnapshotStore store;
  if (!store.Publish(std::move(snapshot)).ok()) Die("publish failed");
  qikey::QueryEngineOptions options;
  options.num_threads = 0;  // one per hardware thread; answers are identical
  options.cache_capacity = 0;
  qikey::QueryEngine engine(&store, options);

  std::vector<std::string> lines = ReadLines(argv[3]);
  std::vector<QueryRequest> requests = ParsePool(lines, schema);
  std::vector<QueryResponse> responses = engine.ExecuteBatch(requests);
  std::ofstream out(argv[4], std::ios::trunc);
  uint64_t is_key = 0, accepts = 0;
  for (size_t i = 0; i < requests.size(); ++i) {
    if (!responses[i].status.ok()) {
      Die("pool line '" + lines[i] + "' failed in-process: " +
          responses[i].status.ToString());
    }
    if (requests[i].kind == QueryKind::kIsKey) {
      ++is_key;
      accepts += responses[i].verdict == qikey::FilterVerdict::kAccept;
    }
    out << qikey::EncodeResponseLine(requests[i], responses[i], schema) << '\n';
  }
  if (!out) Die("cannot write the expected answers");
  JsonLine summary;
  summary.Num("lines", static_cast<double>(lines.size()));
  summary.Num("accept_share",
              is_key > 0 ? static_cast<double>(accepts) / is_key : 0.0);
  summary.Emit();
  return 0;
}

int RunServeLayers(int argc, char** argv) {
  if (argc < 4) Die("serve-layers needs <snapshot> <pool>");
  const std::string path = argv[2];
  JsonLine out;

  // snapfile: map + validate the file (what startup and SIGHUP do).
  qikey::ServeSnapshot snapshot;
  out.Num("snapfile.read_ms",
          1e-6 * MedianNs(5, [&] { snapshot = ReadSnapshot(path); }));
  {
    std::ifstream f(path, std::ios::binary | std::ios::ate);
    out.Num("snapfile.mapped_mb",
            static_cast<double>(f.tellg()) / (1024.0 * 1024.0));
  }
  const qikey::Schema schema = snapshot.schema();

  // snapshot publish: the epoch swap a SIGHUP performs under load.
  qikey::SnapshotStore store;
  out.Num("snapshot.publish_us", 1e-3 * MedianNs(21, [&] {
            if (!store.Publish(snapshot).ok()) Die("publish failed");
          }));

  // protocol: parse every pool line, then encode every answer.
  // The first 512 pool lines are plenty for per-call medians and keep
  // the serial engine pass below short on the wide snapshot.
  std::vector<std::string> lines = ReadLines(argv[3]);
  if (lines.size() > 512) lines.resize(512);
  std::vector<QueryRequest> requests = ParsePool(lines, schema);
  const double n = static_cast<double>(lines.size());
  out.Num("protocol.parse_ns", MedianNs(9, [&] {
            for (const std::string& line : lines) {
              if (!qikey::ParseQueryRequest(line, schema).ok()) Die("parse");
            }
          }) / n);
  qikey::QueryEngineOptions serial;
  serial.num_threads = 1;
  serial.cache_capacity = 0;
  qikey::QueryEngine engine(&store, serial);
  std::vector<QueryResponse> responses = engine.ExecuteBatch(requests);
  size_t encoded_bytes = 0;
  out.Num("protocol.encode_ns", MedianNs(9, [&] {
            for (size_t i = 0; i < requests.size(); ++i) {
              encoded_bytes +=
                  qikey::EncodeResponseLine(requests[i], responses[i], schema)
                      .size();
            }
          }) / n);

  // kernel: one request's filter query on the mapped filter. Bytes are
  // computed from the filter's layout: a full scan (an accept) reads
  // every packed pair's words on the bitset backend, and every sampled
  // tuple's projected codes on the tuple backend.
  const qikey::SeparationFilter& filter = *snapshot.filter;
  const auto* bitset =
      dynamic_cast<const qikey::BitsetSeparationFilter*>(&filter);
  const auto* tuple = dynamic_cast<const qikey::TupleSampleFilter*>(&filter);
  std::vector<double> query_ns;
  double accept_bytes = 0.0, accept_ns = 0.0;
  uint64_t accepts = 0;
  for (const QueryRequest& req : requests) {
    if (req.kind != QueryKind::kIsKey || query_ns.size() >= 400) continue;
    std::span<const qikey::AttributeSet> one(&req.attrs, 1);
    std::vector<qikey::FilterVerdict> verdict;
    double ns = MedianNs(3, [&] { verdict = filter.QueryBatch(one); });
    query_ns.push_back(ns);
    if (verdict[0] != qikey::FilterVerdict::kAccept) continue;
    ++accepts;
    accept_ns += ns;
    if (bitset != nullptr) {
      accept_bytes += 8.0 * static_cast<double>(bitset->evidence().num_pairs() *
                                                bitset->evidence().words_per_pair());
    } else if (tuple != nullptr) {
      accept_bytes += 4.0 * static_cast<double>(tuple->sample().num_rows() *
                                                req.attrs.size());
    }
  }
  out.Num("kernel.query_us", 1e-3 * Median(query_ns));
  out.Num("kernel.accept_share",
          query_ns.empty() ? 0.0 : static_cast<double>(accepts) / query_ns.size());
  out.Num("kernel.gb_per_s", accept_ns > 0 ? accept_bytes / accept_ns : 0.0);

  // sample evaluation: one `separation` through the engine, cache off.
  std::vector<double> eval_ns;
  for (const QueryRequest& req : requests) {
    if (req.kind != QueryKind::kSeparation || eval_ns.size() >= 30) continue;
    std::span<const QueryRequest> one(&req, 1);
    eval_ns.push_back(MedianNs(1, [&] { engine.ExecuteBatch(one); }));
  }
  out.Num("sample_eval.us", 1e-3 * Median(eval_ns));
  out.Emit();
  return 0;
}

}  // namespace qbench
