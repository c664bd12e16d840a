// qbench — the benchmark's in-process probe and load generator.
//
//   qbench env
//       Build and dispatch facts (compiler, build type, SIMD tier).
//   qbench discover <csv> --eps E --backend tuple|bitset --threads T
//                   --seed S --layers 0|1 --report F
//       Correctness reference for `qikey discover`: the in-process
//       `DiscoveryPipeline::Run` report; with --layers, also times each
//       ingest and pipeline step through the modules' public calls.
//   qbench expect <snapshot> <pool> <out>
//       Expected wire line for every request line of <pool>, from an
//       in-process `QueryEngine` over the same snapshot file.
//   qbench serve-layers <snapshot> <pool>
//       Per-layer timings of the serve path's public calls.
//   qbench load --port P --pool F --expect F --seq F --rate R
//               --count N --conns C --seed S --offset O --limit-us L
//               --abort-conn-inflight N --windows W
//       Single-threaded open-loop client; checks every response line.
//
// Every subcommand ends with one `QBENCH {json}` line on stdout.

#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common.h"
#include "core/evidence_block.h"

namespace qbench {

double ProcStatusMb(const char* key) {
  std::ifstream in("/proc/self/status");
  std::string line;
  size_t key_len = std::strlen(key);
  while (std::getline(in, line)) {
    if (line.compare(0, key_len, key) == 0 && line.size() > key_len &&
        line[key_len] == ':') {
      return std::strtod(line.c_str() + key_len + 1, nullptr) / 1024.0;
    }
  }
  return 0.0;
}

std::vector<std::string> ReadLines(const std::string& path) {
  std::ifstream in(path);
  if (!in) Die("cannot read " + path);
  std::vector<std::string> lines;
  std::string line;
  while (std::getline(in, line)) lines.push_back(line);
  return lines;
}

void JsonLine::Num(const std::string& key, double value) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.9g", value);
  fields_[key] = buf;
}

void JsonLine::Str(const std::string& key, const std::string& value) {
  std::string quoted = "\"";
  for (char c : value) {
    if (c == '"' || c == '\\') quoted += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    quoted += c;
  }
  quoted += '"';
  fields_[key] = quoted;
}

void JsonLine::Emit() const {
  std::string out = "QBENCH {";
  bool first = true;
  for (const auto& [key, value] : fields_) {
    if (!first) out += ',';
    first = false;
    out += '"' + key + "\":" + value;
  }
  out += '}';
  std::printf("%s\n", out.c_str());
  std::fflush(stdout);
}

void Die(const std::string& message) {
  std::fprintf(stderr, "qbench: %s\n", message.c_str());
  std::exit(1);
}

Flags::Flags(int argc, char** argv, int first) {
  for (int i = first; i < argc; i += 2) {
    std::string name = argv[i];
    if (name.rfind("--", 0) != 0 || i + 1 >= argc) {
      Die("bad flag list at " + name);
    }
    values_[name.substr(2)] = argv[i + 1];
  }
}

std::string Flags::Str(const std::string& name) const {
  auto it = values_.find(name);
  if (it == values_.end()) Die("missing --" + name);
  return it->second;
}

double Flags::Num(const std::string& name) const {
  std::string text = Str(name);
  char* end = nullptr;
  double v = std::strtod(text.c_str(), &end);
  if (end == text.c_str() || *end != '\0') Die("--" + name + " not a number");
  return v;
}

int RunEnv() {
  JsonLine out;
  out.Str("compiler", QBENCH_COMPILER);
  out.Str("build_type", QBENCH_BUILD_TYPE);
  out.Str("simd_tier",
          qikey::EvidenceKernelName(qikey::ActiveEvidenceKernel()));
  const char* force = std::getenv("QIKEY_FORCE_SCALAR");
  out.Str("force_scalar", force != nullptr ? force : "");
  out.Emit();
  return 0;
}

}  // namespace qbench

int main(int argc, char** argv) {
  if (argc < 2) qbench::Die("usage: qbench <env|discover|expect|serve-layers|load> ...");
  std::string cmd = argv[1];
  if (cmd == "env") return qbench::RunEnv();
  if (cmd == "discover") return qbench::RunDiscover(argc, argv);
  if (cmd == "expect") return qbench::RunExpect(argc, argv);
  if (cmd == "serve-layers") return qbench::RunServeLayers(argc, argv);
  if (cmd == "load") return qbench::RunLoad(argc, argv);
  qbench::Die("unknown subcommand " + cmd);
}
