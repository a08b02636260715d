// Fuzz harness for the wire decoders: ParseFrame and the six message
// Decode functions (service/transport.h), the two batch types included. The decoders' contract is
// TOTAL — any byte string yields OK or a typed Status, never UB — and
// this harness is where that contract meets adversarial input: a shard
// listener feeds whatever arrives on a TCP socket straight into these
// functions.
//
// Two build modes (CMake option DBSA_FUZZ):
//   * clang: -fsanitize=fuzzer defines DBSA_USE_LIBFUZZER and libFuzzer
//     drives LLVMFuzzerTestOneInput with coverage-guided mutation.
//   * anything else: the standalone main() below replays the seed corpus
//     and then runs a time-boxed random-mutation loop over it — no
//     coverage guidance, but the same harness body, so the ASan/UBSan CI
//     smoke works on any toolchain.
//
// Seed corpus: fuzz/corpus/parse_frame/ holds one valid v5 frame of
// every message type (regenerate with fuzz/make_corpus.cc).

#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>

#include "service/transport.h"
#include "util/check.h"

namespace {

using dbsa::service::GatherBatch;
using dbsa::service::GatherPartial;
using dbsa::service::MessageType;
using dbsa::service::ParseFrame;
using dbsa::service::PatchCorrelation;
using dbsa::service::PeekCorrelation;
using dbsa::service::ScatterBatch;
using dbsa::service::ScatterRequest;
using dbsa::service::StatsReply;
using dbsa::service::StatsRequest;
using dbsa::service::kWireEnvelopeSize;

void CheckOneInput(const uint8_t* data, size_t size) {
  const std::string bytes(reinterpret_cast<const char*>(data),  // lint-allow-reinterpret: libFuzzer ABI hands uint8_t*, ParseFrame wants chars.
                          size);

  MessageType type = MessageType::kScatterRequest;
  const char* payload = nullptr;
  size_t payload_size = 0;
  uint64_t correlation = 0;
  const dbsa::Status parsed =
      ParseFrame(bytes, &type, &payload, &payload_size, &correlation);
  if (parsed.ok()) {
    // A parsed payload must lie entirely inside the input buffer.
    DBSA_CHECK(payload >= bytes.data() + kWireEnvelopeSize);
    DBSA_CHECK(payload + payload_size == bytes.data() + bytes.size());
    // The correlation field must round-trip through peek and patch.
    DBSA_CHECK(PeekCorrelation(bytes) == correlation);
    std::string restamped = bytes;
    PatchCorrelation(&restamped, correlation ^ 0x5a5a5a5a5a5a5a5aULL);
    DBSA_CHECK(PeekCorrelation(restamped) ==
               (correlation ^ 0x5a5a5a5a5a5a5a5aULL));
  }

  // Every decoder over every input: total by contract. A frame that
  // decodes OK must also re-encode without tripping the encoder.
  ScatterRequest scatter;
  if (ScatterRequest::Decode(bytes, &scatter).ok()) (void)scatter.Encode();
  GatherPartial gather;
  if (GatherPartial::Decode(bytes, &gather).ok()) (void)gather.Encode();
  StatsRequest stats_request;
  if (StatsRequest::Decode(bytes, &stats_request).ok()) {
    (void)stats_request.Encode();
  }
  StatsReply stats_reply;
  if (StatsReply::Decode(bytes, &stats_reply).ok()) (void)stats_reply.Encode();
  // A batch that decodes re-encodes to a batch that decodes to the same
  // number of entries.
  ScatterBatch scatter_batch;
  if (ScatterBatch::Decode(bytes, &scatter_batch).ok()) {
    ScatterBatch again;
    DBSA_CHECK(ScatterBatch::Decode(scatter_batch.Encode(), &again).ok());
    DBSA_CHECK(again.requests.size() == scatter_batch.requests.size());
  }
  GatherBatch gather_batch;
  if (GatherBatch::Decode(bytes, &gather_batch).ok()) {
    GatherBatch again;
    DBSA_CHECK(GatherBatch::Decode(gather_batch.Encode(), &again).ok());
    DBSA_CHECK(again.partials.size() == gather_batch.partials.size());
  }
}

}  // namespace

extern "C" int LLVMFuzzerTestOneInput(const uint8_t* data, size_t size) {
  CheckOneInput(data, size);
  return 0;
}

#ifndef DBSA_USE_LIBFUZZER

// ---------------------------------------------------------------------
// Standalone driver (no libFuzzer): replay every corpus file passed on
// the command line, then mutate them randomly for a time budget.
//
//   fuzz_parse_frame [-seconds N] corpus_file...
//
// Deterministic per (seed corpus, N, DBSA_FUZZ_SEED): mutations come
// from one seeded mt19937, so a CI failure reproduces locally.

#include <chrono>
#include <cstdlib>
#include <fstream>
#include <random>
#include <vector>

namespace {

bool ReadFile(const char* path, std::string* out) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return false;
  out->assign(std::istreambuf_iterator<char>(in),
              std::istreambuf_iterator<char>());
  return true;
}

std::string Mutate(const std::string& seed, std::mt19937* rng) {
  std::string m = seed;
  switch ((*rng)() % 5) {
    case 0:  // Flip bytes.
      if (!m.empty()) {
        const size_t edits = 1 + (*rng)() % 8;
        for (size_t i = 0; i < edits; ++i) {
          m[(*rng)() % m.size()] = static_cast<char>((*rng)());
        }
      }
      break;
    case 1:  // Truncate.
      m.resize(m.empty() ? 0 : (*rng)() % m.size());
      break;
    case 2: {  // Extend with noise.
      const size_t extra = 1 + (*rng)() % 64;
      for (size_t i = 0; i < extra; ++i) m.push_back(static_cast<char>((*rng)()));
      break;
    }
    case 3:  // Fresh garbage, envelope-sized neighborhood.
      m.resize((*rng)() % 64);
      for (char& c : m) c = static_cast<char>((*rng)());
      break;
    default:  // Splice two halves at a random pivot.
      if (m.size() >= 2) {
        const size_t pivot = (*rng)() % m.size();
        m = m.substr(pivot) + m.substr(0, pivot);
      }
      break;
  }
  return m;
}

}  // namespace

int main(int argc, char** argv) {
  int seconds = 5;
  std::vector<std::string> seeds;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "-seconds") == 0 && i + 1 < argc) {
      seconds = std::atoi(argv[++i]);
      continue;
    }
    std::string bytes;
    if (!ReadFile(argv[i], &bytes)) {
      std::fprintf(stderr, "fuzz_parse_frame: cannot read %s\n", argv[i]);
      return 2;
    }
    seeds.push_back(std::move(bytes));
  }
  for (const std::string& seed : seeds) {
    CheckOneInput(reinterpret_cast<const uint8_t*>(seed.data()),  // lint-allow-reinterpret: inverse of the ABI cast above.
                  seed.size());
  }
  std::fprintf(stderr, "fuzz_parse_frame: %zu corpus seeds replayed\n",
               seeds.size());
  if (seeds.empty()) seeds.push_back(std::string());

  uint32_t seed_value = 0x5eed;
  if (const char* env = std::getenv("DBSA_FUZZ_SEED")) {
    seed_value = static_cast<uint32_t>(std::strtoul(env, nullptr, 0));
  }
  std::mt19937 rng(seed_value);
  const auto stop =
      std::chrono::steady_clock::now() + std::chrono::seconds(seconds);
  uint64_t iterations = 0;
  while (std::chrono::steady_clock::now() < stop) {
    for (int burst = 0; burst < 256; ++burst) {
      const std::string input = Mutate(seeds[rng() % seeds.size()], &rng);
      CheckOneInput(reinterpret_cast<const uint8_t*>(input.data()),  // lint-allow-reinterpret: inverse of the ABI cast above.
                    input.size());
      ++iterations;
    }
  }
  std::fprintf(stderr, "fuzz_parse_frame: %llu mutated inputs, no failures\n",
               static_cast<unsigned long long>(iterations));
  return 0;
}

#endif  // !DBSA_USE_LIBFUZZER
