// Tests for the benchmark's correctness checkers: each case feeds a
// deliberately wrong program output to a checker and expects the check to
// fail, next to the right output, which must pass. Build and run:
//
//   cmake --build .bench_build --target provbench_checks_test
//   ctest --test-dir .bench_build

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <string>

#include "checks.h"
#include "ledger/chain_log.h"
#include "model.h"

namespace provbench {
namespace {

int failures = 0;

#define EXPECT(cond)                                                    \
  do {                                                                  \
    if (!(cond)) {                                                      \
      std::fprintf(stderr, "%s:%d: expected %s\n", __FILE__, __LINE__, \
                   #cond);                                              \
      ++failures;                                                       \
    }                                                                   \
  } while (0)

// A chain of three records: r0 makes e0, r1 turns e0 into e1, r2 turns e1
// into e2.
std::vector<prov::ProvenanceRecord> ChainRecords() {
  std::vector<prov::ProvenanceRecord> out;
  for (int i = 0; i < 3; ++i) {
    prov::ProvenanceRecord rec;
    rec.record_id = "r" + std::to_string(i);
    rec.operation = "execute";
    rec.subject = "task";
    rec.agent = "lab";
    rec.timestamp = 1000 + i;
    if (i > 0) rec.inputs = {"e" + std::to_string(i - 1)};
    rec.outputs = {"e" + std::to_string(i)};
    out.push_back(rec);
  }
  return out;
}

struct Stack {
  provledger::SystemClock clock;
  ledger::Blockchain chain;
  prov::ProvenanceStore store{&chain, &clock};
  LineageModel model;

  Stack() {
    for (const auto& rec : ChainRecords()) {
      model.Add(rec);
      EXPECT(store.Anchor(rec).ok());
    }
  }
  audit::HeaderHashAt headers() const {
    return [this](uint64_t h) { return chain.BlockHashAt(h); };
  }
};

void TestInclusionProofWithFlippedByte() {
  Stack s;
  const prov::ProvenanceRecord record = s.store.GetRecord("r1").value();
  ledger::TxProof proof = s.store.ProveRecord("r1").value();
  EXPECT(CheckInclusionProof(s.store, record, proof).ok());
  EXPECT(CheckTamperedInclusionRejected(s.store, record, proof).ok());
  proof.header.merkle_root[7] ^= 0x10;
  EXPECT(!CheckInclusionProof(s.store, record, proof).ok());
}

void TestLineageProofWithFlippedByte() {
  Stack s;
  const Bytes bytes = audit::BuildLineageProof(s.store, "r2").value().Encode();
  const auto expected = s.model.RecordAncestry("r2");
  EXPECT(CheckLineageProof(bytes, "r2", expected, s.headers()).ok());
  EXPECT(CheckTamperedLineageRejected(bytes, "r2", s.headers()).ok());
  // Flip one byte of the target's transaction encoding, wherever a
  // decoder would still accept it: only verification can catch it.
  auto proof = audit::LineageProof::Decode(bytes).value();
  proof.nodes[0].tx_encoding[proof.nodes[0].tx_encoding.size() / 2] ^= 0x01;
  const Bytes flipped = proof.Encode();
  size_t differing = 0;
  for (size_t i = 0; i < bytes.size(); ++i) differing += bytes[i] != flipped[i];
  EXPECT(differing == 1);
  EXPECT(!CheckLineageProof(flipped, "r2", expected, s.headers()).ok());
}

void TestRecordMissingAfterRestart() {
  Stack s;
  std::map<std::string, crypto::Digest> acknowledged;
  for (const auto& rec : ChainRecords()) acknowledged[rec.record_id] = rec.Hash();
  EXPECT(CheckRecovered(s.store, acknowledged).ok());
  auto missing = acknowledged;
  missing["r3"] = ChainRecords()[0].Hash();
  EXPECT(!CheckRecovered(s.store, missing).ok());
  auto altered = acknowledged;
  altered["r1"][0] ^= 0x01;
  EXPECT(!CheckRecovered(s.store, altered).ok());
}

void TestWrongAncestorSet() {
  Stack s;
  const auto expected = s.model.EntityLineage("e2");
  EXPECT(CheckSameSet(s.store.Lineage("e2"), expected, "lineage").ok());
  EXPECT(!CheckSameSet(s.store.Lineage("e2"), {"e0"}, "lineage").ok());
  EXPECT(!CheckSameSet(s.store.Lineage("e2"), {"e0", "e1", "e9"}, "lineage")
              .ok());
  EXPECT(!CheckSameSet({"e0", "e0"}, {"e0", "e1"}, "lineage").ok());
  // A proof is checked against the generator's ancestry set too.
  const Bytes bytes = audit::BuildLineageProof(s.store, "r2").value().Encode();
  EXPECT(!CheckLineageProof(bytes, "r2", {"r2", "r1"}, s.headers()).ok());
}

void TestLogSizeDisagreeingWithFile() {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() /
                       ("provbench_checks_test_" + std::to_string(::getpid()));
  fs::create_directories(dir);
  const std::string path = (dir / "chain.log").string();
  {
    ledger::Blockchain chain;
    auto log = ledger::ChainLog::Open(path).value();
    EXPECT(log->AttachTo(&chain).ok());
    provledger::SystemClock clock;
    prov::ProvenanceStore store(&chain, &clock);
    for (const auto& rec : ChainRecords()) EXPECT(store.Anchor(rec).ok());
    EXPECT(CheckLogSize(log->size_bytes(), path).ok());
    EXPECT(!CheckLogSize(log->size_bytes() + 1, path).ok());
    EXPECT(!CheckLogSize(log->size_bytes(), path + ".absent").ok());
  }
  fs::remove_all(dir);
}

void TestHistoryOutOfOrderOrShort() {
  auto history = ChainRecords();
  EXPECT(CheckHistory(history, 3, "task").ok());
  EXPECT(!CheckHistory(history, 4, "task").ok());
  std::swap(history[0], history[2]);
  EXPECT(!CheckHistory(history, 3, "task").ok());
}

}  // namespace
}  // namespace provbench

int main() {
  provbench::TestInclusionProofWithFlippedByte();
  provbench::TestLineageProofWithFlippedByte();
  provbench::TestRecordMissingAfterRestart();
  provbench::TestWrongAncestorSet();
  provbench::TestLogSizeDisagreeingWithFile();
  provbench::TestHistoryOutOfOrderOrShort();
  if (provbench::failures != 0) {
    std::fprintf(stderr, "%d expectation(s) failed\n", provbench::failures);
    return 1;
  }
  std::printf("all checker tests passed\n");
  return 0;
}
