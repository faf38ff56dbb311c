#include "checks.h"

#include <algorithm>
#include <filesystem>
#include <set>

namespace provbench {

Status CheckInclusionProof(const prov::ProvenanceStore& store,
                           const prov::ProvenanceRecord& record,
                           const ledger::TxProof& proof) {
  if (!store.VerifyRecordProof(record, proof)) {
    return Status::Corruption("inclusion proof of " + record.record_id +
                              " does not verify");
  }
  return Status::OK();
}

Status CheckTamperedInclusionRejected(const prov::ProvenanceStore& store,
                                      const prov::ProvenanceRecord& record,
                                      ledger::TxProof proof) {
  if (!proof.merkle_proof.steps.empty()) {
    proof.merkle_proof.steps[0].sibling[0] ^= 0x01;
  } else {
    proof.header.merkle_root[0] ^= 0x01;
  }
  if (store.VerifyRecordProof(record, proof)) {
    return Status::Corruption("tampered inclusion proof of " +
                              record.record_id + " still verifies");
  }
  return Status::OK();
}

Status CheckRecovered(const prov::ProvenanceStore& store,
                      const std::map<std::string, crypto::Digest>& expected) {
  for (const auto& [id, digest] : expected) {
    auto record = store.GetRecord(id);
    if (!record.ok()) {
      return Status::NotFound("record " + id + " missing after restart");
    }
    if (record->Hash() != digest) {
      return Status::Corruption("record " + id +
                                " differs from the one acknowledged");
    }
  }
  return Status::OK();
}

Status CheckLogSize(uint64_t reported_bytes, const std::string& path) {
  std::error_code ec;
  const uintmax_t on_disk = std::filesystem::file_size(path, ec);
  if (ec) return Status::Internal("cannot stat " + path + ": " + ec.message());
  if (on_disk != reported_bytes) {
    return Status::Corruption("log reports " + std::to_string(reported_bytes) +
                              " bytes, file holds " + std::to_string(on_disk));
  }
  return Status::OK();
}

Status CheckSameSet(const std::vector<std::string>& actual,
                    std::vector<std::string> expected,
                    const std::string& what) {
  std::vector<std::string> sorted = actual;
  std::sort(sorted.begin(), sorted.end());
  if (std::adjacent_find(sorted.begin(), sorted.end()) != sorted.end()) {
    return Status::Corruption(what + ": duplicate entries");
  }
  std::sort(expected.begin(), expected.end());
  if (sorted != expected) {
    return Status::Corruption(what + ": got " + std::to_string(sorted.size()) +
                              " entries, expected " +
                              std::to_string(expected.size()) +
                              " (or the same count with other members)");
  }
  return Status::OK();
}

Status CheckHistory(const std::vector<prov::ProvenanceRecord>& history,
                    size_t expected_count, const std::string& subject) {
  if (history.size() != expected_count) {
    return Status::Corruption("history of " + subject + " has " +
                              std::to_string(history.size()) +
                              " records, generator produced " +
                              std::to_string(expected_count));
  }
  for (size_t i = 1; i < history.size(); ++i) {
    if (history[i].timestamp < history[i - 1].timestamp) {
      return Status::Corruption("history of " + subject +
                                " is not in ascending time order");
    }
  }
  for (const auto& record : history) {
    if (record.subject != subject) {
      return Status::Corruption("history of " + subject + " holds record " +
                                record.record_id + " of another subject");
    }
  }
  return Status::OK();
}

Status CheckLineageProof(const Bytes& proof_bytes, const std::string& target,
                         const std::vector<std::string>& expected_records,
                         const audit::HeaderHashAt& header_hash_at) {
  auto proof = audit::LineageProof::Decode(proof_bytes);
  if (!proof.ok()) return proof.status();
  audit::LineageSummary summary;
  Status verified =
      audit::VerifyLineageProof(proof.value(), target, header_hash_at,
                                &summary);
  if (!verified.ok()) return verified;
  return CheckSameSet(summary.record_ids, expected_records,
                      "lineage proof of " + target);
}

Status CheckTamperedLineageRejected(const Bytes& proof_bytes,
                                    const std::string& target,
                                    const audit::HeaderHashAt& header_hash_at) {
  auto proof = audit::LineageProof::Decode(proof_bytes);
  if (!proof.ok()) return proof.status();
  // One byte of the target's anchoring transaction: the decoder accepts
  // it, so only the cryptographic checks can catch it.
  Bytes& tx = proof->nodes.at(0).tx_encoding;
  tx[tx.size() / 2] ^= 0x01;
  if (audit::VerifyLineageProof(proof.value(), target, header_hash_at).ok()) {
    return Status::Corruption("tampered lineage proof of " + target +
                              " still verifies");
  }
  return Status::OK();
}

}  // namespace provbench
