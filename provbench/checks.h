// Correctness checkers. Each compares what the program returned with
// what the benchmark's own generator computed apart from the program, or
// with a property the method must have, and returns a non-OK Status that
// says what disagreed. tests/checks_test.cc feeds each a deliberately
// wrong output and expects it to fail.

#ifndef PROVBENCH_CHECKS_H_
#define PROVBENCH_CHECKS_H_

#include <map>
#include <string>
#include <vector>

#include "audit/lineage_proof.h"
#include "ledger/chain.h"
#include "prov/store.h"

namespace provbench {

namespace prov = provledger::prov;
namespace ledger = provledger::ledger;
namespace audit = provledger::audit;
namespace crypto = provledger::crypto;
using provledger::Bytes;
using provledger::Status;

/// The record verifies against `proof` on the store's chain.
Status CheckInclusionProof(const prov::ProvenanceStore& store,
                           const prov::ProvenanceRecord& record,
                           const ledger::TxProof& proof);

/// `proof` with one byte flipped (in its Merkle path, or in the header's
/// Merkle root when the path is empty) must NOT verify.
Status CheckTamperedInclusionRejected(const prov::ProvenanceStore& store,
                                      const prov::ProvenanceRecord& record,
                                      ledger::TxProof proof);

/// Every expected record id is found in `store`, and the found record
/// hashes to the digest the generator computed for it.
Status CheckRecovered(const prov::ProvenanceStore& store,
                      const std::map<std::string, crypto::Digest>& expected);

/// The byte total a log reports equals the size of its file on disk.
Status CheckLogSize(uint64_t reported_bytes, const std::string& path);

/// `actual` holds exactly the ids in `expected` (order ignored,
/// duplicates in `actual` are an error).
Status CheckSameSet(const std::vector<std::string>& actual,
                    std::vector<std::string> expected,
                    const std::string& what);

/// A subject history: `expected_count` records, ascending timestamps.
Status CheckHistory(const std::vector<prov::ProvenanceRecord>& history,
                    size_t expected_count, const std::string& subject);

/// Decode and verify lineage-proof bytes for `target` against the
/// verifier's own headers, and require the proven record set to equal the
/// generator's ancestry set (target included).
Status CheckLineageProof(const Bytes& proof_bytes, const std::string& target,
                         const std::vector<std::string>& expected_records,
                         const audit::HeaderHashAt& header_hash_at);

/// The same proof with one byte of the target's transaction flipped must
/// be rejected.
Status CheckTamperedLineageRejected(const Bytes& proof_bytes,
                                    const std::string& target,
                                    const audit::HeaderHashAt& header_hash_at);

}  // namespace provbench

#endif  // PROVBENCH_CHECKS_H_
