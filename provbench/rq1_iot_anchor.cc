// rq1_iot_anchor: single-source capture (RQ1), Sigwart-style IoT
// provenance that anchors readings almost one per block.
//
// One thread anchors tiny cold-chain sensor readings through
// ProvenanceStore::Anchor at its default batch_size = 1, so each reading
// is its own block, with a ChainLog attached as the chain's block sink.
// Every kReadEvery anchors it issues one live read: a sensor's latest
// readings (subject query, descending, limited) plus an inclusion proof
// for the newest of them. A store snapshot is saved at nine tenths of the
// ingest. Then the stack restarts from disk (fresh chain, ChainLog Open +
// Replay, ProvenanceStore::Recover from the snapshot), and a
// ContinuousAuditor sweeps the recovered chain to its head.
//
// A round is that whole sequence over kReadings readings on a fresh
// stack; the run repeats rounds until --seconds have passed. The reading
// count is fixed because per-anchor cost grows with chain height.

#include <algorithm>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "audit/auditor.h"
#include "bench.h"
#include "checks.h"
#include "common/rng.h"
#include "ledger/chain_log.h"
#include "prov/store.h"

namespace provbench {
namespace {

using provledger::Rng;
using provledger::SystemClock;
namespace obs = provledger::obs;

constexpr size_t kReadings = 4000;
constexpr size_t kSensors = 200;
constexpr size_t kReadEvery = 2;
constexpr size_t kHistoryLimit = 8;
constexpr size_t kSnapshotAt = kReadings * 9 / 10;

struct Reading {
  prov::ProvenanceRecord record;
  crypto::Digest hash;
};

std::vector<Reading> MakeReadings(uint64_t seed, size_t round) {
  Rng rng(seed * 1000003 + round);
  std::vector<Reading> out;
  out.reserve(kReadings);
  for (size_t i = 0; i < kReadings; ++i) {
    prov::ProvenanceRecord rec;
    const size_t sensor = rng.NextBelow(kSensors);
    rec.record_id = "r" + std::to_string(round) + "-" + std::to_string(i);
    rec.operation = "reading";
    rec.subject = "sensor-" + std::to_string(sensor);
    rec.agent = "gateway-" + std::to_string(sensor % 16);
    rec.timestamp = 1'700'000'000'000'000LL + static_cast<int64_t>(i) * 1000;
    rec.fields["temp_c"] =
        std::to_string(static_cast<int>(rng.NextBelow(120)) - 40);
    rec.fields["pallet"] = "pallet-" + std::to_string(rng.NextBelow(500));
    Reading reading;
    reading.hash = rec.Hash();
    reading.record = std::move(rec);
    out.push_back(std::move(reading));
  }
  return out;
}

size_t EncodedProofBytes(const ledger::TxProof& proof) {
  provledger::Encoder enc;
  proof.header.EncodeTo(&enc);
  proof.merkle_proof.EncodeTo(&enc);
  return proof.block_hash.size() + enc.buffer().size();
}

struct RoundResult {
  double ingest_rec_per_s = 0;
  double commit_p50_ms = 0;
  double query_p50_ms = 0;
  double proof_fetch_ms = 0;
  double proof_verify_ms = 0;
  double proof_bytes = 0;
  double restart_s = 0;
  double audit_rec_per_s = 0;
  double append_cost_growth = 0;
  double log_bytes_per_rec = 0;
  size_t proofs = 0;
  size_t audit_passes = 0;
  size_t audit_blocks = 0;
};

// One round's samples.
struct Samples {
  std::vector<double> read_ms;
  std::vector<double> prove_ms;
  std::vector<double> verify_ms;
  std::vector<double> proof_bytes;
};

// One full round; false when the stack could not be built at all.
bool RunRound(const RunOptions& options, size_t round,
              std::vector<Reading> readings, obs::Registry* ingest_registry,
              obs::Registry* restart_registry,
              std::vector<double>* scanned_per_match, RoundResult* result,
              Report* report) {
  namespace fs = std::filesystem;
  const std::string dir =
      options.data_dir + "/round-" + std::to_string(round);
  const std::string log_path = dir + "/chain.log";
  const std::string snap_path = dir + "/store.snap";
  fs::create_directories(dir);
  SystemClock clock;

  Samples samples;
  std::map<std::string, crypto::Digest> acknowledged;
  std::map<std::string, std::vector<size_t>> by_sensor;  // reading indexes
  std::vector<double> round_anchor_ms;
  round_anchor_ms.reserve(kReadings);
  {
    ledger::ChainOptions chain_options;
    chain_options.registry = ingest_registry;
    ledger::Blockchain chain(chain_options);
    ledger::ChainLogOptions log_options;
    log_options.sync_writes = false;  // flush policy: see README
    log_options.registry = ingest_registry;
    auto log = ledger::ChainLog::Open(log_path, log_options);
    if (!log.ok() || !log.value()->AttachTo(&chain).ok()) {
      std::fprintf(stderr, "rq1: cannot open chain log %s\n",
                   log_path.c_str());
      return false;
    }
    prov::ProvenanceStoreOptions store_options;
    store_options.registry = ingest_registry;
    prov::ProvenanceStore store(&chain, &clock, store_options);

    Rng read_rng(options.seed * 7919 + round);
    double anchor_total_s = 0;
    for (size_t i = 0; i < kReadings; ++i) {
      const Reading& reading = readings[i];
      report->Attempted();
      Status anchored;
      const auto t0 = BenchClock::now();
      {
        Span span("store.anchor");
        anchored = store.Anchor(reading.record);
      }
      const double ms = MillisSince(t0);
      anchor_total_s += ms / 1e3;
      round_anchor_ms.push_back(ms);
      if (!anchored.ok()) {
        report->Failed("Anchor " + reading.record.record_id + ": " +
                       anchored.ToString());
        continue;
      }
      acknowledged[reading.record.record_id] = reading.hash;
      by_sensor[reading.record.subject].push_back(i);

      if (i + 1 == kSnapshotAt) {
        report->Check(log.value()->Sync().ok(), "chain log sync");
        report->Check(store.SaveSnapshot(snap_path).ok(), "save snapshot");
      }
      if ((i + 1) % kReadEvery != 0) continue;

      // Live read: a sensor seen so far, its latest readings, and an
      // inclusion proof for the newest.
      auto it = by_sensor.begin();
      std::advance(it, read_rng.NextBelow(by_sensor.size()));
      const std::string& sensor = it->first;
      const std::vector<size_t>& expected = it->second;
      const prov::Query query =
          prov::Query().WithSubject(sensor).Descending().Limit(kHistoryLimit);
      report->Attempted();
      const auto r0 = BenchClock::now();
      prov::QueryResult latest;
      {
        Span span("graph.exec.subject");
        latest = store.Execute(query);
      }
      const auto p0 = BenchClock::now();
      provledger::Result<ledger::TxProof> proof =
          Status::Internal("no record");
      if (!latest.records.empty()) {
        Span span("store.prove");
        proof = store.ProveRecord(latest.records[0].record_id);
      }
      const double prove_ms = MillisSince(p0);
      const auto v0 = BenchClock::now();
      bool verified = false;
      if (proof.ok()) {
        Span span("store.verify");
        verified = store.VerifyRecordProof(latest.records[0], proof.value());
      }
      const double verify_ms = MillisSince(v0);
      samples.read_ms.push_back(MillisSince(r0));
      if (!proof.ok()) {
        report->Failed("live read of " + sensor + ": " +
                       proof.status().ToString());
        continue;
      }
      samples.prove_ms.push_back(prove_ms);
      samples.verify_ms.push_back(verify_ms);
      samples.proof_bytes.push_back(
          static_cast<double>(EncodedProofBytes(proof.value())));

      // Newest first, as many as the sensor has up to the limit.
      const size_t want = std::min(kHistoryLimit, expected.size());
      bool order_ok = latest.records.size() == want;
      for (size_t k = 0; order_ok && k < want; ++k) {
        order_ok = latest.records[k].record_id ==
                   readings[expected[expected.size() - 1 - k]]
                       .record.record_id;
      }
      report->Check(order_ok, "latest readings of " + sensor);
      report->Check(verified, "inclusion proof of " +
                                  latest.records[0].record_id);
      report->Check(CheckTamperedInclusionRejected(store, latest.records[0],
                                                   proof.value())
                        .ok(),
                    "tampered inclusion proof rejected");
      if (Tracer::Get().enabled()) {
        const prov::QueryExplain explain = store.Explain(query);
        if (explain.rows_matched > 0) {
          scanned_per_match->push_back(
              static_cast<double>(explain.candidates_scanned) /
              static_cast<double>(explain.rows_matched));
        }
      }
    }
    report->Check(log.value()->Sync().ok(), "chain log sync");
    result->ingest_rec_per_s = static_cast<double>(kReadings) / anchor_total_s;
    report->Check(chain.height() == kReadings,
                  "chain height " + std::to_string(chain.height()) +
                      " equals readings " + std::to_string(kReadings));
    Status log_size = CheckLogSize(log.value()->size_bytes(), log_path);
    report->Check(log_size.ok(), "chain log size: " + log_size.ToString());
    result->log_bytes_per_rec =
        static_cast<double>(log.value()->size_bytes()) / kReadings;
  }

  const size_t tenth = kReadings / 10;
  const double first = Median(std::vector<double>(
      round_anchor_ms.begin(), round_anchor_ms.begin() + tenth));
  const double last = Median(std::vector<double>(
      round_anchor_ms.end() - tenth, round_anchor_ms.end()));
  result->append_cost_growth = last / first;
  result->commit_p50_ms = Median(round_anchor_ms);
  result->query_p50_ms = Median(samples.read_ms);
  result->proof_fetch_ms = Median(samples.prove_ms);
  result->proof_verify_ms = Median(samples.verify_ms);
  result->proof_bytes = Median(samples.proof_bytes);
  result->proofs = samples.prove_ms.size();

  // Restart from disk: fresh chain, log replay, store recovery.
  const auto restart_t0 = BenchClock::now();
  ledger::ChainOptions chain_options;
  chain_options.registry = restart_registry;
  ledger::Blockchain chain(chain_options);
  ledger::ChainLogOptions log_options;
  log_options.registry = restart_registry;
  {
    Span span("chainlog.replay");
    auto log = ledger::ChainLog::Open(log_path, log_options);
    Status replayed = log.ok() ? log.value()->Replay(&chain) : log.status();
    if (!report->Check(replayed.ok(), "replay: " + replayed.ToString())) {
      return true;
    }
  }
  prov::ProvenanceStoreOptions store_options;
  store_options.registry = restart_registry;
  prov::ProvenanceStore store(&chain, &clock, store_options);
  {
    Span span("store.recover");
    Status recovered = store.Recover(snap_path);
    if (!report->Check(recovered.ok(), "recover: " + recovered.ToString())) {
      return true;
    }
  }
  result->restart_s = SecondsSince(restart_t0);
  report->Check(chain.height() == kReadings, "height after restart");
  Status found = CheckRecovered(store, acknowledged);
  report->Check(found.ok(), "after restart: " + found.ToString());

  // Full auditor sweep of the recovered stack.
  const auto audit_t0 = BenchClock::now();
  audit::ContinuousAuditorOptions audit_options;
  audit_options.registry = restart_registry;
  audit::ContinuousAuditor auditor(&chain, &store, audit_options);
  {
    Span span("snapshot.publish");
    report->Check(store.PublishSnapshot().ok(), "publish for audit");
  }
  while (auditor.audited_height() < chain.height()) {
    audit::AuditReport pass;
    {
      Span span("audit.pass");
      pass = auditor.RunPass();
    }
    ++result->audit_passes;
    result->audit_blocks += pass.blocks_audited;
    if (pass.blocks_audited == 0) break;  // cannot advance: a finding stuck
  }
  const double audit_s = SecondsSince(audit_t0);
  result->audit_rec_per_s =
      static_cast<double>(auditor.records_audited()) / audit_s;
  report->Check(auditor.records_audited() == kReadings &&
                    auditor.findings_total() == 0,
                "audit sweep covered " +
                    std::to_string(auditor.records_audited()) +
                    " records with " +
                    std::to_string(auditor.findings_total()) + " findings");
  std::error_code ec;
  fs::remove_all(dir, ec);
  return true;
}

}  // namespace

bool RunIotAnchor(const RunOptions& options, Report* report) {
  obs::Registry ingest_registry;
  obs::Registry restart_registry;
  std::vector<double> scanned_per_match;
  std::vector<RoundResult> rounds;
  double setup_s = 0;
  const auto measure_t0 = BenchClock::now();
  for (size_t round = 0;
       round == 0 || SecondsSince(measure_t0) < options.seconds; ++round) {
    RoundPin pin(round);
    std::vector<Reading> readings = MakeReadings(options.seed, round);
    if (round == 0) setup_s = SecondsSince(options.process_start);
    RoundResult result;
    if (!RunRound(options, round, std::move(readings), &ingest_registry,
                  &restart_registry, &scanned_per_match, &result, report)) {
      return false;
    }
    rounds.push_back(result);
  }

  auto per_round = [&](double RoundResult::*field) {
    std::vector<double> values;
    for (const auto& r : rounds) values.push_back(r.*field);
    return values;
  };
  auto median_of = [&](double RoundResult::*field) {
    return Median(per_round(field));
  };
  auto lower_best = [&](double RoundResult::*field) {
    return BestRound(per_round(field), false);
  };
  auto higher_best = [&](double RoundResult::*field) {
    return BestRound(per_round(field), true);
  };
  report->EndToEnd("setup_s", setup_s, "s");
  report->EndToEnd("ingest_rec_per_s",
                   higher_best(&RoundResult::ingest_rec_per_s), "rec/s");
  report->EndToEnd("commit_p50_ms", lower_best(&RoundResult::commit_p50_ms),
                   "ms");
  report->EndToEnd("query_p50_ms", lower_best(&RoundResult::query_p50_ms),
                   "ms");
  report->EndToEnd("restart_s", lower_best(&RoundResult::restart_s), "s");
  report->EndToEnd("audit_rec_per_s",
                   higher_best(&RoundResult::audit_rec_per_s), "rec/s");
  report->EndToEnd("proof_fetch_ms", lower_best(&RoundResult::proof_fetch_ms),
                   "ms");
  report->EndToEnd("proof_verify_ms", lower_best(&RoundResult::proof_verify_ms),
                   "ms");
  report->EndToEnd("proof_bytes", median_of(&RoundResult::proof_bytes),
                   "bytes");
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");

  // Per-layer: spans (traced run) and the injected registries. Sums are
  // per round.
  const double n = static_cast<double>(rounds.size());
  const Tracer& tracer = Tracer::Get();
  double proofs = 0;
  for (const auto& r : rounds) proofs += static_cast<double>(r.proofs);
  std::vector<double> prove_and_verify;
  {
    const auto prove = tracer.DurationsMs("store.prove");
    const auto verify = tracer.DurationsMs("store.verify");
    for (size_t i = 0; i < prove.size() && i < verify.size(); ++i) {
      prove_and_verify.push_back(prove[i] + verify[i]);
    }
  }
  const double chain_append_s =
      HistogramSum(&ingest_registry, "chain_append_seconds") / n;
  const double anchor_wall_s = tracer.TotalSeconds("store.anchor") / n;
  report->Layer("graph.exec_ms.subject",
                Median(tracer.DurationsMs("graph.exec.subject")), "ms");
  report->Layer("graph.scanned_per_match", Median(scanned_per_match),
                "ratio");
  report->Layer("store.prove_ms", Median(prove_and_verify), "ms");
  report->Layer("store.recover_s", tracer.TotalSeconds("store.recover") / n,
                "s");
  report->Layer("chain.append_s", chain_append_s, "s");
  report->Layer("chain.validate_s",
                HistogramSum(&restart_registry, "chain_validate_seconds") / n,
                "s");
  report->Layer("chain.append_cost_growth",
                median_of(&RoundResult::append_cost_growth), "ratio");
  report->Layer("chain.merkle_tree_builds",
                static_cast<double>(CounterValue(
                    &ingest_registry, "chain_merkle_tree_builds_total")) /
                    proofs,
                "count");
  report->Layer("chainlog.append_s",
                HistogramSum(&ingest_registry, "chainlog_append_seconds") / n,
                "s");
  report->Layer("chainlog.replay_s", tracer.TotalSeconds("chainlog.replay") / n,
                "s");
  report->Layer("chainlog.bytes_per_rec",
                median_of(&RoundResult::log_bytes_per_rec), "bytes");
  report->Layer("audit.pass_ms", Median(tracer.DurationsMs("audit.pass")),
                "ms");
  double passes = 0;
  double blocks = 0;
  for (const auto& r : rounds) {
    passes += static_cast<double>(r.audit_passes);
    blocks += static_cast<double>(r.audit_blocks);
  }
  report->Layer("audit.blocks_per_pass", blocks / passes, "count");

  report->Stage("store.anchor (spans, wall)", anchor_wall_s);
  report->Stage("chain_append_seconds (registry)", chain_append_s);
  report->Stage("chain_validate_seconds (registry, ingest)",
                HistogramSum(&ingest_registry, "chain_validate_seconds") / n);
  report->Stage("chainlog_append_seconds (registry)",
                HistogramSum(&ingest_registry, "chainlog_append_seconds") / n);
  report->Stage("unattributed (anchor wall - chain append)",
                anchor_wall_s - chain_append_s);
  return true;
}

}  // namespace provbench
