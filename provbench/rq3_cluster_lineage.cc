// rq3_cluster_lineage: exchange between organisations on separate
// ledgers (RQ3) — a 4-node replicated cluster that serves lineage proofs.
//
// A deterministic, volatile raft replication::Cluster commits batches of
// scientific-workflow records with deep derivation chains through
// Submit/CommitPending. One node crashes after kCrashAfterBatches batches;
// at the end it is Restart()ed and rejoins by catching up from its peers.
// Replicas then answer queries, and lineage proofs for a fixed sample of
// records at several ancestry depths are requested over repl/proof and
// verified against the requesting node's own headers.
//
// Volatile, because a durable node fsyncs once per block and the timings
// would then track the disk. A round is that whole sequence on a fresh
// cluster; the run repeats rounds until --seconds have passed.

#include <algorithm>
#include <string>
#include <vector>

#include "bench.h"
#include "checks.h"
#include "common/rng.h"
#include "model.h"
#include "replication/cluster.h"

namespace provbench {
namespace {

using provledger::Rng;
namespace replication = provledger::replication;

constexpr uint32_t kNodes = 4;
constexpr uint32_t kCrashed = 3;
constexpr size_t kWorkflows = 8;
constexpr size_t kBatch = 256;
constexpr size_t kBatches = 100;
constexpr size_t kRecords = kBatch * kBatches;
constexpr size_t kCrashAfterBatches = 40;
constexpr size_t kTasksPerWorkflow = 32;
constexpr size_t kQueries = 1000;
// Ancestry depths of the proved records (chain positions in a workflow).
constexpr size_t kDepths[] = {8, 64, 256, 800};
// Each proof is fetched and verified this many times (medians of a few
// milliseconds each would otherwise track scheduler noise).
constexpr size_t kProofRepeats = 3;
const char* kTypes[] = {"block", "status", "pull", "blocks",
                        "proof", "proofr", "metrics", "metricsr"};

std::string Output(size_t round, size_t wf, size_t k) {
  return "r" + std::to_string(round) + "/wf-" + std::to_string(wf) + "/d-" +
         std::to_string(k);
}

std::string RecordId(size_t round, size_t wf, size_t k) {
  return "r" + std::to_string(round) + "-w" + std::to_string(wf) + "-" +
         std::to_string(k);
}

std::string Task(size_t round, size_t wf, size_t k) {
  return "r" + std::to_string(round) + "/wf-" + std::to_string(wf) +
         "/task-" + std::to_string(k % kTasksPerWorkflow);
}

// Workflows interleave: record i belongs to workflow i % kWorkflows at
// chain position i / kWorkflows, and consumes the previous output of its
// workflow plus, now and then, an older one.
std::vector<prov::ProvenanceRecord> MakeRecords(uint64_t seed, size_t round,
                                                LineageModel* model) {
  Rng rng(seed * 2654435761ULL + round);
  std::vector<prov::ProvenanceRecord> out;
  out.reserve(kRecords);
  for (size_t i = 0; i < kRecords; ++i) {
    const size_t wf = i % kWorkflows;
    const size_t k = i / kWorkflows;
    std::vector<std::string> inputs;
    if (k > 0) inputs.push_back(Output(round, wf, k - 1));
    if (k > 1 && rng.NextBool(0.3)) {
      inputs.push_back(
          Output(round, wf, k - 2 - rng.NextBelow(std::min<size_t>(k - 1, 16))));
    }
    prov::ProvenanceRecord rec = prov::MakeScientificRecord(
        RecordId(round, wf, k), "execute", Task(round, wf, k),
        "lab-" + std::to_string(wf % 4),
        1'700'000'000'000'000LL + static_cast<int64_t>(i) * 100,
        "wf-" + std::to_string(wf),
        std::to_string(rng.NextBelow(9000)) + "ms", "user-" +
            std::to_string(wf),
        inputs.empty() ? "raw" : inputs[0], Output(round, wf, k), "");
    rec.inputs = std::move(inputs);
    rec.outputs = {Output(round, wf, k)};
    model->Add(rec);
    out.push_back(std::move(rec));
  }
  return out;
}

uint64_t ReplBytes(replication::Cluster* cluster, const char* type) {
  uint64_t total = 0;
  for (uint32_t n = 0; n < kNodes; ++n) {
    total += CounterValue(cluster->registry(n), "repl_bytes_total",
                          {{"type", type}});
  }
  return total;
}

struct RoundResult {
  double ingest_rec_per_s = 0;
  double commit_p50_ms = 0;
  double query_p50_ms = 0;
  double proof_fetch_ms = 0;
  double proof_verify_ms = 0;
  double proof_bytes = 0;
  double rejoin_s = 0;
  double audit_rec_per_s = 0;
  double block_bytes_per_rec = 0;
  double blocks_bytes_per_rec = 0;
  double catchup_pulls = 0;
  double catchup_blocks = 0;
  double follower_validate_s = 0;
  double rejoin_validate_s = 0;
  double messages_per_commit = 0;
  double sim_ms_per_commit = 0;
  double net_messages_per_rec = 0;
  double merkle_builds_per_proof = 0;
};

// Timings of one round.
struct RoundSamples {
  std::vector<double> commit_ms;
  std::vector<double> query_ms;
  std::vector<double> fetch_ms;
  std::vector<double> verify_ms;
  std::vector<double> proof_bytes;
};

// Per-layer samples of the whole run.
struct Samples {
  std::vector<double> proof_nodes;
  std::vector<double> proof_headers;
  std::vector<double> build_ms;
};

// One round on a fresh cluster; false when the cluster cannot be built.
bool RunRound(const RunOptions& options, size_t round,
              std::vector<prov::ProvenanceRecord> records,
              const LineageModel& model, Samples* samples,
              RoundResult* result, Report* report) {
  replication::ClusterOptions cluster_options;
  cluster_options.num_nodes = kNodes;
  cluster_options.seed = options.seed * 101 + round;
  cluster_options.consensus = "raft";
  auto created = replication::Cluster::Create(cluster_options);
  if (!created.ok()) {
    std::fprintf(stderr, "rq3: Cluster::Create: %s\n",
                 created.status().ToString().c_str());
    return false;
  }
  replication::Cluster* cluster = created.value().get();
  RoundSamples timings;

  // ---- Ingest, with one node crashing part-way. ----
  const auto ingest_t0 = BenchClock::now();
  for (size_t b = 0; b < kBatches; ++b) {
    if (b == kCrashAfterBatches) {
      // Everyone up, nothing dropped so far: what the network counted as
      // sent must equal what the nodes counted on receipt.
      uint64_t received = 0;
      for (const char* type : kTypes) received += ReplBytes(cluster, type);
      const uint64_t sent = cluster->net()->metrics().bytes_sent;
      report->Check(sent == received,
                    "network sent " + std::to_string(sent) +
                        " bytes, nodes received " + std::to_string(received));
      cluster->Crash(kCrashed);
    }
    for (size_t i = b * kBatch; i < (b + 1) * kBatch; ++i) {
      Status queued = cluster->Submit(std::move(records[i]));
      if (!queued.ok()) report->Failed("Submit: " + queued.ToString());
    }
    report->Attempted();
    const auto c0 = BenchClock::now();
    Status committed;
    {
      Span span("replication.commit");
      committed = cluster->CommitPending();
    }
    timings.commit_ms.push_back(MillisSince(c0));
    if (!committed.ok()) {
      report->Failed("CommitPending: " + committed.ToString());
    }
  }
  result->ingest_rec_per_s =
      static_cast<double>(kRecords) / SecondsSince(ingest_t0);

  // ---- Rejoin: restart the crashed node, catch up from peers. ----
  const double validate_before =
      HistogramSum(cluster->registry(kCrashed), "chain_validate_seconds");
  const auto rejoin_t0 = BenchClock::now();
  Status restarted;
  {
    Span span("replication.restart");
    restarted = cluster->Restart(kCrashed);
  }
  result->rejoin_s = SecondsSince(rejoin_t0);
  result->rejoin_validate_s =
      HistogramSum(cluster->registry(kCrashed), "chain_validate_seconds") -
      validate_before;
  report->Check(restarted.ok(), "restart: " + restarted.ToString());
  report->Check(cluster->Converged(), "every node converges on one head");
  report->Check(cluster->node(kCrashed)->height() == kBatches,
                "rejoined node height");

  const auto audit_t0 = BenchClock::now();
  provledger::Result<size_t> audited = Status::Internal("not run");
  {
    Span span("store.audit_all");
    audited = cluster->node(kCrashed)->store()->AuditAll();
  }
  result->audit_rec_per_s =
      static_cast<double>(audited.value_or(0)) / SecondsSince(audit_t0);
  report->Check(audited.ok() && audited.value() == kRecords,
                "rejoined node's AuditAll covers every record");

  // ---- Replica queries: task history and entity lineage. ----
  Rng rng(options.seed * 31 + round);
  for (size_t q = 0; q < kQueries; ++q) {
    const size_t wf = rng.NextBelow(kWorkflows);
    const size_t k = rng.NextBelow(kRecords / kWorkflows);
    const prov::ProvenanceStore& store =
        *cluster->node(static_cast<uint32_t>(q % kNodes))->store();
    report->Attempted();
    const auto q0 = BenchClock::now();
    if (q % 2 == 0) {
      const std::string task = Task(round, wf, k);
      prov::QueryResult history;
      {
        Span span("graph.exec.subject");
        history = store.Execute(prov::Query().WithSubject(task));
      }
      timings.query_ms.push_back(MillisSince(q0));
      const size_t per_workflow = kRecords / kWorkflows;
      const size_t expected =
          per_workflow / kTasksPerWorkflow +
          (k % kTasksPerWorkflow < per_workflow % kTasksPerWorkflow ? 1 : 0);
      Status ok = CheckHistory(history.records, expected, task);
      report->Check(ok.ok(), ok.ToString());
    } else {
      const std::string entity = Output(round, wf, k);
      std::vector<std::string> lineage;
      {
        Span span("graph.exec.lineage");
        lineage = store.Lineage(entity);
      }
      timings.query_ms.push_back(MillisSince(q0));
      if (q % 50 == 1) {  // the reference closure is the costly side
        Status ok = CheckSameSet(lineage, model.EntityLineage(entity),
                                 "lineage of " + entity);
        report->Check(ok.ok(), ok.ToString());
      }
    }
  }

  // ---- Lineage proofs over repl/proof, verified by the requester. ----
  uint64_t merkle_before = 0;
  for (uint32_t n = 0; n < kNodes; ++n) {
    merkle_before +=
        CounterValue(cluster->registry(n), "chain_merkle_tree_builds_total");
  }
  size_t proofs = 0;
  for (size_t wf = 0; wf < kWorkflows; wf += 2) {
    for (size_t depth : kDepths) {
      const std::string target = RecordId(round, wf, depth);
      const uint32_t requester = static_cast<uint32_t>((wf / 2) % kNodes);
      const uint32_t server = (requester + 1) % kNodes;
      replication::ReplicatedNode* node = cluster->node(requester);
      report->Attempted();
      ++proofs;
      for (size_t repeat = 0; repeat < kProofRepeats; ++repeat) {
        const auto f0 = BenchClock::now();
        {
          Span span("replication.proof_fetch");
          node->RequestLineageProof(server, target);
          cluster->RunUntilIdle();
        }
        timings.fetch_ms.push_back(MillisSince(f0));
      }
      const auto& reply = node->last_proof();
      if (!reply.received || !reply.ok) {
        report->Failed("lineage proof of " + target + ": " + reply.message);
        continue;
      }
      const ledger::Blockchain& chain = *node->chain();
      const audit::HeaderHashAt headers = [&chain](uint64_t h) {
        return chain.BlockHashAt(h);
      };
      const std::vector<std::string> ancestry = model.RecordAncestry(target);
      for (size_t repeat = 0; repeat < kProofRepeats; ++repeat) {
        const auto v0 = BenchClock::now();
        Status verified;
        {
          Span span("proof.verify");
          verified = CheckLineageProof(reply.proof, target, ancestry, headers);
        }
        timings.verify_ms.push_back(MillisSince(v0));
        report->Check(verified.ok(), verified.ToString());
      }
      Status tampered =
          CheckTamperedLineageRejected(reply.proof, target, headers);
      report->Check(tampered.ok(), tampered.ToString());
      timings.proof_bytes.push_back(static_cast<double>(reply.proof.size()));
      auto decoded = audit::LineageProof::Decode(reply.proof);
      if (decoded.ok()) {
        samples->proof_nodes.push_back(
            static_cast<double>(decoded->nodes.size()));
        samples->proof_headers.push_back(
            static_cast<double>(decoded->headers.size()));
      }
      if (Tracer::Get().enabled()) {
        const auto b0 = BenchClock::now();
        {
          Span span("proof.build");
          auto built =
              audit::BuildLineageProof(*cluster->node(server)->store(), target);
          report->Check(built.ok(), "direct BuildLineageProof");
        }
        samples->build_ms.push_back(MillisSince(b0));
      }
    }
  }
  uint64_t merkle_after = 0;
  for (uint32_t n = 0; n < kNodes; ++n) {
    merkle_after +=
        CounterValue(cluster->registry(n), "chain_merkle_tree_builds_total");
  }
  result->commit_p50_ms = Median(timings.commit_ms);
  result->query_p50_ms = Median(timings.query_ms);
  result->proof_fetch_ms = Median(timings.fetch_ms);
  result->proof_verify_ms = Median(timings.verify_ms);
  result->proof_bytes = Median(timings.proof_bytes);
  result->merkle_builds_per_proof =
      static_cast<double>(merkle_after - merkle_before) /
      static_cast<double>(proofs);

  // ---- Per-layer counts for this round. ----
  const double total = static_cast<double>(kRecords);
  result->block_bytes_per_rec =
      static_cast<double>(ReplBytes(cluster, "block")) / total;
  result->blocks_bytes_per_rec =
      static_cast<double>(ReplBytes(cluster, "blocks")) / total;
  for (uint32_t n = 0; n < kNodes; ++n) {
    result->catchup_pulls += static_cast<double>(CounterValue(
        cluster->registry(n), "repl_messages_total", {{"type", "pull"}}));
    result->catchup_blocks +=
        static_cast<double>(cluster->node(n)->metrics().blocks_served);
    if (cluster->node(n)->metrics().blocks_proposed == 0) {
      result->follower_validate_s +=
          HistogramSum(cluster->registry(n), "chain_validate_seconds");
    }
  }
  const auto& metrics = cluster->metrics();
  const double batches = static_cast<double>(metrics.batches_committed);
  result->messages_per_commit =
      static_cast<double>(metrics.consensus_messages) / batches;
  result->sim_ms_per_commit =
      static_cast<double>(metrics.consensus_latency_us) / 1e3 / batches;
  result->net_messages_per_rec =
      static_cast<double>(cluster->net()->metrics().messages_sent) / total;
  return true;
}

}  // namespace

bool RunClusterLineage(const RunOptions& options, Report* report) {
  Samples samples;
  std::vector<RoundResult> rounds;
  double setup_s = 0;
  const auto measure_t0 = BenchClock::now();
  for (size_t round = 0;
       round == 0 || SecondsSince(measure_t0) < options.seconds; ++round) {
    RoundPin pin(round);
    LineageModel model;
    std::vector<prov::ProvenanceRecord> records =
        MakeRecords(options.seed, round, &model);
    if (round == 0) setup_s = SecondsSince(options.process_start);
    RoundResult result;
    if (!RunRound(options, round, std::move(records), model, &samples,
                  &result, report)) {
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
  report->EndToEnd("restart_s", lower_best(&RoundResult::rejoin_s), "s");
  report->EndToEnd("audit_rec_per_s",
                   higher_best(&RoundResult::audit_rec_per_s), "rec/s");
  report->EndToEnd("proof_fetch_ms", lower_best(&RoundResult::proof_fetch_ms),
                   "ms");
  report->EndToEnd("proof_verify_ms", lower_best(&RoundResult::proof_verify_ms),
                   "ms");
  report->EndToEnd("proof_bytes", median_of(&RoundResult::proof_bytes),
                   "bytes");
  report->EndToEnd("peak_rss_mb", PeakRssMb(), "MB");

  const Tracer& tracer = Tracer::Get();
  report->Layer("graph.exec_ms.subject",
                Median(tracer.DurationsMs("graph.exec.subject")), "ms");
  report->Layer("graph.exec_ms.lineage",
                Median(tracer.DurationsMs("graph.exec.lineage")), "ms");
  report->Layer("chain.validate_s", median_of(&RoundResult::rejoin_validate_s),
                "s");
  report->Layer("chain.merkle_tree_builds",
                median_of(&RoundResult::merkle_builds_per_proof), "count");
  report->Layer("proof.nodes", Median(samples.proof_nodes), "count");
  report->Layer("proof.headers", Median(samples.proof_headers), "count");
  report->Layer("proof.build_ms", Median(samples.build_ms), "ms");
  report->Layer("replication.bytes_per_rec.block",
                median_of(&RoundResult::block_bytes_per_rec), "bytes");
  report->Layer("replication.bytes_per_rec.blocks",
                median_of(&RoundResult::blocks_bytes_per_rec), "bytes");
  report->Layer("replication.catchup_pulls",
                median_of(&RoundResult::catchup_pulls), "count");
  report->Layer("replication.catchup_blocks",
                median_of(&RoundResult::catchup_blocks), "count");
  report->Layer("replication.follower_validate_s",
                median_of(&RoundResult::follower_validate_s), "s");
  report->Layer("consensus.messages_per_commit",
                median_of(&RoundResult::messages_per_commit), "count");
  report->Layer("consensus.sim_ms_per_commit",
                median_of(&RoundResult::sim_ms_per_commit), "ms");
  report->Layer("network.messages_per_rec",
                median_of(&RoundResult::net_messages_per_rec), "count");

  const double n = static_cast<double>(rounds.size());
  report->Stage("replication.commit (spans, wall)",
                tracer.TotalSeconds("replication.commit") / n);
  report->Stage("replication.follower_validate_s (registry)",
                median_of(&RoundResult::follower_validate_s));
  report->Stage("replication.restart (spans, wall)",
                tracer.TotalSeconds("replication.restart") / n);
  report->Stage("chain_validate_seconds of the rejoining node (registry)",
                median_of(&RoundResult::rejoin_validate_s));
  report->Stage("unattributed (rejoin wall - its validation)",
                tracer.TotalSeconds("replication.restart") / n -
                    median_of(&RoundResult::rejoin_validate_s));
  return true;
}

}  // namespace provbench
