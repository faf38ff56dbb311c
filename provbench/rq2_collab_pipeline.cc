// rq2_collab_pipeline: collaboration inside one system (RQ2), SciChain
// style: workflows are queried while they are still running.
//
// A round pre-loads a fresh store with a base history of mixed
// supply-chain, scientific and forensics records built with the Table 1
// record builders (skewed subjects; scientific records carry derivation
// edges). Two timed phases follow, each with its own IngestPipeline:
//   1. paced: one producer submits at kPacedRate records/s (open loop on
//      a fixed schedule) for kPacedSeconds; the pipeline publishes an
//      epoch every kEpochBatches committed batches, while kReaders reader
//      threads in a closed loop acquire the freshest epoch, open it and
//      run one query of the mix (subject history, agent + time range with
//      limit, field equality on workflow_id, entity lineage);
//   2. full speed: the same producer submits kFullRecords records, made
//      before the phase starts, as fast as the pipeline takes them, the
//      reader still running.
// Query and commit latencies come from the paced phase, so they stay
// comparable when ingest gets faster; ingest throughput comes from the
// full-speed phase. Commit latency is the time from the submission of an
// epoch's last record until that epoch is published: an observer thread
// polls the store's epoch counter every kObservePeriod. The round ends
// with the correctness checks, an AuditAll sweep, lineage proofs and a
// snapshot restore; the run repeats rounds until --seconds have passed.

#include <algorithm>
#include <atomic>
#include <map>
#include <mutex>
#include <optional>
#include <thread>

#include "bench.h"
#include "checks.h"
#include "common/rng.h"
#include "model.h"
#include "prov/ingest_pipeline.h"
#include "prov/store.h"

namespace provbench {
namespace {

using provledger::Rng;
using provledger::SystemClock;
using provledger::Timestamp;
namespace obs = provledger::obs;

constexpr size_t kBaseRecords = 10000;
constexpr double kPacedRate = 1500;  // records/s
constexpr double kPacedSeconds = 2;
constexpr size_t kChunk = 32;        // records per SubmitBatch
constexpr size_t kEpochBatches = 2;
constexpr size_t kFullRecords = 5120;
constexpr auto kObservePeriod = std::chrono::microseconds(100);
constexpr size_t kReaders = 1;
constexpr size_t kShards = 1;
constexpr size_t kBatchSize = 256;
constexpr size_t kWorkflows = 64;
constexpr size_t kProducts = 800;
constexpr size_t kCases = 100;
constexpr size_t kAgents = 64;
constexpr size_t kHashSampleEvery = 97;
// Restoring the store takes a few milliseconds; the median of
// kRestartRepeats restores keeps a scheduling hiccup out of the figure.
constexpr size_t kRestartRepeats = 3;
// Lineage proofs go to the records whose ancestry sizes lie closest to
// these, kProofsPerSize each, so proof sizes do not drift with the seed.
constexpr size_t kProofAncestrySizes[] = {16, 64, 256};
constexpr size_t kProofsPerSize = 4;
// Each proof is built and verified this many times; a proof takes about a
// millisecond, so single samples would track scheduler noise.
constexpr size_t kProofRepeats = 3;

// Skewed index in [0, n): low indexes are drawn far more often.
size_t Skewed(Rng* rng, size_t n) {
  const double u = rng->NextDouble();
  return static_cast<size_t>(static_cast<double>(n) * u * u);
}

class CollabGenerator {
 public:
  explicit CollabGenerator(uint64_t seed) : rng_(seed) {}

  prov::ProvenanceRecord Next() {
    const size_t seq = next_++;
    const std::string id = "c" + std::to_string(seq);
    const Timestamp ts = kEpoch + static_cast<Timestamp>(seq) * 50;
    const std::string agent = "agent-" + std::to_string(Skewed(&rng_, kAgents));
    const double kind = rng_.NextDouble();
    prov::ProvenanceRecord rec;
    if (kind < 0.4) {
      const size_t wf = rng_.NextBelow(kWorkflows);
      const std::string workflow = "wf-" + std::to_string(wf);
      const std::string task =
          workflow + "/t-" + std::to_string(Skewed(&rng_, 40));
      std::vector<std::string>& recent = recent_outputs_[wf];
      const std::string output =
          workflow + "/o-" + std::to_string(outputs_made_[wf]++);
      std::vector<std::string> inputs;
      for (size_t k = 0; k < 2 && !recent.empty(); ++k) {
        const std::string& pick = recent[rng_.NextBelow(recent.size())];
        if (inputs.empty() || inputs[0] != pick) inputs.push_back(pick);
      }
      rec = prov::MakeScientificRecord(
          id, "execute", task, agent, ts, workflow,
          std::to_string(rng_.NextBelow(5000)) + "ms", agent,
          inputs.empty() ? "raw" : inputs[0], output, "");
      rec.inputs = inputs;
      rec.outputs = {output};
      recent.push_back(output);
      if (recent.size() > 8) recent.erase(recent.begin());
      scientific_.push_back(id);
      entities_.push_back(output);
    } else if (kind < 0.75) {
      static const char* kOps[] = {"manufacture", "ship", "receive",
                                   "inspect"};
      const size_t product = Skewed(&rng_, kProducts);
      const std::string subject = "prod-" + std::to_string(product);
      rec = prov::MakeSupplyChainRecord(
          id, kOps[rng_.NextBelow(4)], subject, agent, ts,
          "b-" + std::to_string(product / 10), "2027-01",
          "hub-" + std::to_string(rng_.NextBelow(20)), "vaccine",
          "mfr-" + std::to_string(product % 8), "qr-" + subject);
    } else {
      static const char* kOps[] = {"acquire", "analyze", "transfer",
                                   "report"};
      const size_t c = rng_.NextBelow(kCases);
      const std::string subject = "case-" + std::to_string(c) + "/ev-" +
                                  std::to_string(Skewed(&rng_, 20));
      rec = prov::MakeForensicsRecord(
          id, kOps[rng_.NextBelow(4)], subject, agent, ts,
          "case-" + std::to_string(c), "analysis", "2026-01-01", "",
          "disk-image", "read-only", "none");
    }
    ++subject_counts_[rec.subject];
    model_.Add(rec);
    if (seq % kHashSampleEvery == 0) hashes_[rec.record_id] = rec.Hash();
    return rec;
  }

  std::vector<prov::ProvenanceRecord> NextChunk(size_t n) {
    std::vector<prov::ProvenanceRecord> out;
    out.reserve(n);
    for (size_t i = 0; i < n; ++i) out.push_back(Next());
    return out;
  }

  size_t produced() const { return next_; }
  Timestamp last_timestamp() const {
    return kEpoch + static_cast<Timestamp>(next_) * 50;
  }
  const std::unordered_map<std::string, size_t>& subject_counts() const {
    return subject_counts_;
  }
  const std::vector<std::string>& scientific() const { return scientific_; }
  const std::vector<std::string>& entities() const { return entities_; }
  const std::map<std::string, crypto::Digest>& hashes() const {
    return hashes_;
  }
  const LineageModel& model() const { return model_; }

  static constexpr Timestamp kEpoch = 1'700'000'000'000'000LL;

 private:
  Rng rng_;
  size_t next_ = 0;
  std::vector<std::vector<std::string>> recent_outputs_ =
      std::vector<std::vector<std::string>>(kWorkflows);
  std::vector<size_t> outputs_made_ = std::vector<size_t>(kWorkflows, 0);
  std::unordered_map<std::string, size_t> subject_counts_;
  std::vector<std::string> scientific_;
  std::vector<std::string> entities_;
  std::map<std::string, crypto::Digest> hashes_;
  LineageModel model_;
};

// What readers query: drawn from the base history, which every epoch
// holds. Immutable once the readers start.
struct Catalog {
  std::vector<std::string> subjects;
  std::vector<std::string> entities;
  Timestamp from = 0;
  Timestamp to = 0;
};

enum QueryKind { kSubject = 0, kAgentRange, kField, kLineage, kKinds };
const char* kSpanNames[kKinds] = {"graph.exec.subject", "graph.exec.agent_range",
                                  "graph.exec.field", "graph.exec.lineage"};

struct ReaderOut {
  std::vector<double> paced_ms;
  std::vector<double> scanned_per_match;
  uint64_t queries = 0;
  uint64_t failures = 0;
  bool epochs_monotonic = true;
  bool results_ordered = true;
};

void ReaderLoop(const prov::ProvenanceStore* store, const Catalog* catalog,
                uint64_t seed, const std::atomic<int>* phase,
                ReaderOut* out) {
  Rng rng(seed);
  uint64_t last_epoch = 0;
  const Timestamp window = (catalog->to - catalog->from) / 20;
  for (size_t i = 0; phase->load(std::memory_order_acquire) != 0; ++i) {
    const bool paced = phase->load(std::memory_order_acquire) == 1;
    const QueryKind kind = static_cast<QueryKind>(i % kKinds);
    prov::Query query;
    std::string entity;
    const Timestamp t = catalog->from + static_cast<Timestamp>(rng.NextBelow(
                                            static_cast<uint64_t>(
                                                catalog->to - catalog->from -
                                                window)));
    switch (kind) {
      case kSubject:
        query.WithSubject(
            catalog->subjects[rng.NextBelow(catalog->subjects.size())]);
        break;
      case kAgentRange:
        query.WithAgent("agent-" + std::to_string(rng.NextBelow(kAgents)))
            .Between(t, t + window)
            .Limit(50);
        break;
      case kField:
        query
            .WithField(prov::fields::kWorkflowId,
                       "wf-" + std::to_string(rng.NextBelow(kWorkflows)))
            .Between(t, t + window);
        break;
      default:
        entity = catalog->entities[rng.NextBelow(catalog->entities.size())];
        break;
    }
    const auto t0 = BenchClock::now();
    std::shared_ptr<const prov::GraphSnapshot> snapshot;
    {
      Span span("snapshot.acquire");
      snapshot = store->AcquireSnapshot();
    }
    if (snapshot == nullptr) {
      ++out->failures;
      continue;
    }
    if (snapshot->epoch() < last_epoch) out->epochs_monotonic = false;
    last_epoch = snapshot->epoch();
    provledger::Result<prov::SnapshotReader> reader =
        Status::Internal("not opened");
    {
      Span span("snapshot.open");
      reader = snapshot->OpenReader();
    }
    if (!reader.ok()) {
      ++out->failures;
      continue;
    }
    size_t rows = 0;
    {
      Span span(kSpanNames[kind]);
      if (kind == kLineage) {
        rows = reader->graph().Lineage(entity).size();
      } else {
        prov::QueryResult result = reader->Execute(query);
        rows = result.records.size();
        for (size_t k = 1; k < result.records.size(); ++k) {
          if (result.records[k].timestamp < result.records[k - 1].timestamp) {
            out->results_ordered = false;
          }
        }
      }
    }
    const double ms = MillisSince(t0);
    ++out->queries;
    if (paced) out->paced_ms.push_back(ms);
    if (Tracer::Get().enabled() && kind != kLineage && rows > 0) {
      const prov::QueryExplain explain = reader->graph().Explain(query);
      if (explain.rows_matched > 0) {
        out->scanned_per_match.push_back(
            static_cast<double>(explain.candidates_scanned) /
            static_cast<double>(explain.rows_matched));
      }
    }
  }
}

std::vector<std::string> ProofTargets(const CollabGenerator& gen) {
  std::vector<std::pair<size_t, std::string>> candidates;  // (size, id)
  const auto& scientific = gen.scientific();
  for (size_t i = 0; i < scientific.size(); i += 32) {
    candidates.emplace_back(gen.model().RecordAncestry(scientific[i]).size(),
                            scientific[i]);
  }
  std::vector<std::string> targets;
  for (size_t want : kProofAncestrySizes) {
    auto distance = [want](size_t size) {
      return size > want ? size - want : want - size;
    };
    std::stable_sort(candidates.begin(), candidates.end(),
                     [&](const auto& a, const auto& b) {
                       return distance(a.first) < distance(b.first);
                     });
    for (size_t k = 0; k < kProofsPerSize && k < candidates.size(); ++k) {
      targets.push_back(candidates[k].second);
    }
  }
  return targets;
}

prov::IngestPipelineOptions PipelineOptions(obs::Registry* registry) {
  prov::IngestPipelineOptions options;
  options.shards = kShards;
  options.batch_size = kBatchSize;
  options.snapshot_every_batches = kEpochBatches;
  options.publish_on_flush = true;
  options.registry = registry;
  return options;
}

// Submission times of the producer's chunks, for the observer to date
// each published epoch's last record.
class SubmitLog {
 public:
  void Add(uint64_t records_so_far) {
    std::lock_guard<std::mutex> lock(mu_);
    entries_.emplace_back(records_so_far, BenchClock::now());
  }
  /// When the record with 1-based position `n` was submitted.
  std::optional<BenchClock::time_point> SubmittedAt(uint64_t n) const {
    std::lock_guard<std::mutex> lock(mu_);
    auto it = std::lower_bound(
        entries_.begin(), entries_.end(), n,
        [](const auto& entry, uint64_t v) { return entry.first < v; });
    if (it == entries_.end()) return std::nullopt;
    return it->second;
  }

 private:
  mutable std::mutex mu_;
  std::vector<std::pair<uint64_t, BenchClock::time_point>> entries_;
};

// Dates every epoch the paced phase publishes (phase == 1).
void ObserveEpochs(const prov::ProvenanceStore* store, const SubmitLog* log,
                   size_t base_records, const std::atomic<int>* phase,
                   std::vector<double>* commit_ms) {
  uint64_t seen = store->snapshot_epoch();
  while (phase->load(std::memory_order_acquire) == 1) {
    std::this_thread::sleep_for(kObservePeriod);
    if (store->snapshot_epoch() == seen) continue;
    const auto now = BenchClock::now();
    auto snapshot = store->AcquireSnapshot();
    seen = snapshot->epoch();
    auto submitted = log->SubmittedAt(snapshot->record_count() - base_records);
    if (submitted) {
      commit_ms->push_back(
          std::chrono::duration<double, std::milli>(now - *submitted).count());
    }
  }
}

struct RoundResult {
  double ingest_rec_per_s = 0;
  double commit_p50_ms = 0;
  double query_p50_ms = 0;
  double restart_s = 0;
  double audit_rec_per_s = 0;
  double proof_fetch_ms = 0;
  double proof_verify_ms = 0;
  double proof_bytes = 0;
  double full_wall_s = 0;
  double prepare_s = 0;
  double commit_s = 0;
  double late_p99_ms = 0;
  double epochs = 0;
  double body_bytes = 0;
  double chain_append_s = 0;
  double proof_nodes = 0;
  double proof_headers = 0;
};

// One round on a fresh store; false when the base history cannot be
// anchored. Sets *setup_s, when given, once the base history is ready.
bool RunRound(const RunOptions& options, size_t round, double* setup_s,
              std::vector<double>* scanned_per_match, RoundResult* result,
              Report* report) {
  // ---- Base history, anchored in blocks of kBatchSize. ----
  obs::Registry store_registry;
  ledger::ChainOptions chain_options;
  chain_options.registry = &store_registry;
  ledger::Blockchain chain(chain_options);
  SystemClock clock;
  prov::ProvenanceStoreOptions store_options;
  store_options.registry = &store_registry;
  prov::ProvenanceStore store(&chain, &clock, store_options);
  CollabGenerator gen(options.seed * 1000003 + round);
  while (gen.produced() < kBaseRecords) {
    Status anchored = store.AnchorBatch(gen.NextChunk(kBatchSize));
    if (!anchored.ok()) {
      std::fprintf(stderr, "rq2: base history: %s\n",
                   anchored.ToString().c_str());
      return false;
    }
  }
  if (!store.PublishSnapshot().ok()) return false;
  Catalog catalog;
  for (const auto& [subject, count] : gen.subject_counts()) {
    catalog.subjects.push_back(subject);
  }
  std::sort(catalog.subjects.begin(), catalog.subjects.end());
  catalog.entities = gen.entities();
  catalog.from = CollabGenerator::kEpoch;
  catalog.to = gen.last_timestamp();
  const double chain_append_base_s =
      HistogramSum(&store_registry, "chain_append_seconds");
  if (setup_s != nullptr) *setup_s = SecondsSince(options.process_start);

  // ---- Readers: closed loop over the freshest epoch. ----
  std::atomic<int> phase{1};  // 1 = paced, 2 = full speed, 0 = stop
  std::vector<ReaderOut> reader_out(kReaders);
  std::vector<std::thread> readers;
  for (size_t r = 0; r < kReaders; ++r) {
    readers.emplace_back(ReaderLoop, &store, &catalog,
                         (options.seed * 31 + round) * kReaders + r + 1,
                         &phase, &reader_out[r]);
  }

  // ---- Phase 1: paced producer. ----
  std::vector<double> late_ms;
  std::vector<double> commit_ms;
  uint64_t submitted = 0;
  uint64_t committed = 0;
  uint64_t pipeline_failed = 0;
  uint64_t epochs = 0;
  Status pipeline_status;
  {
    obs::Registry paced_registry;
    SubmitLog submit_log;
    std::thread observer(ObserveEpochs, &store, &submit_log, gen.produced(),
                         &phase, &commit_ms);
    prov::IngestPipeline pipeline(&store, PipelineOptions(&paced_registry));
    const auto start = BenchClock::now();
    const auto paced_for = std::chrono::duration<double>(kPacedSeconds);
    for (size_t j = 0; pipeline_status.ok(); ++j) {
      const auto due =
          start + std::chrono::duration_cast<BenchClock::duration>(
                      std::chrono::duration<double>(
                          static_cast<double>(j * kChunk) / kPacedRate));
      if (due - start >= paced_for) break;
      std::this_thread::sleep_until(due);
      late_ms.push_back(
          std::chrono::duration<double, std::milli>(BenchClock::now() - due)
              .count());
      Span span("ingest.submit");
      pipeline_status = pipeline.SubmitBatch(gen.NextChunk(kChunk));
      submitted += kChunk;
      submit_log.Add(submitted);
    }
    if (pipeline_status.ok()) pipeline_status = pipeline.Close();
    phase.store(2, std::memory_order_release);
    observer.join();
    committed += pipeline.committed();
    pipeline_failed += pipeline.failed();
    epochs += pipeline.snapshots_published();
  }

  // ---- Phase 2: the same producer at full speed. ----
  obs::Registry full_registry;
  std::shared_ptr<const prov::GraphSnapshot> last_epoch;
  if (pipeline_status.ok()) {
    std::vector<std::vector<prov::ProvenanceRecord>> chunks;
    for (size_t n = 0; n < kFullRecords; n += kChunk) {
      chunks.push_back(gen.NextChunk(kChunk));
    }
    prov::IngestPipeline pipeline(&store, PipelineOptions(&full_registry));
    const auto start = BenchClock::now();
    for (auto& chunk : chunks) {
      Span span("ingest.submit");
      pipeline_status = pipeline.SubmitBatch(std::move(chunk));
      submitted += kChunk;
      if (!pipeline_status.ok()) break;
    }
    if (pipeline_status.ok()) pipeline_status = pipeline.Close();
    result->full_wall_s = SecondsSince(start);
    committed += pipeline.committed();
    pipeline_failed += pipeline.failed();
    epochs += pipeline.snapshots_published();
    last_epoch = store.AcquireSnapshot();
  }
  phase.store(0, std::memory_order_release);
  for (auto& reader : readers) reader.join();
  // From here on the round runs on this thread alone.
  RoundPin pin(round);
  if (!report->Check(pipeline_status.ok(),
                     "pipeline: " + pipeline_status.ToString())) {
    return true;
  }

  std::vector<double> query_ms;
  bool epochs_monotonic = true;
  bool results_ordered = true;
  for (const auto& out : reader_out) {
    query_ms.insert(query_ms.end(), out.paced_ms.begin(), out.paced_ms.end());
    scanned_per_match->insert(scanned_per_match->end(),
                              out.scanned_per_match.begin(),
                              out.scanned_per_match.end());
    report->Attempted(out.queries);
    for (uint64_t f = 0; f < out.failures; ++f) report->Failed("reader query");
    epochs_monotonic = epochs_monotonic && out.epochs_monotonic;
    results_ordered = results_ordered && out.results_ordered;
  }
  report->Attempted(submitted);
  for (uint64_t f = 0; f < pipeline_failed; ++f) {
    report->Failed("pipeline record");
  }

  // ---- Checks against the generator. ----
  report->Check(committed == submitted && pipeline_failed == 0,
                "committed " + std::to_string(committed) + " of " +
                    std::to_string(submitted) + " submitted");
  report->Check(store.anchored_count() == gen.produced(),
                "store holds every generated record");
  report->Check(epochs_monotonic, "reader epochs never go back");
  report->Check(results_ordered, "query results in time order");
  Rng check_rng((options.seed ^ 0x5eed) + round);
  std::vector<std::string> subjects;
  for (const auto& [subject, count] : gen.subject_counts()) {
    subjects.push_back(subject);
  }
  std::sort(subjects.begin(), subjects.end());
  for (size_t k = 0; k < 64; ++k) {
    const std::string& subject =
        subjects[check_rng.NextBelow(subjects.size())];
    Status history = CheckHistory(
        store.Execute(prov::Query().WithSubject(subject)).records,
        gen.subject_counts().at(subject), subject);
    report->Check(history.ok(), history.ToString());
  }
  for (size_t k = 0; k < 32; ++k) {
    const std::string& entity =
        gen.entities()[check_rng.NextBelow(gen.entities().size())];
    Status lineage = CheckSameSet(store.Lineage(entity),
                                  gen.model().EntityLineage(entity),
                                  "lineage of " + entity);
    report->Check(lineage.ok(), lineage.ToString());
  }
  Status integrity = chain.VerifyIntegrity();
  report->Check(integrity.ok(), "VerifyIntegrity: " + integrity.ToString());
  {
    const auto audit_t0 = BenchClock::now();
    provledger::Result<size_t> audited = Status::Internal("not run");
    {
      Span span("store.audit_all");
      audited = store.AuditAll();
    }
    result->audit_rec_per_s =
        static_cast<double>(audited.value_or(0)) / SecondsSince(audit_t0);
    report->Check(audited.ok() && audited.value() == gen.produced(),
                  "AuditAll covers every record");
  }

  // ---- Lineage proofs at several depths, built from the live store. ----
  std::vector<double> build_ms;
  std::vector<double> verify_ms;
  std::vector<double> proof_bytes;
  std::vector<double> proof_nodes;
  std::vector<double> proof_headers;
  const audit::HeaderHashAt headers = [&chain](uint64_t h) {
    return chain.BlockHashAt(h);
  };
  for (const std::string& target : ProofTargets(gen)) {
    report->Attempted();
    provledger::Result<audit::LineageProof> proof = Status::Internal("");
    for (size_t repeat = 0; repeat < kProofRepeats; ++repeat) {
      const auto b0 = BenchClock::now();
      {
        Span span("proof.build");
        proof = audit::BuildLineageProof(store, target);
      }
      build_ms.push_back(MillisSince(b0));
    }
    if (!proof.ok()) {
      report->Failed("BuildLineageProof " + target + ": " +
                     proof.status().ToString());
      continue;
    }
    const Bytes bytes = proof->Encode();
    const std::vector<std::string> ancestry =
        gen.model().RecordAncestry(target);
    for (size_t repeat = 0; repeat < kProofRepeats; ++repeat) {
      const auto v0 = BenchClock::now();
      Status verified;
      {
        Span span("proof.verify");
        verified = CheckLineageProof(bytes, target, ancestry, headers);
      }
      verify_ms.push_back(MillisSince(v0));
      report->Check(verified.ok(), verified.ToString());
    }
    Status tampered = CheckTamperedLineageRejected(bytes, target, headers);
    report->Check(tampered.ok(), tampered.ToString());
    proof_bytes.push_back(static_cast<double>(bytes.size()));
    proof_nodes.push_back(static_cast<double>(proof->nodes.size()));
    proof_headers.push_back(static_cast<double>(proof->headers.size()));
  }

  // ---- Restart: snapshot restore of the store over the same chain. ----
  const std::string snap_path = options.data_dir + "/store.snap";
  std::vector<double> restart_s;
  if (report->Check(store.SaveSnapshot(snap_path).ok(), "save snapshot")) {
    for (size_t repeat = 0; repeat < kRestartRepeats; ++repeat) {
      prov::ProvenanceStore restored(&chain, &clock, store_options);
      const auto r0 = BenchClock::now();
      Status recovered;
      {
        Span span("store.recover");
        recovered = restored.Recover(snap_path);
      }
      restart_s.push_back(SecondsSince(r0));
      report->Check(recovered.ok(), "recover: " + recovered.ToString());
      Status found = CheckRecovered(restored, gen.hashes());
      report->Check(found.ok(), "after restore: " + found.ToString());
      report->Check(restored.anchored_count() == gen.produced(),
                    "restored record count");
    }
  }

  const obs::Labels prepare = {{"stage", "prepare"}};
  const obs::Labels commit = {{"stage", "commit"}};
  result->ingest_rec_per_s =
      static_cast<double>(kFullRecords) / result->full_wall_s;
  result->commit_p50_ms = Median(commit_ms);
  result->query_p50_ms = Median(query_ms);
  result->restart_s = Median(restart_s);
  result->proof_fetch_ms = Median(build_ms);
  result->proof_verify_ms = Median(verify_ms);
  result->proof_bytes = Median(proof_bytes);
  result->prepare_s =
      HistogramSum(&full_registry, "ingest_stage_seconds", prepare);
  result->commit_s =
      HistogramSum(&full_registry, "ingest_stage_seconds", commit);
  result->late_p99_ms = Percentile(late_ms, 0.99);
  result->epochs = static_cast<double>(epochs);
  result->body_bytes =
      last_epoch ? static_cast<double>(last_epoch->body_bytes()) : 0;
  result->chain_append_s =
      HistogramSum(&store_registry, "chain_append_seconds") -
      chain_append_base_s;
  result->proof_nodes = Median(proof_nodes);
  result->proof_headers = Median(proof_headers);
  return true;
}

}  // namespace

bool RunCollabPipeline(const RunOptions& options, Report* report) {
  std::vector<double> scanned_per_match;
  std::vector<RoundResult> rounds;
  double setup_s = 0;
  const auto measure_t0 = BenchClock::now();
  for (size_t round = 0;
       round == 0 || SecondsSince(measure_t0) < options.seconds; ++round) {
    RoundResult result;
    if (!RunRound(options, round, round == 0 ? &setup_s : nullptr,
                  &scanned_per_match, &result, report)) {
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

  // Per-layer: sums are per round, medians over rounds.
  const Tracer& tracer = Tracer::Get();
  const double full_wall_s = median_of(&RoundResult::full_wall_s);
  const double commit_s = median_of(&RoundResult::commit_s);
  const double prepare_s = median_of(&RoundResult::prepare_s);
  const double chain_append_s = median_of(&RoundResult::chain_append_s);
  report->Layer("ingest.prepare_s", prepare_s, "s");
  report->Layer("ingest.commit_s", commit_s, "s");
  report->Layer("ingest.unattributed_s", full_wall_s - commit_s, "s");
  report->Layer("ingest.generator_late_ms",
                median_of(&RoundResult::late_p99_ms), "ms");
  report->Layer("snapshot.epochs", median_of(&RoundResult::epochs), "count");
  report->Layer("snapshot.body_bytes", median_of(&RoundResult::body_bytes),
                "bytes");
  report->Layer("snapshot.open_ms", Median(tracer.DurationsMs("snapshot.open")),
                "ms");
  report->Layer("graph.exec_ms.subject",
                Median(tracer.DurationsMs("graph.exec.subject")), "ms");
  report->Layer("graph.exec_ms.agent_range",
                Median(tracer.DurationsMs("graph.exec.agent_range")), "ms");
  report->Layer("graph.exec_ms.field",
                Median(tracer.DurationsMs("graph.exec.field")), "ms");
  report->Layer("graph.exec_ms.lineage",
                Median(tracer.DurationsMs("graph.exec.lineage")), "ms");
  report->Layer("graph.scanned_per_match", Median(scanned_per_match), "ratio");
  report->Layer("store.recover_s",
                Median(tracer.DurationsMs("store.recover")) / 1e3, "s");
  report->Layer("chain.append_s", chain_append_s, "s");
  report->Layer("proof.nodes", median_of(&RoundResult::proof_nodes), "count");
  report->Layer("proof.headers", median_of(&RoundResult::proof_headers),
                "count");
  report->Layer("proof.build_ms", Median(tracer.DurationsMs("proof.build")),
                "ms");

  report->Stage("full-speed drain wall", full_wall_s);
  report->Stage("ingest_stage_seconds{stage=prepare} (registry)", prepare_s);
  report->Stage("ingest_stage_seconds{stage=commit} (registry)", commit_s);
  report->Stage("chain_append_seconds (registry, both phases)",
                chain_append_s);
  report->Stage("unattributed (drain wall - commit; epoch publication)",
                full_wall_s - commit_s);
  return true;
}

}  // namespace provbench
