// The generator's own provenance model: what the benchmark expects the
// program to answer, computed apart from the program from the records
// the generator produced. It mirrors PROV semantics as the paper's
// records use them: a record with no declared outputs produces a new
// version of its subject; an output entity is derived from every input of
// every record that produced it.

#ifndef PROVBENCH_MODEL_H_
#define PROVBENCH_MODEL_H_

#include <string>
#include <unordered_map>
#include <vector>

#include "prov/record.h"

namespace provbench {

class LineageModel {
 public:
  void Add(const provledger::prov::ProvenanceRecord& record);

  /// Ids of `record_id` and every record it transitively depends on: the
  /// producers of each input entity, recursively.
  std::vector<std::string> RecordAncestry(const std::string& record_id) const;

  /// Every entity `entity` was transitively derived from (itself
  /// excluded).
  std::vector<std::string> EntityLineage(const std::string& entity) const;

 private:
  std::unordered_map<std::string, std::vector<std::string>> producers_;
  std::unordered_map<std::string, std::vector<std::string>> record_inputs_;
  std::unordered_map<std::string, std::vector<std::string>> derived_from_;
};

}  // namespace provbench

#endif  // PROVBENCH_MODEL_H_
