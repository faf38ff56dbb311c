#include "model.h"

#include <deque>
#include <unordered_set>

namespace provbench {

void LineageModel::Add(const provledger::prov::ProvenanceRecord& record) {
  std::vector<std::string> outputs = record.outputs;
  if (outputs.empty()) outputs.push_back(record.subject);
  for (const auto& out : outputs) {
    producers_[out].push_back(record.record_id);
    auto& sources = derived_from_[out];
    for (const auto& in : record.inputs) {
      if (in != out) sources.push_back(in);
    }
  }
  record_inputs_[record.record_id] = record.inputs;
}

std::vector<std::string> LineageModel::RecordAncestry(
    const std::string& record_id) const {
  std::vector<std::string> order{record_id};
  std::unordered_set<std::string> seen{record_id};
  for (size_t head = 0; head < order.size(); ++head) {
    auto inputs = record_inputs_.find(order[head]);
    if (inputs == record_inputs_.end()) continue;
    for (const auto& input : inputs->second) {
      auto producers = producers_.find(input);
      if (producers == producers_.end()) continue;
      for (const auto& producer : producers->second) {
        if (seen.insert(producer).second) order.push_back(producer);
      }
    }
  }
  return order;
}

std::vector<std::string> LineageModel::EntityLineage(
    const std::string& entity) const {
  std::vector<std::string> order{entity};
  std::unordered_set<std::string> seen{entity};
  for (size_t head = 0; head < order.size(); ++head) {
    auto sources = derived_from_.find(order[head]);
    if (sources == derived_from_.end()) continue;
    for (const auto& source : sources->second) {
      if (seen.insert(source).second) order.push_back(source);
    }
  }
  order.erase(order.begin());
  return order;
}

}  // namespace provbench
