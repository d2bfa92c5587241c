// An independent reference for the paper's eq. 8–10, written straight from
// the definitions: it reads only δ(h(x)) (AguaModel::concept_probs) and Ω's
// parameters (OutputMapping::class_weights / class_bias) and recomputes the
// logits, the explained class, its probability and the per-concept weights
// without calling any of core/explain.
#pragma once

#include <cstddef>
#include <string>
#include <vector>

#include "core/dataset.hpp"
#include "core/explain.hpp"
#include "core/surrogate.hpp"

namespace perfbench {

constexpr std::size_t kFactual = static_cast<std::size_t>(-1);

/// Absolute tolerance on probabilities and concept weights. The reference
/// and the library add the same terms, possibly in another order, so they
/// agree to a few ULPs; 1e-9 leaves room for that and nothing else.
constexpr double kTolerance = 1e-9;

/// Ω's parameters as plain arrays: weights[i] is class i's row over the C·k
/// concept-level inputs.
struct OutputLayer {
  std::vector<std::vector<double>> weights;
  std::vector<double> bias;
  std::size_t num_concepts = 0;
  std::size_t num_levels = 0;
};

OutputLayer read_output_layer(agua::core::AguaModel& model);

struct Reference {
  std::size_t predicted_class = 0;
  std::size_t output_class = 0;
  double output_probability = 0.0;
  std::vector<double> probabilities;    ///< softmax over every class
  std::vector<double> concept_weights;  ///< eq. 9/10, one per concept
};

/// Eq. 8–10 for concept probabilities `z` and class `target` (kFactual =
/// the argmax class).
Reference reference_explain(const OutputLayer& layer, const std::vector<double>& z,
                            std::size_t target);

/// Mean of per-input references: what a batched explanation must equal.
Reference reference_mean(const std::vector<Reference>& parts);

/// Empty when `got` matches `want` within kTolerance and has non-negative
/// weights summing to its output probability; otherwise the first mismatch.
/// `check_classes` is false for batch aggregates, whose class fields are
/// those of the first slot.
std::string compare(const Reference& want, const agua::core::Explanation& got,
                    bool check_classes = true);

/// Empty when a rendered /explain body names `fingerprint`, matches `want`
/// as compare() judges it, and lists in `top` the min(top_k, C) heaviest
/// concepts, heaviest first, with their weights; otherwise the first mismatch.
std::string check_body(const std::string& body, const Reference& want, std::size_t top_k,
                       const std::string& fingerprint);

/// Fidelity recounted from the surrogate's own predict_class and the
/// dataset's controller labels (eq. 11).
double recount_fidelity(agua::core::AguaModel& model, const agua::core::Dataset& dataset);

}  // namespace perfbench
