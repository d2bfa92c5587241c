#include "oracle.hpp"

#include <algorithm>
#include <cmath>
#include <set>

#include "serve/json.hpp"

namespace perfbench {
namespace {

std::vector<double> softmax(const std::vector<double>& x) {
  double top = x[0];
  for (double v : x) top = std::max(top, v);
  std::vector<double> out(x.size());
  double total = 0.0;
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = std::exp(x[i] - top);
    total += out[i];
  }
  for (double& v : out) v /= total;
  return out;
}

std::string mismatch(const char* what, double want, double got) {
  return std::string(what) + ": want " + std::to_string(want) + ", got " + std::to_string(got);
}

}  // namespace

OutputLayer read_output_layer(agua::core::AguaModel& model) {
  OutputLayer layer;
  layer.num_concepts = model.num_concepts();
  layer.num_levels = model.num_levels();
  for (std::size_t i = 0; i < model.num_outputs(); ++i) {
    layer.weights.push_back(model.output_mapping().class_weights(i));
    layer.bias.push_back(model.output_mapping().class_bias(i));
  }
  return layer;
}

Reference reference_explain(const OutputLayer& layer, const std::vector<double>& z,
                            std::size_t target) {
  const std::size_t n = layer.weights.size();
  const std::size_t C = layer.num_concepts;
  const std::size_t k = layer.num_levels;
  const std::size_t m = C * k;
  Reference ref;
  std::vector<double> logits(n);
  for (std::size_t i = 0; i < n; ++i) {
    double s = layer.bias[i];
    for (std::size_t j = 0; j < m; ++j) s += layer.weights[i][j] * z[j];
    logits[i] = s;
  }
  ref.probabilities = softmax(logits);
  ref.predicted_class = static_cast<std::size_t>(
      std::max_element(logits.begin(), logits.end()) - logits.begin());
  ref.output_class = target == kFactual ? ref.predicted_class : target;
  const std::size_t t = ref.output_class;
  ref.output_probability = ref.probabilities[t];

  // Eq. 8: contribution of concept-level j to class t, the bias shared out
  // evenly over the C·k inputs.
  std::vector<double> contribution(m);
  for (std::size_t j = 0; j < m; ++j) {
    contribution[j] = layer.weights[t][j] * z[j] + layer.bias[t] / static_cast<double>(m);
  }
  // Eq. 9: softmax over the contributions, standardized first (the library's
  // documented temperature choice: zero mean, unit population stddev,
  // stddev floored at 1e-9).
  double mean = 0.0;
  for (double v : contribution) mean += v;
  mean /= static_cast<double>(m);
  double var = 0.0;
  for (double v : contribution) var += (v - mean) * (v - mean);
  const double sd = std::max(1e-9, std::sqrt(var / static_cast<double>(m)));
  for (double& v : contribution) v = (v - mean) / sd;
  const std::vector<double> sigma = softmax(contribution);
  // Eq. 10: scale by the class probability, sum each concept's k levels.
  ref.concept_weights.assign(C, 0.0);
  for (std::size_t c = 0; c < C; ++c) {
    for (std::size_t l = 0; l < k; ++l) {
      ref.concept_weights[c] += ref.output_probability * sigma[c * k + l];
    }
  }
  return ref;
}

Reference reference_mean(const std::vector<Reference>& parts) {
  Reference mean = parts.front();
  for (std::size_t i = 1; i < parts.size(); ++i) {
    mean.output_probability += parts[i].output_probability;
    for (std::size_t c = 0; c < mean.concept_weights.size(); ++c) {
      mean.concept_weights[c] += parts[i].concept_weights[c];
    }
  }
  const double inv = 1.0 / static_cast<double>(parts.size());
  mean.output_probability *= inv;
  for (double& w : mean.concept_weights) w *= inv;
  return mean;
}

std::string compare(const Reference& want, const agua::core::Explanation& got,
                    bool check_classes) {
  if (check_classes) {
    if (got.predicted_class != want.predicted_class) {
      return mismatch("predicted_class", want.predicted_class, got.predicted_class);
    }
    if (got.output_class != want.output_class) {
      return mismatch("output_class", want.output_class, got.output_class);
    }
  }
  if (std::abs(got.output_probability - want.output_probability) > kTolerance) {
    return mismatch("output_probability", want.output_probability, got.output_probability);
  }
  if (got.concept_weights.size() != want.concept_weights.size()) {
    return mismatch("concept count", want.concept_weights.size(), got.concept_weights.size());
  }
  double total = 0.0;
  for (std::size_t c = 0; c < want.concept_weights.size(); ++c) {
    if (got.concept_weights[c] < 0.0) return mismatch("weight sign", 0.0, got.concept_weights[c]);
    if (std::abs(got.concept_weights[c] - want.concept_weights[c]) > kTolerance) {
      return mismatch("concept weight", want.concept_weights[c], got.concept_weights[c]);
    }
    total += got.concept_weights[c];
  }
  if (std::abs(total - got.output_probability) > kTolerance) {
    return mismatch("weight sum", got.output_probability, total);
  }
  return {};
}

std::string check_body(const std::string& body, const Reference& want, std::size_t top_k,
                       const std::string& fingerprint) {
  const agua::serve::JsonParseResult parsed = agua::serve::json_parse(body);
  if (!parsed.ok) return "unparseable body: " + parsed.error;
  const agua::serve::JsonValue& b = parsed.value;
  auto number = [&](const char* key) {
    const agua::serve::JsonValue* v = b.find(key);
    return v != nullptr && v->is_number() ? v->number : -1.0;
  };
  const agua::serve::JsonValue* print = b.find("fingerprint");
  if (print == nullptr || !print->is_string() || print->string != fingerprint) {
    return "fingerprint differs from the saved model's " + fingerprint;
  }
  const agua::serve::JsonValue* weights = b.find("concept_weights");
  const agua::serve::JsonValue* top = b.find("top");
  if (weights == nullptr || !weights->is_array() || top == nullptr || !top->is_array()) {
    return "body lacks concept_weights or top";
  }
  agua::core::Explanation got;
  got.predicted_class = static_cast<std::size_t>(number("predicted_class"));
  got.output_class = static_cast<std::size_t>(number("output_class"));
  got.output_probability = number("output_probability");
  for (const agua::serve::JsonValue& w : weights->array) got.concept_weights.push_back(w.number);
  if (std::string why = compare(want, got); !why.empty()) return why;

  const std::size_t C = got.concept_weights.size();
  if (top->array.size() != std::min(top_k, C)) {
    return mismatch("top length", static_cast<double>(std::min(top_k, C)),
                    static_cast<double>(top->array.size()));
  }
  std::set<std::size_t> chosen;
  double last = 0.0;
  for (std::size_t i = 0; i < top->array.size(); ++i) {
    const agua::serve::JsonValue* c = top->array[i].find("concept");
    const agua::serve::JsonValue* w = top->array[i].find("weight");
    if (c == nullptr || w == nullptr || c->number < 0 || c->number >= static_cast<double>(C)) {
      return "top entry without a valid concept and weight";
    }
    const std::size_t concept_index = static_cast<std::size_t>(c->number);
    if (w->number != got.concept_weights[concept_index] || (i > 0 && w->number > last)) {
      return "top is not the concept weights, heaviest first";
    }
    chosen.insert(concept_index);
    last = w->number;
  }
  for (std::size_t c = 0; c < C; ++c) {
    if (!chosen.count(c) && !top->array.empty() && got.concept_weights[c] > last) {
      return "top misses a heavier concept";
    }
  }
  return {};
}

double recount_fidelity(agua::core::AguaModel& model, const agua::core::Dataset& dataset) {
  std::size_t matches = 0;
  for (const agua::core::Sample& s : dataset.samples) {
    if (model.predict_class(s.embedding) == s.output_class) ++matches;
  }
  return dataset.empty() ? 0.0
                         : static_cast<double>(matches) / static_cast<double>(dataset.size());
}

}  // namespace perfbench
