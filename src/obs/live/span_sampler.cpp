#include "obs/live/span_sampler.h"

#include <utility>

#include "sim/span_tree.h"

namespace hpcos::obs::live {

namespace {

// Collect the whole tree under `root` (the forest's child order is
// deterministic: (time, span id)), appending records to `out`.
void collect_tree(const sim::SpanForest& forest, std::size_t root,
                  std::vector<sim::TraceRecord>* out) {
  out->push_back(forest.records()[root]);
  for (std::size_t child : forest.children(root)) {
    collect_tree(forest, child, out);
  }
}

}  // namespace

NodeSample sample_node(const SpanSamplerConfig& cfg, std::uint64_t node_index,
                       const std::vector<sim::TraceRecord>& records) {
  NodeSample sample;
  const sim::SpanForest forest(records);
  // The node's private stream: (seed, node) and nothing else, so the
  // decision sequence is independent of which host thread runs this call
  // and of every other node.
  RngStream rng(Seed{cfg.seed}, node_index);

  std::vector<std::size_t> kept_roots;
  for (std::size_t root : forest.roots()) {
    ++sample.roots_seen;
    const sim::TraceRecord& rec = forest.records()[root];
    // Distribution side first: every root contributes its duration, kept
    // or not.
    auto it = sample.sketches.find(rec.label);
    if (it == sample.sketches.end()) {
      it = sample.sketches.emplace(rec.label, duration_us_histogram()).first;
    }
    it->second.add(rec.duration.to_us());

    // Sampled side: rate gate, then Algorithm-R reservoir over the kept
    // sequence. Both consume the same per-node stream, so the whole
    // decision trail is a function of (seed, node, record sequence).
    if (cfg.rate < 1.0 && !rng.bernoulli(cfg.rate)) continue;
    if (cfg.max_roots_per_node == 0 ||
        kept_roots.size() < cfg.max_roots_per_node) {
      kept_roots.push_back(root);
    } else {
      const std::uint64_t slot = rng.uniform_index(sample.roots_kept + 1);
      if (slot < cfg.max_roots_per_node) {
        kept_roots[static_cast<std::size_t>(slot)] = root;
      }
    }
    ++sample.roots_kept;
  }
  // roots_kept counted rate-survivors; the reservoir may have evicted
  // some, so the retained count is the reservoir size.
  sample.roots_kept = kept_roots.size();
  for (std::size_t root : kept_roots) {
    collect_tree(forest, root, &sample.records);
  }
  sample.records_kept = sample.records.size();
  return sample;
}

}  // namespace hpcos::obs::live
