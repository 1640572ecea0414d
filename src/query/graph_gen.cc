#include "query/graph_gen.h"

#include <cassert>
#include <deque>
#include <string>

namespace rod::query {

namespace {

/// Draws a delay-operator spec with the §7.1 cost/selectivity distribution.
OperatorSpec RandomDelaySpec(const GraphGenOptions& options, Rng& rng,
                             std::string name) {
  OperatorSpec spec;
  spec.name = std::move(name);
  spec.kind = OperatorKind::kDelay;
  spec.cost = rng.Uniform(options.min_cost, options.max_cost);
  spec.selectivity =
      rng.Bernoulli(options.frac_selectivity_one)
          ? 1.0
          : rng.Uniform(options.min_selectivity, options.max_selectivity);
  return spec;
}

}  // namespace

QueryGraph GenerateRandomTrees(const GraphGenOptions& options, Rng& rng) {
  assert(options.num_input_streams > 0);
  assert(options.ops_per_tree > 0);
  assert(options.min_children >= 1 &&
         options.min_children <= options.max_children);

  QueryGraph g;
  for (size_t k = 0; k < options.num_input_streams; ++k) {
    // Names are appended piece by piece: gcc 12 at -O3 warns -Wrestrict on
    // the inlined temporaries of "I" + std::to_string(k).
    std::string input_name = "I";
    input_name += std::to_string(k);
    const InputStreamId input = g.AddInputStream(input_name);

    // Grow one tree rooted at this input, breadth-first: pop a frontier
    // stream, attach U{1..3} children, push the children, until the tree
    // has ops_per_tree operators.
    size_t created = 0;
    std::deque<StreamRef> frontier;
    frontier.push_back(StreamRef::Input(input));
    while (created < options.ops_per_tree) {
      assert(!frontier.empty());
      const StreamRef parent = frontier.front();
      frontier.pop_front();
      const int children = static_cast<int>(
          rng.UniformInt(options.min_children, options.max_children));
      for (int c = 0; c < children && created < options.ops_per_tree; ++c) {
        std::string name = "t";
        name += std::to_string(k);
        name += "_o";
        name += std::to_string(created);
        auto id = g.AddOperator(RandomDelaySpec(options, rng, name), {parent});
        ROD_CHECK_OK(id.status());
        frontier.push_back(StreamRef::Op(*id));
        ++created;
      }
    }
  }
  return g;
}

QueryGraph BuildTrafficMonitoringGraph(const TrafficMonitoringOptions& options) {
  assert(options.num_links > 0);
  assert(!options.windows.empty());

  QueryGraph g;
  std::vector<StreamRef> rollup_feeds;
  for (size_t link = 0; link < options.num_links; ++link) {
    const std::string prefix = "link" + std::to_string(link);
    const InputStreamId input = g.AddInputStream(prefix + "_pkts");

    // Protocol demultiplex: header-parse map feeding per-protocol filters.
    auto parse = g.AddOperator(
        {.name = prefix + "_parse",
         .kind = OperatorKind::kMap,
         .cost = options.base_cost,
         .selectivity = 1.0},
        {StreamRef::Input(input)});
    ROD_CHECK_OK(parse.status());

    const struct {
      const char* proto;
      double share;
    } kProtos[] = {{"tcp", 0.6}, {"udp", 0.3}, {"icmp", 0.1}};
    for (const auto& p : kProtos) {
      auto filter = g.AddOperator(
          {.name = prefix + "_" + p.proto,
           .kind = OperatorKind::kFilter,
           .cost = 0.4 * options.base_cost,
           .selectivity = p.share},
          {StreamRef::Op(*parse)});
      ROD_CHECK_OK(filter.status());

      // Per-window aggregation chains (byte / packet counts).
      for (size_t w = 0; w < options.windows.size(); ++w) {
        auto keyed = g.AddOperator(
            {.name = prefix + "_" + p.proto + "_key" + std::to_string(w),
             .kind = OperatorKind::kMap,
             .cost = 0.3 * options.base_cost,
             .selectivity = 1.0},
            {StreamRef::Op(*filter)});
        ROD_CHECK_OK(keyed.status());
        auto agg = g.AddOperator(
            {.name = prefix + "_" + p.proto + "_agg" + std::to_string(w),
             .kind = OperatorKind::kAggregate,
             .cost = 0.8 * options.base_cost,
             // One output tuple per window close: the coarser the window,
             // the lower the selectivity.
             .selectivity = 1.0 / (1.0 + options.windows[w])},
            {StreamRef::Op(*keyed)});
        ROD_CHECK_OK(agg.status());
        if (options.include_global_rollup && w == 0) {
          rollup_feeds.push_back(StreamRef::Op(*agg));
        }
      }
    }
  }

  if (options.include_global_rollup && !rollup_feeds.empty()) {
    auto merge = g.AddOperator({.name = "rollup_union",
                                .kind = OperatorKind::kUnion,
                                .cost = 0.2 * options.base_cost,
                                .selectivity = 1.0},
                               rollup_feeds);
    ROD_CHECK_OK(merge.status());
    auto top = g.AddOperator({.name = "top_talkers",
                              .kind = OperatorKind::kAggregate,
                              .cost = 1.5 * options.base_cost,
                              .selectivity = 0.2},
                             {StreamRef::Op(*merge)});
    ROD_CHECK_OK(top.status());
  }
  return g;
}

QueryGraph BuildComplianceGraph(const ComplianceOptions& options) {
  assert(options.num_feeds > 0 && options.num_rules > 0);

  QueryGraph g;
  // Shared per-feed normalization subexpression (common subexpression the
  // rules fan out from; §7.3.1's "related queries with common
  // sub-expressions, so query graphs tend to get very wide").
  std::vector<StreamRef> normalized;
  for (size_t f = 0; f < options.num_feeds; ++f) {
    const std::string prefix = "feed" + std::to_string(f);
    const InputStreamId input = g.AddInputStream(prefix);
    auto decode = g.AddOperator({.name = prefix + "_decode",
                                 .kind = OperatorKind::kMap,
                                 .cost = options.base_cost,
                                 .selectivity = 1.0},
                                {StreamRef::Input(input)});
    ROD_CHECK_OK(decode.status());
    auto dedup = g.AddOperator({.name = prefix + "_dedup",
                                .kind = OperatorKind::kFilter,
                                .cost = 0.5 * options.base_cost,
                                .selectivity = 0.95},
                               {StreamRef::Op(*decode)});
    ROD_CHECK_OK(dedup.status());
    normalized.push_back(StreamRef::Op(*dedup));
  }

  // Per-rule chains: symbol filter -> enrich -> windowed aggregate ->
  // threshold filter; rules alternate across feeds, and every fourth rule
  // unions both feeds first (cross-market rule).
  for (size_t r = 0; r < options.num_rules; ++r) {
    const std::string prefix = "rule" + std::to_string(r);
    StreamRef source = normalized[r % normalized.size()];
    if (r % 4 == 3 && normalized.size() > 1) {
      auto u = g.AddOperator({.name = prefix + "_xmkt",
                              .kind = OperatorKind::kUnion,
                              .cost = 0.2 * options.base_cost,
                              .selectivity = 1.0},
                             normalized);
      ROD_CHECK_OK(u.status());
      source = StreamRef::Op(*u);
    }
    auto select = g.AddOperator(
        {.name = prefix + "_select",
         .kind = OperatorKind::kFilter,
         .cost = 0.4 * options.base_cost,
         // Rules watch progressively narrower symbol sets.
         .selectivity = 0.1 + 0.8 / static_cast<double>(r + 1)},
        {source});
    ROD_CHECK_OK(select.status());
    auto enrich = g.AddOperator({.name = prefix + "_enrich",
                                 .kind = OperatorKind::kMap,
                                 .cost = 1.2 * options.base_cost,
                                 .selectivity = 1.0},
                                {StreamRef::Op(*select)});
    ROD_CHECK_OK(enrich.status());
    auto window = g.AddOperator({.name = prefix + "_window",
                                 .kind = OperatorKind::kAggregate,
                                 .cost = 0.9 * options.base_cost,
                                 .selectivity = 0.3},
                                {StreamRef::Op(*enrich)});
    ROD_CHECK_OK(window.status());
    auto alert = g.AddOperator({.name = prefix + "_alert",
                                .kind = OperatorKind::kFilter,
                                .cost = 0.3 * options.base_cost,
                                .selectivity = 0.05},
                               {StreamRef::Op(*window)});
    ROD_CHECK_OK(alert.status());
  }
  return g;
}

}  // namespace rod::query
