// place_scale: closed loop, one client. Each request is a fresh §7.1
// random-tree graph of 10,000 operators over 10 input streams; RodPlace
// places it on 256 homogeneous nodes and RatioToIdeal scores the plan.
// Placement and geometry do all the work, so this bounds the
// coordinator's re-place time at scale.

#include <string>
#include <vector>

#include "geometry/feasible_set.h"
#include "geometry/sample_cache.h"
#include "harness.h"
#include "placement/evaluator.h"
#include "placement/rod.h"
#include "query/graph_gen.h"
#include "query/load_model.h"

namespace rodbench {
namespace {

using namespace rod;

constexpr size_t kStreams = 10;
constexpr size_t kOpsPerTree = 1000;
constexpr size_t kNodes = 256;
constexpr size_t kSetups = 15;
// The p90 needs at least ten requests beyond it.
constexpr size_t kMinRequests = 100;
// Hard stop if the machine is far slower than expected.
constexpr double kMaxLoopSeconds = 120.0;

Result<query::LoadModel> MakeModel(uint64_t seed, Tracer* tracer,
                                   uint64_t request, uint64_t parent,
                                   double* graph_seconds) {
  Span span(tracer, "query.graph", request, parent);
  query::GraphGenOptions gen;
  gen.num_input_streams = kStreams;
  gen.ops_per_tree = kOpsPerTree;
  Rng rng(seed);
  const query::QueryGraph graph = query::GenerateRandomTrees(gen, rng);
  auto model = query::BuildLoadModel(graph);
  *graph_seconds = span.End();
  return model;
}

}  // namespace

Outcome RunPlaceScale(const RunConfig& config) {
  Outcome out;
  Tracer tracer(config.trace);
  Tracer untraced(false);
  const place::SystemSpec system = place::SystemSpec::Homogeneous(kNodes);
  const geom::VolumeOptions volume;
  const geom::SimplexSampleKey key = geom::VolumeSampleKey(kStreams, volume);

  // Set-up, repeated: a cold simplex-sample cache plus one request's input.
  std::vector<double> setup_s, sample_gen_ms;
  for (size_t s = 0; s < kSetups; ++s) {
    const uint64_t request = tracer.NewRequest();
    Span root(&tracer, "setup", request);
    geom::SimplexSampleCache::Global().Clear();
    {
      Span gen(&tracer, "geometry.sample_gen", request, root.id());
      geom::SimplexSampleCache::Global().Get(key);
      sample_gen_ms.push_back(gen.End() * 1e3);
    }
    double graph_seconds = 0.0;
    auto model = MakeModel(ItemSeed(config.seed, s), &tracer, request,
                           root.id(), &graph_seconds);
    if (!model.ok()) out.Fail("setup graph: " + model.status().ToString());
    setup_s.push_back(root.End());
  }

  // In a traced run every other request is untraced, so the two halves
  // give telemetry.overhead_pct from the same stretch of time.
  std::vector<double> latency_ms, graph_ms, rod_ms, ratio_ms, ratios;
  std::vector<double> traced_ms, untraced_ms;
  const double start = NowSeconds();
  for (uint64_t i = 0;; ++i) {
    const double elapsed = NowSeconds() - start;
    if ((i >= kMinRequests && elapsed >= config.seconds) ||
        elapsed >= kMaxLoopSeconds) {
      break;
    }
    const bool traced_request = config.trace && i % 2 == 1;
    Tracer* t = config.trace && !traced_request ? &untraced : &tracer;
    ++out.attempted;
    const uint64_t request = t->NewRequest();
    Span root(t, "request", request);
    double graph_seconds = 0.0;
    auto model = MakeModel(ItemSeed(config.seed, kSetups + i), t, request,
                           root.id(), &graph_seconds);
    if (!model.ok()) {
      ++out.failed;
      out.Fail("graph: " + model.status().ToString());
      continue;
    }
    Span place(t, "place", request, root.id());
    Span rod_span(t, "placement.rod", request, place.id());
    auto plan = place::RodPlace(*model, system);
    const double rod_seconds = rod_span.End();
    if (!plan.ok()) {
      ++out.failed;
      out.Fail("RodPlace: " + plan.status().ToString());
      continue;
    }
    Span ratio_span(t, "geometry.ratio", request, place.id());
    const place::PlacementEvaluator evaluator(*model, system);
    auto ratio = evaluator.RatioToIdeal(*plan, volume);
    const double ratio_seconds = ratio_span.End();
    const double seconds = place.End();
    root.End();

    // Output checks: every operator on one of the nodes, ratio in (0, 1].
    bool ok = ratio.ok() && *ratio > 0.0 && *ratio <= 1.0 &&
              plan->num_nodes() == kNodes &&
              plan->num_operators() == model->num_operators() &&
              model->num_operators() == kStreams * kOpsPerTree;
    for (const size_t node : plan->assignment()) ok = ok && node < kNodes;
    if (!ok) {
      ++out.failed;
      out.Fail("request " + std::to_string(i) + ": bad plan or ratio");
      continue;
    }
    latency_ms.push_back(seconds * 1e3);
    (traced_request ? traced_ms : untraced_ms).push_back(seconds * 1e3);
    // The first kMinRequests plans only, so the figure is the same on
    // every run of a seed however many requests fit in the time.
    if (i < kMinRequests) ratios.push_back(*ratio);
    if (traced_request || !config.trace) {
      graph_ms.push_back(graph_seconds * 1e3);
      rod_ms.push_back(rod_seconds * 1e3);
      ratio_ms.push_back(ratio_seconds * 1e3);
    }
  }

  auto& m = out.metrics;
  m["setup_s"] = Median(setup_s);
  m["rss_mib"] = PeakRssMib();
  m["plan_ratio"] = Mean(ratios);
  m["latency_ms.p50"] = Quantile(latency_ms, 0.5);
  m["latency_ms.p90"] = Quantile(latency_ms, 0.9);
  if (config.trace) {
    m["query.graph_ms"] = Median(graph_ms);
    m["placement.rod_ms.p50"] = Median(rod_ms);
    m["geometry.ratio_ms.p50"] = Median(ratio_ms);
    m["geometry.samples_per_s"] =
        static_cast<double>(volume.num_samples) / (Median(ratio_ms) * 1e-3);
    m["geometry.sample_gen_ms"] = Median(sample_gen_ms);
    m["telemetry.overhead_pct"] =
        OverheadPct(Median(traced_ms), Median(untraced_ms));
    if (!tracer.WriteChromeTrace(TracePath(config), nullptr)) {
      out.Fail("could not write " + TracePath(config));
    }
  }
  return out;
}

}  // namespace rodbench
