// Pipeline serving throughput: warm compiled-kernel cache vs the
// cold-compile-per-request baseline.
//
// Drives the PipelineServer with the same request stream twice per app:
// once with the cache disabled (every request recompiles its stage kernels,
// ExecutorConfig::use_cache = false) and once
// against a pre-warmed KernelCache. Emits throughput and latency
// percentiles per mode plus the warm/cold throughput ratio — the number the
// acceptance bar cares about (warm >= 2x cold). Launches are sampled
// (timing-only): this bench measures the runtime around the simulator, not
// the simulated kernels.
//
// A second table times two adjacent rungs of perfbench's layer ladder on
// night at 2048² (native, clamp, ISP): PipelineExecutor::run and
// PipelineServer::submit, interleaved rep by rep, each rep's outputs held
// until the rep ends as the ladder holds them, with minor page faults
// (getrusage ru_minflt, whole process) per call. Their difference is the
// server rung's self time without the ladder's other rungs around it.
//
// A third table times a 128² request's fixed cost (native, mirror, ISP,
// gaussian and fused sobel, serve_128's apps): the kernel rung
// (exec::run_native_module on the fused stage's module), the first run of a
// fresh PipelineExecutor over the warm cache (it builds the run's plan) and
// a run of an executor that memoized the plan, interleaved rep by rep. The
// executor rungs minus the kernel rung are the executor's per-request cost
// with and without the plan.
//
// A fourth table times the same two apps served at 128² on a 1-shard fleet
// (GTX680, 2 workers), submit until the caller holds the response, in two
// interleaved rungs: `poll` calls get() on the handle submit() returns,
// which polls for its budget before it parks, and `park` calls wait() and
// then get(), so the caller always parks. Each rung splits into queue
// (submit -> dequeue), exec (dequeue -> settle) and return (the caller's
// time minus the fleet's submit -> settle: the settle's wake-up, or the
// poll's last check, plus submit()'s own allocations).
#include <sys/resource.h>

#include <array>
#include <chrono>
#include <cmath>
#include <iostream>
#include <string>
#include <thread>
#include <utility>

#include "common/cli.hpp"
#include "common/stats.hpp"
#include "common/table.hpp"
#include "exec/backend.hpp"
#include "fleet/fleet_server.hpp"
#include "harness.hpp"
#include "image/compare.hpp"
#include "image/generators.hpp"
#include "pipeline/server.hpp"

namespace ispb::bench {
namespace {

struct ServingRun {
  f64 wall_ms = 0.0;
  f64 throughput_rps = 0.0;
  pipeline::ServerStats stats;
};

ServingRun run_serving(const std::shared_ptr<const pipeline::KernelGraph>& graph,
                       const std::shared_ptr<const Image<f32>>& source,
                       const pipeline::ServerConfig& config, i32 requests) {
  using Clock = std::chrono::steady_clock;
  ServingRun out;
  const Clock::time_point t0 = Clock::now();
  {
    pipeline::PipelineServer server(config);
    std::vector<fleet::Pending<pipeline::ServeResponse>> futures;
    futures.reserve(static_cast<std::size_t>(requests));
    for (i32 i = 0; i < requests; ++i) {
      futures.push_back(
          server.submit({graph, source, /*deadline_ms=*/0.0, std::nullopt}));
    }
    for (auto& f : futures) f.wait();
    server.shutdown();
    out.stats = server.stats();
  }
  out.wall_ms =
      std::chrono::duration<f64, std::milli>(Clock::now() - t0).count();
  out.throughput_rps = out.wall_ms > 0.0
                           ? static_cast<f64>(out.stats.completed) /
                                 (out.wall_ms / 1000.0)
                           : 0.0;
  return out;
}

/// Minor page faults of the whole process so far.
i64 minor_faults() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return usage.ru_minflt;
}

/// The executor and server rungs for night at 2048², `reps` interleaved
/// reps after one untimed rep (JIT and first touch). Returns false if the
/// two rungs' outputs differ.
bool run_rungs(i32 reps, BenchJson& json) {
  using Clock = std::chrono::steady_clock;
  constexpr i32 kSize = 2048;
  const filters::MultiKernelApp app = filters::make_night_app();
  const auto graph = std::make_shared<const pipeline::KernelGraph>(
      pipeline::build_graph(app));
  const auto source = std::make_shared<const Image<f32>>(
      make_noise_image({kSize, kSize}, 1));

  pipeline::KernelCache cache;
  pipeline::ExecutorConfig exec_cfg;
  exec_cfg.sim.pattern = BorderPattern::kClamp;
  exec_cfg.sim.variant = codegen::Variant::kIsp;
  exec_cfg.cache = &cache;
  exec_cfg.backend = exec::Backend::kNative;
  const pipeline::PipelineExecutor executor(exec_cfg);
  pipeline::ServerConfig server_cfg;
  server_cfg.workers = 1;
  server_cfg.queue_capacity = 128;
  server_cfg.executor = exec_cfg;
  pipeline::PipelineServer server(server_cfg);

  enum Rung { kExecutor, kServer, kRungs };
  std::array<std::vector<f64>, kRungs> ms;
  std::array<i64, kRungs> faults{};
  bool identical = true;
  for (i32 k = -1; k < reps; ++k) {
    const i64 f0 = minor_faults();
    const Clock::time_point t0 = Clock::now();
    const pipeline::ExecutorResult er = executor.run(*graph, *source);
    const Clock::time_point t1 = Clock::now();
    const i64 f1 = minor_faults();
    const pipeline::ServeResponse srv =
        server.submit({graph, source, /*deadline_ms=*/0.0, std::nullopt})
            .get();
    const Clock::time_point t2 = Clock::now();
    const i64 f2 = minor_faults();
    if (k < 0) {
      identical = srv.status == pipeline::ServeStatus::kOk &&
                  compare(er.output, srv.output).max_abs == 0.0;
      continue;
    }
    ms[kExecutor].push_back(std::chrono::duration<f64, std::milli>(t1 - t0)
                                .count());
    ms[kServer].push_back(std::chrono::duration<f64, std::milli>(t2 - t1)
                              .count());
    faults[kExecutor] += f1 - f0;
    faults[kServer] += f2 - f1;
  }
  server.shutdown();

  const f64 px = static_cast<f64>(kSize) * kSize;
  AsciiTable table("night 2048x2048, native, clamp: executor and server "
                   "rungs interleaved (" + std::to_string(reps) + " reps)");
  table.set_header({"rung", "p25 ms", "median ms", "p75 ms", "minflt/call"});
  BenchJson::Row row;
  row.app = app.name;
  row.pattern = "clamp";
  row.variant = "isp";
  row.backend = "native";
  row.size = kSize;
  const auto add = [&](std::string metric, f64 value) {
    row.metric = std::move(metric);
    row.value = value;
    json.add(row);
  };
  const char* names[kRungs] = {"executor", "server"};
  for (i32 r = 0; r < kRungs; ++r) {
    const f64 per_call =
        static_cast<f64>(faults[r]) / static_cast<f64>(reps);
    table.add_row({names[r], AsciiTable::num(percentile(ms[r], 25.0), 3),
                   AsciiTable::num(median(ms[r]), 3),
                   AsciiTable::num(percentile(ms[r], 75.0), 3),
                   AsciiTable::num(per_call, 2)});
    add(std::string("rung_ms_p50.") + names[r], median(ms[r]));
    add(std::string("minflt_per_call.") + names[r], per_call);
  }
  const f64 self_ns_px =
      (median(ms[kServer]) - median(ms[kExecutor])) * 1e6 / px;
  table.add_row({"server - executor", "", AsciiTable::num(self_ns_px, 3) +
                                              " ns/px", "", ""});
  add("server_self_ns_px", self_ns_px);
  table.print(std::cout);
  return identical;
}

/// The kernel, first-run and memo-hit rungs for gaussian and fused sobel
/// at 128² (native, mirror, ISP), `reps` reps interleaved rung by rung
/// after one untimed rep. Returns false if any rung's output differs from
/// the reference.
bool run_plan_rungs(i32 reps, BenchJson& json) {
  using Clock = std::chrono::steady_clock;
  constexpr i32 kSize = 128;
  constexpr BorderPattern kPattern = BorderPattern::kMirror;
  const Image<f32> source = make_noise_image({kSize, kSize}, 1);
  const Image<f32>* const inputs[] = {&source};

  pipeline::KernelCache cache;
  pipeline::ExecutorConfig exec_cfg;
  exec_cfg.sim.pattern = kPattern;
  exec_cfg.sim.variant = codegen::Variant::kIsp;
  exec_cfg.cache = &cache;
  exec_cfg.backend = exec::Backend::kNative;
  const pipeline::PipelineExecutor executor(exec_cfg);

  AsciiTable table("128x128, native, mirror, ISP: per-request rungs "
                   "interleaved (" + std::to_string(reps) + " reps, JIT " +
                   std::string(exec::jit_isa_level()) + ", " +
                   std::to_string(std::thread::hardware_concurrency()) +
                   " hardware threads)");
  table.set_header({"app", "rung", "p25 us", "median us", "p75 us",
                    "over kernel us"});
  bool identical = true;
  for (const filters::MultiKernelApp& app :
       {filters::make_gaussian_app(), filters::make_sobel_app()}) {
    const pipeline::KernelGraph graph = pipeline::build_graph(app);
    const Image<f32> reference =
        filters::run_app_reference(app, source, kPattern);
    (void)executor.run(graph, source);  // JIT
    (void)executor.run(graph, source);  // plans with a hit: memoized
    // The fused graph's one stage is the kernel the executor runs.
    const pipeline::KernelGraph fused = graph.fused();
    const pipeline::KernelGraph::Stage& stage = fused.stages.at(0);
    codegen::CodegenOptions options;
    options.pattern = kPattern;
    options.variant = codegen::Variant::kIsp;
    const exec::NativeModulePtr module =
        cache.get_or_compile_native(stage.spec, options,
                                    exec_cfg.sim.device.name);
    Image<f32> kernel_out(source.size());

    enum Rung { kKernel, kFirstRun, kMemoHit, kRungs };
    std::array<std::vector<f64>, kRungs> us;
    for (auto& v : us) v.reserve(static_cast<std::size_t>(reps));
    for (i32 k = -1; k < reps; ++k) {
      const pipeline::PipelineExecutor fresh(exec_cfg);
      const Clock::time_point t0 = Clock::now();
      (void)exec::run_native_module(*module, inputs, kernel_out);
      const Clock::time_point t1 = Clock::now();
      const pipeline::ExecutorResult first = fresh.run(graph, source);
      const Clock::time_point t2 = Clock::now();
      const pipeline::ExecutorResult hit = executor.run(graph, source);
      const Clock::time_point t3 = Clock::now();
      if (k < 0) {
        identical = identical &&
                    compare(kernel_out, reference).max_abs == 0.0 &&
                    compare(first.output, reference).max_abs == 0.0 &&
                    compare(hit.output, reference).max_abs == 0.0;
        continue;
      }
      us[kKernel].push_back(
          std::chrono::duration<f64, std::micro>(t1 - t0).count());
      us[kFirstRun].push_back(
          std::chrono::duration<f64, std::micro>(t2 - t1).count());
      us[kMemoHit].push_back(
          std::chrono::duration<f64, std::micro>(t3 - t2).count());
    }

    BenchJson::Row row;
    row.app = app.name;
    row.pattern = "mirror";
    row.variant = "isp";
    row.backend = "native";
    row.isa_level = std::string(exec::jit_isa_level());
    row.size = kSize;
    const auto add = [&](std::string metric, f64 value) {
      row.metric = std::move(metric);
      row.value = value;
      json.add(row);
    };
    const char* names[kRungs] = {"kernel", "first_run", "memo_hit"};
    const f64 kernel_us = median(us[kKernel]);
    for (i32 r = 0; r < kRungs; ++r) {
      const f64 med = median(us[r]);
      table.add_row({app.name, names[r],
                     AsciiTable::num(percentile(us[r], 25.0), 2),
                     AsciiTable::num(med, 2),
                     AsciiTable::num(percentile(us[r], 75.0), 2),
                     r == kKernel ? "" : AsciiTable::num(med - kernel_us, 2)});
      add(std::string("rung_us_p50.") + names[r], med);
      add(std::string("rung_us_p25.") + names[r], percentile(us[r], 25.0));
      add(std::string("rung_us_p75.") + names[r], percentile(us[r], 75.0));
    }
    add("plan_saving_us", median(us[kFirstRun]) - median(us[kMemoHit]));
  }
  table.print(std::cout);
  return identical;
}

/// The poll and park rungs for gaussian and fused sobel served at 128²
/// (native, mirror, ISP) on a 1-shard fleet, `reps` reps interleaved rung
/// by rung after one untimed rep. Returns false if any response is not kOk
/// or its output differs from the reference.
bool run_served_rungs(i32 reps, BenchJson& json) {
  using Clock = std::chrono::steady_clock;
  constexpr i32 kSize = 128;
  constexpr BorderPattern kPattern = BorderPattern::kMirror;
  const auto source = std::make_shared<const Image<f32>>(
      make_noise_image({kSize, kSize}, 1));

  pipeline::KernelCache cache;
  fleet::FleetConfig config;
  config.devices = {sim::make_gtx680()};
  config.shard.workers = 2;
  config.shard.executor.sim.pattern = kPattern;
  config.shard.executor.sim.variant = codegen::Variant::kIsp;
  config.shard.executor.cache = &cache;
  config.shard.executor.backend = exec::Backend::kNative;
  fleet::FleetServer server(config);

  AsciiTable table("128x128 served on a 1-shard fleet (GTX680, 2 workers), "
                   "native, mirror, ISP: caller poll vs parked caller "
                   "interleaved (" + std::to_string(reps) + " reps)");
  table.set_header({"app", "rung", "p25 us", "median us", "p75 us",
                    "queue us", "exec us", "return us", "polled"});
  bool identical = true;
  for (const filters::MultiKernelApp& app :
       {filters::make_gaussian_app(), filters::make_sobel_app()}) {
    const auto graph = std::make_shared<const pipeline::KernelGraph>(
        pipeline::build_graph(app));
    const Image<f32> reference =
        filters::run_app_reference(app, *source, kPattern);
    fleet::FleetRequest request;
    request.graph = graph;
    request.source = source;
    // Compiles, then enough short runs that the fleet's average of recent
    // executions forgets the compile.
    for (int i = 0; i < 200; ++i) (void)server.submit(request).get();

    enum Rung { kPoll, kPark, kRungs };
    struct Split {
      std::vector<f64> total, queue, exec, ret;
      u64 polled = 0;
    };
    std::array<Split, kRungs> split;
    for (Split& sp : split) {
      for (auto* v : {&sp.total, &sp.queue, &sp.exec, &sp.ret}) {
        v->reserve(static_cast<std::size_t>(reps));
      }
    }
    for (i32 k = -1; k < reps; ++k) {
      for (i32 r = 0; r < kRungs; ++r) {
        const Clock::time_point t0 = Clock::now();
        fleet::Pending<fleet::FleetResponse> pending = server.submit(request);
        if (r == kPark) pending.wait();
        const bool polled = pending.poll_budget().count() > 0;
        const fleet::FleetResponse resp = pending.get();
        const f64 total_us =
            std::chrono::duration<f64, std::micro>(Clock::now() - t0).count();
        if (resp.status != fleet::FleetStatus::kOk ||
            (k < 0 && compare(resp.serve.output, reference).max_abs != 0.0)) {
          identical = false;
        }
        if (k < 0) continue;
        Split& sp = split[static_cast<std::size_t>(r)];
        sp.total.push_back(total_us);
        sp.queue.push_back(resp.serve.queue_ms * 1e3);
        sp.exec.push_back(resp.serve.exec_ms * 1e3);
        sp.ret.push_back(total_us - resp.total_ms * 1e3);
        sp.polled += polled ? 1 : 0;
      }
    }

    BenchJson::Row row;
    row.app = app.name;
    row.pattern = "mirror";
    row.variant = "isp";
    row.backend = "native";
    row.isa_level = std::string(exec::jit_isa_level());
    row.size = kSize;
    const auto add = [&](std::string metric, f64 value) {
      row.metric = std::move(metric);
      row.value = value;
      json.add(row);
    };
    const char* names[kRungs] = {"poll", "park"};
    for (i32 r = 0; r < kRungs; ++r) {
      const Split& sp = split[static_cast<std::size_t>(r)];
      const f64 polled_share =
          static_cast<f64>(sp.polled) / static_cast<f64>(reps);
      table.add_row({app.name, names[r],
                     AsciiTable::num(percentile(sp.total, 25.0), 2),
                     AsciiTable::num(median(sp.total), 2),
                     AsciiTable::num(percentile(sp.total, 75.0), 2),
                     AsciiTable::num(median(sp.queue), 2),
                     AsciiTable::num(median(sp.exec), 2),
                     AsciiTable::num(median(sp.ret), 2),
                     AsciiTable::num(polled_share, 2)});
      const std::string rung = names[r];
      add("served_us_p50." + rung, median(sp.total));
      add("served_us_p25." + rung, percentile(sp.total, 25.0));
      add("served_us_p75." + rung, percentile(sp.total, 75.0));
      add("queue_us_p50." + rung, median(sp.queue));
      add("exec_us_p50." + rung, median(sp.exec));
      add("return_us_p50." + rung, median(sp.ret));
      add("poll_granted_share." + rung, polled_share);
    }
    add("poll_saving_us",
        median(split[kPark].total) - median(split[kPoll].total));
  }
  server.shutdown();
  table.print(std::cout);
  return identical;
}

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  cli.option("app", "run a single application by name");
  cli.option("size", "image extent (default 32; content is irrelevant here)");
  cli.option("requests", "requests per mode (default 32)");
  cli.option("concurrency", "server worker threads (default 4)");
  cli.option("backend", "interp|native execution engine (default interp)");
  cli.option("quick", "8 requests instead of 32");
  cli.option("json", "write results as JSON rows to this path");
  if (cli.finish()) {
    std::cout << cli.help();
    return 0;
  }
  // Small default: sampled-launch cost is nearly size-independent, so a big
  // image only slows down block classification without changing the story.
  const i32 size = static_cast<i32>(cli.get_int("size", 32));
  const i32 requests = cli.get_flag("quick")
                           ? 8
                           : static_cast<i32>(cli.get_int("requests", 32));
  const i32 concurrency = static_cast<i32>(cli.get_int("concurrency", 4));
  const std::string only_app = cli.get_string("app", "");
  // Default interp: this bench's story is cache-warm vs cold compile, which
  // the interpreted engine isolates best (native cold is softened by
  // on-disk artifact reuse).
  const std::string backend_name = cli.get_string("backend", "interp");
  const auto backend = exec::parse_backend(backend_name);
  if (!backend.has_value()) {
    std::cerr << "unknown --backend '" << backend_name << "' (interp|native)\n";
    return 1;
  }
  BenchJson json("micro_pipeline");

  std::cout << "Pipeline serving: warm kernel cache vs cold "
               "compile-per-request (" << requests << " requests, "
            << concurrency << " workers, sampled launches, " << size << "x"
            << size << ").\n\n";

  AsciiTable table("serving throughput (req/s) and p50/p99 latency (ms)");
  table.set_header({"app", "cold req/s", "cold p50", "cold p99", "warm req/s",
                    "warm p50", "warm p99", "warm/cold"});

  f64 log_ratio_sum = 0.0;
  i32 apps_run = 0;
  for (auto& app : filters::all_apps()) {
    if (!only_app.empty() && app.name != only_app) continue;
    const auto graph = std::make_shared<const pipeline::KernelGraph>(
        pipeline::build_graph(app));
    const auto source = std::make_shared<const Image<f32>>(
        make_gradient_image({size, size}));

    pipeline::ServerConfig cold_cfg;
    cold_cfg.workers = concurrency;
    cold_cfg.queue_capacity = static_cast<std::size_t>(requests);
    cold_cfg.executor.sim.sampled = true;
    // Small blocks keep the interpreter cost of a sampled launch low: the
    // bench isolates serving + compile overhead, not simulated kernel time.
    cold_cfg.executor.sim.block = {8, 4};
    cold_cfg.executor.use_cache = false;
    cold_cfg.executor.backend = *backend;
    const ServingRun cold = run_serving(graph, source, cold_cfg, requests);

    pipeline::KernelCache cache;
    pipeline::ServerConfig warm_cfg = cold_cfg;
    warm_cfg.executor.use_cache = true;
    warm_cfg.executor.cache = &cache;
    // Pre-warm: one untimed request compiles every stage kernel.
    (void)run_serving(graph, source, warm_cfg, 1);
    const ServingRun warm = run_serving(graph, source, warm_cfg, requests);

    const f64 ratio = cold.throughput_rps > 0.0
                          ? warm.throughput_rps / cold.throughput_rps
                          : 0.0;
    // value_or(0.0): these runs always complete requests, but don't crash
    // the bench table if one run ever ends empty.
    const auto pct = [](const ServingRun& run, f64 p) {
      return run.stats.total_latency_ms.percentile(p).value_or(0.0);
    };
    table.add_row({app.name, AsciiTable::num(cold.throughput_rps, 1),
                   AsciiTable::num(pct(cold, 50.0), 3),
                   AsciiTable::num(pct(cold, 99.0), 3),
                   AsciiTable::num(warm.throughput_rps, 1),
                   AsciiTable::num(pct(warm, 50.0), 3),
                   AsciiTable::num(pct(warm, 99.0), 3),
                   AsciiTable::num(ratio, 2)});

    for (const auto& [variant, run] :
         {std::pair<std::string, const ServingRun&>{"cold", cold},
          std::pair<std::string, const ServingRun&>{"warm", warm}}) {
      BenchJson::Row row;
      row.app = app.name;
      row.variant = variant;
      row.backend = backend_name;
      row.size = size;
      row.metric = "throughput_rps";
      row.value = run.throughput_rps;
      json.add(row);
      for (const auto& [metric, p] :
           {std::pair<const char*, f64>{"latency_p50_ms", 50.0},
            std::pair<const char*, f64>{"latency_p95_ms", 95.0},
            std::pair<const char*, f64>{"latency_p99_ms", 99.0}}) {
        row.metric = metric;
        row.value = pct(run, p);
        json.add(row);
      }
    }
    BenchJson::Row ratio_row;
    ratio_row.app = app.name;
    ratio_row.backend = backend_name;
    ratio_row.size = size;
    ratio_row.metric = "warm_over_cold_throughput";
    ratio_row.value = ratio;
    json.add(ratio_row);
    if (ratio > 0.0) {
      log_ratio_sum += std::log(ratio);
      ++apps_run;
    }
  }

  const f64 geomean =
      apps_run > 0 ? std::exp(log_ratio_sum / apps_run) : 0.0;
  table.add_row({"geomean", "", "", "", "", "", "",
                 AsciiTable::num(geomean, 2)});
  BenchJson::Row geo_row;
  geo_row.app = "all";
  geo_row.backend = backend_name;
  geo_row.size = size;
  geo_row.metric = "warm_over_cold_geomean";
  geo_row.value = geomean;
  json.add(geo_row);

  table.print(std::cout);
  std::cout << "\nAcceptance bar: geomean warm/cold >= 2 (compiles dominate "
               "a sampled launch at this size).\n\n";

  bool identical = true;
  if (only_app.empty() || only_app == "night") {
    identical = run_rungs(cli.get_flag("quick") ? 31 : 61, json);
  }
  if (!identical) {
    std::cerr << "night: the executor and server rungs' outputs differ\n";
  }
  bool plan_identical = true;
  if (only_app.empty() || only_app == "gaussian" || only_app == "sobel") {
    std::cout << "\n";
    plan_identical =
        run_plan_rungs(cli.get_flag("quick") ? 2001 : 20001, json);
  }
  bool served_identical = true;
  if (only_app.empty() || only_app == "gaussian" || only_app == "sobel") {
    std::cout << "\n";
    served_identical =
        run_served_rungs(cli.get_flag("quick") ? 2001 : 20001, json);
  }
  json.write(cli.get_string("json", ""));
  if (!plan_identical) {
    std::cerr << "128x128: a rung's output differs from the reference\n";
  }
  if (!served_identical) {
    std::cerr << "128x128 served: a response failed or differs from the "
                 "reference\n";
  }
  return identical && plan_identical && served_identical ? 0 : 1;
}

}  // namespace
}  // namespace ispb::bench

int main(int argc, char** argv) { return ispb::bench::run(argc, argv); }
