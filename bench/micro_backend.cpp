// Single-kernel execution-backend throughput: interpreted gpusim launch vs
// the JIT-compiled native shared object, one representative kernel per
// paper application (gaussian 3x3, laplace 5x5, bilateral 13x13, sobel dx
// 3x3, night atrous 9x9).
//
// For each kernel the bench first enforces the bit-identity gate — the
// interpreted output AND the native isp and naive outputs must match
// dsl::run_reference bit for bit — then times both engines on full launches
// and reports per-kernel wall milliseconds, the native/interp speedup, and
// the geomean speedup across kernels (the acceptance bar: geomean >= 10x).
// It also reports the paper's claim on the host CPU: the native naive
// kernel's time over the native isp kernel's, the median over interleaved
// pairs of single-threaded calls of each module's entry point over the
// whole image, and their geomean `native_isp_speedup_geomean` (the
// vectorization guard: >= 2x only while the guard-free Body loop
// vectorizes) — first at the JIT's production ISA level
// (exec::jit_isa_level()), then again at baseline x86-64; JSON rows name
// the level in `isa_level`. Exits 1 printing "bit-identity gate FAILED"
// when any pixel differs.
#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <iostream>
#include <vector>

#include "common/cli.hpp"
#include "common/table.hpp"
#include "dsl/compile.hpp"
#include "dsl/runtime.hpp"
#include "exec/backend.hpp"
#include "exec/jit.hpp"
#include "harness.hpp"
#include "image/generators.hpp"

namespace ispb::bench {
namespace {

using Clock = std::chrono::steady_clock;

f64 ms_since(Clock::time_point t0) {
  return std::chrono::duration<f64, std::milli>(Clock::now() - t0).count();
}

/// Naive time over isp time for one call of each module's entry point over
/// every row on the calling thread: the generated loop alone, without the
/// row-band dispatch of exec::run_native_module. The median over `trials`
/// back-to-back pairs of calls, which of the two goes first alternating: a
/// host that slows down for a while slows both calls of a pair, where a
/// separate best-of run per module can catch the two in different phases.
f64 naive_over_isp(const exec::NativeModule& isp,
                   const exec::NativeModule& naive,
                   const std::vector<const Image<f32>*>& inputs,
                   Image<f32>& out, i32 trials) {
  std::vector<const float*> ptrs;
  std::vector<i32> pitches;
  for (const Image<f32>* img : inputs) {
    ptrs.push_back(img->buffer().data());
    pitches.push_back(img->pitch());
  }
  const auto call_ms = [&](const exec::NativeModule& module) {
    const Clock::time_point t0 = Clock::now();
    module.fn()(ptrs.data(), pitches.data(), out.buffer().data(), out.pitch(),
                out.width(), out.height(), 0, out.height());
    return ms_since(t0);
  };
  std::vector<f64> ratios;
  for (i32 t = 0; t < trials; ++t) {
    f64 isp_ms = 0.0;
    f64 naive_ms = 0.0;
    if (t % 2 == 0) {
      isp_ms = call_ms(isp);
      naive_ms = call_ms(naive);
    } else {
      naive_ms = call_ms(naive);
      isp_ms = call_ms(isp);
    }
    ratios.push_back(isp_ms > 0.0 ? naive_ms / isp_ms : 0.0);
  }
  std::sort(ratios.begin(), ratios.end());
  return ratios[ratios.size() / 2];
}

f64 geomean(const std::vector<f64>& values) {
  f64 log_sum = 0.0;
  i32 n = 0;
  for (f64 v : values) {
    if (v > 0.0) {
      log_sum += std::log(v);
      ++n;
    }
  }
  return n > 0 ? std::exp(log_sum / n) : 0.0;
}

/// Exact bit equality (0.0f vs -0.0f and NaN payloads included): the gate
/// the native backend promises, stronger than a tolerance compare.
bool bit_identical(const Image<f32>& a, const Image<f32>& b) {
  if (a.size() != b.size()) return false;
  for (i32 y = 0; y < a.height(); ++y) {
    for (i32 x = 0; x < a.width(); ++x) {
      if (std::bit_cast<u32>(a(x, y)) != std::bit_cast<u32>(b(x, y))) {
        return false;
      }
    }
  }
  return true;
}

int run(int argc, char** argv) {
  Cli cli(argc, argv);
  cli.option("size", "image extent (default 256, quick 96)");
  cli.option("pattern", "border pattern (default clamp)");
  cli.option("quick", "small images + fewer native reps (CI smoke)");
  cli.option("json", "JSON rows: --json to stdout, --json=PATH to file");
  if (cli.finish()) {
    std::cout << cli.help();
    return 0;
  }
  const bool quick = cli.get_flag("quick");
  const i32 size = static_cast<i32>(cli.get_int("size", quick ? 96 : 256));
  const auto pattern =
      parse_border_pattern(cli.get_string("pattern", "clamp"));
  if (!pattern.has_value()) {
    std::cerr << "unknown --pattern (clamp|mirror|repeat|constant)\n";
    return 1;
  }
  const std::string json_arg = cli.get_string("json", "");

  const sim::DeviceSpec device = sim::make_gtx680();
  const Image<f32> source = make_noise_image({size, size}, 4242);
  BenchJson json("micro_backend");

  AsciiTable table("single-kernel backend throughput, " +
                   std::to_string(size) + "x" + std::to_string(size) + ", " +
                   std::string(to_string(*pattern)));
  const std::string level(exec::jit_isa_level());
  table.set_header({"kernel", "interp ms", "native ms", "speedup",
                    "isp vs naive " + level, "isp vs naive x86-64"});
  exec::JitConfig baseline;
  baseline.extra_flags = "-march=x86-64";

  std::vector<f64> speedups;
  std::vector<f64> isp_speedups;
  std::vector<f64> baseline_isp_speedups;
  bool gate_ok = true;

  for (const auto& app : filters::all_apps()) {
    // The first stage of each app reads only the source image — a clean
    // single-kernel workload (gaussian/laplace/bilateral are one stage
    // anyway; sobel contributes dx, night its first atrous level).
    const codegen::StencilSpec& spec = app.stages.front().spec;
    std::vector<const Image<f32>*> inputs(
        static_cast<std::size_t>(spec.num_inputs), &source);

    codegen::CodegenOptions options;
    options.pattern = *pattern;
    options.variant = codegen::Variant::kIsp;

    const Image<f32> reference =
        dsl::run_reference(spec, *pattern, options.border_constant, inputs);

    // Interpreted: compile once (untimed), time full launches.
    const auto kernel = dsl::compile_kernel(spec, options);
    Image<f32> interp_out(source.size());
    const Clock::time_point t_interp = Clock::now();
    (void)dsl::launch_on_sim(device, kernel, inputs, interp_out, {32, 4},
                             /*sampled=*/false);
    const f64 interp_ms = ms_since(t_interp);

    // Native: JIT once (untimed), verify, then time enough reps for a
    // stable wall reading (the kernel runs in microseconds).
    const exec::NativeModulePtr module = exec::jit_compile(spec, options);
    Image<f32> native_out(source.size());
    (void)exec::run_native_module(*module, inputs, native_out);
    codegen::CodegenOptions naive_options = options;
    naive_options.variant = codegen::Variant::kNaive;
    const exec::NativeModulePtr naive_module =
        exec::jit_compile(spec, naive_options);
    Image<f32> naive_out(source.size());
    (void)exec::run_native_module(*naive_module, inputs, naive_out);
    const exec::NativeModulePtr baseline_module =
        exec::jit_compile(spec, options, baseline);
    const exec::NativeModulePtr baseline_naive_module =
        exec::jit_compile(spec, naive_options, baseline);
    Image<f32> baseline_out(source.size());
    (void)exec::run_native_module(*baseline_module, inputs, baseline_out);
    Image<f32> baseline_naive_out(source.size());
    (void)exec::run_native_module(*baseline_naive_module, inputs,
                                  baseline_naive_out);

    for (const auto& [engine, out] :
         {std::pair<const char*, const Image<f32>*>{"interp", &interp_out},
          {"native", &native_out},
          {"native naive", &naive_out},
          {"native x86-64", &baseline_out},
          {"native naive x86-64", &baseline_naive_out}}) {
      if (!bit_identical(*out, reference)) {
        gate_ok = false;
        std::cerr << "bit-identity mismatch for kernel '" << spec.name
                  << "' (" << engine << " vs reference)\n";
      }
    }

    const i32 reps = quick ? 5 : 20;
    const Clock::time_point t_native = Clock::now();
    for (i32 r = 0; r < reps; ++r) {
      (void)exec::run_native_module(*module, inputs, native_out);
    }
    const f64 native_ms = ms_since(t_native) / static_cast<f64>(reps);

    const f64 speedup = native_ms > 0.0 ? interp_ms / native_ms : 0.0;
    speedups.push_back(speedup);

    const i32 trials = quick ? 41 : 61;
    const f64 isp_speedup =
        naive_over_isp(*module, *naive_module, inputs, native_out, trials);
    isp_speedups.push_back(isp_speedup);
    const f64 baseline_isp_speedup =
        naive_over_isp(*baseline_module, *baseline_naive_module, inputs,
                       native_out, trials);
    baseline_isp_speedups.push_back(baseline_isp_speedup);

    table.add_row({app.name + "/" + spec.name, AsciiTable::num(interp_ms, 3),
                   AsciiTable::num(native_ms, 4), AsciiTable::num(speedup, 1),
                   AsciiTable::num(isp_speedup, 2),
                   AsciiTable::num(baseline_isp_speedup, 2)});

    BenchJson::Row row;
    row.device = device.name;
    row.app = app.name;
    row.pattern = std::string(to_string(*pattern));
    row.size = size;
    row.metric = "kernel_ms";
    row.backend = "interp";
    row.value = interp_ms;
    json.add(row);
    row.backend = "native";
    row.isa_level = level;
    row.value = native_ms;
    json.add(row);
    row.backend = "";
    row.metric = "native_speedup";
    row.value = speedup;
    json.add(row);
    row.backend = "native";
    row.metric = "native_isp_speedup";
    row.value = isp_speedup;
    json.add(row);
    row.isa_level = "x86-64";
    row.value = baseline_isp_speedup;
    json.add(row);
  }

  const f64 speedup_geomean = geomean(speedups);
  const f64 isp_speedup_geomean = geomean(isp_speedups);
  const f64 baseline_isp_speedup_geomean = geomean(baseline_isp_speedups);
  table.add_row({"geomean", "", "", AsciiTable::num(speedup_geomean, 1),
                 AsciiTable::num(isp_speedup_geomean, 2),
                 AsciiTable::num(baseline_isp_speedup_geomean, 2)});
  BenchJson::Row geo_row;
  geo_row.device = device.name;
  geo_row.app = "all";
  geo_row.pattern = std::string(to_string(*pattern));
  geo_row.size = size;
  geo_row.isa_level = level;
  geo_row.metric = "native_speedup_geomean";
  geo_row.value = speedup_geomean;
  json.add(geo_row);
  // The production level's row comes first: CI's vectorization guard reads
  // the first native_isp_speedup_geomean row.
  geo_row.backend = "native";
  geo_row.metric = "native_isp_speedup_geomean";
  geo_row.value = isp_speedup_geomean;
  json.add(geo_row);
  geo_row.isa_level = "x86-64";
  geo_row.value = baseline_isp_speedup_geomean;
  json.add(geo_row);

  if (json_arg == "true") {
    std::cout << json.to_json().dump(1) << "\n";
  } else {
    if (!json_arg.empty()) json.write(json_arg);
    table.print(std::cout);
    if (!json_arg.empty()) std::cout << "wrote " << json_arg << "\n";
  }

  if (!gate_ok) {
    std::cerr << "bit-identity gate FAILED\n";
    return 1;
  }
  std::cerr << "bit-identity gate passed\n";
  std::cerr << "Acceptance bar: geomean native/interp speedup >= 10 (got "
            << AsciiTable::num(speedup_geomean, 1) << ")\n";
  std::cerr << "Vectorization guard: geomean native naive/isp, one thread, "
               ">= 2 (got "
            << AsciiTable::num(isp_speedup_geomean, 2) << " at " << level
            << "; " << AsciiTable::num(baseline_isp_speedup_geomean, 2)
            << " at x86-64)\n";
  return 0;
}

}  // namespace
}  // namespace ispb::bench

int main(int argc, char** argv) { return ispb::bench::run(argc, argv); }
