// Shared helpers for the experiment harnesses.
//
// Besides header/table printing this provides:
//  * bench::init(argc, argv) — common flag parsing. `--json <path>` makes
//    every print_table() call also append its series to a machine-readable
//    JSON file (rewritten after each table, so a killed bench still leaves
//    a valid dump), so any bench can feed trajectory tracking.
//    `--threads <n>` (or ECOSCALE_BENCH_THREADS) sizes the sweep pool; 1
//    forces a fully sequential run.
//  * bench::parallel_sweep(count, fn) — a simple thread pool over sweep
//    points. Each point must own its own deterministic state (Simulator,
//    Rng, PgasSystem, ...), so points are independent and the sweep output
//    is byte-identical to a sequential run: results come back in
//    submission order regardless of completion order.
#pragma once

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cmath>
#include <cstddef>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <fstream>
#include <iostream>
#include <mutex>
#include <sstream>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/check.h"
#include "common/table.h"
#include "obs/trace.h"

namespace ecoscale::bench {

struct Options {
  std::string json_path;         // empty: no JSON dump
  std::size_t threads = 0;       // 0: pick from env / hardware
  std::string trace_path;        // empty: tracing off
  std::string trace_categories;  // empty/"all": every category
  double offered_load = 0.0;     // serve benches; 0: bench default sweep
  double zipf = -1.0;            // serve key skew; negative: bench default
};

inline Options& options() {
  static Options opts;
  return opts;
}

// --- JSON series dump -------------------------------------------------------

namespace detail {

inline std::string json_escape(const std::string& s) {
  std::string out;
  out.reserve(s.size() + 8);
  for (const char c : s) {
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      default:
        if (static_cast<unsigned char>(c) < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof buf, "\\u%04x", c);
          out += buf;
        } else {
          out += c;
        }
    }
  }
  return out;
}

/// Tables recorded for the --json dump, flushed once at process exit.
class JsonSink {
 public:
  static JsonSink& instance() {
    static JsonSink sink;
    return sink;
  }

  void record(const Table& table, const std::string& caption) {
    std::ostringstream os;
    os << "    {\n      \"caption\": \"" << json_escape(caption)
       << "\",\n      \"headers\": [";
    for (std::size_t c = 0; c < table.headers().size(); ++c) {
      os << (c ? ", " : "") << '"' << json_escape(table.headers()[c]) << '"';
    }
    os << "],\n      \"rows\": [\n";
    for (std::size_t r = 0; r < table.rows().size(); ++r) {
      os << "        [";
      const auto& row = table.rows()[r];
      for (std::size_t c = 0; c < row.size(); ++c) {
        os << (c ? ", " : "") << '"' << json_escape(row[c]) << '"';
      }
      os << (r + 1 < table.rows().size() ? "],\n" : "]\n");
    }
    os << "      ]\n    }";
    std::lock_guard<std::mutex> lock(mu_);
    tables_.push_back(os.str());
  }

  void flush(const std::string& path) {
    std::lock_guard<std::mutex> lock(mu_);
    std::ofstream out(path);
    if (!out) {
      std::cerr << "bench: cannot write JSON to " << path << "\n";
      return;
    }
    out << "{\n  \"tables\": [\n";
    for (std::size_t i = 0; i < tables_.size(); ++i) {
      out << tables_[i] << (i + 1 < tables_.size() ? ",\n" : "\n");
    }
    out << "  ]\n}\n";
  }

 private:
  std::mutex mu_;
  std::vector<std::string> tables_;
};

}  // namespace detail

namespace detail {

/// atexit hook for --trace: stop the session, write the Chrome JSON, and
/// print the span summary. Safe at exit because TraceSession (and the
/// CounterRegistry it reads names from) are leaked singletons, unlike the
/// JsonSink above which must flush eagerly.
inline void flush_trace_at_exit() {
  auto& session = obs::TraceSession::instance();
  if (!session.active()) return;
  session.stop();
  session.export_file();
  std::cout << session.summary();
  std::cout << "trace: wrote " << session.options().path << "\n";
}

}  // namespace detail

/// Parse one non-negative floating-point flag value. Returns true and
/// stores into `out` on success; on a malformed or negative value it
/// warns on stderr, leaves `out` untouched and returns false — the
/// bench keeps its default instead of silently sweeping garbage.
inline bool parse_load_flag(const char* flag, const char* text, double& out) {
  errno = 0;
  char* end = nullptr;
  const double v = std::strtod(text, &end);
  if (end == text || *end != '\0' || errno != 0 || !std::isfinite(v) ||
      v < 0.0) {
    std::cerr << "bench: malformed " << flag << " \"" << text
              << "\" (want a non-negative number); keeping default\n";
    return false;
  }
  out = v;
  return true;
}

/// Parse common bench flags. Unknown flags are ignored so individual
/// benches can layer their own parsing on top. `--trace <file>` records a
/// Chrome trace of the whole run (filtered by `--trace-categories a,b,c`)
/// and writes it at exit. `--offered-load <req/s>` and `--zipf <skew>`
/// pin the serve benches' sweep to a single operating point.
inline void init(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--json" && i + 1 < argc) {
      options().json_path = argv[++i];
    } else if (arg == "--threads" && i + 1 < argc) {
      options().threads =
          static_cast<std::size_t>(std::strtoul(argv[++i], nullptr, 10));
    } else if (arg == "--trace" && i + 1 < argc) {
      options().trace_path = argv[++i];
    } else if (arg == "--trace-categories" && i + 1 < argc) {
      options().trace_categories = argv[++i];
    } else if (arg == "--offered-load" && i + 1 < argc) {
      parse_load_flag("--offered-load", argv[++i], options().offered_load);
    } else if (arg == "--zipf" && i + 1 < argc) {
      parse_load_flag("--zipf", argv[++i], options().zipf);
    }
  }
  if (!options().trace_path.empty()) {
    obs::TraceOptions topts;
    topts.path = options().trace_path;
    topts.categories = obs::cat_mask_from_list(options().trace_categories);
    obs::TraceSession::instance().start(topts);
    std::atexit(detail::flush_trace_at_exit);
  }
}

inline void print_header(const std::string& exp_id,
                         const std::string& claim) {
  std::cout << "\n=== " << exp_id << " — " << claim << " ===\n\n";
}

inline void print_table(const Table& table, const std::string& caption = "") {
  if (!caption.empty()) std::cout << caption << "\n";
  table.print(std::cout);
  std::cout << "\n";
  if (!options().json_path.empty()) {
    // Record and rewrite the dump immediately: benches are long-running
    // and may be killed mid-run, and an atexit flush would race static
    // destruction of the sink itself.
    detail::JsonSink::instance().record(table, caption);
    detail::JsonSink::instance().flush(options().json_path);
  }
}

// --- parallel sweep runner --------------------------------------------------

/// Worker count for parallel_sweep: --threads flag, else
/// ECOSCALE_BENCH_THREADS, else the hardware concurrency.
inline std::size_t sweep_threads() {
  if (options().threads > 0) return options().threads;
  if (const char* env = std::getenv("ECOSCALE_BENCH_THREADS")) {
    const auto n = std::strtoul(env, nullptr, 10);
    if (n > 0) return static_cast<std::size_t>(n);
  }
  const unsigned hw = std::thread::hardware_concurrency();
  return hw > 0 ? hw : 1;
}

/// Run `fn(0) .. fn(count - 1)` on a pool of sweep_threads() threads and
/// return the results indexed by sweep point (submission order, independent
/// of completion order). Each sweep point must be self-contained — it owns
/// its own Simulator/Rng/machine — which is what makes the parallel run
/// deterministic and byte-identical to `--threads 1`. The first exception
/// thrown by any point (in submission order) is rethrown to the caller.
template <typename Fn>
auto parallel_sweep(std::size_t count, Fn&& fn)
    -> std::vector<std::invoke_result_t<Fn&, std::size_t>> {
  using Result = std::invoke_result_t<Fn&, std::size_t>;
  static_assert(!std::is_void_v<Result>,
                "sweep points must return their result");
  std::vector<Result> results(count);
  if (count == 0) return results;
  std::vector<std::exception_ptr> errors(count);
  const std::size_t threads = std::min(count, sweep_threads());
  if (threads <= 1) {
    for (std::size_t i = 0; i < count; ++i) results[i] = fn(i);
    return results;
  }
  std::atomic<std::size_t> next{0};
  auto work = [&] {
    for (;;) {
      const std::size_t i = next.fetch_add(1, std::memory_order_relaxed);
      if (i >= count) return;
      try {
        results[i] = fn(i);
      } catch (...) {
        errors[i] = std::current_exception();
      }
    }
  };
  std::vector<std::thread> pool;
  pool.reserve(threads);
  for (std::size_t t = 0; t < threads; ++t) pool.emplace_back(work);
  for (auto& t : pool) t.join();
  for (auto& e : errors) {
    if (e) std::rethrow_exception(e);
  }
  return results;
}

}  // namespace ecoscale::bench
