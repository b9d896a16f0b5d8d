// Copyright 2026 The WWT Authors
//
// wwt_shardd: one shard-serving worker process for distributed serving
// (docs/DISTRIBUTED.md). Loads a corpus artifact — a single-shard
// `.wwtsnap` in the common deployment, or a `.wwtset` to serve every
// shard from one process — and answers per-shard top-k probes from a
// wwt_serve router over the framed RPC in src/net. The worker computes
// the same scores over the same snapshot bytes as the in-process
// engine, so routed answers stay byte-identical.
//
// Usage:
//   wwt_shardd --snapshot PATH [--listen ADDR] [--quiet]
//              [--chaos-delay-ms D]
//
// --listen takes "host:port" (port 0 = kernel-assigned) or
// "unix:/path"; the resolved endpoint is announced on stdout as
//
//   listening on ADDR
//
// (flushed, machine-parseable — scripts read this line to wire the
// router). --chaos-delay-ms stalls every probe by D ms before
// answering: the fault-injection knob the chaos tests use to exercise
// hedging and deadline propagation. SIGINT/SIGTERM stop the worker
// gracefully (drain, join, stats on stderr).
//
// Error contract: load or bind failures exit non-zero with a one-line
// "wwt_shardd: ..." diagnostic; malformed requests never crash the
// worker (they are clean error replies or closed connections).

#include <signal.h>

#include <cstdio>
#include <memory>
#include <string>

#include "index/corpus_set.h"
#include "net/shard_server.h"
#include "util/string_util.h"
#include "util/timer.h"

namespace {

int Usage(const char* argv0) {
  std::fprintf(stderr,
               "usage: %s --snapshot PATH [--listen ADDR] [--quiet]\n"
               "          [--chaos-delay-ms D]\n",
               argv0);
  return 2;
}

int Fail(const std::string& message) {
  std::fprintf(stderr, "wwt_shardd: %s\n", message.c_str());
  return 1;
}

}  // namespace

int main(int argc, char** argv) {
  std::string snapshot_path;
  std::string listen = "127.0.0.1:0";
  double chaos_delay_ms = 0;
  bool quiet = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* {
      return i + 1 < argc ? argv[++i] : nullptr;
    };
    if (arg == "--snapshot") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      snapshot_path = v;
    } else if (arg == "--listen") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      listen = v;
    } else if (arg == "--chaos-delay-ms") {
      const char* v = next();
      if (v == nullptr) return Usage(argv[0]);
      // Read whole and range-checked; the cap keeps the delay a valid
      // clock duration.
      if (!wwt::ParseDouble(v, 0, 1e9, &chaos_delay_ms)) {
        return Fail(std::string("--chaos-delay-ms wants a non-negative "
                                "number of milliseconds, got '") +
                    v + "'");
      }
    } else if (arg == "--quiet") {
      quiet = true;
    } else {
      return Usage(argv[0]);
    }
  }
  if (snapshot_path.empty()) return Usage(argv[0]);

  // Block the shutdown signals before any thread spawns, so every
  // server thread inherits the mask and sigwait below is the one
  // delivery point.
  sigset_t shutdown_signals;
  sigemptyset(&shutdown_signals);
  sigaddset(&shutdown_signals, SIGINT);
  sigaddset(&shutdown_signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &shutdown_signals, nullptr);

  wwt::WallTimer load_timer;
  wwt::StatusOr<wwt::OpenCorpusResult> opened =
      wwt::OpenCorpus(snapshot_path);
  if (!opened.ok()) return Fail(opened.status().ToString());

  wwt::net::ShardServerOptions options;
  options.listen = listen;
  options.chaos_probe_delay_s = chaos_delay_ms / 1e3;
  wwt::StatusOr<std::unique_ptr<wwt::net::ShardServer>> server =
      wwt::net::ShardServer::Start(opened->corpus, options);
  if (!server.ok()) return Fail(server.status().ToString());

  if (!quiet) {
    std::fprintf(
        stderr,
        "wwt_shardd: serving %zu shard(s), %llu tables (hash %016llx) "
        "from %s, loaded in %.3f s%s\n",
        opened->corpus->num_shards(),
        static_cast<unsigned long long>(opened->corpus->num_tables()),
        static_cast<unsigned long long>(opened->corpus->content_hash()),
        snapshot_path.c_str(), load_timer.ElapsedSeconds(),
        chaos_delay_ms > 0 ? " [CHAOS: probe delay injected]" : "");
  }
  // The wiring line scripts parse; everything else goes to stderr.
  std::printf("listening on %s\n", (*server)->address().c_str());
  std::fflush(stdout);

  int signal_number = 0;
  sigwait(&shutdown_signals, &signal_number);
  (*server)->Stop();
  const wwt::net::ShardServer::Stats stats = (*server)->GetStats();
  if (!quiet) {
    std::fprintf(stderr,
                 "wwt_shardd: stopped on signal %d after %llu probes over "
                 "%llu connections (%llu errors)\n",
                 signal_number,
                 static_cast<unsigned long long>(stats.probes),
                 static_cast<unsigned long long>(stats.connections),
                 static_cast<unsigned long long>(stats.errors));
  }
  return 0;
}
