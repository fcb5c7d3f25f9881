// Online runtime-verification watchdog: tails a QXDM-format trace source
// through the rtv gateway and prints an alert the moment one of the paper's
// S1-S6 finding signatures (or an overload event) completes — live
// monitoring, instead of the post-hoc analysis `diagnose` does.
//
//   ./watchdog trace.log                 # verify a capture file
//   ./golden_traces && ./watchdog golden_traces/s1_context_loss_opi.log
//   some_producer | ./watchdog -         # follow a byte stream on stdin
//
// Flags:
//   --chunk N           feed size in bytes (default 65536, at most 64 MiB);
//                       the alert log is byte-identical at any chunking,
//                       including --chunk 1
//   --alert-log FILE    also write the alert log to FILE
//   --metrics-json FILE write the final obs registry snapshot to FILE
//   --snapshot-every N  refresh --metrics-json every N records while running
//                       (requires --metrics-json)
//   --quiet             suppress live per-alert lines (final report only)
//
// Parsing and monitoring run on the reading thread, so each alert prints as
// soon as the read that completed it is fed.
//
// A source that cannot be opened or read (a directory, an I/O error) prints
// the error on stderr and exits 1, as does an --alert-log or --metrics-json
// file that cannot be written ("failed to write FILE").
//
// SIGINT/SIGTERM drain gracefully — also in `-` (stdin-follow) mode, where
// the watchdog may sit forever in a blocked read: the feed loop polls, so a
// signal is noticed within one poll tick even if no bytes ever arrive. On
// drain the gateway finishes, the final report is printed and the alert
// log / metrics snapshot are flushed, then the exit status is 75.
#include <fcntl.h>
#include <poll.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "obs/export.h"
#include "rtv/gateway.h"
#include "util/args.h"

using namespace cnv;

namespace {

constexpr char kUsage[] =
    "usage: watchdog [trace.log|-] [--chunk N] [--alert-log FILE]\n"
    "                [--metrics-json FILE] [--snapshot-every N] [--quiet]";

// The largest --chunk: the read buffer is allocated up front.
constexpr std::int64_t kMaxChunk = std::int64_t{64} << 20;

// Exit status after a signal drain, distinct from both success and failure
// (sysexits' EX_TEMPFAIL).
constexpr int kInterruptedExitCode = 75;

// Set by SIGINT/SIGTERM; the handler only stores to a lock-free atomic, so
// it is async-signal-safe.
std::atomic<bool> g_drain{false};

void DrainHandler(int /*signum*/) {
  g_drain.store(true, std::memory_order_relaxed);
}

// Arms (or, with `armed` false, disarms) the SIGINT/SIGTERM drain.
void InstallSignalDrain(bool armed) {
  const auto handler = armed ? DrainHandler : SIG_DFL;
  std::signal(SIGINT, handler);
  std::signal(SIGTERM, handler);
}

}  // namespace

int main(int argc, char** argv) {
  args::ArgParser parser(argc, argv, kUsage);
  std::int64_t chunk = 64 * 1024;
  parser.I64Value("--chunk", &chunk, 1);
  if (chunk > kMaxChunk) {
    parser.Fail("--chunk: must be <= " + std::to_string(kMaxChunk));
  }
  std::int64_t snapshot_every = 0;
  parser.I64Value("--snapshot-every", &snapshot_every, 1);
  std::string alert_log_path;
  parser.StrValue("--alert-log", &alert_log_path);
  std::string metrics_path;
  parser.StrValue("--metrics-json", &metrics_path);
  const bool quiet = parser.Flag("--quiet");
  const auto positional = parser.Finish(1);
  const std::string source = positional.empty() ? "-" : positional[0];

  rtv::GatewayConfig config;
  if (snapshot_every > 0) {
    if (metrics_path.empty()) {
      parser.Fail("--snapshot-every requires --metrics-json");
    }
    config.snapshot_every = static_cast<std::size_t>(snapshot_every);
    config.snapshot_path = metrics_path;
  }

  rtv::Gateway gateway(config);
  if (!quiet) {
    gateway.set_alert_callback([](const rtv::Alert& a) {
      std::printf("%s\n", rtv::FormatAlert(a).c_str());
      std::fflush(stdout);
    });
  }

  int fd = STDIN_FILENO;
  if (source != "-") {
    fd = open(source.c_str(), O_RDONLY);
    if (fd < 0) {
      std::fprintf(stderr, "watchdog: cannot open '%s'\n", source.c_str());
      return 1;
    }
  }

  // Graceful drain, covering the stdin-follow mode where the producer may
  // never send another byte: the loop polls with a short timeout and
  // re-checks the drain flag every tick, so a SIGTERM cannot be lost to a
  // blocked (or restarted) read.
  InstallSignalDrain(true);

  bool interrupted = false;
  int read_errno = 0;
  std::vector<char> buf(static_cast<std::size_t>(chunk));
  for (;;) {
    if (g_drain.load(std::memory_order_relaxed)) {
      interrupted = true;
      break;
    }
    pollfd pfd{fd, POLLIN, 0};
    const int rc = ::poll(&pfd, 1, 200);
    if (rc < 0) {
      if (errno == EINTR) continue;  // drain flag checked at loop top
      read_errno = errno;
      break;
    }
    if (rc == 0) continue;  // tick: nothing to read, re-check the flag
    const ssize_t n = ::read(fd, buf.data(), buf.size());
    if (n < 0) {
      if (errno == EINTR) continue;
      read_errno = errno;
      break;
    }
    if (n == 0) break;  // EOF
    gateway.Feed(0, std::string_view(buf.data(), static_cast<std::size_t>(n)));
  }
  if (fd != STDIN_FILENO) close(fd);
  gateway.Finish();
  InstallSignalDrain(false);
  if (read_errno != 0) {
    std::fprintf(stderr, "watchdog: cannot read '%s': %s\n", source.c_str(),
                 std::strerror(read_errno));
    return 1;
  }

  const auto stats = gateway.stats();
  std::printf(
      "---\n"
      "%llu bytes, %llu lines, %llu records (%llu skipped, %llu overlong)\n"
      "%zu alert(s)\n",
      static_cast<unsigned long long>(stats.bytes_in),
      static_cast<unsigned long long>(stats.lines_in),
      static_cast<unsigned long long>(stats.records_in),
      static_cast<unsigned long long>(stats.lines_skipped),
      static_cast<unsigned long long>(stats.lines_overlong),
      static_cast<std::size_t>(stats.alerts));
  for (const auto& a : gateway.alerts()) {
    std::printf("  %s\n", rtv::FormatAlert(a).c_str());
  }

  if (!alert_log_path.empty()) {
    if (!obs::WriteFile(alert_log_path, gateway.AlertLog())) {
      std::fprintf(stderr, "failed to write %s\n", alert_log_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "alert log written to %s\n", alert_log_path.c_str());
  }
  if (!metrics_path.empty()) {
    if (!obs::WriteFile(metrics_path, gateway.registry().ToJson(
                                          gateway.last_record_time()))) {
      std::fprintf(stderr, "failed to write %s\n", metrics_path.c_str());
      return 1;
    }
    std::fprintf(stderr, "metrics written to %s\n", metrics_path.c_str());
  }
  if (interrupted) {
    std::fprintf(stderr, "watchdog: drained on signal\n");
    return kInterruptedExitCode;
  }
  return 0;
}
