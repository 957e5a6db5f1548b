// gdlogd: the long-lived inference daemon. Clients register a program+DB
// once (POST /programs) and query it by id; exact results are served
// through a fingerprint-keyed outcome-space cache, so repeated identical
// queries cost a hash lookup instead of a chase.
//
//   gdlogd [--host H] [--port P] [options]
//
// Options:
//   --host H              bind address                (default 127.0.0.1)
//   --port P              listen port; 0 = kernel-assigned (default 8080)
//   --http-threads N      connection workers — also the concurrent-
//                         connection capacity (default max(4, hw threads))
//   --chase-threads N     default chase workers per query; requests may
//                         override via options.num_threads (default 1:
//                         the server parallelizes across requests)
//   --cache-mb N          InferenceCache bound in MiB     (default 256)
//   --max-body-mb N       request-body cap in MiB         (default 32)
//   --idle-timeout-ms N   keep-alive idle timeout         (default 30000)
//   --max-samples N       per-request /sample cap         (default 10^7)
//   --fleet-workers LIST  comma-separated "host:port" worker addresses;
//                         becomes the default worker set for /v1/jobs,
//                         turning this daemon into a fleet coordinator
//   --fleet-deadline-ms N per-exchange worker deadline    (default 60000)
//   --fleet-steal-after-ms N  age an in-flight exchange must reach before
//                         an idle worker steals its undelivered shards
//                         (default 250)
//   --fleet-partial-cache-mb N  worker-side partial cache bound in MiB;
//                         0 disables it                   (default 64)
//   --version             print the build version (git describe) and exit
//
// Numeric values are plain decimal counts (ports at most 65535); anything
// else — a sign, trailing characters, overflow — exits 2 before any socket
// is opened.
//
// Every request is access-logged to stderr as
//   gdlogd: METHOD TARGET status=N trace=ID
// where ID is the request's X-Gdlog-Trace id (caller-supplied or minted);
// a coordinator forwards its id to workers, so grepping one id across the
// fleet's logs reconstructs a whole distributed job.
//
// Endpoints (all under /v1/; an unversioned path is a 404): POST
// /v1/programs, GET|DELETE /v1/programs/<id>, PUT|PATCH
// /v1/programs/<id>/db, POST /v1/query, POST /v1/sample, POST /v1/shards,
// POST /v1/jobs, GET /v1/healthz, GET /v1/stats (see src/server/service.h
// and docs/API.md). Every gdlogd serves /v1/shards, so any instance can be
// a fleet worker; --fleet-workers only seeds the coordinator's default
// worker list. SIGTERM/SIGINT drain gracefully: in-flight requests
// finish, then the process exits 0.
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "flags.h"
#include "obs/trace.h"
#include "obs/version.h"
#include "server/http.h"
#include "server/service.h"

namespace {

gdlog::HttpServer* g_server = nullptr;

void HandleSignal(int /*sig*/) {
  // Shutdown() is async-signal-safe: an atomic store plus a pipe write.
  if (g_server != nullptr) g_server->Shutdown();
}

[[noreturn]] void Usage(const char* argv0, const char* error = nullptr) {
  if (error != nullptr) std::fprintf(stderr, "error: %s\n\n", error);
  std::fprintf(stderr,
               "usage: %s [--host H] [--port P] [--http-threads N]\n"
               "          [--chase-threads N] [--cache-mb N]\n"
               "          [--max-body-mb N] [--idle-timeout-ms N]\n"
               "          [--max-samples N] [--fleet-workers H:P,H:P,...]\n"
               "          [--fleet-deadline-ms N] [--fleet-steal-after-ms N]\n"
               "          [--fleet-partial-cache-mb N] [--version]\n",
               argv0);
  std::exit(2);
}

// Splits a comma-separated worker list, dropping empty segments (so a
// trailing comma is harmless).
std::vector<std::string> SplitWorkers(const char* list) {
  std::vector<std::string> workers;
  std::string current;
  for (const char* p = list;; ++p) {
    if (*p == ',' || *p == '\0') {
      if (!current.empty()) workers.push_back(current);
      current.clear();
      if (*p == '\0') break;
    } else {
      current.push_back(*p);
    }
  }
  return workers;
}

}  // namespace

int main(int argc, char** argv) {
  gdlog::HttpServerOptions http_options;
  http_options.port = 8080;
  gdlog::InferenceService::Options service_options;
  service_options.default_chase.num_threads = 1;

  const gdlog_tools::FlagReader flags(argc, argv, Usage);
  for (int i = 1; i < argc; ++i) {
    const char* arg = argv[i];
    if (!std::strcmp(arg, "--host")) {
      http_options.host = flags.Value(i);
    } else if (!std::strcmp(arg, "--port")) {
      http_options.port = flags.Port(i);
    } else if (!std::strcmp(arg, "--http-threads")) {
      http_options.workers = flags.Count(i);
    } else if (!std::strcmp(arg, "--chase-threads")) {
      service_options.default_chase.num_threads = flags.Count(i);
    } else if (!std::strcmp(arg, "--cache-mb")) {
      service_options.cache_bytes = flags.MiB(i);
    } else if (!std::strcmp(arg, "--max-body-mb")) {
      http_options.max_body_bytes = flags.MiB(i);
    } else if (!std::strcmp(arg, "--idle-timeout-ms")) {
      http_options.idle_timeout_ms = flags.Int(i);
    } else if (!std::strcmp(arg, "--max-samples")) {
      service_options.max_samples = flags.Count(i);
    } else if (!std::strcmp(arg, "--fleet-workers")) {
      service_options.fleet_workers = SplitWorkers(flags.Value(i));
    } else if (!std::strcmp(arg, "--fleet-deadline-ms")) {
      service_options.fleet_deadline_ms = flags.Int(i);
    } else if (!std::strcmp(arg, "--fleet-steal-after-ms")) {
      service_options.fleet_steal_after_ms = flags.Int(i);
    } else if (!std::strcmp(arg, "--fleet-partial-cache-mb")) {
      service_options.fleet_partial_cache_bytes = flags.MiB(i);
    } else if (!std::strcmp(arg, "--version")) {
      // The same string /v1/healthz reports as "version".
      std::printf("gdlogd %s\n", gdlog::GdlogVersion());
      return 0;
    } else if (!std::strcmp(arg, "--help") || !std::strcmp(arg, "-h")) {
      Usage(argv[0]);
    } else {
      Usage(argv[0], (std::string("unknown flag: ") + arg).c_str());
    }
  }

  gdlog::InferenceService service(service_options);
  auto server = gdlog::HttpServer::Create(
      http_options,
      [&service](const gdlog::HttpRequest& request) {
        gdlog::HttpResponse response = service.Handle(request);
        const std::string* trace = response.FindHeader(gdlog::kTraceHeader);
        std::fprintf(stderr, "gdlogd: %s %s status=%d trace=%s\n",
                     request.method.c_str(), request.target.c_str(),
                     response.status,
                     trace != nullptr ? trace->c_str() : "-");
        return response;
      });
  if (!server.ok()) {
    std::fprintf(stderr, "error: %s\n", server.status().ToString().c_str());
    return 1;
  }

  g_server = &*server;
  std::signal(SIGTERM, HandleSignal);
  std::signal(SIGINT, HandleSignal);

  std::printf("gdlogd listening on http://%s:%d\n",
              http_options.host.c_str(), server->port());
  std::fflush(stdout);

  gdlog::Status status = server->Serve();
  g_server = nullptr;
  if (!status.ok()) {
    std::fprintf(stderr, "serve error: %s\n", status.ToString().c_str());
    return 1;
  }
  std::printf("gdlogd drained and stopped\n");
  return 0;
}
