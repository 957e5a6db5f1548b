#ifndef GDLOG_SERVER_HTTP_H_
#define GDLOG_SERVER_HTTP_H_

#include <atomic>
#include <functional>
#include <memory>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "util/socket.h"
#include "util/status.h"

namespace gdlog {

/// One parsed HTTP/1.1 request. Targets are matched verbatim (the service
/// layer defines no query strings); bodies are length-delimited
/// (Transfer-Encoding is answered with 501).
struct HttpRequest {
  std::string method;  ///< "GET", "POST", ... (verbatim, case-sensitive).
  std::string target;  ///< e.g. "/query".
  std::string body;
  std::vector<std::pair<std::string, std::string>> headers;

  /// First header with the given name (case-insensitive), or nullptr.
  const std::string* FindHeader(std::string_view name) const;
};

/// What a handler returns. The server adds framing headers (Content-Length,
/// Connection) itself.
struct HttpResponse {
  int status = 200;
  std::string content_type = "application/json";
  std::string body;
  /// Extra response headers, written verbatim after the framing headers
  /// (e.g. X-Gdlog-Trace, the request's trace id, on every response).
  std::vector<std::pair<std::string, std::string>> headers;
  /// Force-close the connection after this response.
  bool close = false;

  /// One streamed chunk sink: each call frames one chunk on the wire.
  using ChunkSink = std::function<Status(std::string_view chunk)>;
  /// When set, the response body streams instead of being taken from
  /// `body` (which is ignored): the server writes the head with
  /// `Transfer-Encoding: chunked`, then runs this producer, framing every
  /// emitted chunk as it is produced. A producer error — or a failed sink
  /// write — aborts the connection WITHOUT the terminal chunk, so the
  /// peer always sees a truncated stream rather than a complete-looking
  /// response. Streaming responses assume an HTTP/1.1 peer (ours are).
  std::function<Status(const ChunkSink& emit)> stream;

  /// Runs `stream` to completion into `body` and clears it — for
  /// in-process callers that bypass the socket layer. No-op when the
  /// response is not streamed; on producer error the response is the
  /// truncation the wire peer would have seen, i.e. unusable.
  Status Drain();

  /// First extra header with the given name (case-insensitive), or
  /// nullptr. (Client side: Request() collects response headers here.)
  const std::string* FindHeader(std::string_view name) const;
};

using HttpHandler = std::function<HttpResponse(const HttpRequest&)>;

/// The canonical reason phrase for a status code ("OK", "Not Found", ...).
std::string_view HttpStatusReason(int status);

/// The one error-body shape every layer emits —
/// {"error":{"code":...,"message":...}} plus a trailing newline — so
/// protocol-level rejections (server framing) and service-level ones
/// parse identically on the client.
std::string HttpErrorBody(std::string_view code, std::string_view message);

struct HttpServerOptions {
  std::string host = "127.0.0.1";
  /// 0 = kernel-assigned (query the bound port via HttpServer::port()).
  int port = 0;
  /// Connection-serving workers on the util/thread_pool; one worker serves
  /// one connection at a time, so this is also the concurrent-connection
  /// capacity. 0 = max(4, hardware threads).
  size_t workers = 0;
  /// Request line + headers larger than this are answered with 431.
  size_t max_header_bytes = 64 * 1024;
  /// Bodies larger than this are answered with 413 (untrusted input).
  size_t max_body_bytes = 32ull * 1024 * 1024;
  /// How long a keep-alive connection may sit idle between requests.
  int idle_timeout_ms = 30'000;
  /// Per-poll bound on mid-request reads and on writes.
  int io_timeout_ms = 30'000;
};

/// A minimal HTTP/1.1 server over util/socket: keep-alive, length-framed
/// bodies, request-size limits, and graceful drain. Connections are served
/// on the work-stealing thread pool; Serve() runs the accept loop on the
/// calling thread until Shutdown() — which is async-signal-safe, so a
/// SIGTERM handler can call it directly — then stops accepting, lets
/// in-flight requests finish, closes every idle connection, and returns.
class HttpServer {
 public:
  /// Binds the listening socket (so port() is valid immediately) and
  /// spawns the worker pool. The handler runs on pool workers and must be
  /// thread-safe; it must not throw.
  static Result<HttpServer> Create(HttpServerOptions options,
                                   HttpHandler handler);

  HttpServer(HttpServer&&) noexcept;
  HttpServer& operator=(HttpServer&&) noexcept;
  /// The server must not be destroyed while Serve() is running; call
  /// Shutdown() and join the serving thread first.
  ~HttpServer();

  /// The bound port.
  int port() const;

  /// Accept loop: blocks until Shutdown(), then drains and returns. Only
  /// fatal listener errors produce a non-OK Status.
  Status Serve();

  /// Requests shutdown: stop accepting, finish in-flight requests, wake
  /// idle keep-alive connections. Async-signal-safe (an atomic store and a
  /// pipe write); callable from any thread, idempotent.
  void Shutdown();

 private:
  struct Impl;
  explicit HttpServer(std::unique_ptr<Impl> impl);
  std::unique_ptr<Impl> impl_;
};

/// A tiny blocking HTTP/1.1 client over one keep-alive connection — enough
/// for the load generator (tools/gdlog_load), the fleet coordinator, and
/// the server tests. Reads length-framed and chunked responses; requests
/// are always length-framed.
class HttpClient {
 public:
  static Result<HttpClient> Connect(const std::string& host, int port,
                                    int timeout_ms = 10'000);

  HttpClient(HttpClient&&) noexcept = default;
  HttpClient& operator=(HttpClient&&) noexcept = default;

  /// Extra request headers ({name, value} pairs, written verbatim) — how a
  /// coordinator forwards X-Gdlog-Trace to its workers.
  using HeaderList = std::vector<std::pair<std::string, std::string>>;

  /// Sends one request and reads the response. `status` comes back in
  /// HttpResponse::status, the payload in body. After a response carrying
  /// "Connection: close" the client is dead; reconnect to continue.
  Result<HttpResponse> Request(std::string_view method,
                               std::string_view target,
                               std::string_view body = {},
                               std::string_view content_type =
                                   "application/json",
                               const HeaderList& extra_headers = {});

  /// Like Request(), but bounds the *whole* exchange by `deadline_ms`:
  /// every socket wait gets only the remaining budget, so a trickling
  /// straggler cannot stretch the request past the deadline byte by byte.
  /// Expiry surfaces as kBudgetExhausted — the same code the engine's
  /// timeout-kill machinery uses — so callers retry uniformly.
  Result<HttpResponse> RequestWithDeadline(std::string_view method,
                                           std::string_view target,
                                           std::string_view body,
                                           int deadline_ms,
                                           const HeaderList& extra_headers =
                                               {});

  /// Receives one newline-terminated body line, newline stripped, while
  /// the exchange is still in flight. A non-OK return aborts the exchange
  /// (the connection is dead afterwards).
  using LineSink = std::function<Status(std::string_view line)>;

  /// Like RequestWithDeadline(), but delivers a 200 response's body
  /// incrementally: `on_line` fires once per line as bytes arrive, for
  /// both chunked and length-framed bodies, and the returned response has
  /// an empty `body`. Non-200 responses are buffered whole instead (the
  /// error envelope stays intact) and `on_line` never fires. A chunked
  /// stream the server abandons before the terminal chunk surfaces as
  /// kBudgetExhausted — the same retryable code a deadline expiry uses —
  /// never as a successfully completed response. A non-null `cancel` is
  /// polled between read slices (≤ 100 ms); once set, the exchange aborts
  /// with kBudgetExhausted("exchange canceled"). Requires a positive
  /// deadline.
  Result<HttpResponse> RequestStreamingLines(
      std::string_view method, std::string_view target, std::string_view body,
      int deadline_ms, const HeaderList& extra_headers,
      const LineSink& on_line, const std::atomic<bool>* cancel = nullptr);

 private:
  HttpClient(Connection conn, int timeout_ms)
      : conn_(std::move(conn)), timeout_ms_(timeout_ms) {}

  Result<HttpResponse> RequestInternal(std::string_view method,
                                       std::string_view target,
                                       std::string_view body,
                                       std::string_view content_type,
                                       int deadline_ms,
                                       const HeaderList& extra_headers,
                                       const LineSink* on_line = nullptr,
                                       const std::atomic<bool>* cancel =
                                           nullptr);

  Connection conn_;
  int timeout_ms_;
  std::string buf_;  ///< carry-over bytes between pipelined responses
  bool closed_ = false;
};

}  // namespace gdlog

#endif  // GDLOG_SERVER_HTTP_H_
