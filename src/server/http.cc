#include "server/http.h"

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <chrono>
#include <cstdio>

#include "util/json.h"
#include "util/thread_pool.h"

namespace gdlog {

namespace {

bool IEquals(std::string_view a, std::string_view b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (std::tolower(static_cast<unsigned char>(a[i])) !=
        std::tolower(static_cast<unsigned char>(b[i]))) {
      return false;
    }
  }
  return true;
}

std::string_view Trim(std::string_view s) {
  while (!s.empty() && (s.front() == ' ' || s.front() == '\t')) {
    s.remove_prefix(1);
  }
  while (!s.empty() && (s.back() == ' ' || s.back() == '\t')) {
    s.remove_suffix(1);
  }
  return s;
}

/// How long each poll slice lasts while a connection waits for bytes; the
/// slicing is what lets an idle keep-alive connection notice Shutdown()
/// promptly instead of holding its worker until the idle timeout.
constexpr int kReadSliceMs = 100;

}  // namespace

const std::string* HttpRequest::FindHeader(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (IEquals(key, name)) return &value;
  }
  return nullptr;
}

const std::string* HttpResponse::FindHeader(std::string_view name) const {
  for (const auto& [key, value] : headers) {
    if (IEquals(key, name)) return &value;
  }
  return nullptr;
}

Status HttpResponse::Drain() {
  if (!stream) return Status::OK();
  std::string collected;
  Status status = stream([&collected](std::string_view chunk) -> Status {
    collected.append(chunk);
    return Status::OK();
  });
  stream = nullptr;
  GDLOG_RETURN_IF_ERROR(status);
  body = std::move(collected);
  return Status::OK();
}

std::string HttpErrorBody(std::string_view code, std::string_view message) {
  JsonWriter json;
  json.BeginObject();
  json.Key("error").BeginObject();
  json.KV("code", code);
  json.KV("message", message);
  json.EndObject();
  json.EndObject();
  return json.str() + "\n";
}

std::string_view HttpStatusReason(int status) {
  switch (status) {
    case 200: return "OK";
    case 201: return "Created";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 408: return "Request Timeout";
    case 409: return "Conflict";
    case 413: return "Content Too Large";
    case 431: return "Request Header Fields Too Large";
    case 500: return "Internal Server Error";
    case 501: return "Not Implemented";
    case 503: return "Service Unavailable";
    default: return "Status";
  }
}

// ---------------------------------------------------------------------------
// HttpServer
// ---------------------------------------------------------------------------

struct HttpServer::Impl {
  Impl(HttpServerOptions opts, HttpHandler h, ListenSocket l, int rd, int wr)
      : options(std::move(opts)),
        handler(std::move(h)),
        listener(std::move(l)),
        wake_rd(rd),
        wake_wr(wr) {}

  ~Impl() {
    if (wake_rd >= 0) ::close(wake_rd);
    if (wake_wr >= 0) ::close(wake_wr);
  }

  HttpServerOptions options;
  HttpHandler handler;
  ListenSocket listener;
  int wake_rd = -1;
  int wake_wr = -1;
  std::unique_ptr<ThreadPool> pool;
  std::atomic<bool> stop{false};

  enum class ReadEvent { kData, kEof, kTimeout, kStopped, kError };

  /// One sliced read: waits up to `timeout_ms` total, in kReadSliceMs
  /// slices so that — when `interruptible` — a pending Shutdown() cuts the
  /// wait short. `interruptible` is only set while the connection is idle
  /// between requests; mid-request reads run to completion (bounded by the
  /// I/O timeout) so in-flight requests drain gracefully.
  ReadEvent SlicedRead(Connection& conn, std::string* buf, int timeout_ms,
                       bool interruptible) {
    int waited = 0;
    char tmp[16 * 1024];
    for (;;) {
      if (interruptible && stop.load(std::memory_order_relaxed)) {
        return ReadEvent::kStopped;
      }
      int slice = kReadSliceMs;
      if (timeout_ms >= 0) {
        if (waited >= timeout_ms) return ReadEvent::kTimeout;
        slice = std::min(slice, timeout_ms - waited);
      }
      auto n = conn.ReadSome(tmp, sizeof(tmp), slice);
      if (!n.ok()) {
        if (n.status().code() == StatusCode::kBudgetExhausted) {
          waited += slice;
          continue;
        }
        return ReadEvent::kError;
      }
      if (*n == 0) return ReadEvent::kEof;
      buf->append(tmp, *n);
      return ReadEvent::kData;
    }
  }

  struct ReadOutcome {
    enum Kind { kRequest, kClose, kRespondAndClose } kind = kClose;
    HttpResponse error;
  };

  static ReadOutcome RespondAndClose(int status, std::string_view code,
                                     std::string_view message) {
    ReadOutcome out;
    out.kind = ReadOutcome::kRespondAndClose;
    out.error.status = status;
    out.error.body = HttpErrorBody(code, message);
    out.error.close = true;
    return out;
  }

  /// Reads and parses one request; `buf` carries bytes between keep-alive
  /// requests. On kRespondAndClose the framing can no longer be trusted,
  /// so the caller sends the error and drops the connection.
  ReadOutcome ReadRequest(Connection& conn, std::string* buf,
                          HttpRequest* out, bool* keep_alive) {
    size_t header_end;
    for (;;) {
      header_end = buf->find("\r\n\r\n");
      if (header_end != std::string::npos) break;
      if (buf->size() > options.max_header_bytes) {
        return RespondAndClose(431, "HeaderTooLarge",
                               "request header exceeds " +
                                   std::to_string(options.max_header_bytes) +
                                   " bytes");
      }
      bool idle = buf->empty();
      switch (SlicedRead(conn, buf, idle ? options.idle_timeout_ms
                                         : options.io_timeout_ms,
                         /*interruptible=*/idle)) {
        case ReadEvent::kData:
          continue;
        case ReadEvent::kEof:
        case ReadEvent::kStopped:
        case ReadEvent::kError:
          return ReadOutcome{};  // close quietly
        case ReadEvent::kTimeout:
          if (buf->empty()) return ReadOutcome{};  // idle keep-alive expiry
          return RespondAndClose(408, "Timeout", "request timed out");
      }
    }

    // Request line: METHOD SP TARGET SP HTTP/1.x
    std::string_view head(*buf);
    head = head.substr(0, header_end);
    size_t line_end = head.find("\r\n");
    std::string_view request_line =
        line_end == std::string_view::npos ? head : head.substr(0, line_end);
    size_t sp1 = request_line.find(' ');
    size_t sp2 = sp1 == std::string_view::npos
                     ? std::string_view::npos
                     : request_line.find(' ', sp1 + 1);
    if (sp2 == std::string_view::npos) {
      return RespondAndClose(400, "BadRequest", "malformed request line");
    }
    std::string_view version = request_line.substr(sp2 + 1);
    if (version.substr(0, 7) != "HTTP/1.") {
      return RespondAndClose(400, "BadRequest",
                             "unsupported protocol version");
    }
    bool http10 = version == "HTTP/1.0";
    out->method = std::string(request_line.substr(0, sp1));
    out->target = std::string(request_line.substr(sp1 + 1, sp2 - sp1 - 1));
    if (out->method.empty() || out->target.empty() ||
        out->target[0] != '/') {
      return RespondAndClose(400, "BadRequest", "malformed request line");
    }

    // Header fields.
    out->headers.clear();
    size_t pos = line_end == std::string_view::npos ? head.size()
                                                    : line_end + 2;
    while (pos < head.size()) {
      size_t eol = head.find("\r\n", pos);
      if (eol == std::string_view::npos) eol = head.size();
      std::string_view line = head.substr(pos, eol - pos);
      pos = eol + 2;
      size_t colon = line.find(':');
      if (colon == std::string_view::npos || colon == 0) {
        return RespondAndClose(400, "BadRequest", "malformed header field");
      }
      std::string_view name = line.substr(0, colon);
      if (name.find(' ') != std::string_view::npos ||
          name.find('\t') != std::string_view::npos) {
        return RespondAndClose(400, "BadRequest", "malformed header field");
      }
      out->headers.emplace_back(std::string(name),
                                std::string(Trim(line.substr(colon + 1))));
    }

    if (out->FindHeader("transfer-encoding") != nullptr) {
      return RespondAndClose(501, "NotImplemented",
                             "transfer-encoding is not supported");
    }
    // Duplicate Content-Length is the classic request-smuggling vector
    // (an intermediary honoring a different copy than we do desyncs the
    // connection); RFC 9112 §6.3 says reject.
    size_t content_length_headers = 0;
    for (const auto& [name, value] : out->headers) {
      (void)value;
      if (IEquals(name, "content-length")) ++content_length_headers;
    }
    if (content_length_headers > 1) {
      return RespondAndClose(400, "BadRequest",
                             "multiple content-length headers");
    }
    size_t content_length = 0;
    if (const std::string* cl = out->FindHeader("content-length")) {
      if (cl->empty() ||
          cl->find_first_not_of("0123456789") != std::string::npos ||
          cl->size() > 18) {
        return RespondAndClose(400, "BadRequest", "bad content-length");
      }
      content_length = std::stoull(*cl);
    }
    if (content_length > options.max_body_bytes) {
      return RespondAndClose(413, "BodyTooLarge",
                             "request body exceeds " +
                                 std::to_string(options.max_body_bytes) +
                                 " bytes");
    }

    size_t total = header_end + 4 + content_length;
    while (buf->size() < total) {
      switch (SlicedRead(conn, buf, options.io_timeout_ms,
                         /*interruptible=*/false)) {
        case ReadEvent::kData:
          continue;
        case ReadEvent::kEof:
        case ReadEvent::kStopped:
        case ReadEvent::kError:
          return ReadOutcome{};
        case ReadEvent::kTimeout:
          return RespondAndClose(408, "Timeout", "request body timed out");
      }
    }
    out->body = buf->substr(header_end + 4, content_length);
    buf->erase(0, total);

    const std::string* connection = out->FindHeader("connection");
    if (http10) {
      *keep_alive =
          connection != nullptr && IEquals(*connection, "keep-alive");
    } else {
      *keep_alive = connection == nullptr || !IEquals(*connection, "close");
    }
    return ReadOutcome{ReadOutcome::kRequest, HttpResponse{}};
  }

  Status WriteResponse(Connection& conn, const HttpResponse& response,
                       bool keep_alive) {
    std::string head;
    head.reserve(128);
    head += "HTTP/1.1 ";
    head += std::to_string(response.status);
    head += ' ';
    head += HttpStatusReason(response.status);
    head += "\r\nContent-Type: ";
    head += response.content_type;
    head += "\r\nContent-Length: ";
    head += std::to_string(response.body.size());
    for (const auto& [name, value] : response.headers) {
      head += "\r\n";
      head += name;
      head += ": ";
      head += value;
    }
    head += keep_alive ? "\r\nConnection: keep-alive\r\n\r\n"
                       : "\r\nConnection: close\r\n\r\n";
    GDLOG_RETURN_IF_ERROR(conn.WriteAll(head, options.io_timeout_ms));
    return conn.WriteAll(response.body, options.io_timeout_ms);
  }

  /// Streams a chunked response: head, then one wire chunk per producer
  /// emit, then the terminal chunk — which is written ONLY after the
  /// producer completes cleanly. Any producer or write error propagates
  /// without the terminal chunk, so the peer can always distinguish a
  /// truncated stream from a complete one.
  Status WriteStreamedResponse(Connection& conn, const HttpResponse& response,
                               bool keep_alive) {
    std::string head;
    head.reserve(128);
    head += "HTTP/1.1 ";
    head += std::to_string(response.status);
    head += ' ';
    head += HttpStatusReason(response.status);
    head += "\r\nContent-Type: ";
    head += response.content_type;
    head += "\r\nTransfer-Encoding: chunked";
    for (const auto& [name, value] : response.headers) {
      head += "\r\n";
      head += name;
      head += ": ";
      head += value;
    }
    head += keep_alive ? "\r\nConnection: keep-alive\r\n\r\n"
                       : "\r\nConnection: close\r\n\r\n";
    GDLOG_RETURN_IF_ERROR(conn.WriteAll(head, options.io_timeout_ms));
    auto emit = [&](std::string_view chunk) -> Status {
      // An empty chunk would read as the terminal chunk; skip it.
      if (chunk.empty()) return Status::OK();
      char size_line[32];
      int n = std::snprintf(size_line, sizeof(size_line), "%zx\r\n",
                            chunk.size());
      std::string frame;
      frame.reserve(static_cast<size_t>(n) + chunk.size() + 2);
      frame.append(size_line, static_cast<size_t>(n));
      frame.append(chunk);
      frame += "\r\n";
      return conn.WriteAll(frame, options.io_timeout_ms);
    };
    GDLOG_RETURN_IF_ERROR(response.stream(emit));
    return conn.WriteAll("0\r\n\r\n", options.io_timeout_ms);
  }

  void ServeConnection(Connection& conn) {
    std::string buf;
    for (;;) {
      HttpRequest request;
      bool keep_alive = true;
      ReadOutcome outcome = ReadRequest(conn, &buf, &request, &keep_alive);
      if (outcome.kind == ReadOutcome::kClose) return;
      if (outcome.kind == ReadOutcome::kRespondAndClose) {
        WriteResponse(conn, outcome.error, /*keep_alive=*/false);
        return;
      }
      HttpResponse response = handler(request);
      bool close = response.close || !keep_alive ||
                   stop.load(std::memory_order_relaxed);
      Status written =
          response.stream ? WriteStreamedResponse(conn, response, !close)
                          : WriteResponse(conn, response, !close);
      if (!written.ok()) return;
      if (close) return;
    }
  }

  Status Serve() {
    for (;;) {
      if (stop.load(std::memory_order_relaxed)) break;
      auto conn = listener.Accept(wake_rd);
      if (!conn.ok()) return conn.status();
      if (!conn->has_value()) break;  // woken by Shutdown()
      auto shared = std::make_shared<Connection>(std::move(**conn));
      pool->Submit([this, shared](size_t) { ServeConnection(*shared); });
    }
    // Drain: no new connections; in-flight requests finish, idle
    // connections notice the stop flag within one read slice.
    pool->WaitIdle();
    return Status::OK();
  }
};

HttpServer::HttpServer(std::unique_ptr<Impl> impl) : impl_(std::move(impl)) {}
HttpServer::HttpServer(HttpServer&&) noexcept = default;
HttpServer& HttpServer::operator=(HttpServer&&) noexcept = default;
HttpServer::~HttpServer() = default;

Result<HttpServer> HttpServer::Create(HttpServerOptions options,
                                      HttpHandler handler) {
  if (handler == nullptr) {
    return Status::InvalidArgument("null http handler");
  }
  GDLOG_ASSIGN_OR_RETURN(
      ListenSocket listener,
      ListenSocket::BindTcp(options.host, options.port));
  int fds[2];
  if (::pipe(fds) != 0) {
    return Status::Internal("cannot create shutdown pipe");
  }
  size_t workers = options.workers != 0
                       ? options.workers
                       : std::max<size_t>(4, ThreadPool::DefaultWorkerCount());
  auto impl = std::make_unique<Impl>(std::move(options), std::move(handler),
                                     std::move(listener), fds[0], fds[1]);
  impl->pool = std::make_unique<ThreadPool>(workers);
  return HttpServer(std::move(impl));
}

int HttpServer::port() const { return impl_->listener.port(); }

Status HttpServer::Serve() { return impl_->Serve(); }

void HttpServer::Shutdown() {
  impl_->stop.store(true, std::memory_order_relaxed);
  // Wake the accept loop. A failed write only matters if the pipe is
  // already gone, in which case Serve() is no longer running anyway.
  [[maybe_unused]] ssize_t rc = ::write(impl_->wake_wr, "x", 1);
}

// ---------------------------------------------------------------------------
// HttpClient
// ---------------------------------------------------------------------------

Result<HttpClient> HttpClient::Connect(const std::string& host, int port,
                                       int timeout_ms) {
  GDLOG_ASSIGN_OR_RETURN(Connection conn,
                         Connection::ConnectTcp(host, port, timeout_ms));
  return HttpClient(std::move(conn), timeout_ms);
}

Result<HttpResponse> HttpClient::Request(std::string_view method,
                                         std::string_view target,
                                         std::string_view body,
                                         std::string_view content_type,
                                         const HeaderList& extra_headers) {
  return RequestInternal(method, target, body, content_type,
                         /*deadline_ms=*/-1, extra_headers);
}

Result<HttpResponse> HttpClient::RequestStreamingLines(
    std::string_view method, std::string_view target, std::string_view body,
    int deadline_ms, const HeaderList& extra_headers, const LineSink& on_line,
    const std::atomic<bool>* cancel) {
  if (deadline_ms <= 0) {
    return Status::InvalidArgument(
        "streaming requests require a positive deadline");
  }
  return RequestInternal(method, target, body, "application/json",
                         deadline_ms, extra_headers, &on_line, cancel);
}

Result<HttpResponse> HttpClient::RequestInternal(
    std::string_view method, std::string_view target, std::string_view body,
    std::string_view content_type, int deadline_ms,
    const HeaderList& extra_headers, const LineSink* on_line,
    const std::atomic<bool>* cancel) {
  if (closed_) {
    return Status::Internal("connection closed by server; reconnect");
  }
  const auto start = std::chrono::steady_clock::now();
  // The per-wait budget: the fixed per-read timeout, further capped by
  // whatever remains of the whole-request deadline.
  auto wait_budget = [&]() -> Result<int> {
    if (deadline_ms < 0) return timeout_ms_;
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    if (elapsed >= deadline_ms) {
      return Status::BudgetExhausted("request deadline exceeded");
    }
    return static_cast<int>(
        std::min<long long>(timeout_ms_, deadline_ms - elapsed));
  };
  std::string request;
  request.reserve(128 + body.size());
  request += method;
  request += ' ';
  request += target;
  request += " HTTP/1.1\r\nHost: gdlog\r\n";
  for (const auto& [name, value] : extra_headers) {
    request += name;
    request += ": ";
    request += value;
    request += "\r\n";
  }
  if (!body.empty()) {
    request += "Content-Type: ";
    request += content_type;
    request += "\r\n";
  }
  request += "Content-Length: ";
  request += std::to_string(body.size());
  request += "\r\n\r\n";
  request += body;
  {
    GDLOG_ASSIGN_OR_RETURN(int budget, wait_budget());
    GDLOG_RETURN_IF_ERROR(conn_.WriteAll(request, budget));
  }

  char tmp[16 * 1024];
  // One deadline-capped read into buf_. With a cancel flag the wait is
  // sliced (≤ kReadSliceMs) so a pending cancellation aborts promptly
  // instead of holding the thread for the full remaining deadline.
  auto read_more = [&]() -> Result<size_t> {
    for (;;) {
      if (cancel != nullptr && cancel->load(std::memory_order_relaxed)) {
        closed_ = true;
        return Status::BudgetExhausted("exchange canceled");
      }
      GDLOG_ASSIGN_OR_RETURN(int budget, wait_budget());
      int slice = cancel != nullptr ? std::min(budget, kReadSliceMs) : budget;
      auto n = conn_.ReadSome(tmp, sizeof(tmp), slice);
      if (!n.ok()) {
        if (cancel != nullptr &&
            n.status().code() == StatusCode::kBudgetExhausted) {
          continue;  // slice expired; re-check cancel and the deadline
        }
        return n.status();
      }
      if (*n > 0) buf_.append(tmp, *n);
      return *n;
    }
  };

  // Response head.
  size_t header_end;
  for (;;) {
    header_end = buf_.find("\r\n\r\n");
    if (header_end != std::string::npos) break;
    GDLOG_ASSIGN_OR_RETURN(size_t n, read_more());
    if (n == 0) return Status::Internal("server closed mid-response");
  }
  std::string_view head(buf_);
  head = head.substr(0, header_end);
  size_t line_end = head.find("\r\n");
  std::string_view status_line =
      line_end == std::string_view::npos ? head : head.substr(0, line_end);
  if (status_line.substr(0, 7) != "HTTP/1." || status_line.size() < 12) {
    return Status::Internal("malformed response status line");
  }
  HttpResponse response;
  response.status = 0;
  for (char c : status_line.substr(9, 3)) {
    if (c < '0' || c > '9') {
      return Status::Internal("malformed response status code");
    }
    response.status = response.status * 10 + (c - '0');
  }
  size_t content_length = 0;
  bool close_after = false;
  bool chunked = false;
  size_t pos = line_end == std::string_view::npos ? head.size()
                                                  : line_end + 2;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string_view::npos) eol = head.size();
    std::string_view line = head.substr(pos, eol - pos);
    pos = eol + 2;
    size_t colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    std::string_view name = line.substr(0, colon);
    std::string_view value = Trim(line.substr(colon + 1));
    if (IEquals(name, "content-length")) {
      content_length = 0;
      for (char c : value) {
        if (c < '0' || c > '9') {
          return Status::Internal("malformed content-length");
        }
        content_length = content_length * 10 + size_t(c - '0');
      }
    } else if (IEquals(name, "transfer-encoding")) {
      if (!IEquals(value, "chunked")) {
        return Status::Internal("unsupported transfer-encoding");
      }
      chunked = true;
    } else if (IEquals(name, "content-type")) {
      response.content_type = std::string(value);
    } else if (IEquals(name, "connection")) {
      close_after = IEquals(value, "close");
    } else {
      response.headers.emplace_back(std::string(name), std::string(value));
    }
  }

  // Body. `payload` holds decoded bytes; in streaming mode complete lines
  // are delivered out of it as they arrive instead of accumulating.
  buf_.erase(0, header_end + 4);
  const bool streaming = on_line != nullptr && response.status == 200;
  std::string payload;
  auto deliver = [&]() -> Status {
    size_t line_start = 0;
    for (;;) {
      size_t nl = payload.find('\n', line_start);
      if (nl == std::string::npos) break;
      Status s = (*on_line)(
          std::string_view(payload).substr(line_start, nl - line_start));
      if (!s.ok()) {
        closed_ = true;  // mid-stream abort: framing is unrecoverable
        return s;
      }
      line_start = nl + 1;
    }
    payload.erase(0, line_start);
    return Status::OK();
  };

  if (chunked) {
    // RFC 9112 §7.1 chunked framing. EOF before the terminal chunk is a
    // truncated stream and surfaces as kBudgetExhausted — the retryable
    // class — never as a complete-looking response.
    auto truncated = [&]() -> Status {
      closed_ = true;
      return Status::BudgetExhausted(
          "truncated chunked response: server closed before terminal chunk");
    };
    auto need = [&](size_t want) -> Status {
      while (buf_.size() < want) {
        auto n = read_more();
        if (!n.ok()) {
          closed_ = true;
          return n.status();
        }
        if (*n == 0) return truncated();
      }
      return Status::OK();
    };
    for (;;) {
      size_t eol;
      for (;;) {
        eol = buf_.find("\r\n");
        if (eol != std::string::npos) break;
        if (buf_.size() > 1024) {
          closed_ = true;
          return Status::Internal("malformed chunk size line");
        }
        GDLOG_RETURN_IF_ERROR(need(buf_.size() + 1));
      }
      size_t chunk_size = 0;
      bool any_digit = false;
      for (size_t i = 0; i < eol; ++i) {
        char c = buf_[i];
        if (c == ';') break;  // chunk extension: ignored
        int digit;
        if (c >= '0' && c <= '9') {
          digit = c - '0';
        } else if (c >= 'a' && c <= 'f') {
          digit = c - 'a' + 10;
        } else if (c >= 'A' && c <= 'F') {
          digit = c - 'A' + 10;
        } else {
          closed_ = true;
          return Status::Internal("malformed chunk size");
        }
        if (chunk_size > (size_t{1} << 40)) {
          closed_ = true;
          return Status::Internal("chunk size too large");
        }
        chunk_size = chunk_size * 16 + static_cast<size_t>(digit);
        any_digit = true;
      }
      if (!any_digit) {
        closed_ = true;
        return Status::Internal("malformed chunk size");
      }
      buf_.erase(0, eol + 2);
      if (chunk_size == 0) break;
      GDLOG_RETURN_IF_ERROR(need(chunk_size + 2));
      payload.append(buf_, 0, chunk_size);
      if (buf_[chunk_size] != '\r' || buf_[chunk_size + 1] != '\n') {
        closed_ = true;
        return Status::Internal("malformed chunk terminator");
      }
      buf_.erase(0, chunk_size + 2);
      if (streaming) GDLOG_RETURN_IF_ERROR(deliver());
    }
    // Trailer section: discard fields, stop at the blank line.
    for (;;) {
      size_t eol;
      for (;;) {
        eol = buf_.find("\r\n");
        if (eol != std::string::npos) break;
        GDLOG_RETURN_IF_ERROR(need(buf_.size() + 1));
      }
      bool blank = eol == 0;
      buf_.erase(0, eol + 2);
      if (blank) break;
    }
  } else {
    size_t remaining = content_length;
    for (;;) {
      size_t take = std::min(remaining, buf_.size());
      payload.append(buf_, 0, take);
      buf_.erase(0, take);
      remaining -= take;
      if (streaming) GDLOG_RETURN_IF_ERROR(deliver());
      if (remaining == 0) break;
      auto n = read_more();
      if (!n.ok()) {
        closed_ = true;
        return n.status();
      }
      if (*n == 0) {
        closed_ = true;
        return Status::Internal("server closed mid-body");
      }
    }
  }

  if (streaming) {
    if (!payload.empty()) {
      // Body without a trailing newline: deliver the final line as-is.
      Status s = (*on_line)(payload);
      if (!s.ok()) {
        closed_ = true;
        return s;
      }
    }
  } else {
    response.body = std::move(payload);
  }
  if (close_after) closed_ = true;
  return response;
}

}  // namespace gdlog
