#include "serve/http.hpp"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstring>

#include "util/strings.hpp"

namespace astra::serve {
namespace {

// A request larger than this is hostile or a bug, not traffic.
constexpr std::size_t kMaxHeaderBytes = 64 * 1024;
constexpr std::size_t kMaxBodyBytes = 4 * 1024 * 1024;
constexpr int kSocketTimeoutMs = 5000;
constexpr int kAcceptPollMs = 100;

void SetSocketTimeouts(int fd, int timeout_ms) {
  timeval tv{};
  tv.tv_sec = timeout_ms / 1000;
  tv.tv_usec = (timeout_ms % 1000) * 1000;
  // Best-effort: a socket without timeouts still works, it just loses the
  // stuck-peer bound; there is no recovery path that could use the status.
  (void)::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  (void)::setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &tv, sizeof(tv));
}

[[nodiscard]] bool SendAll(int fd, std::string_view bytes) {
  std::size_t sent = 0;
  while (sent < bytes.size()) {
    const ssize_t n =
        ::send(fd, bytes.data() + sent, bytes.size() - sent, MSG_NOSIGNAL);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    sent += static_cast<std::size_t>(n);
  }
  return true;
}

// Read until `terminator` appears in `buffer` (which may already hold bytes),
// or the size cap / timeout trips.  Returns the terminator's end offset.
[[nodiscard]] std::optional<std::size_t> ReadUntil(int fd, std::string& buffer,
                                                   std::string_view terminator,
                                                   std::size_t max_bytes) {
  while (true) {
    const auto at = buffer.find(terminator);
    if (at != std::string::npos) return at + terminator.size();
    if (buffer.size() >= max_bytes) return std::nullopt;
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return std::nullopt;  // peer closed or timed out mid-header
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
}

[[nodiscard]] bool ReadExactly(int fd, std::string& buffer, std::size_t total) {
  while (buffer.size() < total) {
    char chunk[4096];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) {
      if (n < 0 && errno == EINTR) continue;
      return false;
    }
    buffer.append(chunk, static_cast<std::size_t>(n));
  }
  return true;
}

// Content-Length from raw header bytes; 0 when absent, nullopt when present
// but unparseable (a malformed request, not a missing header).
[[nodiscard]] std::optional<std::size_t> ContentLengthOf(
    std::string_view headers) {
  for (std::string_view line : SplitView(headers, '\n')) {
    const auto colon = line.find(':');
    if (colon == std::string_view::npos) continue;
    std::string name(TrimView(line.substr(0, colon)));
    for (char& c : name) {
      c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    }
    if (name != "content-length") continue;
    const auto value = ParseInt64(TrimView(line.substr(colon + 1)));
    if (!value || *value < 0) return std::nullopt;
    return static_cast<std::size_t>(*value);
  }
  return 0;
}

[[nodiscard]] std::string RenderResponse(const HttpResponse& response) {
  std::string out = "HTTP/1.1 " + std::to_string(response.status) + " ";
  out += HttpStatusText(response.status);
  out += "\r\nContent-Type: " + response.content_type;
  out += "\r\nContent-Length: " + std::to_string(response.body.size());
  out += "\r\nConnection: close\r\n\r\n";
  out += response.body;
  return out;
}

}  // namespace

std::string_view HttpStatusText(int status) noexcept {
  switch (status) {
    case 200: return "OK";
    case 204: return "No Content";
    case 400: return "Bad Request";
    case 404: return "Not Found";
    case 405: return "Method Not Allowed";
    case 503: return "Service Unavailable";
    default: return "Internal Server Error";
  }
}

bool HttpServer::Start(HttpHandler handler, std::uint16_t port, int workers) {
  if (running_ || !handler) return false;
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return false;
  const int reuse = 1;
  (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &reuse, sizeof(reuse));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
  addr.sin_port = htons(port);
  if (::bind(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) != 0 ||
      ::listen(fd, 64) != 0) {
    ::close(fd);
    return false;
  }
  sockaddr_in bound{};
  socklen_t bound_len = sizeof(bound);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&bound), &bound_len) != 0) {
    ::close(fd);
    return false;
  }

  handler_ = std::move(handler);
  listen_fd_ = fd;
  port_ = ntohs(bound.sin_port);
  stop_ = false;
  running_ = true;
  const int worker_count = workers < 1 ? 1 : workers;
  workers_.reserve(static_cast<std::size_t>(worker_count));
  for (int i = 0; i < worker_count; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  return true;
}

void HttpServer::Stop() {
  if (!running_) return;
  {
    // Under the mutex, so a worker between its predicate check and its wait
    // cannot miss the wake-up below (it would then never be joined).
    std::lock_guard<std::mutex> lock(queue_mutex_);
    stop_ = true;
  }
  queue_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (auto& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  if (listen_fd_ >= 0) {
    ::close(listen_fd_);
    listen_fd_ = -1;
  }
  // Connections accepted but never claimed by a worker.
  std::lock_guard<std::mutex> lock(queue_mutex_);
  for (const int fd : queue_) ::close(fd);
  queue_.clear();
  running_ = false;
}

void HttpServer::AcceptLoop() {
  while (!stop_) {
    pollfd pfd{};
    pfd.fd = listen_fd_;
    pfd.events = POLLIN;
    const int ready = ::poll(&pfd, 1, kAcceptPollMs);
    if (ready <= 0) continue;  // timeout (re-check stop_) or EINTR
    const int fd = ::accept(listen_fd_, nullptr, nullptr);
    if (fd < 0) continue;
    SetSocketTimeouts(fd, kSocketTimeoutMs);
    {
      std::lock_guard<std::mutex> lock(queue_mutex_);
      queue_.push_back(fd);
    }
    queue_cv_.notify_one();
  }
}

void HttpServer::WorkerLoop() {
  while (true) {
    int fd = -1;
    {
      std::unique_lock<std::mutex> lock(queue_mutex_);
      queue_cv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
      if (queue_.empty()) {
        if (stop_) return;
        continue;
      }
      fd = queue_.front();
      queue_.pop_front();
    }
    HandleConnection(fd);
    ::close(fd);
  }
}

void HttpServer::HandleConnection(int fd) {
  std::string buffer;
  const auto header_end =
      ReadUntil(fd, buffer, "\r\n\r\n", kMaxHeaderBytes + kMaxBodyBytes);
  if (!header_end) return;  // torn/oversized request: drop the connection

  const std::string_view head = std::string_view(buffer).substr(0, *header_end);
  const auto line_end = head.find("\r\n");
  const auto request_line = head.substr(0, line_end);
  const auto parts = SplitWhitespace(request_line);

  HttpResponse response;
  if (parts.size() != 3 || !StartsWith(parts[2], "HTTP/1.")) {
    response.status = 400;
    response.body = "malformed request\n";
    (void)SendAll(fd, RenderResponse(response));
    return;
  }

  HttpRequest request;
  request.method = std::string(parts[0]);
  request.path = std::string(parts[1]);

  const auto content_length =
      ContentLengthOf(head.substr(line_end == std::string_view::npos
                                      ? head.size()
                                      : line_end + 2));
  if (!content_length || *content_length > kMaxBodyBytes) {
    response.status = 400;
    response.body = "bad content length\n";
    (void)SendAll(fd, RenderResponse(response));
    return;
  }
  if (*content_length > 0) {
    std::string body = buffer.substr(*header_end);
    if (!ReadExactly(fd, body, *content_length)) return;
    body.resize(*content_length);
    request.body = std::move(body);
  }

  response = handler_(request);
  requests_served_.fetch_add(1);
  (void)SendAll(fd, RenderResponse(response));
}

std::optional<HttpResult> HttpFetch(const std::string& host,
                                    std::uint16_t port,
                                    const std::string& method,
                                    const std::string& path,
                                    const std::string& body, int timeout_ms) {
  const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) return std::nullopt;
  SetSocketTimeouts(fd, timeout_ms);

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(port);
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return std::nullopt;  // loopback client: numeric IPv4 hosts only
  }
  if (::connect(fd, reinterpret_cast<const sockaddr*>(&addr), sizeof(addr)) !=
      0) {
    ::close(fd);
    return std::nullopt;
  }

  std::string request = method + " " + path + " HTTP/1.1\r\nHost: " + host +
                        "\r\nConnection: close\r\nContent-Length: " +
                        std::to_string(body.size()) + "\r\n\r\n" + body;
  if (!SendAll(fd, request)) {
    ::close(fd);
    return std::nullopt;
  }

  std::string response;
  while (true) {
    char chunk[8192];
    const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
    if (n < 0 && errno == EINTR) continue;
    if (n <= 0) break;
    response.append(chunk, static_cast<std::size_t>(n));
    if (response.size() > kMaxHeaderBytes + kMaxBodyBytes) break;
  }
  ::close(fd);

  const auto header_end = response.find("\r\n\r\n");
  if (header_end == std::string::npos || !StartsWith(response, "HTTP/1.")) {
    return std::nullopt;
  }
  const auto status_line =
      std::string_view(response).substr(0, response.find("\r\n"));
  const auto parts = SplitWhitespace(status_line);
  if (parts.size() < 2) return std::nullopt;
  const auto status = ParseInt64(parts[1]);
  if (!status || *status < 100 || *status > 599) return std::nullopt;

  HttpResult result;
  result.status = static_cast<int>(*status);
  result.body = response.substr(header_end + 4);
  return result;
}

std::optional<HttpUrl> ParseHttpUrl(const std::string& url) {
  std::string_view rest = url;
  if (StartsWith(rest, "http://")) rest.remove_prefix(7);
  const auto slash = rest.find('/');
  const std::string_view authority =
      slash == std::string_view::npos ? rest : rest.substr(0, slash);
  const auto colon = authority.rfind(':');
  if (colon == std::string_view::npos || colon == 0) return std::nullopt;
  const auto port = ParseInt64(authority.substr(colon + 1));
  if (!port || *port < 1 || *port > 65535) return std::nullopt;

  HttpUrl parsed;
  parsed.host = std::string(authority.substr(0, colon));
  parsed.port = static_cast<std::uint16_t>(*port);
  if (slash != std::string_view::npos) {
    parsed.path = std::string(rest.substr(slash));
  }
  if (parsed.host == "localhost") parsed.host = "127.0.0.1";
  return parsed;
}

}  // namespace astra::serve
