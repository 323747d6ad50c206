#include "server/httpd.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <cctype>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <utility>

#include "common/fault.h"
#include "common/json.h"

namespace fastod {

namespace {

// Bounds chosen for an API server, not a file server: headers fit any
// sane client; the body cap admits multi-megabyte inline CSVs while
// keeping a hostile request from ballooning a worker.
constexpr size_t kMaxHeaderBytes = 64 * 1024;
constexpr size_t kMaxBodyBytes = 64 * 1024 * 1024;
constexpr int kIoTimeoutSeconds = 30;

std::string PercentDecode(const std::string& in, bool plus_is_space) {
  std::string out;
  out.reserve(in.size());
  for (size_t i = 0; i < in.size(); ++i) {
    char c = in[i];
    if (c == '+' && plus_is_space) {
      out += ' ';
    } else if (c == '%' && i + 2 < in.size() &&
               std::isxdigit(static_cast<unsigned char>(in[i + 1])) &&
               std::isxdigit(static_cast<unsigned char>(in[i + 2]))) {
      auto hex = [](char h) {
        if (h >= '0' && h <= '9') return h - '0';
        if (h >= 'a' && h <= 'f') return h - 'a' + 10;
        return h - 'A' + 10;
      };
      out += static_cast<char>(hex(in[i + 1]) * 16 + hex(in[i + 2]));
      i += 2;
    } else {
      out += c;
    }
  }
  return out;
}

void ParseQuery(const std::string& text,
                std::map<std::string, std::string>* query) {
  size_t pos = 0;
  while (pos < text.size()) {
    size_t amp = text.find('&', pos);
    if (amp == std::string::npos) amp = text.size();
    std::string pair = text.substr(pos, amp - pos);
    size_t eq = pair.find('=');
    if (eq == std::string::npos) {
      if (!pair.empty()) (*query)[PercentDecode(pair, true)] = "";
    } else {
      (*query)[PercentDecode(pair.substr(0, eq), true)] =
          PercentDecode(pair.substr(eq + 1), true);
    }
    pos = amp + 1;
  }
}

std::string ToLower(std::string s) {
  for (char& c : s) c = static_cast<char>(std::tolower(c));
  return s;
}

/// Reads one request off `fd`. Returns 0 on success, else the HTTP
/// status to reject with (408 timeout, 400 malformed, 413 too large).
int ReadRequest(int fd, size_t max_body_bytes, HttpRequest* request) {
  std::string buffer;
  size_t header_end = std::string::npos;
  char chunk[4096];
  while (header_end == std::string::npos) {
    if (buffer.size() > kMaxHeaderBytes) return 431;
    ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return 408;  // timeout, reset, or premature close
    buffer.append(chunk, static_cast<size_t>(n));
    header_end = buffer.find("\r\n\r\n");
  }
  std::string head = buffer.substr(0, header_end);
  std::string rest = buffer.substr(header_end + 4);

  // Request line: METHOD SP target SP HTTP/1.x
  size_t line_end = head.find("\r\n");
  std::string request_line =
      line_end == std::string::npos ? head : head.substr(0, line_end);
  size_t sp1 = request_line.find(' ');
  size_t sp2 = request_line.rfind(' ');
  if (sp1 == std::string::npos || sp2 == sp1) return 400;
  request->method = request_line.substr(0, sp1);
  std::string target = request_line.substr(sp1 + 1, sp2 - sp1 - 1);
  std::string version = request_line.substr(sp2 + 1);
  if (version.rfind("HTTP/1.", 0) != 0) return 400;
  size_t question = target.find('?');
  if (question != std::string::npos) {
    ParseQuery(target.substr(question + 1), &request->query);
    target = target.substr(0, question);
  }
  request->path = PercentDecode(target, false);

  // Header fields, names lowercased. Continuation lines (obsolete
  // folding) are rejected as malformed.
  size_t pos = line_end == std::string::npos ? head.size() : line_end + 2;
  while (pos < head.size()) {
    size_t eol = head.find("\r\n", pos);
    if (eol == std::string::npos) eol = head.size();
    std::string line = head.substr(pos, eol - pos);
    pos = eol + 2;
    size_t colon = line.find(':');
    if (colon == std::string::npos || colon == 0) return 400;
    std::string name = ToLower(line.substr(0, colon));
    size_t value_begin = line.find_first_not_of(" \t", colon + 1);
    request->headers[name] =
        value_begin == std::string::npos ? "" : line.substr(value_begin);
  }

  // Body: Content-Length only. Chunked uploads are not implemented, and
  // RFC 7230 demands an explicit rejection over silently reading the
  // chunk framing as if it were the body.
  if (request->headers.count("transfer-encoding") != 0) return 501;
  auto it = request->headers.find("content-length");
  if (it == request->headers.end()) {
    request->body = std::move(rest);
    return 0;
  }
  char* end = nullptr;
  unsigned long long length = std::strtoull(it->second.c_str(), &end, 10);
  if (end == nullptr || *end != '\0') return 400;
  if (length > max_body_bytes) return 413;
  request->body = std::move(rest);
  while (request->body.size() < length) {
    ssize_t n = recv(fd, chunk, sizeof(chunk), 0);
    if (n <= 0) return 408;
    request->body.append(chunk, static_cast<size_t>(n));
  }
  request->body.resize(length);
  return 0;
}

}  // namespace

const char* HttpReason(int status) {
  switch (status) {
    case 200:
      return "OK";
    case 201:
      return "Created";
    case 204:
      return "No Content";
    case 400:
      return "Bad Request";
    case 404:
      return "Not Found";
    case 405:
      return "Method Not Allowed";
    case 408:
      return "Request Timeout";
    case 409:
      return "Conflict";
    case 410:
      return "Gone";
    case 413:
      return "Payload Too Large";
    case 429:
      return "Too Many Requests";
    case 431:
      return "Request Header Fields Too Large";
    case 500:
      return "Internal Server Error";
    case 501:
      return "Not Implemented";
    case 503:
      return "Service Unavailable";
    default:
      return "Unknown";
  }
}

// ---------------------------------------------------------------- writer

bool HttpResponseWriter::WriteAll(const char* data, size_t size) {
  if (FASTOD_FAULT_POINT("httpd.write")) return false;
  while (size > 0) {
    // MSG_NOSIGNAL: a vanished client surfaces as EPIPE, not SIGPIPE.
    ssize_t n = send(fd_, data, size, MSG_NOSIGNAL);
    if (n <= 0) return false;
    data += n;
    size -= static_cast<size_t>(n);
  }
  return true;
}

bool HttpResponseWriter::Send(int status, const std::string& content_type,
                              const std::string& body) {
  return Send(status, content_type, body, HttpHeaders());
}

bool HttpResponseWriter::Send(int status, const std::string& content_type,
                              const std::string& body,
                              const HttpHeaders& extra_headers) {
  started_ = true;
  std::string head = "HTTP/1.1 " + std::to_string(status) + " " +
                     HttpReason(status) +
                     "\r\nContent-Type: " + content_type +
                     "\r\nContent-Length: " + std::to_string(body.size());
  for (const auto& [name, value] : extra_headers) {
    head += "\r\n" + name + ": " + value;
  }
  head += "\r\nConnection: close\r\n\r\n";
  return WriteAll(head.data(), head.size()) &&
         WriteAll(body.data(), body.size());
}

bool HttpResponseWriter::BeginChunked(int status,
                                      const std::string& content_type) {
  started_ = true;
  chunked_ = true;
  std::string head = "HTTP/1.1 " + std::to_string(status) + " " +
                     HttpReason(status) +
                     "\r\nContent-Type: " + content_type +
                     "\r\nTransfer-Encoding: chunked"
                     "\r\nConnection: close\r\n\r\n";
  return WriteAll(head.data(), head.size());
}

bool HttpResponseWriter::WriteChunk(const std::string& data) {
  if (!chunked_ || data.empty()) return chunked_;
  char size_line[32];
  int n = std::snprintf(size_line, sizeof(size_line), "%zx\r\n", data.size());
  return WriteAll(size_line, static_cast<size_t>(n)) &&
         WriteAll(data.data(), data.size()) && WriteAll("\r\n", 2);
}

bool HttpResponseWriter::EndChunked() {
  if (!chunked_) return false;
  chunked_ = false;
  return WriteAll("0\r\n\r\n", 5);
}

// ---------------------------------------------------------------- server

HttpServer::HttpServer(HttpHandler handler, int num_threads)
    : handler_(std::move(handler)),
      num_threads_(num_threads),
      max_body_bytes_(kMaxBodyBytes) {}

void HttpServer::set_max_body_bytes(size_t max_body_bytes) {
  max_body_bytes_ = max_body_bytes == 0 ? kMaxBodyBytes : max_body_bytes;
}

HttpServer::~HttpServer() { Stop(); }

Status HttpServer::Start(const std::string& host, int port) {
  if (listen_fd_ >= 0) {
    return Status::FailedPrecondition("server already started");
  }
  int fd = socket(AF_INET, SOCK_STREAM, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    close(fd);
    return Status::InvalidArgument("invalid bind address '" + host +
                                   "' (expected an IPv4 literal)");
  }
  if (bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status s = Status::IoError("bind " + host + ":" + std::to_string(port) +
                               ": " + std::strerror(errno));
    close(fd);
    return s;
  }
  if (listen(fd, 128) != 0) {
    Status s = Status::IoError(std::string("listen: ") +
                               std::strerror(errno));
    close(fd);
    return s;
  }
  socklen_t addr_len = sizeof(addr);
  if (getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &addr_len) != 0) {
    Status s = Status::IoError(std::string("getsockname: ") +
                               std::strerror(errno));
    close(fd);
    return s;
  }
  port_ = ntohs(addr.sin_port);
  listen_fd_ = fd;
  stopping_.store(false);
  pool_ = std::make_unique<ThreadPool>(num_threads_);
  acceptor_ = std::thread([this] { AcceptLoop(); });
  return Status::Ok();
}

void HttpServer::AcceptLoop() {
  while (!stopping_.load()) {
    sockaddr_in peer_addr{};
    socklen_t peer_len = sizeof(peer_addr);
    int fd = accept(listen_fd_, reinterpret_cast<sockaddr*>(&peer_addr),
                    &peer_len);
    if (fd < 0) {
      if (stopping_.load()) break;
      if (errno == EINTR || errno == ECONNABORTED) continue;
      break;  // listening socket is gone; StopAccepting/Stop own cleanup
    }
    // IP only, never the port: per-connection ephemeral ports would give
    // every request from one client a distinct quota key.
    char peer_buf[INET_ADDRSTRLEN] = "";
    std::string peer;
    if (peer_addr.sin_family == AF_INET &&
        inet_ntop(AF_INET, &peer_addr.sin_addr, peer_buf,
                  sizeof(peer_buf)) != nullptr) {
      peer = peer_buf;
    }
    timeval timeout{};
    timeout.tv_sec = kIoTimeoutSeconds;
    setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    setsockopt(fd, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    int one = 1;
    setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    {
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.insert(fd);
    }
    if (!pool_->Submit([this, fd, peer = std::move(peer)]() mutable {
          HandleConnection(fd, std::move(peer));
        })) {
      // Pool already stopped (teardown race): drop the connection.
      std::lock_guard<std::mutex> lock(connections_mutex_);
      connections_.erase(fd);
      close(fd);
    }
  }
}

void HttpServer::HandleConnection(int fd, std::string peer) {
  HttpRequest request;
  request.peer = std::move(peer);
  HttpResponseWriter writer(fd);
  int reject = ReadRequest(fd, max_body_bytes_, &request);
  if (reject != 0) {
    if (reject != 408) {  // a dead peer gets no farewell
      writer.Send(reject, "text/plain", std::string(HttpReason(reject)) +
                                            "\n");
    }
  } else {
    try {
      handler_(request, writer);
      if (!writer.started()) {
        writer.Send(500, "text/plain", "handler produced no response\n");
      }
    } catch (const std::exception& e) {
      if (!writer.started()) {
        JsonWriter body;
        body.BeginObject().Key("error").String(e.what()).EndObject();
        writer.Send(500, "application/json", body.str() + "\n");
      }
    } catch (...) {
      if (!writer.started()) {
        writer.Send(500, "text/plain", "internal error\n");
      }
    }
  }
  shutdown(fd, SHUT_RDWR);
  {
    std::lock_guard<std::mutex> lock(connections_mutex_);
    connections_.erase(fd);
  }
  close(fd);
}

void HttpServer::CloseListener() {
  if (listen_fd_ < 0) return;
  // shutdown() makes a blocked accept() return immediately; close()
  // alone is not guaranteed to on all kernels.
  shutdown(listen_fd_, SHUT_RDWR);
  if (acceptor_.joinable()) acceptor_.join();
  close(listen_fd_);
  listen_fd_ = -1;
}

void HttpServer::StopAccepting() { CloseListener(); }

void HttpServer::Stop() {
  if (listen_fd_ < 0 && pool_ == nullptr) return;
  stopping_.store(true);
  CloseListener();
  {
    // Kick handlers out of blocked recv()/send() now rather than after
    // the 30s socket timeout; the fds are closed by their handlers.
    std::lock_guard<std::mutex> lock(connections_mutex_);
    for (int fd : connections_) shutdown(fd, SHUT_RDWR);
  }
  pool_.reset();  // drains queued connections and in-flight handlers
}

}  // namespace fastod
