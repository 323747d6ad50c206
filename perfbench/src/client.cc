#include "client.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cctype>
#include <cstdlib>

#include "common/json.h"

namespace perfbench {

namespace {

// A stalled server fails the operation instead of hanging the run.
constexpr int kSocketTimeoutSeconds = 60;

class Connection {
 public:
  explicit Connection(int port) {
    fd_ = socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return;
    timeval timeout{kSocketTimeoutSeconds, 0};
    setsockopt(fd_, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof(timeout));
    setsockopt(fd_, SOL_SOCKET, SO_SNDTIMEO, &timeout, sizeof(timeout));
    int one = 1;
    setsockopt(fd_, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    if (connect(fd_, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
      close(fd_);
      fd_ = -1;
    }
  }
  ~Connection() {
    if (fd_ >= 0) close(fd_);
  }
  Connection(const Connection&) = delete;
  Connection& operator=(const Connection&) = delete;

  /// Sends the request and reads the status line and headers; returns the
  /// status, or 0 on transport failure.
  int Request(const std::string& method, const std::string& path,
              const std::string& body) {
    if (fd_ < 0) return 0;
    std::string text =
        method + " " + path + " HTTP/1.1\r\nHost: 127.0.0.1\r\n";
    if (!body.empty()) {
      text += "Content-Type: application/json\r\nContent-Length: " +
              std::to_string(body.size()) + "\r\n";
    }
    text += "\r\n";
    text += body;
    for (size_t sent = 0; sent < text.size();) {
      const ssize_t n =
          send(fd_, text.data() + sent, text.size() - sent, MSG_NOSIGNAL);
      if (n <= 0) return 0;
      sent += static_cast<size_t>(n);
    }
    size_t head_end;
    while ((head_end = buffer_.find("\r\n\r\n")) == std::string::npos) {
      if (!Fill()) return 0;
    }
    const std::string head = buffer_.substr(0, head_end);
    pos_ = head_end + 4;
    if (head.size() < 12 || head.compare(0, 5, "HTTP/") != 0) return 0;
    for (size_t line = head.find("\r\n"); line != std::string::npos;) {
      const size_t next = head.find("\r\n", line + 2);
      std::string field = head.substr(
          line + 2,
          next == std::string::npos ? std::string::npos : next - line - 2);
      for (char& c : field) {
        if (c == ':') break;
        c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
      }
      if (field.rfind("transfer-encoding:", 0) == 0 &&
          field.find("chunked") != std::string::npos) {
        chunked_ = true;
      } else if (field.rfind("content-length:", 0) == 0) {
        content_length_ = std::atoll(field.c_str() + 15);
      }
      line = next;
    }
    return std::atoi(head.c_str() + 9);
  }

  /// The next decoded chunk of a chunked body; false at its end.
  bool NextChunk(std::string* chunk) {
    size_t line_end;
    while ((line_end = buffer_.find("\r\n", pos_)) == std::string::npos) {
      if (!Fill()) return false;
    }
    const size_t size = std::strtoul(buffer_.c_str() + pos_, nullptr, 16);
    pos_ = line_end + 2;
    if (size == 0) return false;
    while (buffer_.size() - pos_ < size + 2) {
      if (!Fill()) return false;
    }
    chunk->assign(buffer_, pos_, size);
    pos_ += size + 2;
    if (pos_ > (1u << 16) && pos_ * 2 > buffer_.size()) {
      buffer_.erase(0, pos_);
      pos_ = 0;
    }
    return true;
  }

  std::string Body() {
    if (chunked_) {
      std::string body;
      std::string chunk;
      while (NextChunk(&chunk)) body += chunk;
      return body;
    }
    if (content_length_ >= 0) {
      const size_t length = static_cast<size_t>(content_length_);
      while (buffer_.size() < pos_ + length && Fill()) {
      }
      return buffer_.substr(pos_, length);
    }
    while (Fill()) {
    }
    return buffer_.substr(pos_);
  }

 private:
  bool Fill() {
    char data[1 << 16];
    const ssize_t n = recv(fd_, data, sizeof(data), 0);
    if (n <= 0) return false;
    buffer_.append(data, static_cast<size_t>(n));
    return true;
  }

  int fd_ = -1;
  std::string buffer_;
  size_t pos_ = 0;  // start of the unread part of buffer_
  bool chunked_ = false;
  int64_t content_length_ = -1;
};

std::string Brief(const HttpResponse& response) {
  return std::to_string(response.status) + " " +
         response.body.substr(0, 200);
}

}  // namespace

HttpResponse Fetch(int port, const std::string& method,
                   const std::string& path, const std::string& body) {
  HttpResponse response;
  Connection connection(port);
  const int status = connection.Request(method, path, body);
  if (status == 0) return response;
  response.body = connection.Body();
  response.status = status;
  return response;
}

int FetchLines(int port, const std::string& path,
               const std::function<void(const std::string&)>& on_line) {
  Connection connection(port);
  const int status = connection.Request("GET", path, "");
  if (status != 200) return status;
  std::string pending;
  std::string chunk;
  while (connection.NextChunk(&chunk)) {
    pending += chunk;
    size_t start = 0;
    for (size_t eol; (eol = pending.find('\n', start)) != std::string::npos;
         start = eol + 1) {
      on_line(pending.substr(start, eol - start));
    }
    pending.erase(0, start);
  }
  if (!pending.empty()) on_line(pending);
  return status;
}

HttpResponse UploadDataset(int port, const std::string& id,
                           const std::string& csv) {
  fastod::JsonWriter w;
  w.BeginObject().Key("id").String(id).Key("csv").String(csv).EndObject();
  return Fetch(port, "POST", "/v1/datasets", w.str());
}

HttpResponse AppendRows(int port, const std::string& id,
                        const std::string& delta) {
  fastod::JsonWriter w;
  w.BeginObject().Key("csv").String(delta).EndObject();
  return Fetch(port, "POST", "/v1/datasets/" + id + "/rows", w.str());
}

std::string SessionRequest(const std::string& algorithm,
                           const std::string& dataset_id, int threads,
                           const std::string& prior) {
  fastod::JsonWriter w;
  w.BeginObject()
      .Key("algorithm")
      .String(algorithm)
      .Key("dataset_id")
      .String(dataset_id);
  if (threads > 0 || !prior.empty()) {
    w.Key("options").BeginObject();
    if (threads > 0) w.Key("threads").Int(threads);
    if (!prior.empty()) w.Key("prior").String(prior);
    w.EndObject();
  }
  w.Key("stream").Bool(true).EndObject();
  return w.str();
}

SessionOutcome RunSession(int port, Tracer* tracer, int64_t op,
                          const std::string& request,
                          const Fingerprint* prior) {
  SessionOutcome out;
  const Clock::time_point start = Clock::now();
  HttpResponse created;
  {
    Tracer::Scope span(tracer, "server.create", op);
    created = Fetch(port, "POST", "/v1/sessions", request);
  }
  const Clock::time_point created_at = Clock::now();
  out.create_ms = MsBetween(start, created_at);
  fastod::Result<fastod::JsonValue> parsed = fastod::ParseJson(created.body);
  const fastod::JsonValue* id = parsed.ok() ? parsed->Find("id") : nullptr;
  if (created.status != 201 || id == nullptr || !id->is_number()) {
    out.error = "POST /v1/sessions -> " + Brief(created);
    return out;
  }
  const std::string path = "/v1/sessions/" + std::to_string(id->int_value());

  int64_t events = 0;
  bool malformed = false;
  std::string end_state = "(no end line)";
  int64_t end_streamed = -1;
  int stream_status = 0;
  {
    Tracer::Scope span(tracer, "server.stream", op);
    stream_status =
        FetchLines(port, path + "/stream", [&](const std::string& line) {
          out.stream_bytes += static_cast<int64_t>(line.size()) + 1;
          fastod::Result<fastod::JsonValue> event = fastod::ParseJson(line);
          if (!event.ok()) {
            malformed = true;
            return;
          }
          const fastod::JsonValue* type = event->Find("type");
          if (type != nullptr && type->is_string() &&
              type->string_value() == "end") {
            const fastod::JsonValue* state = event->Find("state");
            const fastod::JsonValue* streamed = event->Find("streamed");
            end_state = state != nullptr && state->is_string()
                            ? state->string_value()
                            : "?";
            end_streamed = streamed != nullptr && streamed->is_number()
                               ? streamed->int_value()
                               : -1;
            return;
          }
          if (events++ == 0) out.first_od_ms = MsBetween(start, Clock::now());
          if (!AddStreamEvent(*event, &out.streamed, &out.revoked)) {
            malformed = true;
          }
        });
  }
  const Clock::time_point streamed_at = Clock::now();
  out.stream_ms = MsBetween(created_at, streamed_at);

  HttpResponse result;
  {
    Tracer::Scope span(tracer, "server.result", op);
    result = Fetch(port, "GET", path + "/result");
  }
  const Clock::time_point result_at = Clock::now();
  out.result_ms = MsBetween(streamed_at, result_at);

  HttpResponse purged;
  {
    Tracer::Scope span(tracer, "server.purge", op);
    purged = Fetch(port, "DELETE", path + "?purge=1");
  }
  const Clock::time_point end = Clock::now();
  out.total_ms = MsBetween(start, end);

  if (stream_status != 200) {
    out.error = "GET /stream -> " + std::to_string(stream_status);
  } else if (malformed) {
    out.error = "malformed /stream line";
  } else if (end_state != "done") {
    out.error = "stream ended in state " + end_state;
  } else if (end_streamed != events) {
    out.error = "end line counts " + std::to_string(end_streamed) +
                " events, received " + std::to_string(events);
  } else if (result.status != 200 ||
             !FingerprintReport(result.body, &out.reported)) {
    out.error = "GET /result -> " + Brief(result);
  } else if (const Fingerprint delivered =
                 prior == nullptr ? out.streamed.Apply({}, out.revoked)
                                  : prior->Apply(out.streamed, out.revoked);
             !(delivered == out.reported)) {
    out.error = "the stream delivered " + delivered.ToString() +
                ", /result holds " + out.reported.ToString();
  } else if (purged.status != 200) {
    out.error = "purge -> " + Brief(purged);
  }
  out.result_body = std::move(result.body);
  return out;
}

}  // namespace perfbench
