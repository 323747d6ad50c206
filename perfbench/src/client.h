// Blocking HTTP/1.1 client for the in-process discovery server on
// loopback, and the session-level operations the benchmark issues
// through it.
#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <cstdint>
#include <functional>
#include <string>

#include "bench.h"

namespace perfbench {

struct HttpResponse {
  int status = 0;  // 0 = transport failure
  std::string body;
};

/// One request on its own connection (the server closes after each).
HttpResponse Fetch(int port, const std::string& method,
                   const std::string& path, const std::string& body = "");

/// GETs a chunked NDJSON response and hands each line to `on_line` as it
/// arrives. Returns the HTTP status (0 on transport failure).
int FetchLines(int port, const std::string& path,
               const std::function<void(const std::string&)>& on_line);

/// POST /v1/datasets {"id": id, "csv": csv}.
HttpResponse UploadDataset(int port, const std::string& id,
                           const std::string& csv);

/// POST /v1/datasets/{id}/rows {"csv": delta} (headerless rows).
HttpResponse AppendRows(int port, const std::string& id,
                        const std::string& delta);

/// The body creating one streamed session over a resident dataset.
/// `threads` 0 leaves the option unset; an empty `prior` likewise.
std::string SessionRequest(const std::string& algorithm,
                           const std::string& dataset_id, int threads,
                           const std::string& prior);

/// One streamed session end to end.
struct SessionOutcome {
  std::string error;  // empty when every check passed
  double create_ms = 0.0;
  double first_od_ms = -1.0;  // POST sent -> first OD line; -1 if none
  double stream_ms = 0.0;
  double result_ms = 0.0;
  double total_ms = 0.0;  // POST sent -> purge answered
  int64_t stream_bytes = 0;
  Fingerprint streamed;  // OD lines of /stream
  Fingerprint revoked;   // "revoked" lines of /stream
  Fingerprint reported;  // the /result report
  std::string result_body;
};

/// POST /v1/sessions, GET /stream up to its end line, GET /result, and
/// DELETE ?purge=1, with spans server.create, server.stream,
/// server.result and server.purge. Checks that the end line reports
/// "done" with the number of events received, and that the /result set
/// is what the stream delivered: the streamed ODs, or for an incremental
/// session given `prior`, the prior set with the streamed ODs added and
/// the revoked ones removed.
SessionOutcome RunSession(int port, Tracer* tracer, int64_t op,
                          const std::string& request,
                          const Fingerprint* prior = nullptr);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
