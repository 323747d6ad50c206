// Implementation of the stable C ABI (capi/fastod_c.h) over the service
// layer. One process-wide DiscoveryService backs every C session, so C
// embedders get the same batch scheduling semantics as C++ ones: at most
// hardware-concurrency sessions execute at once, the rest queue.
//
// The fastod_session struct is the only state the C layer adds: the
// service handle, a per-session error string, and copies of the rendered
// results (so returned const char* stay valid regardless of what the
// service does afterwards). No exception escapes: the underlying library
// reports through Status, which maps 1:1 onto the FASTOD_ERR_* codes.
#include "capi/fastod_c.h"

#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "api/registry.h"
#include "common/status.h"
#include "data/dataset_store.h"
#include "service/discovery_service.h"

namespace {

using fastod::AlgorithmRegistry;
using fastod::CsvOptions;
using fastod::DiscoveryService;
using fastod::DiscoverySession;
using fastod::LoadedDataset;
using fastod::OptionInfo;
using fastod::SessionId;
using fastod::SessionState;
using fastod::Status;
using fastod::StatusCode;

int CodeOf(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk:
      return FASTOD_OK;
    case StatusCode::kInvalidArgument:
      return FASTOD_ERR_INVALID_ARGUMENT;
    case StatusCode::kNotFound:
      return FASTOD_ERR_NOT_FOUND;
    case StatusCode::kOutOfRange:
      return FASTOD_ERR_OUT_OF_RANGE;
    case StatusCode::kFailedPrecondition:
      return FASTOD_ERR_FAILED_PRECONDITION;
    case StatusCode::kIoError:
      return FASTOD_ERR_IO;
    case StatusCode::kResourceExhausted:
      return FASTOD_ERR_RESOURCE_EXHAUSTED;
    case StatusCode::kInternal:
      return FASTOD_ERR_INTERNAL;
    case StatusCode::kDeadlineExceeded:
      return FASTOD_ERR_DEADLINE;
    case StatusCode::kUnavailable:
      return FASTOD_ERR_UNAVAILABLE;
  }
  return FASTOD_ERR_INVALID_ARGUMENT;
}

DiscoveryService& GlobalService() {
  static DiscoveryService* service = new DiscoveryService();
  return *service;
}

// Session-less errors (fastod_create failures), per thread.
std::string& ThreadError() {
  static thread_local std::string error;
  return error;
}

}  // namespace

// The opaque handle. Poll/cancel/last_error may race with the driving
// thread, so the mutable strings are mutex-guarded.
struct fastod_session {
  SessionId id = 0;
  mutable std::mutex mutex;
  std::string last_error;   // guarded by mutex
  std::string result_copy;  // guarded by mutex
  std::string trace_copy;   // guarded by mutex
};

// A shared-dataset handle is one strong reference to an immutable
// LoadedDataset; sessions bound to it take their own references, so
// destroy order between handles and sessions is a non-issue.
struct fastod_dataset {
  std::shared_ptr<const LoadedDataset> dataset;
};

namespace {

int Fail(fastod_session_t* session, const Status& status) {
  std::lock_guard<std::mutex> lock(session->mutex);
  session->last_error = status.message();
  return CodeOf(status);
}

int Apply(fastod_session_t* session, const Status& status) {
  if (status.ok()) return FASTOD_OK;
  return Fail(session, status);
}

CsvOptions CsvOptionsOf(char delimiter, int has_header, long max_rows) {
  CsvOptions options;
  options.delimiter = delimiter;
  options.has_header = has_header != 0;
  options.max_rows = max_rows;
  return options;
}

}  // namespace

extern "C" {

const char* fastod_version_string(void) {
  static const std::string version =
      std::to_string(FASTOD_VERSION_MAJOR) + "." +
      std::to_string(FASTOD_VERSION_MINOR) + "." +
      std::to_string(FASTOD_VERSION_PATCH);
  return version.c_str();
}

int fastod_algorithm_count(void) {
  return static_cast<int>(AlgorithmRegistry::Default().Names().size());
}

const char* fastod_algorithm_name(int index) {
  // Registration is process-wide and append-only (re-registering a name
  // replaces its factory in place), so extending the cache — never
  // reassigning it — keeps every pointer ever returned valid for the
  // process lifetime as the header promises.
  static std::mutex mutex;
  static std::vector<std::string>* cache = new std::vector<std::string>();
  std::lock_guard<std::mutex> lock(mutex);
  std::vector<std::string> names = AlgorithmRegistry::Default().Names();
  for (size_t i = cache->size(); i < names.size(); ++i) {
    cache->push_back(names[i]);
  }
  if (index < 0 || index >= static_cast<int>(cache->size())) return nullptr;
  return (*cache)[index].c_str();
}

const char* fastod_algorithm_description(const char* algorithm) {
  if (algorithm == nullptr) return nullptr;
  // Descriptions live on algorithm instances; cache one rendering per
  // name so the returned pointer is stable.
  static std::mutex mutex;
  static std::map<std::string, std::string>* cache =
      new std::map<std::string, std::string>();
  std::lock_guard<std::mutex> lock(mutex);
  auto it = cache->find(algorithm);
  if (it == cache->end()) {
    auto algo = AlgorithmRegistry::Default().Create(algorithm);
    if (!algo.ok()) return nullptr;
    it = cache->emplace(algorithm, (*algo)->description()).first;
  }
  return it->second.c_str();
}

fastod_session_t* fastod_create(const char* algorithm) {
  if (algorithm == nullptr) {
    ThreadError() = "algorithm name must be non-NULL";
    return nullptr;
  }
  fastod::Result<SessionId> id = GlobalService().Create(algorithm);
  if (!id.ok()) {
    ThreadError() = id.status().message();
    return nullptr;
  }
  auto* session = new fastod_session();
  session->id = *id;
  return session;
}

void fastod_destroy(fastod_session_t* session) {
  if (session == nullptr) return;
  (void)GlobalService().Destroy(session->id);
  delete session;
}

int fastod_set_option(fastod_session_t* session, const char* name,
                      const char* value) {
  if (session == nullptr) return FASTOD_ERR_NULL_HANDLE;
  if (name == nullptr) {
    return Fail(session,
                Status::InvalidArgument("option name must be non-NULL"));
  }
  return Apply(session, GlobalService().SetOption(
                            session->id, name,
                            value == nullptr ? "" : value));
}

namespace {

const OptionInfo* OptionAt(const fastod_session_t* session, int index) {
  if (session == nullptr) return nullptr;
  auto live = GlobalService().Find(session->id);
  if (live == nullptr) return nullptr;
  // OptionInfo objects live on the algorithm, whose lifetime the session
  // shares; the registry is append-only, so the pointer stays valid.
  std::vector<std::string> names = live->algorithm().GetNeededOptions();
  if (index < 0 || index >= static_cast<int>(names.size())) return nullptr;
  return live->algorithm().FindOption(names[index]);
}

}  // namespace

int fastod_option_count(const fastod_session_t* session) {
  if (session == nullptr) return 0;
  auto live = GlobalService().Find(session->id);
  if (live == nullptr) return 0;
  return static_cast<int>(live->algorithm().GetNeededOptions().size());
}

const char* fastod_option_name(const fastod_session_t* session, int index) {
  const OptionInfo* info = OptionAt(session, index);
  return info == nullptr ? nullptr : info->name.c_str();
}

int fastod_option_kind(const fastod_session_t* session, int index) {
  const OptionInfo* info = OptionAt(session, index);
  return info == nullptr ? -1 : static_cast<int>(info->kind);
}

const char* fastod_option_default(const fastod_session_t* session,
                                  int index) {
  const OptionInfo* info = OptionAt(session, index);
  return info == nullptr ? nullptr : info->default_repr.c_str();
}

const char* fastod_option_description(const fastod_session_t* session,
                                      int index) {
  const OptionInfo* info = OptionAt(session, index);
  return info == nullptr ? nullptr : info->description.c_str();
}

int fastod_load_csv(fastod_session_t* session, const char* path) {
  return fastod_load_csv_opts(session, path, ',', 1, -1);
}

int fastod_load_csv_opts(fastod_session_t* session, const char* path,
                         char delimiter, int has_header, long max_rows) {
  if (session == nullptr) return FASTOD_ERR_NULL_HANDLE;
  if (path == nullptr) {
    return Fail(session, Status::InvalidArgument("path must be non-NULL"));
  }
  fastod::Result<std::shared_ptr<const LoadedDataset>> dataset =
      LoadedDataset::LoadCsvFile(
          path, path, CsvOptionsOf(delimiter, has_header, max_rows));
  if (!dataset.ok()) return Fail(session, dataset.status());
  return Apply(session, GlobalService().BindDataset(session->id,
                                                    *std::move(dataset)));
}

fastod_dataset_t* fastod_dataset_load_csv(const char* path) {
  return fastod_dataset_load_csv_opts(path, ',', 1, -1);
}

fastod_dataset_t* fastod_dataset_load_csv_opts(const char* path,
                                               char delimiter,
                                               int has_header,
                                               long max_rows) {
  if (path == nullptr) {
    ThreadError() = "path must be non-NULL";
    return nullptr;
  }
  fastod::Result<std::shared_ptr<const LoadedDataset>> dataset =
      LoadedDataset::LoadCsvFile(
          path, path, CsvOptionsOf(delimiter, has_header, max_rows));
  if (!dataset.ok()) {
    ThreadError() = dataset.status().message();
    return nullptr;
  }
  auto* handle = new fastod_dataset();
  handle->dataset = *std::move(dataset);
  return handle;
}

long fastod_dataset_rows(const fastod_dataset_t* dataset) {
  if (dataset == nullptr) return -1;
  return static_cast<long>(dataset->dataset->NumRows());
}

int fastod_dataset_columns(const fastod_dataset_t* dataset) {
  if (dataset == nullptr) return -1;
  return dataset->dataset->NumAttributes();
}

fastod_dataset_t* fastod_dataset_append_rows(const fastod_dataset_t* dataset,
                                             const char* csv_text) {
  if (dataset == nullptr) {
    ThreadError() = "dataset must be non-NULL";
    return nullptr;
  }
  if (csv_text == nullptr) {
    ThreadError() = "csv_text must be non-NULL";
    return nullptr;
  }
  CsvOptions options;
  options.has_header = false;  // deltas are data-only
  fastod::Result<fastod::EncodedRelation> delta =
      fastod::EncodeCsvString(csv_text, options);
  if (!delta.ok()) {
    ThreadError() = delta.status().message();
    return nullptr;
  }
  fastod::Result<std::shared_ptr<const LoadedDataset>> grown =
      LoadedDataset::Append(dataset->dataset, *delta);
  if (!grown.ok()) {
    ThreadError() = grown.status().message();
    return nullptr;
  }
  auto* handle = new fastod_dataset();
  handle->dataset = *std::move(grown);
  return handle;
}

long fastod_dataset_version(const fastod_dataset_t* dataset) {
  if (dataset == nullptr) return -1;
  return static_cast<long>(dataset->dataset->version());
}

long fastod_dataset_base_rows(const fastod_dataset_t* dataset) {
  if (dataset == nullptr) return -1;
  return static_cast<long>(dataset->dataset->base_rows());
}

int fastod_use_dataset(fastod_session_t* session,
                       const fastod_dataset_t* dataset) {
  if (session == nullptr) return FASTOD_ERR_NULL_HANDLE;
  if (dataset == nullptr) {
    return Fail(session,
                Status::InvalidArgument("dataset must be non-NULL"));
  }
  return Apply(session,
               GlobalService().BindDataset(session->id, dataset->dataset));
}

void fastod_dataset_destroy(fastod_dataset_t* dataset) { delete dataset; }

int fastod_execute(fastod_session_t* session) {
  int code = fastod_execute_async(session);
  if (code != FASTOD_OK) return code;
  return fastod_wait(session) == FASTOD_STATE_FAILED
             ? Fail(session, GlobalService().Find(session->id)->status())
             : FASTOD_OK;
}

int fastod_execute_async(fastod_session_t* session) {
  if (session == nullptr) return FASTOD_ERR_NULL_HANDLE;
  return Apply(session, GlobalService().Submit(session->id));
}

int fastod_poll(const fastod_session_t* session, double* progress_out) {
  if (session == nullptr) return -FASTOD_ERR_NULL_HANDLE;
  fastod::Result<DiscoveryService::PollInfo> info =
      GlobalService().Poll(session->id);
  if (!info.ok()) return -FASTOD_ERR_NOT_FOUND;
  if (progress_out != nullptr) *progress_out = info->progress;
  if (info->state == SessionState::kFailed && !info->error.empty()) {
    std::lock_guard<std::mutex> lock(session->mutex);
    const_cast<fastod_session_t*>(session)->last_error = info->error;
  }
  return static_cast<int>(info->state);
}

int fastod_wait(fastod_session_t* session) {
  if (session == nullptr) return -FASTOD_ERR_NULL_HANDLE;
  fastod::Result<SessionState> state = GlobalService().Wait(session->id);
  if (!state.ok()) return -FASTOD_ERR_NOT_FOUND;
  if (*state == SessionState::kFailed) {
    auto live = GlobalService().Find(session->id);
    if (live != nullptr) (void)Fail(session, live->status());
  }
  return static_cast<int>(*state);
}

int fastod_cancel(fastod_session_t* session) {
  if (session == nullptr) return FASTOD_ERR_NULL_HANDLE;
  return Apply(session, GlobalService().Cancel(session->id));
}

namespace {

const char* ResultString(fastod_session_t* session, bool json) {
  if (session == nullptr) return nullptr;
  SessionState state = static_cast<SessionState>(
      fastod_poll(session, nullptr));
  if (state != SessionState::kDone && state != SessionState::kCancelled) {
    return nullptr;
  }
  fastod::Result<std::string> rendered =
      json ? GlobalService().ResultJson(session->id)
           : GlobalService().ResultText(session->id);
  // A session cancelled before it ever ran has no rendering; NULL beats
  // handing C callers an empty string that looks like a result.
  if (!rendered.ok() || rendered->empty()) return nullptr;
  std::lock_guard<std::mutex> lock(session->mutex);
  session->result_copy = std::move(rendered).value();
  return session->result_copy.c_str();
}

}  // namespace

const char* fastod_result_json(fastod_session_t* session) {
  return ResultString(session, /*json=*/true);
}

const char* fastod_result_text(fastod_session_t* session) {
  return ResultString(session, /*json=*/false);
}

const char* fastod_session_trace_json(fastod_session_t* session) {
  if (session == nullptr) return nullptr;
  fastod::Result<std::string> trace =
      GlobalService().TraceJson(session->id);
  if (!trace.ok()) return nullptr;
  // Separate buffer from result_copy so interleaving trace and result
  // reads never invalidates the other's pointer mid-use.
  std::lock_guard<std::mutex> lock(session->mutex);
  session->trace_copy = std::move(trace).value();
  return session->trace_copy.c_str();
}

const char* fastod_last_error(const fastod_session_t* session) {
  if (session == nullptr) return ThreadError().c_str();
  std::lock_guard<std::mutex> lock(session->mutex);
  // The pointer must outlive the lock; the string is only replaced by
  // later calls on the same session, which the contract forbids racing.
  return session->last_error.c_str();
}

}  // extern "C"
