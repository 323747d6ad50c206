#include "bench.h"

#include <malloc.h>
#include <sched.h>
#include <unistd.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>

#include "algo/fastod.h"
#include "algo/tane.h"
#include "common/json.h"
#include "data/schema.h"
#include "od/attribute_set.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE ""
#endif
#ifndef PERFBENCH_CXX_COMPILER
#define PERFBENCH_CXX_COMPILER "unknown"
#endif

namespace perfbench {

int Nproc() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    const int count = CPU_COUNT(&set);
    if (count > 0) return count;
  }
  const long online = sysconf(_SC_NPROCESSORS_ONLN);
  return online > 0 ? static_cast<int>(online) : 1;
}

// ------------------------------------------------------------------ spans

namespace {
thread_local bool t_tracing = false;
thread_local int t_open_span = -1;  // innermost open span of this thread
}  // namespace

void Tracer::SetThreadTracing(bool on) { t_tracing = on; }

Tracer::Scope::Scope(Tracer* tracer, const char* name, int64_t op) {
  if (tracer != nullptr && t_tracing) {
    tracer_ = tracer;
    index_ = tracer->Begin(name, op);
  }
}

Tracer::Scope::~Scope() {
  if (tracer_ != nullptr) tracer_->End(index_);
}

int Tracer::Begin(const char* name, int64_t op) {
  const double now = MsBetween(epoch_, Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_.push_back(Span{name, now, now, t_open_span, op});
  t_open_span = static_cast<int>(spans_.size()) - 1;
  return t_open_span;
}

void Tracer::End(int index) {
  const double now = MsBetween(epoch_, Clock::now());
  std::lock_guard<std::mutex> lock(mutex_);
  spans_[index].end_ms = now;
  t_open_span = spans_[index].parent;
}

std::vector<Tracer::Span> Tracer::spans() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return spans_;
}

bool Tracer::WriteJsonl(const std::string& path) const {
  std::ofstream out(path);
  for (const Span& span : spans()) {
    fastod::JsonWriter w;
    w.BeginObject()
        .Key("name")
        .String(span.name)
        .Key("start_ms")
        .Double(span.start_ms)
        .Key("end_ms")
        .Double(span.end_ms)
        .Key("parent")
        .Int(span.parent)
        .Key("op")
        .Int(span.op)
        .EndObject();
    out << w.str() << '\n';
  }
  return static_cast<bool>(out);
}

std::vector<OpProfile> ProfileOps(const std::vector<Tracer::Span>& spans) {
  const size_t n = spans.size();
  std::vector<double> children_ms(n, 0.0);
  std::vector<size_t> profile_of(n, 0);
  std::vector<OpProfile> profiles;
  // A parent begins before its children, so its index is always lower and
  // one forward pass assigns every span to its operation.
  for (size_t i = 0; i < n; ++i) {
    const Tracer::Span& span = spans[i];
    const double duration = span.end_ms - span.start_ms;
    if (span.parent < 0) {
      profile_of[i] = profiles.size();
      OpProfile profile;
      profile.root = span.name;
      profile.wall_ms = duration;
      profiles.push_back(std::move(profile));
      continue;
    }
    const auto parent = static_cast<size_t>(span.parent);
    profile_of[i] = profile_of[parent];
    children_ms[parent] += duration;
    if (spans[parent].parent < 0) {
      profiles[profile_of[i]].covered_ms += duration;
    }
  }
  for (size_t i = 0; i < n; ++i) {
    const double self = spans[i].end_ms - spans[i].start_ms - children_ms[i];
    profiles[profile_of[i]].self_ms[spans[i].name] += self;
  }
  return profiles;
}

double MedianSelfMs(const std::vector<OpProfile>& profiles,
                    const std::string& root, const std::string& name) {
  std::vector<double> values;
  for (const OpProfile& profile : profiles) {
    if (!root.empty() && profile.root != root) continue;
    auto it = profile.self_ms.find(name);
    if (it != profile.self_ms.end()) values.push_back(it->second);
  }
  return Median(std::move(values));
}

// ----------------------------------------------------------- fingerprints

namespace {

uint64_t HashText(const std::string& text) {
  uint64_t h = 1469598103934665603ULL;  // FNV-1a
  for (unsigned char c : text) {
    h ^= c;
    h *= 1099511628211ULL;
  }
  // splitmix64 finalizer: FNV's low bits are weak, and the digest sums.
  h = (h ^ (h >> 30)) * 0xbf58476d1ce4e5b9ULL;
  h = (h ^ (h >> 27)) * 0x94d049bb133111ebULL;
  return h ^ (h >> 31);
}

std::string ContextText(std::vector<std::string> context) {
  std::sort(context.begin(), context.end());
  std::string text;
  for (const std::string& name : context) {
    text += name;
    text += '\x1f';
  }
  return text;
}

std::vector<std::string> Names(fastod::AttributeSet set,
                               const fastod::Schema& schema) {
  std::vector<std::string> names;
  for (int a = set.First(); a >= 0; a = set.Next(a)) {
    names.push_back(schema.name(a));
  }
  return names;
}

bool StringList(const fastod::JsonValue* array,
                std::vector<std::string>* out) {
  if (array == nullptr || !array->is_array()) return false;
  for (const fastod::JsonValue& item : array->array_items()) {
    if (!item.is_string()) return false;
    out->push_back(item.string_value());
  }
  return true;
}

bool StringField(const fastod::JsonValue& object, const char* key,
                 std::string* out) {
  const fastod::JsonValue* value = object.Find(key);
  if (value == nullptr || !value->is_string()) return false;
  *out = value->string_value();
  return true;
}

bool AddConstancyEntry(const fastod::JsonValue& od, const char* context_key,
                       const char* attribute_key, Fingerprint* out) {
  std::vector<std::string> context;
  std::string attribute;
  if (!StringList(od.Find(context_key), &context) ||
      !StringField(od, attribute_key, &attribute)) {
    return false;
  }
  out->AddConstancy(std::move(context), attribute);
  return true;
}

bool AddCompatibilityEntry(const fastod::JsonValue& od, Fingerprint* out) {
  std::vector<std::string> context;
  std::string a;
  std::string b;
  if (!StringList(od.Find("context"), &context) ||
      !StringField(od, "a", &a) || !StringField(od, "b", &b)) {
    return false;
  }
  out->AddCompatibility(std::move(context), a, b);
  return true;
}

}  // namespace

void Fingerprint::AddConstancy(std::vector<std::string> context,
                               const std::string& attribute) {
  digest +=
      HashText("c|" + ContextText(std::move(context)) + "|" + attribute);
  ++constancy;
}

void Fingerprint::AddCompatibility(std::vector<std::string> context,
                                   const std::string& a,
                                   const std::string& b) {
  const bool ordered = a < b;
  digest += HashText("o|" + ContextText(std::move(context)) + "|" +
                     (ordered ? a : b) + "~" + (ordered ? b : a));
  ++compatibility;
}

Fingerprint Fingerprint::Apply(const Fingerprint& added,
                               const Fingerprint& removed) const {
  Fingerprint out;
  out.digest = digest + added.digest - removed.digest;
  out.constancy = constancy + added.constancy - removed.constancy;
  out.compatibility =
      compatibility + added.compatibility - removed.compatibility;
  return out;
}

std::string Fingerprint::ToString() const {
  char buf[96];
  std::snprintf(buf, sizeof(buf), "%016llx (%lld constancy + %lld compat)",
                static_cast<unsigned long long>(digest),
                static_cast<long long>(constancy),
                static_cast<long long>(compatibility));
  return buf;
}

Fingerprint FingerprintOf(const fastod::FastodResult& result,
                          const fastod::Schema& schema) {
  Fingerprint fp;
  for (const fastod::ConstancyOd& od : result.constancy_ods) {
    fp.AddConstancy(Names(od.context, schema), schema.name(od.attribute));
  }
  for (const fastod::CompatibilityOd& od : result.compatibility_ods) {
    fp.AddCompatibility(Names(od.context, schema), schema.name(od.a),
                        schema.name(od.b));
  }
  return fp;
}

Fingerprint FingerprintOf(const fastod::TaneResult& result,
                          const fastod::Schema& schema) {
  Fingerprint fp;
  for (const fastod::ConstancyOd& fd : result.fds) {
    fp.AddConstancy(Names(fd.context, schema), schema.name(fd.attribute));
  }
  return fp;
}

bool FingerprintReport(const std::string& json, Fingerprint* out) {
  fastod::Result<fastod::JsonValue> parsed = fastod::ParseJson(json);
  if (!parsed.ok() || !parsed->is_object()) return false;
  const fastod::JsonValue* constancy = parsed->Find("constancy_ods");
  const fastod::JsonValue* compatibility = parsed->Find("compatibility_ods");
  const fastod::JsonValue* fds = parsed->Find("fds");
  if (constancy == nullptr && compatibility == nullptr && fds == nullptr) {
    return false;
  }
  for (const fastod::JsonValue* array : {constancy, compatibility, fds}) {
    if (array != nullptr && !array->is_array()) return false;
  }
  Fingerprint fp;
  if (constancy != nullptr) {
    for (const fastod::JsonValue& od : constancy->array_items()) {
      if (!AddConstancyEntry(od, "context", "attribute", &fp)) return false;
    }
  }
  if (compatibility != nullptr) {
    for (const fastod::JsonValue& od : compatibility->array_items()) {
      if (!AddCompatibilityEntry(od, &fp)) return false;
    }
  }
  if (fds != nullptr) {
    for (const fastod::JsonValue& fd : fds->array_items()) {
      if (!AddConstancyEntry(fd, "lhs", "rhs", &fp)) return false;
    }
  }
  *out = fp;
  return true;
}

bool AddStreamEvent(const fastod::JsonValue& event, Fingerprint* added,
                    Fingerprint* revoked) {
  std::string type;
  if (!StringField(event, "type", &type)) return false;
  Fingerprint* target = added;
  if (type == "revoked") {
    target = revoked;
    if (!StringField(event, "od_type", &type)) return false;
  }
  if (type == "constancy") {
    return AddConstancyEntry(event, "context", "attribute", target);
  }
  return type == "compatibility" && AddCompatibilityEntry(event, target);
}

// ----------------------------------------------------------------- memory

namespace {

/// A "VmRSS:"-style field of /proc/self/status, in bytes (0 if absent).
int64_t StatusBytes(const char* key) {
  std::ifstream status("/proc/self/status");
  const size_t length = std::strlen(key);
  std::string line;
  while (std::getline(status, line)) {
    if (line.compare(0, length, key) == 0) {
      return std::atoll(line.c_str() + length) * 1024;  // "  1234 kB"
    }
  }
  return 0;
}

bool ResetKernelPeak() {
  std::FILE* file = std::fopen("/proc/self/clear_refs", "w");
  if (file == nullptr) return false;
  const bool wrote = std::fputs("5", file) >= 0;
  return std::fclose(file) == 0 && wrote;
}

}  // namespace

PeakRss::PeakRss(bool trim_heap) {
  if (trim_heap) malloc_trim(0);
  base_bytes_ = StatusBytes("VmRSS:");
  kernel_reset_ = ResetKernelPeak();
  if (!kernel_reset_) {
    sampled_max_ = base_bytes_;
    sampler_ = std::thread([this] {
      while (!stop_.load()) {
        const int64_t rss = StatusBytes("VmRSS:");
        int64_t seen = sampled_max_.load();
        while (rss > seen && !sampled_max_.compare_exchange_weak(seen, rss)) {
        }
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
      }
    });
  }
}

PeakRss::~PeakRss() {
  stop_ = true;
  if (sampler_.joinable()) sampler_.join();
}

int64_t PeakRss::PeakBytes() const {
  if (kernel_reset_) return StatusBytes("VmHWM:");
  return std::max(sampled_max_.load(), StatusBytes("VmRSS:"));
}

// ------------------------------------------------------------- statistics

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : (values[n / 2 - 1] + values[n / 2]) / 2;
}

double Tail(std::vector<double> values, double* percentile) {
  if (values.empty()) {
    *percentile = 0.0;
    return 0.0;
  }
  std::sort(values.begin(), values.end());
  const size_t n = values.size();
  // Below 100 samples the rule's percentile drops under p90 (p50 at 20
  // samples), which is no tail: report p80 by nearest rank instead. With
  // the 15 or so samples of a flight-50k run that is the fourth slowest;
  // p90 would be the second slowest, which two stalled operations set.
  if (n < 100) {
    const size_t rank = (4 * n + 4) / 5;  // ceil(0.8 n), at least 1
    *percentile = 100.0 * static_cast<double>(rank) / static_cast<double>(n);
    return values[rank - 1];
  }
  *percentile = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
  return values[n - 11];
}

// ----------------------------------------------------------------- result

namespace {

// Every digit of a double, so a measured value is never rounded flat.
std::string Number(double value) {
  if (!std::isfinite(value)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", value);
  return buf;
}

std::string EnvStamp(const Args& args) {
  fastod::JsonWriter w;
  w.BeginObject()
      .Key("workload")
      .String(args.workload)
      .Key("seed")
      .Int(static_cast<int64_t>(args.seed))
      .Key("seconds")
      .Double(args.seconds)
      .Key("trace")
      .Bool(args.trace)
      .Key("nproc")
      .Int(Nproc())
      .Key("hardware_concurrency")
      .Int(std::thread::hardware_concurrency())
      .Key("compiler")
      .String(PERFBENCH_CXX_COMPILER)
      .Key("build_type")
      .String(PERFBENCH_BUILD_TYPE)
      .Key("sanitize")
      .String(PERFBENCH_SANITIZE)
      .Key("commit")
      .String(args.commit)
      .EndObject();
  return w.str();
}

}  // namespace

void RunResult::Metric(const std::string& name, double value,
                       const std::string& unit, int64_t samples) {
  metrics_.push_back(Entry{name, value, unit, samples});
}

void RunResult::Note(const std::string& key, double value) {
  notes_.emplace_back(key, Number(value));
}

void RunResult::Note(const std::string& key, const std::string& value) {
  std::string quoted(1, '"');
  quoted += fastod::JsonEscape(value);
  quoted += '"';
  notes_.emplace_back(key, std::move(quoted));
}

void RunResult::Count(const std::string& error) {
  ++attempted_;
  if (!error.empty()) {
    ++failed_;
    if (errors_.size() < 5) errors_.push_back(error);
  }
}

void RunResult::Inconsistent(const std::string& what) {
  consistent_ = false;
  if (errors_.size() < 5) errors_.push_back(what);
}

void RunResult::MemoryMethod(const PeakRss& probe) {
  rss_method_ =
      probe.kernel_reset() ? "clear_refs+VmHWM" : "VmRSS sampled every 1 ms";
}

double RunResult::SuccessRate() const {
  return attempted_ == 0 ? 0.0
                         : static_cast<double>(attempted_ - failed_) /
                               static_cast<double>(attempted_);
}

bool RunResult::Print(const Args& args) const {
  for (const std::string& error : errors_) {
    std::fprintf(stderr, "perfbench: %s\n", error.c_str());
  }
  if (attempted_ == 0) {
    std::fprintf(stderr, "perfbench: no operation was attempted\n");
    return false;
  }
  bool finite = true;
  std::printf("%-34s %18s  %-6s %s\n", "metric", "value", "unit", "samples");
  for (const Entry& m : metrics_) {
    finite = finite && std::isfinite(m.value);
    std::printf("%-34s %18.6f  %-6s %lld\n", m.name.c_str(), m.value,
                m.unit.c_str(), static_cast<long long>(m.samples));
  }

  fastod::JsonWriter detail;
  detail.BeginObject()
      .Key("detail")
      .BeginObject()
      .Key("env")
      .Raw(EnvStamp(args))
      .Key("rss_method")
      .String(rss_method_)
      .Key("samples")
      .BeginObject();
  for (const Entry& m : metrics_) detail.Key(m.name).Int(m.samples);
  detail.EndObject().Key("notes").BeginObject();
  for (const auto& [key, value] : notes_) detail.Key(key).Raw(value);
  detail.EndObject().Key("errors").BeginArray();
  for (const std::string& error : errors_) detail.String(error);
  detail.EndArray().EndObject().EndObject();
  std::printf("%s\n", detail.str().c_str());
  std::ofstream(args.out_dir + "/result-" + args.workload + "-seed" +
                std::to_string(args.seed) + "-trace" +
                (args.trace ? "1" : "0") + ".json")
      << detail.str() << '\n';

  fastod::JsonWriter line;
  line.BeginObject()
      .Key("correct")
      .Bool(consistent_ && failed_ == 0 && finite)
      .Key("attempted")
      .Int(attempted_)
      .Key("failed")
      .Int(failed_)
      .Key("metrics")
      .BeginObject();
  for (const Entry& m : metrics_) {
    line.Key(m.name)
        .BeginObject()
        .Key("value")
        .Raw(Number(m.value))
        .Key("unit")
        .String(m.unit)
        .EndObject();
  }
  line.EndObject().EndObject();
  std::printf("%s\n", line.str().c_str());
  std::fflush(stdout);
  return true;
}

}  // namespace perfbench
