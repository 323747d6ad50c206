#include "cli/cli.h"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <fstream>
#include <memory>
#include <sstream>
#include <thread>
#include <utility>

#include "api/algorithm.h"
#include "api/registry.h"
#include "common/flags.h"
#include "common/json.h"
#include "common/string_util.h"
#include "data/csv.h"
#include "data/dataset_store.h"
#include "data/encode.h"
#include "gen/date_dim.h"
#include "gen/generators.h"
#include "obs/metrics.h"
#include "obs/trace.h"
#include "report/report.h"
#include "server/discovery_server.h"
#include "service/discovery_service.h"
#include "validate/od_validator.h"
#include "validate/violation_scanner.h"

namespace fastod {

namespace {

// Top-level usage; the --algorithm list and per-algorithm options are
// generated from the registry's option metadata.
std::string Usage() {
  return "fastod — order dependency discovery (FASTOD, VLDB 2017)\n"
         "\n"
         "usage:\n"
         "  fastod discover <file.csv> [--algorithm=NAME] [--output=text|"
         "json]\n"
         "                             [--delimiter=,] [--no-header] "
         "[--max-rows=N] [--stats]\n"
         "                             [algorithm options — see `fastod "
         "discover --help`]\n"
         "      NAME: " +
         AlgorithmRegistry::Default().NamesList() +
         "\n"
         "  fastod batch <manifest.txt> [--threads=N] [--output=text|json]\n"
         "                             (job lines: <file.csv|@dataset> "
         "<algorithm> [--opt=val ...];\n"
         "                              `dataset <name> <file.csv>` loads "
         "once for many @name jobs;\n"
         "                              `append <name> <delta.csv>` grows "
         "it by a headerless delta)\n"
         "  fastod serve [--port=N] [--host=ADDR] [--threads=N]\n"
         "                             [--http-threads=N] [--no-csv-path]\n"
         "                             [--dataset-budget-mb=N]\n"
         "                             [--metrics|--no-metrics]\n"
         "  fastod algorithms [NAME...]\n"
         "  fastod validate <file.csv> --lhs=colA,colB --rhs=colC[:desc]\n"
         "  fastod violations <file.csv> --lhs=... --rhs=... [--limit=N]\n"
         "  fastod conditional <file.csv> [--min-support=F] [--limit=N]\n"
         "  fastod generate <flight|ncvoter|hepatitis|dbtesma|date_dim>\n"
         "                             [--rows=N] [--attrs=K] [--seed=S]\n"
         "  fastod help\n";
}

std::string DiscoverUsage() {
  return "usage: fastod discover <file.csv> [--algorithm=NAME] [options]\n"
         "\n"
         "common options:\n"
         "  --algorithm=<name>             discovery engine (default: "
         "fastod)\n"
         "  --output=<text|json>           result rendering (default: "
         "text)\n"
         "  --delimiter=<char>             CSV field delimiter (default: "
         ",)\n"
         "  --no-header                    first CSV record is data\n"
         "  --max-rows=<n>                 read at most N data rows\n"
         "  --stats                        append search telemetry (phase\n"
         "                                 timings, lattice counters); with\n"
         "                                 --output=json the report gains a\n"
         "                                 \"trace\" field\n"
         "\n"
         "algorithms and their options:\n" +
         AlgorithmRegistry::Default().DescribeAlgorithms();
}

struct CsvFlags {
  std::string delimiter = ",";
  bool no_header = false;
  int64_t max_rows = -1;

  void Register(FlagSet* flags) {
    flags->AddString("delimiter", &delimiter, "CSV field delimiter");
    flags->AddBool("no-header", &no_header,
                   "first CSV record is data, not attribute names");
    flags->AddInt("max-rows", &max_rows, "read at most N data rows (-1=all)");
  }

  Result<CsvOptions> Options() const {
    CsvOptions options;
    if (delimiter.size() != 1) {
      return Status::InvalidArgument("--delimiter must be one character");
    }
    options.delimiter = delimiter[0];
    options.has_header = !no_header;
    options.max_rows = max_rows;
    return options;
  }

  /// Reads and encodes `path` straight from the CSV text.
  Result<EncodedRelation> Load(const std::string& path) const {
    Result<CsvOptions> options = Options();
    if (!options.ok()) return options.status();
    return EncodeCsvFile(path, *options);
  }
};

// Parses "colA,colB:desc" into a directed spec; direction defaults asc.
Result<DirectedSpec> ParseDirectedSpec(const std::string& text,
                                       const Schema& schema) {
  DirectedSpec spec;
  for (const std::string& piece : Split(text, ',')) {
    std::string name(Trim(piece));
    if (name.empty()) {
      return Status::InvalidArgument("empty attribute in list '" + text +
                                     "'");
    }
    SortDirection dir = SortDirection::kAsc;
    size_t colon = name.rfind(':');
    if (colon != std::string::npos) {
      std::string suffix = name.substr(colon + 1);
      name = name.substr(0, colon);
      if (suffix == "desc") {
        dir = SortDirection::kDesc;
      } else if (suffix != "asc") {
        return Status::InvalidArgument("unknown direction ':" + suffix +
                                       "' (use :asc or :desc)");
      }
    }
    Result<int> idx = schema.IndexOf(name);
    if (!idx.ok()) return idx.status();
    spec.push_back(DirectedAttribute{*idx, dir});
  }
  if (spec.empty()) {
    return Status::InvalidArgument("attribute list must be non-empty");
  }
  return spec;
}

bool AllAscending(const DirectedSpec& spec) {
  return std::all_of(spec.begin(), spec.end(),
                     [](const DirectedAttribute& d) {
                       return d.direction == SortDirection::kAsc;
                     });
}

OrderSpec StripDirections(const DirectedSpec& spec) {
  OrderSpec out;
  out.reserve(spec.size());
  for (const DirectedAttribute& d : spec) out.push_back(d.attr);
  return out;
}

CliResult Fail(const Status& status) {
  CliResult result;
  result.exit_code = 1;
  result.error = status.ToString() + "\n";
  return result;
}

// Human rendering of the engine's search counters for `discover --stats`
// text output (the JSON output embeds the trace instead).
std::string RenderStatsText(const obs::EngineStats& stats) {
  std::string out = "\nsearch stats:\n";
  out += "  levels processed: " + std::to_string(stats.levels_processed) +
         "\n";
  out += "  nodes visited:    " + std::to_string(stats.nodes_visited) +
         " (" + std::to_string(stats.nodes_pruned) + " pruned)\n";
  out += "  validations:      " + std::to_string(stats.constancy_checks) +
         " constancy, " + std::to_string(stats.swap_checks) + " swap (" +
         std::to_string(stats.swap_sample_refutes) +
         " refuted by a sampled swap), " +
         std::to_string(stats.key_prune_hits) + " skipped by key pruning\n";
  if (stats.candidates_checked > 0 || stats.candidates_pruned > 0) {
    out += "  candidates:       " +
           std::to_string(stats.candidates_checked) + " checked, " +
           std::to_string(stats.candidates_pruned) + " pruned\n";
  }
  out += "  partition cache:  " +
         std::to_string(stats.partition_cache_gets) + " gets, " +
         std::to_string(stats.partition_cache_puts) + " puts, " +
         std::to_string(stats.partitions_reused) + " reused\n";
  out += "  ods emitted:      " + std::to_string(stats.ods_emitted) + "\n";
  for (const obs::LevelStats& level : stats.levels) {
    char line[160];
    std::snprintf(line, sizeof(line),
                  "  level %d: nodes=%lld pruned=%lld checks=%lld/%lld "
                  "ods=%lld (%.4fs)\n",
                  level.level, static_cast<long long>(level.nodes),
                  static_cast<long long>(level.nodes_pruned),
                  static_cast<long long>(level.constancy_checks),
                  static_cast<long long>(level.swap_checks),
                  static_cast<long long>(level.ods_found), level.seconds);
    out += line;
  }
  return out;
}

// Dispatches through the algorithm registry: CLI-owned flags (CSV
// loading, output format, the algorithm name itself) are interpreted
// here; every other --name=value is forwarded to the created algorithm's
// typed option registry, so each engine's full option surface is reachable
// without this file knowing any engine's options struct.
CliResult Discover(const std::vector<std::string>& args) {
  std::string algorithm = "fastod";
  std::string output = "text";
  bool stats = false;
  CsvFlags csv;
  std::vector<std::string> positional;
  std::vector<std::pair<std::string, std::string>> engine_options;
  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "help") {
      CliResult result;
      result.output = DiscoverUsage();
      return result;
    }
    if (arg.rfind("--", 0) != 0) {
      positional.push_back(arg);
      continue;
    }
    std::string name = arg.substr(2);
    std::string value;
    size_t eq = name.find('=');
    if (eq != std::string::npos) {
      value = name.substr(eq + 1);
      name = name.substr(0, eq);
    }
    if (name == "algorithm") {
      algorithm = value;
    } else if (name == "output") {
      output = value;
    } else if (name == "stats") {
      if (value.empty() || value == "true" || value == "1") {
        stats = true;
      } else if (value == "false" || value == "0") {
        stats = false;
      } else {
        return Fail(Status::InvalidArgument(
            "--stats expects true or false, got '" + value + "'"));
      }
    } else if (name == "delimiter") {
      csv.delimiter = value;
    } else if (name == "no-header") {
      if (value.empty() || value == "true" || value == "1") {
        csv.no_header = true;
      } else if (value == "false" || value == "0") {
        csv.no_header = false;
      } else {
        return Fail(Status::InvalidArgument(
            "--no-header expects true or false, got '" + value + "'"));
      }
    } else if (name == "max-rows") {
      std::optional<int64_t> parsed = ParseInt(value);
      if (!parsed.has_value()) {
        return Fail(Status::InvalidArgument("--max-rows expects an integer"));
      }
      csv.max_rows = *parsed;
    } else {
      engine_options.emplace_back(std::move(name), std::move(value));
    }
  }
  if (output != "text" && output != "json") {
    return Fail(Status::InvalidArgument("--output must be text or json"));
  }
  // Reject unknown algorithms before touching the filesystem, with the
  // registered names in the error.
  Result<std::unique_ptr<Algorithm>> algo =
      AlgorithmRegistry::Default().Create(algorithm);
  if (!algo.ok()) return Fail(algo.status());
  for (const auto& [name, value] : engine_options) {
    if (Status s = (*algo)->SetOption(name, value); !s.ok()) return Fail(s);
  }
  if (positional.size() != 1) {
    return Fail(Status::InvalidArgument(
        "discover expects exactly one CSV path"));
  }
  // The same spans a DiscoverySession records, rebuilt locally because
  // `discover` drives the algorithm directly, without a session.
  obs::TraceRecorder trace;
  Result<CsvOptions> csv_options = csv.Options();
  if (!csv_options.ok()) return Fail(csv_options.status());
  Result<std::shared_ptr<const LoadedDataset>> dataset =
      LoadedDataset::LoadCsvFile(positional[0], positional[0], *csv_options,
                                 stats ? &trace : nullptr);
  if (!dataset.ok()) return Fail(dataset.status());
  if (Status s = (*algo)->BindDataset(*std::move(dataset)); !s.ok()) {
    return Fail(s);
  }
  double start = trace.Now();
  if (Status s = (*algo)->Execute(); !s.ok()) return Fail(s);
  CliResult result;
  result.output =
      output == "json" ? (*algo)->ResultJson() : (*algo)->ResultText();
  if (stats) {
    trace.RecordSpan("execute", start, trace.Now() - start);
    double cursor = start;
    for (const obs::LevelStats& level : (*algo)->stats().levels) {
      trace.RecordSpan("level[" + std::to_string(level.level) + "]",
                       cursor, level.seconds);
      cursor += level.seconds;
    }
    trace.SetEngineStats((*algo)->stats());
    if (output == "json") {
      SpliceJsonMember(&result.output, "trace", trace.ToJson());
    } else {
      result.output += RenderStatsText((*algo)->stats());
    }
  }
  return result;
}

CliResult Validate(const std::vector<std::string>& args) {
  std::string lhs_text;
  std::string rhs_text;
  CsvFlags csv;
  FlagSet flags;
  flags.AddString("lhs", &lhs_text, "ordering attribute list (X of X ↦ Y)");
  flags.AddString("rhs", &rhs_text, "ordered attribute list (Y of X ↦ Y)");
  csv.Register(&flags);
  if (Status s = flags.Parse(args); !s.ok()) return Fail(s);
  if (flags.positional().size() != 1) {
    return Fail(Status::InvalidArgument(
        "validate expects exactly one CSV path"));
  }
  Result<EncodedRelation> rel = csv.Load(flags.positional()[0]);
  if (!rel.ok()) return Fail(rel.status());
  Result<DirectedSpec> lhs = ParseDirectedSpec(lhs_text, rel->schema());
  if (!lhs.ok()) return Fail(lhs.status());
  Result<DirectedSpec> rhs = ParseDirectedSpec(rhs_text, rel->schema());
  if (!rhs.ok()) return Fail(rhs.status());

  OdValidator validator(&*rel);
  bool holds;
  std::string rendered;
  if (AllAscending(*lhs) && AllAscending(*rhs)) {
    ListOd od{StripDirections(*lhs), StripDirections(*rhs)};
    holds = validator.Holds(od);
    rendered = od.ToString(rel->schema());
  } else {
    BidirectionalListOd od{*lhs, *rhs};
    holds = validator.Holds(od);
    rendered = od.ToString(rel->schema());
  }
  CliResult result;
  result.output = rendered + ": " + (holds ? "holds" : "violated") + "\n";
  result.exit_code = holds ? 0 : 2;  // shell-scriptable
  return result;
}

CliResult Violations(const std::vector<std::string>& args) {
  std::string lhs_text;
  std::string rhs_text;
  int64_t limit = 20;
  CsvFlags csv;
  FlagSet flags;
  flags.AddString("lhs", &lhs_text, "ordering attribute list");
  flags.AddString("rhs", &rhs_text, "ordered attribute list");
  flags.AddInt("limit", &limit, "maximum violating pairs to report");
  csv.Register(&flags);
  if (Status s = flags.Parse(args); !s.ok()) return Fail(s);
  if (flags.positional().size() != 1) {
    return Fail(Status::InvalidArgument(
        "violations expects exactly one CSV path"));
  }
  Result<EncodedRelation> rel = csv.Load(flags.positional()[0]);
  if (!rel.ok()) return Fail(rel.status());
  Result<DirectedSpec> lhs = ParseDirectedSpec(lhs_text, rel->schema());
  if (!lhs.ok()) return Fail(lhs.status());
  Result<DirectedSpec> rhs = ParseDirectedSpec(rhs_text, rel->schema());
  if (!rhs.ok()) return Fail(rhs.status());
  if (!AllAscending(*lhs) || !AllAscending(*rhs)) {
    return Fail(Status::InvalidArgument(
        "violations currently supports ascending specifications only"));
  }

  ListOd od{StripDirections(*lhs), StripDirections(*rhs)};
  ViolationScanner scanner(&*rel);
  ScanOptions options;
  options.max_violations = limit;
  std::vector<Violation> violations = scanner.Scan(od, options);
  CliResult result;
  result.output = od.ToString(rel->schema()) + ": " +
                  std::to_string(violations.size()) + " violating pair(s)";
  if (static_cast<int64_t>(violations.size()) == limit) {
    result.output += " (limit reached)";
  }
  result.output += "\n";
  for (const Violation& v : violations) {
    result.output += "  " + v.ToString() + "\n";
  }
  result.exit_code = violations.empty() ? 0 : 2;
  return result;
}

// Legacy sugar for `discover --algorithm=conditional`; the adapter owns
// the rendering (binding ranks shown as original cell values). The
// command's historical default limit of 20 is prepended so a
// user-supplied --limit still wins (options apply in argument order).
CliResult Conditional(const std::vector<std::string>& args) {
  std::vector<std::string> forwarded;
  forwarded.reserve(args.size() + 2);
  forwarded.push_back("--limit=20");
  forwarded.insert(forwarded.end(), args.begin(), args.end());
  forwarded.push_back("--algorithm=conditional");
  return Discover(forwarded);
}

// Lists every registered algorithm with its description and option help,
// all generated from the registry's metadata. With arguments, restricts
// the listing to the named algorithms (unknown names error, listing what
// is registered).
CliResult Algorithms(const std::vector<std::string>& args) {
  std::vector<std::string> names;
  for (const std::string& arg : args) {
    if (arg == "--help" || arg == "help") {
      CliResult result;
      result.output = "usage: fastod algorithms [NAME...]\n\n"
                      "Lists registered discovery algorithms with their "
                      "options.\n";
      return result;
    }
    names.push_back(arg);
  }
  if (names.empty()) names = AlgorithmRegistry::Default().Names();
  CliResult result;
  for (const std::string& name : names) {
    Result<std::unique_ptr<Algorithm>> algo =
        AlgorithmRegistry::Default().Create(name);
    if (!algo.ok()) return Fail(algo.status());
    result.output += (*algo)->name() + " — " + (*algo)->description() + "\n" +
                     (*algo)->DescribeOptions();
  }
  return result;
}

// One parsed line of a batch manifest. `csv` is either a file path or an
// "@name" reference to a `dataset` directive.
struct BatchJob {
  std::string csv;
  std::string algorithm;
  std::vector<std::pair<std::string, std::string>> options;
};

struct BatchManifest {
  /// `dataset <name> <file.csv>` directives, in file order: each CSV is
  /// loaded once into a DatasetStore and shared by every @name job.
  std::vector<std::pair<std::string, std::string>> datasets;
  /// `append <name> <delta.csv>` directives, in file order: each grows
  /// the named dataset by one version before any job runs (deltas are
  /// headerless, data-only CSVs). Jobs bind the final version.
  std::vector<std::pair<std::string, std::string>> appends;
  std::vector<BatchJob> jobs;
};

Result<BatchManifest> ParseManifest(const std::string& path) {
  std::ifstream in(path);
  if (!in) {
    return Status::IoError("cannot open manifest '" + path + "'");
  }
  BatchManifest manifest;
  std::string line;
  int line_number = 0;
  while (std::getline(in, line)) {
    ++line_number;
    std::string trimmed(Trim(line));
    if (trimmed.empty() || trimmed[0] == '#') continue;
    std::istringstream tokens(trimmed);
    std::string token;
    tokens >> token;
    if (token == "dataset") {
      std::string name;
      std::string csv;
      std::string extra;
      tokens >> name >> csv;
      if (name.empty() || csv.empty() || (tokens >> extra)) {
        return Status::InvalidArgument(
            "manifest line " + std::to_string(line_number) +
            ": expected `dataset <name> <file.csv>`");
      }
      for (const auto& [existing, existing_csv] : manifest.datasets) {
        (void)existing_csv;
        if (existing == name) {
          return Status::InvalidArgument(
              "manifest line " + std::to_string(line_number) +
              ": dataset '" + name + "' defined twice");
        }
      }
      manifest.datasets.emplace_back(std::move(name), std::move(csv));
      continue;
    }
    if (token == "append") {
      std::string name;
      std::string csv;
      std::string extra;
      tokens >> name >> csv;
      if (name.empty() || csv.empty() || (tokens >> extra)) {
        return Status::InvalidArgument(
            "manifest line " + std::to_string(line_number) +
            ": expected `append <name> <delta.csv>`");
      }
      bool defined = false;
      for (const auto& [existing, existing_csv] : manifest.datasets) {
        (void)existing_csv;
        if (existing == name) {
          defined = true;
          break;
        }
      }
      if (!defined) {
        return Status::InvalidArgument(
            "manifest line " + std::to_string(line_number) + ": append to "
            "undefined dataset '" + name +
            "' (a `dataset` directive must come first)");
      }
      manifest.appends.emplace_back(std::move(name), std::move(csv));
      continue;
    }
    BatchJob job;
    do {
      if (token.rfind("--", 0) == 0) {
        std::string name = token.substr(2);
        std::string value;
        size_t eq = name.find('=');
        if (eq != std::string::npos) {
          value = name.substr(eq + 1);
          name = name.substr(0, eq);
        }
        job.options.emplace_back(std::move(name), std::move(value));
      } else if (job.csv.empty()) {
        job.csv = token;
      } else if (job.algorithm.empty()) {
        job.algorithm = token;
      } else {
        return Status::InvalidArgument(
            "manifest line " + std::to_string(line_number) +
            ": unexpected token '" + token +
            "' (expected: <file.csv|@dataset> <algorithm> "
            "[--opt=val ...])");
      }
    } while (tokens >> token);
    if (job.csv.empty() || job.algorithm.empty()) {
      return Status::InvalidArgument(
          "manifest line " + std::to_string(line_number) +
          ": expected <file.csv|@dataset> <algorithm> [--opt=val ...]");
    }
    manifest.jobs.push_back(std::move(job));
  }
  if (manifest.jobs.empty()) {
    return Status::InvalidArgument("manifest '" + path +
                                   "' contains no jobs");
  }
  return manifest;
}

// Runs a manifest of CSV×algorithm jobs concurrently through the
// DiscoveryService: every job gets its own session, CSV parsing and
// encoding happen on the workers (SubmitCsv), and at most --threads
// sessions execute at once. Per-job failures (missing file, engine
// error) are reported per line and don't abort the batch.
CliResult Batch(const std::vector<std::string>& args) {
  int64_t threads = 0;
  std::string output = "text";
  CsvFlags csv;
  FlagSet flags;
  flags.AddInt("threads", &threads,
               "concurrently executing jobs (0 = hardware)");
  flags.AddString("output", &output, "per-job result rendering");
  csv.Register(&flags);
  if (Status s = flags.Parse(args); !s.ok()) return Fail(s);
  if (flags.positional().size() != 1) {
    return Fail(Status::InvalidArgument(
        "batch expects exactly one manifest path"));
  }
  if (output != "text" && output != "json") {
    return Fail(Status::InvalidArgument("--output must be text or json"));
  }
  if (threads < 0 || threads > 1024) {
    return Fail(Status::InvalidArgument("--threads must be in [0, 1024]"));
  }
  Result<CsvOptions> parsed_csv_options = csv.Options();
  if (!parsed_csv_options.ok()) return Fail(parsed_csv_options.status());
  const CsvOptions& csv_options = *parsed_csv_options;
  Result<BatchManifest> manifest = ParseManifest(flags.positional()[0]);
  if (!manifest.ok()) return Fail(manifest.status());
  const std::vector<BatchJob>& jobs = manifest->jobs;

  // Named datasets load once into a batch-local store; every @name job
  // shares the parse, encoding, and level-1 partitions. A dataset that
  // fails to load fails the batch up front — its jobs could only fail
  // one by one later anyway.
  DatasetStore store;
  for (const auto& [name, dataset_csv] : manifest->datasets) {
    Result<std::shared_ptr<const LoadedDataset>> loaded =
        store.PutCsvFile(name, dataset_csv, csv_options);
    if (!loaded.ok()) {
      return Fail(Status(loaded.status().code(),
                         "dataset '" + name + "': " +
                             loaded.status().message()));
    }
  }
  // Appends run after the loads, in manifest order; jobs then bind the
  // fully grown version. Deltas carry no header line — the schema was
  // fixed by the `dataset` directive.
  for (const auto& [name, delta_csv] : manifest->appends) {
    CsvOptions delta_options = csv_options;
    delta_options.has_header = false;
    Result<std::shared_ptr<const LoadedDataset>> grown =
        store.AppendCsvFile(name, delta_csv, delta_options);
    if (!grown.ok()) {
      return Fail(Status(grown.status().code(),
                         "append to '" + name + "': " +
                             grown.status().message()));
    }
  }

  DiscoveryService service(static_cast<int>(threads), nullptr, &store);
  std::vector<SessionId> ids(jobs.size(), 0);
  std::vector<std::string> submit_errors(jobs.size());
  for (size_t i = 0; i < jobs.size(); ++i) {
    const BatchJob& job = jobs[i];
    Result<SessionId> id = service.Create(job.algorithm);
    if (!id.ok()) {
      submit_errors[i] = id.status().ToString();
      continue;
    }
    ids[i] = *id;
    for (const auto& [name, value] : job.options) {
      if (Status s = service.SetOption(*id, name, value); !s.ok()) {
        submit_errors[i] = s.ToString();
        break;
      }
    }
    if (submit_errors[i].empty()) {
      Status submitted =
          job.csv[0] == '@'
              ? service.SubmitDataset(*id, job.csv.substr(1))
              : service.SubmitCsv(*id, job.csv, csv_options);
      if (!submitted.ok()) submit_errors[i] = submitted.ToString();
    }
  }
  service.WaitAll();

  CliResult result;
  bool any_failed = false;
  JsonWriter json;
  json.BeginObject().Key("jobs").BeginArray();
  for (size_t i = 0; i < jobs.size(); ++i) {
    const BatchJob& job = jobs[i];
    std::string state = "failed";
    std::string error = submit_errors[i];
    double seconds = 0.0;
    std::string rendered;
    if (error.empty()) {
      auto info = service.Poll(ids[i]);
      auto session = service.Find(ids[i]);
      state = SessionStateName(info->state);
      seconds = session->execute_seconds();
      if (info->state == SessionState::kDone) {
        rendered = output == "json" ? session->result_json()
                                    : session->result_text();
      } else {
        error = info->error;
      }
    }
    if (state != "done") any_failed = true;
    if (output == "json") {
      json.BeginObject().Key("job").Int(static_cast<int64_t>(i + 1));
      json.Key("csv").String(job.csv).Key("algorithm").String(job.algorithm);
      json.Key("state").String(state).Key("seconds").Double(seconds);
      if (!error.empty()) json.Key("error").String(error);
      // The per-job report is itself the stable JSON shape; inline it.
      if (!rendered.empty()) {
        json.Key("result").Raw(std::string(Trim(rendered)));
      }
      json.EndObject();
    } else {
      char line[64];
      std::snprintf(line, sizeof(line), " (%.3fs)", seconds);
      result.output += "[" + std::to_string(i + 1) + "] " + job.algorithm +
                       " " + job.csv + ": " + state +
                       (state == "done" ? line : "") +
                       (error.empty() ? "" : " — " + error) + "\n";
      if (!rendered.empty()) {
        // First line of the engine's text report as the job summary.
        result.output += "    " + rendered.substr(0, rendered.find('\n')) +
                         "\n";
      }
    }
  }
  if (output == "json") {
    json.EndArray().EndObject();
    result.output = json.str() + "\n";
  }
  result.exit_code = any_failed ? 1 : 0;
  return result;
}

// `fastod serve` termination flag, flipped by SIGINT/SIGTERM. sig_atomic_t
// because signal handlers may only touch lock-free async-signal-safe
// state.
volatile std::sig_atomic_t g_serve_stop = 0;

extern "C" void ServeSignalHandler(int) { g_serve_stop = 1; }

// Runs the HTTP discovery server until SIGINT/SIGTERM. The startup line
// goes straight to stdout (not CliResult.output, which is only flushed
// on exit) so scripts can scrape the bound port immediately.
CliResult Serve(const std::vector<std::string>& args) {
  int64_t port = 8080;
  int64_t threads = 0;
  int64_t http_threads = 8;
  int64_t dataset_budget_mb = 256;
  int64_t max_sessions = 0;
  int64_t max_sessions_per_client = 0;
  int64_t max_body_mb = 0;
  int64_t drain_timeout_s = 30;
  std::string host = "127.0.0.1";
  bool no_csv_path = false;
  bool metrics = false;
  bool no_metrics = false;
  FlagSet flags;
  flags.AddInt("port", &port, "TCP port to listen on (0 = ephemeral)");
  flags.AddString("host", &host, "IPv4 address to bind");
  flags.AddInt("threads", &threads,
               "concurrently executing sessions (0 = hardware)");
  flags.AddInt("http-threads", &http_threads,
               "HTTP workers (each open /stream pins one)");
  flags.AddBool("no-csv-path", &no_csv_path,
                "reject server-side \"csv_path\" submissions");
  flags.AddInt("dataset-budget-mb", &dataset_budget_mb,
               "resident-dataset memory budget in MiB (0 = unlimited)");
  flags.AddInt("max-sessions", &max_sessions,
               "admission cap on queued+running sessions; past it "
               "POST /v1/sessions gets 429 (0 = unlimited)");
  flags.AddInt("max-sessions-per-client", &max_sessions_per_client,
               "live-session quota per client (X-Client-Id header, else "
               "peer IP); past it 429 (0 = unlimited)");
  flags.AddInt("max-body-mb", &max_body_mb,
               "request-body cap in MiB, rejected with 413 past it "
               "(0 = default 64)");
  flags.AddInt("drain-timeout-s", &drain_timeout_s,
               "on SIGTERM/SIGINT, seconds to wait for in-flight "
               "sessions before cancelling stragglers");
  flags.AddBool("metrics", &metrics,
                "force metrics and trace collection on, overriding the "
                "FASTOD_METRICS environment default");
  flags.AddBool("no-metrics", &no_metrics,
                "disable metrics and trace collection (GET /metrics "
                "stays routable but exposes nothing)");
  if (Status s = flags.Parse(args); !s.ok()) return Fail(s);
  if (metrics && no_metrics) {
    return Fail(Status::InvalidArgument(
        "--metrics and --no-metrics are mutually exclusive"));
  }
  if (metrics) obs::SetEnabled(true);
  if (no_metrics) obs::SetEnabled(false);
  if (!flags.positional().empty()) {
    return Fail(Status::InvalidArgument("serve takes no positional "
                                        "arguments"));
  }
  if (port < 0 || port > 65535) {
    return Fail(Status::InvalidArgument("--port must be in [0, 65535]"));
  }
  if (threads < 0 || threads > 1024) {
    return Fail(Status::InvalidArgument("--threads must be in [0, 1024]"));
  }
  if (http_threads < 1 || http_threads > 1024) {
    return Fail(Status::InvalidArgument(
        "--http-threads must be in [1, 1024]"));
  }
  // 1 TiB cap keeps the <<20 below well inside int64 range.
  if (dataset_budget_mb < 0 || dataset_budget_mb > (1LL << 20)) {
    return Fail(Status::InvalidArgument(
        "--dataset-budget-mb must be in [0, 1048576]"));
  }
  if (max_sessions < 0 || max_sessions_per_client < 0) {
    return Fail(Status::InvalidArgument(
        "--max-sessions and --max-sessions-per-client must be >= 0"));
  }
  if (max_body_mb < 0 || max_body_mb > (1LL << 20)) {
    return Fail(Status::InvalidArgument(
        "--max-body-mb must be in [0, 1048576]"));
  }
  if (drain_timeout_s < 0 || drain_timeout_s > 86400) {
    return Fail(Status::InvalidArgument(
        "--drain-timeout-s must be in [0, 86400]"));
  }

  DiscoveryServerOptions options;
  options.host = host;
  options.port = static_cast<int>(port);
  options.worker_threads = static_cast<int>(threads);
  options.http_threads = static_cast<int>(http_threads);
  options.allow_csv_path = !no_csv_path;
  options.dataset_budget_bytes = dataset_budget_mb << 20;
  options.max_sessions = max_sessions;
  options.max_sessions_per_client = max_sessions_per_client;
  options.max_body_bytes = static_cast<size_t>(max_body_mb) << 20;
  DiscoveryServer server(options);
  if (Status s = server.Start(); !s.ok()) return Fail(s);

  std::printf("fastod serve: listening on http://%s:%d (Ctrl-C to stop)\n",
              host.c_str(), server.port());
  std::fflush(stdout);

  g_serve_stop = 0;
  std::signal(SIGINT, ServeSignalHandler);
  std::signal(SIGTERM, ServeSignalHandler);
  while (g_serve_stop == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(100));
  }
  std::signal(SIGINT, SIG_DFL);
  std::signal(SIGTERM, SIG_DFL);
  // Graceful drain: refuse new sessions (503 + Retry-After), let
  // in-flight runs and streams finish, cancel whatever outlives the
  // drain budget, then tear the server down. Always exits 0 — a signal
  // is the normal way to stop a server, not an error.
  server.BeginDrain();
  bool clean = server.Drain(static_cast<double>(drain_timeout_s));
  server.Stop();
  CliResult result;
  result.output = clean ? "fastod serve: stopped\n"
                        : "fastod serve: stopped (drain timeout; "
                          "stragglers cancelled)\n";
  return result;
}

CliResult Generate(const std::vector<std::string>& args) {
  int64_t rows = 1000;
  int64_t attrs = 10;
  int64_t seed = 42;
  FlagSet flags;
  flags.AddInt("rows", &rows, "number of rows");
  flags.AddInt("attrs", &attrs, "number of attributes (ignored by "
               "date_dim)");
  flags.AddInt("seed", &seed, "generator seed");
  if (Status s = flags.Parse(args); !s.ok()) return Fail(s);
  if (flags.positional().size() != 1) {
    return Fail(Status::InvalidArgument(
        "generate expects one dataset name "
        "(flight|ncvoter|hepatitis|dbtesma|date_dim)"));
  }
  const std::string& name = flags.positional()[0];
  if (attrs < 1 || attrs > 64) {
    return Fail(Status::InvalidArgument("--attrs must be in [1, 64]"));
  }
  Table table;
  if (name == "flight") {
    table = GenFlightLike(rows, static_cast<int>(attrs),
                          static_cast<uint64_t>(seed));
  } else if (name == "ncvoter") {
    table = GenNcvoterLike(rows, static_cast<int>(attrs),
                           static_cast<uint64_t>(seed));
  } else if (name == "hepatitis") {
    table = GenHepatitisLike(rows, static_cast<int>(attrs),
                             static_cast<uint64_t>(seed));
  } else if (name == "dbtesma") {
    table = GenDbtesmaLike(rows, static_cast<int>(attrs),
                           static_cast<uint64_t>(seed));
  } else if (name == "date_dim") {
    table = GenDateDim(rows);
  } else {
    return Fail(Status::InvalidArgument("unknown dataset '" + name + "'"));
  }
  CliResult result;
  result.output = WriteCsvString(table);
  return result;
}

}  // namespace

CliResult RunCli(const std::vector<std::string>& args) {
  if (args.empty() || args[0] == "help" || args[0] == "--help") {
    CliResult result;
    result.output = Usage();
    return result;
  }
  const std::string& command = args[0];
  std::vector<std::string> rest(args.begin() + 1, args.end());
  if (command == "discover") return Discover(rest);
  if (command == "algorithms") return Algorithms(rest);
  if (command == "batch") return Batch(rest);
  if (command == "serve") return Serve(rest);
  if (command == "validate") return Validate(rest);
  if (command == "violations") return Violations(rest);
  if (command == "conditional") return Conditional(rest);
  if (command == "generate") return Generate(rest);
  CliResult result;
  result.exit_code = 1;
  result.error = "unknown command '" + command + "'\n\n" + Usage();
  return result;
}

}  // namespace fastod
