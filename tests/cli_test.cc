#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <fstream>

#include "cli/cli.h"
#include "data/csv.h"

namespace fastod {
namespace {

// Writes a small CSV fixture and returns its path. The PID prefix keeps
// parallel ctest processes (which share TempDir) from clobbering and
// deleting each other's fixtures mid-test — this was a real -j flake.
std::string WriteFixture(const std::string& name, const std::string& body) {
  std::string path = ::testing::TempDir() + "/" +
                     std::to_string(::getpid()) + "_" + name;
  std::ofstream out(path);
  out << body;
  return path;
}

class CliTest : public ::testing::Test {
 protected:
  CliTest() {
    // month determines quarter; salary anti-correlates with rank.
    path_ = WriteFixture("cli_test.csv",
                         "month,quarter,salary,rank\n"
                         "1,1,100,9\n"
                         "2,1,200,8\n"
                         "4,2,300,7\n"
                         "5,2,400,6\n");
  }
  ~CliTest() override { std::remove(path_.c_str()); }

  std::string path_;
};

TEST_F(CliTest, HelpOnNoArgs) {
  CliResult r = RunCli({});
  EXPECT_EQ(r.exit_code, 0);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandFails) {
  CliResult r = RunCli({"frobnicate"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.error.find("unknown command"), std::string::npos);
}

TEST_F(CliTest, DiscoverTextOutput) {
  CliResult r = RunCli({"discover", path_});
  EXPECT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("FASTOD:"), std::string::npos);
  EXPECT_NE(r.output.find("{month}: [] -> quarter"), std::string::npos);
}

TEST_F(CliTest, DiscoverJsonOutput) {
  CliResult r = RunCli({"discover", path_, "--output=json"});
  EXPECT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("\"algorithm\": \"fastod\""), std::string::npos);
}

TEST_F(CliTest, DiscoverTane) {
  CliResult r = RunCli({"discover", path_, "--algorithm=tane"});
  EXPECT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("TANE:"), std::string::npos);
}

TEST_F(CliTest, DiscoverOrder) {
  CliResult r = RunCli({"discover", path_, "--algorithm=order"});
  EXPECT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("ORDER:"), std::string::npos);
}

TEST_F(CliTest, DiscoverBidirectional) {
  CliResult r = RunCli({"discover", path_, "--bidirectional"});
  EXPECT_EQ(r.exit_code, 0) << r.error;
  // salary ~ rank desc is an opposite-polarity OCD on this fixture.
  EXPECT_NE(r.output.find("salary ~ rank desc"), std::string::npos);
}

TEST_F(CliTest, DiscoverRejectsBadAlgorithm) {
  CliResult r = RunCli({"discover", path_, "--algorithm=magic"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.error.find("magic"), std::string::npos);
}

TEST_F(CliTest, DiscoverMissingFileIsIoError) {
  CliResult r = RunCli({"discover", "/no/such/file.csv"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.error.find("IoError"), std::string::npos);
}

TEST_F(CliTest, ValidateHoldingOd) {
  CliResult r =
      RunCli({"validate", path_, "--lhs=month", "--rhs=quarter"});
  EXPECT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("holds"), std::string::npos);
}

TEST_F(CliTest, ValidateViolatedOdExitsTwo) {
  CliResult r = RunCli({"validate", path_, "--lhs=salary", "--rhs=rank"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("violated"), std::string::npos);
}

TEST_F(CliTest, ValidateDescendingDirection) {
  CliResult r =
      RunCli({"validate", path_, "--lhs=salary", "--rhs=rank:desc"});
  EXPECT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("rank desc"), std::string::npos);
  EXPECT_NE(r.output.find("holds"), std::string::npos);
}

TEST_F(CliTest, ValidateUnknownColumn) {
  CliResult r = RunCli({"validate", path_, "--lhs=nope", "--rhs=rank"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.error.find("nope"), std::string::npos);
}

TEST_F(CliTest, ViolationsListsPairs) {
  CliResult r = RunCli(
      {"violations", path_, "--lhs=salary", "--rhs=rank", "--limit=2"});
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("violating pair"), std::string::npos);
  EXPECT_NE(r.output.find("swap("), std::string::npos);
}

TEST_F(CliTest, ViolationsCleanOdExitsZero) {
  CliResult r =
      RunCli({"violations", path_, "--lhs=month", "--rhs=quarter"});
  EXPECT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("0 violating pair(s)"), std::string::npos);
}

TEST_F(CliTest, DiscoverWithThreadsMatchesSerial) {
  CliResult serial = RunCli({"discover", path_});
  CliResult parallel = RunCli({"discover", path_, "--threads=4"});
  EXPECT_EQ(serial.exit_code, 0);
  EXPECT_EQ(parallel.exit_code, 0);
  // Identical OD listings (the timing line differs).
  auto strip_first_line = [](const std::string& s) {
    return s.substr(s.find('\n') + 1);
  };
  EXPECT_EQ(strip_first_line(serial.output),
            strip_first_line(parallel.output));
}

TEST_F(CliTest, ConditionalCommandFindsRegionalRule) {
  // region 0: x ~ y; region 1: anti-correlated.
  std::string path = WriteFixture("cli_conditional.csv",
                                  "region,x,y\n"
                                  "north,1,10\nnorth,2,20\nnorth,3,30\n"
                                  "south,1,33\nsouth,2,22\nsouth,3,11\n");
  CliResult r = RunCli({"conditional", path, "--min-support=0.4"});
  std::remove(path.c_str());
  EXPECT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("region in {north}"), std::string::npos);
  EXPECT_NE(r.output.find("x ~ y"), std::string::npos);
}

TEST_F(CliTest, ConditionalRespectsLimit) {
  CliResult r = RunCli({"conditional", path_, "--limit=1",
                        "--min-support=0.0"});
  EXPECT_EQ(r.exit_code, 0) << r.error;
  // Header plus at most one result line.
  int lines = 0;
  for (char c : r.output) {
    if (c == '\n') ++lines;
  }
  EXPECT_LE(lines, 2);
}

TEST_F(CliTest, GenerateEmitsParseableCsv) {
  CliResult r =
      RunCli({"generate", "flight", "--rows=50", "--attrs=6", "--seed=1"});
  EXPECT_EQ(r.exit_code, 0) << r.error;
  auto table = ReadCsvString(r.output);
  ASSERT_TRUE(table.ok());
  EXPECT_EQ(table->NumRows(), 50);
  EXPECT_EQ(table->NumColumns(), 6);
}

TEST_F(CliTest, GenerateDateDim) {
  CliResult r = RunCli({"generate", "date_dim", "--rows=10"});
  EXPECT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("d_date_sk"), std::string::npos);
}

TEST_F(CliTest, GenerateUnknownDataset) {
  CliResult r = RunCli({"generate", "nothing"});
  EXPECT_EQ(r.exit_code, 1);
}

TEST_F(CliTest, GenerateValidatesAttrRange) {
  CliResult r = RunCli({"generate", "flight", "--attrs=200"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.error.find("attrs"), std::string::npos);
}

TEST_F(CliTest, EndToEndGenerateThenDiscover) {
  CliResult gen = RunCli({"generate", "dbtesma", "--rows=100", "--attrs=6"});
  ASSERT_EQ(gen.exit_code, 0);
  std::string path = WriteFixture("cli_gen.csv", gen.output);
  CliResult disc = RunCli({"discover", path, "--algorithm=fastod"});
  std::remove(path.c_str());
  EXPECT_EQ(disc.exit_code, 0) << disc.error;
  EXPECT_NE(disc.output.find("FASTOD:"), std::string::npos);
}

TEST_F(CliTest, AlgorithmsListsEveryEngineWithOptions) {
  CliResult r = RunCli({"algorithms"});
  EXPECT_EQ(r.exit_code, 0) << r.error;
  for (const char* name : {"fastod —", "tane —", "order —", "brute-force —",
                           "approximate —", "conditional —"}) {
    EXPECT_NE(r.output.find(name), std::string::npos) << name;
  }
  // Option help comes straight from DescribeOptions().
  EXPECT_NE(r.output.find("--swap-method=<auto|sort|tau>"),
            std::string::npos);
  EXPECT_NE(r.output.find("--min-support=<double>"), std::string::npos);
}

TEST_F(CliTest, AlgorithmsFiltersByName) {
  CliResult r = RunCli({"algorithms", "tane"});
  EXPECT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("tane —"), std::string::npos);
  EXPECT_EQ(r.output.find("fastod —"), std::string::npos);
}

TEST_F(CliTest, AlgorithmsUnknownNameListsRegistered) {
  CliResult r = RunCli({"algorithms", "magic"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.error.find("magic"), std::string::npos);
  EXPECT_NE(r.error.find("fastod"), std::string::npos);
}

TEST_F(CliTest, BatchRunsManifestJobs) {
  std::string manifest = WriteFixture(
      "cli_batch_manifest.txt",
      "# comment and blank lines are skipped\n"
      "\n" +
          path_ + " fastod --max-level=2\n" + path_ + " tane\n");
  CliResult r = RunCli({"batch", manifest, "--threads=2"});
  std::remove(manifest.c_str());
  EXPECT_EQ(r.exit_code, 0) << r.error << r.output;
  EXPECT_NE(r.output.find("[1] fastod"), std::string::npos);
  EXPECT_NE(r.output.find("[2] tane"), std::string::npos);
  EXPECT_NE(r.output.find("done"), std::string::npos);
  EXPECT_NE(r.output.find("FASTOD:"), std::string::npos);
  EXPECT_NE(r.output.find("TANE:"), std::string::npos);
}

TEST_F(CliTest, BatchJsonOutputEmbedsResults) {
  std::string manifest =
      WriteFixture("cli_batch_json.txt", path_ + " fastod\n");
  CliResult r = RunCli({"batch", manifest, "--output=json"});
  std::remove(manifest.c_str());
  EXPECT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("\"jobs\": ["), std::string::npos);
  EXPECT_NE(r.output.find("\"state\": \"done\""), std::string::npos);
  EXPECT_NE(r.output.find("\"algorithm\": \"fastod\""), std::string::npos);
}

TEST_F(CliTest, BatchReportsPerJobFailuresAndContinues) {
  std::string manifest = WriteFixture(
      "cli_batch_fail.txt",
      "/no/such/file.csv fastod\n" + path_ + " fastod\n" + path_ +
          " fastod --threads=zero\n");
  CliResult r = RunCli({"batch", manifest});
  std::remove(manifest.c_str());
  EXPECT_EQ(r.exit_code, 1);
  // The healthy middle job still ran to completion.
  EXPECT_NE(r.output.find("[2] fastod"), std::string::npos);
  EXPECT_NE(r.output.find("done"), std::string::npos);
  EXPECT_NE(r.output.find("failed"), std::string::npos);
  EXPECT_NE(r.output.find("threads"), std::string::npos);
}

TEST_F(CliTest, BatchSharesNamedDatasetsAcrossJobs) {
  std::string manifest = WriteFixture(
      "cli_batch_dataset.txt",
      "# one load, three jobs (two via @reference, one direct)\n"
      "dataset months " + path_ + "\n"
      "@months fastod --max-level=2\n"
      "@months tane\n" +
      path_ + " fastod --max-level=2\n");
  CliResult r = RunCli({"batch", manifest, "--threads=2", "--output=json"});
  std::remove(manifest.c_str());
  EXPECT_EQ(r.exit_code, 0) << r.error << r.output;
  EXPECT_NE(r.output.find("\"csv\": \"@months\""), std::string::npos);
  EXPECT_NE(r.output.find("\"state\": \"done\""), std::string::npos);
  // The @months fastod job and the direct-path fastod job found the
  // same dependencies (same data, same options).
  size_t first = r.output.find("\"constancy_ods\"");
  size_t last = r.output.rfind("\"constancy_ods\"");
  ASSERT_NE(first, std::string::npos);
  ASSERT_NE(first, last);
}

TEST_F(CliTest, BatchAppendGrowsNamedDatasetBeforeJobsRun) {
  // Headerless delta: month 1 re-keyed into quarter 2, so jobs must see
  // the 5-row grown version, not the 4-row load.
  std::string delta = WriteFixture("cli_batch_delta.csv", "1,2,500,5\n");
  std::string manifest = WriteFixture(
      "cli_batch_append.txt",
      "dataset months " + path_ + "\n"
      "append months " + delta + "\n"
      "@months fastod --max-level=2\n");
  CliResult r = RunCli({"batch", manifest, "--output=json"});
  std::remove(manifest.c_str());
  std::remove(delta.c_str());
  EXPECT_EQ(r.exit_code, 0) << r.error << r.output;
  EXPECT_NE(r.output.find("\"state\": \"done\""), std::string::npos);
  EXPECT_NE(r.output.find("\"rows\": 5"), std::string::npos) << r.output;
}

TEST_F(CliTest, BatchAppendDirectiveErrors) {
  // Appending to a dataset no directive defined is a manifest error.
  std::string undefined = WriteFixture(
      "cli_batch_appundef.txt",
      "append ghost /no/such/delta.csv\n" + path_ + " fastod\n");
  CliResult r = RunCli({"batch", undefined});
  std::remove(undefined.c_str());
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.error.find("undefined dataset 'ghost'"), std::string::npos)
      << r.error;

  // Malformed directive (missing the delta path).
  std::string malformed =
      WriteFixture("cli_batch_appbad.txt", "dataset months " + path_ +
                                               "\nappend months\n");
  r = RunCli({"batch", malformed});
  std::remove(malformed.c_str());
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.error.find("append <name> <delta.csv>"), std::string::npos)
      << r.error;

  // A delta file that cannot be read fails the whole batch up front.
  std::string missing = WriteFixture(
      "cli_batch_appmissing.txt",
      "dataset months " + path_ + "\nappend months /no/such/delta.csv\n"
      "@months fastod\n");
  r = RunCli({"batch", missing});
  std::remove(missing.c_str());
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.error.find("append to 'months'"), std::string::npos)
      << r.error;
}

TEST_F(CliTest, BatchUnknownDatasetReferenceFailsThatJobOnly) {
  std::string manifest = WriteFixture(
      "cli_batch_badref.txt",
      "@ghost fastod\n" + path_ + " tane\n");
  CliResult r = RunCli({"batch", manifest});
  std::remove(manifest.c_str());
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.output.find("ghost"), std::string::npos);
  // The healthy job still completed.
  EXPECT_NE(r.output.find("[2] tane"), std::string::npos);
  EXPECT_NE(r.output.find("done"), std::string::npos);
}

TEST_F(CliTest, BatchRejectsBadDatasetDirectives) {
  std::string missing_file = WriteFixture(
      "cli_batch_dsmissing.txt",
      "dataset months /no/such/file.csv\n@months fastod\n");
  CliResult r = RunCli({"batch", missing_file});
  std::remove(missing_file.c_str());
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.error.find("months"), std::string::npos);

  std::string malformed = WriteFixture("cli_batch_dsbad.txt",
                                       "dataset only-a-name\n");
  r = RunCli({"batch", malformed});
  std::remove(malformed.c_str());
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.error.find("dataset <name> <file.csv>"), std::string::npos);

  std::string duplicate = WriteFixture(
      "cli_batch_dsdup.txt",
      "dataset m " + path_ + "\ndataset m " + path_ + "\n@m fastod\n");
  r = RunCli({"batch", duplicate});
  std::remove(duplicate.c_str());
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.error.find("defined twice"), std::string::npos);
}

TEST_F(CliTest, BatchRejectsMalformedManifest) {
  std::string manifest = WriteFixture("cli_batch_bad.txt", "just-one-token\n");
  CliResult r = RunCli({"batch", manifest});
  std::remove(manifest.c_str());
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.error.find("manifest line 1"), std::string::npos);
}

TEST_F(CliTest, BatchMissingManifestFails) {
  CliResult r = RunCli({"batch", "/no/such/manifest.txt"});
  EXPECT_EQ(r.exit_code, 1);
  EXPECT_NE(r.error.find("manifest"), std::string::npos);
}

TEST_F(CliTest, UsageMentionsNewCommands) {
  CliResult r = RunCli({"help"});
  EXPECT_NE(r.output.find("fastod batch"), std::string::npos);
  EXPECT_NE(r.output.find("fastod algorithms"), std::string::npos);
  EXPECT_NE(r.output.find("fastod serve"), std::string::npos);
}

// `serve` blocks until signalled, so tests only cover its argument
// validation; the full server lifecycle is exercised in server_test.cc.
TEST_F(CliTest, ServeRejectsBadFlags) {
  CliResult bad_port = RunCli({"serve", "--port=70000"});
  EXPECT_EQ(bad_port.exit_code, 1);
  EXPECT_NE(bad_port.error.find("--port"), std::string::npos);

  CliResult bad_threads = RunCli({"serve", "--threads=-1"});
  EXPECT_EQ(bad_threads.exit_code, 1);
  EXPECT_NE(bad_threads.error.find("--threads"), std::string::npos);

  CliResult bad_http = RunCli({"serve", "--http-threads=0"});
  EXPECT_EQ(bad_http.exit_code, 1);
  EXPECT_NE(bad_http.error.find("--http-threads"), std::string::npos);

  CliResult bad_budget = RunCli({"serve", "--dataset-budget-mb=-1"});
  EXPECT_EQ(bad_budget.exit_code, 1);
  EXPECT_NE(bad_budget.error.find("--dataset-budget-mb"),
            std::string::npos);

  CliResult positional = RunCli({"serve", "extra"});
  EXPECT_EQ(positional.exit_code, 1);
  EXPECT_NE(positional.error.find("positional"), std::string::npos);

  CliResult bad_host = RunCli({"serve", "--host=not-an-ip", "--port=0"});
  EXPECT_EQ(bad_host.exit_code, 1);
  EXPECT_NE(bad_host.error.find("address"), std::string::npos);

  CliResult unknown = RunCli({"serve", "--nope=1"});
  EXPECT_EQ(unknown.exit_code, 1);
}

TEST_F(CliTest, DiscoverStatsAppendsSearchCounters) {
  CliResult r = RunCli({"discover", path_, "--stats"});
  EXPECT_EQ(r.exit_code, 0) << r.error;
  // The discovery report stays first; the stats block follows it.
  EXPECT_NE(r.output.find("FASTOD:"), std::string::npos);
  EXPECT_NE(r.output.find("search stats:"), std::string::npos);
  EXPECT_NE(r.output.find("nodes visited"), std::string::npos);
  EXPECT_NE(r.output.find("refuted by a sampled swap"), std::string::npos);
  EXPECT_NE(r.output.find(" puts, "), std::string::npos) << r.output;
  EXPECT_NE(r.output.find(" reused\n"), std::string::npos) << r.output;
  EXPECT_NE(r.output.find("level 1:"), std::string::npos);

  // Without the flag, no stats block.
  CliResult plain = RunCli({"discover", path_});
  EXPECT_EQ(plain.output.find("search stats:"), std::string::npos);
}

TEST_F(CliTest, DiscoverStatsJsonEmbedsTrace) {
  CliResult r = RunCli({"discover", path_, "--stats", "--output=json"});
  EXPECT_EQ(r.exit_code, 0) << r.error;
  EXPECT_NE(r.output.find("\"trace\":"), std::string::npos) << r.output;
  // The fused CSV-to-codes load keeps its three ingest spans, then the
  // dataset's level-1 partitions, in order and before the run.
  const size_t read = r.output.find("\"csv.read\"");
  const size_t tokenize = r.output.find("\"csv.tokenize\"");
  const size_t encode = r.output.find("\"encode\"");
  const size_t level1 = r.output.find("\"partitions.level1\"");
  const size_t execute = r.output.find("\"execute\"");
  ASSERT_NE(read, std::string::npos) << r.output;
  ASSERT_NE(execute, std::string::npos) << r.output;
  EXPECT_LT(read, tokenize) << r.output;
  EXPECT_LT(tokenize, encode) << r.output;
  EXPECT_LT(encode, level1) << r.output;
  EXPECT_LT(level1, execute) << r.output;
  EXPECT_NE(r.output.find("\"nodes_visited\""), std::string::npos);

  CliResult bad = RunCli({"discover", path_, "--stats=maybe"});
  EXPECT_EQ(bad.exit_code, 1);
  EXPECT_NE(bad.error.find("--stats"), std::string::npos);
}

// A column alternating numbers and NaN is not constant: discover must not
// report {}: [] -> a, and FASTOD agrees with the brute-force oracle.
TEST_F(CliTest, DiscoverDoesNotReportNanColumnConstant) {
  std::string csv = "a,b\n";
  for (int i = 0; i < 40; ++i) {
    csv += i % 2 == 0 ? std::to_string(i) : "nan";
    csv += "," + std::to_string(i % 3) + "\n";
  }
  const std::string path = WriteFixture("cli_nan.csv", csv);
  CliResult fastod = RunCli({"discover", path});
  CliResult brute = RunCli({"discover", path, "--algorithm=brute-force"});
  std::remove(path.c_str());
  ASSERT_EQ(fastod.exit_code, 0) << fastod.error;
  ASSERT_EQ(brute.exit_code, 0) << brute.error;
  EXPECT_EQ(fastod.output.find("-> a"), std::string::npos) << fastod.output;
  // Same counts line from both engines ("N ODs (...)").
  auto counts = [](const std::string& out) {
    size_t begin = out.find(": ");
    return out.substr(begin, out.find(" in ") - begin);
  };
  EXPECT_EQ(counts(fastod.output), counts(brute.output));
}

}  // namespace
}  // namespace fastod
