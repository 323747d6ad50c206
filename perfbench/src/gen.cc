#include "gen.h"

#include <algorithm>
#include <charconv>
#include <initializer_list>
#include <vector>

namespace perfbench {

namespace {

// splitmix64: a fixed algorithm, so the same seed gives the same CSV text
// on every platform and standard library.
class Rng {
 public:
  explicit Rng(uint64_t seed)
      : state_(seed * 0x9e3779b97f4a7c15ULL + 0x632be59bd9b4e019ULL) {}

  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
  }

  /// Uniform in [0, bound); bound > 0.
  int64_t Uniform(int64_t bound) {
    return static_cast<int64_t>(Next() % static_cast<uint64_t>(bound));
  }

 private:
  uint64_t state_;
};

// Equal inputs give equal outputs, but the order is destroyed: plants an
// FD without an order compatibility.
int64_t Scramble(int64_t v, uint64_t salt) {
  uint64_t z = static_cast<uint64_t>(v) * 0x9e3779b97f4a7c15ULL + salt;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  return static_cast<int64_t>((z ^ (z >> 27)) & 0x7fffffff);
}

class CsvText {
 public:
  explicit CsvText(size_t reserve) { out_.reserve(reserve); }

  void Header(std::initializer_list<const char*> names) {
    for (const char* name : names) {
      Separate();
      out_ += name;
    }
    EndRow();
  }

  void Int(int64_t v) {
    Separate();
    char buf[24];
    auto end = std::to_chars(buf, buf + sizeof(buf), v).ptr;
    out_.append(buf, end);
  }

  // Prefix plus a zero-padded six-digit id, so text order equals id order.
  void Pooled(const char* prefix, int64_t id) {
    Separate();
    out_ += prefix;
    char buf[24];
    auto end = std::to_chars(buf, buf + sizeof(buf), id).ptr;
    size_t digits = static_cast<size_t>(end - buf);
    if (digits < 6) out_.append(6 - digits, '0');
    out_.append(buf, end);
  }

  void EndRow() {
    out_ += '\n';
    first_ = true;
  }

  std::string Take() { return std::move(out_); }

 private:
  void Separate() {
    if (!first_) out_ += ',';
    first_ = false;
  }

  std::string out_;
  bool first_ = true;
};

}  // namespace

std::string FlightCsv(int64_t rows, uint64_t seed, int64_t first_row,
                      int64_t rows_per_year) {
  if (rows_per_year <= 0) rows_per_year = std::max<int64_t>(rows, 1);
  Rng rng(seed ^ (static_cast<uint64_t>(first_row) * 0xd1b54a32d192ed03ULL));
  CsvText csv(static_cast<size_t>(rows) * 72 + 128);
  if (first_row == 0) {
    csv.Header({"year", "flight_id", "date_sk", "month", "quarter", "day",
                "carrier", "origin", "dest", "distance", "duration",
                "delay"});
  }
  for (int64_t r = first_row; r < first_row + rows; ++r) {
    const int64_t month = 1 + (r * 12) / rows_per_year;
    const int64_t carrier = rng.Uniform(8);
    const int64_t origin = rng.Uniform(50);
    const int64_t dest = rng.Uniform(50);
    const int64_t distance = 200 + Scramble(origin * 50 + dest, 7) % 3000;
    csv.Int(2012);
    csv.Int(r);
    csv.Int(r);
    csv.Int(month);
    csv.Int((month - 1) / 3 + 1);
    csv.Int(r % 30 + 1);
    csv.Pooled("CA", carrier);
    csv.Pooled("AP", origin);
    csv.Pooled("AP", dest);
    csv.Int(distance);
    csv.Int(distance / 8 + 30);
    csv.Int(rng.Uniform(131) - 10);
    csv.EndRow();
  }
  return csv.Take();
}

std::string NcvoterCsv(int64_t rows, uint64_t seed) {
  Rng rng(seed + 0x5851f42d4c957f2dULL);
  CsvText csv(static_cast<size_t>(rows) * 72 + 128);
  csv.Header({"voter_id", "last_name", "first_name", "city", "zip",
              "precinct", "age", "birth_year", "status", "reg_date"});
  const int64_t name_pool = std::max<int64_t>(2, rows / 2);
  for (int64_t r = 0; r < rows; ++r) {
    const int64_t city = rng.Uniform(80);
    const int64_t age = 18 + rng.Uniform(83);
    csv.Int(r);
    csv.Pooled("LN", rng.Uniform(name_pool));
    csv.Pooled("FN", rng.Uniform(200));
    csv.Pooled("CI", city);
    csv.Int(27000 + city * 9 + Scramble(city, 3) % 9);
    csv.Int(city * 10 + rng.Uniform(10));
    csv.Int(age);
    csv.Int(2016 - age);  // descending with age: swaps everywhere
    csv.Pooled("ST", rng.Uniform(3));
    csv.Int(rng.Uniform(3650));
    csv.EndRow();
  }
  return csv.Take();
}

}  // namespace perfbench
