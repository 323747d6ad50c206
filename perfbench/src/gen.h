// Seeded CSV text generators for the benchmark workloads.
//
// The benchmark hands the program only CSV text, so the inputs are
// produced here rather than by the library's own generators: a change to
// src/gen/ must not silently change what the benchmark measures. The
// recipes follow shapes the paper evaluates on (flight, ncvoter), with
// every structural parameter fixed and only cell values
// drawn from the seed, so the lattice work varies little between seeds.
#ifndef PERFBENCH_GEN_H_
#define PERFBENCH_GEN_H_

#include <cstdint>
#include <string>

namespace perfbench {

/// flight-like, 12 columns: constant year, two keys, a month/quarter
/// hierarchy over the row order, day, carrier/origin/dest categories, a
/// route -> distance -> duration chain, and a delay column. Emits rows
/// [first_row, first_row + rows) of a relation whose month advances every
/// `rows_per_year / 12` rows (0 = `rows`). A block with first_row > 0 is
/// an append delta: no header row, and its own random stream.
std::string FlightCsv(int64_t rows, uint64_t seed, int64_t first_row = 0,
                      int64_t rows_per_year = 0);

/// ncvoter-like, 10 columns: voter key, name pools, city -> zip FD,
/// precinct, an age/birth-year descending pair, status, registration day.
std::string NcvoterCsv(int64_t rows, uint64_t seed);

}  // namespace perfbench

#endif  // PERFBENCH_GEN_H_
