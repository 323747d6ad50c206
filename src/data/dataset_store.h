// Load-once, discover-many: a process-wide registry of immutable loaded
// relations shared across discovery sessions.
//
// Every DiscoverySession used to parse, type-infer and dictionary-encode
// its own CSV; a server answering repeated discoveries over the same
// relation paid that preprocessing per request. TANE-style systems show
// input preparation and partition construction dominating at scale, so a
// LoadedDataset captures the whole pipeline once — the columnar
// EncodedRelation (per-column interned value dictionary plus contiguous
// uint32 code column) and the level-1 single-attribute stripped
// partitions Π*_{A} every level-wise engine builds first — and any number
// of sessions (concurrent, mixed-algorithm) run over the same instance by
// shared_ptr. It is also the only form in which an engine receives data
// (Algorithm::BindDataset): a one-off run builds a dataset of its own.
//
// The DatasetStore is the registry: datasets are keyed by caller-chosen
// id, the store holds one reference each, and sessions pin entries simply
// by holding the shared_ptr Get() returned. A configurable memory budget
// bounds residency: when an insert would exceed it, the store evicts
// unpinned entries (use_count == 1, i.e. no live session) in
// least-recently-used order; pinned entries are never evicted — an insert
// that cannot fit even after evicting everything unpinned is refused with
// ResourceExhausted rather than destroying data under running sessions.
// Eviction only drops the store's reference: a session that raced its
// dataset into eviction keeps it alive until the run finishes.
//
// All DatasetStore methods are thread-safe. LoadedDataset is deeply
// immutable after construction, so shared use across threads needs no
// further synchronization.
#ifndef FASTOD_DATA_DATASET_STORE_H_
#define FASTOD_DATA_DATASET_STORE_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "data/csv.h"
#include "data/encode.h"
#include "obs/trace.h"
#include "partition/stripped_partition.h"

namespace fastod {

/// One fully preprocessed relation: dictionary-interned columnar encoding
/// plus the level-1 partitions. Construction does all the work; the
/// object never changes. Values survive only interned in the per-column
/// dictionaries.
///
/// Datasets are *versioned*: Build() produces version 1, and Append()
/// derives version k+1 from version k plus a block of delta rows. Each
/// version is itself deeply immutable — an append never mutates its
/// parent, it merge-encodes only the delta rows against the parent's
/// value dictionaries (shifting existing codes where new values
/// interleave) and rebuilds the level-1 partitions linearly, so sessions
/// running over the parent are undisturbed and a new session sees the
/// grown relation.
class LoadedDataset {
 public:
  /// Takes `relation` and prebuilds Π*_{A} for every attribute A.
  /// `source` is a human-readable provenance note
  /// ("csv:/data/flight.csv", ...). With a `trace`, records the level-1
  /// partition build as the span partitions.level1.
  static std::shared_ptr<const LoadedDataset> Build(
      std::string id, EncodedRelation relation, std::string source,
      obs::TraceRecorder* trace = nullptr);

  /// The CSV load path: tokenizes and interns `text` and encodes the
  /// interned fields directly (EncodeCsvString), never building a Table
  /// or a Value. A load of at least 2^16 cells tokenizes, encodes and
  /// builds its level-1 partitions on one pool private to the load
  /// (data/encode.h).
  static Result<std::shared_ptr<const LoadedDataset>> LoadCsv(
      std::string id, std::string_view text, const CsvOptions& options,
      std::string source);
  /// The same for a file (EncodeCsvFile, then Build); the source is
  /// "csv:<path>". With a `trace`, records the csv.read, csv.tokenize,
  /// encode and partitions.level1 spans.
  static Result<std::shared_ptr<const LoadedDataset>> LoadCsvFile(
      std::string id, const std::string& path, const CsvOptions& options,
      obs::TraceRecorder* trace = nullptr);

  /// Version base->version()+1: `base`'s rows followed by `delta`'s rows
  /// (column count must match; `base`'s schema wins). The delta, encoded
  /// on its own, is merged against the parent's value dictionaries —
  /// O(rows) integer work plus one walk over both sorted dictionaries —
  /// and the resulting codes and merged dictionaries are bit-for-bit
  /// what encoding the concatenated rows from scratch would produce. An
  /// empty delta yields a new (identical but renumbered) version.
  static Result<std::shared_ptr<const LoadedDataset>> Append(
      const std::shared_ptr<const LoadedDataset>& base,
      const EncodedRelation& delta);

  const std::string& id() const { return id_; }
  const std::string& source() const { return source_; }
  const EncodedRelation& relation() const { return relation_; }
  const Schema& schema() const { return relation_.schema(); }

  /// 1 for Build()-loaded datasets; parent version + 1 after Append().
  int64_t version() const { return version_; }
  /// Rows inherited from the parent version — the first delta row index
  /// of this version's append block. Equals NumRows() for version 1 (no
  /// append happened, the delta is empty).
  int64_t base_rows() const { return base_rows_; }
  /// Rows this version appended over its parent.
  int64_t delta_rows() const { return NumRows() - base_rows_; }

  /// Prebuilt Π*_{A} for attribute A (size NumAttributes()) — the exact
  /// partitions FASTOD/TANE would construct at lattice level 1, so
  /// engines seed their caches from here instead of rebuilding.
  const std::vector<StrippedPartition>& singleton_partitions() const {
    return singletons_;
  }

  int64_t NumRows() const { return relation_.NumRows(); }
  int NumAttributes() const { return relation_.NumAttributes(); }

  /// Exact resident footprint — code columns + value dictionaries +
  /// level-1 partitions, summed from the contiguous allocations — the
  /// unit the store's memory budget is accounted in.
  int64_t ApproxBytes() const { return approx_bytes_; }

 private:
  LoadedDataset() = default;

  /// Build, with the level-1 partitions built on `pool` when non-null.
  static std::shared_ptr<const LoadedDataset> BuildOn(
      std::string id, EncodedRelation relation, std::string source,
      obs::TraceRecorder* trace, ThreadPool* pool);

  /// Builds the level-1 partitions (one ParallelFor on `pool` when
  /// non-null) and the byte accounting of relation_.
  void Finish(obs::TraceRecorder* trace = nullptr, ThreadPool* pool = nullptr);

  std::string id_;
  std::string source_;
  EncodedRelation relation_;
  std::vector<StrippedPartition> singletons_;
  int64_t version_ = 1;
  int64_t base_rows_ = 0;
  int64_t approx_bytes_ = 0;
};

/// One resident (or session-retained) version of a dataset.
struct DatasetVersionInfo {
  int64_t version = 0;
  int64_t rows = 0;
  int64_t bytes = 0;
  /// True when a reference besides the store's is live (for retained
  /// superseded versions, always — sessions are the only thing keeping
  /// them alive).
  bool pinned = false;
  /// False for superseded versions the store no longer accounts for.
  bool current = false;
};

/// Snapshot row of DatasetStore::List(). `rows`/`bytes` describe the
/// current (latest) version; superseded versions still pinned by running
/// sessions are accounted separately so eviction telemetry stays truthful
/// after appends.
struct DatasetInfo {
  std::string id;
  std::string source;
  int64_t rows = 0;
  int columns = 0;
  int64_t bytes = 0;
  /// Get() calls served (sessions bound) since insertion.
  int64_t hits = 0;
  /// True when at least one reference besides the store's is live.
  bool pinned = false;
  /// Version of the current entry (1 until the first append).
  int64_t version = 1;
  /// Summed bytes of superseded versions kept alive by sessions — memory
  /// the process pays for beyond `bytes`, outside the store's budget.
  int64_t retained_bytes = 0;
  /// Every live version, current first, then retained ones descending.
  std::vector<DatasetVersionInfo> versions;
};

class DatasetStore {
 public:
  /// `budget_bytes` caps the summed ApproxBytes of resident datasets;
  /// 0 means unlimited.
  explicit DatasetStore(int64_t budget_bytes = 0);

  DatasetStore(const DatasetStore&) = delete;
  DatasetStore& operator=(const DatasetStore&) = delete;

  /// The process-wide store the C ABI (and any default-constructed
  /// service) shares. Unlimited budget until SetBudgetBytes.
  static DatasetStore& Global();

  // ---- Insertion ----------------------------------------------------
  /// Each Put preprocesses outside the lock, then registers the dataset
  /// under `id`. Duplicate ids are refused (FailedPrecondition) — ids
  /// name immutable data, so silently replacing one would redirect
  /// future sessions mid-stream. Returns the inserted dataset, pinned.
  /// PutCsvFile/PutCsvString go through LoadedDataset::LoadCsv: CSV bytes
  /// to code columns with no Table in between; Put inserts a dataset
  /// built elsewhere.
  Result<std::shared_ptr<const LoadedDataset>> Put(
      std::shared_ptr<const LoadedDataset> dataset);
  Result<std::shared_ptr<const LoadedDataset>> PutCsvFile(
      const std::string& id, const std::string& path,
      const CsvOptions& options = CsvOptions());
  Result<std::shared_ptr<const LoadedDataset>> PutCsvString(
      const std::string& id, const std::string& text,
      const CsvOptions& options = CsvOptions());

  // ---- Appends ------------------------------------------------------
  /// Appends `delta`'s rows to the dataset registered under `id`,
  /// installing the new version as the entry's current dataset. The
  /// superseded version leaves the store's budget accounting immediately
  /// but stays alive while running sessions pin it (and remains
  /// addressable through Get(id, version) until they let go). Returns
  /// the new version, pinned. Fails with NotFound for unknown ids,
  /// FailedPrecondition when another append raced this one, and
  /// ResourceExhausted when the grown dataset cannot fit the budget.
  /// AppendCsvString/AppendCsvFile encode the CSV delta first.
  Result<std::shared_ptr<const LoadedDataset>> AppendRows(
      const std::string& id, const EncodedRelation& delta);
  Result<std::shared_ptr<const LoadedDataset>> AppendCsvString(
      const std::string& id, const std::string& text,
      const CsvOptions& options = CsvOptions());
  Result<std::shared_ptr<const LoadedDataset>> AppendCsvFile(
      const std::string& id, const std::string& path,
      const CsvOptions& options = CsvOptions());

  // ---- Lookup -------------------------------------------------------
  /// The dataset registered under `id` (NotFound otherwise). Holding the
  /// returned pointer pins the entry against eviction; it stays valid
  /// even if the entry is evicted or erased afterwards.
  Result<std::shared_ptr<const LoadedDataset>> Get(const std::string& id);

  /// A specific version: the current one, or a superseded version still
  /// alive under a session's pin. `version` <= 0 means latest. NotFound
  /// when the version never existed or is no longer resident (superseded
  /// versions die with their last pinning session).
  Result<std::shared_ptr<const LoadedDataset>> Get(const std::string& id,
                                                   int64_t version);

  /// True iff `id` is resident. Unlike Get(), does not pin, bump the
  /// LRU clock, or count a hit — for existence probes (e.g. the
  /// server's auto-id generation).
  bool Contains(const std::string& id) const;

  /// One dataset's info row without snapshotting the whole store.
  Result<DatasetInfo> Info(const std::string& id) const;

  /// Drops the store's reference (NotFound for unknown ids). Live
  /// sessions keep the dataset alive; new Get()s fail.
  Status Erase(const std::string& id);

  /// Insertion-ordered snapshot (ids sort lexicographically).
  std::vector<DatasetInfo> List() const;

  // ---- Budget -------------------------------------------------------
  /// Re-bounds the store, evicting unpinned LRU entries as needed to get
  /// under the new budget (pinned entries may keep the total above it).
  void SetBudgetBytes(int64_t budget_bytes);
  int64_t budget_bytes() const;

  /// Summed ApproxBytes of resident datasets.
  int64_t TotalBytes() const;
  int64_t size() const;
  /// Total entries evicted by the budget (not Erase) since construction.
  int64_t evictions() const;

  /// Summed ApproxBytes of superseded versions still alive under session
  /// pins, across all entries (memory outside the budget).
  int64_t RetainedBytes() const;

 private:
  struct Entry {
    std::shared_ptr<const LoadedDataset> dataset;
    /// Superseded versions, oldest first. Weak: the store deliberately
    /// does not keep old versions alive — they live exactly as long as
    /// some session pins them, and expired slots are pruned lazily.
    std::vector<std::weak_ptr<const LoadedDataset>> history;
    uint64_t last_used = 0;
    int64_t hits = 0;
  };

  /// Evicts unpinned entries, LRU first, until `needed` fits under the
  /// budget or nothing unpinned remains. Caller holds mutex_.
  void EvictFor(int64_t needed);

  mutable std::mutex mutex_;
  std::map<std::string, Entry> datasets_;  // guarded by mutex_
  int64_t budget_bytes_ = 0;               // guarded by mutex_
  int64_t total_bytes_ = 0;                // guarded by mutex_
  int64_t evictions_ = 0;                  // guarded by mutex_
  uint64_t clock_ = 0;                     // guarded by mutex_
};

}  // namespace fastod

#endif  // FASTOD_DATA_DATASET_STORE_H_
