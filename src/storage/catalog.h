// Catalog: the registry of named base tables. Each entry is a versioned
// TablePtr (ReplaceTable swaps in new rows and bumps the version) plus the
// table's round-robin shards, computed once per (version, site count) on
// first request and dropped with the version or the catalog.
#ifndef PUSHSIP_STORAGE_CATALOG_H_
#define PUSHSIP_STORAGE_CATALOG_H_

#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <utility>
#include <vector>

#include "storage/table.h"

namespace pushsip {

/// A (table, version) snapshot taken atomically under the catalog lock.
/// `version` starts at 1 on registration and increments on every
/// ReplaceTable, so it keys cached derived artifacts (AIP summaries): a
/// summary labeled with the version it was built from can never be
/// mistaken for one over regenerated data.
struct VersionedTable {
  TablePtr table;
  uint64_t version = 0;
};

/// \brief Registry of base tables available to queries.
///
/// Thread-safe: the serving layer shares one catalog across concurrent
/// sessions and may regenerate tables between queries. Tables themselves
/// stay immutable — "mutation" is replacing the TablePtr, which bumps the
/// version while in-flight queries keep scanning their old snapshot.
class Catalog {
 public:
  Status RegisterTable(TablePtr table);

  /// Swaps the table registered under `table->name()` for `table`, bumps
  /// its version and drops the old version's shards (holders keep theirs).
  /// NotFound if no table of that name was ever registered.
  Status ReplaceTable(TablePtr table);

  /// The current version of `name` round-robin-sharded `num_sites` ways
  /// (ShardRoundRobin): shared, immutable tables, computed on the first
  /// call for this (version, site count) and returned as the same pointers
  /// until ReplaceTable. The shards are computed outside the catalog lock;
  /// of concurrent first callers, the first to publish wins and the others
  /// adopt its set. NotFound if absent; InvalidArgument if num_sites < 1.
  Result<std::vector<TablePtr>> Shards(const std::string& name,
                                       int num_sites) const;

  Result<TablePtr> GetTable(const std::string& name) const;

  /// Atomic (table, version) snapshot — the two must be read under one
  /// lock: pairing a new version with an older TablePtr (or vice versa)
  /// would let a cached summary carry a version it was not built from.
  Result<VersionedTable> GetTableWithVersion(const std::string& name) const;

  /// Current version of `name` (0 if absent).
  uint64_t TableVersion(const std::string& name) const;

  bool HasTable(const std::string& name) const;

  std::vector<std::string> TableNames() const;

  /// Total bytes across all registered tables.
  size_t FootprintBytes() const;

 private:
  struct Entry {
    VersionedTable current;
    /// The current version's shards by site count: a memo owned by the
    /// entry, so it dies with the version and with the catalog.
    mutable std::map<int, std::vector<TablePtr>> shards;
  };

  mutable std::mutex mu_;
  std::unordered_map<std::string, Entry> tables_;
};

}  // namespace pushsip

#endif  // PUSHSIP_STORAGE_CATALOG_H_
