#include "storage/catalog.h"

#include <algorithm>

namespace pushsip {

Status Catalog::RegisterTable(TablePtr table) {
  if (!table) return Status::InvalidArgument("null table");
  const std::string name = table->name();
  std::lock_guard<std::mutex> lock(mu_);
  if (!tables_.emplace(name, Entry{{std::move(table), 1}, {}}).second) {
    return Status::AlreadyExists("table already registered: " + name);
  }
  return Status::OK();
}

Status Catalog::ReplaceTable(TablePtr table) {
  if (!table) return Status::InvalidArgument("null table");
  const std::string name = table->name();
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table named " + name);
  VersionedTable& current = it->second.current;
  current.table = std::move(table);
  ++current.version;
  it->second.shards.clear();
  return Status::OK();
}

Result<std::vector<TablePtr>> Catalog::Shards(const std::string& name,
                                              int num_sites) const {
  if (num_sites < 1) return Status::InvalidArgument("num_sites < 1");
  VersionedTable snapshot;
  {
    std::lock_guard<std::mutex> lock(mu_);
    const auto it = tables_.find(name);
    if (it == tables_.end()) return Status::NotFound("no table named " + name);
    const auto memo = it->second.shards.find(num_sites);
    if (memo != it->second.shards.end()) return memo->second;
    snapshot = it->second.current;
  }
  std::vector<TablePtr> fresh = ShardRoundRobin(*snapshot.table, num_sites);
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tables_.find(name);  // entries are never erased
  if (it->second.current.version != snapshot.version) {
    // Replaced meanwhile: these shards are of the snapshot, which the
    // catalog no longer holds, so they are the caller's alone.
    return fresh;
  }
  return it->second.shards.emplace(num_sites, std::move(fresh)).first->second;
}

Result<TablePtr> Catalog::GetTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table named " + name);
  return it->second.current.table;
}

Result<VersionedTable> Catalog::GetTableWithVersion(
    const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tables_.find(name);
  if (it == tables_.end()) return Status::NotFound("no table named " + name);
  return it->second.current;
}

uint64_t Catalog::TableVersion(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  const auto it = tables_.find(name);
  return it == tables_.end() ? 0 : it->second.current.version;
}

bool Catalog::HasTable(const std::string& name) const {
  std::lock_guard<std::mutex> lock(mu_);
  return tables_.count(name) > 0;
}

std::vector<std::string> Catalog::TableNames() const {
  std::lock_guard<std::mutex> lock(mu_);
  std::vector<std::string> names;
  names.reserve(tables_.size());
  for (const auto& [name, _] : tables_) names.push_back(name);
  std::sort(names.begin(), names.end());
  return names;
}

size_t Catalog::FootprintBytes() const {
  std::lock_guard<std::mutex> lock(mu_);
  size_t bytes = 0;
  for (const auto& [_, entry] : tables_) {
    bytes += entry.current.table->FootprintBytes();
  }
  return bytes;
}

}  // namespace pushsip
