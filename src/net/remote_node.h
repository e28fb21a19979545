// RemoteNode: a named peer engine hosting tables behind a SimLink. Scans of
// remote tables are charged link bandwidth per batch; AIP source filters
// attached to such scans prune *before* the link (adaptive Bloomjoin).
#ifndef PUSHSIP_NET_REMOTE_NODE_H_
#define PUSHSIP_NET_REMOTE_NODE_H_

#include <memory>
#include <string>

#include "exec/scan.h"
#include "net/sim_link.h"

namespace pushsip {

/// \brief A remote site: tables reachable only through its link.
class RemoteNode {
 public:
  RemoteNode(std::string name, double bandwidth_bps, double latency_ms = 0.5)
      : name_(std::move(name)),
        link_(std::make_shared<SimLink>(bandwidth_bps, latency_ms)) {}

  const std::string& name() const { return name_; }
  const std::shared_ptr<SimLink>& link() const { return link_; }

  /// Decorates scan options so every emitted batch crosses this node's link
  /// (billed to the scanning query's ExecContext).
  ScanOptions WrapScanOptions(ScanOptions base = {}) const {
    base.link = link_;
    return base;
  }

 private:
  std::string name_;
  std::shared_ptr<SimLink> link_;
};

}  // namespace pushsip

#endif  // PUSHSIP_NET_REMOTE_NODE_H_
