// Multi-process scale-out execution: one site per OS process over the TCP
// transport.
//
// Model. Every process rebuilds the FULL query topology from the same
// (query, scale factor, seed) — deterministic assembly makes channel ids
// (a channel's index in DistributedQuery::channels) and sender slots agree
// across processes — then WireTransport moves the local site off its sim
// endpoint onto the TCP one: channels the site consumes are bound there,
// its senders' edges are reopened there (a same-site edge is the
// endpoint's loopback, the rest cross sockets), and its AIP filters ship
// from there. Only the local site's fragments run.
//
// Coordinator. RunMultiProcess forks one `pushsip_site` child per site
// (ports pre-assigned on loopback). Each child prints one `REPORT <hex>`
// line: its SiteReport (stats, the root's serialized sorted answer, trace
// events). The coordinator folds the stats with DistQueryStats::Merge —
// the same shape an in-process run reports, so callers compare the two
// runs directly.
#ifndef PUSHSIP_DIST_MULTI_PROCESS_H_
#define PUSHSIP_DIST_MULTI_PROCESS_H_

#include <memory>
#include <string>
#include <vector>

#include "dist/scale_out.h"
#include "net/transport/tcp_transport.h"

namespace pushsip {

/// Moves site transport->local_site() of `q` onto `transport`: binds every
/// channel that site consumes, makes the endpoint the site's own (its
/// filter handler delivers to the site, and the site's filter shippers
/// ship from it), and reopens every edge of the site's senders on it.
/// Requires the channels' consumer sites to be recorded (the
/// PlanFragmenter does) and must run before transport->Start().
Status WireTransport(DistributedQuery& q,
                     const std::shared_ptr<Transport>& transport);

/// Single-process TCP execution: creates one TcpTransport endpoint per
/// site of `q` inside this process (loopback, ephemeral ports), moves
/// every site onto its endpoint (WireTransport), starts everything, and
/// sets `q.transport` to the returned composite endpoint (local_site = -1,
/// so one supervisor runs all fragments; Heal/Shutdown fan out, TotalUsage
/// sums the endpoints).
///
/// This is the TCP mode stateful fragment recovery operates under: the
/// checkpoints live with the single supervisor while exchange payloads and
/// AIP filters cross real sockets, the payloads under credit flow control.
Result<std::shared_ptr<Transport>> WireInProcessTcp(
    DistributedQuery& q, uint32_t credit_window = 64);

/// What one site process executes.
struct SiteProcessOptions {
  ScaleOutQuery query = ScaleOutQuery::kQ17;
  double scale_factor = 0.005;
  uint64_t seed = 42;
  int num_sites = 4;
  int site = 0;  ///< this process's site id
  bool aip = true;
  bool weak_part_filter = true;
  bool deterministic_merge = true;
  size_t batch_size = 1024;
  /// Receiver heartbeat (ScaleOutOptions::exchange_idle_timeout_sec);
  /// chaos tests shorten it so a stranded receiver fails fast.
  double exchange_idle_timeout_sec = 30.0;
};

/// What one site process reports to the coordinator.
struct SiteReport {
  DistQueryStats stats;
  /// Root site only: the serialized (standalone SerializeBatch, rows
  /// sorted) result batch — the bit-comparable answer.
  std::string rows_wire;
  /// The site's serialized Chrome trace events; empty when not tracing.
  std::string trace_events;
};

/// Builds the full topology, wires the cross-process edges over
/// `transport` (already listening, peers set; Start happens here), runs
/// the local site's fragments, and shuts the transport down. Works with
/// any Transport backend — the in-process conformance tests drive it with
/// one TcpTransport per thread.
Result<SiteReport> RunScaleOutSite(const SiteProcessOptions& options,
                                   std::shared_ptr<Transport> transport);

// --- the coordinator <-> site process protocol ---

/// The report's bytes: every counter in DistQueryStats::ForEachCounter
/// order (doubles bit-exact), then the length-prefixed answer and trace.
std::string EncodeSiteReport(const SiteReport& report);
/// Fails closed: truncation, a bad length, or trailing bytes is a Status.
Result<SiteReport> DecodeSiteReport(const std::string& bytes);

std::string HexEncode(const std::string& bytes);
Result<std::string> HexDecode(const std::string& hex);

/// The `--peers` value: "0=127.0.0.1:5000,1=127.0.0.1:5001".
std::string FormatPeers(const std::vector<TcpPeer>& peers);
/// Inverse of FormatPeers. Rejects empty entries and hosts, non-numeric
/// fields, sites outside [0, 64) and ports outside [1, 65535].
Result<std::vector<TcpPeer>> ParsePeers(const std::string& spec);

/// One whole multi-process run, as the coordinator sees it.
struct MultiProcessOptions {
  ScaleOutQuery query = ScaleOutQuery::kQ17;
  double scale_factor = 0.005;
  uint64_t seed = 42;
  int num_sites = 4;
  bool aip = true;
  bool weak_part_filter = true;
  bool deterministic_merge = true;
  uint32_t credit_window = 64;
  size_t batch_size = 1024;
  /// Path to the pushsip_site executable; empty = search next to this
  /// executable (FindSiteBinary).
  std::string site_binary;
  /// Ask every site process to trace its run and return the events in its
  /// report. Site timestamps are aligned to the coordinator's trace epoch
  /// (obs::Trace), so the merged events share one time axis.
  bool trace = false;
};

struct MultiProcessResult {
  /// `per_site` folded with DistQueryStats::Merge: elapsed is the slowest
  /// site, counters are summed.
  DistQueryStats stats;
  /// Each site's own report, index = site id (per-session breakdowns).
  std::vector<DistQueryStats> per_site;
  std::string rows_wire;  ///< the root site's serialized result batch
  /// With `trace`: the sites' serialized Chrome trace events, comma-joined
  /// (append to the coordinator's own via TraceBuffer::WriteChromeJson).
  std::string trace_events_json;
};

/// Locates pushsip_site relative to /proc/self/exe ("." and "../tools");
/// empty string when not found.
std::string FindSiteBinary();

/// Forks one pushsip_site per site on loopback, waits for all of them, and
/// folds their reports. Any child failing (nonzero exit, missing or
/// undecodable report) fails the whole run.
Result<MultiProcessResult> RunMultiProcess(const MultiProcessOptions& options);

}  // namespace pushsip

#endif  // PUSHSIP_DIST_MULTI_PROCESS_H_
