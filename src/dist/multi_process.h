// Multi-process scale-out execution: one site per OS process over the TCP
// transport.
//
// Model. Every process rebuilds the FULL query topology from the same
// (query, scale factor, seed) — deterministic assembly makes channel ids
// (a channel's index in DistributedQuery::channels) and sender slots agree
// across processes — then WireTransport reroutes exactly the exchange
// edges that cross a process boundary: channels this site consumes are
// bound on the transport, local senders feeding remote consumers get a
// transport ChannelSender, and everything site-local keeps the direct
// in-process queue. Only the local site's fragments run.
//
// Coordinator. RunMultiProcess forks one `pushsip_site` child per site
// (ports pre-assigned on loopback), collects each child's STATS line and
// the root site's ROWS line (hex of the serialized, sorted result batch),
// and folds them into one DistQueryStats — the same shape an in-process
// run reports, so callers compare the two runs directly.
#ifndef PUSHSIP_DIST_MULTI_PROCESS_H_
#define PUSHSIP_DIST_MULTI_PROCESS_H_

#include <memory>
#include <string>
#include <vector>

#include "dist/scale_out.h"
#include "net/transport/tcp_transport.h"

namespace pushsip {

/// Reroutes the cross-process exchange edges of `q` over `transport`:
/// binds every channel consumed at transport->local_site() and gives every
/// local sender destination whose consumer lives elsewhere a transport
/// ChannelSender. Requires the channels' consumer sites to be recorded
/// (the scale-out builder does) and must run before transport->Start().
Status WireTransport(DistributedQuery& q,
                     const std::shared_ptr<Transport>& transport);

/// Single-process TCP execution: creates one TcpTransport endpoint per
/// site of `q` inside this process (loopback, ephemeral ports), reroutes
/// every cross-site exchange edge over them, installs per-site filter
/// handlers, starts everything, and sets `q.transport` to the returned
/// composite endpoint (local_site = -1, so one supervisor runs all
/// fragments; Heal/Shutdown fan out, TotalUsage sums the endpoints).
///
/// This is the TCP mode stateful fragment recovery operates under: the
/// checkpoints live with the single supervisor while exchange payloads
/// cross real sockets with credit flow control. AIP filters still ship
/// via the sim-mesh shippers the assembly installed (direct in-process
/// attach) unless the query was built with ScaleOutOptions::transport.
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

struct SiteRunResult {
  DistQueryStats stats;
  /// Root site only: the serialized (standalone v2 SerializeBatch, rows
  /// sorted) result batch — the bit-comparable answer.
  std::string rows_wire;
};

/// Builds the full topology, wires the cross-process edges over
/// `transport` (already listening, peers set; Start happens here), runs
/// the local site's fragments, and shuts the transport down. Works with
/// any Transport backend — the in-process conformance tests drive it with
/// one TcpTransport per thread.
Result<SiteRunResult> RunScaleOutSite(const SiteProcessOptions& options,
                                      std::shared_ptr<Transport> transport);

// --- the coordinator <-> site process text protocol ---

/// "STATS k=v ..." with doubles in hexfloat (lossless round-trip).
std::string EncodeStatsLine(const DistQueryStats& stats);
Result<DistQueryStats> ParseStatsLine(const std::string& line);

std::string HexEncode(const std::string& bytes);
Result<std::string> HexDecode(const std::string& hex);

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
  /// Ask every site process to trace its run and report the events on a
  /// TRACE stdout line. Site timestamps are aligned to the coordinator's
  /// trace epoch (obs::Trace), so the merged events share one time axis.
  bool trace = false;
};

struct MultiProcessResult {
  /// Folded over all sites: elapsed is the slowest site, counters are
  /// summed.
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
/// folds their reports. Any child failing (nonzero exit, unparsable
/// report) fails the whole run.
Result<MultiProcessResult> RunMultiProcess(const MultiProcessOptions& options);

}  // namespace pushsip

#endif  // PUSHSIP_DIST_MULTI_PROCESS_H_
