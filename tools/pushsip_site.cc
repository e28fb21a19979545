// pushsip_site: one site of a multi-process scale-out query.
//
// Every site process is started with the same (query, sf, seed) — it
// rebuilds the full topology deterministically, wires the cross-process
// exchange edges over the TCP transport, runs only its own fragments, and
// prints one line on stdout:
//   REPORT <hex>    this site's SiteReport (dist/multi_process.h): its
//                   DistQueryStats, site 0's serialized sorted answer, and
//                   its trace events (empty unless tracing)
//
// Flags (all assigned by the coordinator — see dist/multi_process.h):
//   --site=I --sites=N --query=q17|subquery --sf=F --seed=S
//   --port=P                this site's listen port (0 = ephemeral)
//   --peers=0=host:p,...    every site's address, including this one
//   --host=ADDR             listen address      (default 127.0.0.1)
//   --aip=0|1 --weak-filter=0|1 --merge=0|1 --window=W --batch=B
//   --trace-epoch=MICROS    trace this run from the coordinator's epoch
//   --trace-out=FILE        write this site's own Chrome trace JSON
#include <cstdio>
#include <cstring>
#include <string>

#include "dist/multi_process.h"
#include "obs/trace.h"

using namespace pushsip;

int main(int argc, char** argv) {
  SiteProcessOptions opts;
  TcpTransportOptions net;
  std::vector<TcpPeer> peers;
  std::string trace_out;
  int64_t trace_epoch = 0;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--site=", 0) == 0) {
      opts.site = std::atoi(arg.c_str() + 7);
    } else if (arg.rfind("--sites=", 0) == 0) {
      opts.num_sites = std::atoi(arg.c_str() + 8);
    } else if (arg == "--query=q17") {
      opts.query = ScaleOutQuery::kQ17;
    } else if (arg == "--query=subquery" || arg == "--query=subq") {
      opts.query = ScaleOutQuery::kSubquery;
    } else if (arg.rfind("--sf=", 0) == 0) {
      opts.scale_factor = std::atof(arg.c_str() + 5);
    } else if (arg.rfind("--seed=", 0) == 0) {
      opts.seed = static_cast<uint64_t>(std::atoll(arg.c_str() + 7));
    } else if (arg.rfind("--port=", 0) == 0) {
      net.listen_port = static_cast<uint16_t>(std::atoi(arg.c_str() + 7));
    } else if (arg.rfind("--host=", 0) == 0) {
      net.listen_host = arg.substr(7);
    } else if (arg.rfind("--peers=", 0) == 0) {
      auto parsed = ParsePeers(arg.substr(8));
      if (!parsed.ok()) {
        std::fprintf(stderr, "bad --peers: %s\n",
                     parsed.status().ToString().c_str());
        return 2;
      }
      peers = std::move(*parsed);
    } else if (arg.rfind("--aip=", 0) == 0) {
      opts.aip = std::atoi(arg.c_str() + 6) != 0;
    } else if (arg.rfind("--weak-filter=", 0) == 0) {
      opts.weak_part_filter = std::atoi(arg.c_str() + 14) != 0;
    } else if (arg.rfind("--merge=", 0) == 0) {
      opts.deterministic_merge = std::atoi(arg.c_str() + 8) != 0;
    } else if (arg.rfind("--window=", 0) == 0) {
      net.credit_window = static_cast<uint32_t>(std::atoi(arg.c_str() + 9));
    } else if (arg.rfind("--batch=", 0) == 0) {
      opts.batch_size = static_cast<size_t>(std::atoll(arg.c_str() + 8));
    } else if (arg.rfind("--trace-epoch=", 0) == 0) {
      trace_epoch = std::atoll(arg.c_str() + 14);
    } else if (arg.rfind("--trace-out=", 0) == 0) {
      trace_out = arg.substr(12);
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: pushsip_site --site=I --sites=N --port=P "
          "--peers=0=host:p,...\n  [--query=q17|subquery] [--sf=0.005] "
          "[--seed=42] [--host=127.0.0.1]\n  [--aip=1] [--weak-filter=1] "
          "[--merge=1] [--window=64] [--batch=1024]\n");
      return 0;
    } else {
      std::fprintf(stderr, "unknown flag %s (try --help)\n", arg.c_str());
      return 2;
    }
  }
  if (opts.num_sites < 1 || opts.site < 0 || opts.site >= opts.num_sites) {
    std::fprintf(stderr, "bad --site/--sites\n");
    return 2;
  }
  if (trace_epoch > 0 || !trace_out.empty()) {
    // Events are stamped relative to the coordinator's epoch so the merged
    // trace shares one time axis across processes.
    if (trace_epoch > 0) obs::Trace::SetEpochMicros(trace_epoch);
    obs::Trace::SetProcessId(opts.site);
    obs::Trace::Enable(true);
  }

  net.local_site = opts.site;
  net.num_sites = opts.num_sites;
  for (const TcpPeer& peer : peers) {
    if (peer.site != opts.site) net.peers.push_back(peer);
  }

  auto transport = std::make_shared<TcpTransport>(net);
  const Status listening = transport->Listen();
  if (!listening.ok()) {
    std::fprintf(stderr, "site %d listen failed: %s\n", opts.site,
                 listening.ToString().c_str());
    return 1;
  }
  std::fprintf(stderr, "site %d listening on %s:%u\n", opts.site,
               net.listen_host.c_str(), transport->listen_port());

  auto run = RunScaleOutSite(opts, transport);
  if (!run.ok()) {
    std::fprintf(stderr, "site %d failed: %s\n", opts.site,
                 run.status().ToString().c_str());
    return 1;
  }
  run->trace_events = obs::TraceBuffer::Global().SerializeEvents();
  std::printf("REPORT %s\n", HexEncode(EncodeSiteReport(*run)).c_str());
  if (!trace_out.empty() &&
      !obs::TraceBuffer::Global().WriteChromeJson(trace_out)) {
    std::fprintf(stderr, "site %d trace write failed: %s\n", opts.site,
                 trace_out.c_str());
  }
  std::fflush(stdout);
  return 0;
}
