#include "dist/multi_process.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <poll.h>
#include <signal.h>
#include <sys/socket.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <unordered_map>

#include "obs/trace.h"
#include "sip/aip_set.h"
#include "storage/tpch_generator.h"

namespace pushsip {

Status WireTransport(DistributedQuery& q,
                     const std::shared_ptr<Transport>& transport) {
  const int local = transport->local_site();
  std::unordered_map<const ExchangeChannel*, uint32_t> channel_id;
  for (size_t i = 0; i < q.channels.size(); ++i) {
    channel_id[q.channels[i].get()] = static_cast<uint32_t>(i);
  }
  // Channels this site consumes receive remote frames via the transport.
  for (size_t i = 0; i < q.channels.size(); ++i) {
    const auto& channel = q.channels[i];
    if (channel->consumer_site() < 0) {
      return Status::Internal("channel " + std::to_string(i) +
                              " has no recorded consumer site");
    }
    if (channel->consumer_site() == local) {
      PUSHSIP_RETURN_NOT_OK(
          transport->BindChannel(static_cast<uint32_t>(i), channel));
    }
  }
  // Local senders whose destination channel is consumed elsewhere get a
  // transport edge; site-local destinations keep the direct queue.
  for (const auto& site : q.sites) {
    if (site->id() != local) continue;
    for (const auto& fragment : site->fragments()) {
      for (const auto& op : fragment->operators()) {
        auto* sender = dynamic_cast<ExchangeSender*>(op.get());
        if (sender == nullptr) continue;
        const auto& dests = sender->destinations();
        for (size_t d = 0; d < dests.size(); ++d) {
          const auto it = channel_id.find(dests[d].channel.get());
          if (it == channel_id.end()) {
            return Status::Internal(
                "sender destination points at an unregistered channel");
          }
          const int consumer = q.channels[it->second]->consumer_site();
          if (consumer == local) continue;
          PUSHSIP_ASSIGN_OR_RETURN(
              std::shared_ptr<ChannelSender> remote,
              transport->OpenChannel(it->second, consumer));
          sender->SetRemote(d, std::move(remote));
        }
      }
    }
  }
  return Status::OK();
}

namespace {

/// The composite endpoint WireInProcessTcp returns: every site's
/// TcpTransport lives in this process, and the supervisor-facing calls
/// (Heal on recovery, TotalUsage for stats, Shutdown on teardown) fan out
/// across all of them. local_site() is -1 — the single-supervisor mode —
/// and the per-edge calls are invalid: wiring already happened on the
/// per-site endpoints.
class InProcessTcpSet : public Transport {
 public:
  explicit InProcessTcpSet(
      std::vector<std::shared_ptr<TcpTransport>> endpoints)
      : endpoints_(std::move(endpoints)) {}

  const char* backend() const override { return "tcp"; }
  int local_site() const override { return -1; }
  int num_sites() const override {
    return static_cast<int>(endpoints_.size());
  }

  Status Start() override {
    for (const auto& e : endpoints_) PUSHSIP_RETURN_NOT_OK(e->Start());
    return Status::OK();
  }
  void Shutdown() override {
    for (const auto& e : endpoints_) e->Shutdown();
  }

  Status BindChannel(uint32_t, std::shared_ptr<ExchangeChannel>) override {
    return Status::InvalidArgument("bind channels on the site endpoints");
  }
  Result<std::shared_ptr<ChannelSender>> OpenChannel(uint32_t,
                                                     int) override {
    return Status::InvalidArgument("open channels on the site endpoints");
  }
  void SetFilterHandler(FilterHandler) override {}

  Result<double> ShipFilter(int to_site, const std::string& label,
                            AttrId attr, const BloomFilter& filter) override {
    if (to_site < 0 || to_site >= num_sites()) {
      return Status::InvalidArgument("no such site");
    }
    // Any endpoint other than the destination carries the shipment; the
    // destination's own handler delivers it.
    const int from = (to_site + 1) % num_sites();
    return endpoints_[static_cast<size_t>(from)]->ShipFilter(to_site, label,
                                                             attr, filter);
  }

  Status Heal() override {
    Status first = Status::OK();
    for (const auto& e : endpoints_) {
      const Status st = e->Heal();
      if (!st.ok() && first.ok()) first = st;
    }
    return first;
  }

  LinkUsage TotalUsage() const override {
    LinkUsage total;
    for (const auto& e : endpoints_) {
      const LinkUsage u = e->TotalUsage();
      total.bytes += u.bytes;
      total.seconds += u.seconds;
    }
    return total;
  }

 private:
  std::vector<std::shared_ptr<TcpTransport>> endpoints_;
};

}  // namespace

Result<std::shared_ptr<Transport>> WireInProcessTcp(DistributedQuery& q,
                                                    uint32_t credit_window) {
  const int n = static_cast<int>(q.sites.size());
  if (n < 1) return Status::InvalidArgument("query has no sites");
  std::vector<std::shared_ptr<TcpTransport>> endpoints;
  for (int s = 0; s < n; ++s) {
    TcpTransportOptions to;
    to.local_site = s;
    to.num_sites = n;
    to.credit_window = credit_window;
    endpoints.push_back(std::make_shared<TcpTransport>(to));
    PUSHSIP_RETURN_NOT_OK(endpoints.back()->Listen());
  }
  std::vector<TcpPeer> all_peers;
  for (int s = 0; s < n; ++s) {
    all_peers.push_back({s, "127.0.0.1", endpoints[s]->listen_port()});
  }
  for (int s = 0; s < n; ++s) {
    std::vector<TcpPeer> others;
    for (const TcpPeer& p : all_peers) {
      if (p.site != s) others.push_back(p);
    }
    endpoints[s]->SetPeers(std::move(others));
    PUSHSIP_RETURN_NOT_OK(WireTransport(q, endpoints[s]));
    SiteEngine* engine = q.sites[static_cast<size_t>(s)].get();
    endpoints[s]->SetFilterHandler(
        [engine](const std::string& label, AttrId attr, BloomFilter filter) {
          engine->AttachRemoteFilter(
              attr, std::make_shared<AipSet>(std::move(filter)), label);
        });
  }
  auto set = std::make_shared<InProcessTcpSet>(std::move(endpoints));
  PUSHSIP_RETURN_NOT_OK(set->Start());
  q.transport = set;
  return std::shared_ptr<Transport>(set);
}

Result<SiteRunResult> RunScaleOutSite(const SiteProcessOptions& options,
                                      std::shared_ptr<Transport> transport) {
  if (options.site < 0 || options.site >= options.num_sites) {
    return Status::InvalidArgument("site id out of range");
  }
  TpchConfig gen;
  gen.scale_factor = options.scale_factor;
  gen.seed = options.seed;
  auto catalog = MakeTpchCatalog(gen);

  ScaleOutOptions so;
  so.num_sites = options.num_sites;
  so.aip = options.aip;
  so.weak_part_filter = options.weak_part_filter;
  so.batch_size = options.batch_size;
  so.deterministic_merge = options.deterministic_merge;
  so.exchange_idle_timeout_sec = options.exchange_idle_timeout_sec;
  so.transport = transport;
  PUSHSIP_ASSIGN_OR_RETURN(std::unique_ptr<DistributedQuery> query,
                           BuildScaleOutQuery(options.query, catalog, so));
  query->transport = transport;
  query->local_site = options.site;
  query->root_site = 0;
  PUSHSIP_RETURN_NOT_OK(WireTransport(*query, transport));

  SiteEngine* local_engine = nullptr;
  for (const auto& site : query->sites) {
    if (site->id() == options.site) local_engine = site.get();
  }
  if (local_engine == nullptr) {
    return Status::Internal("local site missing from the assembled query");
  }
  transport->SetFilterHandler(
      [local_engine](const std::string& label, AttrId attr,
                     BloomFilter filter) {
        local_engine->AttachRemoteFilter(
            attr, std::make_shared<AipSet>(std::move(filter)), label);
      });

  PUSHSIP_RETURN_NOT_OK(transport->Start());
  PUSHSIP_ASSIGN_OR_RETURN(DistQueryStats stats, query->Run());

  SiteRunResult out;
  out.stats = stats;
  if (options.site == query->root_site) {
    std::vector<Tuple> rows = query->root_sink->TakeRows();
    // Result normalization: the sorted rows' standalone wire batch is the
    // canonical answer bytes the coordinator bit-compares against the
    // in-process run.
    std::sort(rows.begin(), rows.end(),
              [](const Tuple& a, const Tuple& b) { return a.Compare(b) < 0; });
    out.rows_wire = SerializeBatch(Batch::FromRows(rows));
  }
  // Our fragments are done, which means every peer feeding us already sent
  // its finish markers and everything we owed peers has been written;
  // closing now lets in-flight bytes drain (normal FIN semantics).
  transport->Shutdown();
  return out;
}

std::string EncodeStatsLine(const DistQueryStats& s) {
  char buf[1024];
  std::snprintf(
      buf, sizeof(buf),
      "STATS elapsed=%a rows=%" PRId64 " peak=%" PRId64 " pruned=%" PRId64
      " src_pruned=%" PRId64 " bytes=%" PRId64 " link=%a sets=%" PRId64
      " filters=%" PRId64 " ship=%a restarts=%" PRId64 " discarded=%" PRId64
      " faults=%" PRId64 " reships=%" PRId64 " stragglers=%" PRId64
      " migrations=%" PRId64 " recalibs=%" PRId64 " transposes=%" PRId64
      " dictreships=%" PRId64 " stall=%a payload=%" PRId64
      " ckpts=%" PRId64 " ckptbytes=%" PRId64 " recoveries=%" PRId64
      " restore=%a reattached=%" PRId64,
      s.elapsed_sec, s.result_rows, s.peak_state_bytes, s.rows_pruned,
      s.rows_source_pruned, s.bytes_shipped, s.link_seconds, s.aip_sets,
      s.aip_filters, s.aip_ship_seconds, s.fragment_restarts,
      s.batches_discarded, s.faults_injected, s.aip_reships,
      s.stragglers_detected, s.fragment_migrations, s.recalibrations,
      s.encode_transposes, s.dict_reships, s.stall_seconds, s.payload_bytes,
      s.checkpoints_taken, s.checkpoint_bytes, s.state_recoveries,
      s.restore_seconds, s.aip_reattached);
  return buf;
}

Result<DistQueryStats> ParseStatsLine(const std::string& line) {
  const char* p = line.c_str();
  if (std::strncmp(p, "STATS ", 6) == 0) p += 6;
  DistQueryStats s;
  const int matched = std::sscanf(
      p,
      "elapsed=%la rows=%" SCNd64 " peak=%" SCNd64 " pruned=%" SCNd64
      " src_pruned=%" SCNd64 " bytes=%" SCNd64 " link=%la sets=%" SCNd64
      " filters=%" SCNd64 " ship=%la restarts=%" SCNd64 " discarded=%" SCNd64
      " faults=%" SCNd64 " reships=%" SCNd64 " stragglers=%" SCNd64
      " migrations=%" SCNd64 " recalibs=%" SCNd64 " transposes=%" SCNd64
      " dictreships=%" SCNd64 " stall=%la payload=%" SCNd64
      " ckpts=%" SCNd64 " ckptbytes=%" SCNd64 " recoveries=%" SCNd64
      " restore=%la reattached=%" SCNd64,
      &s.elapsed_sec, &s.result_rows, &s.peak_state_bytes, &s.rows_pruned,
      &s.rows_source_pruned, &s.bytes_shipped, &s.link_seconds, &s.aip_sets,
      &s.aip_filters, &s.aip_ship_seconds, &s.fragment_restarts,
      &s.batches_discarded, &s.faults_injected, &s.aip_reships,
      &s.stragglers_detected, &s.fragment_migrations, &s.recalibrations,
      &s.encode_transposes, &s.dict_reships, &s.stall_seconds,
      &s.payload_bytes, &s.checkpoints_taken, &s.checkpoint_bytes,
      &s.state_recoveries, &s.restore_seconds, &s.aip_reattached);
  if (matched != 26) {
    return Status::InvalidArgument("malformed STATS line: " + line);
  }
  return s;
}

std::string HexEncode(const std::string& bytes) {
  static const char kDigits[] = "0123456789abcdef";
  std::string out;
  out.reserve(bytes.size() * 2);
  for (const char byte : bytes) {
    const unsigned char c = static_cast<unsigned char>(byte);
    out.push_back(kDigits[c >> 4]);
    out.push_back(kDigits[c & 0xf]);
  }
  return out;
}

Result<std::string> HexDecode(const std::string& hex) {
  if (hex.size() % 2 != 0) {
    return Status::InvalidArgument("odd-length hex string");
  }
  const auto nibble = [](char c) -> int {
    if (c >= '0' && c <= '9') return c - '0';
    if (c >= 'a' && c <= 'f') return c - 'a' + 10;
    if (c >= 'A' && c <= 'F') return c - 'A' + 10;
    return -1;
  };
  std::string out;
  out.reserve(hex.size() / 2);
  for (size_t i = 0; i < hex.size(); i += 2) {
    const int hi = nibble(hex[i]);
    const int lo = nibble(hex[i + 1]);
    if (hi < 0 || lo < 0) {
      return Status::InvalidArgument("non-hex character in ROWS payload");
    }
    out.push_back(static_cast<char>((hi << 4) | lo));
  }
  return out;
}

std::string FindSiteBinary() {
  char buf[4096];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "";
  buf[n] = '\0';
  std::string dir(buf);
  const size_t slash = dir.rfind('/');
  dir = slash == std::string::npos ? "." : dir.substr(0, slash);
  for (const std::string& candidate :
       {dir + "/pushsip_site", dir + "/../tools/pushsip_site"}) {
    if (::access(candidate.c_str(), X_OK) == 0) return candidate;
  }
  return "";
}

namespace {

/// Binds `n` loopback listeners on ephemeral ports, records the ports, and
/// releases them. All sockets stay open until every port is picked so the
/// kernel cannot hand the same port out twice within the batch.
Result<std::vector<uint16_t>> PickFreePorts(int n) {
  std::vector<int> fds;
  std::vector<uint16_t> ports;
  Status failure = Status::OK();
  for (int i = 0; i < n && failure.ok(); ++i) {
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0) {
      failure = Status::IOError("socket: " + std::string(strerror(errno)));
      break;
    }
    fds.push_back(fd);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = 0;
    socklen_t len = sizeof(addr);
    if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0 ||
        ::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
      failure = Status::IOError("bind: " + std::string(strerror(errno)));
      break;
    }
    ports.push_back(ntohs(addr.sin_port));
  }
  for (const int fd : fds) ::close(fd);
  if (!failure.ok()) return failure;
  return ports;
}

struct ChildProc {
  pid_t pid = -1;
  int out = -1;  ///< read end of the child's stdout pipe
  std::string output;
};

/// Drains every child's stdout until EOF. The children run concurrently,
/// so the pipes must be polled together — reading them one by one could
/// deadlock a writer blocked on a full pipe the reader has not reached.
Status DrainChildren(std::vector<ChildProc>& children) {
  std::vector<pollfd> pfds;
  for (;;) {
    pfds.clear();
    for (const ChildProc& child : children) {
      if (child.out >= 0) pfds.push_back({child.out, POLLIN, 0});
    }
    if (pfds.empty()) return Status::OK();
    if (::poll(pfds.data(), pfds.size(), -1) < 0) {
      if (errno == EINTR) continue;
      return Status::IOError("poll: " + std::string(strerror(errno)));
    }
    for (const pollfd& pfd : pfds) {
      if ((pfd.revents & (POLLIN | POLLHUP | POLLERR)) == 0) continue;
      ChildProc* child = nullptr;
      for (ChildProc& c : children) {
        if (c.out == pfd.fd) child = &c;
      }
      char buf[65536];
      const ssize_t n = ::read(pfd.fd, buf, sizeof(buf));
      if (n > 0) {
        child->output.append(buf, static_cast<size_t>(n));
      } else if (n == 0 || errno != EINTR) {
        ::close(child->out);
        child->out = -1;
      }
    }
  }
}

}  // namespace

Result<MultiProcessResult> RunMultiProcess(const MultiProcessOptions& options) {
  if (options.num_sites < 1 || options.num_sites > 64) {
    return Status::InvalidArgument("num_sites must be in [1, 64]");
  }
  const std::string binary =
      options.site_binary.empty() ? FindSiteBinary() : options.site_binary;
  if (binary.empty() || ::access(binary.c_str(), X_OK) != 0) {
    return Status::NotFound(
        "pushsip_site binary not found (looked next to this executable and "
        "in ../tools; override with MultiProcessOptions::site_binary)");
  }
  PUSHSIP_ASSIGN_OR_RETURN(std::vector<uint16_t> ports,
                           PickFreePorts(options.num_sites));
  std::string peers;
  for (int i = 0; i < options.num_sites; ++i) {
    if (i > 0) peers += ",";
    peers += std::to_string(i) + "=127.0.0.1:" + std::to_string(ports[i]);
  }

  char sf[64];
  std::snprintf(sf, sizeof(sf), "%.17g", options.scale_factor);
  std::vector<ChildProc> children(options.num_sites);
  Status spawn_failure = Status::OK();
  for (int i = 0; i < options.num_sites; ++i) {
    // argv is fully materialized before fork: the child must not allocate
    // between fork and exec (the parent may have been multi-threaded).
    std::vector<std::string> args = {
        binary,
        "--site=" + std::to_string(i),
        "--sites=" + std::to_string(options.num_sites),
        "--query=" + std::string(options.query == ScaleOutQuery::kQ17
                                     ? "q17"
                                     : "subquery"),
        "--sf=" + std::string(sf),
        "--seed=" + std::to_string(options.seed),
        "--port=" + std::to_string(ports[i]),
        "--peers=" + peers,
        "--aip=" + std::to_string(options.aip ? 1 : 0),
        "--weak-filter=" + std::to_string(options.weak_part_filter ? 1 : 0),
        "--merge=" + std::to_string(options.deterministic_merge ? 1 : 0),
        "--window=" + std::to_string(options.credit_window),
        "--batch=" + std::to_string(options.batch_size),
    };
    if (options.trace) {
      args.push_back("--trace-hex=1");
      // Align every child's clock to the coordinator's epoch so the merged
      // trace shares one time axis without a handshake.
      args.push_back("--trace-epoch=" +
                     std::to_string(obs::Trace::epoch_micros()));
    }
    std::vector<char*> argv;
    argv.reserve(args.size() + 1);
    for (std::string& a : args) argv.push_back(a.data());
    argv.push_back(nullptr);

    int pipefd[2];
    if (::pipe(pipefd) != 0) {
      spawn_failure = Status::IOError("pipe: " + std::string(strerror(errno)));
      break;
    }
    const pid_t pid = ::fork();
    if (pid < 0) {
      ::close(pipefd[0]);
      ::close(pipefd[1]);
      spawn_failure = Status::IOError("fork: " + std::string(strerror(errno)));
      break;
    }
    if (pid == 0) {
      ::dup2(pipefd[1], STDOUT_FILENO);
      ::close(pipefd[0]);
      ::close(pipefd[1]);
      ::execv(binary.c_str(), argv.data());
      const char msg[] = "execv pushsip_site failed\n";
      const ssize_t ignored = ::write(STDERR_FILENO, msg, sizeof(msg) - 1);
      (void)ignored;
      ::_exit(127);
    }
    ::close(pipefd[1]);
    children[i].pid = pid;
    children[i].out = pipefd[0];
  }

  Status failure =
      spawn_failure.ok() ? DrainChildren(children) : spawn_failure;
  for (int i = 0; i < options.num_sites; ++i) {
    ChildProc& child = children[i];
    if (child.pid < 0) continue;
    if (!failure.ok()) ::kill(child.pid, SIGKILL);
    int wstatus = 0;
    ::waitpid(child.pid, &wstatus, 0);
    if (child.out >= 0) {
      ::close(child.out);
      child.out = -1;
    }
    if (failure.ok() &&
        (!WIFEXITED(wstatus) || WEXITSTATUS(wstatus) != 0)) {
      failure = Status::Internal("site " + std::to_string(i) +
                                 " process failed (status " +
                                 std::to_string(wstatus) + ")");
    }
  }
  if (!failure.ok()) return failure;

  MultiProcessResult result;
  for (int i = 0; i < options.num_sites; ++i) {
    bool got_stats = false;
    size_t pos = 0;
    const std::string& text = children[i].output;
    while (pos < text.size()) {
      size_t eol = text.find('\n', pos);
      if (eol == std::string::npos) eol = text.size();
      const std::string line = text.substr(pos, eol - pos);
      pos = eol + 1;
      if (line.rfind("STATS ", 0) == 0) {
        PUSHSIP_ASSIGN_OR_RETURN(const DistQueryStats s, ParseStatsLine(line));
        DistQueryStats& t = result.stats;
        t.elapsed_sec = std::max(t.elapsed_sec, s.elapsed_sec);
        t.result_rows += s.result_rows;
        t.peak_state_bytes += s.peak_state_bytes;
        t.rows_pruned += s.rows_pruned;
        t.rows_source_pruned += s.rows_source_pruned;
        t.bytes_shipped += s.bytes_shipped;
        t.link_seconds += s.link_seconds;
        t.aip_sets += s.aip_sets;
        t.aip_filters += s.aip_filters;
        t.aip_ship_seconds += s.aip_ship_seconds;
        t.fragment_restarts += s.fragment_restarts;
        t.batches_discarded += s.batches_discarded;
        t.faults_injected += s.faults_injected;
        t.aip_reships += s.aip_reships;
        t.stragglers_detected += s.stragglers_detected;
        t.fragment_migrations += s.fragment_migrations;
        t.recalibrations += s.recalibrations;
        t.encode_transposes += s.encode_transposes;
        t.dict_reships += s.dict_reships;
        t.stall_seconds += s.stall_seconds;
        t.payload_bytes += s.payload_bytes;
        t.checkpoints_taken += s.checkpoints_taken;
        t.checkpoint_bytes += s.checkpoint_bytes;
        t.state_recoveries += s.state_recoveries;
        t.restore_seconds += s.restore_seconds;
        t.aip_reattached += s.aip_reattached;
        if (result.per_site.size() < static_cast<size_t>(i + 1)) {
          result.per_site.resize(i + 1);
        }
        result.per_site[i] = s;
        got_stats = true;
      } else if (line.rfind("ROWS ", 0) == 0) {
        PUSHSIP_ASSIGN_OR_RETURN(result.rows_wire, HexDecode(line.substr(5)));
      } else if (line.rfind("TRACE ", 0) == 0) {
        PUSHSIP_ASSIGN_OR_RETURN(const std::string events,
                                 HexDecode(line.substr(6)));
        if (!events.empty()) {
          if (!result.trace_events_json.empty()) {
            result.trace_events_json += ",";
          }
          result.trace_events_json += events;
        }
      }
    }
    if (!got_stats) {
      return Status::Internal("site " + std::to_string(i) +
                              " reported no STATS line");
    }
  }
  if (result.rows_wire.empty()) {
    return Status::Internal("root site reported no ROWS line");
  }
  return result;
}

}  // namespace pushsip
